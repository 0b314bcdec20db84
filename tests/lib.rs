//! Integration-test crate for the AVMON workspace; the tests live in the
//! sibling `*.rs` files declared in `Cargo.toml`.
//!
//! The library half holds what several suites share: the golden report
//! digest (see README "Golden digests").

/// The golden digest of a serialized [`avmon_sim::SimReport`]: hex MD5 of
/// its JSON with the `memo_policy` record stripped. Everything else is
/// covered — every counter, discovery timestamp, float estimate, checker
/// verdict and the per-stream RNG ledger — so one pinned digest serves
/// every memo and worker configuration of a scenario.
///
/// # Panics
///
/// Panics if `json` is not a serialized report.
#[must_use]
pub fn report_digest(json: &str) -> String {
    avmon_hash::md5(without_memo_policy(json).as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Drops the `memo_policy` record from a serialized report. The policy
/// (slots, enabled, reason) is a deliberate record of the run's memo
/// *configuration*, and the rigs compare runs across different memo
/// configurations — so that one field legitimately differs while
/// everything observable must stay byte-identical.
fn without_memo_policy(json: &str) -> String {
    use serde::Value;
    fn strip(value: &mut Value) {
        match value {
            Value::Map(entries) => {
                entries.retain(|(key, _)| !matches!(key, Value::Str(s) if s == "memo_policy"));
                for (_, entry) in entries.iter_mut() {
                    strip(entry);
                }
            }
            Value::Seq(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let mut value: Value = serde_json::from_str(json).expect("reports parse");
    assert!(
        json.contains("\"memo_policy\""),
        "the report no longer surfaces the memo policy"
    );
    strip(&mut value);
    serde_json::to_string(&value).expect("values serialize")
}
