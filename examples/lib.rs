//! Shared helpers for the AVMON example binaries.
//!
//! The examples demonstrate the workloads the paper's introduction
//! motivates: availability-aware replica selection [7], availability-based
//! multicast parent selection [11], plus operational tooling (a churn
//! dashboard) and a real UDP deployment.

use avmon::{AppEvent, NodeId};
use avmon_sim::Simulation;

/// Pretty-prints a `(label, value)` listing with aligned labels.
pub fn print_kv(pairs: &[(&str, String)]) {
    let width = pairs.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in pairs {
        println!("  {k:<width$}  {v}");
    }
}

/// Parsed command line of the `large_scale` example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LargeScaleArgs {
    /// Overlay size `N` (positional 1, default 50 000).
    pub n: usize,
    /// Warm-up minutes before measurement (positional 2, default 30).
    pub warmup_min: u64,
    /// Measured minutes (positional 3, default 10).
    pub duration_min: u64,
    /// Eventual-agreement pair-scan cap (`--pair-cap`, default uncapped).
    pub pair_cap: Option<u64>,
    /// Worker threads for the sharded engine (`--workers`, default 0 =
    /// one per core).
    pub workers: usize,
}

impl Default for LargeScaleArgs {
    fn default() -> Self {
        LargeScaleArgs {
            n: 50_000,
            warmup_min: 30,
            duration_min: 10,
            pair_cap: None,
            workers: 0,
        }
    }
}

/// Usage text printed when `large_scale` rejects its command line.
pub const LARGE_SCALE_USAGE: &str =
    "usage: large_scale [N] [WARMUP_MIN] [DURATION_MIN] [--pair-cap <n>] [--workers <n>]";

/// Parses the command line of the `large_scale` example: up to three
/// positional arguments, then the named `--pair-cap` and `--workers`
/// flags in any order.
///
/// Every argument is optional, but a *present* argument must parse: a
/// malformed value, an unknown or repeated flag, or a flag without its
/// value is an error (with usage text), never a silent fall back to the
/// default — `large_scale 50k` running the 50 000-node default would burn
/// an hour before anyone noticed the typo.
pub fn parse_large_scale_args(
    mut args: impl Iterator<Item = String>,
) -> Result<LargeScaleArgs, String> {
    fn value<T: std::str::FromStr>(raw: &str, name: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("large_scale: invalid {name} {raw:?}\n{LARGE_SCALE_USAGE}"))
    }
    let usage_error = |message: String| format!("large_scale: {message}\n{LARGE_SCALE_USAGE}");
    let mut parsed = LargeScaleArgs::default();
    let mut positional = 0;
    let mut flags_seen: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pair-cap" | "--workers" => {}
            flag if flag.starts_with("--") => {
                return Err(usage_error(format!("unknown flag {flag:?}")));
            }
            raw => {
                match positional {
                    0 => parsed.n = value(raw, "N")?,
                    1 => parsed.warmup_min = value(raw, "WARMUP_MIN")?,
                    2 => parsed.duration_min = value(raw, "DURATION_MIN")?,
                    _ => {
                        return Err(usage_error(format!(
                            "expected at most 3 positional arguments, got extra {raw:?}"
                        )));
                    }
                }
                positional += 1;
                continue;
            }
        }
        if flags_seen.contains(&arg) {
            return Err(usage_error(format!("{arg} given twice")));
        }
        let raw = args
            .next()
            .ok_or_else(|| usage_error(format!("{arg} needs a value")))?;
        if arg == "--pair-cap" {
            parsed.pair_cap = Some(value(&raw, "PAIR_CAP")?);
        } else {
            parsed.workers = value(&raw, "WORKERS")?;
        }
        flags_seen.push(arg);
    }
    Ok(parsed)
}

/// Collects the verified availability of `target` as seen through the
/// "l out of K" protocol: ask `target` for `l` monitors, verify each
/// claim, then query every verified monitor for its measured history and
/// average the answers.
///
/// Returns `(availability, verified_monitor_count)` or `None` if nothing
/// could be verified.
pub fn verified_availability(
    sim: &mut Simulation,
    asker: NodeId,
    target: NodeId,
    l: u8,
) -> Option<(f64, usize)> {
    use avmon::MINUTE;
    sim.request_report(asker, target, l);
    let deadline = sim.now() + MINUTE;
    sim.run_until(deadline);
    let mut monitors = Vec::new();
    for (node, event) in sim.take_app_events() {
        if node != asker {
            continue;
        }
        if let AppEvent::ReportOutcome {
            target: t,
            verification,
        } = event
        {
            if t == target {
                monitors = verification.verified;
            }
        }
    }
    if monitors.is_empty() {
        return None;
    }
    for &m in &monitors {
        sim.request_history(asker, m, target);
    }
    let deadline = sim.now() + MINUTE;
    sim.run_until(deadline);
    let mut estimates = Vec::new();
    for (node, event) in sim.take_app_events() {
        if node != asker {
            continue;
        }
        if let AppEvent::HistoryOutcome {
            target: t,
            availability: Some(a),
            ..
        } = event
        {
            if t == target {
                estimates.push(a);
            }
        }
    }
    if estimates.is_empty() {
        None
    } else {
        Some((
            estimates.iter().sum::<f64>() / estimates.len() as f64,
            monitors.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<LargeScaleArgs, String> {
        parse_large_scale_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn no_args_yields_the_defaults() {
        assert_eq!(parse(&[]).unwrap(), LargeScaleArgs::default());
    }

    #[test]
    fn all_args_parse_positionally() {
        let full = LargeScaleArgs {
            n: 10_000,
            warmup_min: 10,
            duration_min: 5,
            pair_cap: Some(20_000_000),
            workers: 4,
        };
        assert_eq!(
            parse(&[
                "10000",
                "10",
                "5",
                "--pair-cap",
                "20000000",
                "--workers",
                "4"
            ])
            .unwrap(),
            full
        );
        // Flags may come in any order, before or between positionals.
        assert_eq!(
            parse(&[
                "--workers",
                "4",
                "10000",
                "10",
                "--pair-cap",
                "20000000",
                "5"
            ])
            .unwrap(),
            full
        );
    }

    #[test]
    fn workers_need_no_pair_cap() {
        let parsed = parse(&["10000", "10", "5", "--workers", "2"]).unwrap();
        assert_eq!(parsed.workers, 2);
        assert_eq!(parsed.pair_cap, None);
        assert_eq!(parsed.n, 10_000);
    }

    #[test]
    fn prefix_args_leave_later_defaults() {
        let parsed = parse(&["10000"]).unwrap();
        assert_eq!(parsed.n, 10_000);
        assert_eq!(parsed.warmup_min, 30);
        assert_eq!(parsed.pair_cap, None);
        assert_eq!(parsed.workers, 0);
    }

    #[test]
    fn malformed_values_error_with_usage_not_silent_defaults() {
        for (args, name) in [
            (&["50k"][..], "N"),
            (&["10000", "ten"][..], "WARMUP_MIN"),
            (&["10000", "10", "5.5"][..], "DURATION_MIN"),
            (&["10000", "10", "5", "--pair-cap", "-1"][..], "PAIR_CAP"),
            (&["10000", "--workers", "many"][..], "WORKERS"),
            (
                &["10000", "--threads", "2"][..],
                "unknown flag \"--threads\"",
            ),
            (
                &["10000", "10", "5", "--workers"][..],
                "--workers needs a value",
            ),
            (&["--pair-cap"][..], "--pair-cap needs a value"),
            (
                &["--workers", "1", "--workers", "2"][..],
                "--workers given twice",
            ),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(name), "error {err:?} must name {name}");
            assert!(err.contains("usage:"), "error {err:?} must carry usage");
        }
    }

    #[test]
    fn excess_args_are_rejected() {
        let err = parse(&["1", "2", "3", "4"]).unwrap_err();
        assert!(err.contains("at most 3"));
        assert!(err.contains("usage:"));
    }
}
