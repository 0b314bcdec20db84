//! The AVMON simulator benchmark: runs one workload for a while, checks
//! its outputs, and prints its metrics. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! perfbench --workload <stat_10k|churn_apps_2k|faults_query_2k> --seed <n>
//!           --seconds <s> --trace <0|1> [--commit <id>] [--spans-out <file>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs one traced repetition, then one untraced one, and prints the
//! per-layer metrics. See README.md for what each metric means.

mod probe;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use avmon_sim::metrics::mean;
use probe::Tracer;
use stats::{percentile, summarize, tail_percentile, valid_metric_name};
use workload::{run_rep, setup_only, Rep, Workload};

/// End-to-end metrics (untraced runs): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("node_min_per_s", "node_min/s"),
    ("peak_rss_mib", "MiB"),
    ("hash_checks_per_node_s", "checks/s"),
    ("bytes_per_node_s", "B/s"),
];

/// Per-layer metrics (traced runs): name and unit.
const PER_LAYER: [(&str, &str); 49] = [
    ("churn.trace_build_s", "s"),
    ("sim.new_s", "s"),
    ("sim.run_s.warmup", "s"),
    ("sim.run_s.measured", "s"),
    ("sim.report_s", "s"),
    ("sim.events", "count"),
    ("sim.heap_pops", "count"),
    ("sim.lane_pops", "count"),
    ("sim.wheel_pops", "count"),
    ("sim.expire_skips", "count"),
    ("sim.ns_per_event", "ns"),
    ("core.hash_checks", "count"),
    ("core.messages_sent", "count"),
    ("core.delivery_ratio", "ratio"),
    ("core.memory_entries_per_node", "entries"),
    ("core.memo_hits", "count"),
    ("core.memo_misses", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("hash.ns_per_check", "ns"),
    ("hash.est_share", "ratio"),
    ("invariants.checks", "count"),
    ("invariants.set_scans_skipped", "count"),
    ("invariants.memo_hits", "count"),
    ("invariants.sweep_ms", "ms"),
    ("invariants.sweep_ms.incremental", "ms"),
    ("discovery.p50_s", "sim_s"),
    ("discovery.p90_s", "sim_s"),
    ("discovery.undiscovered", "count"),
    ("qos.detections", "count"),
    ("qos.mistake_episodes", "count"),
    ("qos.mistake_rate_per_h", "1/h"),
    ("qos.detection_p90_s", "sim_s"),
    ("query.issued", "count"),
    ("query.report_outcomes", "count"),
    ("query.verified_claims", "count"),
    ("query.history_answers", "count"),
    ("query.retries", "count"),
    ("query.unanswered", "count"),
    ("query.ok_ratio", "ratio"),
    ("query.p50_s", "sim_s"),
    ("query.p90_s", "sim_s"),
    ("query.call_s", "s"),
    ("app.decisions", "count"),
    ("app.draws", "count"),
    ("mem.rss_after_setup_mib", "MiB"),
    ("mem.rss_after_warmup_mib", "MiB"),
    ("mem.bytes_per_node", "B"),
    ("report.avail_abs_err", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Set-up-only repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Measured repetitions per untraced run: at least this many, so that
/// digests can be compared and the median passes over a slow first
/// repetition, and at most this many.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    spans_out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut named = BTreeMap::new();
    while let Some(key) = args.next() {
        let value = args.next().ok_or(format!("{key} needs a value"))?;
        match key.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--commit" | "--spans-out" => {
                named.insert(key, value);
            }
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    let get = |key: &str| named.get(key).ok_or(format!("missing {key}"));
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: if seconds > 0.0 {
            seconds
        } else {
            return Err("--seconds must be positive".into());
        },
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        commit: named
            .get("--commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
        spans_out: named.get("--spans-out").map(PathBuf::from),
    })
}

/// Metric values in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The outcome of one benchmark run.
struct Outcome {
    metrics: Metrics,
    digests: Vec<String>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Extra fields for the detail record, as JSON members.
    record: Vec<(String, String)>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = std::panic::catch_unwind(|| {
        if args.trace {
            traced_run(&args)
        } else {
            untraced_run(&args)
        }
    });
    let outcome = match outcome {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => Outcome {
            metrics: Vec::new(),
            digests: Vec::new(),
            problems: vec!["the run panicked".into()],
            attempted: 1,
            failed: 1,
            record: Vec::new(),
        },
    };
    print_outcome(&args, outcome);
    ExitCode::SUCCESS
}

/// Runs repetitions until `seconds` of measuring are used up.
fn untraced_run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let setups = setup_reps(w, args.seed)?;
    let mut reps: Vec<Rep> = Vec::new();
    let mut run_rates = Vec::new();
    let start = probe::now();
    loop {
        let mut rep = run_rep(w, args.seed, &mut Tracer::new(false))?;
        run_rates.push(rep.node_minutes / rep.run_s);
        if !reps.is_empty() {
            // Only the first repetition's report is read; keep the rest small.
            rep.report.series.clear();
            rep.report.discovery.clear();
            rep.report.availability.clear();
        }
        reps.push(rep);
        let per_rep = start.elapsed().as_secs_f64() / reps.len() as f64;
        let more_fit = start.elapsed().as_secs_f64() + per_rep <= args.seconds;
        if reps.len() >= MAX_REPS || (reps.len() >= MIN_REPS && !more_fit) {
            break;
        }
    }
    let (_, peak_rss) = probe::rss_mib();
    let report = &reps[0].report;
    let discovery = discovery_s(report);
    let setup = summarize(&setups).expect("set-up samples");
    let rate = summarize(&run_rates).expect("run samples");
    let metrics = vec![
        ("setup_s", setup.median),
        ("node_min_per_s", rate.median),
        ("peak_rss_mib", peak_rss),
        ("hash_checks_per_node_s", mean(&report.comps_per_second())),
        ("bytes_per_node_s", mean(&report.bandwidth_bps())),
    ];
    let mut record = vec![
        ("setup_s".to_string(), summary_json(&setups)),
        ("node_min_per_s".to_string(), summary_json(&run_rates)),
        ("discovery".to_string(), tail_json(&discovery)),
    ];
    if w == Workload::FaultsQuery2k {
        record.push(("query".to_string(), tail_json(&reps[0].queries.latencies_s)));
    }
    Ok(finish(reps, with_units(metrics, &END_TO_END), record))
}

/// One traced repetition, then one untraced repetition of the same seed for
/// the digest comparison and the tracing overhead.
fn traced_run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut tracer = Tracer::new(true);
    let traced = run_rep(w, args.seed, &mut tracer)?;
    let untraced = run_rep(w, args.seed, &mut Tracer::new(false))?;
    let setups = setup_reps_split(w, args.seed)?;
    let trace_build: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let new: Vec<f64> = setups.iter().map(|s| s.1).collect();

    let report = &traced.report;
    let discovery = discovery_s(report);
    let layers = traced
        .layers
        .clone()
        .expect("traced repetitions read the layers");
    let cal = layers.calendar;
    let events = cal.heap_pops + cal.lane_pops + cal.wheel_pops;
    let run_s = tracer.total_s("sim.run.warmup") + tracer.total_s("sim.run.measured");
    let totals = &report.totals;
    let q = &traced.queries;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let memo_lookups = (layers.memo_hits + layers.memo_misses) as f64;
    let avail_err: Vec<f64> = report
        .availability
        .iter()
        .map(|m| (m.estimated - m.actual).abs())
        .collect();
    let metrics = vec![
        (
            "churn.trace_build_s",
            summarize(&trace_build).expect("samples").median,
        ),
        ("sim.new_s", summarize(&new).expect("samples").median),
        ("sim.run_s.warmup", tracer.total_s("sim.run.warmup")),
        ("sim.run_s.measured", tracer.total_s("sim.run.measured")),
        ("sim.report_s", tracer.total_s("sim.report")),
        ("sim.events", events as f64),
        ("sim.heap_pops", cal.heap_pops as f64),
        ("sim.lane_pops", cal.lane_pops as f64),
        ("sim.wheel_pops", cal.wheel_pops as f64),
        ("sim.expire_skips", cal.expire_skips as f64),
        (
            "sim.ns_per_event",
            ratio(layers.calendar_run_s * 1e9, events as f64),
        ),
        ("core.hash_checks", totals.hash_checks as f64),
        ("core.messages_sent", totals.messages_sent as f64),
        (
            "core.delivery_ratio",
            ratio(totals.messages_received as f64, totals.messages_sent as f64),
        ),
        (
            "core.memory_entries_per_node",
            mean(&report.memory_entries()),
        ),
        ("core.memo_hits", layers.memo_hits as f64),
        ("core.memo_misses", layers.memo_misses as f64),
        (
            "core.memo_hit_ratio",
            ratio(layers.memo_hits as f64, memo_lookups),
        ),
        ("hash.ns_per_check", layers.hash_ns_per_check),
        (
            "hash.est_share",
            ratio(
                layers.hash_ns_per_check * totals.hash_checks as f64 / 1e9,
                run_s,
            ),
        ),
        ("invariants.checks", report.invariants.checks as f64),
        (
            "invariants.set_scans_skipped",
            report.invariants.set_scans_skipped as f64,
        ),
        ("invariants.memo_hits", report.invariants.memo_hits as f64),
        ("invariants.sweep_ms", layers.sweep_fresh_ms),
        (
            "invariants.sweep_ms.incremental",
            layers.sweep_incremental_ms,
        ),
        (
            "discovery.p50_s",
            percentile(&discovery, 50.0).unwrap_or(0.0),
        ),
        (
            "discovery.p90_s",
            percentile(&discovery, 90.0).unwrap_or(0.0),
        ),
        ("discovery.undiscovered", traced.undiscovered as f64),
        ("qos.detections", report.qos.detection.count as f64),
        ("qos.mistake_episodes", report.qos.mistake_episodes as f64),
        ("qos.mistake_rate_per_h", report.qos.mistake_rate_per_hour),
        (
            "qos.detection_p90_s",
            report
                .qos
                .detection
                .percentile_upper_bound_secs(90.0)
                .unwrap_or(0) as f64,
        ),
        ("query.issued", q.issued as f64),
        ("query.report_outcomes", q.report_outcomes as f64),
        ("query.verified_claims", q.verified_claims as f64),
        ("query.history_answers", q.history_answers as f64),
        ("query.retries", q.retries as f64),
        ("query.unanswered", q.unanswered as f64),
        (
            "query.ok_ratio",
            ratio(q.answered as f64, (q.issued - q.withdrawn) as f64),
        ),
        (
            "query.p50_s",
            percentile(&q.latencies_s, 50.0).unwrap_or(0.0),
        ),
        (
            "query.p90_s",
            percentile(&q.latencies_s, 90.0).unwrap_or(0.0),
        ),
        ("query.call_s", tracer.total_s("query.call")),
        (
            "app.decisions",
            traced.log.as_ref().map_or(0, |l| l.decisions.len()) as f64,
        ),
        ("app.draws", report.invariants.rng_ledger.app_draws as f64),
        ("mem.rss_after_setup_mib", traced.rss_after_setup_mib),
        ("mem.rss_after_warmup_mib", traced.rss_after_warmup_mib),
        (
            "mem.bytes_per_node",
            ratio(
                (traced.rss_after_warmup_mib - traced.rss_before_mib) * 1024.0 * 1024.0,
                traced.alive_at_warmup as f64,
            ),
        ),
        ("report.avail_abs_err", mean(&avail_err)),
        ("trace.overhead_ratio", ratio(untraced.run_s, traced.run_s)),
    ];

    println!("spans (count, total s, self s):");
    for (name, count, total, own) in tracer.table() {
        println!("  {name:<22} {count:>8} {total:>10.4} {own:>10.4}");
    }
    if let Some(path) = &args.spans_out {
        write_spans(path, &tracer).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let record = vec![
        (
            "overhead_ratio".to_string(),
            json_num(ratio(untraced.run_s, traced.run_s)),
        ),
        ("spans".to_string(), tracer.spans().len().to_string()),
    ];
    Ok(finish(
        vec![traced, untraced],
        with_units(metrics, &PER_LAYER),
        record,
    ))
}

/// First-monitor discovery latencies in simulated seconds.
fn discovery_s(report: &avmon_sim::SimReport) -> Vec<f64> {
    report
        .discovery_latencies(1)
        .iter()
        .map(|&ms| ms as f64 / 1e3)
        .collect()
}

fn setup_reps(w: Workload, seed: u64) -> Result<Vec<f64>, String> {
    Ok(setup_reps_split(w, seed)?
        .into_iter()
        .map(|(t, n)| t + n)
        .collect())
}

fn setup_reps_split(w: Workload, seed: u64) -> Result<Vec<(f64, f64)>, String> {
    (0..SETUP_REPS).map(|_| setup_only(w, seed)).collect()
}

/// Pairs values with their declared units, in declaration order.
fn with_units(
    values: Vec<(&'static str, f64)>,
    declared: &[(&'static str, &'static str)],
) -> Metrics {
    assert_eq!(
        values.len(),
        declared.len(),
        "one value per declared metric"
    );
    values
        .into_iter()
        .zip(declared)
        .map(|((name, value), &(declared_name, unit))| {
            assert_eq!(name, declared_name, "metrics in declaration order");
            (name, value, unit)
        })
        .collect()
}

/// Folds the repetitions' checks and operation counts into an outcome.
fn finish(reps: Vec<Rep>, metrics: Metrics, record: Vec<(String, String)>) -> Outcome {
    let mut problems: Vec<String> = reps.iter().flat_map(|r| r.problems.clone()).collect();
    let digests: Vec<String> = reps.iter().map(|r| r.digest.clone()).collect();
    if digests.iter().any(|d| *d != digests[0]) {
        problems.push(format!(
            "report digests differ across repetitions: {digests:?}"
        ));
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() || !valid_metric_name(name) {
            problems.push(format!("metric {name} = {value} is not reportable"));
        }
    }
    // Every operation's answer is checked; a wrong one fails the run's
    // checks, and then every operation of the run counts as failed.
    let attempted = reps
        .iter()
        .map(|r| r.discoveries + r.queries.issued - r.queries.withdrawn)
        .sum();
    let (first, q) = (&reps[0], &reps[0].queries);
    let mut record = record;
    record.push((
        "ops_per_rep".to_string(),
        format!(
            "{{\"discoveries\": {}, \"undiscovered\": {}, \"queries\": {}, \
             \"unanswered\": {}, \"withdrawn\": {}}}",
            first.discoveries, first.undiscovered, q.issued, q.unanswered, q.withdrawn
        ),
    ));
    Outcome {
        metrics,
        digests,
        problems,
        attempted,
        failed: 0,
        record,
    }
}

fn print_outcome(args: &Args, mut outcome: Outcome) {
    let correct = outcome.problems.is_empty();
    if !correct {
        for p in &outcome.problems {
            println!("CHECK FAILED: {p}");
        }
        outcome.failed = outcome.attempted.max(1);
        outcome.attempted = outcome.attempted.max(1);
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let digest = outcome.digests.first().cloned().unwrap_or_default();
    println!("digest {} {digest}", args.workload.name());

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"commit\": \"{}\", \
         \"cores\": {cores}, \"reps\": {}, \"digest\": \"{digest}\", \
         \"failed_share\": {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.commit.replace(['"', '\\'], ""),
        outcome.digests.len(),
        json_num(stats::failed_share(outcome.attempted, outcome.failed)),
    );
    for (key, value) in &outcome.record {
        let _ = write!(record, ", \"{key}\": {value}");
    }
    println!("record {record}}}");

    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
}

/// A JSON number with every digit of `v` (0 for non-finite values, which
/// the outcome has already flagged as a failed check).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn summary_json(values: &[f64]) -> String {
    summarize(values).map_or("null".into(), |s| {
        format!(
            "{{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}}}",
            s.n,
            json_num(s.median),
            json_num(s.q1),
            json_num(s.q3),
            json_num(s.min),
            json_num(s.max)
        )
    })
}

/// Sample count, median and the highest percentile with ten samples
/// beyond it.
fn tail_json(values: &[f64]) -> String {
    let tail = tail_percentile(values.len());
    format!(
        "{{\"n\": {}, \"p50\": {}, \"tail_pct\": {}, \"tail\": {}, \"max\": {}}}",
        values.len(),
        json_num(percentile(values, 50.0).unwrap_or(0.0)),
        tail.map_or("null".into(), json_num),
        tail.and_then(|p| percentile(values, p))
            .map_or("null".into(), json_num),
        json_num(percentile(values, 100.0).unwrap_or(0.0)),
    )
}

fn write_spans(path: &std::path::Path, tracer: &Tracer) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, s) in tracer.spans().iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = s.parent.map_or("null".into(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_metric_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
    }

    /// The values of every `"key": "value"` member in `text`, in order.
    fn string_members(text: &str, key: &str) -> Vec<String> {
        let pattern = format!("\"{key}\": \"");
        text.match_indices(&pattern)
            .map(|(at, _)| {
                let rest = &text[at + pattern.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let (_, rest) = text.split_once("\"end_to_end\"").expect("end_to_end list");
        let (end_to_end, per_layer) = rest.split_once("\"per_layer\"").expect("per_layer list");
        for (section, declared) in [(end_to_end, &END_TO_END[..]), (per_layer, &PER_LAYER[..])] {
            let names: Vec<&str> = declared.iter().map(|m| m.0).collect();
            let units: Vec<&str> = declared.iter().map(|m| m.1).collect();
            assert_eq!(string_members(section, "name"), names);
            assert_eq!(string_members(section, "unit"), units);
        }
    }

    #[test]
    fn arguments() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload stat_10k --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (args.workload, args.seed, args.trace),
            (Workload::Stat10k, 7, true)
        );
        assert_eq!(args.commit, "unknown");
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload stat_10k --seed x --seconds 1 --trace 0",
            "--workload stat_10k --seed 1 --seconds 0 --trace 0",
            "--workload stat_10k --seed 1 --seconds 1 --trace 2",
            "--workload stat_10k --seed 1 --seconds 1",
            "--workload stat_10k --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
