//! The equivalence rig: every scenario family runs under each engine
//! configuration that claims to change nothing about a simulated run, and
//! each run must reproduce the family's pinned golden report digest.
//!
//! The configurations are the default engine, the pair-point memo off
//! (`SimOptions::node_memo(Some(0))` — the memo is a pure-hash evaluation
//! cache, and memo-off is the size-selected path above 8192 nodes), and
//! the sharded engine at 2 and 8 workers (`SimOptions::workers` — the
//! safe-horizon batching must be invisible). A golden digest (see
//! `avmon_tests::report_digest` and README "Golden digests") covers every
//! counter, discovery timestamp, float estimate, checker verdict and the
//! per-stream RNG ledger, so any RNG draw, reordered event or decision
//! influenced by a configuration fails here. The ledgers are also
//! compared run against run: a draw-count mismatch names the stream that
//! moved. Scenarios cover the fault machinery (loss + duplication +
//! jitter + partitions, freezes) and a protocol-level attacker, not just
//! the happy path.
//!
//! A second rig pins the end-of-run agreement sweep: the exact
//! candidate-index sweep reproduces the attacker golden, and the stride
//! cap stays available as the large-`N` fallback.

use avmon::{Behavior, Config, NodeId, MINUTE};
use avmon_churn::{stat, synthetic, SynthParams, Trace};
use avmon_sim::{
    CalendarStats, InvariantConfig, LinkFaults, RngLedger, Scenario, SimOptions, Simulation,
};
use avmon_tests::report_digest;

/// Runs `(trace, opts)` to the horizon; returns the serialized report,
/// the calendar counters and the per-stream RNG draw ledger.
fn run(trace: Trace, opts: SimOptions) -> (String, CalendarStats, RngLedger) {
    let mut sim = Simulation::new(trace, opts);
    let horizon = sim.trace().horizon;
    sim.run_until(horizon);
    let stats = sim.calendar_stats();
    let report = sim.into_report();
    let ledger = report.invariants.rng_ledger;
    let json = serde_json::to_string(&report).expect("reports serialize");
    (json, stats, ledger)
}

/// Runs the scenario `make` builds under every equivalent configuration
/// and asserts each run reproduces the pinned `golden` digest with the
/// same RNG ledger, and that the calendar's O(1) paths (timer lanes,
/// delivery wheel, dead-expiry discard) actually carried the run. Returns
/// the default configuration's report for scenario-specific assertions.
fn assert_equivalent(
    mut make: impl FnMut() -> (Trace, SimOptions),
    label: &str,
    golden: &str,
) -> String {
    let configs: [(&str, Option<usize>, usize); 4] = [
        ("default", None, 1),
        ("memo-off", Some(0), 1),
        ("sharded-2", None, 2),
        ("sharded-8", None, 8),
    ];
    let mut baseline: Option<(String, RngLedger)> = None;
    for (name, memo, workers) in configs {
        let (trace, opts) = make();
        let (report, stats, ledger) = run(trace, opts.node_memo(memo).workers(workers));
        // Ledger first: a draw-count mismatch names the stream that
        // moved, a far better diagnostic than the digest mismatch below.
        match &baseline {
            None => baseline = Some((report.clone(), ledger)),
            Some((_, base_ledger)) => assert_eq!(
                base_ledger, &ledger,
                "{label}/{name}: per-stream RNG draw counts diverged"
            ),
        }
        assert_eq!(
            report_digest(&report),
            golden,
            "{label}/{name}: report digest moved off the pinned golden (ledger {ledger:?})"
        );
        assert!(
            ledger.engine_draws > 0 && ledger.node_draws > 0,
            "{label}/{name}: the RNG ledger recorded no draws"
        );
        assert!(
            stats.lane_pops > 0 && stats.wheel_pops > 0,
            "{label}/{name}: the timer lanes or the delivery wheel never popped"
        );
        assert!(
            stats.expire_skips > 0,
            "{label}/{name}: no ponged-ping expiry was ever discarded in O(1)"
        );
    }
    baseline.expect("at least one config ran").0
}

// Golden report digests (see README "Golden digests"), one per scenario
// family, pinned from the engine all configurations agreed on.
const GOLDEN_CHURN: &str = "0e14ec614d222db2779e029967118729";
const GOLDEN_FAULTS: &str = "43a10609df9caa8aa44dec244cbcbd3b";
const GOLDEN_ATTACKER: &str = "630a06a991aa54e0558e737df8fd591a";
const GOLDEN_FUZZ: [(u64, &str); 3] = [
    (5, "ab317830ad83cbde5bb9b6285f76d50b"),
    (41, "1f4a19cf7fd28e5dd89c6576de5ee723"),
    (97, "e6de764e948dfcb8fe5c6ae4dc98d6b6"),
];

/// Fault-free churny baseline: births, deaths, rejoins.
#[test]
fn optimizations_are_invisible_on_churny_trace() {
    assert_equivalent(
        || {
            let trace = synthetic(SynthParams::synth_bd(90).duration(40 * MINUTE).seed(29));
            let opts = SimOptions::new(Config::builder(90).build().unwrap()).seed(12);
            (trace, opts)
        },
        "churn",
        GOLDEN_CHURN,
    );
}

/// The PR 2 fault machinery: base-link loss + duplication + jitter, a
/// healed partition, a loss burst, and a node freeze (the freeze forces
/// lane-popped timers through the requeue-on-thaw path).
#[test]
fn optimizations_are_invisible_under_faults() {
    assert_equivalent(
        || {
            let n = 80;
            let trace = stat(n, 40 * MINUTE, 0.1, 23);
            let ids: Vec<NodeId> = trace.identities().into_iter().collect();
            let scenario = Scenario::builder("equivalence-faults")
                .partition(
                    63 * MINUTE,
                    8 * MINUTE,
                    ids[..n / 4].to_vec(),
                    ids[n / 4..].to_vec(),
                )
                .loss_burst(75 * MINUTE, 4 * MINUTE, 0.4)
                .freeze(66 * MINUTE, 3 * MINUTE, ids[1])
                .freeze(70 * MINUTE, 2 * MINUTE, ids[2])
                .build()
                .unwrap();
            let mut opts = SimOptions::new(Config::builder(n).pr2(true).build().unwrap())
                .seed(17)
                .scenario(scenario);
            opts.network.faults = LinkFaults {
                loss: 0.10,
                duplicate: 0.05,
                jitter: 300,
            };
            (trace, opts)
        },
        "faults",
        GOLDEN_FAULTS,
    );
}

/// A lying monitor (`Behavior::FakeMonitor`) corrupting its target set:
/// the optimizations must neither mask nor alter the checker's verdict.
#[test]
fn optimizations_are_invisible_with_seeded_attacker() {
    let n = 60;
    let config = Config::builder(n).build().unwrap();
    let liar = NodeId::from_index(0);
    let selector = avmon::HashSelector::from_config_with_kind(&config, avmon::HasherKind::Fast64);
    let forged: Vec<NodeId> = (1..n as u32)
        .map(NodeId::from_index)
        .filter(|&t| !selector.is_monitor(liar, t))
        .take(3)
        .collect();
    assert!(!forged.is_empty());
    let report = assert_equivalent(
        || {
            let trace = stat(n, 30 * MINUTE, 0.1, 3);
            let opts = SimOptions::new(config.clone()).seed(3).behavior(
                liar,
                Behavior::FakeMonitor {
                    targets: forged.clone(),
                },
            );
            (trace, opts)
        },
        "attacker",
        GOLDEN_ATTACKER,
    );
    assert!(
        report.contains("GhostTarget"),
        "the seeded corruption must still be caught in every configuration"
    );
}

/// Fuzzed fault timelines: three seed-replayable random scenarios through
/// every configuration.
#[test]
fn optimizations_are_invisible_on_random_scenarios() {
    for (fuzz_seed, golden) in GOLDEN_FUZZ {
        assert_equivalent(
            || {
                let trace = synthetic(SynthParams::synth_bd(70).duration(35 * MINUTE).seed(13));
                let ids: Vec<NodeId> = trace.identities().into_iter().collect();
                let scenario = Scenario::random(fuzz_seed, &ids, 60 * MINUTE, 75 * MINUTE);
                let mut opts = SimOptions::new(Config::builder(70).build().unwrap())
                    .seed(fuzz_seed)
                    .scenario(scenario);
                opts.network.faults = LinkFaults {
                    loss: 0.05,
                    duplicate: 0.02,
                    jitter: 200,
                };
                (trace, opts)
            },
            "fuzz",
            golden,
        );
    }
}

/// The agreement sweep on the FakeMonitor scenario: the exact
/// candidate-index sweep reproduces the attacker golden — same
/// violations, same warnings, same check counts — and the stride-capped
/// fallback agrees wherever it samples (identical everything except the
/// agreement portion it deliberately thins).
#[test]
fn exact_agreement_sweep_matches_golden_on_fake_monitor_scenario() {
    let n = 60;
    let config = Config::builder(n).build().unwrap();
    let liar = NodeId::from_index(0);
    let selector = avmon::HashSelector::from_config_with_kind(&config, avmon::HasherKind::Fast64);
    let forged: Vec<NodeId> = (1..n as u32)
        .map(NodeId::from_index)
        .filter(|&t| !selector.is_monitor(liar, t))
        .take(3)
        .collect();
    let make = |invariants: InvariantConfig| {
        let trace = stat(n, 30 * MINUTE, 0.1, 3);
        let opts = SimOptions::new(config.clone())
            .seed(3)
            .invariants(invariants)
            .behavior(
                liar,
                Behavior::FakeMonitor {
                    targets: forged.clone(),
                },
            );
        run(trace, opts).0
    };
    let exact = make(InvariantConfig::default());
    assert_eq!(
        report_digest(&exact),
        GOLDEN_ATTACKER,
        "the candidate-index sweep moved off the pinned golden"
    );
    // The capped fallback still flags the seeded per-sample corruption
    // (GhostTarget is found at sampling time, not by the agreement sweep).
    let capped = make(InvariantConfig::default().agreement_pair_cap(64));
    assert!(capped.contains("GhostTarget"));
    // And a cap comfortably above the pair count degenerates to the same
    // exact sweep.
    let wide_cap = make(InvariantConfig::default().agreement_pair_cap(u64::MAX / 2));
    assert_eq!(exact, wide_cap);
}
