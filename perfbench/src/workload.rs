//! The three workloads: inputs derived from the seed, one repetition run
//! through the layers' public APIs, and the checks on what it produced.
//!
//! The engine runs on its defaults: no workload sets the worker count, the
//! calendar, the invariant sweep, the node memo or the hasher.

use std::collections::BTreeMap;

use avmon::{
    AppEvent, Config, DurMs, HashSelector, NodeId, SharedSelector, TimeMs, MINUTE, SECOND,
};
use avmon_app::{apps::watchdog_selector, DecisionLog, SimExecutor};
use avmon_churn::{synthetic, SynthParams, Trace};
use avmon_hash::fast64::mix64;
use avmon_sim::{
    CalendarStats, LinkFaults, NetworkModel, Scenario, SimOptions, SimReport, Simulation,
};

use crate::probe::{self, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// STAT, N = 10 000: no churn, a reliable network, a control group
    /// joining at the end of warm-up. Above the node memo's size limit, so
    /// every consistency check is a real hash.
    Stat10k,
    /// SYNTH-BD2, N = 2 000, with the watchdog app on every 20th identity
    /// under the sim executor: incarnations come and go.
    ChurnApps2k,
    /// SYNTH, N = 2 000, on a lossy network with a partition and a loss
    /// burst, while an open loop issues verified availability queries.
    FaultsQuery2k,
}

pub const ALL: [Workload; 3] = [
    Workload::Stat10k,
    Workload::ChurnApps2k,
    Workload::FaultsQuery2k,
];

/// A tracked node born at least this long before the horizon and still
/// without a monitor at the horizon counts as undiscovered.
const DISCOVERY_DEADLINE: DurMs = 3 * MINUTE;

const APP_PERIOD: DurMs = 10 * SECOND;
const APP_EVERY_NTH: usize = 20;
const APP_SELECT_K: usize = 3;

const QUERY_TICK: DurMs = 10 * SECOND;
const QUERIES_PER_TICK: usize = 20;
/// Monitors asked for in each report request ("l out of K").
const QUERY_L: u8 = 3;
/// A query is answered once one history answer arrives before this much
/// simulated time has passed since it was issued.
pub const QUERY_DEADLINE: DurMs = 4 * MINUTE;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stat10k => "stat_10k",
            Workload::ChurnApps2k => "churn_apps_2k",
            Workload::FaultsQuery2k => "faults_query_2k",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    fn params(self, seed: u64) -> SynthParams {
        match self {
            Workload::Stat10k => SynthParams {
                n: 10_000,
                churn_per_hour: 0.0,
                birth_death_per_day: 0.0,
                warmup: 2 * MINUTE,
                duration: 2 * MINUTE,
                control_fraction: 0.1,
                seed,
            },
            Workload::ChurnApps2k => SynthParams {
                warmup: 3 * MINUTE,
                duration: 6 * MINUTE,
                seed,
                ..SynthParams::synth_bd2(2_000)
            },
            Workload::FaultsQuery2k => SynthParams {
                warmup: 3 * MINUTE,
                duration: 10 * MINUTE,
                control_fraction: 0.1,
                seed,
                ..SynthParams::synth(2_000)
            },
        }
    }

    /// The simulation options: protocol defaults for `n`, plus the
    /// workload's network, fault timeline and discovery tracking.
    fn options(self, seed: u64, trace: &Trace) -> Result<SimOptions, String> {
        let config = Config::builder(trace.stable_size)
            .build()
            .map_err(|e| e.to_string())?;
        let mut opts = SimOptions::new(config).seed(seed);
        match self {
            Workload::Stat10k => {}
            Workload::ChurnApps2k => opts.track_all_discovery = true,
            Workload::FaultsQuery2k => {
                opts.network = NetworkModel {
                    faults: LinkFaults {
                        loss: 0.02,
                        ..LinkFaults::default()
                    },
                    ..NetworkModel::default()
                };
                // A 20/80 partition two minutes into the measured window,
                // once most of the control group is discovered, healing
                // after three; then a two-minute 30% loss burst.
                let mut ids: Vec<NodeId> = trace.identities().into_iter().collect();
                // detlint::allow(rng-stream): the benchmark's own generator, seeded from --seed
                SplitMix(mix64(seed ^ 0x9a27)).shuffle(&mut ids);
                let island = ids.split_off(ids.len() * 4 / 5);
                let at = trace.measure_from + 2 * MINUTE;
                let scenario = Scenario::builder("faults_query_2k")
                    .partition(at, 3 * MINUTE, island, ids)
                    .loss_burst(at + 3 * MINUTE, 2 * MINUTE, 0.3)
                    .build()
                    .map_err(|e| e.to_string())?;
                opts = opts.scenario(scenario);
            }
        }
        Ok(opts)
    }
}

/// A small deterministic generator for the benchmark's own choices
/// (partition sides, query askers and targets), kept apart from every
/// stream the simulator draws from.
pub struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        // detlint::allow(rng-stream): the benchmark's own generator, seeded from --seed
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

enum Engine {
    Sim(Box<Simulation>),
    Apps(SimExecutor),
}

/// A workload set up and ready to run.
struct Prepared {
    engine: Engine,
    horizon: TimeMs,
    measure_from: TimeMs,
    alive_at_warmup: usize,
    /// Alive node-time of the whole trace, in minutes.
    node_minutes: f64,
    selector: SharedSelector,
    config: Config,
    lossy: bool,
    trace_s: f64,
    new_s: f64,
}

/// Builds the workload's inputs from `seed` and the engine over them. With
/// `apps` false the churn workload runs without its app tasks.
fn prepare(w: Workload, seed: u64, apps: bool, tracer: &mut Tracer) -> Result<Prepared, String> {
    tracer.enter("churn.trace_build");
    let start = probe::now();
    let trace = synthetic(w.params(seed));
    let opts = w.options(seed, &trace)?;
    let trace_s = start.elapsed().as_secs_f64();
    tracer.exit();

    let (horizon, measure_from) = (trace.horizon, trace.measure_from);
    let node_minutes = trace
        .up_intervals()
        .values()
        .flatten()
        .map(|&(from, to)| to.min(horizon).saturating_sub(from) as f64 / MINUTE as f64)
        .sum();
    let alive_at_warmup = trace.alive_at(measure_from);
    let selector = HashSelector::from_config_with_kind(&opts.config, opts.hasher);
    let config = opts.config.clone();
    let lossy = !opts.network.faults.is_reliable();
    let spawn_on: Vec<NodeId> = trace
        .identities()
        .into_iter()
        .step_by(APP_EVERY_NTH)
        .collect();

    tracer.enter("sim.new");
    let start = probe::now();
    let sim = Simulation::try_new(trace, opts).map_err(|e| e.to_string())?;
    let engine = if w == Workload::ChurnApps2k && apps {
        let mut exec = SimExecutor::new(sim, seed);
        for id in spawn_on {
            exec.spawn(id, |h| watchdog_selector(h, APP_PERIOD, APP_SELECT_K));
        }
        Engine::Apps(exec)
    } else {
        Engine::Sim(Box::new(sim))
    };
    let new_s = start.elapsed().as_secs_f64();
    tracer.exit();

    Ok(Prepared {
        engine,
        horizon,
        measure_from,
        alive_at_warmup,
        node_minutes,
        selector,
        config,
        lossy,
        trace_s,
        new_s,
    })
}

/// Times set-up alone: `(trace build s, engine construction s)`.
pub fn setup_only(w: Workload, seed: u64) -> Result<(f64, f64), String> {
    let p = prepare(w, seed, true, &mut Tracer::new(false))?;
    Ok((p.trace_s, p.new_s))
}

/// Layer figures read at the horizon, before the report is built.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub calendar: CalendarStats,
    /// Host seconds of the run the calendar counters come from.
    pub calendar_run_s: f64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub hash_ns_per_check: f64,
    pub sweep_fresh_ms: f64,
    pub sweep_incremental_ms: f64,
}

/// Counters of the query loop.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    pub issued: u64,
    pub withdrawn: u64,
    pub answered: u64,
    /// Deadline passed without an answer while the asker stayed up.
    pub unanswered: u64,
    pub retries: u64,
    pub report_outcomes: u64,
    pub verified_claims: u64,
    pub history_answers: u64,
    /// Simulated seconds from issue to the first history answer; an
    /// unanswered query counts as the deadline.
    pub latencies_s: Vec<f64>,
}

/// What one repetition produced.
pub struct Rep {
    /// Host seconds from the first `run_until` until the report is in hand.
    pub run_s: f64,
    pub node_minutes: f64,
    pub report: SimReport,
    pub log: Option<DecisionLog>,
    pub digest: String,
    pub queries: QueryStats,
    /// Tracked discovery logs.
    pub discoveries: u64,
    /// Tracked nodes old enough to judge and still without a monitor.
    pub undiscovered: u64,
    pub rss_before_mib: f64,
    pub rss_after_setup_mib: f64,
    pub rss_after_warmup_mib: f64,
    pub alive_at_warmup: usize,
    /// Filled in by a traced repetition.
    pub layers: Option<Layers>,
    /// Failed output checks; empty when the repetition is correct.
    pub problems: Vec<String>,
}

/// Runs one repetition. A traced one records spans and reads the layer
/// probes at the horizon; the simulated run is the same either way.
pub fn run_rep(w: Workload, seed: u64, tracer: &mut Tracer) -> Result<Rep, String> {
    let traced = tracer.enabled();
    let rss_before_mib = probe::rss_mib().0;
    let p = prepare(w, seed, true, tracer)?;
    let rss_after_setup_mib = probe::rss_mib().0;
    let mut problems = Vec::new();
    let mut queries = QueryStats::default();
    let mut run_s = 0.0;
    let (horizon, measure_from) = (p.horizon, p.measure_from);
    let rss_after_warmup_mib;
    let (report, log, mut layers) = match p.engine {
        Engine::Sim(mut sim) => {
            timed(tracer, &mut run_s, "sim.run.warmup", |_| {
                sim.run_until(measure_from)
            });
            rss_after_warmup_mib = probe::rss_mib().0;
            timed(tracer, &mut run_s, "sim.run.measured", |tracer| {
                if w == Workload::FaultsQuery2k {
                    let rng = SplitMix(mix64(seed ^ 0x51e7));
                    QueryLoop::new(&p.selector, rng, &mut queries, &mut problems)
                        .run(&mut sim, tracer);
                } else {
                    sim.run_until(horizon);
                }
            });
            let layers = traced.then(|| probe_layers(&sim, &p.selector, &p.config, p.lossy, run_s));
            let report = timed(tracer, &mut run_s, "sim.report", |_| sim.into_report());
            (report, None, layers)
        }
        Engine::Apps(mut exec) => {
            timed(tracer, &mut run_s, "sim.run.warmup", |_| {
                exec.run_until(measure_from)
            });
            rss_after_warmup_mib = probe::rss_mib().0;
            timed(tracer, &mut run_s, "sim.run.measured", |_| {
                exec.run_until(horizon)
            });
            let (report, log) = timed(tracer, &mut run_s, "sim.report", |_| exec.into_report());
            (report, Some(log), None)
        }
    };
    // The app executor keeps its simulation to itself, so the layer probes
    // of the churn workload read a shadow run: the same inputs without the
    // app tasks.
    if traced && layers.is_none() {
        layers = Some(shadow_layers(w, seed)?);
    }

    let digest = digest(&report, log.as_ref())?;
    check_report(&report, &mut problems);
    let undiscovered = undiscovered(&report, horizon);
    let discoveries = report.discovery.len() as u64;
    Ok(Rep {
        run_s,
        node_minutes: p.node_minutes,
        report,
        log,
        digest,
        queries,
        discoveries,
        undiscovered,
        rss_before_mib,
        rss_after_setup_mib,
        rss_after_warmup_mib,
        alive_at_warmup: p.alive_at_warmup,
        layers,
        problems,
    })
}

/// Runs `f` inside a span named `name`, adding its host time to `run_s`.
fn timed<T>(
    tracer: &mut Tracer,
    run_s: &mut f64,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> T,
) -> T {
    tracer.enter(name);
    let start = probe::now();
    let out = f(tracer);
    *run_s += start.elapsed().as_secs_f64();
    tracer.exit();
    out
}

/// Reads the layer figures of a finished run at the horizon.
fn probe_layers(
    sim: &Simulation,
    selector: &SharedSelector,
    config: &Config,
    lossy: bool,
    run_s: f64,
) -> Layers {
    let (mut memo_hits, mut memo_misses) = (0, 0);
    for id in sim.alive() {
        let (hits, misses) = sim.node(id).map_or((0, 0), |n| n.point_memo_stats());
        memo_hits += hits;
        memo_misses += misses;
    }
    let (sweep_fresh_ms, sweep_incremental_ms) = probe::sweep_ms(sim, selector, config, lossy);
    Layers {
        calendar: sim.calendar_stats(),
        calendar_run_s: run_s,
        memo_hits,
        memo_misses,
        hash_ns_per_check: probe::hash_ns_per_check(sim, selector),
        sweep_fresh_ms,
        sweep_incremental_ms,
    }
}

/// Layer figures of the workload's inputs run without app tasks.
fn shadow_layers(w: Workload, seed: u64) -> Result<Layers, String> {
    let p = prepare(w, seed, false, &mut Tracer::new(false))?;
    let Engine::Sim(mut sim) = p.engine else {
        unreachable!("prepared without apps");
    };
    let start = probe::now();
    sim.run_until(p.horizon);
    let run_s = start.elapsed().as_secs_f64();
    Ok(probe_layers(&sim, &p.selector, &p.config, p.lossy, run_s))
}

/// Hex MD5 of the serialized report, followed by the decision log if any.
fn digest(report: &SimReport, log: Option<&DecisionLog>) -> Result<String, String> {
    let mut bytes = serde_json::to_string(report)
        .map_err(|e| format!("report does not serialize: {e}"))?
        .into_bytes();
    if let Some(log) = log {
        bytes.extend_from_slice(log.to_json().as_bytes());
    }
    Ok(avmon_hash::md5(&bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect())
}

/// Checks the report's own verdicts and value ranges.
fn check_report(report: &SimReport, problems: &mut Vec<String>) {
    let inv = &report.invariants;
    if !inv.passed() {
        problems.push(format!(
            "{} invariant violations, first: {:?}",
            inv.violations.len(),
            inv.violations.first()
        ));
    }
    if report
        .availability
        .iter()
        .any(|m| !(0.0..=1.0).contains(&m.estimated) || !(0.0..=1.0).contains(&m.actual))
    {
        problems.push("an availability outside [0, 1]".into());
    }
}

/// Tracked nodes born at least `DISCOVERY_DEADLINE` before the horizon
/// that still know no monitor.
fn undiscovered(report: &SimReport, horizon: TimeMs) -> u64 {
    report
        .discovery
        .values()
        .filter(|log| log.born_at + DISCOVERY_DEADLINE <= horizon && log.latency(1).is_none())
        .count() as u64
}

struct Query {
    asker: NodeId,
    target: NodeId,
    /// The asker's incarnation (its start time) when the query was issued.
    incarnation: TimeMs,
    issued: TimeMs,
    /// History requests sent and not yet answered or timed out.
    outstanding: u32,
    closed: bool,
    retry: bool,
}

/// The open query loop: every tick, `QUERIES_PER_TICK` queries from random
/// live askers to random live targets. A query asks the target for `QUERY_L`
/// monitors, verifies them, and asks every verified monitor for the
/// target's history; it is answered by the first history answer. Requests
/// that time out or come back without a verified monitor are retried at
/// the next tick until the deadline.
struct QueryLoop<'a> {
    selector: &'a SharedSelector,
    rng: SplitMix,
    stats: &'a mut QueryStats,
    problems: &'a mut Vec<String>,
    queries: Vec<Query>,
    /// `(asker, target)` → queries awaiting that report, one per request.
    reports: BTreeMap<(NodeId, NodeId), Vec<usize>>,
    /// `(asker, monitor)` → queries awaiting that monitor's answer.
    histories: BTreeMap<(NodeId, NodeId), Vec<usize>>,
}

impl<'a> QueryLoop<'a> {
    fn new(
        selector: &'a SharedSelector,
        rng: SplitMix,
        stats: &'a mut QueryStats,
        problems: &'a mut Vec<String>,
    ) -> Self {
        QueryLoop {
            selector,
            rng,
            stats,
            problems,
            queries: Vec::new(),
            reports: BTreeMap::new(),
            histories: BTreeMap::new(),
        }
    }

    fn run(mut self, sim: &mut Simulation, tracer: &mut Tracer) {
        let horizon = sim.trace().horizon;
        let last_issue = horizon.saturating_sub(QUERY_DEADLINE);
        let mut tick = sim.now();
        loop {
            let paused = sim.run_until_wake(tick);
            tracer.enter("query.call");
            let events = sim.take_app_events_timed();
            tracer.exit();
            for (at, asker, event) in events {
                self.on_event(sim, tracer, at, asker, event);
            }
            if paused {
                continue;
            }
            let now = sim.now();
            self.close_expired(sim, now);
            self.retry(sim, tracer);
            if now <= last_issue {
                self.issue(sim, tracer, now);
            }
            if now >= horizon {
                break;
            }
            tick = (tick + QUERY_TICK).min(horizon);
        }
        debug_assert!(self.queries.iter().all(|q| q.closed));
    }

    fn issue(&mut self, sim: &mut Simulation, tracer: &mut Tracer, now: TimeMs) {
        let alive = probe::sorted_alive(sim);
        if alive.len() < 2 {
            return;
        }
        for _ in 0..QUERIES_PER_TICK {
            let asker = alive[self.rng.below(alive.len())];
            let target = loop {
                let t = alive[self.rng.below(alive.len())];
                if t != asker {
                    break t;
                }
            };
            let incarnation = sim.node(asker).map_or(0, |n| n.started_at());
            sim.subscribe_app(asker);
            self.queries.push(Query {
                asker,
                target,
                incarnation,
                issued: now,
                outstanding: 0,
                closed: false,
                retry: false,
            });
            self.stats.issued += 1;
            self.request_report(sim, tracer, self.queries.len() - 1);
        }
    }

    fn request_report(&mut self, sim: &mut Simulation, tracer: &mut Tracer, qid: usize) {
        let q = &self.queries[qid];
        let (asker, target) = (q.asker, q.target);
        tracer.enter("query.call");
        sim.request_report(asker, target, QUERY_L);
        tracer.exit();
        self.reports.entry((asker, target)).or_default().push(qid);
    }

    fn on_event(
        &mut self,
        sim: &mut Simulation,
        tracer: &mut Tracer,
        at: TimeMs,
        asker: NodeId,
        event: AppEvent,
    ) {
        match event {
            AppEvent::ReportOutcome {
                target,
                verification,
            } => {
                let Some(qid) = pop_front(&mut self.reports, (asker, target)) else {
                    return;
                };
                self.stats.report_outcomes += 1;
                self.stats.verified_claims += verification.verified.len() as u64;
                for &m in &verification.verified {
                    if !self.selector.is_monitor(m, target) {
                        self.problems
                            .push(format!("{m} verified as a monitor of {target}, but is not"));
                    }
                }
                if self.queries[qid].closed {
                    return;
                }
                if verification.verified.is_empty() {
                    self.queries[qid].retry = true;
                    return;
                }
                for &m in &verification.verified {
                    tracer.enter("query.call");
                    sim.request_history(asker, m, target);
                    tracer.exit();
                    self.histories.entry((asker, m)).or_default().push(qid);
                    self.queries[qid].outstanding += 1;
                }
            }
            AppEvent::HistoryOutcome {
                monitor,
                target,
                availability,
                ..
            } => {
                if availability.is_some_and(|a| !(0.0..=1.0).contains(&a)) {
                    self.problems
                        .push(format!("history answer {availability:?} outside [0, 1]"));
                }
                let queries = &self.queries;
                let Some(qid) = pop_where(&mut self.histories, (asker, monitor), |qid| {
                    queries[qid].target == target
                }) else {
                    return;
                };
                self.stats.history_answers += 1;
                let q = &mut self.queries[qid];
                q.outstanding -= 1;
                if !q.closed {
                    q.closed = true;
                    self.stats.answered += 1;
                    self.stats.latencies_s.push((at - q.issued) as f64 / 1e3);
                }
            }
            AppEvent::RequestTimedOut { peer } => {
                if let Some(qid) = pop_front(&mut self.reports, (asker, peer)) {
                    self.queries[qid].retry = true;
                } else if let Some(qid) = pop_front(&mut self.histories, (asker, peer)) {
                    let q = &mut self.queries[qid];
                    q.outstanding -= 1;
                    q.retry |= q.outstanding == 0;
                }
            }
            _ => {}
        }
    }

    /// Re-issues the report request of every open query marked for retry
    /// whose asker is still the incarnation that asked.
    fn retry(&mut self, sim: &mut Simulation, tracer: &mut Tracer) {
        for qid in 0..self.queries.len() {
            let q = &mut self.queries[qid];
            if q.closed || !q.retry {
                continue;
            }
            q.retry = false;
            if sim.node(q.asker).map(|n| n.started_at()) == Some(q.incarnation) {
                self.stats.retries += 1;
                self.request_report(sim, tracer, qid);
            }
        }
    }

    /// Closes every query whose deadline has passed: withdrawn when its
    /// asker left (a client that is gone waits for nothing), else
    /// unanswered.
    fn close_expired(&mut self, sim: &Simulation, now: TimeMs) {
        for q in &mut self.queries {
            if q.closed || q.issued + QUERY_DEADLINE > now {
                continue;
            }
            q.closed = true;
            if sim.node(q.asker).map(|n| n.started_at()) == Some(q.incarnation) {
                self.stats.unanswered += 1;
                self.stats.latencies_s.push(QUERY_DEADLINE as f64 / 1e3);
            } else {
                self.stats.withdrawn += 1;
            }
        }
    }
}

fn pop_front(
    map: &mut BTreeMap<(NodeId, NodeId), Vec<usize>>,
    key: (NodeId, NodeId),
) -> Option<usize> {
    pop_where(map, key, |_| true)
}

fn pop_where(
    map: &mut BTreeMap<(NodeId, NodeId), Vec<usize>>,
    key: (NodeId, NodeId),
    pred: impl Fn(usize) -> bool,
) -> Option<usize> {
    let ids = map.get_mut(&key)?;
    let qid = ids.remove(ids.iter().position(|&qid| pred(qid))?);
    if ids.is_empty() {
        map.remove(&key);
    }
    Some(qid)
}
