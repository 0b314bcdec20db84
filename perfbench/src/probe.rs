//! Measurement helpers: wall-clock spans recorded around calls into the
//! layers, process memory, and standalone probes that time one layer's
//! public entry point outside the run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use avmon::{Config, NodeId, SharedSelector};
use avmon_sim::{InvariantChecker, InvariantConfig, Simulation};

/// The host clock. Host time is what this benchmark measures; no reading
/// of it feeds back into a simulated run.
#[allow(clippy::disallowed_methods)] // host time is this benchmark's measurement
pub fn now() -> Instant {
    Instant::now() // detlint::allow(banned-clock): the benchmark measures host time
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records spans in memory when enabled; every method is a no-op on a
/// disabled tracer, so the untraced run executes the same calls.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: now(),
            spans: enabled.then(Vec::new),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    pub fn enter(&mut self, name: &'static str) {
        let Some(spans) = &mut self.spans else { return };
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let Some(spans) = &mut self.spans else { return };
        let id = self.open.pop().expect("exit matches an enter");
        spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or_default()
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .fold(0.0, |a, b| a + b)
    }

    /// Per span name: count, total seconds, and self seconds (total minus
    /// the time covered by direct child spans), in first-seen order.
    pub fn table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e9;
            let own = total - child_ns[i] as f64 / 1e9;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }
}

/// Resident set size and its high-water mark, in MiB, from
/// `/proc/self/status`.
pub fn rss_mib() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Sorted live identities (independent of the engine's internal order).
pub fn sorted_alive(sim: &Simulation) -> Vec<NodeId> {
    let mut alive: Vec<NodeId> = sim.alive().collect();
    alive.sort_unstable();
    alive
}

/// Nanoseconds per `is_monitor` call on `selector`, timed standalone over
/// the (monitor, target) pairs of the final pinging sets, target sets and
/// coarse views of up to 256 evenly spaced live nodes.
pub fn hash_ns_per_check(sim: &Simulation, selector: &SharedSelector) -> f64 {
    let alive = sorted_alive(sim);
    let stride = (alive.len() / 256).max(1);
    let mut pairs = Vec::new();
    for &id in alive.iter().step_by(stride) {
        let Some(node) = sim.node(id) else { continue };
        pairs.extend(node.pinging_set().map(|p| (p, id)));
        pairs.extend(node.target_set().map(|t| (id, t)));
        pairs.extend(node.view().iter().map(|v| (v, id)));
    }
    if pairs.is_empty() {
        return 0.0;
    }
    let start = now();
    let mut checks = 0u64;
    let mut accepted = 0u64;
    while start.elapsed() < Duration::from_millis(200) {
        for &(m, t) in &pairs {
            accepted += u64::from(selector.is_monitor(black_box(m), black_box(t)));
        }
        checks += pairs.len() as u64;
    }
    black_box(accepted);
    start.elapsed().as_nanos() as f64 / checks as f64
}

/// Milliseconds of one fresh invariant sweep over the live population at
/// the simulation's current time (every node re-verified), then of one
/// incremental sweep right after it (nothing changed, so every set scan is
/// skipped).
pub fn sweep_ms(
    sim: &Simulation,
    selector: &SharedSelector,
    config: &Config,
    lossy: bool,
) -> (f64, f64) {
    let at = sim.now();
    let mut checker = InvariantChecker::new(
        InvariantConfig::default(),
        selector.clone(),
        config,
        at,
        lossy,
    );
    let alive = sorted_alive(sim);
    for &id in &alive {
        checker.node_up(id, at);
    }
    let mut time_sweep = || {
        let start = now();
        checker.on_sample(at, alive.iter().filter_map(|&id| sim.node(id)));
        start.elapsed().as_secs_f64() * 1e3
    };
    let fresh = time_sweep();
    let incremental = time_sweep();
    (fresh, incremental)
}
