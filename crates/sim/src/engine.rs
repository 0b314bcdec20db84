//! The trace-driven discrete-event simulation engine.
//!
//! Replays a churn [`Trace`] against a population of AVMON [`Node`] state
//! machines: lifecycle events create and destroy node incarnations (with
//! persistent storage surviving, per §3), messages travel through a latency
//! model and vanish if the destination has departed, timers fire on the
//! simulated clock, and metrics are sampled once per interval. A run is a
//! pure function of `(trace, options)` — reruns are bit-identical.
//!
//! The engine is a consumer of the shared poll-based driver interface:
//! after every input it drains the node's output queues directly into its
//! event calendar ([`Simulation::route_outputs`]) — no per-input `Vec` of
//! actions is ever allocated. Where each event is stored is the
//! `calendar` module's business alone.

// Every hash-collection here carries a per-site `detlint::allow` proving
// iteration order never leaks; detlint is the precise layer, so the
// coarser clippy mirror is silenced module-wide.
#![allow(clippy::disallowed_types)]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::mpsc;

use avmon::{
    AppEvent, Behavior, Config, Destination, HashSelector, HasherKind, HistoryStore, JoinKind,
    Message, Node, NodeId, NodeStats, PersistentState, SharedSelector, TargetRecord, TimeMs, Timer,
    Transmit,
};
use avmon_churn::{ChurnEventKind, Trace};
use avmon_hash::fast64::mix64;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::calendar::{Calendar, CalendarStats, Head, HeadView};
use crate::invariants::{InvariantChecker, InvariantConfig};
use crate::metrics::{
    AvailabilityMeasure, DetectionDistribution, DiscoveryLog, EclipseScore, EstimateIndex, FdQos,
    NodeSeries, SimReport,
};
use crate::network::{LatencyModel, NetworkModel, NetworkState, Route};
use crate::scenario::{Attack, Corruption, Fault, Scenario};

/// Simulation options beyond the protocol [`Config`].
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Protocol configuration shared by every node.
    pub config: Config,
    /// Which hasher backs the consistency condition (default [`HasherKind::Fast64`];
    /// pass [`HasherKind::Md5`] for the paper's exact construction).
    pub hasher: HasherKind,
    /// The network model: propagation delays plus always-on link faults.
    /// Defaults to the paper's reliable network.
    pub network: NetworkModel,
    /// Timeline of injected faults (partitions, bursts, freezes); `None`
    /// runs fault-free.
    pub scenario: Option<Scenario>,
    /// The always-on protocol invariant checker (default:
    /// [`InvariantMode::Record`] — violations land in
    /// [`SimReport::invariants`]).
    pub invariants: InvariantConfig,
    /// Master seed; every node RNG and the network RNG derive from it.
    pub seed: u64,
    /// Metric sampling interval (default: one protocol period).
    pub sample_interval: avmon::DurMs,
    /// History-store prototype installed on every node, if overridden.
    pub history_template: Option<HistoryStore>,
    /// Per-node behavior assignments (attack experiments).
    pub behaviors: Vec<(NodeId, Behavior)>,
    /// Track discovery logs for every identity rather than only the
    /// trace's control group.
    pub track_all_discovery: bool,
    /// Buffer application events for retrieval via
    /// [`Simulation::take_app_events`] (off by default: long runs would
    /// accumulate unbounded buffers).
    pub collect_app_events: bool,
    /// Overrides every node's consistency-condition pair-memo size
    /// (`Some(0)` disables memoization, `None` keeps the
    /// [`Node::set_point_memo_slots`] default policy). Purely an evaluation
    /// cache — reports are byte-identical across settings.
    pub node_memo: Option<usize>,
    /// Worker threads for node event processing (default `1` =
    /// single-threaded; `0` = one per available core). With more than one
    /// worker the engine batches independent node events inside a
    /// conservative safe-horizon window (the minimum of the network's
    /// smallest delivery delay and every periodic timer delay), fans the
    /// node handlers out across the pool, and replays their outputs
    /// sequentially in the original `(time, seq)` pop order — so RNG
    /// draws, sequence allocation, metric folds, and invariant epochs
    /// happen in exactly the single-threaded order and same-seed reports
    /// are **byte-identical at any worker count**
    /// (`tests/equivalence.rs` holds this across scenario families).
    pub workers: usize,
}

impl SimOptions {
    /// Defaults for a given protocol configuration.
    #[must_use]
    pub fn new(config: Config) -> Self {
        let sample_interval = config.protocol_period;
        SimOptions {
            config,
            hasher: HasherKind::Fast64,
            network: NetworkModel::default(),
            scenario: None,
            invariants: InvariantConfig::default(),
            seed: 1,
            sample_interval,
            history_template: None,
            behaviors: Vec::new(),
            track_all_discovery: false,
            collect_app_events: false,
            node_memo: None,
            workers: 1,
        }
    }

    /// Sets the worker-thread count (see [`SimOptions::workers`]; `0`
    /// means one per available core).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the per-node pair-memo size (see
    /// [`SimOptions::node_memo`]).
    #[must_use]
    pub fn node_memo(mut self, slots: Option<usize>) -> Self {
        self.node_memo = slots;
        self
    }

    /// Overrides the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the hasher.
    #[must_use]
    pub fn hasher(mut self, hasher: HasherKind) -> Self {
        self.hasher = hasher;
        self
    }

    /// Overrides the latency model (keeping the network's fault knobs).
    #[must_use]
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.network.latency = latency;
        self
    }

    /// Overrides the whole network model.
    #[must_use]
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Installs a fault-injection scenario.
    #[must_use]
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Overrides the invariant-checker configuration.
    #[must_use]
    pub fn invariants(mut self, invariants: InvariantConfig) -> Self {
        self.invariants = invariants;
        self
    }

    /// Assigns `behavior` to `node`.
    #[must_use]
    pub fn behavior(mut self, node: NodeId, behavior: Behavior) -> Self {
        self.behaviors.push((node, behavior));
        self
    }

    /// Checks network model and scenario parameters.
    ///
    /// # Errors
    ///
    /// Returns [`avmon::Error::InvalidConfig`] for inverted latency
    /// ranges, out-of-range probabilities, or malformed scenario faults.
    pub fn validate(&self) -> Result<(), avmon::Error> {
        self.network.validate()?;
        if let Some(scenario) = &self.scenario {
            scenario.validate()?;
        }
        Ok(())
    }
}

/// Everything that can happen at a calendar instant.
#[derive(Debug)]
pub(crate) enum EventKind {
    Churn {
        node: NodeId,
        kind: ChurnEventKind,
    },
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: Message,
    },
    Timer {
        node: NodeId,
        incarnation: u64,
        timer: Timer,
    },
    /// Snapshot counters at the start of the measurement window so the
    /// first sample doesn't absorb the whole warm-up.
    Baseline,
    Sample,
    /// A [`Fault::Corrupt`] injection: overwrite the node's PS/TS with
    /// seed-deterministic garbage (see [`Simulation::on_corrupt`]).
    Corrupt {
        node: NodeId,
        pattern: Corruption,
        seed: u64,
    },
    /// A scenario-scheduled behavior switch: attack campaigns flip the
    /// coalition's behavior at the window edges.
    SetBehavior {
        node: NodeId,
        behavior: Behavior,
    },
    /// An application-executor wakeup ([`Simulation::schedule_app_wake`]):
    /// pauses [`Simulation::run_until_wake`] at exactly this `(time, seq)`
    /// position so async app tasks interleave deterministically with the
    /// protocol calendar. Shared-state by construction — it always cuts a
    /// parallel batch, so pause points are identical at any worker count.
    AppWake {
        token: u64,
    },
}

#[derive(Debug)]
struct SimNode {
    proto: Option<Node>,
    incarnation: u64,
    persistent: PersistentState,
    behavior: Behavior,
    born_at: Option<TimeMs>,
    left_at: Option<TimeMs>,
    last_stats: NodeStats,
    /// Streaming per-node metric accumulators: updated in place at every
    /// sampling tick (and counter fold), so report assembly never walks or
    /// clones a side map of per-node state.
    series: NodeSeries,
    /// Whether `series` was ever written — only touched nodes appear in
    /// [`SimReport::series`].
    series_touched: bool,
}

impl SimNode {
    fn new(behavior: Behavior) -> Self {
        SimNode {
            proto: None,
            incarnation: 0,
            persistent: PersistentState::default(),
            behavior,
            born_at: None,
            left_at: None,
            last_stats: NodeStats::default(),
            series: NodeSeries::default(),
            series_touched: false,
        }
    }

    fn series_mut(&mut self) -> &mut NodeSeries {
        self.series_touched = true;
        &mut self.series
    }
}

/// Streaming failure-detector QoS accumulators (the integer half of
/// [`FdQos`]): suspicion transitions fold into episode counters as the
/// nodes emit them, so report assembly never replays the run. Everything
/// here is integer bookkeeping over a deterministic event order —
/// serialized QoS is byte-identical across same-seed runs.
#[derive(Debug, Default)]
struct QosAccumulator {
    /// Open wrongful-suspicion episodes, keyed by `(monitor, target)` with
    /// the suspicion start time. Only iterated for commutative sums, so
    /// hash order never leaks into the report.
    // detlint::allow(banned-collection): iterated only for commutative sums
    open_mistakes: HashMap<(NodeId, NodeId), TimeMs>,
    /// Wrongful-suspicion episodes opened inside the measurement window.
    episodes: u64,
    /// Total time spent in (closed) mistake episodes.
    mistake_time: avmon::DurMs,
    /// True-failure detection latencies, from the target's actual death.
    detection: DetectionDistribution,
}

/// One input to a node's handler inside a parallel batch, in that node's
/// pop order.
#[derive(Debug)]
enum ShardInput {
    Msg { from: NodeId, msg: Message },
    Timer(Timer),
}

/// A node's queued outputs, however they are held: polled live from the
/// node (sequential drain) or captured by a worker (sharded replay). Both
/// feed the one output path, [`Simulation::route_outputs`].
trait NodeOutputs {
    fn poll_transmit(&mut self) -> Option<Transmit>;
    fn poll_timer(&mut self) -> Option<(Timer, TimeMs)>;
    fn poll_event(&mut self) -> Option<AppEvent>;
}

impl NodeOutputs for Node {
    fn poll_transmit(&mut self) -> Option<Transmit> {
        Node::poll_transmit(self)
    }
    fn poll_timer(&mut self) -> Option<(Timer, TimeMs)> {
        Node::poll_timer(self)
    }
    fn poll_event(&mut self) -> Option<AppEvent> {
        Node::poll_event(self)
    }
}

/// Everything one batched input made a node produce, drained node-locally
/// by a worker and replayed by the main thread in the original pop order
/// — the replay is where all sequence numbers are allocated and all
/// network RNG draws happen, so they occur in exactly the sequential
/// engine's order.
#[derive(Debug, Default)]
struct ItemOutput {
    transmits: std::vec::IntoIter<Transmit>,
    timers: std::vec::IntoIter<(Timer, TimeMs)>,
    events: std::vec::IntoIter<AppEvent>,
    /// A dead timer discarded without touching the handler.
    expire_skip: bool,
}

impl NodeOutputs for ItemOutput {
    fn poll_transmit(&mut self) -> Option<Transmit> {
        self.transmits.next()
    }
    fn poll_timer(&mut self) -> Option<(Timer, TimeMs)> {
        self.timers.next()
    }
    fn poll_event(&mut self) -> Option<AppEvent> {
        self.events.next()
    }
}

/// One node's share of a batch: its protocol state moved out of the
/// engine plus its inputs in pop order. Owning the `Node` is what makes
/// the fan-out safe without locks — nothing borrows the engine.
#[derive(Debug)]
struct ShardJob {
    index: usize,
    node: NodeId,
    proto: Node,
    items: Vec<(TimeMs, ShardInput)>,
}

/// A completed [`ShardJob`]: the node comes home with per-item outputs.
#[derive(Debug)]
struct ShardDone {
    index: usize,
    node: NodeId,
    proto: Node,
    outputs: Vec<ItemOutput>,
}

/// Phase 1 of a batch for one node: apply each input at its own
/// timestamp and capture the outputs. Pure node-local computation — the
/// node's own state and RNG, nothing shared — so any number of these run
/// concurrently with no observable ordering. The detlint region below
/// machine-checks the purity claim: no engine RNG, no seq allocation,
/// no process streams may appear between the markers.
// detlint::region(worker-context)
fn run_shard(job: ShardJob) -> ShardDone {
    let ShardJob {
        index,
        node,
        mut proto,
        items,
    } = job;
    let mut outputs = Vec::with_capacity(items.len());
    for (at, input) in items {
        match input {
            ShardInput::Msg { from, msg } => proto.handle_message(at, from, msg),
            // Liveness is evaluated *here*, after this node's earlier
            // batch inputs — an earlier pong in the same window may have
            // retired the request, exactly as in the sequential engine.
            ShardInput::Timer(timer) if !proto.timer_live(timer, at) => {
                outputs.push(ItemOutput {
                    expire_skip: true,
                    ..ItemOutput::default()
                });
                continue;
            }
            ShardInput::Timer(timer) => proto.handle_timer(at, timer),
        }
        let transmits: Vec<Transmit> = std::iter::from_fn(|| proto.poll_transmit()).collect();
        let timers: Vec<(Timer, TimeMs)> = std::iter::from_fn(|| proto.poll_timer()).collect();
        let events: Vec<AppEvent> = std::iter::from_fn(|| proto.poll_event()).collect();
        outputs.push(ItemOutput {
            transmits: transmits.into_iter(),
            timers: timers.into_iter(),
            events: events.into_iter(),
            expire_skip: false,
        });
    }
    ShardDone {
        index,
        node,
        proto,
        outputs,
    }
}
// detlint::endregion(worker-context)

/// How batch collection treats the calendar head (see
/// [`Simulation::classify_head`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadClass {
    /// Ends the batch *before* this event; it then runs sequentially.
    /// Anything that touches shared state (churn, sampling, corruption,
    /// behavior switches) or needs a pop-time requeue (frozen nodes).
    Cut,
    /// Node-local processing for a live node: joins the batch.
    Batch,
    /// Guaranteed not to touch any live node (dead/unknown destination,
    /// stale incarnation): dispatched on the spot during collection —
    /// the sequential dispatch path already reduces to the right side
    /// effects (useless-ping accounting, silent drops).
    Inline,
}

/// The discrete-event simulator.
///
/// # Example
///
/// ```
/// use avmon::Config;
/// use avmon_churn::stat;
/// use avmon_sim::{SimOptions, Simulation};
///
/// let trace = stat(60, 30 * avmon::MINUTE, 0.1, 7);
/// let config = Config::builder(60).build()?;
/// let mut sim = Simulation::new(trace, SimOptions::new(config));
/// let report = sim.run();
/// // Every control node finds its first monitor quickly.
/// assert!(report.discovery_latencies(1).len() >= 5);
/// # Ok::<(), avmon::Error>(())
/// ```
#[derive(Debug)]
pub struct Simulation {
    trace: Trace,
    opts: SimOptions,
    selector: SharedSelector,
    // detlint::allow(banned-collection): iterated only for commutative merges; report rows sort before emission
    nodes: HashMap<NodeId, SimNode>,
    alive: Vec<NodeId>,
    // detlint::allow(banned-collection): per-key O(1) swap-remove positions; never iterated
    alive_index: HashMap<NodeId, usize>,
    calendar: Calendar,
    now: TimeMs,
    rng: SmallRng,
    // detlint::allow(banned-collection): membership probes only; never iterated
    tracked: HashSet<NodeId>,
    discovery: BTreeMap<NodeId, DiscoveryLog>,
    graveyard_stats: NodeStats,
    initial_cohort: Vec<NodeId>,
    /// Position of each initial-cohort member in `initial_cohort`, so
    /// bootstrap view seeding can exclude the joiner in O(1).
    // detlint::allow(banned-collection): per-key position lookups; never iterated
    initial_cohort_index: HashMap<NodeId, usize>,
    app_events: Vec<(TimeMs, NodeId, AppEvent)>,
    /// Nodes whose application events feed a paused async executor
    /// ([`Simulation::subscribe_app`]). Their deliveries/timers always cut
    /// a parallel batch, so every subscribed event is dispatched at its
    /// own sequential calendar position regardless of worker count.
    // detlint::allow(banned-collection): membership probes only; never iterated
    app_subscribed: HashSet<NodeId>,
    /// Wake tokens fired since the last [`Simulation::take_wakes`] drain.
    pending_wakes: Vec<u64>,
    /// Words drawn by the application executor's registered `app` RNG
    /// stream, pushed in via [`Simulation::set_app_draws`] so the
    /// [`RngLedger`] covers app tasks too.
    app_draws: u64,
    net: NetworkState,
    /// Per-node freeze windows from the scenario, indexed by node so the
    /// delivery/timer hot path pays O(1) for the (overwhelmingly common)
    /// unfrozen case.
    // detlint::allow(banned-collection): per-key window lookups; never iterated
    freezes: HashMap<NodeId, Vec<(TimeMs, TimeMs)>>,
    checker: InvariantChecker,
    /// Streaming FD QoS counters (see [`QosAccumulator`]).
    qos: QosAccumulator,
    /// Suspicion transitions `(down, target)` emitted by the node whose
    /// outputs are being routed, folded into `qos` once the node borrow
    /// ends (see [`Simulation::fold_suspicions`]). Reused across inputs.
    suspicions: Vec<(bool, NodeId)>,
    finished: bool,
    /// Resolved worker-thread count (≥ 1; see [`SimOptions::workers`]).
    workers: usize,
    /// 64-bit words drawn by the (already consumed and dropped) per-event
    /// corruption RNG streams — the `corruption` entry of the
    /// [`RngLedger`]. Each `Fault::Corrupt` event derives a throwaway
    /// stream from the master seed; its draw count is folded in here the
    /// moment the stream dies.
    corruption_draws: u64,
    /// Protocol-RNG words drawn by incarnations that already left the
    /// simulation (their `Node` state is dropped at churn time); summed
    /// with the live nodes' counts at report assembly to form the `node`
    /// stream of the [`RngLedger`].
    graveyard_rng_draws: u64,
    /// The conservative safe-horizon window width for parallel batching:
    /// the minimum of the network's smallest delivery delay and every
    /// handler-armed timer delay (ping timeout, protocol period,
    /// monitoring period), floored at 1 ms. Nothing a node handler does
    /// inside a window `[t0, t0 + lookahead)` can schedule work before
    /// the window's end — except at the exact same instant with a larger
    /// sequence number, which the `(time, seq)` order already puts last.
    lookahead: avmon::DurMs,
}

impl Simulation {
    /// Builds a simulation over `trace` with `opts`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or the options are invalid
    /// (see [`Simulation::try_new`] for the fallible path).
    #[must_use]
    pub fn new(trace: Trace, opts: SimOptions) -> Self {
        Simulation::try_new(trace, opts).unwrap_or_else(|e| panic!("invalid simulation: {e}"))
    }

    /// Builds a simulation over `trace` with `opts`, validating the
    /// network model and scenario at construction time.
    ///
    /// # Errors
    ///
    /// Returns [`avmon::Error::InvalidConfig`] for invalid network or
    /// scenario parameters.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn try_new(trace: Trace, opts: SimOptions) -> Result<Self, avmon::Error> {
        assert!(!trace.events.is_empty(), "cannot simulate an empty trace");
        opts.validate()?;
        let selector = HashSelector::from_config_with_kind(&opts.config, opts.hasher);
        let mut initial: Vec<(TimeMs, EventKind)> = trace
            .events
            .iter()
            .map(|e| {
                let kind = EventKind::Churn {
                    node: e.node,
                    kind: e.kind,
                };
                (e.at, kind)
            })
            .collect();
        // Sampling ticks cover the measurement window; the baseline tick
        // zeroes the counters at its start.
        initial.push((trace.measure_from, EventKind::Baseline));
        let mut t = trace.measure_from + opts.sample_interval;
        while t <= trace.horizon {
            initial.push((t, EventKind::Sample));
            t += opts.sample_interval;
        }
        // detlint::allow(banned-collection): membership probes only; never iterated
        let tracked: HashSet<NodeId> = if opts.track_all_discovery {
            trace.identities().into_iter().collect()
        } else {
            trace.control_group.iter().copied().collect()
        };
        let initial_cohort: Vec<NodeId> = trace
            .events
            .iter()
            .filter(|e| e.at == 0 && e.kind == ChurnEventKind::Birth)
            .map(|e| e.node)
            .collect();
        // detlint::allow(banned-collection): per-key position lookups; never iterated
        let initial_cohort_index: HashMap<NodeId, usize> = initial_cohort
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        // detlint::allow(banned-collection): per-key behavior lookups; never iterated
        let behaviors: HashMap<NodeId, Behavior> = opts.behaviors.iter().cloned().collect();
        if let Some(scenario) = &opts.scenario {
            // Corruption injections are ordinary calendar events (after
            // same-instant churn, by sequence number).
            for e in &scenario.events {
                if let Fault::Corrupt {
                    node,
                    pattern,
                    seed: fault_seed,
                } = e.fault
                {
                    initial.push((
                        e.at,
                        EventKind::Corrupt {
                            node,
                            pattern,
                            seed: fault_seed,
                        },
                    ));
                }
            }
            // Attack campaigns compile to paired behavior switches: every
            // coalition member turns coat at the window start and reverts
            // to its statically-assigned behavior (default honest) at the
            // end.
            for e in &scenario.attacks {
                let Attack::Eclipse {
                    coalition,
                    victims,
                    duration,
                } = &e.attack;
                for &member in coalition {
                    initial.push((
                        e.at,
                        EventKind::SetBehavior {
                            node: member,
                            behavior: Behavior::EclipseCoalition {
                                coalition: coalition.clone(),
                                victims: victims.clone(),
                            },
                        },
                    ));
                    initial.push((
                        e.at + duration,
                        EventKind::SetBehavior {
                            node: member,
                            behavior: behaviors.get(&member).cloned().unwrap_or_default(),
                        },
                    ));
                }
            }
        }
        // detlint::allow(banned-collection): see the `nodes` field — no order-dependent iteration
        let mut nodes = HashMap::with_capacity(trace.identities().len());
        for id in trace.identities() {
            let behavior = behaviors.get(&id).cloned().unwrap_or_default();
            nodes.insert(id, SimNode::new(behavior));
        }
        let rng = SmallRng::seed_from_u64(opts.seed ^ 0xdead_beef_cafe_f00d);
        let net = NetworkState::compile(opts.network.clone(), opts.scenario.as_ref());
        let freezes = opts
            .scenario
            .as_ref()
            .map(Scenario::freeze_index)
            .unwrap_or_default();
        let quiescent_from = opts
            .scenario
            .as_ref()
            .map(Scenario::quiescent_after)
            .unwrap_or(0);
        let mut checker = InvariantChecker::new(
            opts.invariants.clone(),
            selector.clone(),
            &opts.config,
            quiescent_from,
            opts.network.faults.loss > 0.0,
        );
        if let Some(scenario) = &opts.scenario {
            checker.set_adversary_windows(&scenario.adversary_windows());
        }
        // Pin the effective node memo policy into the report, and say so
        // up front when the default large-N policy switched the memo off —
        // otherwise that decision surfaces only as an unexplained
        // `hash_checks` cliff.
        let memo_policy = Node::memo_policy(
            &opts.config,
            opts.node_memo,
            selector.selection_threshold().is_some(),
        );
        if !memo_policy.enabled && opts.node_memo.is_none() {
            eprintln!(
                "avmon-sim: pair-point memo disabled for this run: {}",
                memo_policy.reason
            );
        }
        checker.set_memo_policy(memo_policy);
        // The constant delays handlers arm timers with — the ping timeout
        // and the periodic protocol/monitoring re-arms — schedule in O(1).
        let calendar = Calendar::new(
            &[
                opts.config.ping_timeout,
                opts.config.protocol_period,
                opts.config.monitoring_period,
            ],
            initial,
        );
        let workers = match opts.workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        // Safe-horizon width: handlers only ever schedule at least this
        // far ahead (deliveries pay the network's minimum latency plus
        // only-additive jitter; handler-armed timers use the three
        // constant protocol delays — the random short phases of `start`
        // happen exclusively at churn events, which cut batches).
        let lookahead = opts
            .network
            .latency
            .min_delay()
            .min(opts.config.ping_timeout)
            .min(opts.config.protocol_period)
            .min(opts.config.monitoring_period)
            .max(1);
        Ok(Simulation {
            trace,
            opts,
            selector,
            nodes,
            alive: Vec::new(),
            // detlint::allow(banned-collection): see the field declaration
            alive_index: HashMap::new(),
            calendar,
            now: 0,
            rng,
            tracked,
            discovery: BTreeMap::new(),
            graveyard_stats: NodeStats::default(),
            initial_cohort,
            initial_cohort_index,
            app_events: Vec::new(),
            // detlint::allow(banned-collection): see the field declaration
            app_subscribed: HashSet::new(),
            pending_wakes: Vec::new(),
            app_draws: 0,
            net,
            freezes,
            checker,
            qos: QosAccumulator::default(),
            suspicions: Vec::new(),
            finished: false,
            workers,
            corruption_draws: 0,
            graveyard_rng_draws: 0,
            lookahead,
        })
    }

    /// The invariant-checker observations so far (complete once the run
    /// reached the horizon; also available via [`SimReport::invariants`]).
    #[must_use]
    pub fn invariants(&self) -> &crate::invariants::InvariantSummary {
        self.checker.summary()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> TimeMs {
        self.now
    }

    /// The trace being replayed.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Identities currently alive.
    pub fn alive(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive.iter().copied()
    }

    /// Read access to a live node's protocol state.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id).and_then(|n| n.proto.as_ref())
    }

    /// Drains buffered application events (requires
    /// [`SimOptions::collect_app_events`] or a [`Simulation::subscribe_app`]
    /// subscription).
    pub fn take_app_events(&mut self) -> Vec<(NodeId, AppEvent)> {
        std::mem::take(&mut self.app_events)
            .into_iter()
            .map(|(_, id, event)| (id, event))
            .collect()
    }

    /// Drains buffered application events with the simulated time each was
    /// emitted at (the async executor's event feed).
    pub fn take_app_events_timed(&mut self) -> Vec<(TimeMs, NodeId, AppEvent)> {
        std::mem::take(&mut self.app_events)
    }

    /// Subscribes the application executor to `id`'s events: they are
    /// buffered (timestamped) and any of them pauses
    /// [`Simulation::run_until_wake`]. Subscribed nodes' deliveries and
    /// timers always cut a parallel batch, so the pause points — and the
    /// engine state at each pause — are byte-identical at any worker count.
    pub fn subscribe_app(&mut self, id: NodeId) {
        self.app_subscribed.insert(id);
    }

    /// Schedules an application wakeup at `at` (clamped to now). The token
    /// comes back from [`Simulation::take_wakes`] once
    /// [`Simulation::run_until_wake`] pauses at the wake instant.
    pub fn schedule_app_wake(&mut self, at: TimeMs, token: u64) {
        let at = at.max(self.now);
        self.requeue(at, EventKind::AppWake { token });
    }

    /// Drains the wake tokens fired since the last call.
    pub fn take_wakes(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_wakes)
    }

    /// Records the application executor's RNG draw count — the `app`
    /// stream of the [`RngLedger`] (`crate::invariants::RngLedger`).
    pub fn set_app_draws(&mut self, draws: u64) {
        self.app_draws = draws;
    }

    /// Sends an opaque application payload from `from` to `to` over the
    /// simulated overlay ([`avmon::Message::AppData`]); it surfaces at the
    /// receiver as a buffered [`AppEvent::AppData`].
    pub fn send_app(&mut self, from: NodeId, to: NodeId, payload: Vec<u8>) {
        if let Some(node) = self.nodes.get_mut(&from).and_then(|n| n.proto.as_mut()) {
            node.send_app(to, payload);
            self.drain_node(from);
        }
    }

    /// Issues a verifiable monitor-report request from `from` to `target`
    /// (the "l out of K" client side); outcomes arrive as buffered
    /// [`AppEvent::ReportOutcome`] events.
    pub fn request_report(&mut self, from: NodeId, target: NodeId, count: u8) {
        let now = self.now;
        if let Some(node) = self.nodes.get_mut(&from).and_then(|n| n.proto.as_mut()) {
            node.request_report(now, target, count);
            self.drain_node(from);
        }
    }

    /// Asks monitor `monitor` for `target`'s availability from node `from`;
    /// outcomes arrive as buffered [`AppEvent::HistoryOutcome`] events.
    pub fn request_history(&mut self, from: NodeId, monitor: NodeId, target: NodeId) {
        let now = self.now;
        if let Some(node) = self.nodes.get_mut(&from).and_then(|n| n.proto.as_mut()) {
            node.request_history(now, monitor, target);
            self.drain_node(from);
        }
    }

    /// Runs to the trace horizon and produces the report.
    pub fn run(&mut self) -> SimReport {
        self.run_until(self.trace.horizon);
        self.report()
    }

    /// Advances simulated time to `deadline` (capped at the horizon).
    ///
    /// With [`SimOptions::workers`] > 1 this routes through the batched
    /// parallel path ([`Simulation::run_window_batches`]); the event
    /// outcome — and the serialized report — is byte-identical either way.
    pub fn run_until(&mut self, deadline: TimeMs) {
        self.run_until_inner(deadline, false);
    }

    /// Advances simulated time until `deadline` — or pauses early, with
    /// the clock at the triggering event's instant, as soon as an app
    /// wake fires or a subscribed node emits an application event.
    ///
    /// Returns `true` when paused before the deadline (events/wakes are
    /// waiting in [`Simulation::take_app_events_timed`] /
    /// [`Simulation::take_wakes`]), `false` when the deadline was reached.
    /// Pause points are identical at any worker count: wakes and
    /// subscribed-node events only ever dispatch sequentially at batch
    /// cuts, where engine state matches the sequential engine's at the
    /// same pop-order prefix.
    pub fn run_until_wake(&mut self, deadline: TimeMs) -> bool {
        self.run_until_inner(deadline, true)
    }

    fn run_until_inner(&mut self, deadline: TimeMs, stop_on_wake: bool) -> bool {
        let deadline = deadline.min(self.trace.horizon);
        let paused = if self.workers > 1 {
            self.run_window_batches(deadline, stop_on_wake)
        } else {
            let mut paused = false;
            while let Some(head) = self.calendar.peek() {
                if head.at > deadline {
                    break;
                }
                self.pop_and_dispatch(head);
                if stop_on_wake && self.wake_pending() {
                    paused = true;
                    break;
                }
            }
            paused
        };
        if !paused {
            self.now = deadline;
            self.finish_if_horizon(deadline);
        }
        paused
    }

    /// Whether a paused executor has something to process: a fired wake
    /// or an undrained application event.
    fn wake_pending(&self) -> bool {
        !self.pending_wakes.is_empty() || !self.app_events.is_empty()
    }

    /// Pops the calendar `head` and dispatches it sequentially (the
    /// single-step primitive both engine loops share).
    fn pop_and_dispatch(&mut self, head: Head) {
        let (at, kind) = self.calendar.pop(head);
        self.now = at;
        self.dispatch(kind);
    }

    /// End-of-run bookkeeping, once, when the horizon is reached.
    fn finish_if_horizon(&mut self, deadline: TimeMs) {
        if deadline == self.trace.horizon && !self.finished {
            self.finished = true;
            // Close every still-open mistake episode at the horizon so the
            // QoS totals cover the whole measurement window. (HashMap drain
            // order only feeds a commutative integer sum.)
            let now = self.now;
            let QosAccumulator {
                open_mistakes,
                mistake_time,
                ..
            } = &mut self.qos;
            for (_, start) in open_mistakes.drain() {
                *mistake_time += now.saturating_sub(start);
            }
            // End-of-run invariant sweep (Theorem 1 liveness, convergence).
            let Simulation {
                checker,
                nodes,
                alive,
                now,
                ..
            } = self;
            checker.finalize(
                *now,
                alive
                    .iter()
                    .filter_map(|id| nodes.get(id).and_then(|n| n.proto.as_ref())),
            );
        }
    }

    /// The parallel engine loop (active when [`SimOptions::workers`] > 1).
    ///
    /// Repeatedly carves a conservative window `[t0, t0 + lookahead)` off
    /// the calendar head, classifies each event in pop order —
    /// shared-state events **cut** the batch and run sequentially,
    /// no-op-on-live-nodes events run **inline**, and live-node
    /// deliveries/timers **batch** — then executes the batch in two
    /// phases: workers apply the node-local handlers concurrently on
    /// nodes moved out of the engine (phase 1), and the main thread
    /// replays every captured output in the original pop order (phase 2),
    /// which is where all sequence numbers are allocated and all shared
    /// RNG draws happen. The pop/replay sequence is therefore *identical*
    /// to the sequential engine's, making same-seed reports byte-identical
    /// at any worker count.
    fn run_window_batches(&mut self, deadline: TimeMs, stop_on_wake: bool) -> bool {
        let mut paused = false;
        let (res_tx, res_rx) = mpsc::channel::<Vec<ShardDone>>();
        std::thread::scope(|scope| {
            // One job channel per worker, spawned once for the whole call;
            // jobs own their nodes, so the workers borrow nothing.
            let mut job_txs: Vec<mpsc::Sender<Vec<ShardJob>>> = Vec::with_capacity(self.workers);
            for _ in 0..self.workers {
                let (job_tx, job_rx) = mpsc::channel::<Vec<ShardJob>>();
                job_txs.push(job_tx);
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    while let Ok(jobs) = job_rx.recv() {
                        let done: Vec<ShardDone> = jobs.into_iter().map(run_shard).collect();
                        if res_tx.send(done).is_err() {
                            break;
                        }
                    }
                });
            }
            while let Some(head) = self.calendar.peek() {
                if head.at > deadline {
                    break;
                }
                let window_end = head.at.saturating_add(self.lookahead);
                let (order, groups, cut) = self.collect_batch(window_end, deadline);
                if !groups.is_empty() {
                    self.execute_batch(order, groups, window_end, &job_txs, &res_rx);
                }
                if cut {
                    // The cut event is still the calendar head: everything
                    // scheduled by the batch lands at or beyond the window
                    // end, or at the same instant with a larger sequence.
                    if let Some(head) = self.calendar.peek() {
                        if head.at <= deadline {
                            self.pop_and_dispatch(head);
                            // Wakes and subscribed-node events only ever
                            // arise from cut dispatches (they classify as
                            // Cut), so this is the only pause check the
                            // parallel loop needs.
                            if stop_on_wake && self.wake_pending() {
                                paused = true;
                                break;
                            }
                        }
                    }
                }
            }
            // Hang up the job channels so the workers drain and exit.
            drop(job_txs);
        });
        paused
    }

    /// Collects one batch in pop order, consuming batchable and inline
    /// heads and stopping at the window end or the first cut event.
    /// Returns the replay order as `(group, time)` pairs, the per-node
    /// jobs (each owning its `Node`), and whether a cut event is pending.
    fn collect_batch(
        &mut self,
        window_end: TimeMs,
        deadline: TimeMs,
    ) -> (Vec<(usize, TimeMs)>, Vec<ShardJob>, bool) {
        let mut order: Vec<(usize, TimeMs)> = Vec::new();
        let mut groups: Vec<ShardJob> = Vec::new();
        // detlint::allow(banned-collection): per-key job grouping; batch order comes from pop order
        let mut index: HashMap<NodeId, usize> = HashMap::new();
        let mut cut = false;
        while let Some(head) = self.calendar.peek() {
            let at = head.at;
            if at >= window_end || at > deadline {
                break;
            }
            match self.classify_head(head, &index) {
                HeadClass::Cut => {
                    cut = true;
                    break;
                }
                // Inline events never touch a live node, so the ordinary
                // dispatch path is exact: dead-destination deliveries do
                // their useless-ping accounting, stale timers fall
                // through the incarnation check, nothing else happens.
                HeadClass::Inline => self.pop_and_dispatch(head),
                HeadClass::Batch => {
                    let (node, input) = self.pop_batchable(head);
                    let gi = match index.get(&node) {
                        Some(&gi) => gi,
                        None => {
                            let sim_node = self.nodes.get_mut(&node).expect("classified live");
                            let gi = groups.len();
                            groups.push(ShardJob {
                                index: gi,
                                node,
                                proto: sim_node.proto.take().expect("classified live"),
                                items: Vec::new(),
                            });
                            index.insert(node, gi);
                            gi
                        }
                    };
                    groups[gi].items.push((at, input));
                    order.push((gi, at));
                }
            }
        }
        (order, groups, cut)
    }

    /// Classifies the calendar head for batch collection. `batched` maps
    /// nodes already in this batch (whose `proto` is temporarily moved
    /// out) — they are still live, their liveness just isn't visible in
    /// `self.nodes` right now.
    fn classify_head(
        &self,
        head: Head,
        // detlint::allow(banned-collection): probe-only membership parameter
        batched: &HashMap<NodeId, usize>,
    ) -> HeadClass {
        let at = head.at;
        match self.calendar.view(head) {
            HeadView::Other => HeadClass::Cut,
            HeadView::Deliver { to } => {
                if self.frozen_at(to, at).is_some() || self.app_subscribed.contains(&to) {
                    // Frozen destinations requeue at pop time with a fresh
                    // sequence number — that allocation must happen at the
                    // sequential position, so the event cuts the batch.
                    // App-subscribed destinations cut too: their events
                    // must pause `run_until_wake` at the exact sequential
                    // calendar position, independent of worker count.
                    HeadClass::Cut
                } else if batched.contains_key(&to)
                    || self.nodes.get(&to).is_some_and(|n| n.proto.is_some())
                {
                    HeadClass::Batch
                } else {
                    HeadClass::Inline
                }
            }
            HeadView::Timer { node, incarnation } => {
                if self.frozen_at(node, at).is_some() || self.app_subscribed.contains(&node) {
                    HeadClass::Cut
                } else if self.nodes.get(&node).is_some_and(|n| {
                    n.incarnation == incarnation
                        && (n.proto.is_some() || batched.contains_key(&node))
                }) {
                    HeadClass::Batch
                } else {
                    HeadClass::Inline
                }
            }
        }
    }

    /// Pops a batch-classified head and converts it to a shard input.
    fn pop_batchable(&mut self, head: Head) -> (NodeId, ShardInput) {
        let (at, kind) = self.calendar.pop(head);
        self.now = at;
        match kind {
            EventKind::Deliver { from, to, msg } => (to, ShardInput::Msg { from, msg }),
            EventKind::Timer { node, timer, .. } => (node, ShardInput::Timer(timer)),
            other => unreachable!("unbatchable event classified as batch: {other:?}"),
        }
    }

    /// Executes a collected batch: phase 1 fans the per-node jobs out to
    /// the worker pool (inline for tiny batches, where the channel
    /// round-trip would dominate), phase 2 restores the nodes and replays
    /// every output strictly in the original pop order.
    fn execute_batch(
        &mut self,
        order: Vec<(usize, TimeMs)>,
        groups: Vec<ShardJob>,
        window_end: TimeMs,
        job_txs: &[mpsc::Sender<Vec<ShardJob>>],
        res_rx: &mpsc::Receiver<Vec<ShardDone>>,
    ) {
        let n_groups = groups.len();
        let mut slots: Vec<Option<ShardDone>> = (0..n_groups).map(|_| None).collect();
        if n_groups < 2 || order.len() < 16 {
            for job in groups {
                let gi = job.index;
                slots[gi] = Some(run_shard(job));
            }
        } else {
            let mut per_worker: Vec<Vec<ShardJob>> =
                (0..job_txs.len()).map(|_| Vec::new()).collect();
            for job in groups {
                per_worker[job.index % job_txs.len()].push(job);
            }
            let mut outstanding = 0;
            for (tx, jobs) in job_txs.iter().zip(per_worker) {
                if !jobs.is_empty() {
                    tx.send(jobs).expect("worker alive");
                    outstanding += 1;
                }
            }
            for _ in 0..outstanding {
                for done in res_rx.recv().expect("worker alive") {
                    let gi = done.index;
                    slots[gi] = Some(done);
                }
            }
        }
        // Bring every node home before replaying: replay routes messages
        // and folds metrics but never touches protocol state.
        let mut homes: Vec<NodeId> = Vec::with_capacity(n_groups);
        let mut outputs: Vec<std::vec::IntoIter<ItemOutput>> = Vec::with_capacity(n_groups);
        for slot in slots {
            let done = slot.expect("every group completes");
            self.nodes.get_mut(&done.node).expect("known node").proto = Some(done.proto);
            homes.push(done.node);
            outputs.push(done.outputs.into_iter());
        }
        // With a window wider than one instant, nothing a handler did may
        // schedule inside the window; width-1 windows may schedule at the
        // same instant, which the fresh (larger) sequence numbers order
        // correctly.
        let barrier = if self.lookahead > 1 { window_end } else { 0 };
        for (gi, at) in order {
            let mut out = outputs[gi].next().expect("one output per item");
            self.now = at;
            if out.expire_skip {
                self.calendar.note_expire_skip();
                continue;
            }
            self.route_outputs(homes[gi], Some(&mut out), barrier);
        }
    }

    /// Event-calendar traffic counters for this run so far.
    #[must_use]
    pub fn calendar_stats(&self) -> CalendarStats {
        self.calendar.stats()
    }

    /// The thaw time if `node` is inside a freeze window at `self.now`.
    fn frozen_until(&self, node: NodeId) -> Option<TimeMs> {
        self.frozen_at(node, self.now)
    }

    /// The thaw time if `node` is inside a freeze window at `at`.
    fn frozen_at(&self, node: NodeId, at: TimeMs) -> Option<TimeMs> {
        let windows = self.freezes.get(&node)?;
        windows
            .iter()
            .find(|&&(from, until)| at >= from && at < until)
            .map(|&(_, until)| until)
    }

    /// Re-queues `kind` to fire at `at` (used to stall events of frozen
    /// nodes; original relative order is preserved by the fresh `seq`).
    fn requeue(&mut self, at: TimeMs, kind: EventKind) {
        self.calendar.push(self.now, at, kind);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Churn { node, kind } => self.on_churn(node, kind),
            EventKind::Deliver { from, to, msg } => {
                // A frozen destination stops processing: its deliveries
                // stall, in order, until the freeze thaws.
                if let Some(thaw) = self.frozen_until(to) {
                    self.requeue(thaw, EventKind::Deliver { from, to, msg });
                    return;
                }
                self.on_deliver(from, to, msg);
            }
            EventKind::Timer {
                node,
                incarnation,
                timer,
            } => {
                if let Some(thaw) = self.frozen_until(node) {
                    self.requeue(
                        thaw,
                        EventKind::Timer {
                            node,
                            incarnation,
                            timer,
                        },
                    );
                    return;
                }
                let now = self.now;
                let Some(proto) = self
                    .nodes
                    .get_mut(&node)
                    // A stale timer from a previous incarnation is dropped.
                    .filter(|n| n.incarnation == incarnation)
                    .and_then(|n| n.proto.as_mut())
                else {
                    return;
                };
                // A firing `Node::timer_live` rejects (an already-answered
                // ping's expiry) is a guaranteed no-op inside the node:
                // discard it without the handler round-trip.
                if !proto.timer_live(timer, now) {
                    self.calendar.note_expire_skip();
                    return;
                }
                proto.handle_timer(now, timer);
                self.drain_node(node);
            }
            EventKind::Baseline => {
                for &id in &self.alive {
                    let sim_node = self.nodes.get_mut(&id).expect("alive implies known");
                    if let Some(proto) = sim_node.proto.as_ref() {
                        sim_node.last_stats = *proto.stats();
                    }
                }
            }
            EventKind::Sample => self.on_sample(),
            // Both apply even inside a freeze window: they reconfigure the
            // node rather than make it process anything, and the checker's
            // adversary windows are anchored to the scheduled instants.
            EventKind::Corrupt {
                node,
                pattern,
                seed,
            } => self.on_corrupt(node, pattern, seed),
            EventKind::SetBehavior { node, behavior } => self.on_set_behavior(node, behavior),
            EventKind::AppWake { token } => self.pending_wakes.push(token),
        }
    }

    /// Applies a scenario-scheduled behavior switch to both the engine's
    /// record (governs future incarnations) and the live node, if any.
    fn on_set_behavior(&mut self, node: NodeId, behavior: Behavior) {
        let Some(sim_node) = self.nodes.get_mut(&node) else {
            return;
        };
        sim_node.behavior = behavior.clone();
        if let Some(proto) = sim_node.proto.as_mut() {
            proto.set_behavior(behavior);
        }
    }

    /// Injects seed-deterministic garbage into `node`'s persistent PS/TS
    /// (the [`Fault::Corrupt`] semantics): ghost entries the hash condition
    /// never selected, dropped entries, and/or scrambled monitoring
    /// counters. A live node's state is corrupted in place via
    /// snapshot/restore; a dead node's persistent snapshot is corrupted so
    /// the damage surfaces on rejoin. The corruption RNG is its own stream
    /// (mixed from the master seed and the per-event seed), so runs without
    /// `Corrupt` events draw exactly the RNG they always did.
    fn on_corrupt(&mut self, node: NodeId, pattern: Corruption, seed: u64) {
        let mut rng =
            SmallRng::seed_from_u64(mix64(self.opts.seed ^ mix64(seed) ^ 0xc0de_dead_5eed_0bad));
        let Some(sim_node) = self.nodes.get_mut(&node) else {
            return;
        };
        let mut state = match sim_node.proto.as_ref() {
            Some(proto) => proto.snapshot_persistent(),
            None => std::mem::take(&mut sim_node.persistent),
        };
        let ghosts = matches!(pattern, Corruption::Ghosts | Corruption::Full);
        let drops = matches!(pattern, Corruption::Drops | Corruption::Full);
        let scramble = matches!(pattern, Corruption::Scramble | Corruption::Full);
        if drops {
            state.ps.retain(|_| rng.gen_bool(0.5));
            state.targets.retain(|_| rng.gen_bool(0.5));
        }
        if scramble {
            for (_, rec) in &mut state.targets {
                // As if restored from another incarnation's snapshot: the
                // counters are garbled but stay internally consistent
                // (pongs ≤ pings), so only the *estimates* go wrong.
                rec.pings_sent = rng.gen_range(0..=rec.pings_sent * 2 + 8);
                rec.pongs_received = rng.gen_range(0..=rec.pings_sent);
                rec.last_session = rng.gen_range(0..=rec.last_session + avmon::MINUTE);
            }
        }
        if ghosts {
            let history = self.opts.history_template.clone().unwrap_or_default();
            // Identities from the 192/8 block (disjoint from the 10/8
            // space `NodeId::from_index` populates traces with), rejected
            // until the consistency condition fails in the corrupted
            // direction — each ghost is a guaranteed GhostMonitor /
            // GhostTarget violation at the next sample.
            let draw_ghost = |rng: &mut SmallRng, as_monitor: bool| loop {
                let g = NodeId::new([192, rng.gen(), rng.gen(), rng.gen()], 4000);
                let selected = if as_monitor {
                    self.selector.is_monitor(g, node)
                } else {
                    self.selector.is_monitor(node, g)
                };
                if !selected {
                    return g;
                }
            };
            for _ in 0..rng.gen_range(1..=3) {
                let g = draw_ghost(&mut rng, true);
                if !state.ps.contains(&g) {
                    state.ps.push(g);
                }
            }
            for _ in 0..rng.gen_range(1..=3) {
                let g = draw_ghost(&mut rng, false);
                if !state.targets.iter().any(|(t, _)| *t == g) {
                    state.targets.push((
                        g,
                        TargetRecord {
                            discovered_at: self.now,
                            pings_sent: 0,
                            pongs_received: 0,
                            last_pong: None,
                            session_start: None,
                            last_session: 0,
                            unresponsive_since: None,
                            history: history.clone(),
                        },
                    ));
                }
            }
        }
        let sim_node = self.nodes.get_mut(&node).expect("checked above");
        match sim_node.proto.as_mut() {
            Some(proto) => {
                proto.restore_persistent(state);
                // Show the checker the corrupted state *now*: the node's own
                // per-period `audit_sets` pass purges condition-failing
                // entries, usually before the next periodic sample would run
                // — detection (and the window's `detected_after_ms`) must be
                // pinned to the injection, not race the self-repair.
                self.checker.on_sample(self.now, std::iter::once(&*proto));
                self.drain_node(node);
            }
            None => sim_node.persistent = state,
        }
        self.corruption_draws += rng.draw_count();
    }

    fn on_churn(&mut self, id: NodeId, kind: ChurnEventKind) {
        match kind {
            ChurnEventKind::Birth | ChurnEventKind::Join => {
                let contact = self.pick_contact(id);
                let sim_node = self.nodes.get_mut(&id).expect("identity known");
                debug_assert!(sim_node.proto.is_none(), "churn: {id} already up");
                let join_kind = match kind {
                    ChurnEventKind::Birth => {
                        sim_node.born_at = Some(self.now);
                        JoinKind::Fresh
                    }
                    _ => JoinKind::Rejoin {
                        down_duration: self.now.saturating_sub(sim_node.left_at.unwrap_or(0)),
                    },
                };
                let node_seed = mix64(
                    self.opts.seed
                        ^ mix64(u64::from_be_bytes({
                            let b = id.to_bytes();
                            [0, 0, b[0], b[1], b[2], b[3], b[4], b[5]]
                        }))
                        ^ mix64(sim_node.incarnation),
                );
                let mut proto = Node::new(
                    id,
                    self.opts.config.clone(),
                    self.selector.clone(),
                    node_seed,
                );
                if let Some(slots) = self.opts.node_memo {
                    proto.set_point_memo_slots(slots);
                }
                proto.set_behavior(sim_node.behavior.clone());
                if let Some(template) = &self.opts.history_template {
                    proto.set_history_template(template.clone());
                }
                if kind == ChurnEventKind::Join {
                    proto.restore_persistent(std::mem::take(&mut sim_node.persistent));
                }
                sim_node.last_stats = NodeStats::default();
                if kind == ChurnEventKind::Birth && self.now == 0 && self.initial_cohort.len() > 1 {
                    // Bootstrap the initial population with warm views: at
                    // time zero there is no overlay yet to join through.
                    // Sample WITHOUT replacement (Floyd's algorithm) over
                    // the cohort minus the joiner, so the initial view is
                    // always min(cvs, cohort − 1) distinct peers — the old
                    // with-replacement loop could under-fill small cohorts.
                    // Exactly k RNG draws; the Vec membership probe makes
                    // bootstrap O(cvs²) comparisons per node, fine at
                    // cvs ≤ a few hundred (switch to a bitset before
                    // pushing cvs toward 1000).
                    let cohort = self.initial_cohort.len();
                    let pool = cohort - 1;
                    let k = self.opts.config.cvs.min(pool);
                    let skip = self
                        .initial_cohort_index
                        .get(&id)
                        .copied()
                        .unwrap_or(cohort);
                    let mut picks: Vec<usize> = Vec::with_capacity(k);
                    for j in (pool - k)..pool {
                        let t = self.rng.gen_range(0..j + 1);
                        picks.push(if picks.contains(&t) { j } else { t });
                    }
                    let seeds: Vec<NodeId> = picks
                        .iter()
                        .map(|&idx| self.initial_cohort[if idx >= skip { idx + 1 } else { idx }])
                        .collect();
                    proto.seed_view(&seeds);
                }
                let now = self.now;
                proto.start(now, join_kind, contact);
                sim_node.proto = Some(proto);
                if self.tracked.contains(&id) {
                    self.discovery.entry(id).or_insert_with(|| DiscoveryLog {
                        born_at: now,
                        monitor_times: vec![],
                    });
                }
                self.alive_insert(id);
                self.checker.node_up(id, now);
                self.drain_node(id);
            }
            ChurnEventKind::Leave | ChurnEventKind::Death => {
                self.checker.node_down(id);
                // A departing monitor's open mistakes end here; so do open
                // mistakes *about* it — suspecting a node that just died
                // stops being a mistake at the instant of death.
                self.close_open_mistakes(id);
                let sim_node = self.nodes.get_mut(&id).expect("identity known");
                if let Some(proto) = sim_node.proto.take() {
                    // Fold the unsampled tail of this incarnation's counters.
                    let delta = proto.stats().delta(&sim_node.last_stats);
                    if self.now >= self.trace.measure_from {
                        let series = sim_node.series_mut();
                        series.hash_checks += delta.hash_checks;
                        series.bytes_sent += delta.bytes_sent;
                        series.monitor_pings_sent += delta.monitor_pings_sent;
                    }
                    self.graveyard_stats.merge(proto.stats());
                    self.graveyard_rng_draws += proto.rng_draws();
                    sim_node.persistent = proto.snapshot_persistent();
                }
                sim_node.incarnation += 1;
                sim_node.left_at = Some(self.now);
                self.alive_remove(id);
            }
        }
    }

    fn on_deliver(&mut self, from: NodeId, to: NodeId, msg: Message) {
        let Some(sim_node) = self.nodes.get_mut(&to) else {
            return;
        };
        let now = self.now;
        match sim_node.proto.as_mut() {
            Some(proto) => {
                proto.handle_message(now, from, msg);
                self.drain_node(to);
            }
            None => {
                // Destination has departed: the message is lost. Monitoring
                // pings to absent nodes are the "useless pings" of Fig. 18.
                if msg.is_monitoring_ping() && now >= self.trace.measure_from {
                    if let Some(sender) = self.nodes.get_mut(&from) {
                        sender.series_mut().useless_pings += 1;
                    }
                }
            }
        }
    }

    fn on_sample(&mut self) {
        if self.now < self.trace.measure_from {
            return;
        }
        for &id in &self.alive {
            let sim_node = self.nodes.get_mut(&id).expect("alive implies known");
            let Some(proto) = sim_node.proto.as_ref() else {
                continue;
            };
            let stats = *proto.stats();
            let delta = stats.delta(&sim_node.last_stats);
            sim_node.last_stats = stats;
            let mem = proto.memory_entries();
            let series = sim_node.series_mut();
            series.samples += 1;
            series.hash_checks += delta.hash_checks;
            series.bytes_sent += delta.bytes_sent;
            series.monitor_pings_sent += delta.monitor_pings_sent;
            series.memory_entries_sum += mem as u64;
            series.memory_entries_max = series.memory_entries_max.max(mem);
        }
        // Always-on invariant sweep over the live population.
        let Simulation {
            checker,
            nodes,
            alive,
            now,
            ..
        } = self;
        checker.on_sample(
            *now,
            alive
                .iter()
                .filter_map(|id| nodes.get(id).and_then(|n| n.proto.as_ref())),
        );
    }

    /// Drains live `node`'s queued outputs straight into the event
    /// calendar (see [`Simulation::route_outputs`]).
    fn drain_node(&mut self, id: NodeId) {
        self.route_outputs(id, None, 0);
    }

    /// The one output path of the engine: routes node `id`'s outputs —
    /// polled from the live node, or `captured` by a worker for sharded
    /// replay — into the calendar and the metric folds. Transmits become
    /// `Deliver` events (network-routed: lost, delayed, or duplicated),
    /// timers become incarnation-stamped timer events, and app events
    /// feed the discovery log, the event buffer and the QoS suspicion
    /// folds. Split borrows keep it allocation-free. Nothing may be
    /// scheduled before `barrier` (the sharded window end, else 0).
    fn route_outputs(&mut self, id: NodeId, captured: Option<&mut ItemOutput>, barrier: TimeMs) {
        let Simulation {
            nodes,
            alive,
            calendar,
            now,
            rng,
            opts,
            net,
            discovery,
            app_events,
            app_subscribed,
            suspicions,
            ..
        } = self;
        let Some(sim_node) = nodes.get_mut(&id) else {
            return;
        };
        let incarnation = sim_node.incarnation;
        let outputs: &mut dyn NodeOutputs = match captured {
            Some(out) => out,
            None => match sim_node.proto.as_mut() {
                Some(proto) => proto,
                None => return,
            },
        };
        let now = *now;

        // Routes one unicast through the network model: lost, delivered,
        // or delivered twice (duplication), each copy independently
        // delayed. Takes the message by value so the fault-free unicast
        // path stays clone-free.
        let mut route = |to: NodeId, msg: Message| match net.route(rng, now, id, to) {
            Route::Drop => {}
            Route::Deliver {
                delay,
                duplicate_delay,
            } => {
                debug_assert!(now + delay >= barrier, "delivery inside the window");
                if let Some(dup) = duplicate_delay {
                    debug_assert!(now + dup >= barrier, "delivery inside the window");
                    let msg = msg.clone();
                    calendar.push(now, now + dup, EventKind::Deliver { from: id, to, msg });
                }
                calendar.push(now, now + delay, EventKind::Deliver { from: id, to, msg });
            }
        };
        while let Some(transmit) = outputs.poll_transmit() {
            match transmit.to {
                Destination::Node(to) => route(to, transmit.msg),
                Destination::AllNodes => {
                    for &to in alive.iter() {
                        if to != id {
                            route(to, transmit.msg.clone());
                        }
                    }
                }
            }
        }
        while let Some((timer, at)) = outputs.poll_timer() {
            debug_assert!(at.max(now) >= barrier, "timer armed inside the window");
            calendar.arm_timer(now, at, id, incarnation, timer);
        }
        while let Some(event) = outputs.poll_event() {
            match &event {
                AppEvent::MonitorDiscovered { .. } => {
                    if let Some(log) = discovery.get_mut(&id) {
                        log.monitor_times.push(now);
                    }
                }
                AppEvent::TargetUnresponsive { target } => suspicions.push((true, *target)),
                AppEvent::TargetResponsive { target } => suspicions.push((false, *target)),
                _ => {}
            }
            if opts.collect_app_events || app_subscribed.contains(&id) {
                app_events.push((now, id, event));
            }
        }
        if !self.suspicions.is_empty() {
            self.fold_suspicions(id);
        }
    }

    /// Folds monitor `id`'s buffered suspicion transitions into the QoS
    /// accumulators. Runs after the node borrow ends: the wrongful/true
    /// classification needs to look up the *target*.
    fn fold_suspicions(&mut self, id: NodeId) {
        let now = self.now;
        let measuring = now >= self.trace.measure_from;
        let Simulation {
            nodes,
            alive_index,
            qos,
            suspicions,
            ..
        } = self;
        for (down, target) in suspicions.drain(..) {
            if down {
                if alive_index.contains_key(&target) {
                    // Wrongful suspicion: the target is alive right now.
                    if measuring {
                        qos.episodes += 1;
                        qos.open_mistakes.insert((id, target), now);
                    }
                } else if measuring {
                    // True detection: latency from the target's departure.
                    // (Ghost targets that never existed have no departure
                    // time and score nowhere.)
                    if let Some(left) = nodes.get(&target).and_then(|n| n.left_at) {
                        qos.detection.record(now.saturating_sub(left));
                    }
                }
            } else if let Some(start) = qos.open_mistakes.remove(&(id, target)) {
                qos.mistake_time += now.saturating_sub(start);
            }
        }
    }

    /// Closes every open mistake episode that `node` participates in (as
    /// suspecting monitor or as suspected target), folding the elapsed
    /// wrongful-suspicion time into the QoS totals.
    fn close_open_mistakes(&mut self, node: NodeId) {
        let now = self.now;
        let QosAccumulator {
            open_mistakes,
            mistake_time,
            ..
        } = &mut self.qos;
        open_mistakes.retain(|&(monitor, target), start| {
            if monitor == node || target == node {
                *mistake_time += now.saturating_sub(*start);
                false
            } else {
                true
            }
        });
    }

    /// Picks a uniformly random live contact for `joiner`, in O(1) and
    /// with exactly one RNG draw whenever a valid contact exists.
    ///
    /// Returns `None` only when no other node is alive. (The previous
    /// implementation gave up after 8 rejection-sampling draws and could
    /// spuriously isolate a joiner — a (1/2)^8 chance per join with two
    /// alive nodes. The joiner is normally not yet in `alive` when this
    /// runs; the index exclusion below keeps the guarantee even if it is.)
    fn pick_contact(&mut self, joiner: NodeId) -> Option<NodeId> {
        match self.alive_index.get(&joiner).copied() {
            None => {
                if self.alive.is_empty() {
                    return None;
                }
                Some(self.alive[self.rng.gen_range(0..self.alive.len())])
            }
            Some(jidx) => {
                if self.alive.len() < 2 {
                    return None;
                }
                // Draw over the n−1 non-joiner slots and skip past the
                // joiner's own index.
                let r = self.rng.gen_range(0..self.alive.len() - 1);
                Some(self.alive[if r >= jidx { r + 1 } else { r }])
            }
        }
    }

    fn alive_insert(&mut self, id: NodeId) {
        if self.alive_index.contains_key(&id) {
            return;
        }
        self.alive_index.insert(id, self.alive.len());
        self.alive.push(id);
    }

    fn alive_remove(&mut self, id: NodeId) {
        if let Some(idx) = self.alive_index.remove(&id) {
            let last = self.alive.len() - 1;
            self.alive.swap_remove(idx);
            if idx != last {
                let moved = self.alive[idx];
                self.alive_index.insert(moved, idx);
            }
        }
    }

    /// Whether `monitor`'s inflated report for `target` actually takes
    /// effect. [`Behavior::Colluding`] declares friendship one-sidedly, so
    /// wherever the simulator scores reports it re-verifies the pair
    /// symmetrically: an asymmetric "coalition" (A lists B, B does not
    /// list A) lies for nobody. Coalition behaviors that forge regardless
    /// of reciprocity ([`Behavior::FakeMonitor`],
    /// [`Behavior::EclipseCoalition`]) pass through unchanged.
    fn misreport_in_effect(&self, monitor: NodeId, behavior: &Behavior, target: NodeId) -> bool {
        if !behavior.misreports(target) {
            return false;
        }
        if matches!(behavior, Behavior::Colluding { .. }) {
            return self
                .nodes
                .get(&target)
                .is_some_and(|t| t.behavior.colludes_with(monitor));
        }
        true
    }

    /// Collects every monitor's availability estimate for `target`,
    /// applying each monitor's (possibly adversarial) reporting behavior —
    /// i.e. the values `target`'s pinging set would report if queried.
    #[must_use]
    pub fn monitor_estimates(&self, target: NodeId) -> Vec<f64> {
        let mut estimates = Vec::new();
        for (&mid, sim_node) in &self.nodes {
            if mid == target {
                continue;
            }
            let record = match sim_node.proto.as_ref() {
                Some(proto) => proto.target_record(target).cloned(),
                None => sim_node
                    .persistent
                    .targets
                    .iter()
                    .find(|(t, _)| *t == target)
                    .map(|(_, rec)| rec.clone()),
            };
            let Some(record) = record else { continue };
            if record.pings_sent == 0 {
                continue;
            }
            if self.misreport_in_effect(mid, &sim_node.behavior, target) {
                estimates.push(1.0);
            } else if let Some(est) = record.availability_estimate() {
                estimates.push(est);
            }
        }
        // The monitor map iterates in hash order; sort so that downstream
        // float reductions are bit-reproducible across runs.
        estimates.sort_by(|a, b| a.partial_cmp(b).expect("estimates are never NaN"));
        estimates
    }

    /// Builds the final [`SimReport`].
    ///
    /// Assembly is `O(N·K)`: one pass over every node's target records
    /// feeds a per-target estimate index (instead of the old `O(N²)`
    /// [`Simulation::monitor_estimates`] probe per measured node), and the
    /// per-node series stream straight out of the engine's accumulators.
    #[must_use]
    pub fn report(&self) -> SimReport {
        self.assemble_report(self.discovery.clone(), self.checker.summary().clone())
    }

    /// Like [`Simulation::report`], but consumes the simulation and moves
    /// the per-node discovery logs into the report instead of cloning
    /// them — preferred once the run is over.
    #[must_use]
    pub fn into_report(mut self) -> SimReport {
        let discovery = std::mem::take(&mut self.discovery);
        let invariants = self.checker.summary().clone();
        self.assemble_report(discovery, invariants)
    }

    fn assemble_report(
        &self,
        discovery: BTreeMap<NodeId, DiscoveryLog>,
        mut invariants: crate::invariants::InvariantSummary,
    ) -> SimReport {
        let mut totals = self.graveyard_stats;
        let mut node_draws = self.graveyard_rng_draws;
        for sim_node in self.nodes.values() {
            if let Some(proto) = sim_node.proto.as_ref() {
                totals.merge(proto.stats());
                node_draws += proto.rng_draws();
            }
        }
        // The dynamic half of the determinism discipline: per-stream draw
        // counts. Engine draws happen only on the main thread (workers
        // never touch `self.rng`), node draws ride inside each `Node`,
        // and corruption draws are per-event local streams — so the
        // ledger is identical at any worker count, and a seed-equal run
        // that diverges pinpoints *which* stream drifted.
        invariants.rng_ledger = crate::invariants::RngLedger {
            engine_draws: self.rng.draw_count(),
            node_draws,
            corruption_draws: self.corruption_draws,
            app_draws: self.app_draws,
        };
        // One pass over every monitor's target records builds the
        // per-target estimate index (O(total TS entries) = O(N·K)).
        let mut estimate_index = EstimateIndex::new();
        for (&mid, sim_node) in &self.nodes {
            let mut push = |target: NodeId, rec: &TargetRecord| {
                if target == mid || rec.pings_sent == 0 {
                    return;
                }
                let estimate = if self.misreport_in_effect(mid, &sim_node.behavior, target) {
                    Some(1.0)
                } else {
                    rec.availability_estimate()
                };
                if let Some(est) = estimate {
                    estimate_index.push(target, est);
                }
            };
            match sim_node.proto.as_ref() {
                Some(proto) => {
                    for (target, rec) in proto.target_records() {
                        push(target, rec);
                    }
                }
                None => {
                    for (target, rec) in &sim_node.persistent.targets {
                        push(*target, rec);
                    }
                }
            }
        }
        let mut availability = Vec::new();
        // detlint::allow(banned-collection): membership probes only; never iterated
        let control: HashSet<NodeId> = self.trace.control_group.iter().copied().collect();
        // One pass over the trace builds every node's up-intervals;
        // Trace::availability_of would rebuild this map per queried node
        // (O(N · E) over a report — minutes at N = 50k).
        let up_intervals = self.trace.up_intervals();
        for (&id, sim_node) in &self.nodes {
            let Some(born) = sim_node.born_at else {
                continue;
            };
            let Some(estimates) = estimate_index.take_sorted(id) else {
                continue;
            };
            let from = born.max(self.trace.measure_from);
            if from >= self.trace.horizon {
                continue;
            }
            let to = self.trace.horizon;
            let up: avmon::DurMs = up_intervals
                .get(&id)
                .map(|ups| {
                    ups.iter()
                        .map(|&(s, e)| e.min(to).saturating_sub(s.max(from)))
                        .sum()
                })
                .unwrap_or(0);
            let actual = up as f64 / (to - from) as f64;
            availability.push(AvailabilityMeasure {
                node: id,
                estimated: crate::metrics::mean(&estimates),
                actual,
                control: control.contains(&id),
                monitors: estimates.len(),
            });
        }
        availability.sort_by_key(|m| m.node);
        // FD QoS assembly: the streaming integer accumulators plus the
        // checker's per-window stabilization verdicts and the end-of-run
        // eclipse capture census. Derived floats come from deterministic
        // integers, so serialized QoS stays byte-identical across runs.
        let mut qos = FdQos {
            detection: self.qos.detection.clone(),
            mistake_episodes: self.qos.episodes,
            mistake_time_ms: self.qos.mistake_time,
            mistake_rate_per_hour: 0.0,
            mistake_duration_ms: 0.0,
            windows: self.checker.stabilization(),
            eclipse: Vec::new(),
        };
        let window_ms = self.trace.horizon.saturating_sub(self.trace.measure_from);
        if window_ms > 0 {
            qos.mistake_rate_per_hour =
                qos.mistake_episodes as f64 * avmon::HOUR as f64 / window_ms as f64;
        }
        if qos.mistake_episodes > 0 {
            qos.mistake_duration_ms = qos.mistake_time_ms as f64 / qos.mistake_episodes as f64;
        }
        if let Some(scenario) = &self.opts.scenario {
            // detlint::allow(banned-collection): membership probes only; victims are sorted separately
            let mut coalition_union: HashSet<NodeId> = HashSet::new();
            let mut victims: Vec<NodeId> = Vec::new();
            for event in &scenario.attacks {
                let Attack::Eclipse {
                    coalition,
                    victims: v,
                    ..
                } = &event.attack;
                coalition_union.extend(coalition.iter().copied());
                victims.extend(v.iter().copied());
            }
            victims.sort_unstable();
            victims.dedup();
            for victim in victims {
                let Some(sim_node) = self.nodes.get(&victim) else {
                    continue;
                };
                let ps: Vec<NodeId> = match sim_node.proto.as_ref() {
                    Some(proto) => proto.pinging_set().collect(),
                    None => sim_node.persistent.ps.clone(),
                };
                let captured = ps.iter().filter(|m| coalition_union.contains(m)).count();
                qos.eclipse.push(EclipseScore {
                    victim,
                    captured,
                    slots: ps.len(),
                });
            }
        }
        let mut series = BTreeMap::new();
        for (&id, sim_node) in &self.nodes {
            if sim_node.series_touched {
                series.insert(id, sim_node.series.clone());
            }
        }
        SimReport {
            model: self.trace.name.clone(),
            n: self.trace.stable_size,
            cvs: self.opts.config.cvs,
            k: self.opts.config.k,
            sample_interval: self.opts.sample_interval,
            discovery,
            series,
            availability,
            totals,
            alive_at_end: self.alive.len(),
            invariants,
            qos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmon_churn::ChurnEvent;

    /// A minimal trace: `n` births at t = 0, nothing else.
    fn cohort_trace(n: u32, horizon: TimeMs) -> Trace {
        let events: Vec<ChurnEvent> = (0..n)
            .map(|i| ChurnEvent {
                at: 0,
                node: NodeId::from_index(i),
                kind: ChurnEventKind::Birth,
            })
            .collect();
        Trace::new("COHORT", n as usize, horizon, 0, vec![], events)
    }

    /// The effective memo policy is pinned into the report: enabled with
    /// the working-set sizing at small N, disabled-with-reason when the
    /// large-N default kicks in, and honoring an explicit override.
    #[test]
    fn memo_policy_is_surfaced_in_the_report() {
        let run = |config: Config, memo: Option<usize>| {
            let mut sim = Simulation::new(
                cohort_trace(8, avmon::MINUTE),
                SimOptions::new(config).node_memo(memo),
            );
            sim.run_until(avmon::MINUTE);
            sim.report().invariants.memo_policy.clone()
        };

        let small = run(Config::builder(100).build().unwrap(), None);
        assert!(small.enabled);
        assert!(small.slots >= 1024);
        assert!(small.reason.contains("default working-set sizing"));

        let large = run(Config::builder(20_000).build().unwrap(), None);
        assert!(!large.enabled);
        assert_eq!(large.slots, 0);
        assert!(large.reason.contains("above 8192 nodes"));
        assert!(large.reason.contains("20000"));

        let pinned = run(Config::builder(20_000).build().unwrap(), Some(4096));
        assert!(pinned.enabled);
        assert_eq!(pinned.slots, 4096);
        assert!(pinned.reason.contains("explicit override"));

        // And the policy is part of the serialized report bytes.
        let mut sim = Simulation::new(
            cohort_trace(8, avmon::MINUTE),
            SimOptions::new(Config::builder(100).build().unwrap()),
        );
        sim.run_until(avmon::MINUTE);
        let json = serde_json::to_string(&sim.report()).unwrap();
        assert!(json.contains("memo_policy"));
        assert!(json.contains("default working-set sizing"));
    }

    /// The starvation regression: with ≥ 2 alive nodes, `pick_contact`
    /// must never return `None` — the old 8-draw rejection loop could
    /// spuriously isolate a joiner. Exercised across many seeds and draws
    /// (the property the old code violated with probability (1/2)^8 per
    /// join at 2 alive nodes — certain to appear in 64 × 200 trials).
    #[test]
    fn pick_contact_never_starves_with_two_alive() {
        for seed in 0..64u64 {
            let config = Config::builder(8).build().unwrap();
            let mut sim = Simulation::new(
                cohort_trace(2, avmon::MINUTE),
                SimOptions::new(config).seed(seed),
            );
            sim.run_until(1);
            assert_eq!(sim.alive.len(), 2);
            let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
            for _ in 0..200 {
                // Joiner alive: the other node is the only valid contact.
                assert_eq!(sim.pick_contact(a), Some(b), "seed {seed}");
                assert_eq!(sim.pick_contact(b), Some(a), "seed {seed}");
            }
        }
    }

    /// `pick_contact` excludes a joiner that is already in `alive`, and
    /// returns `None` only when no other node exists.
    #[test]
    fn pick_contact_excludes_joiner_and_handles_singletons() {
        let config = Config::builder(8).build().unwrap();
        let mut sim = Simulation::new(
            cohort_trace(5, avmon::MINUTE),
            SimOptions::new(config.clone()).seed(3),
        );
        sim.run_until(1);
        let joiner = NodeId::from_index(2);
        for _ in 0..500 {
            let pick = sim.pick_contact(joiner).expect("4 valid contacts exist");
            assert_ne!(pick, joiner);
        }
        // A non-member joiner draws uniformly over all alive nodes.
        for _ in 0..100 {
            assert!(sim.pick_contact(NodeId::from_index(99)).is_some());
        }
        // Singleton system: the sole node has no contact.
        let mut lonely = Simulation::new(
            cohort_trace(1, avmon::MINUTE),
            SimOptions::new(config).seed(3),
        );
        lonely.run_until(1);
        assert_eq!(lonely.pick_contact(NodeId::from_index(0)), None);
    }

    /// The bootstrap under-fill regression: warm-view seeding now samples
    /// without replacement, so every initial view holds exactly
    /// `min(cvs, cohort − 1)` distinct peers — the old `cvs · 2`
    /// with-replacement draws could under-fill small cohorts.
    #[test]
    fn bootstrap_views_are_full_and_duplicate_free() {
        for seed in 0..50u64 {
            for cohort in [2u32, 3, 5, 9] {
                let config = Config::builder(64).cvs(8).build().unwrap();
                let cvs = config.cvs;
                let mut sim = Simulation::new(
                    cohort_trace(cohort, avmon::MINUTE),
                    SimOptions::new(config).seed(seed),
                );
                sim.run_until(0);
                let expected = cvs.min(cohort as usize - 1);
                for i in 0..cohort {
                    let id = NodeId::from_index(i);
                    let node = sim.node(id).expect("alive at t=0");
                    let view: Vec<NodeId> = node.view().iter().collect();
                    assert_eq!(
                        view.len(),
                        expected,
                        "seed {seed}, cohort {cohort}: under-filled view {view:?}"
                    );
                    let mut distinct: Vec<NodeId> = view.clone();
                    distinct.sort();
                    distinct.dedup();
                    assert_eq!(distinct.len(), view.len(), "duplicates in {view:?}");
                    assert!(!view.contains(&id), "self-reference in {view:?}");
                }
            }
        }
    }
}
