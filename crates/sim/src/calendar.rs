//! The simulator's event calendar: every pending event, ordered by
//! `(time, seq)`.
//!
//! Events live in one of three stores, and this module is the only place
//! that knows which:
//!
//! * **Timer lanes** — one FIFO per constant protocol delay (ping
//!   timeout, protocol period, monitoring period). A timer armed exactly
//!   `delay` ahead of the arming instant lands on its lane; simulated time
//!   never decreases, so lane entries arrive in nondecreasing `(at, seq)`
//!   order and pop from the front in O(1). A push that would break a
//!   lane's monotonicity falls back to the other stores.
//! * **Delivery wheel** — a hashed timing wheel with one FIFO bucket per
//!   millisecond over a [`WHEEL_SPAN`]-ms window, for short-horizon events
//!   (message deliveries, short odd-delay timers, thaw requeues).
//!   Timestamps are integer milliseconds and every accepted event lies
//!   inside the span, so a bucket holds exactly one instant at a time and
//!   its FIFO order is sequence order.
//! * **Binary heap** — everything else: the construction-time schedule
//!   (churn, sampling, scenario injections) and long odd-delay arms.
//!
//! Sequence numbers are allocated here, globally increasing, so the
//! `(time, seq)` key is a total order and [`Calendar::peek`] merges the
//! three stores into exactly the pop sequence a single binary heap would
//! give. Where an event is stored therefore never changes *when* it
//! fires — only how much it costs to get there.
//!
//! The contract with the engine: every scheduling call passes `now`, the
//! simulated instant of the decision, which never decreases from call to
//! call and never passes a pending event; the event itself fires at or
//! after `now`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use avmon::{DurMs, NodeId, TimeMs, Timer};

use crate::engine::EventKind;

/// Width of the delivery wheel in milliseconds. Every routed delivery
/// delay is far below it; events at or beyond it go to the heap.
const WHEEL_SPAN: u64 = 1024;

/// Event-calendar traffic counters: how many events were popped from the
/// binary heap vs the O(1) structures (timer lanes, delivery wheel), and
/// how many dead expiries were discarded without touching the node. Not
/// part of [`crate::SimReport`] — the counters describe the container,
/// not the run, and the run's report is independent of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CalendarStats {
    /// Events popped from the binary-heap calendar.
    pub heap_pops: u64,
    /// Timers popped from the FIFO lanes.
    pub lane_pops: u64,
    /// Events popped from the timing wheel.
    pub wheel_pops: u64,
    /// `Expire` timers discarded dead in O(1) (the ping was already
    /// answered), whichever store they were popped from.
    pub expire_skips: u64,
}

/// A heap- or wheel-resident event.
#[derive(Debug)]
struct Event {
    at: TimeMs,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest (and, on ties,
        // first-scheduled) event pops first. Determinism depends on this.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One constant-delay FIFO timer lane.
#[derive(Debug)]
struct TimerLane {
    delay: DurMs,
    queue: VecDeque<LaneTimer>,
}

/// A lane-resident timer: the `EventKind::Timer` fields, without the
/// enum's message-sized footprint.
#[derive(Debug)]
struct LaneTimer {
    at: TimeMs,
    seq: u64,
    node: NodeId,
    incarnation: u64,
    timer: Timer,
}

/// The hashed timing wheel (see the module docs).
#[derive(Debug)]
struct DeliveryWheel {
    buckets: Vec<VecDeque<Event>>,
    len: usize,
    /// Lower bound on the earliest occupied bucket time (pulled back on
    /// push, advanced monotonically by scans — amortizes peeks to O(1)).
    cursor: TimeMs,
}

impl DeliveryWheel {
    fn new() -> Self {
        DeliveryWheel {
            buckets: (0..WHEEL_SPAN).map(|_| VecDeque::new()).collect(),
            len: 0,
            cursor: 0,
        }
    }

    #[inline]
    fn accepts(now: TimeMs, at: TimeMs) -> bool {
        at >= now && at - now < WHEEL_SPAN
    }

    fn push(&mut self, event: Event) {
        self.cursor = self.cursor.min(event.at);
        self.len += 1;
        self.buckets[(event.at % WHEEL_SPAN) as usize].push_back(event);
    }

    /// `(at, seq)` of the earliest event, advancing the cursor past empty
    /// buckets along the way.
    fn peek(&mut self) -> Option<(TimeMs, u64)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(front) = self.front() {
                return Some((front.at, front.seq));
            }
            self.cursor += 1;
        }
    }

    /// The event at the cursor, if the cursor's bucket holds its instant.
    /// After [`DeliveryWheel::peek`] this is the earliest event.
    fn front(&self) -> Option<&Event> {
        self.buckets[(self.cursor % WHEEL_SPAN) as usize]
            .front()
            .filter(|front| front.at == self.cursor)
    }

    fn pop(&mut self) -> Option<Event> {
        let event = self.buckets[(self.cursor % WHEEL_SPAN) as usize].pop_front()?;
        self.len -= 1;
        Some(event)
    }
}

/// Which store holds the calendar head.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Heap,
    Lane(usize),
    Wheel,
}

/// The calendar's earliest event, as located by [`Calendar::peek`]. Valid
/// until the calendar is next mutated: pass it straight to
/// [`Calendar::view`] and [`Calendar::pop`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Head {
    /// When the event fires.
    pub(crate) at: TimeMs,
    seq: u64,
    slot: Slot,
}

/// What batch classification needs to know about the head event, without
/// popping it.
#[derive(Debug)]
pub(crate) enum HeadView {
    /// A message delivery to `to`.
    Deliver { to: NodeId },
    /// A protocol timer of `node`'s `incarnation`.
    Timer { node: NodeId, incarnation: u64 },
    /// Anything else (churn, sampling, scenario injections, app wakes).
    Other,
}

impl HeadView {
    fn of(kind: &EventKind) -> Self {
        match *kind {
            EventKind::Deliver { to, .. } => HeadView::Deliver { to },
            EventKind::Timer {
                node, incarnation, ..
            } => HeadView::Timer { node, incarnation },
            _ => HeadView::Other,
        }
    }
}

/// The event calendar (see the module docs).
#[derive(Debug)]
pub(crate) struct Calendar {
    heap: BinaryHeap<Event>,
    lanes: Vec<TimerLane>,
    wheel: DeliveryWheel,
    /// The next sequence number to allocate.
    seq: u64,
    stats: CalendarStats,
}

impl Calendar {
    /// A calendar with one timer lane per distinct constant delay in
    /// `timer_delays`, holding `initial` in iteration order (sequence
    /// numbers `0, 1, …`). The initial schedule goes to the heap: it spans
    /// the whole trace.
    pub(crate) fn new(
        timer_delays: &[DurMs],
        initial: impl IntoIterator<Item = (TimeMs, EventKind)>,
    ) -> Self {
        let mut delays = timer_delays.to_vec();
        delays.sort_unstable();
        delays.dedup();
        let lanes = delays
            .into_iter()
            .map(|delay| TimerLane {
                delay,
                queue: VecDeque::new(),
            })
            .collect();
        let mut calendar = Calendar {
            heap: BinaryHeap::new(),
            lanes,
            wheel: DeliveryWheel::new(),
            seq: 0,
            stats: CalendarStats::default(),
        };
        let initial = initial.into_iter();
        let mut events = Vec::with_capacity(initial.size_hint().0 * 2);
        for (at, kind) in initial {
            events.push(Event {
                at,
                seq: calendar.next_seq(),
                kind,
            });
        }
        calendar.heap = BinaryHeap::from(events);
        calendar
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `kind` at `at` (no earlier than `now`, the instant of the
    /// scheduling decision), behind every event already scheduled for the
    /// same instant.
    pub(crate) fn push(&mut self, now: TimeMs, at: TimeMs, kind: EventKind) {
        debug_assert!(at >= now, "event scheduled in the past");
        let event = Event {
            at,
            seq: self.next_seq(),
            kind,
        };
        if DeliveryWheel::accepts(now, at) {
            self.wheel.push(event);
        } else {
            self.heap.push(event);
        }
    }

    /// Arms `node`'s `timer` (of `incarnation`) to fire at `at`, clamped to
    /// `now`: the [`EventKind::Timer`] counterpart of [`Calendar::push`]
    /// that constant-delay arms take in O(1).
    pub(crate) fn arm_timer(
        &mut self,
        now: TimeMs,
        at: TimeMs,
        node: NodeId,
        incarnation: u64,
        timer: Timer,
    ) {
        let at = at.max(now);
        let lane = self
            .lanes
            .iter()
            .position(|lane| now + lane.delay == at)
            .filter(|&i| self.lanes[i].queue.back().is_none_or(|back| back.at <= at));
        match lane {
            Some(i) => {
                let seq = self.next_seq();
                self.lanes[i].queue.push_back(LaneTimer {
                    at,
                    seq,
                    node,
                    incarnation,
                    timer,
                });
            }
            None => self.push(
                now,
                at,
                EventKind::Timer {
                    node,
                    incarnation,
                    timer,
                },
            ),
        }
    }

    /// The `(time, seq)`-least pending event across every store. Each
    /// store is FIFO or ordered in `(time, seq)`, so comparing their
    /// fronts suffices.
    pub(crate) fn peek(&mut self) -> Option<Head> {
        let mut best = self.heap.peek().map(|e| Head {
            at: e.at,
            seq: e.seq,
            slot: Slot::Heap,
        });
        let mut consider = |at: TimeMs, seq: u64, slot: Slot| {
            if best.is_none_or(|b| (at, seq) < (b.at, b.seq)) {
                best = Some(Head { at, seq, slot });
            }
        };
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(front) = lane.queue.front() {
                consider(front.at, front.seq, Slot::Lane(i));
            }
        }
        if let Some((at, seq)) = self.wheel.peek() {
            consider(at, seq, Slot::Wheel);
        }
        best
    }

    /// Describes the `head` event without popping it.
    pub(crate) fn view(&self, head: Head) -> HeadView {
        match head.slot {
            Slot::Heap => HeadView::of(&self.heap.peek().expect("peeked").kind),
            Slot::Lane(i) => {
                let front = self.lanes[i].queue.front().expect("peeked");
                HeadView::Timer {
                    node: front.node,
                    incarnation: front.incarnation,
                }
            }
            Slot::Wheel => HeadView::of(&self.wheel.front().expect("peeked").kind),
        }
    }

    /// Removes the `head` event; returns its time and kind.
    pub(crate) fn pop(&mut self, head: Head) -> (TimeMs, EventKind) {
        let (at, seq, kind) = match head.slot {
            Slot::Heap => {
                let event = self.heap.pop().expect("peeked");
                self.stats.heap_pops += 1;
                (event.at, event.seq, event.kind)
            }
            Slot::Lane(i) => {
                let t = self.lanes[i].queue.pop_front().expect("peeked");
                self.stats.lane_pops += 1;
                let kind = EventKind::Timer {
                    node: t.node,
                    incarnation: t.incarnation,
                    timer: t.timer,
                };
                (t.at, t.seq, kind)
            }
            Slot::Wheel => {
                let event = self.wheel.pop().expect("peeked");
                self.stats.wheel_pops += 1;
                (event.at, event.seq, event.kind)
            }
        };
        debug_assert_eq!((at, seq), (head.at, head.seq), "stale calendar head");
        (at, kind)
    }

    /// Counts one dead `Expire` timer discarded without its handler.
    pub(crate) fn note_expire_skip(&mut self) {
        self.stats.expire_skips += 1;
    }

    /// Traffic counters so far.
    pub(crate) fn stats(&self) -> CalendarStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;

    use proptest::prelude::*;

    use super::*;

    /// Lane delays for the model runs: one inside the wheel span, two
    /// beyond it (like the ping timeout vs the protocol periods).
    const LANES: [DurMs; 3] = [300, 1_500, 4_000];

    /// One scheduling or popping step. Every scheduled event carries its
    /// sequence number as a tag, so pops can be matched against the model.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Moves the clock forward, never past the earliest pending event
        /// (as `run_until` or a replayed batch item does).
        Advance(u64),
        /// `push` at `now + delay`: same-instant, in-span and beyond-span.
        Push(u64),
        /// `arm_timer` at a lane delay (index < 3) or an odd delay.
        Arm(usize, u64),
        /// `arm_timer` at a deadline already in the past (clamped).
        ArmPast(u64),
        /// `arm_timer` at a beyond-span lane delay, decided at a lagging
        /// instant — outside the engine's contract, but the lane's back
        /// may now be later than this deadline, and the lane must refuse
        /// it (to the heap) rather than reorder.
        LateArm(usize, u64),
        /// A frozen node's timer re-queued at a thaw time through `push`.
        Requeue(u64),
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, 0u64..3 * WHEEL_SPAN, 0usize..4).prop_map(|(which, delay, lane)| match which {
            0 => Op::Advance(delay),
            1 => Op::Push(delay % 4), // same-instant heavy
            2 => Op::Push(delay),
            3 => Op::Arm(lane, delay),
            4 => Op::ArmPast(delay),
            5 => Op::LateArm(1 + lane % 2, delay),
            6 => Op::Requeue(delay),
            _ => Op::Pop,
        })
    }

    fn timer_kind(tag: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId::from_index(tag as u32),
            incarnation: tag,
            timer: Timer::Protocol,
        }
    }

    fn tag_of(kind: &EventKind) -> u64 {
        match *kind {
            EventKind::AppWake { token } => token,
            EventKind::Timer { incarnation, .. } => incarnation,
            ref other => panic!("unexpected kind {other:?}"),
        }
    }

    /// Pops the calendar head and checks it against the model's.
    fn pop_matches(
        calendar: &mut Calendar,
        model: &mut BinaryHeap<Reverse<(TimeMs, u64, bool)>>,
    ) -> Result<TimeMs, TestCaseError> {
        let Reverse((at, seq, is_timer)) = model.pop().expect("model non-empty");
        let head = calendar.peek().expect("calendar holds the model's events");
        prop_assert_eq!(head.at, at);
        let view = calendar.view(head);
        prop_assert_eq!(
            matches!(view, HeadView::Timer { .. }),
            is_timer,
            "{:?}",
            view
        );
        let (popped_at, kind) = calendar.pop(head);
        prop_assert_eq!((popped_at, tag_of(&kind)), (at, seq));
        Ok(at)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Any interleaving of pushes, timer arms (lane, odd-delay,
        /// clamped and lane-refused) and thaw requeues pops in exactly
        /// the `(time, seq)` order of a single binary heap — the order the
        /// engine's reports depend on, whichever store holds each event.
        #[test]
        fn pops_follow_a_single_heap_in_time_seq_order(
            initial in prop::collection::vec(0u64..5 * WHEEL_SPAN, 0..24),
            ops in prop::collection::vec(op(), 1..240),
        ) {
            let mut calendar = Calendar::new(
                &LANES,
                initial
                    .iter()
                    .enumerate()
                    .map(|(i, &at)| (at, EventKind::AppWake { token: i as u64 })),
            );
            let mut model: BinaryHeap<Reverse<(TimeMs, u64, bool)>> = initial
                .iter()
                .enumerate()
                .map(|(i, &at)| Reverse((at, i as u64, false)))
                .collect();
            let mut seq = initial.len() as u64;
            let mut now: TimeMs = 0;
            let mut pops = 0u64;
            for op in ops {
                let tag = seq;
                let scheduled = match op {
                    Op::Advance(d) => {
                        let earliest = model.peek().map_or(TimeMs::MAX, |r| r.0 .0);
                        now = (now + d).min(earliest);
                        None
                    }
                    Op::Push(d) => {
                        calendar.push(now, now + d, EventKind::AppWake { token: tag });
                        Some((now + d, false))
                    }
                    Op::Arm(lane, d) => {
                        let at = now + LANES.get(lane).copied().unwrap_or(d);
                        calendar.arm_timer(now, at, NodeId::from_index(tag as u32), tag, Timer::Protocol);
                        Some((at, true))
                    }
                    Op::ArmPast(d) => {
                        let at = now.saturating_sub(d);
                        calendar.arm_timer(now, at, NodeId::from_index(tag as u32), tag, Timer::Protocol);
                        Some((now, true))
                    }
                    Op::LateArm(lane, back) => {
                        let delay = LANES[lane];
                        let decided = now - back.min(now).min(delay);
                        calendar.arm_timer(
                            decided,
                            decided + delay,
                            NodeId::from_index(tag as u32),
                            tag,
                            Timer::Protocol,
                        );
                        Some((decided + delay, true))
                    }
                    Op::Requeue(d) => {
                        calendar.push(now, now + d, timer_kind(tag));
                        Some((now + d, true))
                    }
                    Op::Pop => {
                        if !model.is_empty() {
                            now = pop_matches(&mut calendar, &mut model)?;
                            pops += 1;
                        }
                        None
                    }
                };
                if let Some((at, is_timer)) = scheduled {
                    model.push(Reverse((at, tag, is_timer)));
                    seq += 1;
                }
            }
            while !model.is_empty() {
                pop_matches(&mut calendar, &mut model)?;
                pops += 1;
            }
            prop_assert!(calendar.peek().is_none());
            let stats = calendar.stats();
            prop_assert_eq!(stats.heap_pops + stats.lane_pops + stats.wheel_pops, pops);
        }
    }
}
