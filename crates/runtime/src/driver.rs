//! The per-node event loop: maps the poll-based sans-io state machine onto
//! wall-clock time and a [`Transport`].
//!
//! Built entirely on the shared harness in [`avmon::driver`]: the
//! [`TimerQueue`] orders pending timers deterministically, [`drain`]
//! executes the node's queued outputs through this driver's [`DriverEnv`],
//! [`apply_command`] handles control-plane requests, and
//! [`NodeSnapshot::capture`] publishes observability state. The only code
//! that lives here is what is genuinely specific to this backend: encoding
//! outgoing messages onto the transport and blocking on its receive path.

use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use avmon::driver::{apply_command, drain, DriverEnv, TimerQueue};
use avmon::{bytes::BytesMut, codec, AppEvent, JoinKind, Node, NodeId, TimeMs, Timer, Transmit};

use crate::sync::write;
use crate::transport::Transport;

pub use avmon::driver::{Command, NodeSnapshot};

/// Shared registry of node snapshots, updated continuously by drivers.
pub type SnapshotBoard = Arc<RwLock<std::collections::HashMap<NodeId, NodeSnapshot>>>;

/// Runs one node's event loop until [`Command::Stop`] (or channel
/// disconnect). Designed to run on its own thread.
pub struct NodeDriver<T: Transport> {
    node: Node,
    env: TransportEnv<T>,
    epoch: Instant,
    commands: Receiver<Command>,
    board: SnapshotBoard,
}

/// The runtime's [`DriverEnv`]: transmits encode onto the transport
/// (broadcasts fan out over the directory), timers land in the shared
/// [`TimerQueue`], events go to the cluster's channel.
struct TransportEnv<T: Transport> {
    transport: T,
    timers: TimerQueue,
    events: Sender<(NodeId, AppEvent)>,
    directory: Vec<NodeId>,
    /// Reused encode buffer: `clear` + `encode_into` keeps the steady
    /// state allocation-free for messages under the retained capacity.
    encode_buf: BytesMut,
}

impl<T: Transport> DriverEnv for TransportEnv<T> {
    fn transmit(&mut self, from: NodeId, transmit: Transmit) {
        self.encode_buf.clear();
        codec::encode_into(&transmit.msg, &mut self.encode_buf);
        match transmit.unicast_to() {
            Some(to) => self.transport.send(to, &self.encode_buf),
            None => {
                for i in 0..self.directory.len() {
                    let to = self.directory[i];
                    if to != from {
                        self.transport.send(to, &self.encode_buf);
                    }
                }
            }
        }
    }

    fn arm_timer(&mut self, _node: NodeId, timer: Timer, at: TimeMs) {
        self.timers.arm(timer, at);
    }

    fn handle_event(&mut self, node: NodeId, event: AppEvent) {
        let _ = self.events.send((node, event));
    }
}

impl<T: Transport> NodeDriver<T> {
    /// Creates a driver.
    ///
    /// `directory` is the full member list used only to implement
    /// broadcast transmits (the Broadcast baseline); coarse-view
    /// deployments can pass an empty slice.
    pub fn new(
        node: Node,
        transport: T,
        commands: Receiver<Command>,
        events: Sender<(NodeId, AppEvent)>,
        board: SnapshotBoard,
        directory: Vec<NodeId>,
    ) -> Self {
        NodeDriver {
            node,
            env: TransportEnv {
                transport,
                timers: TimerQueue::new(),
                events,
                directory,
                encode_buf: BytesMut::with_capacity(2048),
            },
            epoch: Instant::now(), // detlint::allow(banned-clock): live UDP node; wall time IS its TimeMs epoch
            commands,
            board,
        }
    }

    fn now(&self) -> TimeMs {
        self.epoch.elapsed().as_millis() as TimeMs
    }

    /// Joins the overlay through `contact` and runs until stopped.
    pub fn run(mut self, kind: JoinKind, contact: Option<NodeId>) {
        let now = self.now();
        self.node.start(now, kind, contact);
        drain(&mut self.node, &mut self.env);
        self.publish();

        // detlint::allow(banned-clock): live-cluster publish cadence, outside the sim boundary
        let mut last_publish = Instant::now();
        loop {
            match self.commands.try_recv() {
                Ok(Command::Stop) | Err(TryRecvError::Disconnected) => break,
                Ok(command) => {
                    let now = self.now();
                    if !apply_command(&mut self.node, now, command) {
                        break;
                    }
                    drain(&mut self.node, &mut self.env);
                }
                Err(TryRecvError::Empty) => {}
            }

            // Fire due timers. The liveness filter applies the lazy-expiry
            // contract on `Timer::Expire`: expiries of already-answered
            // pings die in the queue without a node round-trip.
            let now = self.now();
            loop {
                let node = &self.node;
                let Some(timer) = self
                    .env
                    .timers
                    .pop_due_where(now, |t| node.timer_live(*t, now))
                else {
                    break;
                };
                self.node.handle_timer(self.now(), timer);
                drain(&mut self.node, &mut self.env);
            }

            // Wait for traffic until the next timer (capped so commands and
            // snapshot publishing stay responsive).
            let wait = self
                .env
                .timers
                .next_deadline()
                .map_or(50, |at| at.saturating_sub(self.now()).min(50));
            if let Some((from, bytes)) = self
                .env
                .transport
                .recv_timeout(Duration::from_millis(wait.max(1)))
            {
                match codec::decode(&bytes) {
                    Ok(msg) => {
                        let now = self.now();
                        self.node.handle_message(now, from, msg);
                        drain(&mut self.node, &mut self.env);
                    }
                    Err(_) => { /* garbage datagram: ignore */ }
                }
            }

            if last_publish.elapsed() >= Duration::from_millis(100) {
                self.publish();
                last_publish = Instant::now(); // detlint::allow(banned-clock): live-cluster cadence
            }
        }
        self.publish();
    }

    fn publish(&self) {
        let snapshot = NodeSnapshot::capture(&self.node);
        write(&self.board).insert(self.node.id(), snapshot);
    }
}
