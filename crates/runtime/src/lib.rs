//! # avmon-runtime — real-time drivers for AVMON nodes
//!
//! The same poll-based sans-io [`avmon::Node`] state machine that powers
//! the paper's discrete-event evaluation, mapped onto wall-clock time and
//! real transports:
//!
//! * thread-per-node clusters over an in-memory channel hub (with
//!   optional loss injection for failure testing), and
//! * real UDP sockets on localhost, where a [`avmon::NodeId`] *is* the
//!   socket address — the paper's `<IP, port>` identity model, literally.
//!
//! ## The driver loop
//!
//! Each node thread runs [`NodeDriver`], which is a thin instantiation of
//! the shared harness in [`avmon::driver`]: inputs (received datagrams,
//! due timers, control [`Command`]s) are fed into the node, and the node's
//! queued outputs are drained through the poll interface —
//! [`avmon::Node::poll_transmit`] encodes onto the [`Transport`],
//! [`avmon::Node::poll_timer`] arms the deterministic
//! [`avmon::driver::TimerQueue`], and [`avmon::Node::poll_event`] forwards
//! to the cluster's event channel. Snapshots ([`NodeSnapshot`]) publish
//! continuously to a shared board for observers.
//!
//! ```no_run
//! use avmon::Config;
//! use avmon_runtime::{Cluster, ClusterTransport};
//! use std::time::Duration;
//!
//! let config = Config::builder(16)
//!     .protocol_period(250)
//!     .monitoring_period(250)
//!     .ping_timeout(100)
//!     .build()?;
//! let cluster = Cluster::builder(config, 16)
//!     .transport(ClusterTransport::Udp)
//!     .spawn()?;
//! cluster.wait_for_discovery(1, Duration::from_secs(20));
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Driver authoring: hooking a custom transport into the harness
//!
//! To run AVMON over your own transport, implement [`Transport`] (three
//! methods: identity, best-effort send, timeout receive) and hand it to
//! [`NodeDriver`] — everything else (timers, encoding, broadcast fan-out,
//! snapshot publication, control commands) comes from the harness:
//!
//! ```no_run
//! use avmon::{Config, HashSelector, JoinKind, Node, NodeId};
//! use avmon_runtime::{NodeDriver, SnapshotBoard, Transport};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! /// A transport that carries datagrams over your medium of choice.
//! struct MyTransport { /* socket, queue, radio, … */ }
//!
//! impl Transport for MyTransport {
//!     fn local_id(&self) -> NodeId { NodeId::from_index(1) }
//!     fn send(&mut self, to: NodeId, bytes: &[u8]) { /* write */ }
//!     fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
//!         None // read one datagram, or None on timeout
//!     }
//! }
//!
//! let config = Config::builder(64).build()?;
//! let selector = Arc::new(HashSelector::from_config(&config));
//! let node = Node::new(NodeId::from_index(1), config, selector, 7);
//! let (_cmd_tx, cmd_rx) = std::sync::mpsc::channel();
//! let (event_tx, _event_rx) = std::sync::mpsc::channel();
//! let board = SnapshotBoard::default();
//! let driver = NodeDriver::new(
//!     node, MyTransport {}, cmd_rx, event_tx, board, Vec::new());
//! std::thread::spawn(move || driver.run(JoinKind::Fresh, None));
//! # Ok::<(), avmon::Error>(())
//! ```
//!
//! If your backend is not thread-shaped at all (an async reactor, a
//! select-loop over many nodes, a simulator), skip `NodeDriver` and build
//! directly on [`avmon::driver`]: implement `DriverEnv` for your executor
//! and call `drain` after every input — see that module's "Driver
//! authoring" section and the workspace's `sans_io_driver` example.

// Live-cluster crate: wall clocks and std maps are its job; the
// simulated determinism boundary (detlint + this lint pair) stops at
// the sim/core/churn/hash crates. Per-site detlint allows still apply.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod cluster;
pub mod driver;
mod sync;
pub mod transport;

pub use cluster::{Cluster, ClusterBuilder, ClusterTransport};
pub use driver::{Command, NodeDriver, NodeSnapshot, SnapshotBoard};
pub use transport::{MemoryHub, MemoryTransport, Transport, UdpTransport};
