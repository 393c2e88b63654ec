//! Multi-process executors over a real wire transport.
//!
//! This subsystem turns the "cluster simulated within one process"
//! into a driver plus N genuine executor *subprocesses* connected by a
//! length-prefixed protocol over loopback TCP or Unix sockets. The
//! sealed zero-copy [`crate::Payload`] frames are the literal wire
//! format: a shuffle bucket or broadcast value travels byte-for-byte
//! as its sealed frame, and the receiving side rehydrates it with
//! [`crate::Payload::from_frame`].
//!
//! Division of labour (see DESIGN.md, "Transport architecture"):
//! executor subprocesses own the durable *data plane* of their node —
//! staged shuffle bucket frames, the broadcast cache, task lifecycle
//! counters — while task closures (arbitrary Rust functions, which
//! cannot cross a process boundary) execute on driver-side worker
//! threads acting as that node's core slots. Killing an executor is a
//! real `SIGKILL`: its staged blocks die with the process, so a later
//! fetch genuinely misses and drives the `FetchFailed` → map-stage
//! resubmission path against real process death.
//!
//! The in-process mode remains the default (and the only mode the
//! deterministic sim harness supports); select a wire transport with
//! [`crate::SparkConf::with_tcp_transport`] /
//! [`crate::SparkConf::with_unix_transport`].

pub mod executor;
pub mod manager;
pub mod segment;
pub mod wire;

pub use manager::{ExecutorManager, HeartbeatInfo};
pub use wire::WireMsg;

/// Which transport backs the executors of a [`crate::SparkContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// Executors are in-process thread pools and the shuffle manager
    /// is the network (the default; required for sim mode).
    #[default]
    InProcess,
    /// Executor subprocesses connected over loopback TCP.
    Tcp,
    /// Executor subprocesses connected over a Unix domain socket.
    Unix,
}
