//! Driver-side executor management: subprocess lifecycle and the
//! request/reply client over the wire protocol.
//!
//! The [`ExecutorManager`] spawns one `sparklet-executor` subprocess
//! per node, accepts their connections on a loopback TCP listener (or
//! a Unix socket), and multiplexes the driver's data-plane traffic to
//! them: shuffle bucket staging and fetch, broadcast distribution,
//! and heartbeats. Every byte in either
//! direction is counted per node — these are the measured wire-byte
//! counters that feed the cluster model's transfer terms.
//!
//! Over TCP a frame travels inline, as the tail of its message. Over a
//! Unix socket the driver and the executors share a host, so a frame
//! crosses as a segment file instead ([`super::segment`]): a put writes
//! it once into the owning node's directory and sends `(seq, len)`, and
//! a fetch reads the file the executor's reply names. The wire-byte
//! counters count the segment bytes with the socket bytes, so they
//! measure what crossed to and from the executors either way. The
//! manager owns the segment tree: it resets a killed executor's
//! directory before the replacement starts and removes the tree at
//! shutdown.
//!
//! All traffic to one executor is serialized under that node's mutex,
//! and the protocol pairs each request with exactly one reply (fire-
//! and-forget removals and releases have none), so the stream never
//! desynchronizes. Killing an executor ([`ExecutorManager::kill_respawn`])
//! is a real `SIGKILL`: the child is reaped, a replacement is spawned
//! and handshaken, and whatever the dead process held is genuinely
//! gone — a later fetch for its blocks misses for real.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use par_pool::Mutex;

use super::segment;
use super::wire::{decode, decode_handshake, encode, WireMsg, PROTOCOL};
use super::TransportMode;
use crate::error::JobError;
use crate::payload::Payload;
use crate::wire::{read_frame, write_frame, Addr, Conn, Listener};

/// How long the driver waits for executor connections/handshakes.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(20);

/// One live executor subprocess and its connection.
struct Worker {
    child: Child,
    conn: Box<dyn Conn>,
}

/// Per-node slot: `None` once the manager has shut the executor down.
struct Slot {
    worker: Option<Worker>,
}

/// The segment tree of a Unix-transport manager: one directory per
/// node under `<socket path>.seg`. Dropping it removes the tree.
struct Segments {
    root: PathBuf,
    nodes: Vec<PathBuf>,
}

impl Segments {
    fn create(socket: &Path, executors: usize) -> Result<Self, JobError> {
        let root = segment::root(socket);
        let nodes = (0..executors as u64)
            .map(|node| segment::node_dir(&root, node))
            .collect();
        let tree = Segments { root, nodes };
        for dir in &tree.nodes {
            std::fs::create_dir_all(dir).map_err(|e| {
                JobError::Transport(format!("create segment directory {}: {e}", dir.display()))
            })?;
        }
        Ok(tree)
    }

    /// Empty `node`'s directory: whatever its executor held is gone.
    fn reset(&self, node: usize) {
        let dir = &self.nodes[node];
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::create_dir_all(dir);
    }

    fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

impl Drop for Segments {
    fn drop(&mut self) {
        self.remove();
    }
}

/// Driver-side manager of N executor subprocesses.
pub struct ExecutorManager {
    mode: TransportMode,
    listener: Mutex<Listener>,
    slots: Vec<Mutex<Slot>>,
    /// The per-node segment directories (Unix transport only).
    segments: Option<Segments>,
    /// The next segment number: unique over the manager's lifetime, so
    /// no two puts, two attempts writing one slot included, share a file.
    next_seq: AtomicU64,
    /// Bytes sent to each executor over its connection's lifetime
    /// (survives respawn — it counts the node, not the process).
    tx_bytes: Vec<AtomicU64>,
    /// Bytes received from each executor.
    rx_bytes: Vec<AtomicU64>,
    /// SIGKILL + respawn cycles taken.
    respawns: AtomicU64,
    /// Set once an orderly shutdown has reaped every child.
    done: Mutex<bool>,
}

impl std::fmt::Debug for ExecutorManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorManager")
            .field("mode", &self.mode)
            .field("executors", &self.slots.len())
            .field("respawns", &self.respawns.load(Ordering::Relaxed))
            .finish()
    }
}

/// Locate the `sparklet-executor` binary: the `SPARKLET_EXECUTOR_BIN`
/// env var wins; otherwise walk up from the current executable (a test
/// binary lives in `target/<profile>/deps/`, the executor next to it
/// in `target/<profile>/`).
fn executor_binary() -> Result<PathBuf, JobError> {
    if let Ok(p) = std::env::var("SPARKLET_EXECUTOR_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(JobError::Transport(format!(
            "SPARKLET_EXECUTOR_BIN points at {}, which does not exist",
            p.display()
        )));
    }
    let exe = std::env::current_exe()
        .map_err(|e| JobError::Transport(format!("cannot locate current executable: {e}")))?;
    for dir in exe.ancestors().skip(1) {
        let cand = dir.join("sparklet-executor");
        if cand.is_file() {
            return Ok(cand);
        }
    }
    Err(JobError::Transport(
        "sparklet-executor binary not found near the current executable; \
         build it with `cargo build -p sparklet` (a workspace `cargo test` \
         does this automatically) or set SPARKLET_EXECUTOR_BIN"
            .into(),
    ))
}

/// Unique-per-call Unix socket path under the system temp dir.
fn unix_socket_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sparklet-{}-{}.sock", std::process::id(), seq))
}

impl ExecutorManager {
    /// Spawn `executors` subprocesses and handshake each one. The
    /// returned manager owns the children; dropping it (or calling
    /// [`ExecutorManager::shutdown`]) reaps them all.
    pub fn launch(mode: TransportMode, executors: usize) -> Result<Self, JobError> {
        assert!(executors >= 1);
        assert!(
            mode != TransportMode::InProcess,
            "InProcess mode has no executor subprocesses"
        );
        let bind = match mode {
            TransportMode::Tcp => Addr::Tcp("127.0.0.1:0".into()),
            TransportMode::Unix => Addr::Unix(unix_socket_path()),
            TransportMode::InProcess => unreachable!(),
        };
        let listener =
            Listener::bind(&bind).map_err(|e| JobError::Transport(format!("bind {bind}: {e}")))?;
        let bin = executor_binary()?;
        let segments = match &bind {
            Addr::Unix(socket) => Some(Segments::create(socket, executors)?),
            Addr::Tcp(_) => None,
        };
        let mut children: Vec<Option<Child>> = Vec::with_capacity(executors);
        for node in 0..executors {
            children.push(Some(spawn_executor(&bin, listener.addr(), node)?));
        }
        // Accept and handshake every child; `Hello{node}` tells us
        // which slot each connection belongs to.
        let mut workers: Vec<Option<Worker>> = (0..executors).map(|_| None).collect();
        for _ in 0..executors {
            let (node, conn) = accept_handshake(&listener, &mut children, &bin)?;
            if node >= executors || workers[node].is_some() {
                return Err(JobError::Transport(format!(
                    "executor handshake for unexpected node {node}"
                )));
            }
            let child = children[node]
                .take()
                .expect("child pending for handshaken node");
            workers[node] = Some(Worker { child, conn });
        }
        Ok(ExecutorManager {
            mode,
            listener: Mutex::new(listener),
            slots: workers
                .into_iter()
                .map(|w| Mutex::new(Slot { worker: w }))
                .collect(),
            segments,
            next_seq: AtomicU64::new(0),
            tx_bytes: (0..executors).map(|_| AtomicU64::new(0)).collect(),
            rx_bytes: (0..executors).map(|_| AtomicU64::new(0)).collect(),
            respawns: AtomicU64::new(0),
            done: Mutex::new(false),
        })
    }

    /// The transport this manager runs on.
    pub fn mode(&self) -> TransportMode {
        self.mode
    }

    /// Number of executor subprocesses.
    pub fn executors(&self) -> usize {
        self.slots.len()
    }

    /// The directory `node`'s executor keeps its segment files in
    /// (`None` over TCP, where frames travel inline).
    pub(crate) fn segment_dir(&self, node: usize) -> Option<&Path> {
        self.segments.as_ref().map(|s| s.nodes[node].as_path())
    }

    /// Measured `(sent, received)` wire bytes exchanged with `node`
    /// over the manager's lifetime (counted across respawns): socket
    /// bytes plus the bytes of the segment files put and fetched.
    pub fn wire_bytes(&self, node: usize) -> (u64, u64) {
        (
            self.tx_bytes[node].load(Ordering::Relaxed),
            self.rx_bytes[node].load(Ordering::Relaxed),
        )
    }

    /// Measured `(sent, received)` wire bytes summed over all nodes.
    pub fn total_wire_bytes(&self) -> (u64, u64) {
        let tx = self
            .tx_bytes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        let rx = self
            .rx_bytes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        (tx, rx)
    }

    /// SIGKILL + respawn cycles taken so far.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// OS pid of `node`'s current executor subprocess (`None` after
    /// shutdown). Tests use this to kill an executor *behind the
    /// driver's back* and assert the audit notices.
    pub fn executor_pid(&self, node: usize) -> Option<u32> {
        self.slots[node]
            .lock()
            .worker
            .as_ref()
            .map(|w| w.child.id())
    }

    /// Occupy `node`'s slot the way an exchange in flight does: every
    /// message to that executor queues behind the returned guard.
    #[cfg(test)]
    pub(crate) fn hold_slot(&self, node: usize) -> impl Sized + '_ {
        self.slots[node].lock()
    }

    /// One request/reply (or fire-and-forget when `expect_reply` is
    /// false) under the node's slot lock. Returns the reply (if any)
    /// with the measured `(sent, received)` bytes of this exchange.
    fn exchange(
        &self,
        node: usize,
        msg: &WireMsg,
        expect_reply: bool,
    ) -> Result<(Option<WireMsg>, u64, u64), JobError> {
        self.exchange_on(&mut self.slots[node].lock(), node, msg, expect_reply)
    }

    /// [`ExecutorManager::exchange`] on a slot the caller holds.
    fn exchange_on(
        &self,
        slot: &mut Slot,
        node: usize,
        msg: &WireMsg,
        expect_reply: bool,
    ) -> Result<(Option<WireMsg>, u64, u64), JobError> {
        let worker = slot
            .worker
            .as_mut()
            .ok_or_else(|| JobError::Transport(format!("executor {node} is shut down")))?;
        let sent = write_frame(&mut worker.conn, &encode(msg))
            .map_err(|e| JobError::Transport(format!("send to executor {node}: {e}")))?;
        self.tx_bytes[node].fetch_add(sent, Ordering::Relaxed);
        if !expect_reply {
            return Ok((None, sent, 0));
        }
        let (reply, got) = read_frame(&mut worker.conn, decode)
            .map_err(|e| JobError::Transport(format!("reply from executor {node}: {e}")))?;
        self.rx_bytes[node].fetch_add(got, Ordering::Relaxed);
        Ok((Some(reply), sent, got))
    }

    /// Put `frame` on `node`'s executor: inline, as the message
    /// `inline` builds, over TCP; over a Unix socket written to a new
    /// segment of the node's directory first, and named by the message
    /// `at(seq, len)` builds. Returns the bytes moved, socket and
    /// segment. A put that is not acknowledged leaves no segment.
    fn put(
        &self,
        node: usize,
        frame: Bytes,
        inline: impl FnOnce(Bytes) -> WireMsg,
        at: impl FnOnce(u64, u64) -> WireMsg,
        what: &str,
    ) -> Result<u64, JobError> {
        let (msg, written) = match &self.segments {
            None => (inline(frame), None),
            Some(segments) => {
                let dir = segments.nodes[node].as_path();
                let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                let len = frame.len() as u64;
                segment::write(dir, seq, &frame)?;
                (at(seq, len), Some((dir, seq, len)))
            }
        };
        let outcome = match self.exchange(node, &msg, true) {
            Ok((Some(WireMsg::Ack), sent, _)) => Ok(sent),
            Ok((other, _, _)) => Err(JobError::Transport(format!(
                "executor {node} refused {what}: {other:?}"
            ))),
            Err(e) => Err(e),
        };
        match (outcome, written) {
            (Ok(sent), Some((_, _, len))) => {
                self.tx_bytes[node].fetch_add(len, Ordering::Relaxed);
                Ok(sent + len)
            }
            (Err(e), Some((dir, seq, _))) => {
                segment::remove(dir, seq);
                Err(e)
            }
            (outcome, None) => outcome,
        }
    }

    /// Send a get to `node`'s executor and take the frame it answers
    /// with: inline, or read from the segment its reply names. `Ok(None)`
    /// is a miss. The segment is opened before the slot is released,
    /// while no message can make the executor unlink it, and read after.
    fn get(
        &self,
        node: usize,
        msg: &WireMsg,
        what: &str,
    ) -> Result<Option<(Payload, u64)>, JobError> {
        let mut slot = self.slots[node].lock();
        let (reply, _, got) = self.exchange_on(&mut slot, node, msg, true)?;
        let (frame, wire) = match (reply, self.segment_dir(node)) {
            (Some(WireMsg::Block { frame: Some(frame) }), _) => (frame, got),
            (Some(WireMsg::Block { frame: None }), _) => return Ok(None),
            (Some(WireMsg::BlockAt { seq, len }), Some(dir)) => {
                let file = segment::open(dir, seq, len)?;
                drop(slot);
                let frame = segment::read(file, len)?;
                self.rx_bytes[node].fetch_add(len, Ordering::Relaxed);
                (frame, got + len)
            }
            (other, _) => {
                return Err(JobError::Transport(format!(
                    "executor {node} answered {what} with {other:?}"
                )))
            }
        };
        Ok(Some((Payload::from_frame(frame)?, wire)))
    }

    /// Stage a bucket frame on `node`'s executor. Returns the bytes
    /// moved (socket plus segment). Failure means the bucket is *not*
    /// staged remotely — the caller must not record it as shipped.
    pub fn put_block(
        &self,
        node: usize,
        shuffle: u64,
        map_task: u64,
        reduce: u64,
        frame: Bytes,
    ) -> Result<u64, JobError> {
        self.put(
            node,
            frame,
            |frame| WireMsg::ShufflePut {
                shuffle,
                map_task,
                reduce,
                frame,
            },
            |seq, len| WireMsg::ShufflePutAt {
                shuffle,
                map_task,
                reduce,
                seq,
                len,
            },
            "shuffle put",
        )
    }

    /// Fetch a bucket frame from `node`'s executor. `Ok(None)` means
    /// the executor holds no such block (it restarted and lost it);
    /// `Ok(Some((payload, wire)))` carries the rehydrated payload and
    /// the measured bytes it took to move it.
    pub fn fetch_block(
        &self,
        node: usize,
        shuffle: u64,
        map_task: u64,
        reduce: u64,
    ) -> Result<Option<(Payload, u64)>, JobError> {
        let msg = WireMsg::ShuffleGet {
            shuffle,
            map_task,
            reduce,
        };
        self.get(node, &msg, "a fetch")
    }

    /// Drop one stranded bucket copy on `node` (fire-and-forget;
    /// errors ignored — a dead executor holds nothing anyway).
    pub fn remove_block(&self, node: usize, shuffle: u64, map_task: u64, reduce: u64) {
        let _ = self.exchange(
            node,
            &WireMsg::ShuffleRemove {
                shuffle,
                map_task,
                reduce,
            },
            false,
        );
    }

    /// Propagate a per-shuffle release to every executor.
    pub fn shuffle_release(&self, shuffle: u64) {
        for node in 0..self.slots.len() {
            let _ = self.exchange(node, &WireMsg::ShuffleRelease { shuffle }, false);
        }
    }

    /// Push a broadcast frame to `node`'s executor. Returns the bytes
    /// moved (socket plus segment).
    pub fn broadcast_put(&self, node: usize, id: u64, frame: Bytes) -> Result<u64, JobError> {
        self.put(
            node,
            frame,
            |frame| WireMsg::BroadcastPut { id, frame },
            |seq, len| WireMsg::BroadcastPutAt { id, seq, len },
            "broadcast put",
        )
    }

    /// Fetch a broadcast frame from `node`'s executor. `Ok(None)` when
    /// the executor does not hold it (e.g. it was respawned).
    pub fn broadcast_get(&self, node: usize, id: u64) -> Result<Option<(Payload, u64)>, JobError> {
        self.get(node, &WireMsg::BroadcastGet { id }, "a broadcast get")
    }

    /// Drop a broadcast on every executor (fire-and-forget).
    pub fn broadcast_remove(&self, id: u64) {
        for node in 0..self.slots.len() {
            let _ = self.exchange(node, &WireMsg::BroadcastRemove { id }, false);
        }
    }

    /// Probe `node`'s executor for liveness. Returns the number of
    /// shuffle buckets it reports holding.
    pub fn heartbeat(&self, node: usize, seq: u64) -> Result<u64, JobError> {
        match self.exchange(node, &WireMsg::Heartbeat { seq }, true)?.0 {
            Some(WireMsg::HeartbeatAck { seq: got, buckets }) if got == seq => Ok(buckets),
            other => Err(JobError::Transport(format!(
                "executor {node} answered heartbeat {seq} with {other:?}"
            ))),
        }
    }

    /// SIGKILL `node`'s executor, reap it, and spawn + handshake a
    /// replacement. The new process starts empty: every block the dead
    /// one held is genuinely unfetchable afterwards. Returns the
    /// signal-death status description of the killed process.
    pub fn kill_respawn(&self, node: usize) -> Result<String, JobError> {
        let mut slot = self.slots[node].lock();
        let worker = slot
            .worker
            .as_mut()
            .ok_or_else(|| JobError::Transport(format!("executor {node} is shut down")))?;
        worker
            .child
            .kill()
            .map_err(|e| JobError::Transport(format!("SIGKILL executor {node}: {e}")))?;
        let status = worker
            .child
            .wait()
            .map_err(|e| JobError::Transport(format!("reap executor {node}: {e}")))?;
        // Its segments died with it: the replacement starts empty, on
        // disk as in memory.
        if let Some(segments) = &self.segments {
            segments.reset(node);
        }
        // Replace the dead worker before releasing the slot lock so a
        // concurrent put/fetch blocks until the respawn completes
        // instead of hitting a dead socket.
        let listener = self.listener.lock();
        let bin = executor_binary()?;
        let mut pending = vec![Some(spawn_executor(&bin, listener.addr(), node)?)];
        let (hello_node, conn) = accept_handshake(&listener, &mut pending, &bin)?;
        if hello_node != node {
            return Err(JobError::Transport(format!(
                "respawned executor said node {hello_node}, expected {node}"
            )));
        }
        let child = pending[0].take().expect("respawned child");
        slot.worker = Some(Worker { child, conn });
        self.respawns.fetch_add(1, Ordering::Relaxed);
        Ok(format!("{status}"))
    }

    /// Forget `node`'s reaped executor, and the segments it held.
    fn bury(&self, slot: &mut Slot, node: usize) {
        slot.worker = None;
        if let Some(segments) = &self.segments {
            segments.reset(node);
        }
    }

    /// Verify every executor subprocess is alive and, when
    /// `expected_buckets` is given, that each one's self-reported
    /// bucket count matches the driver's ledger for that node. An
    /// executor that died behind the driver's back is reaped here and
    /// reported (no zombie survives an audit).
    pub fn audit(&self, expected_buckets: Option<&[u64]>) -> Result<(), String> {
        if *self.done.lock() {
            return Ok(());
        }
        for node in 0..self.slots.len() {
            {
                let mut slot = self.slots[node].lock();
                let Some(worker) = slot.worker.as_mut() else {
                    return Err(format!("executor {node} shut down mid-run"));
                };
                match worker.child.try_wait() {
                    Ok(None) => {}
                    Ok(Some(status)) => {
                        // Reaped just now — record the unexpected death.
                        self.bury(&mut slot, node);
                        return Err(format!("executor {node} died unexpectedly ({status})"));
                    }
                    Err(e) => return Err(format!("poll executor {node}: {e}")),
                }
            }
            let buckets = match self.heartbeat(node, 0xA0D17 + node as u64) {
                Ok(buckets) => buckets,
                Err(e) => {
                    // A killed executor's socket dies before its exit
                    // status becomes observable; give the corpse a
                    // moment to land so this audit reaps it instead of
                    // leaving it as a zombie for shutdown.
                    let deadline = Instant::now() + Duration::from_millis(500);
                    loop {
                        let mut slot = self.slots[node].lock();
                        if let Some(worker) = slot.worker.as_mut() {
                            if let Ok(Some(status)) = worker.child.try_wait() {
                                self.bury(&mut slot, node);
                                return Err(format!(
                                    "executor {node} died unexpectedly ({status})"
                                ));
                            }
                        }
                        drop(slot);
                        if Instant::now() >= deadline {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    return Err(format!("audit heartbeat: {e}"));
                }
            };
            if let Some(expected) = expected_buckets {
                if buckets != expected[node] {
                    return Err(format!(
                        "executor {node} holds {buckets} buckets, driver ledger says {}",
                        expected[node]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Orderly shutdown: `Shutdown` → `ShutdownAck` → reap, per
    /// executor; a child that ignores the protocol is killed. Returns
    /// each child's exit code (0 = clean; killed children report -1).
    /// Idempotent — the second call returns an empty list.
    pub fn shutdown(&self) -> Result<Vec<i32>, String> {
        let mut done = self.done.lock();
        if *done {
            return Ok(Vec::new());
        }
        *done = true;
        let mut codes = Vec::with_capacity(self.slots.len());
        for (node, slot) in self.slots.iter().enumerate() {
            let mut slot = slot.lock();
            let Some(mut worker) = slot.worker.take() else {
                continue;
            };
            let tx = write_frame(&mut worker.conn, &encode(&WireMsg::Shutdown));
            if let Ok(sent) = tx {
                self.tx_bytes[node].fetch_add(sent, Ordering::Relaxed);
                if let Ok((reply, got)) = read_frame(&mut worker.conn, decode) {
                    self.rx_bytes[node].fetch_add(got, Ordering::Relaxed);
                    debug_assert_eq!(reply, WireMsg::ShutdownAck);
                }
            }
            // The ack (or a failed send) precedes exit; wait() reaps.
            // An executor that wedges anyway is killed so shutdown
            // always returns with zero children left.
            let status = match worker.child.wait() {
                Ok(s) => s,
                Err(e) => return Err(format!("reap executor {node}: {e}")),
            };
            codes.push(status.code().unwrap_or(-1));
        }
        if let Some(segments) = &self.segments {
            segments.remove();
        }
        Ok(codes)
    }
}

impl Drop for ExecutorManager {
    fn drop(&mut self) {
        // Best-effort: never leave orphans or zombies behind, even when
        // the owner forgot an explicit shutdown.
        let _ = self.shutdown();
    }
}

fn spawn_executor(bin: &std::path::Path, addr: &Addr, node: usize) -> Result<Child, JobError> {
    Command::new(bin)
        .env("SPARKLET_NODE", node.to_string())
        .env("SPARKLET_CONNECT", addr.to_string())
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| JobError::Transport(format!("spawn executor {node} ({}): {e}", bin.display())))
}

/// Accept one connection and run the driver side of the handshake.
/// Polls non-blockingly so a child that died before connecting is
/// detected (and reaped) instead of hanging the accept forever. An
/// executor of another [`PROTOCOL`] (`bin` built from other sources)
/// is refused here, before any other message crosses.
fn accept_handshake(
    listener: &Listener,
    children: &mut [Option<Child>],
    bin: &Path,
) -> Result<(usize, Box<dyn Conn>), JobError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| JobError::Transport(format!("listener nonblocking: {e}")))?;
    let deadline = Instant::now() + ACCEPT_TIMEOUT;
    let mut conn = loop {
        match listener.accept() {
            Ok(conn) => break conn,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let mut dead = None;
                for (node, child) in children.iter_mut().enumerate() {
                    if let Some(c) = child.as_mut() {
                        if let Ok(Some(status)) = c.try_wait() {
                            dead = Some((node, status));
                            break;
                        }
                    }
                }
                if let Some((node, status)) = dead {
                    let _ = listener.set_nonblocking(false);
                    children[node] = None; // already reaped by try_wait
                    return Err(JobError::Transport(format!(
                        "executor {node} exited before connecting ({status})"
                    )));
                }
                if Instant::now() >= deadline {
                    let _ = listener.set_nonblocking(false);
                    return Err(JobError::Transport(
                        "timed out waiting for executor connections".into(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                let _ = listener.set_nonblocking(false);
                return Err(JobError::Transport(format!("accept executor: {e}")));
            }
        }
    };
    listener
        .set_nonblocking(false)
        .map_err(|e| JobError::Transport(format!("listener nonblocking: {e}")))?;
    let (hello, _) = read_frame(&mut conn, decode_handshake)
        .map_err(|e| JobError::Transport(format!("executor handshake read: {e}")))?;
    let node = match hello {
        WireMsg::Hello {
            node,
            protocol: PROTOCOL,
        } => node,
        WireMsg::Hello { protocol, .. } => {
            return Err(JobError::Transport(format!(
                "executor binary {} speaks wire protocol {protocol}, this driver speaks \
                 {PROTOCOL}: rebuild it (`cargo build -p sparklet --bins`)",
                bin.display()
            )))
        }
        other => {
            return Err(JobError::Transport(format!(
                "expected Hello, got {other:?}"
            )))
        }
    };
    let ack = WireMsg::HelloAck {
        node,
        protocol: PROTOCOL,
    };
    write_frame(&mut conn, &encode(&ack))
        .map_err(|e| JobError::Transport(format!("executor handshake ack: {e}")))?;
    Ok((node as usize, conn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Compression;

    #[test]
    fn handshake_refuses_an_unversioned_executor_by_path_and_versions() {
        // A stale executor greets with the one-word `Hello` of the
        // unversioned protocol: refused typed at the handshake, naming
        // the binary and both versions, and never acknowledged.
        let listener = Listener::bind(&Addr::Unix(unix_socket_path())).unwrap();
        let addr = listener.addr().clone();
        let stale = std::thread::spawn(move || {
            let mut conn = crate::wire::dial(&addr).unwrap();
            let mut hello = vec![1u8];
            hello.extend_from_slice(&3u64.to_le_bytes());
            write_frame(&mut conn, &hello.into()).unwrap();
            read_frame(&mut conn, decode).map(|(msg, _)| msg)
        });
        let bin = Path::new("/stale/sparklet-executor");
        let err = accept_handshake(&listener, &mut [], bin)
            .err()
            .expect("refused");
        let JobError::Transport(msg) = &err else {
            panic!("untyped refusal: {err:?}");
        };
        let want = format!(
            "{} speaks wire protocol 0, this driver speaks {PROTOCOL}",
            bin.display()
        );
        assert!(msg.contains(&want), "{msg}");
        let ack = stale.join().unwrap();
        assert!(ack.is_err(), "the stale executor got {ack:?}");
    }

    /// The one segment file in `dir`.
    fn only_file(dir: &Path) -> PathBuf {
        let files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1, "{files:?}");
        files.into_iter().next().unwrap()
    }

    #[test]
    fn segments_tampered_behind_the_executor_fail_fetches_typed() {
        let manager = ExecutorManager::launch(TransportMode::Unix, 1).expect("launch");
        let dir = manager
            .segment_dir(0)
            .expect("a Unix manager has segments")
            .to_path_buf();
        let frame = Payload::seal(Bytes::from(vec![7u8; 4096]), Compression::None).frame();
        let put = || manager.put_block(0, 1, 0, 0, frame.clone()).expect("put");
        let fetch = || manager.fetch_block(0, 1, 0, 0);

        // A clean round trip, counted socket plus segment bytes.
        let before = manager.wire_bytes(0);
        let sent = put();
        let (payload, got) = fetch().unwrap().expect("held");
        assert_eq!(payload.frame(), frame);
        let len = frame.len() as u64;
        assert!(sent > len && got > len, "the segment counts as moved bytes");
        // Plus the get's request (prefix, tag, three words) and the
        // put's `Ack` (prefix, tag).
        let (get, ack) = (4 + 1 + 24, 4 + 1);
        assert_eq!(
            manager.wire_bytes(0),
            (before.0 + sent + get, before.1 + got + ack)
        );

        let tamper = |f: &dyn Fn(&Path)| {
            put();
            f(&only_file(&dir));
            fetch()
        };
        let truncated = tamper(&|path| {
            let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            file.set_len(100).unwrap();
        });
        assert!(
            matches!(truncated, Err(JobError::Codec(_))),
            "{truncated:?}"
        );
        let grown = tamper(&|path| {
            let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
            std::io::Write::write_all(&mut file, b"more").unwrap();
        });
        assert!(matches!(grown, Err(JobError::Codec(_))), "{grown:?}");
        let garbage = tamper(&|path| {
            let mut bytes = std::fs::read(path).unwrap();
            bytes[0] = 0xff;
            std::fs::write(path, bytes).unwrap();
        });
        assert!(matches!(garbage, Err(JobError::Codec(_))), "{garbage:?}");
        let unlinked = tamper(&|path| std::fs::remove_file(path).unwrap());
        assert!(
            matches!(unlinked, Err(JobError::Transport(_))),
            "{unlinked:?}"
        );

        // None of it hurt the executor or the stream.
        manager.heartbeat(0, 1).expect("the executor still serves");
        put();
        assert_eq!(fetch().unwrap().expect("held").0.frame(), frame);
        manager.shutdown().expect("shutdown");
        assert!(!dir.exists(), "shutdown removes the segment tree");
    }

    #[test]
    fn a_respawned_executor_starts_with_an_empty_directory() {
        let manager = ExecutorManager::launch(TransportMode::Unix, 2).expect("launch");
        let frame = Payload::seal(Bytes::from_static(b"bucket"), Compression::None).frame();
        for node in 0..2 {
            manager
                .put_block(node, 1, 0, 0, frame.clone())
                .expect("put");
        }
        manager.kill_respawn(1).expect("SIGKILL + respawn");
        let files = |node| {
            std::fs::read_dir(manager.segment_dir(node).unwrap())
                .unwrap()
                .count()
        };
        assert_eq!((files(0), files(1)), (1, 0));
        assert!(manager.fetch_block(1, 1, 0, 0).unwrap().is_none());
        // The replacement takes new segments as usual.
        manager.put_block(1, 1, 0, 0, frame.clone()).expect("put");
        assert_eq!(files(1), 1);
        // A refused put leaves no file: a broadcast the executor
        // cannot vet (not a payload frame).
        let refused = manager.broadcast_put(1, 3, Bytes::from_static(b"\xffjunk"));
        assert!(
            matches!(refused, Err(JobError::Transport(_))),
            "{refused:?}"
        );
        assert_eq!(files(1), 1);
    }
}
