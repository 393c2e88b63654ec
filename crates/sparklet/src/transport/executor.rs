//! Executor-side server: the state machine a `sparklet-executor`
//! subprocess runs over its driver connection.
//!
//! An executor owns the durable data plane of one node: staged shuffle
//! bucket frames, its broadcast cache, and lifecycle counters. It
//! speaks the request/reply discipline of [`super::wire`]: every
//! message from the driver is handled in arrival order, and exactly
//! the request messages (the puts, the gets, `Heartbeat`, `Shutdown`)
//! produce one reply each — fire-and-forget lifecycle messages produce
//! none, so the driver can pipeline them without desynchronizing the
//! stream.
//!
//! Over TCP a frame arrives inline and the executor holds its bytes.
//! Over a Unix socket it arrives as a segment file in this node's
//! directory ([`super::segment`]): the executor vets the file, holds
//! only its `(seq, len)`, answers a get with that reference, and
//! unlinks the file when it drops the entry.
//!
//! The same state machine backs the real subprocess binary
//! (`sparklet-executor`) and in-process loopback tests; it is
//! deliberately free of process concerns (no exit calls, no signal
//! handling) so it can be driven from any `Read + Write` stream.

use std::collections::HashMap;
use std::hash::Hash;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use super::segment;
use super::wire::{decode, encode, WireMsg};
use crate::payload::Payload;
use crate::wire::{read_frame, write_frame};

/// Where an executor keeps one stored frame.
#[derive(Debug)]
enum Held {
    /// The frame's bytes, as they arrived inline.
    Inline(Bytes),
    /// Segment `seq` of the node's directory, `len` bytes long.
    Segment { seq: u64, len: u64 },
}

impl Held {
    fn len(&self) -> u64 {
        match self {
            Held::Inline(frame) => frame.len() as u64,
            Held::Segment { len, .. } => *len,
        }
    }

    /// The answer to a get for this frame.
    fn reply(&self) -> WireMsg {
        match self {
            Held::Inline(frame) => WireMsg::Block {
                frame: Some(frame.clone()),
            },
            &Held::Segment { seq, len } => WireMsg::BlockAt { seq, len },
        }
    }
}

/// In-memory store and counters for one executor process.
#[derive(Default)]
pub struct ExecutorState {
    /// Staged bucket frames keyed by (shuffle, map_task, reduce).
    buckets: HashMap<(u64, u64, u64), Held>,
    /// Cached broadcast frames keyed by broadcast id.
    broadcasts: HashMap<u64, Held>,
    /// This node's segment directory; `None` over TCP, where a put
    /// that names a segment is refused.
    segments: Option<PathBuf>,
    /// Task launches observed (lifetime counter).
    tasks_launched: u64,
    /// Task completions observed (lifetime counter).
    tasks_done: u64,
}

/// An inline frame, validated before it is stored: a frame this
/// executor can't later serve is refused at the door, not discovered by
/// the fetcher.
fn inline(frame: Bytes) -> Option<Held> {
    Payload::from_frame(frame.clone())
        .ok()
        .map(|_| Held::Inline(frame))
}

/// Segment `seq` of `dir`, vetted the same way from its length and
/// header; refused where there is no segment directory (TCP).
fn vet(dir: Option<&Path>, seq: u64, len: u64) -> Option<Held> {
    segment::check(dir?, seq, len)
        .ok()
        .map(|()| Held::Segment { seq, len })
}

/// The answer to a refused put, or to a get that misses.
fn empty_block() -> WireMsg {
    WireMsg::Block { frame: None }
}

/// Forget `old`, unlinking its segment from `dir` unless `new` (the
/// entry replacing it) names the same one.
fn unlink(dir: Option<&Path>, old: &Held, new: Option<&Held>) {
    if let (&Held::Segment { seq, .. }, Some(dir)) = (old, dir) {
        if !matches!(new, Some(&Held::Segment { seq: s, .. }) if s == seq) {
            segment::remove(dir, seq);
        }
    }
}

/// Store `held` under `key`, dropping the entry it replaces; a frame
/// refused at the door (`None`) stores nothing. Returns the put's reply.
fn put<K: Copy + Eq + Hash>(
    map: &mut HashMap<K, Held>,
    dir: Option<&Path>,
    key: K,
    held: Option<Held>,
) -> WireMsg {
    let Some(held) = held else {
        return empty_block();
    };
    if let Some(old) = map.insert(key, held) {
        unlink(dir, &old, map.get(&key));
    }
    WireMsg::Ack
}

/// Drop the entry under `key`, if any.
fn remove<K: Eq + Hash>(map: &mut HashMap<K, Held>, dir: Option<&Path>, key: &K) {
    if let Some(old) = map.remove(key) {
        unlink(dir, &old, None);
    }
}

impl ExecutorState {
    /// Fresh empty state that takes frames inline only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh empty state that also takes frames from segment files in
    /// `dir`, this node's segment directory.
    pub fn with_segments(dir: PathBuf) -> Self {
        ExecutorState {
            segments: Some(dir),
            ..Self::default()
        }
    }

    /// Number of staged buckets.
    pub fn bucket_count(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Total frame bytes staged across buckets.
    pub fn bucket_bytes(&self) -> u64 {
        self.buckets.values().map(Held::len).sum()
    }

    /// Number of cached broadcasts.
    pub fn broadcast_count(&self) -> u64 {
        self.broadcasts.len() as u64
    }

    /// Handle one message, returning the reply to send (if the message
    /// is a request) and whether the serve loop should stop.
    pub fn handle(&mut self, msg: WireMsg) -> (Option<WireMsg>, bool) {
        let dir = self.segments.as_deref();
        let reply = match msg {
            WireMsg::TaskLaunch { .. } => {
                self.tasks_launched += 1;
                None
            }
            WireMsg::TaskDone { .. } => {
                self.tasks_done += 1;
                None
            }
            WireMsg::ShufflePut {
                shuffle,
                map_task,
                reduce,
                frame,
            } => {
                let key = (shuffle, map_task, reduce);
                Some(put(&mut self.buckets, dir, key, inline(frame)))
            }
            WireMsg::ShufflePutAt {
                shuffle,
                map_task,
                reduce,
                seq,
                len,
            } => {
                let key = (shuffle, map_task, reduce);
                Some(put(&mut self.buckets, dir, key, vet(dir, seq, len)))
            }
            WireMsg::ShuffleGet {
                shuffle,
                map_task,
                reduce,
            } => Some(
                self.buckets
                    .get(&(shuffle, map_task, reduce))
                    .map_or_else(empty_block, Held::reply),
            ),
            WireMsg::ShuffleRemove {
                shuffle,
                map_task,
                reduce,
            } => {
                remove(&mut self.buckets, dir, &(shuffle, map_task, reduce));
                None
            }
            WireMsg::ShuffleRelease { shuffle } => {
                self.buckets.retain(|&(s, _, _), held| {
                    s != shuffle || {
                        unlink(dir, held, None);
                        false
                    }
                });
                None
            }
            WireMsg::BroadcastPut { id, frame } => {
                Some(put(&mut self.broadcasts, dir, id, inline(frame)))
            }
            WireMsg::BroadcastPutAt { id, seq, len } => {
                Some(put(&mut self.broadcasts, dir, id, vet(dir, seq, len)))
            }
            WireMsg::BroadcastGet { id } => Some(
                self.broadcasts
                    .get(&id)
                    .map_or_else(empty_block, Held::reply),
            ),
            WireMsg::BroadcastRemove { id } => {
                remove(&mut self.broadcasts, dir, &id);
                None
            }
            WireMsg::Heartbeat { seq } => Some(WireMsg::HeartbeatAck {
                seq,
                buckets: self.bucket_count(),
                bucket_bytes: self.bucket_bytes(),
                broadcasts: self.broadcast_count(),
                tasks_launched: self.tasks_launched,
                tasks_done: self.tasks_done,
            }),
            WireMsg::Shutdown => return (Some(WireMsg::ShutdownAck), true),
            // Messages an executor never expects (driver-to-executor
            // stream carrying executor-to-driver or handshake traffic):
            // answer with an empty block so a confused driver fails a
            // fetch instead of deadlocking, and keep serving.
            WireMsg::Hello { .. }
            | WireMsg::HelloAck { .. }
            | WireMsg::Block { .. }
            | WireMsg::BlockAt { .. }
            | WireMsg::HeartbeatAck { .. }
            | WireMsg::Ack
            | WireMsg::ShutdownAck => Some(empty_block()),
        };
        (reply, false)
    }
}

/// Serve one driver connection until `Shutdown` or stream end.
///
/// Performs the executor side of the handshake (`Hello{node}` →
/// expects `HelloAck`), then loops over [`ExecutorState::handle`] on
/// `state`. Returns `Ok(())` on orderly shutdown or driver disconnect;
/// any other I/O failure is surfaced for the binary to report.
pub fn serve<S: Read + Write>(
    stream: &mut S,
    node: u64,
    mut state: ExecutorState,
) -> std::io::Result<()> {
    write_frame(stream, &encode(&WireMsg::Hello { node }))?;
    let (ack, _) = read_frame(stream, decode)?;
    match ack {
        WireMsg::HelloAck { node: n } if n == node => {}
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected HelloAck for node {node}, got {other:?}"),
            ))
        }
    }
    loop {
        let msg = match read_frame(stream, decode) {
            Ok((msg, _)) => msg,
            // Driver went away (crashed or dropped the manager without
            // an orderly shutdown): exit cleanly rather than orphan.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let (reply, stop) = state.handle(msg);
        if let Some(reply) = reply {
            write_frame(stream, &encode(&reply))?;
        }
        if stop {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{Compression, Payload};

    fn frame(bytes: &'static [u8]) -> Bytes {
        Payload::seal(Bytes::from_static(bytes), Compression::None).frame()
    }

    #[test]
    fn put_get_release_lifecycle() {
        let mut st = ExecutorState::new();
        let f = frame(b"alpha");
        let (reply, stop) = st.handle(WireMsg::ShufflePut {
            shuffle: 1,
            map_task: 0,
            reduce: 2,
            frame: f.clone(),
        });
        assert_eq!(reply, Some(WireMsg::Ack));
        assert!(!stop);
        let (reply, _) = st.handle(WireMsg::ShuffleGet {
            shuffle: 1,
            map_task: 0,
            reduce: 2,
        });
        assert_eq!(reply, Some(WireMsg::Block { frame: Some(f) }));
        st.handle(WireMsg::ShuffleRelease { shuffle: 1 });
        let (reply, _) = st.handle(WireMsg::ShuffleGet {
            shuffle: 1,
            map_task: 0,
            reduce: 2,
        });
        assert_eq!(reply, Some(WireMsg::Block { frame: None }));
    }

    /// A fresh segment directory, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "sparklet-executor-{}-{name}.seg",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        /// Write `frame` as segment `seq`; returns its length.
        fn put(&self, seq: u64, frame: &[u8]) -> u64 {
            segment::write(&self.0, seq, frame).unwrap();
            frame.len() as u64
        }

        fn files(&self) -> Vec<u64> {
            let mut names: Vec<u64> = std::fs::read_dir(&self.0)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_str().unwrap().parse().unwrap())
                .collect();
            names.sort_unstable();
            names
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn put_at(shuffle: u64, map_task: u64, seq: u64, len: u64) -> WireMsg {
        WireMsg::ShufflePutAt {
            shuffle,
            map_task,
            reduce: 0,
            seq,
            len,
        }
    }

    fn get(shuffle: u64, map_task: u64) -> WireMsg {
        WireMsg::ShuffleGet {
            shuffle,
            map_task,
            reduce: 0,
        }
    }

    #[test]
    fn segment_references_put_get_remove_and_release() {
        let dir = TempDir::new("lifecycle");
        let mut st = ExecutorState::with_segments(dir.0.clone());
        let len = dir.put(0, &frame(b"alpha"));
        assert_eq!(st.handle(put_at(1, 0, 0, len)).0, Some(WireMsg::Ack));
        assert_eq!(
            st.handle(get(1, 0)).0,
            Some(WireMsg::BlockAt { seq: 0, len }),
            "a get names the segment, it does not carry the frame"
        );
        assert_eq!((st.bucket_count(), st.bucket_bytes()), (1, len));
        // A second attempt of the same slot replaces the first, whose
        // file goes with it.
        let len1 = dir.put(1, &frame(b"alpha, again"));
        assert_eq!(st.handle(put_at(1, 0, 1, len1)).0, Some(WireMsg::Ack));
        assert_eq!(dir.files(), vec![1]);
        assert_eq!(st.bucket_bytes(), len1);
        // Remove one bucket, then release a whole shuffle.
        for (seq, map_task) in [(2, 1), (3, 2)] {
            let len = dir.put(seq, &frame(b"beta"));
            st.handle(put_at(1, map_task, seq, len));
        }
        let len4 = dir.put(4, &frame(b"other shuffle"));
        st.handle(put_at(2, 0, 4, len4));
        st.handle(WireMsg::ShuffleRemove {
            shuffle: 1,
            map_task: 1,
            reduce: 0,
        });
        assert_eq!(dir.files(), vec![1, 3, 4]);
        st.handle(WireMsg::ShuffleRelease { shuffle: 1 });
        assert_eq!(
            dir.files(),
            vec![4],
            "a release unlinks the shuffle's files"
        );
        assert_eq!(st.handle(get(1, 2)).0, Some(WireMsg::Block { frame: None }));
        assert_eq!(
            st.handle(get(2, 0)).0,
            Some(WireMsg::BlockAt { seq: 4, len: len4 })
        );
        // Broadcasts: the same put, get and remove by reference.
        let len5 = dir.put(5, &frame(b"bcast"));
        let put = WireMsg::BroadcastPutAt {
            id: 8,
            seq: 5,
            len: len5,
        };
        assert_eq!(st.handle(put).0, Some(WireMsg::Ack));
        assert_eq!(
            st.handle(WireMsg::BroadcastGet { id: 8 }).0,
            Some(WireMsg::BlockAt { seq: 5, len: len5 })
        );
        st.handle(WireMsg::BroadcastRemove { id: 8 });
        assert_eq!(dir.files(), vec![4]);
        assert_eq!(st.broadcast_count(), 0);
    }

    #[test]
    fn hostile_segments_are_refused_at_the_door() {
        let dir = TempDir::new("hostile");
        let mut st = ExecutorState::with_segments(dir.0.clone());
        let good = frame(b"a sealed frame");
        let refused = Some(WireMsg::Block { frame: None });
        // Truncated: the file is shorter than the length put.
        let len = dir.put(0, &good[..good.len() - 3]);
        assert_eq!(st.handle(put_at(1, 0, 0, len + 3)).0, refused);
        // Grown: the file runs past the length put.
        let mut long = good.to_vec();
        long.extend_from_slice(b"tail");
        let len = dir.put(1, &long);
        assert_eq!(st.handle(put_at(1, 0, 1, len - 4)).0, refused);
        // A header that is not a payload's, and one whose raw body
        // disagrees with its declared length.
        let len = dir.put(2, b"\xffnot a payload frame");
        assert_eq!(st.handle(put_at(1, 0, 2, len)).0, refused);
        let mut lying = good.to_vec();
        lying[1] ^= 1;
        let len = dir.put(3, &lying);
        assert_eq!(st.handle(put_at(1, 0, 3, len)).0, refused);
        // A file too short for a header at all, and a missing one.
        let len = dir.put(4, &good[..4]);
        assert_eq!(st.handle(put_at(1, 0, 4, len)).0, refused);
        assert_eq!(st.handle(put_at(1, 0, 99, 15)).0, refused);
        // A length past MAX_FRAME is refused before the file is read.
        assert_eq!(st.handle(put_at(1, 0, 0, u64::MAX)).0, refused);
        assert_eq!(st.bucket_count(), 0);
        // An executor without a segment directory (TCP) takes none.
        let len = dir.put(5, &good);
        let mut tcp = ExecutorState::new();
        assert_eq!(tcp.handle(put_at(1, 0, 5, len)).0, refused);
        assert_eq!(st.handle(put_at(1, 0, 5, len)).0, Some(WireMsg::Ack));
    }

    #[test]
    fn corrupt_put_is_refused_not_stored() {
        let mut st = ExecutorState::new();
        let (reply, _) = st.handle(WireMsg::ShufflePut {
            shuffle: 1,
            map_task: 0,
            reduce: 0,
            frame: Bytes::from_static(b"\xffnot a payload frame"),
        });
        assert_eq!(reply, Some(WireMsg::Block { frame: None }));
        assert_eq!(st.bucket_count(), 0);
    }

    #[test]
    fn heartbeat_reports_counters() {
        let mut st = ExecutorState::new();
        st.handle(WireMsg::TaskLaunch {
            stage: 0,
            partition: 0,
            attempt: 1,
        });
        st.handle(WireMsg::ShufflePut {
            shuffle: 3,
            map_task: 1,
            reduce: 0,
            frame: frame(b"beta"),
        });
        st.handle(WireMsg::BroadcastPut {
            id: 8,
            frame: frame(b"bcast"),
        });
        st.handle(WireMsg::TaskDone {
            stage: 0,
            partition: 0,
            attempt: 1,
            ok: true,
        });
        let (reply, _) = st.handle(WireMsg::Heartbeat { seq: 99 });
        match reply {
            Some(WireMsg::HeartbeatAck {
                seq,
                buckets,
                broadcasts,
                tasks_launched,
                tasks_done,
                bucket_bytes,
            }) => {
                assert_eq!(seq, 99);
                assert_eq!(buckets, 1);
                assert_eq!(broadcasts, 1);
                assert_eq!(tasks_launched, 1);
                assert_eq!(tasks_done, 1);
                assert!(bucket_bytes > 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_handshakes_and_shuts_down_over_a_pipe() {
        use std::io::Cursor;
        // Script the driver side of the conversation into a buffer.
        let mut driver_out = Vec::new();
        for msg in [
            WireMsg::HelloAck { node: 2 },
            WireMsg::ShufflePut {
                shuffle: 4,
                map_task: 0,
                reduce: 1,
                frame: frame(b"gamma"),
            },
            WireMsg::ShuffleGet {
                shuffle: 4,
                map_task: 0,
                reduce: 1,
            },
            WireMsg::Shutdown,
        ] {
            write_frame(&mut driver_out, &encode(&msg)).unwrap();
        }

        struct Duplex {
            input: Cursor<Vec<u8>>,
            output: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.output.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut duplex = Duplex {
            input: Cursor::new(driver_out),
            output: Vec::new(),
        };
        serve(&mut duplex, 2, ExecutorState::new()).unwrap();

        let mut r = &duplex.output[..];
        for expected in [
            WireMsg::Hello { node: 2 },
            WireMsg::Ack,
            WireMsg::Block {
                frame: Some(frame(b"gamma")),
            },
            WireMsg::ShutdownAck,
        ] {
            assert_eq!(read_frame(&mut r, decode).unwrap().0, expected);
        }
        assert!(r.is_empty());
    }
}
