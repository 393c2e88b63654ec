//! The executor protocol's message table. Every message — task
//! launch/completion, shuffle block put/fetch, broadcast distribution,
//! heartbeat/metrics, shutdown — is one [`crate::wire`] frame whose
//! body starts with the message tag (1–21). A data-bearing message
//! carries a [`crate::Payload`] frame byte-for-byte as produced by
//! [`crate::PayloadBuilder::seal`], in one of two places: inline, as
//! the tail of the body (`ShufflePut`, `BroadcastPut`, `Block`; every
//! TCP exchange), or in a segment file of the owning node, which the
//! body names by `(seq, len)` (`ShufflePutAt`, `BroadcastPutAt`,
//! `BlockAt`; every Unix exchange, see [`super::segment`]). Either
//! way the receiving side rehydrates the frame with
//! [`crate::Payload::from_frame`], so the sealed frame *is* the wire
//! format and no re-serialization happens at the boundary.
//!
//! Framing, the bounds-checked body reader and their hostile-input
//! rules live in [`crate::wire`]: send with
//! `write_frame(w, &encode(&msg))`, receive with
//! `read_frame(r, decode)`. Neither copies an embedded frame: the
//! encoder borrows it from the message and the decoder slices it out
//! of the body it is handed.

use bytes::{BufMut, Bytes};

use crate::error::JobError;
use crate::wire::{Body, Reader};

/// One protocol message. Fixed-width little-endian integers; payloads
/// are embedded as their sealed frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Executor → driver greeting carrying its assigned node index.
    Hello {
        /// Node index the executor was launched for.
        node: u64,
    },
    /// Driver → executor handshake confirmation.
    HelloAck {
        /// Echoed node index.
        node: u64,
    },
    /// A task attempt was placed on this executor (lifecycle metric;
    /// fire-and-forget).
    TaskLaunch {
        /// Stage ordinal of the attempt.
        stage: u64,
        /// Partition the attempt computes.
        partition: u64,
        /// 1-based attempt number.
        attempt: u64,
    },
    /// A task attempt finished (lifecycle metric; fire-and-forget).
    TaskDone {
        /// Stage ordinal of the attempt.
        stage: u64,
        /// Partition the attempt computed.
        partition: u64,
        /// 1-based attempt number.
        attempt: u64,
        /// Whether the attempt succeeded.
        ok: bool,
    },
    /// Stage a map-output bucket on the executor (answered by
    /// [`WireMsg::Ack`]).
    ShufflePut {
        /// Shuffle the bucket belongs to.
        shuffle: u64,
        /// Map task that produced the bucket.
        map_task: u64,
        /// Reduce partition the bucket feeds.
        reduce: u64,
        /// The sealed payload frame, verbatim.
        frame: Bytes,
    },
    /// Fetch a staged bucket (answered by [`WireMsg::Block`]).
    ShuffleGet {
        /// Shuffle the bucket belongs to.
        shuffle: u64,
        /// Map task that produced the bucket.
        map_task: u64,
        /// Reduce partition the bucket feeds.
        reduce: u64,
    },
    /// Reply to a get: the stored frame, or `None` when the executor
    /// holds no such block (e.g. it restarted and lost its state).
    Block {
        /// The sealed payload frame, when present.
        frame: Option<Bytes>,
    },
    /// Drop one staged bucket (a retry moved the bucket's origin to a
    /// different node, stranding this copy; fire-and-forget).
    ShuffleRemove {
        /// Shuffle the bucket belongs to.
        shuffle: u64,
        /// Map task that produced the bucket.
        map_task: u64,
        /// Reduce partition the bucket feeds.
        reduce: u64,
    },
    /// Drop every bucket of one shuffle (per-shuffle GC;
    /// fire-and-forget).
    ShuffleRelease {
        /// Shuffle being released.
        shuffle: u64,
    },
    /// Push a broadcast payload to the executor (answered by
    /// [`WireMsg::Ack`]).
    BroadcastPut {
        /// Broadcast id.
        id: u64,
        /// The sealed payload frame, verbatim.
        frame: Bytes,
    },
    /// Fetch a broadcast payload (answered by [`WireMsg::Block`]).
    BroadcastGet {
        /// Broadcast id.
        id: u64,
    },
    /// Drop a broadcast payload (fire-and-forget).
    BroadcastRemove {
        /// Broadcast id.
        id: u64,
    },
    /// [`WireMsg::ShufflePut`] whose frame lies in segment `seq` of
    /// the executor's segment directory (answered by [`WireMsg::Ack`]).
    ShufflePutAt {
        /// Shuffle the bucket belongs to.
        shuffle: u64,
        /// Map task that produced the bucket.
        map_task: u64,
        /// Reduce partition the bucket feeds.
        reduce: u64,
        /// Segment file holding the sealed frame.
        seq: u64,
        /// The frame's length in bytes: the whole file.
        len: u64,
    },
    /// [`WireMsg::BroadcastPut`] whose frame lies in segment `seq`
    /// (answered by [`WireMsg::Ack`]).
    BroadcastPutAt {
        /// Broadcast id.
        id: u64,
        /// Segment file holding the sealed frame.
        seq: u64,
        /// The frame's length in bytes: the whole file.
        len: u64,
    },
    /// Reply to a get whose frame the executor holds in segment `seq`
    /// (a miss is still `Block { frame: None }`).
    BlockAt {
        /// Segment file holding the sealed frame.
        seq: u64,
        /// The frame's length as recorded when it was put.
        len: u64,
    },
    /// Liveness + metrics probe (answered by [`WireMsg::HeartbeatAck`]).
    Heartbeat {
        /// Correlation sequence number, echoed in the ack.
        seq: u64,
    },
    /// Heartbeat reply carrying the executor's self-reported state.
    HeartbeatAck {
        /// Echoed sequence number.
        seq: u64,
        /// Shuffle buckets currently held.
        buckets: u64,
        /// Total stored bucket frame bytes.
        bucket_bytes: u64,
        /// Broadcast payloads currently held.
        broadcasts: u64,
        /// Task launches seen over this executor's lifetime.
        tasks_launched: u64,
        /// Task completions seen over this executor's lifetime.
        tasks_done: u64,
    },
    /// Generic success reply to a put.
    Ack,
    /// Orderly termination request (answered by
    /// [`WireMsg::ShutdownAck`], then the executor exits 0).
    Shutdown,
    /// Last message an executor sends before exiting cleanly.
    ShutdownAck,
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_TASK_LAUNCH: u8 = 3;
const TAG_TASK_DONE: u8 = 4;
const TAG_SHUFFLE_PUT: u8 = 5;
const TAG_SHUFFLE_GET: u8 = 6;
const TAG_BLOCK: u8 = 7;
const TAG_SHUFFLE_RELEASE: u8 = 8;
// Tag 9 is retired (a wholesale shuffle clear): it decodes as unknown.
const TAG_BROADCAST_PUT: u8 = 10;
const TAG_BROADCAST_GET: u8 = 11;
const TAG_BROADCAST_REMOVE: u8 = 12;
const TAG_HEARTBEAT: u8 = 13;
const TAG_HEARTBEAT_ACK: u8 = 14;
const TAG_ACK: u8 = 15;
const TAG_SHUTDOWN: u8 = 16;
const TAG_SHUTDOWN_ACK: u8 = 17;
const TAG_SHUFFLE_REMOVE: u8 = 18;
const TAG_SHUFFLE_PUT_AT: u8 = 19;
const TAG_BROADCAST_PUT_AT: u8 = 20;
const TAG_BLOCK_AT: u8 = 21;

/// A body that is its tag followed by `words` as little-endian `u64`s —
/// the whole of most messages, and the head of the rest.
fn tagged(tag: u8, words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 * words.len());
    out.put_u8(tag);
    for &w in words {
        out.put_u64_le(w);
    }
    out
}

/// Encode a message body (everything after the 4-byte length prefix):
/// its head, plus the message's own frame where it carries one.
pub fn encode(msg: &WireMsg) -> Body<'_> {
    let head = match msg {
        WireMsg::Hello { node } => tagged(TAG_HELLO, &[*node]),
        WireMsg::HelloAck { node } => tagged(TAG_HELLO_ACK, &[*node]),
        WireMsg::TaskLaunch {
            stage,
            partition,
            attempt,
        } => tagged(TAG_TASK_LAUNCH, &[*stage, *partition, *attempt]),
        WireMsg::TaskDone {
            stage,
            partition,
            attempt,
            ok,
        } => {
            let mut out = tagged(TAG_TASK_DONE, &[*stage, *partition, *attempt]);
            out.put_u8(u8::from(*ok));
            out
        }
        WireMsg::ShufflePut {
            shuffle,
            map_task,
            reduce,
            frame,
        } => {
            let head = tagged(TAG_SHUFFLE_PUT, &[*shuffle, *map_task, *reduce]);
            return Body::with_frame(head, frame);
        }
        WireMsg::ShuffleGet {
            shuffle,
            map_task,
            reduce,
        } => tagged(TAG_SHUFFLE_GET, &[*shuffle, *map_task, *reduce]),
        WireMsg::Block { frame } => {
            return Body::with_opt_frame(tagged(TAG_BLOCK, &[]), frame.as_deref());
        }
        WireMsg::ShuffleRemove {
            shuffle,
            map_task,
            reduce,
        } => tagged(TAG_SHUFFLE_REMOVE, &[*shuffle, *map_task, *reduce]),
        WireMsg::ShuffleRelease { shuffle } => tagged(TAG_SHUFFLE_RELEASE, &[*shuffle]),
        WireMsg::BroadcastPut { id, frame } => {
            return Body::with_frame(tagged(TAG_BROADCAST_PUT, &[*id]), frame);
        }
        WireMsg::ShufflePutAt {
            shuffle,
            map_task,
            reduce,
            seq,
            len,
        } => tagged(
            TAG_SHUFFLE_PUT_AT,
            &[*shuffle, *map_task, *reduce, *seq, *len],
        ),
        WireMsg::BroadcastPutAt { id, seq, len } => {
            tagged(TAG_BROADCAST_PUT_AT, &[*id, *seq, *len])
        }
        WireMsg::BlockAt { seq, len } => tagged(TAG_BLOCK_AT, &[*seq, *len]),
        WireMsg::BroadcastGet { id } => tagged(TAG_BROADCAST_GET, &[*id]),
        WireMsg::BroadcastRemove { id } => tagged(TAG_BROADCAST_REMOVE, &[*id]),
        WireMsg::Heartbeat { seq } => tagged(TAG_HEARTBEAT, &[*seq]),
        WireMsg::HeartbeatAck {
            seq,
            buckets,
            bucket_bytes,
            broadcasts,
            tasks_launched,
            tasks_done,
        } => tagged(
            TAG_HEARTBEAT_ACK,
            &[
                *seq,
                *buckets,
                *bucket_bytes,
                *broadcasts,
                *tasks_launched,
                *tasks_done,
            ],
        ),
        WireMsg::Ack => tagged(TAG_ACK, &[]),
        WireMsg::Shutdown => tagged(TAG_SHUTDOWN, &[]),
        WireMsg::ShutdownAck => tagged(TAG_SHUTDOWN_ACK, &[]),
    };
    head.into()
}

/// Decode a message body. Any malformed input — truncation, unknown
/// tag, trailing garbage — yields [`JobError::Codec`], never a panic.
/// An embedded frame comes back as a slice of `body`, not a copy.
pub fn decode(body: Bytes) -> Result<WireMsg, JobError> {
    let mut c = Reader::new(body);
    let msg = match c.scalar::<u8>()? {
        TAG_HELLO => WireMsg::Hello { node: c.scalar()? },
        TAG_HELLO_ACK => WireMsg::HelloAck { node: c.scalar()? },
        TAG_TASK_LAUNCH => WireMsg::TaskLaunch {
            stage: c.scalar()?,
            partition: c.scalar()?,
            attempt: c.scalar()?,
        },
        TAG_TASK_DONE => WireMsg::TaskDone {
            stage: c.scalar()?,
            partition: c.scalar()?,
            attempt: c.scalar()?,
            ok: c.flag("task outcome flag")?,
        },
        TAG_SHUFFLE_PUT => WireMsg::ShufflePut {
            shuffle: c.scalar()?,
            map_task: c.scalar()?,
            reduce: c.scalar()?,
            frame: c.frame()?,
        },
        TAG_SHUFFLE_GET => WireMsg::ShuffleGet {
            shuffle: c.scalar()?,
            map_task: c.scalar()?,
            reduce: c.scalar()?,
        },
        TAG_BLOCK => WireMsg::Block {
            frame: c.opt_frame()?,
        },
        TAG_SHUFFLE_REMOVE => WireMsg::ShuffleRemove {
            shuffle: c.scalar()?,
            map_task: c.scalar()?,
            reduce: c.scalar()?,
        },
        TAG_SHUFFLE_RELEASE => WireMsg::ShuffleRelease {
            shuffle: c.scalar()?,
        },
        TAG_BROADCAST_PUT => WireMsg::BroadcastPut {
            id: c.scalar()?,
            frame: c.frame()?,
        },
        TAG_SHUFFLE_PUT_AT => WireMsg::ShufflePutAt {
            shuffle: c.scalar()?,
            map_task: c.scalar()?,
            reduce: c.scalar()?,
            seq: c.scalar()?,
            len: c.scalar()?,
        },
        TAG_BROADCAST_PUT_AT => WireMsg::BroadcastPutAt {
            id: c.scalar()?,
            seq: c.scalar()?,
            len: c.scalar()?,
        },
        TAG_BLOCK_AT => WireMsg::BlockAt {
            seq: c.scalar()?,
            len: c.scalar()?,
        },
        TAG_BROADCAST_GET => WireMsg::BroadcastGet { id: c.scalar()? },
        TAG_BROADCAST_REMOVE => WireMsg::BroadcastRemove { id: c.scalar()? },
        TAG_HEARTBEAT => WireMsg::Heartbeat { seq: c.scalar()? },
        TAG_HEARTBEAT_ACK => WireMsg::HeartbeatAck {
            seq: c.scalar()?,
            buckets: c.scalar()?,
            bucket_bytes: c.scalar()?,
            broadcasts: c.scalar()?,
            tasks_launched: c.scalar()?,
            tasks_done: c.scalar()?,
        },
        TAG_ACK => WireMsg::Ack,
        TAG_SHUTDOWN => WireMsg::Shutdown,
        TAG_SHUTDOWN_ACK => WireMsg::ShutdownAck,
        other => return Err(JobError::Codec(format!("unknown wire tag {other}"))),
    };
    c.finish()?;
    Ok(msg)
}

/// [`encode`] into one buffer, copying the frame. Kept under this name
/// for the benchmark's codec probe (`crates/perf`) and the golden
/// vectors; the socket path never calls it.
pub fn encode_body(msg: &WireMsg) -> Vec<u8> {
    encode(msg).concat()
}

/// [`decode`] over a copy of `body` (same callers as [`encode_body`]).
pub fn decode_body(body: &[u8]) -> Result<WireMsg, JobError> {
    decode(Bytes::copy_from_slice(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{Compression, Payload};

    #[test]
    fn embedded_payload_frames_survive_verbatim() {
        let p = Payload::seal(Bytes::from(vec![42u8; 300]), Compression::Lz4);
        let body = encode_body(&WireMsg::ShufflePut {
            shuffle: 1,
            map_task: 0,
            reduce: 0,
            frame: p.frame(),
        });
        match decode_body(&body).unwrap() {
            WireMsg::ShufflePut { frame, .. } => {
                assert_eq!(frame, p.frame());
                let back = Payload::from_frame(frame).unwrap();
                assert_eq!(back.open().unwrap(), p.open().unwrap());
            }
            other => panic!("{other:?}"),
        }
    }
}
