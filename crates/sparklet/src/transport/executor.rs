//! Executor-side server: the state machine a `sparklet-executor`
//! subprocess runs over its driver connection.
//!
//! An executor owns the durable data plane of one node: staged shuffle
//! bucket frames, its broadcast cache, and lifecycle counters. It
//! speaks the request/reply discipline of [`super::wire`]: every
//! message from the driver is handled in arrival order, and exactly
//! the request messages (`ShufflePut`, `ShuffleGet`, `BroadcastPut`,
//! `BroadcastGet`, `Heartbeat`, `Shutdown`) produce one reply each —
//! fire-and-forget lifecycle messages produce none, so the driver can
//! pipeline them without desynchronizing the stream.
//!
//! The same state machine backs the real subprocess binary
//! (`sparklet-executor`) and in-process loopback tests; it is
//! deliberately free of process concerns (no exit calls, no signal
//! handling) so it can be driven from any `Read + Write` stream.

use std::collections::HashMap;
use std::io::{Read, Write};

use bytes::Bytes;

use super::wire::{decode, encode, WireMsg};
use crate::payload::Payload;
use crate::wire::{read_frame, write_frame};

/// In-memory store and counters for one executor process.
#[derive(Default)]
pub struct ExecutorState {
    /// Staged bucket frames keyed by (shuffle, map_task, reduce).
    buckets: HashMap<(u64, u64, u64), Bytes>,
    /// Cached broadcast frames keyed by broadcast id.
    broadcasts: HashMap<u64, Bytes>,
    /// Task launches observed (lifetime counter).
    tasks_launched: u64,
    /// Task completions observed (lifetime counter).
    tasks_done: u64,
}

impl ExecutorState {
    /// Fresh empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of staged buckets.
    pub fn bucket_count(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Total frame bytes staged across buckets.
    pub fn bucket_bytes(&self) -> u64 {
        self.buckets.values().map(|b| b.len() as u64).sum()
    }

    /// Number of cached broadcasts.
    pub fn broadcast_count(&self) -> u64 {
        self.broadcasts.len() as u64
    }

    /// Handle one message, returning the reply to send (if the message
    /// is a request) and whether the serve loop should stop.
    pub fn handle(&mut self, msg: WireMsg) -> (Option<WireMsg>, bool) {
        match msg {
            WireMsg::TaskLaunch { .. } => {
                self.tasks_launched += 1;
                (None, false)
            }
            WireMsg::TaskDone { .. } => {
                self.tasks_done += 1;
                (None, false)
            }
            WireMsg::ShufflePut {
                shuffle,
                map_task,
                reduce,
                frame,
            } => {
                // Validate the embedded payload header before storing:
                // a frame this executor can't later serve is refused at
                // the door, not discovered by the fetcher.
                match Payload::from_frame(frame.clone()) {
                    Ok(_) => {
                        self.buckets.insert((shuffle, map_task, reduce), frame);
                        (Some(WireMsg::Ack), false)
                    }
                    Err(_) => (Some(WireMsg::Block { frame: None }), false),
                }
            }
            WireMsg::ShuffleGet {
                shuffle,
                map_task,
                reduce,
            } => {
                let frame = self.buckets.get(&(shuffle, map_task, reduce)).cloned();
                (Some(WireMsg::Block { frame }), false)
            }
            WireMsg::ShuffleRemove {
                shuffle,
                map_task,
                reduce,
            } => {
                self.buckets.remove(&(shuffle, map_task, reduce));
                (None, false)
            }
            WireMsg::ShuffleRelease { shuffle } => {
                self.buckets.retain(|&(s, _, _), _| s != shuffle);
                (None, false)
            }
            WireMsg::BroadcastPut { id, frame } => match Payload::from_frame(frame.clone()) {
                Ok(_) => {
                    self.broadcasts.insert(id, frame);
                    (Some(WireMsg::Ack), false)
                }
                Err(_) => (Some(WireMsg::Block { frame: None }), false),
            },
            WireMsg::BroadcastGet { id } => {
                let frame = self.broadcasts.get(&id).cloned();
                (Some(WireMsg::Block { frame }), false)
            }
            WireMsg::BroadcastRemove { id } => {
                self.broadcasts.remove(&id);
                (None, false)
            }
            WireMsg::Heartbeat { seq } => (
                Some(WireMsg::HeartbeatAck {
                    seq,
                    buckets: self.bucket_count(),
                    bucket_bytes: self.bucket_bytes(),
                    broadcasts: self.broadcast_count(),
                    tasks_launched: self.tasks_launched,
                    tasks_done: self.tasks_done,
                }),
                false,
            ),
            WireMsg::Shutdown => (Some(WireMsg::ShutdownAck), true),
            // Messages an executor never expects (driver-to-executor
            // stream carrying executor-to-driver or handshake traffic):
            // answer with an empty block so a confused driver fails a
            // fetch instead of deadlocking, and keep serving.
            WireMsg::Hello { .. }
            | WireMsg::HelloAck { .. }
            | WireMsg::Block { .. }
            | WireMsg::HeartbeatAck { .. }
            | WireMsg::Ack
            | WireMsg::ShutdownAck => (Some(WireMsg::Block { frame: None }), false),
        }
    }
}

/// Serve one driver connection until `Shutdown` or stream end.
///
/// Performs the executor side of the handshake (`Hello{node}` →
/// expects `HelloAck`), then loops over [`ExecutorState::handle`].
/// Returns `Ok(())` on orderly shutdown or driver disconnect; any
/// other I/O failure is surfaced for the binary to report.
pub fn serve<S: Read + Write>(stream: &mut S, node: u64) -> std::io::Result<()> {
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
    let mut state = ExecutorState::new();
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
        serve(&mut duplex, 2).unwrap();

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
