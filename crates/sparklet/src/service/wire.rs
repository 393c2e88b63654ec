//! The submission protocol's message table: one [`crate::wire`] frame
//! per message, tag-first bodies (tags 1–12), job bodies and results
//! embedded as sealed [`crate::Payload`] frames verbatim — the
//! zero-copy frame of PR 5 is the submission format too, re-validated
//! with [`crate::Payload::from_frame`] at each boundary.
//!
//! Framing, the bounds-checked body reader and their hostile-input
//! rules live in [`crate::wire`]: send with
//! `write_frame(w, &encode(&msg))`, receive with
//! `read_frame(r, decode)`. Neither copies an embedded frame: the
//! encoder borrows it from the message and the decoder slices it out
//! of the body it is handed.
//!
//! The numeric codes a message carries for a [`JobState`] or a
//! [`Rejection`], and the conversions between the service's own types
//! and the messages built from them, are at the end of this file —
//! nothing outside it turns a state or a rejection into a byte.

use bytes::{BufMut, Bytes};

use super::{JobId, JobState, JobStatusView, Rejection};
use crate::error::JobError;
use crate::payload::{Compression, Payload};
use crate::wire::{put_str, Body, Reader};

/// One submission-protocol message. Fixed-width little-endian
/// integers; job bodies and results travel as sealed payload frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcMsg {
    /// Client → service: submit a job for `tenant`. `frame` is the
    /// sealed payload frame of the job body (answered by
    /// [`SvcMsg::SubmitOk`] or [`SvcMsg::SubmitErr`]).
    Submit {
        /// Submitting tenant.
        tenant: u64,
        /// Sealed payload frame of the job body, verbatim.
        frame: Bytes,
    },
    /// The job was admitted and queued.
    SubmitOk {
        /// Service-assigned job id.
        job: u64,
    },
    /// The job was rejected by admission control (typed; `code` is a
    /// [`super::Rejection`] discriminant: 1 over budget, 2 too
    /// expensive, 3 queue full, 4 malformed, 5 shutting down).
    SubmitErr {
        /// Machine-readable rejection class.
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// Client → service: non-blocking status probe (answered by
    /// [`SvcMsg::Status`]).
    Poll {
        /// Job to probe.
        job: u64,
    },
    /// Client → service: block until the job settles, then answer
    /// with [`SvcMsg::Status`].
    Wait {
        /// Job to wait for.
        job: u64,
    },
    /// Job status snapshot. `state` encodes [`super::JobState`]
    /// (0 queued, 1 running, 2 done, 3 failed, 4 cancelled; 255 for a
    /// job the service does not know); `frame` carries the sealed
    /// result payload once done, until a `Wait` has collected it.
    Status {
        /// Job the status describes.
        job: u64,
        /// Lifecycle state code.
        state: u8,
        /// Whether the result came from the lineage cache.
        cache_hit: bool,
        /// Engine stages this job ran (0 on a cache hit).
        stages_run: u64,
        /// Sealed result payload frame, present iff done and not yet
        /// collected by a `Wait`.
        frame: Option<Bytes>,
        /// Failure message, present iff failed.
        error: Option<String>,
    },
    /// Client → service: abort a job (queued jobs are dropped, running
    /// jobs are cancelled at their next stage boundary; answered by
    /// [`SvcMsg::CancelOk`]).
    Cancel {
        /// Job to abort.
        job: u64,
    },
    /// Cancellation was recorded.
    CancelOk,
    /// Client → service: ask for service counters (answered by
    /// [`SvcMsg::StatsOk`]).
    Stats,
    /// Service counters snapshot.
    StatsOk {
        /// Jobs submitted (admitted + rejected).
        submitted: u64,
        /// Jobs admitted.
        admitted: u64,
        /// Jobs rejected by admission.
        rejected: u64,
        /// Jobs completed successfully.
        completed: u64,
        /// Completions served from the lineage cache.
        cache_hits: u64,
        /// Jobs cancelled.
        cancelled: u64,
    },
    /// Client → service: orderly service stop (answered by
    /// [`SvcMsg::ShutdownAck`]): new submissions are rejected, queued
    /// jobs are cancelled with their admission budget released,
    /// running jobs finish, and the worker threads are joined.
    Shutdown,
    /// Last message before the service closes the connection.
    ShutdownAck,
}

const TAG_SUBMIT: u8 = 1;
const TAG_SUBMIT_OK: u8 = 2;
const TAG_SUBMIT_ERR: u8 = 3;
const TAG_POLL: u8 = 4;
const TAG_WAIT: u8 = 5;
const TAG_STATUS: u8 = 6;
const TAG_CANCEL: u8 = 7;
const TAG_CANCEL_OK: u8 = 8;
const TAG_STATS: u8 = 9;
const TAG_STATS_OK: u8 = 10;
const TAG_SHUTDOWN: u8 = 11;
const TAG_SHUTDOWN_ACK: u8 = 12;

/// A body that starts with its tag and one little-endian `u64`.
fn tagged(tag: u8, word: u64) -> Vec<u8> {
    let mut out = vec![tag];
    out.put_u64_le(word);
    out
}

/// Encode a message body (everything after the 4-byte length prefix):
/// its head, plus the message's own frame where it carries one.
pub fn encode(msg: &SvcMsg) -> Body<'_> {
    let head = match msg {
        SvcMsg::Submit { tenant, frame } => {
            return Body::with_frame(tagged(TAG_SUBMIT, *tenant), frame);
        }
        SvcMsg::SubmitOk { job } => tagged(TAG_SUBMIT_OK, *job),
        SvcMsg::SubmitErr { code, message } => {
            let mut out = vec![TAG_SUBMIT_ERR, *code];
            put_str(&mut out, message);
            out
        }
        SvcMsg::Poll { job } => tagged(TAG_POLL, *job),
        SvcMsg::Wait { job } => tagged(TAG_WAIT, *job),
        SvcMsg::Status {
            job,
            state,
            cache_hit,
            stages_run,
            frame,
            error,
        } => {
            let mut out = tagged(TAG_STATUS, *job);
            out.put_u8(*state);
            out.put_u8(u8::from(*cache_hit));
            out.put_u64_le(*stages_run);
            match error {
                Some(e) => {
                    out.put_u8(1);
                    put_str(&mut out, e);
                }
                None => out.put_u8(0),
            }
            // The frame is the variable-length tail, like the
            // executor wire's `Block`.
            return Body::with_opt_frame(out, frame.as_deref());
        }
        SvcMsg::Cancel { job } => tagged(TAG_CANCEL, *job),
        SvcMsg::CancelOk => vec![TAG_CANCEL_OK],
        SvcMsg::Stats => vec![TAG_STATS],
        SvcMsg::StatsOk {
            submitted,
            admitted,
            rejected,
            completed,
            cache_hits,
            cancelled,
        } => {
            let mut out = vec![TAG_STATS_OK];
            for v in [
                submitted, admitted, rejected, completed, cache_hits, cancelled,
            ] {
                out.put_u64_le(*v);
            }
            out
        }
        SvcMsg::Shutdown => vec![TAG_SHUTDOWN],
        SvcMsg::ShutdownAck => vec![TAG_SHUTDOWN_ACK],
    };
    head.into()
}

/// Decode a message body. Any malformed input — truncation, unknown
/// tag, trailing garbage — yields [`JobError::Codec`], never a panic.
/// An embedded frame comes back as a slice of `body`, not a copy.
pub fn decode(body: Bytes) -> Result<SvcMsg, JobError> {
    let mut c = Reader::new(body);
    let msg = match c.scalar::<u8>()? {
        TAG_SUBMIT => SvcMsg::Submit {
            tenant: c.scalar()?,
            frame: c.frame()?,
        },
        TAG_SUBMIT_OK => SvcMsg::SubmitOk { job: c.scalar()? },
        TAG_SUBMIT_ERR => SvcMsg::SubmitErr {
            code: c.scalar()?,
            message: c.string()?,
        },
        TAG_POLL => SvcMsg::Poll { job: c.scalar()? },
        TAG_WAIT => SvcMsg::Wait { job: c.scalar()? },
        TAG_STATUS => SvcMsg::Status {
            job: c.scalar()?,
            state: c.scalar()?,
            cache_hit: c.flag("cache-hit flag")?,
            stages_run: c.scalar()?,
            error: if c.flag("error presence flag")? {
                Some(c.string()?)
            } else {
                None
            },
            frame: c.opt_frame()?,
        },
        TAG_CANCEL => SvcMsg::Cancel { job: c.scalar()? },
        TAG_CANCEL_OK => SvcMsg::CancelOk,
        TAG_STATS => SvcMsg::Stats,
        TAG_STATS_OK => SvcMsg::StatsOk {
            submitted: c.scalar()?,
            admitted: c.scalar()?,
            rejected: c.scalar()?,
            completed: c.scalar()?,
            cache_hits: c.scalar()?,
            cancelled: c.scalar()?,
        },
        TAG_SHUTDOWN => SvcMsg::Shutdown,
        TAG_SHUTDOWN_ACK => SvcMsg::ShutdownAck,
        other => return Err(JobError::Codec(format!("unknown service tag {other}"))),
    };
    c.finish()?;
    Ok(msg)
}

/// [`encode`] into one buffer, copying the frame. Kept under this name
/// for the benchmark (`crates/perf`) and the golden vectors; the socket
/// path never calls it.
pub fn encode_body(msg: &SvcMsg) -> Vec<u8> {
    encode(msg).concat()
}

/// [`decode`] over a copy of `body` (same callers as [`encode_body`]).
pub fn decode_body(body: &[u8]) -> Result<SvcMsg, JobError> {
    decode(Bytes::copy_from_slice(body))
}

// ---------------------------------------------------------------------
// Codes and conversions
// ---------------------------------------------------------------------

/// Wire code for a [`JobState`].
fn state_code(s: JobState) -> u8 {
    match s {
        JobState::Queued => 0,
        JobState::Running => 1,
        JobState::Done => 2,
        JobState::Failed => 3,
        JobState::Cancelled => 4,
    }
}

/// The state code of a [`SvcMsg::Status`] for a job the service does
/// not know: never issued, or evicted from the settled-job ring.
const UNKNOWN_JOB: u8 = u8::MAX;

/// Decode a wire state code.
fn state_from_code(c: u8) -> Option<JobState> {
    Some(match c {
        0 => JobState::Queued,
        1 => JobState::Running,
        2 => JobState::Done,
        3 => JobState::Failed,
        4 => JobState::Cancelled,
        _ => return None,
    })
}

/// The class of a [`Rejection`], as [`SvcMsg::SubmitErr`] carries it
/// and [`super::ServiceDecision::Rejected`] logs it.
pub(super) fn rejection_code(r: &Rejection) -> u8 {
    match r {
        Rejection::OverBudget { .. } => 1,
        Rejection::TooExpensive { .. } => 2,
        Rejection::QueueFull { .. } => 3,
        Rejection::Malformed(_) => 4,
        Rejection::ShuttingDown => 5,
    }
}

/// The reply to a refused `Submit`. A [`Rejection`] is the only thing
/// it can be built from, so every refusal a peer sees is one the
/// service decided, logged and counted.
pub(super) fn submit_err(r: &Rejection) -> SvcMsg {
    SvcMsg::SubmitErr {
        code: rejection_code(r),
        message: r.to_string(),
    }
}

pub(super) fn status_msg(view: &JobStatusView) -> SvcMsg {
    SvcMsg::Status {
        job: view.job,
        state: state_code(view.state),
        cache_hit: view.cache_hit,
        stages_run: view.stages_run,
        frame: view
            .result
            .as_ref()
            .map(|r| Payload::seal(r.clone(), Compression::None).frame()),
        error: view.error.clone(),
    }
}

pub(super) fn unknown_job_status(job: JobId) -> SvcMsg {
    SvcMsg::Status {
        job,
        state: UNKNOWN_JOB,
        cache_hit: false,
        stages_run: 0,
        frame: None,
        error: Some("unknown job".into()),
    }
}

/// The inverse of [`status_msg`], on the client's side of the socket.
/// An [`unknown_job_status`] is an error of kind `NotFound`, where the
/// in-process API answers `None`.
pub(super) fn view_from_status(msg: SvcMsg) -> std::io::Result<JobStatusView> {
    let SvcMsg::Status {
        job,
        state,
        cache_hit,
        stages_run,
        frame,
        error,
    } = msg
    else {
        return Err(protocol_err(&msg));
    };
    if state == UNKNOWN_JOB {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("unknown job {job}"),
        ));
    }
    let state = state_from_code(state)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad job state"))?;
    let result =
        match frame {
            Some(f) => Some(Payload::from_frame(f).and_then(|p| p.open()).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
            })?),
            None => None,
        };
    Ok(JobStatusView {
        job,
        state,
        cache_hit,
        stages_run,
        result,
        error,
    })
}

pub(super) fn protocol_err(got: &SvcMsg) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unexpected service reply: {got:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_job_frames_survive_verbatim() {
        let p = Payload::seal(Bytes::from(vec![7u8; 300]), Compression::Lz4);
        let body = encode_body(&SvcMsg::Submit {
            tenant: 1,
            frame: p.frame(),
        });
        match decode_body(&body).unwrap() {
            SvcMsg::Submit { frame, .. } => {
                assert_eq!(frame, p.frame());
                let back = Payload::from_frame(frame).unwrap();
                assert_eq!(back.open().unwrap(), p.open().unwrap());
            }
            other => panic!("{other:?}"),
        }
    }
}
