//! Job-level errors.

use std::fmt;

/// Why a job (action or checkpoint) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A task panicked (message captured) and exhausted its retries.
    TaskFailed {
        /// Label of the failing stage.
        stage: String,
        /// Partition whose task failed.
        partition: usize,
        /// Attempts made before giving up.
        attempts: usize,
        /// Panic or error message of the last attempt.
        message: String,
    },
    /// Shuffle staging exceeded the node's local-storage capacity — the
    /// paper's In-Memory failure mode for large inputs/many replicas.
    StagingOverflow {
        /// Node whose staging filled up.
        node: usize,
        /// Bytes staged at failure.
        used: u64,
        /// Configured capacity.
        capacity: u64,
    },
    /// Cached partitions exceeded configured executor memory.
    MemoryOverflow {
        /// Node whose cache filled up.
        node: usize,
        /// Bytes cached at failure.
        used: u64,
        /// Configured capacity.
        capacity: u64,
    },
    /// Spilled/cached blocks exceeded the node's disk-tier capacity.
    DiskOverflow {
        /// Node whose disk tier filled up.
        node: usize,
        /// Bytes on disk at failure.
        used: u64,
        /// Configured capacity.
        capacity: u64,
    },
    /// A reduce task could not fetch a map output (the bucket was lost
    /// with its executor, or chaos failed the fetch). Not retryable at
    /// task level — the lost map outputs must be regenerated, so the
    /// driver resubmits the producing map stage (Spark's
    /// `FetchFailed` → stage-resubmission path).
    FetchFailed {
        /// Shuffle whose map output could not be fetched.
        shuffle: u64,
        /// Reduce partition that was fetching.
        partition: usize,
        /// What went wrong.
        reason: String,
    },
    /// Serialization error.
    Codec(String),
    /// A wire-transport exchange with an executor subprocess failed
    /// (connection lost, refused put, protocol violation). Retryable at
    /// task level: the respawned executor serves the retry.
    Transport(String),
    /// A referenced shuffle/broadcast/cache entry is missing (lineage
    /// was cleared while still referenced, or an engine bug).
    MissingBlock(String),
    /// A cached block exists but holds a different type than the
    /// reader asked for (a caller bug, not a missing block).
    TypeMismatch(String),
    /// The driver refused or lost a job outside any task: an invalid
    /// job description, or a job-service worker whose job panicked.
    Driver(String),
    /// The job was cancelled (client disconnect, tenant abort, or an
    /// explicit [`crate::CancelToken`]). Not retryable: the caller gave
    /// up on the result. Cancellation takes effect at stage
    /// boundaries, so latches already claimed by the job still settle
    /// normally and stay usable by other jobs.
    Cancelled(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::TaskFailed {
                stage,
                partition,
                attempts,
                message,
            } => write!(
                f,
                "task for partition {partition} of stage '{stage}' failed after {attempts} attempts: {message}"
            ),
            JobError::StagingOverflow { node, used, capacity } => write!(
                f,
                "shuffle staging overflow on node {node}: {used} bytes staged, capacity {capacity}"
            ),
            JobError::MemoryOverflow { node, used, capacity } => write!(
                f,
                "executor memory overflow on node {node}: {used} bytes cached, capacity {capacity}"
            ),
            JobError::DiskOverflow { node, used, capacity } => write!(
                f,
                "disk tier overflow on node {node}: {used} bytes stored, capacity {capacity}"
            ),
            JobError::FetchFailed {
                shuffle,
                partition,
                reason,
            } => write!(
                f,
                "fetch failed for reduce partition {partition} of shuffle #{shuffle}: {reason}"
            ),
            JobError::Codec(msg) => write!(f, "codec error: {msg}"),
            JobError::Transport(msg) => write!(f, "transport error: {msg}"),
            JobError::MissingBlock(what) => write!(f, "missing block: {what}"),
            JobError::TypeMismatch(what) => write!(f, "cached block type mismatch: {what}"),
            JobError::Driver(what) => write!(f, "driver job failed: {what}"),
            JobError::Cancelled(why) => write!(f, "job cancelled: {why}"),
        }
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_usefully() {
        let e = JobError::StagingOverflow {
            node: 3,
            used: 100,
            capacity: 64,
        };
        let s = e.to_string();
        assert!(s.contains("node 3") && s.contains("100") && s.contains("64"));
    }
}
