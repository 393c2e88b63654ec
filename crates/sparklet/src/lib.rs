//! `sparklet` — a Spark-like distributed dataflow engine, built from
//! scratch as the substrate for reproducing *Efficient Execution of
//! Dynamic Programming Algorithms on Apache Spark* (CLUSTER 2020).
//!
//! The engine reproduces the Spark mechanisms the paper's evaluation
//! depends on:
//!
//! * **lazy pair-RDDs with lineage** — transformations
//!   ([`Rdd::map`], [`Rdd::filter`], [`Rdd::flat_map`], [`Rdd::union`],
//!   [`Rdd::map_partitions`]) build a plan; nothing runs until an
//!   action ([`Rdd::collect`], [`Rdd::count`]) or a checkpoint;
//! * **narrow vs wide dependencies** — narrow chains fuse into one pass
//!   per partition inside a task; wide ops ([`Rdd::partition_by`],
//!   [`Rdd::combine_by_key`], [`Rdd::group_by_key`],
//!   [`Rdd::reduce_by_key`]) cut the job into stages and move data
//!   through a shuffle with **real byte-level serialization**;
//! * **executors** — one per simulated cluster node, each with a
//!   worker pool; tasks are placed by preferred location (cached
//!   partitions) or round-robin, and every task's work and traffic is
//!   recorded into an event log the cost model consumes;
//!   [`SparkContext::summary`] folds that log, with every cumulative
//!   engine counter, into one [`RunSummary`];
//! * **shuffle staging** — map outputs are staged per node and count
//!   against a configurable local-storage capacity; exceeding it fails
//!   the job exactly like the paper's In-Memory drawback #2;
//! * **tiered block storage** — [`Rdd::checkpoint_with_level`] /
//!   [`Rdd::persist`]
//!   at `MemoryOnly` / `MemoryAndDisk` / `DiskOnly`
//!   ([`StorageLevel`]), with a per-node LRU memory manager that
//!   spills serialized blocks to a disk tier under pressure and falls
//!   back to lineage recomputation when a block is in neither tier;
//! * **driver collect / broadcast** — the Collect-Broadcast pattern's
//!   primitives, with driver traffic recorded;
//! * **lineage-based recovery** — injected task failures are retried
//!   (bounded attempts) by recomputing from lineage, Spark-style;
//! * **driver-side DAG scheduling** — actions extract a stage graph
//!   from lineage and run its ready stages one at a time on the
//!   calling thread; a shuffle shared by several branches, or by jobs
//!   that several threads run concurrently on one context, is
//!   materialized exactly once;
//! * **deterministic simulation** — [`SparkConf::with_sim_seed`]
//!   switches the whole engine onto a virtual clock and a seeded
//!   scheduler, and [`SparkContext::install_chaos`] scripts faults
//!   (panics, stragglers, fetch failures, executor loss, full disks)
//!   so any concurrency bug replays from its `u64` seed.
//!
//! By default the cluster is *simulated within one process*: executors
//! are thread pools, the "network" is the shuffle manager, and the
//! recorded event log is mapped to cluster seconds by the
//! `cluster-model` crate. The dataflow itself — partitioning, stage
//! structure, bytes moved, task placement — is real, which is what the
//! reproduction needs. [`SparkConf::with_tcp_transport`] (or
//! `with_unix_transport`) upgrades the data plane to *real executor
//! subprocesses* behind a length-prefixed wire protocol
//! ([`crate::transport`]): shuffle buckets and broadcasts live in
//! per-node processes, remote fetches are measured socket traffic, and
//! the chaos harness's executor loss becomes a genuine `SIGKILL`.

#![warn(missing_docs)]

pub mod broadcast;
pub mod codec;
pub mod config;
pub mod context;
pub mod dag;
pub mod error;
pub mod ext;
pub mod metrics;
pub mod partitioner;
pub mod payload;
pub mod rdd;
pub mod scheduler;
pub mod service;
pub mod shuffle;
pub mod sim;
pub mod storage;
pub mod transport;
pub mod wire;

pub use broadcast::Broadcast;
pub use codec::Storable;
pub use config::SparkConf;
pub use context::{ExecutorLoss, InstalledChaos, SparkContext, TaskContext};
pub use dag::{with_cancel, CancelToken};
pub use error::JobError;
pub use ext::Either;
pub use metrics::{AdaptiveDecision, EventLog, RunSummary};
pub use partitioner::{GridPartitioner, HashPartitioner, Partitioner, SigLayout};
pub use payload::{Compression, Payload, PayloadBuilder};
pub use rdd::Rdd;
pub use service::{
    Arrival, JobRunner, JobService, JobState, JobStatusView, LineageHasher, Rejection, ServiceAddr,
    ServiceClient, ServiceConfig, ServiceDecision, ServiceStats,
};
pub use sim::{ChaosEvent, ChaosPolicy};
pub use storage::{BlockStore, PutOutcome, StorageLevel};
pub use transport::TransportMode;

/// Bound for anything that flows through an RDD.
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}
