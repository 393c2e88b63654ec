//! The shuffle service: map-output staging and reduce-side fetch.
//!
//! Map tasks serialize their output into per-reduce-partition buckets
//! "staged on local storage" (per-node byte accounting against the
//! configured capacity — the paper's IM failure mode when exceeded).
//! Reduce tasks fetch every map task's bucket for their partition; a
//! fetch from another node counts as remote (network) traffic, from
//! the same node as local (storage) traffic.
//!
//! Writes are attempt-aware and idempotent: re-executed map tasks
//! (lineage retries, fetch-failure resubmissions) overwrite their
//! previous bucket and the staging accounting is *reconciled* — the
//! prior attempt's declared bytes are released before the new bytes
//! are charged, so retry never inflates `staged_bytes` toward a
//! spurious [`JobError::StagingOverflow`]. Whole shuffles are
//! released individually when their RDD lineage is dropped
//! ([`ShuffleManager::release`]).
//!
//! Under a wire transport a bucket reaches its origin node's executor
//! only when another node first reads it: a write commits the
//! driver-held frame to the ledger and ships nothing, a same-node
//! fetch reads that frame, and the first cross-node fetch of a bucket
//! puts it on the origin executor and then pulls it back over the
//! socket (see [`ShuffleManager::fetch`]). The ledger lock is never
//! held across a socket — a ship re-checks its slot before and after
//! the put, and a release updates the ledger before it notifies the
//! executors — so one node's slow put stalls nobody else's shuffle I/O.

use std::collections::HashMap;
use std::sync::Arc;

use cluster_model::StageRecord;
use par_pool::Mutex;

use crate::context::TaskContext;
use crate::error::JobError;
use crate::payload::Payload;
use crate::transport::ExecutorManager;

/// Identifier of one shuffle (one wide dependency).
pub type ShuffleId = u64;

/// One map task's output for one reduce partition.
#[derive(Debug, Clone)]
pub struct MapBucket {
    /// Node whose map task produced this bucket.
    pub origin_node: usize,
    /// Attempt number of the map-task execution that wrote it.
    pub attempt: u64,
    /// Sealed frame of serialized pairs. Stored, fetched, and opened
    /// by refcount — the bucket matrix never copies payload bytes.
    pub data: Payload,
    /// Accounted ("declared") size: the logical payload size used for
    /// all byte accounting. Equals the frame's raw (uncompressed)
    /// stream length for real payloads; virtual-mode payloads declare
    /// their full-scale size while shipping only headers.
    pub declared: u64,
    /// Whether the origin node's executor holds a copy: set by the
    /// first cross-node read under a wire transport, never in process.
    pub shipped: bool,
}

/// One cell of the bucket matrix. Three states, not two: a bucket
/// whose executor died must read as *lost* (failing the fetch so the
/// map stage is resubmitted), never as "was empty" — collapsing the
/// two silently returns partial reduce inputs.
#[derive(Debug, Clone)]
enum Slot {
    /// Never written (map task produced nothing for this partition).
    Empty,
    /// Staged map output.
    Data(MapBucket),
    /// Written, then lost with its executor.
    Lost,
}

#[derive(Debug, Default)]
struct ShuffleData {
    /// `buckets[reduce_partition][map_task] = slot` (map task order is
    /// preserved so downstream merging is deterministic).
    buckets: Vec<Vec<Slot>>,
}

/// Counts since the last stage record took them
/// ([`ShuffleManager::tally`]).
#[derive(Debug, Default, Clone, Copy)]
struct ShuffleTally {
    /// Bytes released back to staging: per-shuffle GC plus retry
    /// reconciliation of overwritten buckets.
    staged_released_bytes: u64,
    /// Bytes written off when their executor died (distinct from
    /// orderly releases — these were destroyed, not reconciled).
    staged_lost_bytes: u64,
}

/// State behind one lock: the bucket matrices plus the staging
/// accounting they imply. Invariant: `staged[n]` equals the sum of
/// `declared` over every `Slot::Data` bucket with `origin_node == n`.
#[derive(Debug)]
struct ShuffleInner {
    shuffles: HashMap<ShuffleId, ShuffleData>,
    /// Currently staged bytes per node.
    staged: Vec<u64>,
    /// High-water mark of `staged` per node.
    peak: Vec<u64>,
    tally: ShuffleTally,
}

impl ShuffleInner {
    fn slot_mut(
        &mut self,
        id: ShuffleId,
        map_task: usize,
        reduce_partition: usize,
    ) -> Result<&mut Slot, JobError> {
        self.shuffles
            .get_mut(&id)
            .ok_or_else(|| JobError::MissingBlock(format!("shuffle {id}")))?
            .buckets
            .get_mut(reduce_partition)
            .and_then(|row| row.get_mut(map_task))
            .ok_or_else(|| {
                JobError::MissingBlock(format!(
                    "shuffle {id} bucket ({reduce_partition}, {map_task})"
                ))
            })
    }

    /// The `shipped` flag of a slot while it still holds the bucket
    /// that attempt `attempt` staged on `origin`; `None` once the slot
    /// was rewritten, lost or released.
    fn shipped_mut(
        &mut self,
        id: ShuffleId,
        map_task: usize,
        reduce_partition: usize,
        origin: usize,
        attempt: u64,
    ) -> Option<&mut bool> {
        match self.slot_mut(id, map_task, reduce_partition) {
            Ok(Slot::Data(b)) if b.origin_node == origin && b.attempt == attempt => {
                Some(&mut b.shipped)
            }
            _ => None,
        }
    }

    /// The check half of a write: the slot must be registered and the
    /// origin node's post-reconciliation total must fit `capacity`.
    /// Returns the `(origin, declared, shipped)` of the bucket the
    /// write would replace. A `Lost` slot carries no credit — its bytes
    /// were written off when the executor died; the rewrite charges
    /// fresh.
    fn admit(
        &mut self,
        id: ShuffleId,
        map_task: usize,
        reduce_partition: usize,
        origin_node: usize,
        declared: u64,
        capacity: Option<u64>,
    ) -> Result<Option<(usize, u64, bool)>, JobError> {
        let prev = match self.slot_mut(id, map_task, reduce_partition)? {
            Slot::Data(b) => Some((b.origin_node, b.declared, b.shipped)),
            Slot::Empty | Slot::Lost => None,
        };
        let credit = match prev {
            Some((node, bytes, _)) if node == origin_node => bytes,
            _ => 0,
        };
        let prospective = self.staged[origin_node] - credit + declared;
        match capacity {
            Some(cap) if prospective > cap => Err(JobError::StagingOverflow {
                node: origin_node,
                used: prospective,
                capacity: cap,
            }),
            _ => Ok(prev),
        }
    }
}

/// Global shuffle state shared by all executors (it *is* the network).
#[derive(Debug)]
pub struct ShuffleManager {
    inner: Mutex<ShuffleInner>,
    /// One mutex per origin node, taken only under a wire transport: a
    /// first-read ship holds it across its check, put and mark, and a
    /// stale-copy removal and [`ShuffleManager::drop_node_outputs`]
    /// hold it too, so what executor `n` holds and what the ledger says
    /// `n` holds change together even though `inner` is free while the
    /// bytes cross the socket. Never two at once, and `inner` is only
    /// ever taken inside one, never around.
    ship: Vec<Mutex<()>>,
    capacity: Option<u64>,
    /// Wire transport to executor subprocesses. When set, the bucket
    /// matrix stays the authoritative *ledger* (origin, attempt,
    /// declared bytes — and the driver-side frame, which doubles as
    /// the node's "local disk image" for same-node fetches), but the
    /// remote data path is real: the first cross-node fetch of a
    /// bucket ships its frame to the origin executor, and every
    /// cross-node fetch pulls it back over the socket, with measured
    /// wire bytes recorded on the reading task. Executor `n` holds
    /// exactly the ledger's shipped buckets with origin `n`.
    remote: Option<Arc<ExecutorManager>>,
}

impl ShuffleManager {
    /// Manager for `nodes` nodes with optional per-node staging cap.
    pub fn new(nodes: usize, capacity: Option<u64>) -> Self {
        ShuffleManager {
            inner: Mutex::new(ShuffleInner {
                shuffles: HashMap::new(),
                staged: vec![0; nodes],
                peak: vec![0; nodes],
                tally: ShuffleTally::default(),
            }),
            ship: (0..nodes).map(|_| Mutex::new(())).collect(),
            capacity,
            remote: None,
        }
    }

    /// Route the remote data path through executor subprocesses.
    pub(crate) fn with_remote(mut self, manager: Arc<ExecutorManager>) -> Self {
        self.remote = Some(manager);
        self
    }

    /// Create the bucket matrix for a shuffle.
    pub fn register(&self, id: ShuffleId, map_tasks: usize, reduce_partitions: usize) {
        let mut inner = self.inner.lock();
        inner.shuffles.entry(id).or_insert_with(|| ShuffleData {
            buckets: vec![vec![Slot::Empty; map_tasks]; reduce_partitions],
        });
    }

    /// Stage one map task's bucket for one reduce partition. Fails the
    /// job when the origin node's staging capacity is exceeded.
    ///
    /// The write is keyed by the attempt carried on `tc`: overwriting
    /// an earlier attempt's bucket releases its declared bytes first
    /// (idempotent re-staging), and empty buckets are never stored. A
    /// capacity failure mutates nothing.
    ///
    /// The write is one critical section on the ledger in every mode:
    /// it commits the driver-held frame and ships nothing (a bucket
    /// reaches an executor on its first cross-node read). Under a wire
    /// transport, replacing a bucket some attempt already shipped also
    /// removes that stale executor copy, after the commit.
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &self,
        id: ShuffleId,
        map_task: usize,
        reduce_partition: usize,
        origin_node: usize,
        data: Payload,
        declared: u64,
        tc: &TaskContext,
    ) -> Result<(), JobError> {
        // Empty buckets are skipped (map tasks keep the bucket matrix
        // sparse); a `None` slot already reads as "no data".
        if data.raw_len() == 0 && declared == 0 {
            return Ok(());
        }
        let wire = data.wire_hint(declared);
        let mut inner = self.inner.lock();
        // Registered slot and capacity on the post-reconciliation
        // total, before any mutation: a rejected write leaves
        // accounting untouched.
        let prev = inner.admit(
            id,
            map_task,
            reduce_partition,
            origin_node,
            declared,
            self.capacity,
        )?;
        if let Some((node, bytes, _)) = prev {
            inner.staged[node] -= bytes;
            inner.tally.staged_released_bytes += bytes;
        }
        inner.staged[origin_node] += declared;
        if inner.staged[origin_node] > inner.peak[origin_node] {
            inner.peak[origin_node] = inner.staged[origin_node];
        }
        *inner
            .slot_mut(id, map_task, reduce_partition)
            .expect("slot admitted under this guard") = Slot::Data(MapBucket {
            origin_node,
            attempt: tc.attempt(),
            data,
            declared,
            shipped: false,
        });
        drop(inner);
        if let (Some(manager), Some((prev_node, _, true))) = (&self.remote, prev) {
            self.drop_stale(manager, prev_node, id, map_task, reduce_partition);
        }
        tc.add_shuffle_write(declared, wire);
        Ok(())
    }

    /// A rewrite strands the replaced attempt's shipped copy on
    /// `node`'s executor: drop it there so executor inventories keep
    /// matching this ledger. It is confirmed under `node`'s own ship
    /// mutex, because a first read may since have shipped the new
    /// bucket to `node` over it, and that copy is the ledger's.
    fn drop_stale(
        &self,
        manager: &ExecutorManager,
        node: usize,
        id: ShuffleId,
        map_task: usize,
        reduce_partition: usize,
    ) {
        let _turn = self.ship[node].lock();
        let reshipped = matches!(
            self.inner.lock().slot_mut(id, map_task, reduce_partition),
            Ok(Slot::Data(b)) if b.origin_node == node && b.shipped
        );
        if !reshipped {
            manager.remove_block(node, id, map_task as u64, reduce_partition as u64);
        }
    }

    /// First cross-node read of `bucket`: put its frame on the origin
    /// node's executor and mark the slot shipped. Under the origin's
    /// ship mutex the slot is checked (a reader that lost the race to
    /// ship finds it shipped and puts nothing), the put runs with the
    /// ledger unlocked, and the mark checks again. A slot that was
    /// rewritten, released or lost meanwhile fails the fetch typed, and
    /// a copy that landed for it is removed again.
    fn ship(
        &self,
        manager: &ExecutorManager,
        id: ShuffleId,
        map_task: usize,
        reduce_partition: usize,
        bucket: &MapBucket,
    ) -> Result<(), JobError> {
        let node = bucket.origin_node;
        let failed = |reason: String| JobError::FetchFailed {
            shuffle: id,
            partition: reduce_partition,
            reason,
        };
        let moved = || failed(format!("map output {map_task} changed while it shipped"));
        let _turn = self.ship[node].lock();
        let shipped = self
            .inner
            .lock()
            .shipped_mut(id, map_task, reduce_partition, node, bucket.attempt)
            .copied();
        match shipped {
            Some(true) => return Ok(()),
            Some(false) => {}
            None => return Err(moved()),
        }
        let (map, reduce) = (map_task as u64, reduce_partition as u64);
        manager
            .put_block(node, id, map, reduce, bucket.data.frame())
            .map_err(|e| failed(format!("ship to executor {node}: {e}")))?;
        let mut inner = self.inner.lock();
        match inner.shipped_mut(id, map_task, reduce_partition, node, bucket.attempt) {
            Some(shipped) => {
                *shipped = true;
                Ok(())
            }
            None => {
                drop(inner);
                manager.remove_block(node, id, map, reduce);
                Err(moved())
            }
        }
    }

    /// Fetch all map buckets for `reduce_partition`, recording
    /// local/remote read bytes on the calling task. Buckets come back
    /// in map-task order as refcounted [`Payload`] frames — the fetch
    /// path performs no byte copies. A `Slot::Lost` bucket (its
    /// executor died) fails the fetch with [`JobError::FetchFailed`] —
    /// the reduce must not proceed on partial inputs; the driver
    /// resubmits the producing map stage instead.
    ///
    /// The row is snapshotted (refcount clones) under the ledger lock
    /// and read after releasing it, so remote fetches from different
    /// executors overlap. Under a wire transport a cross-node read of a
    /// bucket no executor holds yet ships it first (at most once per
    /// bucket, however many readers race). A fetch that loses a race
    /// with a rewrite, a release or an executor death fails typed, like
    /// any other lost bucket.
    pub fn fetch(
        &self,
        id: ShuffleId,
        reduce_partition: usize,
        tc: &TaskContext,
    ) -> Result<Vec<Payload>, JobError> {
        if tc.take_chaos_fetch_failure() {
            return Err(JobError::FetchFailed {
                shuffle: id,
                partition: reduce_partition,
                reason: "injected fetch failure (chaos)".to_string(),
            });
        }
        let row = {
            let inner = self.inner.lock();
            let shuffle = inner
                .shuffles
                .get(&id)
                .ok_or_else(|| JobError::MissingBlock(format!("shuffle {id}")))?;
            shuffle
                .buckets
                .get(reduce_partition)
                .ok_or_else(|| {
                    JobError::MissingBlock(format!("shuffle {id} partition {reduce_partition}"))
                })?
                .clone()
        };
        let mut out = Vec::new();
        for (map_task, slot) in row.into_iter().enumerate() {
            let bucket = match slot {
                // Empty buckets are never written (map tasks skip them
                // to keep the matrix sparse): genuinely no data.
                Slot::Empty => continue,
                Slot::Lost => {
                    return Err(JobError::FetchFailed {
                        shuffle: id,
                        partition: reduce_partition,
                        reason: format!("map output {map_task} lost with its executor"),
                    });
                }
                Slot::Data(b) => b,
            };
            if bucket.data.raw_len() == 0 {
                continue;
            }
            if bucket.origin_node == tc.node() {
                // Local fetch: the node reads its own staged output —
                // the driver-held frame in every mode (an executor's
                // copy is the same bytes; shipping them to ourselves
                // would model a network hop that the real system
                // doesn't take either, which is why a bucket only this
                // node reads never reaches an executor).
                tc.add_local_read(bucket.declared, bucket.data.wire_hint(bucket.declared));
                out.push(bucket.data);
            } else if let Some(manager) = &self.remote {
                // Remote fetch: a real frame handoff from the origin
                // node's executor, which gets the bucket on its first
                // cross-node read. A miss means that executor died and
                // was respawned empty since the ship — the same
                // condition `Slot::Lost` models — so it fails the
                // fetch the same way, driving map-stage resubmission.
                if !bucket.shipped {
                    self.ship(manager, id, map_task, reduce_partition, &bucket)?;
                }
                match manager.fetch_block(
                    bucket.origin_node,
                    id,
                    map_task as u64,
                    reduce_partition as u64,
                ) {
                    Ok(Some((payload, wire))) => {
                        tc.add_remote_read(bucket.declared, wire);
                        out.push(payload);
                    }
                    Ok(None) => {
                        return Err(JobError::FetchFailed {
                            shuffle: id,
                            partition: reduce_partition,
                            reason: format!(
                                "executor {} no longer holds map output {map_task}",
                                bucket.origin_node
                            ),
                        });
                    }
                    Err(e) => {
                        return Err(JobError::FetchFailed {
                            shuffle: id,
                            partition: reduce_partition,
                            reason: format!("fetch from executor {}: {e}", bucket.origin_node),
                        });
                    }
                }
            } else {
                tc.add_remote_read(bucket.declared, bucket.data.wire_hint(bucket.declared));
                // The stored frame itself — never a byte copy.
                out.push(bucket.data);
            }
        }
        Ok(out)
    }

    /// Current staged bytes on `node`.
    pub fn staged_bytes(&self, node: usize) -> u64 {
        self.inner.lock().staged[node]
    }

    /// High-water mark of staged bytes on `node`.
    pub fn peak_staged_bytes(&self, node: usize) -> u64 {
        self.inner.lock().peak[node]
    }

    /// Add the counts since the last take to `record`; `take` also
    /// resets them (see [`crate::SparkContext::summary`]).
    pub(crate) fn tally(&self, record: &mut StageRecord, take: bool) {
        let mut inner = self.inner.lock();
        let t = if take {
            std::mem::take(&mut inner.tally)
        } else {
            inner.tally
        };
        record.staged_released_bytes += t.staged_released_bytes;
        record.staged_lost_bytes += t.staged_lost_bytes;
    }

    /// Executor death: every bucket `node` staged becomes
    /// `Slot::Lost`, shipped or not (reduces fetching it see
    /// [`JobError::FetchFailed`]), and its bytes leave the staging
    /// accounting as *lost*, not released. Returns `(buckets, bytes)`
    /// destroyed.
    ///
    /// Under a wire transport this runs after the executor was
    /// replaced, and waits out a ship to `node` in flight. A ship that
    /// landed on the replacement left a copy of a bucket the ledger now
    /// calls lost, so every shipped bucket is also removed there.
    pub fn drop_node_outputs(&self, node: usize) -> (u64, u64) {
        let _turn = self.remote.as_ref().map(|_| self.ship[node].lock());
        let mut inner = self.inner.lock();
        let mut buckets_lost = 0u64;
        let mut bytes_lost = 0u64;
        let mut shipped = Vec::new();
        for (&id, data) in inner.shuffles.iter_mut() {
            for (reduce, row) in data.buckets.iter_mut().enumerate() {
                for (map, slot) in row.iter_mut().enumerate() {
                    if let Slot::Data(b) = slot {
                        if b.origin_node == node {
                            buckets_lost += 1;
                            bytes_lost += b.declared;
                            if b.shipped {
                                shipped.push((id, map as u64, reduce as u64));
                            }
                            *slot = Slot::Lost;
                        }
                    }
                }
            }
        }
        inner.staged[node] -= bytes_lost;
        inner.tally.staged_lost_bytes += bytes_lost;
        drop(inner);
        if let Some(manager) = &self.remote {
            for (id, map, reduce) in shipped {
                manager.remove_block(node, id, map, reduce);
            }
        }
        (buckets_lost, bytes_lost)
    }

    /// Verify the staging invariant: `staged[n]` must equal the sum of
    /// declared bytes over every stored `Slot::Data` bucket with
    /// origin `n`. Returns a description of the first discrepancy.
    pub fn audit(&self) -> Result<(), String> {
        let inner = self.inner.lock();
        let mut expect = vec![0u64; inner.staged.len()];
        for (id, data) in &inner.shuffles {
            for row in &data.buckets {
                for slot in row {
                    if let Slot::Data(b) = slot {
                        if b.origin_node >= expect.len() {
                            return Err(format!(
                                "shuffle {id}: bucket origin {} out of range",
                                b.origin_node
                            ));
                        }
                        expect[b.origin_node] += b.declared;
                    }
                }
            }
        }
        for (node, (&want, &got)) in expect.iter().zip(inner.staged.iter()).enumerate() {
            if want != got {
                return Err(format!(
                    "node {node}: staged counter {got} != stored bucket bytes {want}"
                ));
            }
        }
        Ok(())
    }

    /// Release one shuffle: drop its buckets and return their declared
    /// bytes to the owning nodes' staging budgets. Called when the
    /// consuming RDD lineage is dropped (per-shuffle GC); releasing an
    /// unknown or already-released id is a no-op.
    pub fn release(&self, id: ShuffleId) {
        let mut inner = self.inner.lock();
        let Some(data) = inner.shuffles.remove(&id) else {
            return;
        };
        let mut released = 0u64;
        for row in &data.buckets {
            for slot in row {
                if let Slot::Data(bucket) = slot {
                    inner.staged[bucket.origin_node] -= bucket.declared;
                    released += bucket.declared;
                }
            }
        }
        inner.tally.staged_released_bytes += released;
        drop(inner);
        // The ledger is settled and unlocked before the bucket frames
        // are freed and before the executors hear of it: running tasks
        // lock it too, and must queue behind neither the frees nor the
        // notification (which waits for whatever the sockets carry).
        drop(data);
        if let Some(manager) = &self.remote {
            manager.shuffle_release(id);
        }
    }

    /// Number of shipped `Slot::Data` buckets per origin node — the
    /// driver-side inventory an executor audit checks each subprocess
    /// against.
    pub fn bucket_counts(&self) -> Vec<u64> {
        let inner = self.inner.lock();
        let mut counts = vec![0u64; inner.staged.len()];
        for data in inner.shuffles.values() {
            for row in &data.buckets {
                for slot in row {
                    if let Slot::Data(b) = slot {
                        counts[b.origin_node] += u64::from(b.shipped);
                    }
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TaskContext;
    use crate::payload::{Compression, FRAME_HEADER};
    use bytes::Bytes;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// Seal a raw byte run into an uncompressed frame.
    fn pay(data: &[u8]) -> Payload {
        Payload::seal(Bytes::copy_from_slice(data), Compression::None)
    }

    /// The counts no stage record has taken yet.
    fn tally(sm: &ShuffleManager) -> ShuffleTally {
        sm.inner.lock().tally
    }

    /// The raw streams of fetched frames, for equality assertions.
    fn opened(got: &[Payload]) -> Vec<Vec<u8>> {
        got.iter().map(|p| p.open().unwrap().to_vec()).collect()
    }

    #[test]
    fn write_then_fetch_roundtrips_in_map_order() {
        let sm = ShuffleManager::new(2, None);
        sm.register(1, 3, 2);
        let tc0 = TaskContext::new(0);
        let tc1 = TaskContext::new(1);
        sm.write(1, 0, 0, 0, pay(b"aa"), 2, &tc0).unwrap();
        sm.write(1, 1, 0, 1, pay(b"bb"), 2, &tc1).unwrap();
        sm.write(1, 2, 0, 0, pay(b"cc"), 2, &tc0).unwrap();
        sm.write(1, 0, 1, 0, pay(b""), 0, &tc0).unwrap();
        sm.write(1, 1, 1, 1, pay(b""), 0, &tc1).unwrap();
        sm.write(1, 2, 1, 0, pay(b""), 0, &tc0).unwrap();
        let reader = TaskContext::new(0);
        let got = sm.fetch(1, 0, &reader).unwrap();
        assert_eq!(
            opened(&got),
            vec![b"aa".to_vec(), b"bb".to_vec(), b"cc".to_vec()]
        );
        let rec = reader.snapshot();
        assert_eq!(rec.local_read_bytes, 4); // aa + cc from node 0
        assert_eq!(rec.remote_read_bytes, 2); // bb from node 1
    }

    #[test]
    fn fetch_shares_the_written_frame_zero_copy() {
        let sm = ShuffleManager::new(1, None);
        sm.register(11, 1, 1);
        let tc = TaskContext::new(0);
        let payload = pay(&[7u8; 1024]);
        let frame_ptr = payload.frame().as_ptr() as usize;
        sm.write(11, 0, 0, 0, payload, 1024, &tc).unwrap();
        let got = sm.fetch(11, 0, &tc).unwrap();
        assert_eq!(got.len(), 1);
        // The fetched frame is the written allocation (refcount bump)…
        assert_eq!(got[0].frame().as_ptr() as usize, frame_ptr);
        // …and opening it slices that same allocation: the read path
        // does zero full-buffer copies end to end.
        let body = got[0].open().unwrap();
        assert_eq!(body.as_ptr() as usize, frame_ptr + FRAME_HEADER);
        assert_eq!(body.len(), 1024);
    }

    #[test]
    fn compressed_buckets_declare_logical_but_report_wire() {
        let sm = ShuffleManager::new(2, None);
        sm.register(12, 1, 1);
        let tc = TaskContext::new(0);
        let p = Payload::seal(Bytes::from(vec![0u8; 4096]), Compression::Lz4);
        assert!(p.is_compressed());
        let wire = p.wire_len();
        assert!(wire < 4096);
        sm.write(12, 0, 0, 0, p, 4096, &tc).unwrap();
        // The staging ledger runs on declared (logical) bytes — wire
        // compression never changes capacity or reconciliation math.
        assert_eq!(sm.staged_bytes(0), 4096);
        let w = tc.snapshot();
        assert_eq!(w.shuffle_write_bytes, 4096);
        assert_eq!(w.shuffle_write_wire_bytes, wire);
        let remote = TaskContext::new(1);
        let got = sm.fetch(12, 0, &remote).unwrap();
        assert_eq!(got[0].open().unwrap(), vec![0u8; 4096]);
        let r = remote.snapshot();
        assert_eq!(r.remote_read_bytes, 4096);
        assert_eq!(r.remote_read_wire_bytes, wire);
        // Uncompressed frames report no wire hint: the cost model keeps
        // its assumed-ratio pricing for them.
        let plain = TaskContext::new(0);
        sm.register(13, 1, 1);
        sm.write(13, 0, 0, 0, pay(b"abcd"), 4, &plain).unwrap();
        assert_eq!(plain.snapshot().shuffle_write_wire_bytes, 0);
    }

    #[test]
    fn staging_capacity_overflow_fails() {
        let sm = ShuffleManager::new(1, Some(10));
        sm.register(7, 2, 1);
        let tc = TaskContext::new(0);
        sm.write(7, 0, 0, 0, pay(&[0u8; 8]), 8, &tc).unwrap();
        let err = sm.write(7, 1, 0, 0, pay(&[0u8; 8]), 8, &tc).unwrap_err();
        assert!(matches!(err, JobError::StagingOverflow { node: 0, .. }));
        // The rejected write mutated nothing.
        assert_eq!(sm.staged_bytes(0), 8);
    }

    #[test]
    fn rewrite_reconciles_staging_instead_of_inflating() {
        // Capacity holds one attempt's bucket but not two: retry must
        // release the first attempt's bytes before charging the new.
        let sm = ShuffleManager::new(1, Some(10));
        sm.register(7, 1, 1);
        let tc = TaskContext::new(0);
        sm.write(7, 0, 0, 0, pay(&[0u8; 8]), 8, &tc).unwrap();
        sm.write(7, 0, 0, 0, pay(&[1u8; 8]), 8, &tc).unwrap();
        assert_eq!(sm.staged_bytes(0), 8);
        assert_eq!(tally(&sm).staged_released_bytes, 8);
        let got = sm.fetch(7, 0, &TaskContext::new(0)).unwrap();
        assert_eq!(opened(&got), vec![vec![1u8; 8]]);
    }

    #[test]
    fn rewrite_from_another_node_moves_the_accounting() {
        let sm = ShuffleManager::new(2, None);
        sm.register(9, 1, 1);
        sm.write(9, 0, 0, 0, pay(b"xyz"), 3, &TaskContext::new(0))
            .unwrap();
        assert_eq!((sm.staged_bytes(0), sm.staged_bytes(1)), (3, 0));
        // The retry landed on node 1 (Spark-style placement rotation).
        sm.write(9, 0, 0, 1, pay(b"xyz"), 3, &TaskContext::new(1))
            .unwrap();
        assert_eq!((sm.staged_bytes(0), sm.staged_bytes(1)), (0, 3));
    }

    #[test]
    fn empty_buckets_are_not_staged() {
        let sm = ShuffleManager::new(1, Some(4));
        sm.register(5, 2, 1);
        let tc = TaskContext::new(0);
        sm.write(5, 0, 0, 0, pay(b""), 0, &tc).unwrap();
        assert_eq!(sm.staged_bytes(0), 0);
        assert_eq!(tc.snapshot().shuffle_write_bytes, 0);
        assert!(sm.fetch(5, 0, &tc).unwrap().is_empty());
    }

    #[test]
    fn release_returns_staged_bytes_per_shuffle() {
        let sm = ShuffleManager::new(2, Some(100));
        sm.register(1, 1, 1);
        sm.register(2, 1, 1);
        sm.write(1, 0, 0, 0, pay(b"aaaa"), 4, &TaskContext::new(0))
            .unwrap();
        sm.write(2, 0, 0, 1, pay(b"bb"), 2, &TaskContext::new(1))
            .unwrap();
        sm.release(1);
        assert_eq!((sm.staged_bytes(0), sm.staged_bytes(1)), (0, 2));
        assert_eq!(tally(&sm).staged_released_bytes, 4);
        assert!(sm.fetch(1, 0, &TaskContext::new(0)).is_err());
        assert!(sm.fetch(2, 0, &TaskContext::new(0)).is_ok());
        sm.release(1); // double release is a no-op
        assert_eq!(tally(&sm).staged_released_bytes, 4);
        // A stage record takes the counts; the next one starts afresh.
        let mut record = StageRecord::default();
        sm.tally(&mut record, true);
        assert_eq!(record.staged_released_bytes, 4);
        assert_eq!(tally(&sm).staged_released_bytes, 0);
    }

    #[test]
    fn peak_tracks_high_water_mark_across_release() {
        let sm = ShuffleManager::new(1, None);
        sm.register(4, 2, 1);
        let tc = TaskContext::new(0);
        sm.write(4, 0, 0, 0, pay(&[0u8; 6]), 6, &tc).unwrap();
        sm.write(4, 1, 0, 0, pay(&[0u8; 4]), 4, &tc).unwrap();
        sm.release(4);
        assert_eq!(sm.staged_bytes(0), 0);
        assert_eq!(sm.peak_staged_bytes(0), 10);
    }

    #[test]
    fn lost_buckets_fail_the_fetch_instead_of_reading_as_empty() {
        let sm = ShuffleManager::new(2, None);
        sm.register(1, 2, 1);
        sm.write(1, 0, 0, 0, pay(b"aa"), 2, &TaskContext::new(0))
            .unwrap();
        sm.write(1, 1, 0, 1, pay(b"bb"), 2, &TaskContext::new(1))
            .unwrap();
        let (buckets, bytes) = sm.drop_node_outputs(1);
        assert_eq!((buckets, bytes), (1, 2));
        assert_eq!(sm.staged_bytes(1), 0);
        assert_eq!(tally(&sm).staged_lost_bytes, 2);
        assert_eq!(tally(&sm).staged_released_bytes, 0, "loss is not a release");
        let err = sm.fetch(1, 0, &TaskContext::new(0)).unwrap_err();
        assert!(
            matches!(
                err,
                JobError::FetchFailed {
                    shuffle: 1,
                    partition: 0,
                    ..
                }
            ),
            "got {err:?}"
        );
        sm.audit().unwrap();
        // A map re-run rewrites the lost bucket; fetch recovers fully.
        sm.write(1, 1, 0, 0, pay(b"bb"), 2, &TaskContext::new(0))
            .unwrap();
        let got = sm.fetch(1, 0, &TaskContext::new(0)).unwrap();
        assert_eq!(opened(&got), vec![b"aa".to_vec(), b"bb".to_vec()]);
        assert_eq!(sm.staged_bytes(0), 4, "rewrite charges fresh bytes");
        sm.audit().unwrap();
    }

    #[test]
    fn chaos_fetch_failure_fires_once_per_task() {
        let sm = ShuffleManager::new(1, None);
        sm.register(6, 1, 1);
        let writer = TaskContext::new(0);
        sm.write(6, 0, 0, 0, pay(b"zz"), 2, &writer).unwrap();
        let doomed = TaskContext::new(0).with_chaos(Some(&crate::sim::ChaosEvent::FetchFailure));
        let err = sm.fetch(6, 0, &doomed).unwrap_err();
        assert!(matches!(err, JobError::FetchFailed { shuffle: 6, .. }));
        // Consumed: the retry on the same context succeeds.
        assert!(sm.fetch(6, 0, &doomed).is_ok());
    }

    #[test]
    fn unwritten_buckets_read_as_empty() {
        let sm = ShuffleManager::new(1, None);
        sm.register(3, 2, 1);
        let tc = TaskContext::new(0);
        sm.write(3, 0, 0, 0, pay(b"x"), 1, &tc).unwrap();
        let got = sm.fetch(3, 0, &tc).unwrap();
        assert_eq!(opened(&got), vec![b"x".to_vec()]);
    }

    // -----------------------------------------------------------------
    // Under a wire transport: two real `sparklet-executor` subprocesses
    // (built by any `cargo test` that also builds this package's
    // integration tests, or by `cargo build -p sparklet --bins`).
    // -----------------------------------------------------------------

    use crate::transport::TransportMode;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    /// How long a thread that must not be blocked gets to finish.
    const GRACE: Duration = Duration::from_secs(20);

    fn remote_pair() -> (Arc<ExecutorManager>, ShuffleManager) {
        let manager = Arc::new(
            ExecutorManager::launch(TransportMode::Unix, 2).expect("launch two executors"),
        );
        let sm = ShuffleManager::new(2, None).with_remote(Arc::clone(&manager));
        (manager, sm)
    }

    /// Ledger invariant, and every executor holds exactly the buckets
    /// the ledger says it shipped.
    fn assert_balanced(manager: &ExecutorManager, sm: &ShuffleManager) {
        sm.audit().expect("staging ledger");
        manager
            .audit(Some(&sm.bucket_counts()))
            .expect("executor inventories match the ledger");
    }

    /// A bucket body that names who wrote it.
    fn body(tag: u8) -> Vec<u8> {
        vec![tag; 64 * 1024]
    }

    /// Segment files in `node`'s executor directory.
    fn segments(manager: &ExecutorManager, node: usize) -> usize {
        let dir = manager
            .segment_dir(node)
            .expect("Unix executors keep segments");
        std::fs::read_dir(dir).expect("node directory").count()
    }

    /// Spin until some thread holds `node`'s ship mutex; `false` if
    /// none did within [`GRACE`].
    fn ship_taken(sm: &ShuffleManager, node: usize) -> bool {
        let deadline = Instant::now() + GRACE;
        while sm.ship[node].try_lock().is_some() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// The committed bucket of one slot, as a fetch snapshots it.
    fn bucket(sm: &ShuffleManager, id: ShuffleId, map: usize, reduce: usize) -> MapBucket {
        match sm.inner.lock().slot_mut(id, map, reduce) {
            Ok(Slot::Data(b)) => b.clone(),
            other => panic!("slot ({map}, {reduce}) of shuffle {id} is {other:?}"),
        }
    }

    /// The committed bucket of one slot: `(origin, attempt, bytes)`.
    fn committed(
        sm: &ShuffleManager,
        id: ShuffleId,
        map: usize,
        reduce: usize,
    ) -> (usize, u64, Vec<u8>) {
        let b = bucket(sm, id, map, reduce);
        (b.origin_node, b.attempt, b.data.open().unwrap().to_vec())
    }

    #[test]
    fn remote_bucket_read_only_on_its_own_node_never_reaches_an_executor() {
        let (manager, sm) = remote_pair();
        sm.register(1, 2, 2);
        for node in 0..2 {
            let tc = TaskContext::new(node);
            sm.write(1, node, node, node, pay(&body(1)), 5, &tc)
                .unwrap();
        }
        for node in 0..2 {
            let reader = TaskContext::new(node);
            let got = sm.fetch(1, node, &reader).unwrap();
            assert_eq!(opened(&got), vec![body(1)]);
            assert_eq!(reader.snapshot().remote_read_bytes, 0);
        }
        for node in 0..2 {
            assert_eq!(manager.wire_bytes(node), (0, 0), "node {node} saw traffic");
        }
        assert_eq!(sm.bucket_counts(), vec![0, 0]);
        assert_balanced(&manager, &sm);
        for node in 0..2 {
            assert_eq!(segments(&manager, node), 0, "node {node} holds a segment");
            let copy = manager.fetch_block(node, 1, node as u64, node as u64);
            assert!(copy.expect("fetch").is_none(), "node {node} holds a copy");
        }
    }

    #[test]
    fn remote_ship_leaves_the_ledger_unlocked() {
        let (manager, sm) = remote_pair();
        sm.register(1, 2, 1);
        sm.write(1, 0, 0, 0, pay(&body(1)), 7, &TaskContext::new(0))
            .unwrap();
        let hold = manager.hold_slot(0);
        let (done, wait_done) = mpsc::channel();
        let (parked, probed, got) = std::thread::scope(|s| {
            // Node 1's first read of node 0's bucket checks the slot,
            // then parks inside `put_block` behind the held slot.
            let read = s.spawn(|| sm.fetch(1, 0, &TaskContext::new(1)));
            s.spawn(|| {
                // Once the ship has its turn it is a lock and a lookup
                // away from the socket; everything below needs the
                // ledger, round after round, while it stays there.
                if !ship_taken(&sm, 0) {
                    return done.send(Err("the read never took node 0's ship turn"));
                }
                sm.write(1, 1, 0, 1, pay(&body(2)), 9, &TaskContext::new(1))
                    .expect("node 1 stages while node 0's put is parked");
                let unshipped = (0..1000).all(|_| {
                    std::thread::yield_now();
                    sm.bucket_counts() == [0, 0]
                        && (sm.staged_bytes(0), sm.staged_bytes(1)) == (7, 9)
                });
                done.send(Ok(unshipped))
            });
            let probed = wait_done.recv_timeout(GRACE);
            let parked = !read.is_finished();
            drop(hold);
            let got = read
                .join()
                .unwrap()
                .expect("the parked ship lands once the slot frees");
            (parked, probed, got)
        });
        let unshipped = probed
            .expect("the ledger stayed locked across a ship")
            .expect("probe");
        assert!(
            unshipped,
            "the parked put must not have been marked shipped"
        );
        assert!(parked, "the put cannot have passed a held slot");
        // The read's snapshot predates node 1's write: one bucket.
        assert_eq!(opened(&got), vec![body(1)]);
        assert_eq!(sm.bucket_counts(), vec![1, 0]);
        assert_eq!(segments(&manager, 0), 1);
        assert_balanced(&manager, &sm);
    }

    #[test]
    fn remote_concurrent_cross_node_readers_ship_a_bucket_once() {
        let (manager, sm) = remote_pair();
        sm.register(1, 1, 1);
        let frame_len = pay(&body(1)).frame().len() as u64;
        sm.write(1, 0, 0, 0, pay(&body(1)), 3, &TaskContext::new(0))
            .unwrap();
        // What a second reader on node 1 snapshotted before the first
        // one shipped the bucket.
        let stale = bucket(&sm, 1, 0, 0);
        assert!(!stale.shipped);
        let (tx_before, _) = manager.wire_bytes(0);
        let hold = manager.hold_slot(0);
        let (taken, first, second) = std::thread::scope(|s| {
            // The first reader parks in its put with node 0's ship
            // turn; the second queues behind that turn.
            let first = s.spawn(|| sm.fetch(1, 0, &TaskContext::new(1)));
            let taken = ship_taken(&sm, 0);
            let second = s.spawn(|| {
                sm.ship(&manager, 1, 0, 0, &stale)?;
                manager.fetch_block(0, 1, 0, 0)
            });
            drop(hold);
            (taken, first.join().unwrap(), second.join().unwrap())
        });
        assert!(taken, "the first reader never took node 0's ship turn");
        assert_eq!(opened(&first.expect("first read")), vec![body(1)]);
        let (second, _) = second.expect("second read").expect("node 0 holds it");
        assert_eq!(second.open().unwrap(), body(1));
        // One segment's bytes went out, plus the small socket messages.
        let (tx_after, _) = manager.wire_bytes(0);
        let sent = tx_after - tx_before;
        assert!(
            (frame_len..2 * frame_len).contains(&sent),
            "{sent} B sent for a {frame_len} B bucket"
        );
        assert_eq!(segments(&manager, 0), 1);
        assert_eq!(sm.bucket_counts(), vec![1, 0]);
        assert_balanced(&manager, &sm);
    }

    #[test]
    fn remote_release_notifies_after_unlocking_the_ledger() {
        let (manager, sm) = remote_pair();
        for id in [1, 2] {
            sm.register(id, 1, 1);
            sm.write(id, 0, 0, 1, pay(&body(id as u8)), 5, &TaskContext::new(1))
                .unwrap();
        }
        // The release updates the ledger and then notifies node 0
        // first, which is parked; the probe thread can only get at the
        // ledger to see the release if the notification is sent with
        // the ledger unlocked.
        let hold = manager.hold_slot(0);
        let (done, wait_done) = mpsc::channel();
        let (parked, seen) = std::thread::scope(|s| {
            let notifier = s.spawn(|| sm.release(1));
            s.spawn(|| {
                while !(sm.fetch(1, 0, &TaskContext::new(1)).is_err() && sm.staged_bytes(1) == 5) {
                    std::thread::yield_now();
                }
                done.send(()).expect("main is waiting");
            });
            let seen = wait_done.recv_timeout(GRACE);
            let parked = !notifier.is_finished();
            drop(hold);
            notifier.join().unwrap();
            (parked, seen)
        });
        seen.expect("the ledger stayed locked across a notification");
        assert!(parked, "the notification cannot have passed a held slot");
        assert_balanced(&manager, &sm);
    }

    #[test]
    fn remote_attempts_on_one_slot_keep_executors_and_ledger_in_step() {
        let (manager, sm) = remote_pair();
        sm.register(1, 2, 2);
        // Six live attempts of each map task: a failed stage leaves its
        // attempts running, and a fetch-failure resubmission re-runs
        // the same map partitions over them. Map task 0 runs every
        // attempt on node 0, map task 1 alternates nodes. Readers on
        // both nodes ship and fetch the buckets while they change.
        let tag = |node: usize, attempt: u64| 16 * node as u8 + attempt as u8;
        let writing = AtomicBool::new(true);
        let start = Barrier::new(2 + 12);
        std::thread::scope(|s| {
            for node in 0..2 {
                let (sm, start, writing) = (&sm, &start, &writing);
                s.spawn(move || {
                    start.wait();
                    while writing.load(Ordering::Acquire) {
                        for reduce in 0..2 {
                            match sm.fetch(1, reduce, &TaskContext::new(node)) {
                                Ok(got) => {
                                    for bucket in opened(&got) {
                                        assert_eq!(bucket, body(bucket[0]), "a torn bucket");
                                    }
                                }
                                Err(JobError::FetchFailed { .. }) => {}
                                Err(other) => panic!("fetch failed untyped: {other:?}"),
                            }
                        }
                    }
                });
            }
            let writers: Vec<_> = (0..2usize)
                .flat_map(|map| (1..=6u64).map(move |attempt| (map, attempt)))
                .map(|(map, attempt)| {
                    let node = if map == 0 { 0 } else { attempt as usize % 2 };
                    let (sm, start) = (&sm, &start);
                    s.spawn(move || {
                        let tc = TaskContext::for_attempt(node, attempt);
                        start.wait();
                        for reduce in 0..2 {
                            sm.write(
                                1,
                                map,
                                reduce,
                                node,
                                pay(&body(tag(node, attempt))),
                                10,
                                &tc,
                            )
                            .expect("write");
                        }
                    })
                })
                .collect();
            for writer in writers {
                writer.join().unwrap();
            }
            writing.store(false, Ordering::Release);
        });
        assert_balanced(&manager, &sm);
        assert_eq!(sm.staged_bytes(0) + sm.staged_bytes(1), 4 * 10);
        let check = |want_shipped: bool| {
            for map in 0..2 {
                for reduce in 0..2 {
                    let (origin, attempt, bytes) = committed(&sm, 1, map, reduce);
                    assert_eq!(bytes, body(tag(origin, attempt)));
                    // The origin's executor holds the ledger's last
                    // bucket or, unshipped, nothing; the other node
                    // holds nothing either way.
                    let (m, r) = (map as u64, reduce as u64);
                    let held = manager.fetch_block(origin, 1, m, r).expect("fetch");
                    match held {
                        Some((served, _)) => assert_eq!(served.open().unwrap(), bytes),
                        None => assert!(!want_shipped, "map {map} reduce {reduce} unshipped"),
                    }
                    let stray = manager.fetch_block(1 - origin, 1, m, r).expect("fetch");
                    assert!(stray.is_none(), "map {map} reduce {reduce} stranded a copy");
                }
            }
        };
        check(false);
        // Quiet reads from both nodes ship whatever was still unshipped.
        for node in 0..2 {
            for reduce in 0..2 {
                let got = sm.fetch(1, reduce, &TaskContext::new(node)).unwrap();
                let want: Vec<_> = (0..2).map(|map| committed(&sm, 1, map, reduce).2).collect();
                assert_eq!(opened(&got), want);
            }
        }
        check(true);
        assert_balanced(&manager, &sm);
        // A retry that moved nodes after its bucket shipped, with
        // nothing else in flight: the stale copy on node 0 goes.
        let attempt = TaskContext::for_attempt;
        sm.register(2, 1, 1);
        sm.write(2, 0, 0, 0, pay(&body(3)), 10, &attempt(0, 1))
            .unwrap();
        sm.fetch(2, 0, &TaskContext::new(1)).unwrap();
        assert!(manager.fetch_block(0, 2, 0, 0).unwrap().is_some());
        sm.write(2, 0, 0, 1, pay(&body(4)), 10, &attempt(1, 2))
            .unwrap();
        assert_eq!(committed(&sm, 2, 0, 0), (1, 2, body(4)));
        assert!(manager.fetch_block(0, 2, 0, 0).unwrap().is_none());
        assert_balanced(&manager, &sm);
        // A retry on the node its shipped predecessor sits on: the
        // stale copy goes too, and the next remote read ships anew.
        sm.fetch(2, 0, &TaskContext::new(0)).unwrap();
        sm.write(2, 0, 0, 1, pay(&body(5)), 10, &attempt(1, 3))
            .unwrap();
        assert!(manager.fetch_block(1, 2, 0, 0).unwrap().is_none());
        assert_balanced(&manager, &sm);
        let stale = bucket(&sm, 2, 0, 0);
        let got = sm.fetch(2, 0, &TaskContext::new(0)).unwrap();
        assert_eq!(opened(&got), vec![body(5)]);
        assert_balanced(&manager, &sm);
        // A reader that snapshotted attempt 3 and gets its ship turn
        // only after attempt 4 was written and shipped puts nothing:
        // it fails typed and the ledger's copy stays.
        sm.write(2, 0, 0, 1, pay(&body(6)), 10, &attempt(1, 4))
            .unwrap();
        sm.fetch(2, 0, &TaskContext::new(0)).unwrap();
        let late = sm.ship(&manager, 2, 0, 0, &stale);
        assert!(
            matches!(late, Err(JobError::FetchFailed { .. })),
            "{late:?}"
        );
        let (held, _) = manager.fetch_block(1, 2, 0, 0).unwrap().expect("held");
        assert_eq!(held.open().unwrap(), body(6));
        assert_balanced(&manager, &sm);
        sm.release(1);
        sm.release(2);
        assert_balanced(&manager, &sm);
    }

    #[test]
    fn remote_fetches_racing_a_release_or_a_kill_fail_whole_or_not_at_all() {
        let (manager, sm) = remote_pair();
        let expected: Vec<Vec<u8>> = (0..4).map(|m| body(m as u8 + 1)).collect();
        let populate = |id: ShuffleId| {
            sm.register(id, 4, 1);
            for (map, bytes) in expected.iter().enumerate() {
                let node = map % 2;
                sm.write(id, map, 0, node, pay(bytes), 3, &TaskContext::new(node))
                    .unwrap();
            }
        };
        // Readers on both nodes (each ships the other node's two
        // buckets on its first read and pulls them over the socket)
        // until `upset` has run and they have seen its effect; every
        // fetch is all four buckets or an error.
        let race = |id: ShuffleId, upset: &(dyn Fn() + Sync)| {
            let start = Barrier::new(3);
            std::thread::scope(|s| {
                for node in 0..2 {
                    let (sm, expected, start) = (&sm, &expected, &start);
                    s.spawn(move || {
                        start.wait();
                        loop {
                            match sm.fetch(id, 0, &TaskContext::new(node)) {
                                Ok(got) => assert_eq!(&opened(&got), expected),
                                Err(JobError::MissingBlock(_) | JobError::FetchFailed { .. }) => {
                                    break
                                }
                                Err(other) => panic!("fetch failed untyped: {other:?}"),
                            }
                        }
                    });
                }
                start.wait();
                upset();
            });
            assert_balanced(&manager, &sm);
        };
        populate(1);
        race(1, &|| sm.release(1));
        assert_eq!((sm.staged_bytes(0), sm.staged_bytes(1)), (0, 0));
        populate(2);
        race(2, &|| {
            // What `SparkContext::kill_executor` does, in its order.
            manager.kill_respawn(1).expect("SIGKILL + respawn");
            sm.drop_node_outputs(1);
        });
        assert_eq!((sm.staged_bytes(0), sm.staged_bytes(1)), (6, 0));
        // The map re-run restages the lost half; the fetch is whole again.
        for map in [1, 3] {
            sm.write(2, map, 0, 0, pay(&expected[map]), 3, &TaskContext::new(0))
                .unwrap();
        }
        let got = sm.fetch(2, 0, &TaskContext::new(1)).unwrap();
        assert_eq!(opened(&got), expected);
        assert_balanced(&manager, &sm);
    }
}
