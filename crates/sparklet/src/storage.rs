//! Per-executor block manager: tiered storage for cached
//! (checkpointed/persisted) partitions.
//!
//! Each node runs a unified memory manager over two tiers, mirroring
//! Spark's block manager:
//!
//! * **memory** — partitions stored deserialized (`Arc<dyn Any>`),
//!   accounted against the configured executor memory;
//! * **disk** — partitions serialized through [`crate::codec`] into
//!   real [`Payload`] frames (optionally compressed at the store's
//!   configured codec), accounted against the node's disk capacity by
//!   *declared* bytes the same way shuffle staging is.
//!
//! Under memory pressure the store evicts in LRU order: a block whose
//! [`StorageLevel`] allows disk is *spilled* (serialized and moved to
//! the disk tier); a `MemoryOnly` block backed by retained lineage is
//! *dropped* (readers recompute it); a `MemoryOnly` block whose
//! lineage was cut is pinned — when only pinned blocks remain the put
//! fails with [`JobError::MemoryOverflow`], the pre-tiering failure
//! mode.
//!
//! Writes are attempt-aware like shuffle writes: a re-put from a
//! retried task credits the prior attempt's bytes in whichever tier
//! they landed before charging the new ones — retries never
//! double-charge memory or disk.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cluster_model::StageRecord;
use par_pool::Mutex;

use crate::codec::{decode_one, Storable};
use crate::context::TaskContext;
use crate::error::JobError;
use crate::payload::{Compression, Payload, PayloadBuilder};

/// Identifier of a cached dataset (one per checkpoint/persist call).
pub type CacheId = u64;

/// Where a cached partition is allowed to live — Spark's storage
/// levels, selected per `checkpoint`/`persist` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageLevel {
    /// Deserialized in executor memory only (Spark `MEMORY_ONLY`).
    /// Under pressure a block is dropped when it can be recomputed
    /// from lineage, and pinned otherwise.
    #[default]
    MemoryOnly,
    /// Memory first, spilling serialized blocks to the disk tier under
    /// pressure (Spark `MEMORY_AND_DISK`).
    MemoryAndDisk,
    /// Serialized straight to the disk tier (Spark `DISK_ONLY`).
    DiskOnly,
}

impl StorageLevel {
    /// May blocks at this level live in the disk tier?
    pub fn allows_disk(self) -> bool {
        !matches!(self, StorageLevel::MemoryOnly)
    }

    /// May blocks at this level live in the memory tier?
    pub fn allows_memory(self) -> bool {
        !matches!(self, StorageLevel::DiskOnly)
    }
}

/// Where a [`BlockStore::put`] landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// Stored deserialized in the memory tier.
    Memory,
    /// Stored serialized in the disk tier (a `DiskOnly` put, or a
    /// block that did not fit in memory and spilled on arrival).
    Disk,
    /// Not stored: memory is full of unevictable blocks, the level
    /// forbids disk, and this block is recomputable — readers fall
    /// back to lineage.
    Skipped,
}

type AnyArc = Arc<dyn Any + Send + Sync>;
type EncodeFn = Box<dyn Fn(&AnyArc, Compression) -> Payload + Send + Sync>;
type DecodeFn = Box<dyn Fn(&Payload) -> Result<AnyArc, JobError> + Send + Sync>;
type LatchMap = HashMap<(CacheId, usize), Arc<Mutex<()>>>;

/// Type-erased serialize/deserialize pair captured at put time, so the
/// LRU evictor can spill any memory-resident entry without knowing its
/// concrete type. Encoding serializes once, straight into the sealed
/// frame; decoding opens the frame (zero-copy when uncompressed).
struct EntryCodec {
    encode: EncodeFn,
    decode: DecodeFn,
}

fn codec_for<T: Storable + Send + Sync + 'static>() -> Arc<EntryCodec> {
    Arc::new(EntryCodec {
        encode: Box::new(|any, compression| {
            let value = any.downcast_ref::<T>().expect("entry codec type");
            let mut builder = PayloadBuilder::with_capacity(value.encoded_len());
            value.encode(builder.buf());
            builder.seal(compression)
        }),
        decode: Box::new(|payload| Ok(Arc::new(decode_one::<T>(payload.open()?)?) as AnyArc)),
    })
}

enum Tier {
    Memory(AnyArc),
    Disk(Payload),
}

/// Wire bytes to report for spill traffic: the measured frame length
/// when the body compressed *and* the declared size tracks the real
/// stream (the encoded `Vec` length prefix accounts for the 8-byte
/// slack). Inflated declarations — virtual blocks that are heavy in
/// accounting but tiny on the wire — report 0, keeping the cost
/// model's ratio-based pricing over declared bytes.
fn spill_wire(payload: &Payload, declared: u64) -> u64 {
    let raw = payload.raw_len();
    if payload.is_compressed() && declared <= raw && raw <= declared + 8 {
        payload.wire_len()
    } else {
        0
    }
}

struct Entry {
    tier: Tier,
    /// Declared (deserialized) size — the accounting unit in *both*
    /// tiers, like shuffle staging's declared bytes.
    bytes: u64,
    level: StorageLevel,
    /// Lineage retained upstream: the block may be dropped entirely
    /// and recomputed on the next read.
    recoverable: bool,
    codec: Arc<EntryCodec>,
    /// LRU recency stamp (monotonic clock tick of the last touch).
    stamp: u64,
}

/// Counts since the last stage record took them
/// ([`BlockStore::tally`]), named and defined as on [`StageRecord`].
#[derive(Debug, Default, Clone, Copy)]
struct StoreTally {
    cache_hits: u64,
    cache_misses: u64,
    spilled_bytes: u64,
    evicted_bytes: u64,
    recomputes: u64,
}

/// All mutable store state behind one lock, so capacity checks and
/// tier accounting can never observe each other half-updated (the old
/// split `entries`/`used` mutexes had exactly that window).
struct StoreInner {
    entries: HashMap<(CacheId, usize), Entry>,
    mem_used: u64,
    disk_used: u64,
    tally: StoreTally,
}

/// The blocks [`BlockStore::evict`] took out of a store. Their bytes
/// are already off the store's accounting; their memory is freed on
/// whichever thread drops this value.
#[must_use = "dropping it frees the blocks on this thread"]
pub struct Evicted {
    /// Memory-tier bytes taken off the accounting.
    pub mem_bytes: u64,
    /// Disk-tier bytes taken off the accounting.
    pub disk_bytes: u64,
    blocks: Vec<Tier>,
}

impl Evicted {
    /// Did the store hold no block of the dataset?
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// One node's tiered cache.
pub struct BlockStore {
    node: usize,
    inner: Mutex<StoreInner>,
    mem_capacity: Option<u64>,
    disk_capacity: Option<u64>,
    /// Codec applied when entries are serialized to the disk tier.
    /// Accounting stays on declared bytes either way; compression only
    /// changes the measured wire size reported alongside it.
    compression: Compression,
    /// LRU clock; ticks on every put/get touch.
    clock: AtomicU64,
    /// Per-partition latches serializing lineage recomputation, so
    /// concurrent readers of a dropped block recompute exactly once.
    recompute_latches: Mutex<LatchMap>,
}

impl BlockStore {
    /// Store for `node` with optional memory and disk caps.
    pub fn new(node: usize, mem_capacity: Option<u64>, disk_capacity: Option<u64>) -> Self {
        BlockStore {
            node,
            inner: Mutex::new(StoreInner {
                entries: HashMap::new(),
                mem_used: 0,
                disk_used: 0,
                tally: StoreTally::default(),
            }),
            mem_capacity,
            disk_capacity,
            compression: Compression::None,
            clock: AtomicU64::new(0),
            recompute_latches: Mutex::new(HashMap::new()),
        }
    }

    /// Set the codec used for the disk tier (builder style).
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Store one partition at `level`.
    ///
    /// `recoverable` declares that upstream lineage is retained, so
    /// the block may be dropped under pressure and recomputed on read.
    /// Re-putting an existing (cache, partition) — a re-executed
    /// checkpoint task — replaces the entry and reconciles the byte
    /// accounting in whichever tier the prior attempt landed; a
    /// rejected put mutates nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn put<T: Storable + Send + Sync + 'static>(
        &self,
        cache: CacheId,
        partition: usize,
        data: Arc<T>,
        bytes: u64,
        level: StorageLevel,
        recoverable: bool,
        tc: Option<&TaskContext>,
    ) -> Result<PutOutcome, JobError> {
        let codec = codec_for::<T>();
        let data: AnyArc = data;
        let stamp = self.tick();
        let mut inner = self.inner.lock();
        // Capacity checks below must see the *post-reconciliation*
        // totals, but the old entry may only be removed once the new
        // one is accepted — so compute credits without mutating yet.
        let (mem_credit, disk_credit) = match inner.entries.get(&(cache, partition)) {
            Some(old) => match old.tier {
                Tier::Memory(_) => (old.bytes, 0),
                Tier::Disk(_) => (0, old.bytes),
            },
            None => (0, 0),
        };
        let entry = Entry {
            tier: Tier::Memory(data),
            bytes,
            level,
            recoverable,
            codec,
            stamp,
        };
        if !level.allows_memory() {
            return self.place_on_disk(
                &mut inner,
                cache,
                partition,
                entry,
                mem_credit,
                disk_credit,
                tc,
            );
        }
        if let Some(cap) = self.mem_capacity {
            let needed = (inner.mem_used - mem_credit + bytes).saturating_sub(cap);
            if needed > 0 {
                self.evict_lru(&mut inner, needed, cache, partition, tc);
            }
            if inner.mem_used - mem_credit + bytes > cap {
                // Not enough evictable neighbours: degrade by level.
                if level.allows_disk() {
                    return self.place_on_disk(
                        &mut inner,
                        cache,
                        partition,
                        entry,
                        mem_credit,
                        disk_credit,
                        tc,
                    );
                }
                if recoverable {
                    // Don't cache; readers recompute from lineage. The
                    // stale prior entry (if any) must go, or readers
                    // would see the old attempt's data.
                    self.remove_reconciled(&mut inner, cache, partition, mem_credit, disk_credit);
                    return Ok(PutOutcome::Skipped);
                }
                return Err(JobError::MemoryOverflow {
                    node: self.node,
                    used: inner.mem_used - mem_credit + bytes,
                    capacity: cap,
                });
            }
        }
        self.remove_reconciled(&mut inner, cache, partition, mem_credit, disk_credit);
        inner.mem_used += bytes;
        inner.entries.insert((cache, partition), entry);
        Ok(PutOutcome::Memory)
    }

    /// Serialize `entry` and store it in the disk tier (a `DiskOnly`
    /// put or a memory-pressure fallback). Accounts declared bytes
    /// against the disk capacity; the serialized payload is real.
    #[allow(clippy::too_many_arguments)]
    fn place_on_disk(
        &self,
        inner: &mut StoreInner,
        cache: CacheId,
        partition: usize,
        mut entry: Entry,
        mem_credit: u64,
        disk_credit: u64,
        tc: Option<&TaskContext>,
    ) -> Result<PutOutcome, JobError> {
        // A chaos-doomed task sees a full disk regardless of the real
        // capacity; the failure must take the same path a genuine full
        // disk takes (Skipped when recomputable, DiskOverflow
        // otherwise — never silently swallowed).
        let chaos_full = tc.is_some_and(|t| t.chaos_disk_full());
        let over_cap = self
            .disk_capacity
            .is_some_and(|cap| inner.disk_used - disk_credit + entry.bytes > cap);
        if chaos_full || over_cap {
            if entry.recoverable {
                self.remove_reconciled(inner, cache, partition, mem_credit, disk_credit);
                return Ok(PutOutcome::Skipped);
            }
            return Err(JobError::DiskOverflow {
                node: self.node,
                used: inner.disk_used - disk_credit + entry.bytes,
                capacity: self.disk_capacity.unwrap_or(inner.disk_used),
            });
        }
        let payload = match &entry.tier {
            Tier::Memory(data) => (entry.codec.encode)(data, self.compression),
            Tier::Disk(payload) => payload.clone(),
        };
        let wire = spill_wire(&payload, entry.bytes);
        entry.tier = Tier::Disk(payload);
        self.remove_reconciled(inner, cache, partition, mem_credit, disk_credit);
        inner.disk_used += entry.bytes;
        inner.tally.spilled_bytes += entry.bytes;
        if let Some(tc) = tc {
            tc.add_spill_write(entry.bytes, wire);
        }
        inner.entries.insert((cache, partition), entry);
        Ok(PutOutcome::Disk)
    }

    /// Drop the prior entry of (cache, partition), returning its bytes
    /// to the owning tier (retry reconciliation).
    fn remove_reconciled(
        &self,
        inner: &mut StoreInner,
        cache: CacheId,
        partition: usize,
        mem_credit: u64,
        disk_credit: u64,
    ) {
        if inner.entries.remove(&(cache, partition)).is_some() {
            inner.mem_used -= mem_credit;
            inner.disk_used -= disk_credit;
        }
    }

    /// Free at least `needed` memory-tier bytes in LRU order. Spills
    /// blocks whose level allows disk, drops recoverable
    /// `MemoryOnly` blocks, and skips pinned ones. Never touches the
    /// block currently being put.
    fn evict_lru(
        &self,
        inner: &mut StoreInner,
        needed: u64,
        put_cache: CacheId,
        put_partition: usize,
        tc: Option<&TaskContext>,
    ) {
        let mut freed = 0u64;
        let mut skip: HashSet<(CacheId, usize)> = HashSet::new();
        while freed < needed {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, e)| {
                    matches!(e.tier, Tier::Memory(_))
                        && **k != (put_cache, put_partition)
                        && !skip.contains(*k)
                        && (e.level.allows_disk() || e.recoverable)
                })
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            let entry = inner.entries.get(&key).expect("victim present");
            if entry.level.allows_disk() {
                // A chaos-doomed putter also fails the spills its put
                // provokes — disk-full must cascade, not just gate the
                // final placement.
                let fits_disk = !tc.is_some_and(|t| t.chaos_disk_full())
                    && self
                        .disk_capacity
                        .is_none_or(|cap| inner.disk_used + entry.bytes <= cap);
                if fits_disk {
                    // Spill: serialize and move the block to disk.
                    let bytes = entry.bytes;
                    let payload = match &entry.tier {
                        Tier::Memory(data) => (entry.codec.encode)(data, self.compression),
                        Tier::Disk(_) => unreachable!("victims are memory-resident"),
                    };
                    let wire = spill_wire(&payload, bytes);
                    let entry = inner.entries.get_mut(&key).expect("victim present");
                    entry.tier = Tier::Disk(payload);
                    inner.mem_used -= bytes;
                    inner.disk_used += bytes;
                    freed += bytes;
                    inner.tally.spilled_bytes += bytes;
                    if let Some(tc) = tc {
                        tc.add_spill_write(bytes, wire);
                    }
                    continue;
                }
                if !entry.recoverable {
                    // Disk full and not recomputable: pinned for now.
                    skip.insert(key);
                    continue;
                }
            }
            // MemoryOnly + recoverable (or disk full + recoverable):
            // drop outright; readers recompute from lineage.
            let entry = inner.entries.remove(&key).expect("victim present");
            inner.mem_used -= entry.bytes;
            freed += entry.bytes;
            inner.tally.evicted_bytes += entry.bytes;
        }
    }

    /// Fetch a typed partition from whichever tier holds it. Returns
    /// `None` on a miss (evicted / never stored — the caller decides
    /// whether lineage recomputation applies) and the stored value with
    /// its accounted size on a hit. A disk-tier hit deserializes the
    /// real bytes and charges the read to `tc`.
    pub fn get<T: Send + Sync + 'static>(
        &self,
        cache: CacheId,
        partition: usize,
        tc: Option<&TaskContext>,
    ) -> Result<Option<(Arc<T>, u64)>, JobError> {
        let stamp = self.tick();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let node = self.node;
        let Some(entry) = inner.entries.get_mut(&(cache, partition)) else {
            inner.tally.cache_misses += 1;
            return Ok(None);
        };
        entry.stamp = stamp;
        let mismatch = || {
            JobError::TypeMismatch(format!(
                "cache {cache} partition {partition} on node {node} holds a different type than {}",
                std::any::type_name::<T>()
            ))
        };
        match &entry.tier {
            Tier::Memory(data) => {
                let data = Arc::clone(data).downcast::<T>().map_err(|_| mismatch())?;
                inner.tally.cache_hits += 1;
                Ok(Some((data, entry.bytes)))
            }
            Tier::Disk(payload) => {
                let decoded = (entry.codec.decode)(payload)?;
                let data = decoded.downcast::<T>().map_err(|_| mismatch())?;
                inner.tally.cache_hits += 1;
                if let Some(tc) = tc {
                    tc.add_spill_read(entry.bytes, spill_wire(payload, entry.bytes));
                }
                Ok(Some((data, entry.bytes)))
            }
        }
    }

    /// Entries held, in either tier.
    #[cfg(test)]
    pub(crate) fn entry_count(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Is this partition cached here (either tier)?
    pub fn contains(&self, cache: CacheId, partition: usize) -> bool {
        self.inner.lock().entries.contains_key(&(cache, partition))
    }

    /// Evict every partition of one cached dataset (unpersist). The
    /// entries leave the store and their bytes leave its accounting
    /// under the lock; the blocks themselves come back in the
    /// [`Evicted`], so the caller picks the thread that frees them.
    pub fn evict(&self, cache: CacheId) -> Evicted {
        let mut inner = self.inner.lock();
        let (mut mem_bytes, mut disk_bytes) = (0, 0);
        let blocks: Vec<Tier> = inner
            .entries
            .extract_if(|&(c, _), _| c == cache)
            .map(|(_, e)| {
                match e.tier {
                    Tier::Memory(_) => mem_bytes += e.bytes,
                    Tier::Disk(_) => disk_bytes += e.bytes,
                }
                e.tier
            })
            .collect();
        inner.mem_used -= mem_bytes;
        inner.disk_used -= disk_bytes;
        self.recompute_latches
            .lock()
            .retain(|(c, _), _| *c != cache);
        Evicted {
            mem_bytes,
            disk_bytes,
            blocks,
        }
    }

    /// Remove a single partition's entry from whichever tier holds it
    /// and return `(mem_freed, disk_freed)`. Used to reclaim orphaned
    /// copies left behind by failed attempts whose retry committed on
    /// a different node — without this, every retried materialization
    /// double-charges the cluster for one partition.
    pub fn discard(&self, cache: CacheId, partition: usize) -> (u64, u64) {
        let mut inner = self.inner.lock();
        match inner.entries.remove(&(cache, partition)) {
            Some(e) => match e.tier {
                Tier::Memory(_) => {
                    inner.mem_used -= e.bytes;
                    (e.bytes, 0)
                }
                Tier::Disk(_) => {
                    inner.disk_used -= e.bytes;
                    (0, e.bytes)
                }
            },
            None => (0, 0),
        }
    }

    /// Latch serializing lineage recomputation of one partition:
    /// concurrent readers that miss lock it, re-check the store, and
    /// only the first recomputes.
    pub fn recompute_latch(&self, cache: CacheId, partition: usize) -> Arc<Mutex<()>> {
        Arc::clone(
            self.recompute_latches
                .lock()
                .entry((cache, partition))
                .or_default(),
        )
    }

    /// Record one lineage recomputation of a dropped block.
    pub fn note_recompute(&self) {
        self.inner.lock().tally.recomputes += 1;
    }

    /// Currently cached bytes in the memory tier.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().mem_used
    }

    /// Currently cached (declared) bytes in the disk tier.
    pub fn disk_used_bytes(&self) -> u64 {
        self.inner.lock().disk_used
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
        record.cache_hits += t.cache_hits;
        record.cache_misses += t.cache_misses;
        record.spilled_bytes += t.spilled_bytes;
        record.evicted_bytes += t.evicted_bytes;
        record.recomputes += t.recomputes;
    }

    /// Executor death: destroy every entry in both tiers and all
    /// recompute latches. Returns the `(memory, disk)` bytes wiped.
    /// Unlike eviction this is not a policy decision, so nothing is
    /// added to the evicted/spilled counters.
    pub fn wipe(&self) -> (u64, u64) {
        let mut inner = self.inner.lock();
        let (mem, disk) = (inner.mem_used, inner.disk_used);
        inner.entries.clear();
        inner.mem_used = 0;
        inner.disk_used = 0;
        drop(inner);
        self.recompute_latches.lock().clear();
        (mem, disk)
    }

    /// Verify the tier accounting: `mem_used`/`disk_used` must equal
    /// the sum of declared bytes over the entries in each tier.
    /// Returns a description of the first discrepancy.
    pub fn audit(&self) -> Result<(), String> {
        let inner = self.inner.lock();
        let (mut mem, mut disk) = (0u64, 0u64);
        for e in inner.entries.values() {
            match e.tier {
                Tier::Memory(_) => mem += e.bytes,
                Tier::Disk(_) => disk += e.bytes,
            }
        }
        if mem != inner.mem_used {
            return Err(format!(
                "node {}: mem_used {} != entry bytes {}",
                self.node, inner.mem_used, mem
            ));
        }
        if disk != inner.disk_used {
            return Err(format!(
                "node {}: disk_used {} != entry bytes {}",
                self.node, inner.disk_used, disk
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ML: StorageLevel = StorageLevel::MemoryOnly;
    const MD: StorageLevel = StorageLevel::MemoryAndDisk;
    const DO: StorageLevel = StorageLevel::DiskOnly;

    /// The counts no stage record has taken yet.
    fn tally(store: &BlockStore) -> StoreTally {
        store.inner.lock().tally
    }

    #[test]
    fn discard_frees_exactly_one_partition() {
        let store = BlockStore::new(0, None, None);
        store
            .put(1, 0, Arc::new(vec![1u32]), 10, ML, false, None)
            .unwrap();
        store
            .put(1, 1, Arc::new(vec![2u32]), 20, DO, false, None)
            .unwrap();
        assert_eq!(store.discard(1, 0), (10, 0));
        assert_eq!(store.discard(1, 1), (0, 20));
        assert_eq!(store.discard(1, 7), (0, 0), "absent keys are a no-op");
        assert_eq!(store.used_bytes(), 0);
        assert_eq!(store.disk_used_bytes(), 0);
    }

    #[test]
    fn put_get_roundtrip() {
        let store = BlockStore::new(0, None, None);
        let out = store
            .put(1, 0, Arc::new(vec![1u32, 2, 3]), 12, ML, false, None)
            .unwrap();
        assert_eq!(out, PutOutcome::Memory);
        let (data, bytes) = store.get::<Vec<u32>>(1, 0, None).unwrap().unwrap();
        assert_eq!(*data, vec![1, 2, 3]);
        assert_eq!(bytes, 12);
        assert_eq!(tally(&store).cache_hits, 1);
    }

    #[test]
    fn type_mismatch_is_its_own_error() {
        let store = BlockStore::new(0, None, None);
        store
            .put(1, 0, Arc::new(17u64), 8, ML, false, None)
            .unwrap();
        let err = store.get::<String>(1, 0, None).unwrap_err();
        assert!(matches!(err, JobError::TypeMismatch(_)), "{err}");
    }

    #[test]
    fn miss_is_none_not_error() {
        let store = BlockStore::new(0, None, None);
        assert!(store.get::<u64>(9, 0, None).unwrap().is_none());
        assert_eq!(tally(&store).cache_misses, 1);
    }

    #[test]
    fn memory_capacity_enforced_for_pinned_blocks() {
        // MemoryOnly blocks with cut lineage cannot spill or be
        // recomputed: exceeding memory is still a hard failure.
        let store = BlockStore::new(2, Some(10), None);
        store.put(1, 0, Arc::new(()), 6, ML, false, None).unwrap();
        let err = store
            .put(1, 1, Arc::new(()), 6, ML, false, None)
            .unwrap_err();
        assert!(matches!(err, JobError::MemoryOverflow { node: 2, .. }));
    }

    #[test]
    fn re_put_reconciles_accounting() {
        // A re-executed checkpoint task stores the same partition
        // again: accounting must not double-count.
        let store = BlockStore::new(0, Some(10), None);
        store
            .put(1, 0, Arc::new(vec![1u32]), 8, ML, false, None)
            .unwrap();
        store
            .put(1, 0, Arc::new(vec![2u32]), 8, ML, false, None)
            .unwrap();
        assert_eq!(store.used_bytes(), 8);
        let (data, _) = store.get::<Vec<u32>>(1, 0, None).unwrap().unwrap();
        assert_eq!(*data, vec![2]);
        // A rejected put leaves accounting untouched.
        let err = store
            .put(1, 1, Arc::new(()), 6, ML, false, None)
            .unwrap_err();
        assert!(matches!(err, JobError::MemoryOverflow { .. }));
        assert_eq!(store.used_bytes(), 8);
    }

    #[test]
    fn evict_frees_both_tiers_and_returns_bytes() {
        let store = BlockStore::new(0, Some(10), None);
        store.put(1, 0, Arc::new(7u64), 6, ML, false, None).unwrap();
        store.put(1, 1, Arc::new(8u64), 9, DO, false, None).unwrap();
        let evicted = store.evict(1);
        assert_eq!((evicted.mem_bytes, evicted.disk_bytes), (6, 9));
        assert!(!evicted.is_empty());
        assert_eq!(store.used_bytes(), 0);
        assert_eq!(store.disk_used_bytes(), 0);
        assert!(!store.contains(1, 0));
        store.put(2, 0, Arc::new(()), 9, ML, false, None).unwrap();
    }

    #[test]
    fn pressure_spills_lru_block_to_disk() {
        let store = BlockStore::new(0, Some(10), None);
        store
            .put(1, 0, Arc::new(vec![1u64, 2]), 6, MD, false, None)
            .unwrap();
        let out = store
            .put(1, 1, Arc::new(vec![3u64]), 6, MD, false, None)
            .unwrap();
        assert_eq!(out, PutOutcome::Memory);
        // Partition 0 was least recently used → spilled.
        assert_eq!(store.used_bytes(), 6);
        assert_eq!(store.disk_used_bytes(), 6);
        assert_eq!(tally(&store).spilled_bytes, 6);
        // Disk-tier read round-trips through real serialization.
        let tc = TaskContext::new(0);
        let (data, bytes) = store.get::<Vec<u64>>(1, 0, Some(&tc)).unwrap().unwrap();
        assert_eq!(*data, vec![1, 2]);
        assert_eq!(bytes, 6);
        assert_eq!(tc.snapshot().spill_read_bytes, 6, "a disk-tier hit");
        assert_eq!(tally(&store).cache_hits, 1);
    }

    #[test]
    fn lru_touch_protects_recently_read_blocks() {
        let store = BlockStore::new(0, Some(12), None);
        store
            .put(1, 0, Arc::new(10u64), 6, MD, false, None)
            .unwrap();
        store
            .put(1, 1, Arc::new(11u64), 6, MD, false, None)
            .unwrap();
        // Touch partition 0 so partition 1 becomes the LRU victim.
        store.get::<u64>(1, 0, None).unwrap().unwrap();
        store
            .put(1, 2, Arc::new(12u64), 6, MD, false, None)
            .unwrap();
        // A disk-tier hit charges its read to the task; a memory hit
        // reads nothing back.
        let read_back = |p| {
            let tc = TaskContext::new(0);
            store.get::<u64>(1, p, Some(&tc)).unwrap().unwrap();
            tc.snapshot().spill_read_bytes
        };
        assert_eq!(read_back(0), 0, "partition 0 stayed in memory");
        assert_eq!(read_back(1), 6, "partition 1 was spilled");
    }

    #[test]
    fn recoverable_memory_only_blocks_are_dropped_not_fatal() {
        let store = BlockStore::new(0, Some(10), None);
        store.put(1, 0, Arc::new(1u64), 6, ML, true, None).unwrap();
        let out = store.put(1, 1, Arc::new(2u64), 6, ML, true, None).unwrap();
        assert_eq!(out, PutOutcome::Memory);
        assert_eq!(tally(&store).evicted_bytes, 6);
        assert!(store.get::<u64>(1, 0, None).unwrap().is_none());
        // An oversized recoverable block is skipped, not fatal.
        let out = store.put(1, 2, Arc::new(3u64), 99, ML, true, None).unwrap();
        assert_eq!(out, PutOutcome::Skipped);
    }

    #[test]
    fn disk_only_bypasses_memory() {
        let store = BlockStore::new(0, Some(4), Some(100));
        let out = store
            .put(1, 0, Arc::new(vec![1u32, 2, 3]), 40, DO, false, None)
            .unwrap();
        assert_eq!(out, PutOutcome::Disk);
        assert_eq!(store.used_bytes(), 0);
        assert_eq!(store.disk_used_bytes(), 40);
        let (data, _) = store.get::<Vec<u32>>(1, 0, None).unwrap().unwrap();
        assert_eq!(*data, vec![1, 2, 3]);
    }

    #[test]
    fn disk_capacity_enforced() {
        let store = BlockStore::new(3, None, Some(10));
        store.put(1, 0, Arc::new(1u64), 8, DO, false, None).unwrap();
        let err = store
            .put(1, 1, Arc::new(2u64), 8, DO, false, None)
            .unwrap_err();
        assert!(
            matches!(err, JobError::DiskOverflow { node: 3, .. }),
            "{err}"
        );
        assert_eq!(store.disk_used_bytes(), 8);
        // Re-put of the same partition reconciles the disk credit.
        store
            .put(1, 0, Arc::new(3u64), 10, DO, false, None)
            .unwrap();
        assert_eq!(store.disk_used_bytes(), 10);
    }

    #[test]
    fn chaos_disk_full_surfaces_not_swallowed() {
        use crate::sim::ChaosEvent;
        // Unlimited real disk, but the putting task is chaos-doomed:
        // a pinned DiskOnly put must fail loudly...
        let store = BlockStore::new(1, None, None);
        let tc = TaskContext::new(1).with_chaos(Some(&ChaosEvent::DiskFull));
        let err = store
            .put(1, 0, Arc::new(7u64), 8, DO, false, Some(&tc))
            .unwrap_err();
        assert!(
            matches!(err, JobError::DiskOverflow { node: 1, .. }),
            "{err}"
        );
        store.audit().unwrap();
        // ...while a recoverable one degrades to Skipped.
        let out = store
            .put(1, 1, Arc::new(8u64), 8, DO, true, Some(&tc))
            .unwrap();
        assert_eq!(out, PutOutcome::Skipped);
        // An untouched task still writes fine.
        let clean = TaskContext::new(1);
        let out = store
            .put(1, 2, Arc::new(9u64), 8, DO, false, Some(&clean))
            .unwrap();
        assert_eq!(out, PutOutcome::Disk);
        store.audit().unwrap();
    }

    #[test]
    fn wipe_destroys_both_tiers_without_counting_evictions() {
        let store = BlockStore::new(0, Some(20), None);
        store.put(1, 0, Arc::new(1u64), 6, ML, false, None).unwrap();
        store.put(1, 1, Arc::new(2u64), 9, DO, false, None).unwrap();
        assert_eq!(store.wipe(), (6, 9));
        assert_eq!(store.used_bytes(), 0);
        assert_eq!(store.disk_used_bytes(), 0);
        assert_eq!(tally(&store).evicted_bytes, 0, "loss is not eviction");
        assert!(store.get::<u64>(1, 0, None).unwrap().is_none());
        store.audit().unwrap();
    }

    #[test]
    fn compressed_spill_roundtrips_and_reports_wire_bytes() {
        let store = BlockStore::new(0, Some(4), Some(10_000)).with_compression(Compression::Lz4);
        let tc = TaskContext::new(0);
        let data: Vec<u64> = vec![0; 100];
        store
            .put(1, 0, Arc::new(data.clone()), 800, DO, false, Some(&tc))
            .unwrap();
        // Ledgers stay on declared bytes no matter what the codec did.
        assert_eq!(store.disk_used_bytes(), 800);
        assert_eq!(tally(&store).spilled_bytes, 800);
        let (got, bytes) = store.get::<Vec<u64>>(1, 0, Some(&tc)).unwrap().unwrap();
        assert_eq!(*got, data);
        assert_eq!(bytes, 800);
        let rec = tc.snapshot();
        assert_eq!(rec.spill_write_bytes, 800);
        assert_eq!(rec.spill_read_bytes, 800);
        assert!(
            rec.spill_write_wire_bytes > 0 && rec.spill_write_wire_bytes < 800,
            "zeros must compress: wire {}",
            rec.spill_write_wire_bytes
        );
        assert_eq!(rec.spill_read_wire_bytes, rec.spill_write_wire_bytes);
        store.audit().unwrap();
    }

    #[test]
    fn uncompressed_spill_reports_no_wire_bytes() {
        let store = BlockStore::new(0, Some(4), None);
        let tc = TaskContext::new(0);
        store
            .put(1, 0, Arc::new(vec![1u64, 2, 3]), 24, DO, false, Some(&tc))
            .unwrap();
        store.get::<Vec<u64>>(1, 0, Some(&tc)).unwrap().unwrap();
        let rec = tc.snapshot();
        assert_eq!((rec.spill_write_bytes, rec.spill_read_bytes), (24, 24));
        assert_eq!(rec.spill_write_wire_bytes, 0, "raw frames price by ratio");
        assert_eq!(rec.spill_read_wire_bytes, 0);
    }

    #[test]
    fn re_put_reconciles_across_tiers() {
        // Attempt 1 spilled to disk; the retry lands in memory. Disk
        // bytes must be credited back — no double-charge.
        let store = BlockStore::new(0, None, Some(10));
        store.put(1, 0, Arc::new(5u64), 8, DO, false, None).unwrap();
        assert_eq!(store.disk_used_bytes(), 8);
        store.put(1, 0, Arc::new(5u64), 8, MD, false, None).unwrap();
        assert_eq!(store.disk_used_bytes(), 0);
        assert_eq!(store.used_bytes(), 8);
    }
}
