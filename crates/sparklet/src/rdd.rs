//! Lazy pair-RDDs with lineage.
//!
//! An [`Rdd<K, V>`] is a handle to a plan node implementing the
//! internal `RddOps` trait. There is one single-parent narrow node
//! (`NarrowRdd`: a per-partition closure, an `explain()` line, a
//! keeps-partitioning bit — every narrow transformation is an instance)
//! and one wide node (`ShuffledRdd`: owns a shuffle, with an optional
//! combiner); `union`, `coalesce`, the parallelized source and
//! materialized blocks are the remaining node kinds.
//! Narrow nodes wrap their parent and fuse at compute time (one pass
//! per partition, like Spark pipelining); a wide node's shuffle becomes
//! a stage node of the extracted stage graph. Actions hand their
//! upstream shuffle roots to the driver-side DAG scheduler
//! ([`crate::dag`]), which materializes their stages one at a time,
//! then run a result stage.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Buf;

use crate::codec::Storable;
use crate::context::{SparkContext, TaskContext};
use crate::dag::{self, ShuffleDep};
use crate::error::JobError;
use crate::partitioner::{sig_layout, Partitioner, SigLayout};
use crate::payload::PayloadBuilder;
use crate::scheduler::{StageMeta, TaskFn};
use crate::storage::StorageLevel;
use crate::Data;

/// Key bound: hashable, comparable, serializable.
pub trait Key: Data + Eq + std::hash::Hash + Storable {}
impl<T: Data + Eq + std::hash::Hash + Storable> Key for T {}

/// Value bound: serializable payload.
pub trait ShufVal: Data + Storable {}
impl<T: Data + Storable> ShufVal for T {}

/// Whole-job resubmissions allowed after a [`JobError::FetchFailed`]
/// (lost or chaos-failed map outputs trigger a map-stage re-run,
/// Spark-style, rather than a task retry).
const MAX_FETCH_RETRIES: usize = 8;

/// Partition-identity signature: (partitioner name, parameter,
/// partition count). Equal signatures ⇒ identical key placement.
pub type PartSig = (&'static str, u64, usize);

/// A plan node. Object-safe so lineages can mix key/value types.
pub(crate) trait RddOps<K: Key, V: ShufVal>: Send + Sync {
    fn ctx(&self) -> &SparkContext;
    fn num_partitions(&self) -> usize;
    /// Present when the keys of this RDD are known to be placed by a
    /// specific partitioner (enables shuffle elision).
    fn partitioner_sig(&self) -> Option<PartSig> {
        None
    }
    /// Direct shuffle dependencies feeding this node's compute — the
    /// stage-graph roots the DAG scheduler must materialize before a
    /// stage over this node can run. Narrow nodes forward to their
    /// parents; wide nodes return themselves.
    fn shuffle_deps(self: Arc<Self>) -> Vec<Arc<dyn ShuffleDep>>;
    /// Produce partition `p` (runs inside a task).
    fn compute(&self, p: usize, tc: &TaskContext) -> Result<Vec<(K, V)>, JobError>;
    /// Partition `p`, keeping only the pairs `keep` accepts: how a
    /// filter reads its parent. A node that can drop pairs before it
    /// clones them (a cached partition) overrides this; the default
    /// computes the whole partition and drops the rest.
    fn compute_where(
        &self,
        p: usize,
        tc: &TaskContext,
        keep: &Keep<'_, K, V>,
    ) -> Result<Vec<(K, V)>, JobError> {
        let mut items = self.compute(p, tc)?;
        items.retain(|(k, v)| keep(k, v));
        Ok(items)
    }
    fn preferred_node(&self, _p: usize) -> Option<usize> {
        None
    }
    /// Append this node (and its lineage) to a plan description, one
    /// line per node, two spaces per depth level.
    fn explain_into(&self, depth: usize, out: &mut String);
}

/// A predicate over pairs, as a filter hands it down its lineage.
pub(crate) type Keep<'a, K, V> = dyn Fn(&K, &V) -> bool + Send + Sync + 'a;

fn write_plan_line(out: &mut String, depth: usize, line: &str) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(line);
    out.push('\n');
}

fn pairs_bytes<K: Key, V: ShufVal>(items: &[(K, V)]) -> u64 {
    items
        .iter()
        .map(|(k, v)| (k.approx_bytes() + v.approx_bytes()) as u64)
        .sum()
}

// ---------------------------------------------------------------------
// Plan nodes
// ---------------------------------------------------------------------

struct ParallelizeRdd<K, V> {
    ctx: SparkContext,
    parts: Arc<Vec<Vec<(K, V)>>>,
    sig: Option<PartSig>,
}

impl<K: Key, V: ShufVal> RddOps<K, V> for ParallelizeRdd<K, V> {
    fn explain_into(&self, depth: usize, out: &mut String) {
        write_plan_line(
            out,
            depth,
            &format!("Parallelize [{} partitions]", self.parts.len()),
        );
    }
    fn ctx(&self) -> &SparkContext {
        &self.ctx
    }
    fn num_partitions(&self) -> usize {
        self.parts.len()
    }
    fn partitioner_sig(&self) -> Option<PartSig> {
        self.sig
    }
    fn shuffle_deps(self: Arc<Self>) -> Vec<Arc<dyn ShuffleDep>> {
        Vec::new()
    }
    fn compute(&self, p: usize, _tc: &TaskContext) -> Result<Vec<(K, V)>, JobError> {
        // Compute hands an owned Vec to the fused narrow chain above
        // it, so the source partition's pairs are cloned per task: as
        // cheap as the values' `Clone` (a refcount for a dense tile).
        Ok(self.parts[p].clone())
    }
}

/// A whole-partition transform: partition index, the parent's pairs,
/// the running task's context.
type PartitionFn<K1, V1, K2, V2> =
    Arc<dyn Fn(usize, Vec<(K1, V1)>, &TaskContext) -> Vec<(K2, V2)> + Send + Sync>;

/// The single-parent narrow node behind `map`, `flat_map`,
/// `map_values`, `map_partitions` and an elided
/// `partition_by`: they differ only in the closure (the user's
/// function is monomorphised inside it, so a partition costs one
/// dynamic call however many pairs it holds), the `explain()` line,
/// and whether key placement survives.
struct NarrowRdd<K1: Key, V1: ShufVal, K2, V2> {
    parent: Arc<dyn RddOps<K1, V1>>,
    f: PartitionFn<K1, V1, K2, V2>,
    label: String,
    /// Keys unchanged ⇒ the parent's placement signature carries over.
    keeps_partitioning: bool,
}

impl<K1: Key, V1: ShufVal, K2: Key, V2: ShufVal> RddOps<K2, V2> for NarrowRdd<K1, V1, K2, V2> {
    fn explain_into(&self, depth: usize, out: &mut String) {
        write_plan_line(out, depth, &self.label);
        self.parent.explain_into(depth + 1, out);
    }
    fn ctx(&self) -> &SparkContext {
        self.parent.ctx()
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn partitioner_sig(&self) -> Option<PartSig> {
        if self.keeps_partitioning {
            self.parent.partitioner_sig()
        } else {
            None
        }
    }
    fn shuffle_deps(self: Arc<Self>) -> Vec<Arc<dyn ShuffleDep>> {
        Arc::clone(&self.parent).shuffle_deps()
    }
    fn compute(&self, p: usize, tc: &TaskContext) -> Result<Vec<(K2, V2)>, JobError> {
        Ok((self.f)(p, self.parent.compute(p, tc)?, tc))
    }
    fn preferred_node(&self, p: usize) -> Option<usize> {
        self.parent.preferred_node(p)
    }
}

/// `filter`: a narrow node that passes its predicate, combined with any
/// predicate from a filter above it, down to its parent's
/// [`RddOps::compute_where`], so a cached parent clones only the pairs
/// that survive.
struct FilterRdd<K: Key, V: ShufVal> {
    parent: Arc<dyn RddOps<K, V>>,
    pred: Arc<Keep<'static, K, V>>,
}

impl<K: Key, V: ShufVal> RddOps<K, V> for FilterRdd<K, V> {
    fn explain_into(&self, depth: usize, out: &mut String) {
        write_plan_line(out, depth, "Filter [narrow, preserves partitioning]");
        self.parent.explain_into(depth + 1, out);
    }
    fn ctx(&self) -> &SparkContext {
        self.parent.ctx()
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn partitioner_sig(&self) -> Option<PartSig> {
        self.parent.partitioner_sig()
    }
    fn shuffle_deps(self: Arc<Self>) -> Vec<Arc<dyn ShuffleDep>> {
        Arc::clone(&self.parent).shuffle_deps()
    }
    fn compute(&self, p: usize, tc: &TaskContext) -> Result<Vec<(K, V)>, JobError> {
        self.parent.compute_where(p, tc, &*self.pred)
    }
    fn compute_where(
        &self,
        p: usize,
        tc: &TaskContext,
        keep: &Keep<'_, K, V>,
    ) -> Result<Vec<(K, V)>, JobError> {
        self.parent
            .compute_where(p, tc, &|k, v| (self.pred)(k, v) && keep(k, v))
    }
    fn preferred_node(&self, p: usize) -> Option<usize> {
        self.parent.preferred_node(p)
    }
}

/// Narrow union. Parents that all report one partitioner signature are
/// zipped (Spark's `PartitionerAwareUnionRDD`): partition `p` is every
/// parent's partition `p` in parent order, and the signature survives.
/// Any other parents concatenate, partition lists end to end.
struct UnionRdd<K: Key, V: ShufVal> {
    parents: Vec<Arc<dyn RddOps<K, V>>>,
    /// The signature every parent shares, when they do (zipped).
    sig: Option<PartSig>,
}

impl<K: Key, V: ShufVal> UnionRdd<K, V> {
    /// Concatenated layout: union partition `p` is `(parent, its partition)`.
    fn locate(&self, p: usize) -> (usize, usize) {
        let mut off = 0;
        for (i, parent) in self.parents.iter().enumerate() {
            let n = parent.num_partitions();
            if p < off + n {
                return (i, p - off);
            }
            off += n;
        }
        panic!("partition {p} out of range");
    }
}

impl<K: Key, V: ShufVal> RddOps<K, V> for UnionRdd<K, V> {
    fn explain_into(&self, depth: usize, out: &mut String) {
        let zipped = match self.sig {
            Some((name, _, _)) => format!(", zipped, keeps {name} partitioning"),
            None => String::new(),
        };
        write_plan_line(
            out,
            depth,
            &format!("Union [{} parents, narrow{zipped}]", self.parents.len()),
        );
        for parent in &self.parents {
            parent.explain_into(depth + 1, out);
        }
    }
    fn ctx(&self) -> &SparkContext {
        self.parents[0].ctx()
    }
    fn num_partitions(&self) -> usize {
        match self.sig {
            Some((_, _, n)) => n,
            None => self.parents.iter().map(|p| p.num_partitions()).sum(),
        }
    }
    fn partitioner_sig(&self) -> Option<PartSig> {
        self.sig
    }
    fn shuffle_deps(self: Arc<Self>) -> Vec<Arc<dyn ShuffleDep>> {
        self.parents
            .iter()
            .flat_map(|parent| Arc::clone(parent).shuffle_deps())
            .collect()
    }
    fn compute(&self, p: usize, tc: &TaskContext) -> Result<Vec<(K, V)>, JobError> {
        if self.sig.is_none() {
            let (i, local) = self.locate(p);
            return self.parents[i].compute(local, tc);
        }
        let mut out = Vec::new();
        for parent in &self.parents {
            out.extend(parent.compute(p, tc)?);
        }
        Ok(out)
    }
    fn preferred_node(&self, p: usize) -> Option<usize> {
        if self.sig.is_none() {
            let (i, local) = self.locate(p);
            return self.parents[i].preferred_node(local);
        }
        // Zipped: the node most parents prefer. `max_by_key` keeps the
        // last maximum, so scanning in reverse gives ties to the earliest.
        let nodes: Vec<usize> = self
            .parents
            .iter()
            .filter_map(|q| q.preferred_node(p))
            .collect();
        let votes = |n: &&usize| nodes.iter().filter(|m| m == n).count();
        nodes.iter().rev().max_by_key(votes).copied()
    }
}

/// Shuffle-free partition-count reduction: output partition `g`
/// concatenates a fixed group of parent partitions (Spark's
/// `CoalescedRDD` without locality preferences).
struct CoalescedRdd<K: Key, V: ShufVal> {
    parent: Arc<dyn RddOps<K, V>>,
    groups: Vec<Vec<usize>>,
    /// Partitioner signature the grouping provably preserves (the
    /// parent's signature at the reduced count), or `None` when keys
    /// from different buckets now co-reside.
    sig: Option<PartSig>,
}

impl<K: Key, V: ShufVal> RddOps<K, V> for CoalescedRdd<K, V> {
    fn ctx(&self) -> &SparkContext {
        self.parent.ctx()
    }
    fn num_partitions(&self) -> usize {
        self.groups.len()
    }
    fn partitioner_sig(&self) -> Option<PartSig> {
        self.sig
    }
    fn shuffle_deps(self: Arc<Self>) -> Vec<Arc<dyn ShuffleDep>> {
        Arc::clone(&self.parent).shuffle_deps()
    }
    fn compute(&self, p: usize, tc: &TaskContext) -> Result<Vec<(K, V)>, JobError> {
        let mut out = Vec::new();
        for &pp in &self.groups[p] {
            out.extend(self.parent.compute(pp, tc)?);
        }
        Ok(out)
    }
    fn preferred_node(&self, p: usize) -> Option<usize> {
        self.groups[p]
            .first()
            .and_then(|&pp| self.parent.preferred_node(pp))
    }
    fn explain_into(&self, depth: usize, out: &mut String) {
        let kept = match self.sig {
            Some((name, _, _)) => format!(", keeps {name} partitioning"),
            None => String::new(),
        };
        write_plan_line(
            out,
            depth,
            &format!("Coalesce [{} partitions, narrow{kept}]", self.groups.len()),
        );
        self.parent.explain_into(depth + 1, out);
    }
}

/// Order-preserving per-key fold used by map- and reduce-side
/// combining: a key's first item starts its accumulator (`create`),
/// later items fold into it (`merge`). Deterministic output order
/// (first-seen key order) independent of hash iteration order.
pub(crate) fn combine_ordered<K: Key, T, C>(
    items: impl IntoIterator<Item = (K, T)>,
    create: impl Fn(T) -> C,
    merge: impl Fn(C, T) -> C,
) -> Vec<(K, C)> {
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut out: Vec<(K, Option<C>)> = Vec::new();
    for (k, t) in items {
        match index.get(&k) {
            Some(&i) => {
                let prev = out[i].1.take().expect("slot full");
                out[i].1 = Some(merge(prev, t));
            }
            None => {
                index.insert(k.clone(), out.len());
                out.push((k, Some(create(t))));
            }
        }
    }
    out.into_iter()
        .map(|(k, c)| (k, c.expect("slot full")))
        .collect()
}

/// The wide node: owns shuffle `shuffle_id`, one stage of the stage
/// graph. `partition_by` stages its pairs as they are; `combine_by_key`
/// adds a combiner on both sides of the shuffle.
#[allow(clippy::type_complexity)]
struct ShuffledRdd<K: Key, V: ShufVal, C: ShufVal> {
    parent: Arc<dyn RddOps<K, V>>,
    /// Map side: the pairs a map task stages for its partition — the
    /// partition itself, or its per-key combiners in first-seen key
    /// order (`create` on a key's first value, `merge_value` after).
    stage: Arc<dyn Fn(Vec<(K, V)>) -> Vec<(K, C)> + Send + Sync>,
    /// Reduce side: `merge_combiners`. Without one, fetched pairs pass
    /// through in map-task order, duplicates kept.
    merge: Option<Arc<dyn Fn(C, C) -> C + Send + Sync>>,
    partitioner: Arc<dyn Partitioner<K>>,
    partitions: usize,
    shuffle_id: u64,
}

impl<K: Key, V: ShufVal, C: ShufVal> ShuffleDep for ShuffledRdd<K, V, C> {
    fn shuffle_id(&self) -> u64 {
        self.shuffle_id
    }
    fn op_name(&self) -> &'static str {
        match self.merge {
            Some(_) => "combine_by_key",
            None => "partition_by",
        }
    }
    fn num_maps(&self) -> usize {
        self.parent.num_partitions()
    }
    fn num_reduces(&self) -> usize {
        self.partitions
    }
    fn parents(&self) -> Vec<Arc<dyn ShuffleDep>> {
        Arc::clone(&self.parent).shuffle_deps()
    }
    fn run_map_stage(&self, meta: StageMeta) -> Result<(), JobError> {
        let ctx = self.parent.ctx().clone();
        let maps = self.parent.num_partitions();
        ctx.inner
            .shuffle
            .register(self.shuffle_id, maps, self.partitions);
        let parent = Arc::clone(&self.parent);
        let stage = Arc::clone(&self.stage);
        let partitioner = Arc::clone(&self.partitioner);
        let partitions = self.partitions;
        let shuffle_id = self.shuffle_id;
        let inner_ctx = ctx.clone();
        let pref = {
            let parent = Arc::clone(&self.parent);
            move |p: usize| parent.preferred_node(p)
        };
        let suffix = match self.merge {
            Some(_) => "combine-map",
            None => "map",
        };
        ctx.run_stage(
            &format!("shuffle#{shuffle_id}.{suffix}"),
            meta,
            maps,
            pref,
            Arc::new(move |p, tc: &TaskContext| {
                let items = stage(parent.compute(p, tc)?);
                // Sparse bucket map: most of the (often ~1000) reduce
                // partitions receive nothing from a given map task.
                // Each bucket's frame is allocated once, at its exact
                // size: a frame grown by doubling re-copies megabytes
                // of tiles and leaves the allocator a chain of large
                // dead buffers to trim and fault back in, and how much
                // of that it does differs from one run to the next.
                let buckets: Vec<usize> = items
                    .iter()
                    .map(|(k, _)| partitioner.partition(k, partitions))
                    .collect();
                let mut sizes: BTreeMap<usize, usize> = BTreeMap::new();
                for ((k, c), &b) in items.iter().zip(&buckets) {
                    *sizes.entry(b).or_default() += k.encoded_len() + c.encoded_len();
                }
                let mut bufs: BTreeMap<usize, (PayloadBuilder, u64)> = sizes
                    .into_iter()
                    .map(|(b, len)| (b, (PayloadBuilder::with_capacity(len), 0)))
                    .collect();
                // Pairs are serialized exactly once, straight into
                // their bucket's frame.
                for ((k, c), b) in items.into_iter().zip(buckets) {
                    let slot = bufs.get_mut(&b).expect("sized in the pass above");
                    // Declared (logical) bytes: exact encoded size for
                    // dense types, deliberately larger for virtual
                    // blocks (their accounting weight is the point).
                    slot.1 += (k.approx_bytes() + c.approx_bytes()) as u64;
                    k.encode(slot.0.buf());
                    c.encode(slot.0.buf());
                }
                // Flush in bucket order (the map is ordered): a varying
                // shuffle-write sequence (and thus staging overflow
                // points) between runs would break seeded replay.
                let compression = inner_ctx.inner.conf.compression;
                for (bucket, (builder, declared)) in bufs {
                    inner_ctx.inner.shuffle.write(
                        shuffle_id,
                        p,
                        bucket,
                        tc.node(),
                        builder.seal(compression),
                        declared,
                        tc,
                    )?;
                }
                Ok(())
            }),
        )?;
        Ok(())
    }
}

impl<K: Key, V: ShufVal, C: ShufVal> Drop for ShuffledRdd<K, V, C> {
    fn drop(&mut self) {
        // Last lineage reference gone ⇒ nothing can fetch this shuffle
        // again: release its staged bytes (Spark's ContextCleaner
        // removing a shuffle, but per-shuffle instead of global) and
        // retire its materialization latch.
        let ctx = self.parent.ctx();
        ctx.inner.shuffle.release(self.shuffle_id);
        ctx.inner.registry.remove(self.shuffle_id);
    }
}

impl<K: Key, V: ShufVal, C: ShufVal> RddOps<K, C> for ShuffledRdd<K, V, C> {
    fn explain_into(&self, depth: usize, out: &mut String) {
        let (id, n) = (self.shuffle_id, self.partitions);
        let line = match self.merge {
            Some(_) => {
                format!("CombineByKey [WIDE shuffle #{id}, {n} partitions, map-side combine]")
            }
            None => format!(
                "PartitionBy [WIDE shuffle #{id}, {n} partitions, {}]",
                self.partitioner.signature().0
            ),
        };
        write_plan_line(out, depth, &line);
        self.parent.explain_into(depth + 1, out);
    }
    fn ctx(&self) -> &SparkContext {
        self.parent.ctx()
    }
    fn num_partitions(&self) -> usize {
        self.partitions
    }
    fn partitioner_sig(&self) -> Option<PartSig> {
        let (name, param) = self.partitioner.signature();
        Some((name, param, self.partitions))
    }
    fn shuffle_deps(self: Arc<Self>) -> Vec<Arc<dyn ShuffleDep>> {
        vec![self]
    }
    fn compute(&self, p: usize, tc: &TaskContext) -> Result<Vec<(K, C)>, JobError> {
        let ctx = self.parent.ctx();
        let payloads = ctx.inner.shuffle.fetch(self.shuffle_id, p, tc)?;
        let mut pairs = Vec::new();
        for payload in payloads {
            // Uncompressed frames open as a zero-copy view of the
            // staged allocation; decode consumes the view in place.
            let mut buf = payload.open()?;
            while buf.has_remaining() {
                let k = K::decode(&mut buf)?;
                let c = C::decode(&mut buf)?;
                pairs.push((k, c));
            }
        }
        Ok(match &self.merge {
            Some(merge) => combine_ordered(pairs, |c| c, &**merge),
            None => pairs,
        })
    }
}

/// Materialized dataset: partitions live in executor block stores at
/// a chosen [`StorageLevel`]. A `checkpoint` cuts the lineage
/// (`parent: None`); a `persist` retains it so dropped blocks can be
/// recomputed on read.
struct MaterializedRdd<K: Key, V: ShufVal> {
    ctx: SparkContext,
    cache_id: u64,
    locations: Vec<usize>,
    sig: Option<PartSig>,
    level: StorageLevel,
    /// Retained lineage (persist). Keeping the parent ops alive also
    /// keeps its upstream shuffles staged — the real cost of
    /// recompute-on-evict.
    parent: Option<Arc<dyn RddOps<K, V>>>,
}

impl<K: Key, V: ShufVal> Drop for MaterializedRdd<K, V> {
    fn drop(&mut self) {
        // Last handle gone ⇒ reclaim executor memory and disk
        // (Spark's ContextCleaner unpersisting a dropped RDD).
        for executor in &self.ctx.inner.executors {
            executor.store.evict(self.cache_id);
        }
    }
}

impl<K: Key, V: ShufVal> MaterializedRdd<K, V> {
    /// Partition `p` as `pick` copies it out of the cached pairs. The
    /// reader gets its own Vec, as a `MEMORY_ONLY` partition hands out
    /// object references: `pick` clones only what it keeps, a dense
    /// tile's clone shares its cells, and a kernel that writes a tile
    /// copies it then.
    fn read(
        &self,
        p: usize,
        tc: &TaskContext,
        pick: impl Fn(&[(K, V)]) -> Vec<(K, V)>,
    ) -> Result<Vec<(K, V)>, JobError> {
        let owner = self.locations[p];
        let store = &self.ctx.inner.executors[owner].store;
        let cached = || -> Result<Option<Vec<(K, V)>>, JobError> {
            let Some((data, bytes)) = store.get::<Vec<(K, V)>>(self.cache_id, p, Some(tc))? else {
                return Ok(None);
            };
            if owner != tc.node() {
                // Reading a cached partition from another node crosses
                // the network (in-memory object, no measured wire form).
                tc.add_remote_read(bytes, 0);
            }
            Ok(Some(pick(&data)))
        };
        if let Some(items) = cached()? {
            return Ok(items);
        }
        let Some(parent) = &self.parent else {
            return Err(JobError::MissingBlock(format!(
                "cache {} partition {p} on node {owner} (lineage was cut)",
                self.cache_id
            )));
        };
        // Lineage recomputation, exactly once per dropped block: the
        // per-partition latch serializes concurrent readers; whoever
        // enters first re-checks the store, recomputes on a confirmed
        // miss, and re-caches for the others.
        let latch = store.recompute_latch(self.cache_id, p);
        let _guard = latch.lock();
        if let Some(items) = cached()? {
            return Ok(items);
        }
        let items = Arc::new(parent.compute(p, tc)?);
        store.note_recompute();
        let bytes = pairs_bytes(&items);
        // Re-cache on the owner (keeps `locations` authoritative);
        // best-effort — under unrelenting pressure readers keep
        // recomputing from lineage.
        let _ = store.put(
            self.cache_id,
            p,
            Arc::clone(&items),
            bytes,
            self.level,
            true,
            Some(tc),
        );
        Ok(pick(&items))
    }
}

impl<K: Key, V: ShufVal> RddOps<K, V> for MaterializedRdd<K, V> {
    fn explain_into(&self, depth: usize, out: &mut String) {
        write_plan_line(
            out,
            depth,
            &format!(
                "Materialized [{} #{}, {:?}, {} partitions pinned to executors]",
                if self.parent.is_some() {
                    "persist"
                } else {
                    "checkpoint"
                },
                self.cache_id,
                self.level,
                self.locations.len()
            ),
        );
        if let Some(parent) = &self.parent {
            parent.explain_into(depth + 1, out);
        }
    }
    fn ctx(&self) -> &SparkContext {
        &self.ctx
    }
    fn num_partitions(&self) -> usize {
        self.locations.len()
    }
    fn partitioner_sig(&self) -> Option<PartSig> {
        self.sig
    }
    fn shuffle_deps(self: Arc<Self>) -> Vec<Arc<dyn ShuffleDep>> {
        // Reads serve from the block stores; lineage recomputation of a
        // dropped block (persist) fetches upstream shuffles directly
        // inside the task — they stay staged because the retained
        // parent ops keep them alive, not because the DAG re-plans.
        Vec::new()
    }
    fn compute(&self, p: usize, tc: &TaskContext) -> Result<Vec<(K, V)>, JobError> {
        self.read(p, tc, |items| items.to_vec())
    }
    fn compute_where(
        &self,
        p: usize,
        tc: &TaskContext,
        keep: &Keep<'_, K, V>,
    ) -> Result<Vec<(K, V)>, JobError> {
        self.read(p, tc, |items| {
            let kept = items.iter().filter(|(k, v)| keep(k, v));
            kept.cloned().collect()
        })
    }
    fn preferred_node(&self, p: usize) -> Option<usize> {
        Some(self.locations[p])
    }
}

// ---------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------

/// A distributed collection of key-value pairs (lazily evaluated).
pub struct Rdd<K: Key, V: ShufVal> {
    pub(crate) ctx: SparkContext,
    pub(crate) ops: Arc<dyn RddOps<K, V>>,
}

impl<K: Key, V: ShufVal> Clone for Rdd<K, V> {
    fn clone(&self) -> Self {
        Rdd {
            ctx: self.ctx.clone(),
            ops: Arc::clone(&self.ops),
        }
    }
}

impl<K: Key, V: ShufVal> Rdd<K, V> {
    pub(crate) fn parallelize(
        ctx: SparkContext,
        data: Vec<(K, V)>,
        partitions: usize,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Self {
        assert!(partitions >= 1);
        let mut parts: Vec<Vec<(K, V)>> = (0..partitions).map(|_| Vec::new()).collect();
        for (k, v) in data {
            let b = partitioner.partition(&k, partitions);
            parts[b].push((k, v));
        }
        let (name, param) = partitioner.signature();
        let ops = Arc::new(ParallelizeRdd {
            ctx: ctx.clone(),
            parts: Arc::new(parts),
            sig: Some((name, param, partitions)),
        });
        Rdd { ctx, ops }
    }

    /// The owning context.
    pub fn context(&self) -> &SparkContext {
        &self.ctx
    }

    /// Partition count of this RDD.
    pub fn num_partitions(&self) -> usize {
        self.ops.num_partitions()
    }

    /// Known key-placement signature, if any.
    pub fn partitioner_sig(&self) -> Option<PartSig> {
        self.ops.partitioner_sig()
    }

    /// Human-readable plan: the lineage tree (one node per line,
    /// children indented — Spark's `toDebugString`) followed by the
    /// stage graph the DAG scheduler extracts from it (one stage per
    /// shuffle, parents before children, plus the result stage) and a
    /// note counting elided shuffles. RDDs with no upstream shuffles
    /// print the lineage tree alone.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.ops.explain_into(0, &mut out);
        let elided = out.matches("[elided").count();
        let roots = Arc::clone(&self.ops).shuffle_deps();
        if !roots.is_empty() {
            out.push_str("== stage graph ==\n");
            dag::explain_graph_into(&roots, &mut out);
            let ids = dag::shuffle_ids(&roots);
            out.push_str(&format!("stage result <- {}\n", dag::fmt_parent_ids(&ids)));
        }
        if elided > 0 {
            out.push_str(&format!(
                "note: {elided} shuffle(s) elided (already co-partitioned)\n"
            ));
        }
        out
    }

    /// A [`NarrowRdd`] over `self`.
    pub(crate) fn narrow<K2: Key, V2: ShufVal>(
        &self,
        label: impl Into<String>,
        keeps_partitioning: bool,
        f: impl Fn(usize, Vec<(K, V)>, &TaskContext) -> Vec<(K2, V2)> + Send + Sync + 'static,
    ) -> Rdd<K2, V2> {
        Rdd {
            ctx: self.ctx.clone(),
            ops: Arc::new(NarrowRdd {
                parent: Arc::clone(&self.ops),
                f: Arc::new(f),
                label: label.into(),
                keeps_partitioning,
            }),
        }
    }

    /// Narrow: transform each pair (may change key and value types).
    pub fn map<K2: Key, V2: ShufVal>(
        &self,
        f: impl Fn((K, V)) -> (K2, V2) + Send + Sync + 'static,
    ) -> Rdd<K2, V2> {
        self.narrow("Map [narrow]", false, move |_, items, _| {
            items.into_iter().map(&f).collect()
        })
    }

    /// Narrow: transform values, keeping keys (and partitioning).
    pub fn map_values<V2: ShufVal>(
        &self,
        f: impl Fn(V) -> V2 + Send + Sync + 'static,
    ) -> Rdd<K, V2> {
        self.narrow(
            "MapValues [narrow, preserves partitioning]",
            true,
            move |_, items, _| items.into_iter().map(|(k, v)| (k, f(v))).collect(),
        )
    }

    /// Narrow: transform each pair into zero or more pairs.
    pub fn flat_map<K2: Key, V2: ShufVal>(
        &self,
        f: impl Fn((K, V)) -> Vec<(K2, V2)> + Send + Sync + 'static,
    ) -> Rdd<K2, V2> {
        self.narrow("FlatMap [narrow]", false, move |_, items, _| {
            items.into_iter().flat_map(&f).collect()
        })
    }

    /// Narrow: keep pairs matching the predicate.
    pub fn filter(&self, pred: impl Fn(&K, &V) -> bool + Send + Sync + 'static) -> Rdd<K, V> {
        Rdd {
            ctx: self.ctx.clone(),
            ops: Arc::new(FilterRdd {
                parent: Arc::clone(&self.ops),
                pred: Arc::new(pred),
            }),
        }
    }

    /// Narrow: the pairs of both RDDs (see [`SparkContext::union`]).
    pub fn union(&self, other: &Rdd<K, V>) -> Rdd<K, V> {
        Rdd::union_of(self.ctx.clone(), vec![self.clone(), other.clone()])
    }

    /// One union node over `rdds` (non-empty).
    pub(crate) fn union_of(ctx: SparkContext, rdds: Vec<Rdd<K, V>>) -> Rdd<K, V> {
        let parents: Vec<_> = rdds.into_iter().map(|rdd| rdd.ops).collect();
        let first = parents[0].partitioner_sig();
        let sig = first.filter(|_| parents.iter().all(|q| q.partitioner_sig() == first));
        let ops = Arc::new(UnionRdd { parents, sig });
        Rdd { ctx, ops }
    }

    /// Narrow: transform whole partitions, possibly changing the key
    /// and value types (Spark's `mapPartitions`). `f` receives the
    /// partition index and the task context, so DP kernels can record
    /// their work. `preserves_partitioning` asserts that every output
    /// key stays in the partition its input came from, so the parent's
    /// signature carries over.
    pub fn map_partitions<K2: Key, V2: ShufVal>(
        &self,
        preserves_partitioning: bool,
        f: impl Fn(usize, Vec<(K, V)>, &TaskContext) -> Vec<(K2, V2)> + Send + Sync + 'static,
    ) -> Rdd<K2, V2> {
        self.narrow("MapPartitions [narrow]", preserves_partitioning, f)
    }

    /// Narrow: reduce the partition count by concatenating groups of
    /// parent partitions (no shuffle).
    ///
    /// When the parent carries a known partitioner signature and
    /// `target` divides the current count, the grouping is chosen to
    /// match that partitioner's layout family (modulo groups for hash,
    /// contiguous runs for grid — see [`SigLayout`]) so the signature
    /// stays valid at the reduced count and a following `partition_by`
    /// with the same partitioner elides its shuffle. Otherwise keys
    /// from different buckets co-reside and the signature is dropped.
    pub fn coalesce(&self, target: usize) -> Rdd<K, V> {
        let target = target.max(1);
        let current = self.num_partitions();
        if target >= current {
            return self.clone();
        }
        let compat = self.ops.partitioner_sig().and_then(|(name, param, n)| {
            if n == current && current.is_multiple_of(target) {
                sig_layout(name).map(|layout| ((name, param, target), layout))
            } else {
                None
            }
        });
        let contiguous = |g: usize| -> Vec<usize> {
            (0..current).filter(|p| p * target / current == g).collect()
        };
        let (groups, sig): (Vec<Vec<usize>>, Option<PartSig>) = match compat {
            Some((sig, SigLayout::Modulo)) => (
                (0..target)
                    .map(|g| (0..current).filter(|p| p % target == g).collect())
                    .collect(),
                Some(sig),
            ),
            Some((sig, SigLayout::Contiguous)) => {
                ((0..target).map(contiguous).collect(), Some(sig))
            }
            None => ((0..target).map(contiguous).collect(), None),
        };
        Rdd {
            ctx: self.ctx.clone(),
            ops: Arc::new(CoalescedRdd {
                parent: Arc::clone(&self.ops),
                groups,
                sig,
            }),
        }
    }

    /// A [`ShuffledRdd`] over `self`, owning a fresh shuffle id.
    #[allow(clippy::type_complexity)]
    fn shuffled<C: ShufVal>(
        &self,
        stage: Arc<dyn Fn(Vec<(K, V)>) -> Vec<(K, C)> + Send + Sync>,
        merge: Option<Arc<dyn Fn(C, C) -> C + Send + Sync>>,
        partitions: usize,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<K, C> {
        Rdd {
            ctx: self.ctx.clone(),
            ops: Arc::new(ShuffledRdd {
                parent: Arc::clone(&self.ops),
                stage,
                merge,
                partitioner,
                partitions,
                shuffle_id: self.ctx.next_id(),
            }),
        }
    }

    /// Wide: redistribute by `partitioner` into `partitions`. Elided
    /// when the RDD is already partitioned identically — the paper's
    /// footnote-1 fast path: no shuffle node enters the stage graph,
    /// only a pass-through marker that keeps the elision visible in
    /// `explain()`.
    pub fn partition_by(
        &self,
        partitions: usize,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<K, V> {
        let (name, param) = partitioner.signature();
        if self.ops.partitioner_sig() == Some((name, param, partitions)) {
            return self.narrow(
                format!("PartitionBy [elided: already partitioned by {name} into {partitions}]"),
                true,
                |_, items, _| items,
            );
        }
        self.shuffled(Arc::new(|items| items), None, partitions, partitioner)
    }

    /// Wide: Spark's `combineByKey` with map-side combining.
    pub fn combine_by_key<C: ShufVal>(
        &self,
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(C, V) -> C + Send + Sync + 'static,
        merge_combiners: impl Fn(C, C) -> C + Send + Sync + 'static,
        partitions: usize,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<K, C> {
        self.shuffled(
            Arc::new(move |items| combine_ordered(items, &create, &merge_value)),
            Some(Arc::new(merge_combiners)),
            partitions,
            partitioner,
        )
    }

    /// Wide: group all values per key (deterministic order: map-task
    /// order, then first-seen order within each map task).
    pub fn group_by_key(
        &self,
        partitions: usize,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<K, Vec<V>> {
        self.combine_by_key(
            |v| vec![v],
            |mut acc, v| {
                acc.push(v);
                acc
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
            partitions,
            partitioner,
        )
    }

    /// Wide: reduce values per key.
    pub fn reduce_by_key(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + Clone + 'static,
        partitions: usize,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<K, V> {
        let g = f.clone();
        self.combine_by_key(|v| v, f, g, partitions, partitioner)
    }

    /// Materialize every upstream shuffle through the DAG scheduler,
    /// then run the result stage itself. Returns the results and the
    /// result stage's ordinal (for post-hoc record annotation).
    ///
    /// A [`JobError::FetchFailed`] — map outputs lost with their
    /// executor — resubmits the whole action (Spark's map-stage
    /// resubmission): the lost shuffle's latch reopens so the next
    /// plan pass re-runs its map stage from lineage, and each retry
    /// walks one more lost lineage level if the recovery itself hits
    /// a missing grandparent. Bounded by [`MAX_FETCH_RETRIES`].
    fn run_action<R: Send + 'static>(
        &self,
        label: &str,
        work: TaskFn<R>,
    ) -> Result<(Vec<R>, u64), JobError> {
        let mut resubmits = 0usize;
        loop {
            match self.run_action_once(label, Arc::clone(&work)) {
                Err(JobError::FetchFailed { shuffle, .. }) if resubmits < MAX_FETCH_RETRIES => {
                    resubmits += 1;
                    self.ctx.note_stage_resubmission(shuffle);
                }
                other => return other,
            }
        }
    }

    fn run_action_once<R: Send + 'static>(
        &self,
        label: &str,
        work: TaskFn<R>,
    ) -> Result<(Vec<R>, u64), JobError> {
        dag::check_cancelled()?;
        let roots = Arc::clone(&self.ops).shuffle_deps();
        dag::materialize_stage_graph(&self.ctx, &roots)?;
        dag::check_cancelled()?;
        let meta = StageMeta {
            stage_id: self.ctx.alloc_stage_ordinal(),
            parent_shuffles: dag::shuffle_ids(&roots),
            concurrent: self.ctx.stage_launched(),
        };
        let stage_id = meta.stage_id;
        let n = self.ops.num_partitions();
        let pref = {
            let ops = Arc::clone(&self.ops);
            move |p: usize| ops.preferred_node(p)
        };
        let res = self.ctx.run_stage(label, meta, n, pref, work);
        self.ctx.stage_finished();
        res.map(|r| (r, stage_id))
    }

    /// Action: pull every pair to the driver (partition order).
    pub fn collect(&self) -> Result<Vec<(K, V)>, JobError> {
        let ops = Arc::clone(&self.ops);
        let (parts, stage_id) = self.run_action(
            "collect",
            Arc::new(move |p, tc: &TaskContext| ops.compute(p, tc)),
        )?;
        let total_bytes: u64 = parts.iter().map(|items| pairs_bytes(items)).sum();
        self.ctx.annotate_stage(stage_id, total_bytes, 0);
        Ok(parts.into_iter().flatten().collect())
    }

    /// Action: number of pairs.
    pub fn count(&self) -> Result<usize, JobError> {
        let ops = Arc::clone(&self.ops);
        let (counts, _) = self.run_action(
            "count",
            Arc::new(move |p, tc: &TaskContext| Ok(ops.compute(p, tc)?.len())),
        )?;
        Ok(counts.into_iter().sum())
    }

    /// Materialize every partition into the block stores at `level`
    /// and cut the lineage (Spark `persist` + `localCheckpoint`). The
    /// returned RDD reads from the block stores; tasks prefer the
    /// owning node. With the lineage cut, blocks are pinned in memory
    /// unless `level` allows spilling them to the disk tier.
    pub fn checkpoint_with_level(&self, level: StorageLevel) -> Result<Rdd<K, V>, JobError> {
        self.materialize_with(level, false)
    }

    /// Materialize every partition at `level` while *retaining* the
    /// lineage (Spark `persist`): blocks dropped under memory pressure
    /// are recomputed from their parents on the next read. Retained
    /// lineage keeps upstream shuffles staged until the returned RDD
    /// is dropped.
    pub fn persist(&self, level: StorageLevel) -> Result<Rdd<K, V>, JobError> {
        self.materialize_with(level, true)
    }

    fn materialize_with(
        &self,
        level: StorageLevel,
        keep_lineage: bool,
    ) -> Result<Rdd<K, V>, JobError> {
        let ops = Arc::clone(&self.ops);
        let cache_id = self.ctx.next_id();
        let ctx = self.ctx.clone();
        let (locations, _) = self.run_action(
            "checkpoint",
            Arc::new(move |p, tc: &TaskContext| {
                let items = ops.compute(p, tc)?;
                let bytes = pairs_bytes(&items);
                ctx.inner.executors[tc.node()].store.put(
                    cache_id,
                    p,
                    Arc::new(items),
                    bytes,
                    level,
                    keep_lineage,
                    Some(tc),
                )?;
                Ok(tc.node())
            }),
        )?;
        // A failed attempt may have cached its block before the fault
        // fired, while the committed retry landed on another node.
        // Only the winner's copy is in `locations`; reclaim the rest
        // so retries never double-charge memory or disk.
        for (p, &owner) in locations.iter().enumerate() {
            for (node, executor) in self.ctx.inner.executors.iter().enumerate() {
                if node != owner {
                    executor.store.discard(cache_id, p);
                }
            }
        }
        Ok(Rdd {
            ctx: self.ctx.clone(),
            ops: Arc::new(MaterializedRdd {
                ctx: self.ctx.clone(),
                cache_id,
                locations,
                sig: self.ops.partitioner_sig(),
                level,
                parent: keep_lineage.then(|| Arc::clone(&self.ops)),
            }),
        })
    }
}
