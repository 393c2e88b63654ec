//! Extended pair-RDD operations: cogroup/join, key/value projections,
//! count-by-key, and a sampled range partitioner with `sort_by_key` —
//! the rest of the classic Spark pair-RDD surface, built on the same
//! shuffle machinery.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::Storable;
use crate::error::JobError;
use crate::partitioner::Partitioner;
use crate::rdd::{combine_ordered, Key, Rdd, ShufVal};

/// Two-sided tagged value for cogrouping heterogeneous RDDs.
#[derive(Debug, Clone, PartialEq)]
pub enum Either<L, R> {
    /// A value from the left RDD.
    Left(L),
    /// A value from the right RDD.
    Right(R),
}

impl<L: Storable, R: Storable> Storable for Either<L, R> {
    fn encoded_len(&self) -> usize {
        1 + match self {
            Either::Left(l) => l.encoded_len(),
            Either::Right(r) => r.encoded_len(),
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Either::Left(l) => {
                buf.put_u8(0);
                l.encode(buf);
            }
            Either::Right(r) => {
                buf.put_u8(1);
                r.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        if buf.remaining() < 1 {
            return Err(JobError::Codec("Either tag underrun".into()));
        }
        match buf.get_u8() {
            0 => Ok(Either::Left(L::decode(buf)?)),
            1 => Ok(Either::Right(R::decode(buf)?)),
            t => Err(JobError::Codec(format!("bad Either tag {t}"))),
        }
    }

    fn approx_bytes(&self) -> usize {
        1 + match self {
            Either::Left(l) => l.approx_bytes(),
            Either::Right(r) => r.approx_bytes(),
        }
    }
}

impl<K: Key, V: ShufVal> Rdd<K, V> {
    /// Group this RDD with another by key: for each key present in
    /// either side, all left values, then all right values, each side
    /// in map-task order (Spark's `CoGroupedRDD`). A side already placed
    /// by `(partitioner, partitions)` is a narrow one-to-one dependency
    /// (its repartition elides) and only the other side shuffles; with
    /// both placed, no shuffle runs. The output keeps the signature, so
    /// [`Rdd::join`], [`Rdd::left_outer_join`] and a following
    /// `partition_by` inherit the rule.
    pub fn cogroup<W: ShufVal>(
        &self,
        other: &Rdd<K, W>,
        partitions: usize,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<K, (Vec<V>, Vec<W>)> {
        let left = self
            .partition_by(partitions, Arc::clone(&partitioner))
            .map_values(Either::Left);
        let right = other
            .partition_by(partitions, partitioner)
            .map_values(Either::Right);
        // Both sides now share one signature, so the union zips them.
        left.union(&right)
            .narrow("CoGroup [narrow]", true, |_p, tagged, _tc| {
                let push = |(mut ls, mut rs): (Vec<V>, Vec<W>), t: Either<V, W>| {
                    match t {
                        Either::Left(l) => ls.push(l),
                        Either::Right(r) => rs.push(r),
                    }
                    (ls, rs)
                };
                combine_ordered(tagged, |t| push((Vec::new(), Vec::new()), t), push)
            })
    }

    /// Inner join: one output pair per (left value, right value) combo
    /// sharing a key.
    pub fn join<W: ShufVal>(
        &self,
        other: &Rdd<K, W>,
        partitions: usize,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<K, (V, W)> {
        self.cogroup(other, partitions, partitioner)
            .flat_map(|(k, (ls, rs))| {
                let mut out = Vec::with_capacity(ls.len() * rs.len());
                for l in &ls {
                    for r in &rs {
                        out.push((k.clone(), (l.clone(), r.clone())));
                    }
                }
                out
            })
    }

    /// Left outer join: every left pair, with `None` where the right
    /// side has no match.
    pub fn left_outer_join<W: ShufVal>(
        &self,
        other: &Rdd<K, W>,
        partitions: usize,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<K, (V, Option<W>)> {
        self.cogroup(other, partitions, partitioner)
            .flat_map(|(k, (ls, rs))| {
                let mut out = Vec::new();
                for l in &ls {
                    if rs.is_empty() {
                        out.push((k.clone(), (l.clone(), None)));
                    } else {
                        for r in &rs {
                            out.push((k.clone(), (l.clone(), Some(r.clone()))));
                        }
                    }
                }
                out
            })
    }

    /// Count of pairs per key (runs a shuffle with map-side combining).
    pub fn count_by_key(
        &self,
        partitions: usize,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Result<HashMap<K, u64>, JobError> {
        let counts = self
            .map_values(|_| 1u64)
            .reduce_by_key(|a, b| a + b, partitions, partitioner)
            .collect()?;
        Ok(counts.into_iter().collect())
    }
}

impl<K: Key, V: ShufVal> Rdd<K, V> {
    /// Action: up to `n` pairs, in partition order (computes partitions
    /// until enough items are found; does not run later ones).
    pub fn take(&self, n: usize) -> Result<Vec<(K, V)>, JobError> {
        // Simplicity over laziness: collect then truncate. The engine's
        // partitions are computed in one stage anyway.
        let mut all = self.collect()?;
        all.truncate(n);
        Ok(all)
    }

    /// Action: the first pair, if any.
    pub fn first(&self) -> Result<Option<(K, V)>, JobError> {
        Ok(self.take(1)?.into_iter().next())
    }

    /// Narrow: deterministic Bernoulli sample by key hash (the same
    /// pair is kept or dropped independent of partitioning).
    pub fn sample(&self, fraction: f64, seed: u64) -> Rdd<K, V> {
        assert!((0.0..=1.0).contains(&fraction));
        let threshold = (fraction * u64::MAX as f64) as u64;
        self.filter(move |k, _| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            seed.hash(&mut h);
            k.hash(&mut h);
            h.finish() <= threshold
        })
    }
}

/// Range partitioner over `Ord` keys: partition `i` holds keys in
/// `(bounds[i-1], bounds[i]]`-style ranges, giving globally sorted
/// output when each partition is sorted locally. Built by sampling,
/// like Spark's.
#[derive(Debug, Clone)]
pub struct RangePartitioner<K> {
    bounds: Vec<K>,
    signature: u64,
}

impl<K: Ord + Clone + std::hash::Hash> RangePartitioner<K> {
    /// Build from a sample of keys for `partitions` output partitions.
    pub fn from_sample(mut sample: Vec<K>, partitions: usize) -> Self {
        assert!(partitions >= 1);
        sample.sort();
        sample.dedup();
        let mut bounds = Vec::new();
        if !sample.is_empty() {
            for i in 1..partitions {
                let idx = i * sample.len() / partitions;
                if idx < sample.len() {
                    bounds.push(sample[idx].clone());
                }
            }
            bounds.dedup();
        }
        // Signature: hash of the bounds, so identical partitioners elide.
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        bounds.len().hash(&mut h);
        for b in &bounds {
            b.hash(&mut h);
        }
        RangePartitioner {
            bounds,
            signature: h.finish(),
        }
    }
}

impl<K: Ord + Clone + std::hash::Hash + Send + Sync> Partitioner<K> for RangePartitioner<K> {
    fn partition(&self, key: &K, num_partitions: usize) -> usize {
        let idx = self.bounds.partition_point(|b| b < key);
        idx.min(num_partitions - 1)
    }

    fn signature(&self) -> (&'static str, u64) {
        ("range", self.signature)
    }
}

impl<K: Key + Ord, V: ShufVal> Rdd<K, V> {
    /// Globally sort by key: sample keys, range-partition, sort each
    /// partition locally. `collect()` then yields fully sorted pairs.
    pub fn sort_by_key(&self, partitions: usize) -> Result<Rdd<K, V>, JobError> {
        let partitions = partitions.max(1);
        // Driver-side sampling pass (Spark samples too; we take keys
        // from a count-style stage — small since keys only).
        let sample: Vec<K> = self
            .map_values(|_| ())
            .collect()?
            .into_iter()
            .map(|(k, ())| k)
            .collect();
        let partitioner = Arc::new(RangePartitioner::from_sample(sample, partitions));
        Ok(self
            .partition_by(partitions, partitioner)
            .map_partitions(true, |_p, mut items, _tc| {
                items.sort_by(|a, b| a.0.cmp(&b.0));
                items
            }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_one, encode_one};

    #[test]
    fn either_roundtrips() {
        let l: Either<u64, f64> = Either::Left(7);
        let r: Either<u64, f64> = Either::Right(2.5);
        assert_eq!(decode_one::<Either<u64, f64>>(encode_one(&l)).unwrap(), l);
        assert_eq!(decode_one::<Either<u64, f64>>(encode_one(&r)).unwrap(), r);
    }

    #[test]
    fn range_partitioner_orders_partitions() {
        let sample: Vec<u64> = (0..100).collect();
        let p = RangePartitioner::from_sample(sample, 4);
        let mut last = 0;
        for k in 0..100u64 {
            let part = p.partition(&k, 4);
            assert!(part >= last, "partition must be monotone in key");
            assert!(part < 4);
            last = part;
        }
        // Each quartile maps to a distinct partition.
        assert_ne!(p.partition(&5, 4), p.partition(&95, 4));
    }

    #[test]
    fn range_partitioner_handles_tiny_samples() {
        let p = RangePartitioner::from_sample(Vec::<u64>::new(), 8);
        assert_eq!(p.partition(&42, 8), 0);
        let p = RangePartitioner::from_sample(vec![5u64], 8);
        assert!(p.partition(&1, 8) < 8);
        assert!(p.partition(&9, 8) < 8);
    }
}
