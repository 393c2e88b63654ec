//! Cogroup: group two pair-RDDs by key (Spark's `CoGroupedRDD`), the
//! one two-sided operation the In-Memory iteration needs, built on the
//! same shuffle machinery.

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
    /// a following `partition_by` inherits the rule.
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
}
