//! Distribution blocks — the values of the DP-table RDD.
//!
//! A [`Block`] is a real owned matrix tile (dense row-major), a
//! *sparse* CSR tile, or a *virtual* tile that carries only its
//! geometry. Virtual blocks flow through the exact same dataflow (same
//! keys, same shuffles, same stages) but skip the numeric kernel and
//! *declare* their full-scale size to the byte accounting
//! ([`sparklet::Storable::approx_bytes`]), which is how paper-scale
//! (32K×32K) configurations are timed without terabytes of traffic.
//!
//! Sparse tiles make the representation itself part of the data plane:
//! their wire frame and byte accounting are **nnz-exact** (header +
//! fill + `row_ptr` + `nnz · (index + element)`), so a low-density
//! tile is cheap on the wire, in the tiered store, and in the cost
//! model — the property the dense-FW vs sparse-sweeps crossover study
//! measures. The dense (`TAG_REAL`/`TAG_VIRTUAL`) frames are
//! byte-identical to every prior release; `TAG_SPARSE` is purely
//! additive.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gep_kernels::sparse::Csr;
use gep_kernels::Matrix;
use sparklet::codec::{decode_le_slice, encode_le_slice};
use sparklet::{JobError, Storable};

/// Element codec: fixed-width wire encoding for table elements.
///
/// The slice hooks let [`Block`] move a whole tile in one copy:
/// fixed-width numeric elements override them with
/// [`encode_le_slice`]/[`decode_le_slice`], and the defaults keep the
/// element-wise loop byte-identical for everything else.
pub trait ElemCodec: gep_kernels::matrix::Elem {
    /// Encoded size in bytes.
    const BYTES: usize;
    /// Append the fixed-width encoding.
    fn put(&self, buf: &mut BytesMut);
    /// Decode one element, advancing the buffer.
    fn take(buf: &mut Bytes) -> Result<Self, JobError>;

    /// Append a dense run of elements (bulk-copy override point).
    fn put_slice(items: &[Self], buf: &mut BytesMut) {
        for e in items {
            e.put(buf);
        }
    }

    /// Decode a dense run of `n` elements. Implementations must bounds
    /// check before allocating so corrupted headers cannot OOM.
    fn take_slice(buf: &mut Bytes, n: usize) -> Result<Vec<Self>, JobError> {
        let mut out = Vec::with_capacity(n.min(buf.remaining() / Self::BYTES.max(1)));
        for _ in 0..n {
            out.push(Self::take(buf)?);
        }
        Ok(out)
    }
}

impl ElemCodec for f64 {
    const BYTES: usize = 8;
    fn put(&self, buf: &mut BytesMut) {
        buf.put_f64_le(*self);
    }
    fn take(buf: &mut Bytes) -> Result<Self, JobError> {
        if buf.remaining() < 8 {
            return Err(JobError::Codec("f64 underrun".into()));
        }
        Ok(buf.get_f64_le())
    }
    fn put_slice(items: &[Self], buf: &mut BytesMut) {
        encode_le_slice(items, buf);
    }
    fn take_slice(buf: &mut Bytes, n: usize) -> Result<Vec<Self>, JobError> {
        decode_le_slice(buf, n)
    }
}

impl ElemCodec for bool {
    const BYTES: usize = 1;
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    fn take(buf: &mut Bytes) -> Result<Self, JobError> {
        if buf.remaining() < 1 {
            return Err(JobError::Codec("bool underrun".into()));
        }
        Ok(buf.get_u8() != 0)
    }
    fn put_slice(items: &[Self], buf: &mut BytesMut) {
        // SAFETY: `bool` is one byte whose only values are 0 and 1 —
        // its memory representation is exactly the wire encoding.
        let raw = unsafe { std::slice::from_raw_parts(items.as_ptr().cast::<u8>(), items.len()) };
        buf.extend_from_slice(raw);
    }
    fn take_slice(buf: &mut Bytes, n: usize) -> Result<Vec<Self>, JobError> {
        if buf.remaining() < n {
            return Err(JobError::Codec("bool slice underrun".into()));
        }
        let raw = buf.split_to(n);
        Ok(raw.iter().map(|b| *b != 0).collect())
    }
}

/// One `b×b` tile of the distributed DP table.
#[derive(Debug, Clone, PartialEq)]
pub enum Block<E> {
    /// Dense data; a clone shares the cells until one side writes.
    Real(Matrix<E>),
    /// Owned sparse (CSR) data — only non-fill entries on the wire. A
    /// clone copies every array.
    Sparse(Csr<E>),
    /// Geometry only; kernels become cost-accounting no-ops.
    Virtual {
        /// Declared row count.
        rows: usize,
        /// Declared column count.
        cols: usize,
    },
}

impl<E: ElemCodec> Block<E> {
    /// Row count (real or declared).
    pub fn rows(&self) -> usize {
        match self {
            Block::Real(m) => m.rows(),
            Block::Sparse(c) => c.rows(),
            Block::Virtual { rows, .. } => *rows,
        }
    }

    /// Column count (real or declared).
    pub fn cols(&self) -> usize {
        match self {
            Block::Real(m) => m.cols(),
            Block::Sparse(c) => c.cols(),
            Block::Virtual { cols, .. } => *cols,
        }
    }

    /// Is this a geometry-only virtual block?
    pub fn is_virtual(&self) -> bool {
        matches!(self, Block::Virtual { .. })
    }

    /// Stored entries: `rows·cols` for dense (every cell is
    /// materialized), the CSR nnz for sparse. This is the volume the
    /// cost model prices sparse work by.
    pub fn nnz(&self) -> usize {
        match self {
            Block::Real(m) => m.rows() * m.cols(),
            Block::Sparse(c) => c.nnz(),
            Block::Virtual { rows, cols } => rows * cols,
        }
    }

    /// Logical payload size — what this block weighs on the wire at
    /// full scale. Dense geometry for dense and virtual tiles;
    /// nnz-exact for sparse tiles (their whole point is that logical
    /// volume tracks stored entries, not the n² bounding box).
    pub fn logical_bytes(&self) -> usize {
        match self {
            Block::Sparse(_) => self.encoded_len(),
            _ => 17 + self.rows() * self.cols() * E::BYTES,
        }
    }

    /// The real matrix, or a panic for virtual/sparse blocks (callers
    /// match on the variant first).
    pub fn expect_real(&self) -> &Matrix<E> {
        match self {
            Block::Real(m) => m,
            Block::Sparse(_) => panic!("sparse block is not dense (use expect_sparse)"),
            Block::Virtual { .. } => panic!("virtual block has no data"),
        }
    }

    /// Mutable access to the real matrix (panics for virtual/sparse).
    pub fn expect_real_mut(&mut self) -> &mut Matrix<E> {
        match self {
            Block::Real(m) => m,
            Block::Sparse(_) => panic!("sparse block is not dense (use expect_sparse)"),
            Block::Virtual { .. } => panic!("virtual block has no data"),
        }
    }

    /// The CSR tile, or a panic for dense/virtual blocks.
    pub fn expect_sparse(&self) -> &Csr<E> {
        match self {
            Block::Sparse(c) => c,
            Block::Real(_) => panic!("dense block is not sparse (use expect_real)"),
            Block::Virtual { .. } => panic!("virtual block has no data"),
        }
    }
}

/// Bulk hooks for newtype-over-`f64` semiring elements. Sound only for
/// `#[repr(transparent)]` wrappers, which the macro's safety comment
/// pins at each use site.
macro_rules! f64_newtype_codec {
    ($t:ty, $ctor:expr, $label:literal) => {
        impl ElemCodec for $t {
            const BYTES: usize = 8;
            fn put(&self, buf: &mut BytesMut) {
                buf.put_f64_le(self.0);
            }
            fn take(buf: &mut Bytes) -> Result<Self, JobError> {
                if buf.remaining() < 8 {
                    return Err(JobError::Codec(concat!($label, " underrun").into()));
                }
                Ok($ctor(buf.get_f64_le()))
            }
            fn put_slice(items: &[Self], buf: &mut BytesMut) {
                // SAFETY: the wrapper is `#[repr(transparent)]` over
                // `f64`, so a run of wrappers is layout-identical to a
                // run of `f64`s.
                let raw = unsafe {
                    std::slice::from_raw_parts(items.as_ptr().cast::<f64>(), items.len())
                };
                encode_le_slice(raw, buf);
            }
            fn take_slice(buf: &mut Bytes, n: usize) -> Result<Vec<Self>, JobError> {
                Ok(decode_le_slice::<f64>(buf, n)?
                    .into_iter()
                    .map($ctor)
                    .collect())
            }
        }
    };
}

f64_newtype_codec!(
    gep_kernels::semiring::MinPlus,
    gep_kernels::semiring::MinPlus,
    "MinPlus"
);
f64_newtype_codec!(
    gep_kernels::semiring::MaxMin,
    gep_kernels::semiring::MaxMin,
    "MaxMin"
);

const TAG_REAL: u8 = 0;
const TAG_VIRTUAL: u8 = 1;
const TAG_SPARSE: u8 = 2;

impl<E: ElemCodec> Storable for Block<E> {
    fn encoded_len(&self) -> usize {
        match self {
            Block::Real(m) => 17 + m.rows() * m.cols() * E::BYTES,
            // nnz-exact: header + nnz word + fill + row_ptr + entries.
            Block::Sparse(c) => 17 + 8 + E::BYTES + (c.rows() + 1) * 4 + c.nnz() * (4 + E::BYTES),
            Block::Virtual { .. } => 17,
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Block::Real(m) => {
                buf.put_u8(TAG_REAL);
                buf.put_u64_le(m.rows() as u64);
                buf.put_u64_le(m.cols() as u64);
                E::put_slice(m.as_slice(), buf);
            }
            Block::Sparse(c) => {
                buf.put_u8(TAG_SPARSE);
                buf.put_u64_le(c.rows() as u64);
                buf.put_u64_le(c.cols() as u64);
                buf.put_u64_le(c.nnz() as u64);
                c.fill().put(buf);
                encode_le_slice(c.row_ptr(), buf);
                encode_le_slice(c.col_idx(), buf);
                E::put_slice(c.vals(), buf);
            }
            Block::Virtual { rows, cols } => {
                buf.put_u8(TAG_VIRTUAL);
                buf.put_u64_le(*rows as u64);
                buf.put_u64_le(*cols as u64);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        if buf.remaining() < 17 {
            return Err(JobError::Codec("block header underrun".into()));
        }
        let tag = buf.get_u8();
        let rows = buf.get_u64_le() as usize;
        let cols = buf.get_u64_le() as usize;
        match tag {
            TAG_REAL => {
                let n = rows
                    .checked_mul(cols)
                    .ok_or_else(|| JobError::Codec("block dims overflow".into()))?;
                let data = E::take_slice(buf, n)?;
                Ok(Block::Real(Matrix::from_vec(rows, cols, data)))
            }
            TAG_SPARSE => {
                if buf.remaining() < 8 {
                    return Err(JobError::Codec("sparse block nnz underrun".into()));
                }
                let nnz = buf.get_u64_le() as usize;
                let fill = E::take(buf)?;
                let ptr_len = rows
                    .checked_add(1)
                    .ok_or_else(|| JobError::Codec("sparse block rows overflow".into()))?;
                // The slice decoders bounds-check length × width against
                // the remaining buffer before allocating, so an
                // implausible declared nnz fails here instead of OOMing.
                let row_ptr = decode_le_slice::<u32>(buf, ptr_len)?;
                let col_idx = decode_le_slice::<u32>(buf, nnz)?;
                let vals = E::take_slice(buf, nnz)?;
                let csr = Csr::try_new(rows, cols, fill, row_ptr, col_idx, vals)
                    .map_err(|e| JobError::Codec(format!("sparse block: {e}")))?;
                Ok(Block::Sparse(csr))
            }
            TAG_VIRTUAL => Ok(Block::Virtual { rows, cols }),
            t => Err(JobError::Codec(format!("bad block tag {t}"))),
        }
    }

    fn approx_bytes(&self) -> usize {
        // Declared size: full scale for both variants, so virtual runs
        // account honest byte volumes.
        self.logical_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklet::codec::{decode_one, encode_one};

    #[test]
    fn real_block_roundtrips() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 / 2.0);
        let b = Block::Real(m.clone());
        let dec: Block<f64> = decode_one(encode_one(&b)).unwrap();
        assert_eq!(dec, b);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.cols(), 4);
    }

    #[test]
    fn bool_block_roundtrips() {
        let m = Matrix::from_fn(4, 4, |i, j| (i + j) % 3 == 0);
        let b = Block::Real(m);
        let dec: Block<bool> = decode_one(encode_one(&b)).unwrap();
        assert_eq!(dec, b);
    }

    #[test]
    fn virtual_block_is_small_on_wire_but_heavy_in_accounting() {
        let b: Block<f64> = Block::Virtual {
            rows: 1024,
            cols: 1024,
        };
        let wire = encode_one(&b);
        assert_eq!(wire.len(), 17);
        assert_eq!(b.approx_bytes(), 17 + 1024 * 1024 * 8);
        let dec: Block<f64> = decode_one(wire).unwrap();
        assert_eq!(dec, b);
    }

    #[test]
    fn real_block_accounting_matches_wire() {
        let b = Block::Real(Matrix::square(16, 1.0f64));
        assert_eq!(b.approx_bytes(), encode_one(&b).len());
        assert_eq!(b.encoded_len(), encode_one(&b).len());
        let v: Block<f64> = Block::Virtual { rows: 9, cols: 7 };
        assert_eq!(v.encoded_len(), encode_one(&v).len());
    }

    #[test]
    fn bulk_element_paths_match_elementwise_encoding() {
        use gep_kernels::semiring::{MaxMin, MinPlus};
        // The slice hooks must be byte-identical to the per-element
        // loop — the wire format is pinned, only the path changed.
        fn check<E: ElemCodec + PartialEq + std::fmt::Debug>(items: Vec<E>) {
            let mut bulk = BytesMut::new();
            E::put_slice(&items, &mut bulk);
            let mut loopy = BytesMut::new();
            for e in &items {
                e.put(&mut loopy);
            }
            assert_eq!(bulk, loopy);
            let mut wire = bulk.freeze();
            let back = E::take_slice(&mut wire, items.len()).unwrap();
            assert_eq!(back, items);
            assert!(wire.is_empty());
        }
        check((0..37).map(|i| i as f64 * 1.5 - 3.0).collect());
        check((0..37).map(|i| i % 3 == 0).collect());
        check((0..37).map(|i| MinPlus(i as f64)).collect());
        check((0..37).map(|i| MaxMin(-(i as f64))).collect());
    }

    #[test]
    fn truncated_real_block_errors_cleanly() {
        let b = Block::Real(Matrix::square(4, 2.0f64));
        let wire = encode_one(&b);
        for cut in [0, 1, 16, 17, 18, wire.len() - 1] {
            let err = decode_one::<Block<f64>>(wire.slice(..cut));
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn sparse_block_roundtrips_nnz_exact() {
        let dense = Matrix::from_fn(5, 7, |i, j| {
            if (i * 7 + j) % 4 == 0 {
                (i + j) as f64
            } else {
                f64::INFINITY
            }
        });
        let csr = Csr::from_dense(&dense, f64::INFINITY);
        let nnz = csr.nnz();
        let b = Block::Sparse(csr);
        assert_eq!(b.nnz(), nnz);
        let wire = encode_one(&b);
        assert_eq!(wire.len(), b.encoded_len());
        assert_eq!(wire.len(), 17 + 8 + 8 + 6 * 4 + nnz * 12);
        // approx_bytes (accounting) tracks nnz, not the bounding box.
        assert_eq!(b.approx_bytes(), wire.len());
        assert!(b.approx_bytes() < 17 + 5 * 7 * 8);
        let dec: Block<f64> = decode_one(wire).unwrap();
        assert_eq!(dec, b);
        assert_eq!(
            dec.expect_sparse().to_dense().first_difference(&dense),
            None
        );
    }

    #[test]
    fn sparse_block_truncation_errors_never_panic() {
        let csr = Csr::from_dense(&Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64), 0.0);
        let b = Block::Sparse(csr);
        let wire = encode_one(&b);
        for cut in 0..wire.len() {
            assert!(
                decode_one::<Block<f64>>(wire.slice(..cut)).is_err(),
                "cut at {cut} must fail"
            );
        }
        assert!(decode_one::<Block<f64>>(wire).is_ok());
    }

    #[test]
    fn sparse_block_rejects_malformed_structure() {
        let csr = Csr::try_new(
            2,
            3,
            f64::INFINITY,
            vec![0, 1, 2],
            vec![2, 0],
            vec![1.0, 2.0],
        )
        .unwrap();
        let wire = encode_one(&Block::Sparse(csr));
        // Corrupt a stored column index to exceed the declared width:
        // decode must reject structurally, not just on length.
        let mut bad = wire.to_vec();
        let col_off = 17 + 8 + 8 + 3 * 4;
        bad[col_off..col_off + 4].copy_from_slice(&7u32.to_le_bytes());
        let err = decode_one::<Block<f64>>(Bytes::from(bad)).unwrap_err();
        assert!(matches!(err, JobError::Codec(_)), "got {err:?}");
        // Corrupt the nnz word to an implausible length: bounds check
        // must fire before any allocation.
        let mut huge = wire.to_vec();
        huge[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_one::<Block<f64>>(Bytes::from(huge)).is_err());
    }

    #[test]
    fn dense_wire_format_is_unchanged_by_the_sparse_variant() {
        // Pin the exact dense frame bytes: adding TAG_SPARSE must not
        // perturb TAG_REAL/TAG_VIRTUAL frames in any way.
        let b = Block::Real(Matrix::from_vec(1, 2, vec![1.0f64, 2.0]));
        let wire = encode_one(&b);
        let mut want = vec![0u8]; // TAG_REAL
        want.extend_from_slice(&1u64.to_le_bytes());
        want.extend_from_slice(&2u64.to_le_bytes());
        want.extend_from_slice(&1.0f64.to_le_bytes());
        want.extend_from_slice(&2.0f64.to_le_bytes());
        assert_eq!(wire.as_ref(), &want[..]);
        let v: Block<f64> = Block::Virtual { rows: 3, cols: 4 };
        let vwire = encode_one(&v);
        assert_eq!(vwire[0], 1); // TAG_VIRTUAL
        assert_eq!(vwire.len(), 17);
    }

    #[test]
    fn infinity_survives_the_wire() {
        let m = Matrix::from_fn(2, 2, |i, j| if i == j { 0.0 } else { f64::INFINITY });
        let b = Block::Real(m);
        let dec: Block<f64> = decode_one(encode_one(&b)).unwrap();
        assert_eq!(dec.expect_real().get(0, 1), f64::INFINITY);
    }
}
