//! Compact binary serialization for shuffle and broadcast traffic.
//!
//! Real Spark serializes everything that crosses an executor boundary;
//! the byte counts drive the paper's communication story, so `sparklet`
//! serializes for real too. The codec is deliberately simple:
//! little-endian fixed-width scalars, length-prefixed sequences —
//! enough to measure honest byte volumes and to round-trip exactly.
//!
//! The trait is bulk-oriented: [`Storable::encoded_len`] sizes a value
//! exactly without encoding it (O(1) for fixed-width and container
//! types), and [`Storable::encode_slice`] / [`Storable::decode_slice`]
//! let dense scalar runs move as single `memcpy`s instead of
//! per-element loops. On little-endian targets a dense run decodes
//! with one `copy_nonoverlapping` into its (aligned) `Vec`, wherever
//! the run starts in its buffer: a shuffled tile's run sits behind a
//! 42-byte header, so it is almost never aligned itself. Big-endian
//! targets take an element-wise loop with identical results.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::JobError;

/// A type that can cross an executor boundary (shuffle, broadcast,
/// collect). Implementations must round-trip exactly, and
/// [`Storable::encoded_len`] must equal the number of bytes
/// [`Storable::encode`] appends.
pub trait Storable: Sized {
    /// `Some(w)` when every value of the type encodes to exactly `w`
    /// bytes — enables O(1) sizing of containers and bulk slice codecs.
    const WIRE_SIZE: Option<usize> = None;

    /// Exact number of bytes [`Storable::encode`] will append. O(1)
    /// for scalars and for containers of fixed-width elements.
    fn encoded_len(&self) -> usize;

    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decode one value from the front of `buf`, advancing it.
    fn decode(buf: &mut Bytes) -> Result<Self, JobError>;

    /// Declared footprint for staging/storage/broadcast accounting.
    /// Defaults to the exact wire size; types whose wire form is a
    /// placeholder (virtual blocks) override this with their logical
    /// size instead.
    fn approx_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// Append every item of `items`. Containers call this so
    /// fixed-width scalars hit a single-`memcpy` path; the default is
    /// the element-wise loop.
    fn encode_slice(items: &[Self], buf: &mut BytesMut) {
        for item in items {
            item.encode(buf);
        }
    }

    /// Decode `n` items — the bulk inverse of
    /// [`Storable::encode_slice`].
    fn decode_slice(buf: &mut Bytes, n: usize) -> Result<Vec<Self>, JobError> {
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(Self::decode(buf)?);
        }
        Ok(out)
    }
}

fn need(buf: &Bytes, n: usize) -> Result<(), JobError> {
    if buf.remaining() < n {
        Err(JobError::Codec(format!(
            "buffer underrun: need {n} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

/// Fixed-width numeric scalars whose in-memory representation is their
/// wire representation on little-endian targets.
///
/// # Safety
///
/// Implementors must be plain-old-data: no padding, no invalid bit
/// patterns, and `size_of::<Self>() == WIDTH`, so that viewing a
/// `&[Self]` as bytes (and, on aligned little-endian buffers, viewing
/// wire bytes as `&[Self]`) is sound.
pub unsafe trait LeScalar: Copy {
    /// Wire width in bytes (== `size_of::<Self>()`).
    const WIDTH: usize;

    /// Decode one value from a `WIDTH`-byte little-endian chunk.
    fn from_le(chunk: &[u8]) -> Self;

    /// Append one value as little-endian bytes.
    fn put_le(self, buf: &mut BytesMut);
}

/// Append a dense scalar run in one copy (little-endian targets) or
/// element-wise (big-endian fallback, byte-identical output).
pub fn encode_le_slice<T: LeScalar>(items: &[T], buf: &mut BytesMut) {
    if cfg!(target_endian = "little") {
        // SAFETY: `LeScalar` guarantees no padding and no invalid bit
        // patterns, so the memory of `items` is `len * WIDTH` valid
        // bytes; on little-endian targets memory order is wire order.
        let bytes = unsafe {
            std::slice::from_raw_parts(items.as_ptr().cast::<u8>(), std::mem::size_of_val(items))
        };
        buf.extend_from_slice(bytes);
    } else {
        for v in items {
            v.put_le(buf);
        }
    }
}

/// Decode a dense run of `n` scalars: one bulk copy into the result on
/// little-endian targets, whatever the alignment of the source bytes,
/// and an element-wise loop on big-endian ones. Underruns yield
/// [`JobError::Codec`].
pub fn decode_le_slice<T: LeScalar>(buf: &mut Bytes, n: usize) -> Result<Vec<T>, JobError> {
    let need_bytes = n
        .checked_mul(T::WIDTH)
        .ok_or_else(|| JobError::Codec(format!("slice length {n} overflows")))?;
    need(buf, need_bytes)?;
    let raw = buf.split_to(need_bytes);
    if cfg!(target_endian = "little") {
        let mut out = Vec::<T>::with_capacity(n);
        // SAFETY: `out` owns room for `n` values, `n * WIDTH ==
        // need_bytes` bytes, and a byte copy needs no alignment on
        // either side. `LeScalar` rules out padding and invalid bit
        // patterns, so the copied bytes are `n` valid values in memory
        // order, which on a little-endian target is wire order.
        unsafe {
            std::ptr::copy_nonoverlapping(raw.as_ptr(), out.as_mut_ptr().cast::<u8>(), need_bytes);
            out.set_len(n);
        }
        return Ok(out);
    }
    Ok(raw.chunks_exact(T::WIDTH).map(T::from_le).collect())
}

macro_rules! scalar_storable {
    ($t:ty, $put:ident, $get:ident, $n:expr) => {
        // SAFETY: primitive numeric type — no padding, no invalid bit
        // patterns, in-memory width equals wire width.
        unsafe impl LeScalar for $t {
            const WIDTH: usize = $n;
            fn from_le(chunk: &[u8]) -> Self {
                <$t>::from_le_bytes(chunk.try_into().expect("chunk width"))
            }
            fn put_le(self, buf: &mut BytesMut) {
                buf.$put(self);
            }
        }
        impl Storable for $t {
            const WIRE_SIZE: Option<usize> = Some($n);
            fn encoded_len(&self) -> usize {
                $n
            }
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
                need(buf, $n)?;
                Ok(buf.$get())
            }
            fn encode_slice(items: &[Self], buf: &mut BytesMut) {
                encode_le_slice(items, buf);
            }
            fn decode_slice(buf: &mut Bytes, n: usize) -> Result<Vec<Self>, JobError> {
                decode_le_slice(buf, n)
            }
        }
    };
}

scalar_storable!(u8, put_u8, get_u8, 1);
scalar_storable!(u32, put_u32_le, get_u32_le, 4);
scalar_storable!(u64, put_u64_le, get_u64_le, 8);
scalar_storable!(i64, put_i64_le, get_i64_le, 8);
scalar_storable!(f64, put_f64_le, get_f64_le, 8);
scalar_storable!(f32, put_f32_le, get_f32_le, 4);

impl Storable for usize {
    // Always 8 wire bytes regardless of the host's pointer width.
    const WIRE_SIZE: Option<usize> = Some(8);
    fn encoded_len(&self) -> usize {
        8
    }
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self as u64);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        need(buf, 8)?;
        Ok(buf.get_u64_le() as usize)
    }
}

impl Storable for () {
    fn encoded_len(&self) -> usize {
        0
    }
    fn encode(&self, _buf: &mut BytesMut) {}
    fn decode(_buf: &mut Bytes) -> Result<Self, JobError> {
        Ok(())
    }
}

impl Storable for bool {
    const WIRE_SIZE: Option<usize> = Some(1);
    fn encoded_len(&self) -> usize {
        1
    }
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        need(buf, 1)?;
        Ok(buf.get_u8() != 0)
    }
}

impl<A: Storable, B: Storable> Storable for (A, B) {
    const WIRE_SIZE: Option<usize> = match (A::WIRE_SIZE, B::WIRE_SIZE) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    };
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
    fn approx_bytes(&self) -> usize {
        self.0.approx_bytes() + self.1.approx_bytes()
    }
}

impl<A: Storable, B: Storable, C: Storable> Storable for (A, B, C) {
    const WIRE_SIZE: Option<usize> = match (A::WIRE_SIZE, B::WIRE_SIZE, C::WIRE_SIZE) {
        (Some(a), Some(b), Some(c)) => Some(a + b + c),
        _ => None,
    };
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
    fn approx_bytes(&self) -> usize {
        self.0.approx_bytes() + self.1.approx_bytes() + self.2.approx_bytes()
    }
}

impl<T: Storable> Storable for Vec<T> {
    fn encoded_len(&self) -> usize {
        8 + match T::WIRE_SIZE {
            Some(w) => w * self.len(),
            None => self.iter().map(Storable::encoded_len).sum(),
        }
    }
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        T::encode_slice(self, buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        need(buf, 8)?;
        let n = buf.get_u64_le() as usize;
        T::decode_slice(buf, n)
    }
    fn approx_bytes(&self) -> usize {
        8 + self.iter().map(Storable::approx_bytes).sum::<usize>()
    }
}

impl Storable for String {
    fn encoded_len(&self) -> usize {
        8 + self.len()
    }
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        need(buf, 8)?;
        let n = buf.get_u64_le() as usize;
        need(buf, n)?;
        let raw = buf.split_to(n);
        String::from_utf8(raw.to_vec()).map_err(|e| JobError::Codec(format!("invalid utf8: {e}")))
    }
}

impl<T: Storable> Storable for Option<T> {
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Storable::encoded_len)
    }
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(JobError::Codec(format!("invalid Option tag {t}"))),
        }
    }
    fn approx_bytes(&self) -> usize {
        1 + self.as_ref().map_or(0, Storable::approx_bytes)
    }
}

/// Encode a single value to a frozen buffer (sized exactly up front).
pub fn encode_one<T: Storable>(value: &T) -> Bytes {
    let mut buf = BytesMut::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    buf.freeze()
}

/// Decode a single value from a buffer, requiring full consumption.
pub fn decode_one<T: Storable>(mut buf: Bytes) -> Result<T, JobError> {
    let v = T::decode(&mut buf)?;
    if buf.has_remaining() {
        return Err(JobError::Codec(format!(
            "{} trailing bytes after decode",
            buf.remaining()
        )));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Storable + PartialEq + std::fmt::Debug>(v: T) {
        let enc = encode_one(&v);
        assert_eq!(enc.len(), v.encoded_len(), "encoded_len must be exact");
        let dec: T = decode_one(enc).unwrap();
        assert_eq!(dec, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(42u8);
        roundtrip(7u32);
        roundtrip(u64::MAX);
        roundtrip(-12i64);
        roundtrip(3.25f64);
        roundtrip(f64::INFINITY);
        roundtrip(true);
        roundtrip(123456usize);
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let v = f64::from_bits(0x7ff8_0000_dead_beef);
        let enc = encode_one(&v);
        let dec: f64 = decode_one(enc).unwrap();
        assert_eq!(dec.to_bits(), v.to_bits());
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip((3usize, 4usize));
        roundtrip((1u32, 2.5f64, String::from("tile")));
        roundtrip(vec![1.0f64, f64::INFINITY, -0.0]);
        roundtrip(Some(vec![(1usize, 2usize), (3, 4)]));
        roundtrip(Option::<u64>::None);
        roundtrip(String::from("κλειστό ημιδακτύλιο"));
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = encode_one(&vec![1.0f64; 10]);
        let cut = enc.slice(0..enc.len() - 3);
        assert!(decode_one::<Vec<f64>>(cut).is_err());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut buf = BytesMut::new();
        5u64.encode(&mut buf);
        buf.put_u8(9);
        assert!(decode_one::<u64>(buf.freeze()).is_err());
    }

    #[test]
    fn approx_bytes_matches_encoding_for_dense_data() {
        let v = vec![0.5f64; 1000];
        assert_eq!(v.approx_bytes(), encode_one(&v).len());
    }

    #[test]
    fn encoded_len_is_exact_for_every_impl() {
        roundtrip(());
        roundtrip(Some(8.5f64));
        roundtrip(vec![String::from("a"), String::from("bcd")]);
        roundtrip(vec![vec![1u32, 2], vec![], vec![3]]);
        roundtrip((true, 9u8, -1i64));
        roundtrip(vec![3.5f32; 31]);
    }

    #[test]
    fn wire_size_composes_through_tuples() {
        assert_eq!(<(usize, u64)>::WIRE_SIZE, Some(16));
        assert_eq!(<(u8, f32, bool)>::WIRE_SIZE, Some(6));
        assert_eq!(<(u8, String)>::WIRE_SIZE, None);
        assert_eq!(<f64 as Storable>::WIRE_SIZE, Some(8));
        assert_eq!(Vec::<f64>::WIRE_SIZE, None);
    }

    #[test]
    fn bulk_slice_encoding_matches_element_wise() {
        let vals: Vec<f64> = (0..257).map(|i| i as f64 * 0.75 - 3.0).collect();
        let bulk = encode_one(&vals);
        let mut element_wise = BytesMut::new();
        element_wise.put_u64_le(vals.len() as u64);
        for v in &vals {
            element_wise.put_f64_le(*v);
        }
        assert_eq!(&bulk[..], &element_wise.freeze()[..]);
        let back: Vec<f64> = decode_one(bulk).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn runs_decode_bit_for_bit_at_every_source_offset() {
        // NaNs with distinct payloads (quiet and signalling), signed
        // zeros and infinities: a decode that went through float
        // arithmetic or a canonicalising load would change their bits.
        let floats: Vec<f64> = [
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff4_dead_beef_0042),
            f64::from_bits(0x7ff0_0000_0000_0001),
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
        ]
        .into_iter()
        .chain((0..57).map(|i| (i * i) as f64 - 0.25))
        .collect();
        let words: Vec<u32> = (0..67u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        for offset in 0..8 {
            // `offset` junk bytes ahead of the run shift its start
            // through every residue mod 8 of the allocation.
            let mut framed = BytesMut::new();
            framed.put_bytes(0xEE, offset);
            floats.encode(&mut framed);
            words.encode(&mut framed);
            let mut view = framed.freeze();
            view.advance(offset);
            let f = Vec::<f64>::decode(&mut view).unwrap();
            let w = Vec::<u32>::decode(&mut view).unwrap();
            assert!(view.is_empty());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&f), bits(&floats), "f64 run at offset {offset}");
            assert_eq!(
                w,
                words,
                "u32 run at offset {}",
                offset + 8 + 8 * floats.len()
            );
        }
    }
}
