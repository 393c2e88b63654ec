//! The workspace's byte buffers, with the names and semantics of the
//! part of the `bytes` 1.x API the payload, codec and wire layers use:
//! [`Bytes`] is a reference-counted view (clone, `slice` and `split_to`
//! share the allocation; `freeze` moves the buffer without copying),
//! [`BytesMut`] is a growable buffer, and [`Buf`]/[`BufMut`] carry the
//! little-endian scalar accessors. Surface nothing calls is not kept.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable window onto a shared byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty view; allocates nothing.
    pub const fn new() -> Self {
        Bytes {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// A view of a copy of `bytes`.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// A view of a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Bytes in view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the allocation. Panics when `range` is out of
    /// bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off and return the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(..at);
        self.start += at;
        head
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(v) => &v[self.start..self.end],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Some(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

/// A growable byte buffer that [`BytesMut::freeze`]s into a [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Has nothing been written?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Append `s`.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.0.extend_from_slice(s);
    }

    /// Make the contents immutable and shareable; moves the buffer.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

/// The little-endian scalar accessors of [`Buf`] (`get`) and [`BufMut`]
/// (`put`), one per scalar type the codecs move.
macro_rules! scalars_le {
    (get: $($name:ident $t:ty),*) => {$(
        /// The next value, little-endian.
        fn $name(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
    )*};
    (put: $($name:ident $t:ty),*) => {$(
        /// Append `v`, little-endian.
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Read cursor over a contiguous byte view. The getters panic when
/// fewer bytes remain than they need: callers check [`Buf::remaining`]
/// first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Is anything left to read?
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Fill `dst` from the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// The next byte.
    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    scalars_le! { get: get_u32_le u32, get_u64_le u64, get_i64_le i64, get_f32_le f32, get_f64_le f64 }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }
}

/// Append-only write cursor.
pub trait BufMut {
    /// Append `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }

    scalars_le! { put: put_u32_le u32, put_u64_le u64, put_i64_le i64, put_f32_le f32, put_f64_le f64 }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}
