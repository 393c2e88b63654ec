//! Offline stand-in for `bytes` 1.x: `Bytes` is a reference-counted
//! view (clone, `slice` and `split_to` share the allocation; `freeze`
//! moves the buffer without copying), `BytesMut` is a growable buffer,
//! and `Buf`/`BufMut` carry the little- and big-endian scalar accessors.
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes {
            data: None,
            start: 0,
            end: 0,
        }
    }

    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

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

    /// Split off and return the bytes from `at`; `self` keeps the head.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off out of bounds");
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    pub fn clear(&mut self) {
        self.end = self.start;
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

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.to_vec()
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

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

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

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        **self == **other
    }
}

#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.0.extend_from_slice(s);
    }

    pub fn resize(&mut self, len: usize, value: u8) {
        self.0.resize(len, value);
    }

    pub fn truncate(&mut self, len: usize) {
        self.0.truncate(len);
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }

    /// Take the whole contents, leaving `self` empty.
    pub fn split(&mut self) -> BytesMut {
        BytesMut(std::mem::take(&mut self.0))
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

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut(s.to_vec())
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

macro_rules! buf_get {
    ($($le:ident $be:ident $t:ty;)*) => {$(
        fn $le(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
        fn $be(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_be_bytes(raw)
        }
    )*};
}

/// Read cursor over a contiguous byte view. Like the real crate, the
/// getters panic when fewer bytes remain than they need.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    buf_get! {
        get_u16_le get_u16 u16;
        get_u32_le get_u32 u32;
        get_u64_le get_u64 u64;
        get_u128_le get_u128 u128;
        get_i16_le get_i16 i16;
        get_i32_le get_i32 i32;
        get_i64_le get_i64 i64;
        get_f32_le get_f32 f32;
        get_f64_le get_f64 f64;
    }
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

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

macro_rules! buf_put {
    ($($le:ident $be:ident $t:ty;)*) => {$(
        fn $le(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
        fn $be(&mut self, v: $t) {
            self.put_slice(&v.to_be_bytes());
        }
    )*};
}

/// Append-only write cursor.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_i8(&mut self, v: i8) {
        self.put_slice(&[v as u8]);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }

    buf_put! {
        put_u16_le put_u16 u16;
        put_u32_le put_u32 u32;
        put_u64_le put_u64 u64;
        put_u128_le put_u128 u128;
        put_i16_le put_i16 i16;
        put_i32_le put_i32 i32;
        put_i64_le put_i64 i64;
        put_f32_le put_f32 f32;
        put_f64_le put_f64 f64;
    }
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
