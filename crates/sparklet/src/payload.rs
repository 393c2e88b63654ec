//! The zero-copy data plane: one refcounted buffer layer under codec,
//! shuffle, storage, broadcast, and collect.
//!
//! A [`Payload`] is an immutable, refcounted frame: a 9-byte header
//! (`[tag u8][raw_len u64 LE]`) followed by the body. Tag 0 means the
//! body *is* the encoded record stream — [`Payload::open`] returns a
//! zero-copy slice of the same allocation. Tag 1 means the body is an
//! LZ4-style compressed image of `raw_len` encoded bytes — `open`
//! inflates into a fresh buffer.
//!
//! Ownership rules:
//!
//! * A value is serialized **once**, directly into a
//!   [`PayloadBuilder`]'s buffer; sealing freezes that buffer in place
//!   (no copy on the uncompressed path).
//! * Every consumer after the seal point — shuffle buckets, the disk
//!   spill tier, broadcast entries, fetch results — shares the frame by
//!   refcount (`Payload: Clone` is a pointer bump, never a copy).
//! * Byte **accounting** is always in declared (logical) bytes, never
//!   wire bytes: turning compression on changes what moves, not what
//!   the staging/spill/broadcast ledgers say. Wire sizes are reported
//!   separately for the cost model.

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::JobError;

/// Frame tag: body is the raw encoded stream.
const TAG_RAW: u8 = 0;
/// Frame tag: body is LZ4-style compressed.
const TAG_LZ4: u8 = 1;
/// Frame header length: 1 tag byte + 8 raw-length bytes.
pub const FRAME_HEADER: usize = 9;

/// Compression applied at the single seal point of the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Frames carry the encoded stream verbatim (the default): sealing
    /// and opening are both zero-copy.
    #[default]
    None,
    /// Frames carry an LZ4-style compressed body when that is smaller
    /// than the raw stream (incompressible frames fall back to raw).
    Lz4,
}

/// An immutable, refcounted data-plane frame. Cloning is a refcount
/// bump; [`Payload::open`] on an uncompressed frame is a zero-copy
/// slice of the same allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload {
    frame: Bytes,
}

impl Payload {
    /// Seal an already-materialized raw stream into a frame. This
    /// copies `raw` once (into the framed buffer); production encode
    /// paths avoid even that by writing through [`PayloadBuilder`].
    pub fn seal(raw: Bytes, compression: Compression) -> Payload {
        let mut b = PayloadBuilder::with_capacity(raw.len());
        b.buf().extend_from_slice(&raw);
        b.seal(compression)
    }

    /// Rehydrate a frame received as opaque bytes (e.g. read back from
    /// a disk tier). Validates the header; an LZ4 body is only fully
    /// validated when opened.
    pub fn from_frame(frame: Bytes) -> Result<Payload, JobError> {
        Payload::check_header(&frame, frame.len() as u64)?;
        Ok(Payload { frame })
    }

    /// The check [`Payload::from_frame`] makes, from the frame's first
    /// bytes and its total length alone: a frame shorter than the
    /// header, an unknown tag, or a raw body whose length disagrees
    /// with the header is refused. Lets a holder vet a frame it keeps
    /// in a file without reading the body.
    pub(crate) fn check_header(head: &[u8], frame_len: u64) -> Result<(), JobError> {
        if head.len() < FRAME_HEADER || frame_len < FRAME_HEADER as u64 {
            return Err(JobError::Codec(format!(
                "payload frame truncated: {} bytes < {FRAME_HEADER}-byte header",
                frame_len.min(head.len() as u64)
            )));
        }
        let raw_len = frame_raw_len(head);
        match head[0] {
            TAG_RAW if frame_len - FRAME_HEADER as u64 != raw_len => Err(JobError::Codec(format!(
                "raw payload body is {} bytes but header declares {raw_len}",
                frame_len - FRAME_HEADER as u64
            ))),
            TAG_RAW | TAG_LZ4 => Ok(()),
            other => Err(JobError::Codec(format!("unknown payload tag {other}"))),
        }
    }

    /// The encoded-stream length in bytes (before compression).
    pub fn raw_len(&self) -> u64 {
        frame_raw_len(&self.frame)
    }

    /// The on-wire frame length in bytes (header + body as stored).
    pub fn wire_len(&self) -> u64 {
        self.frame.len() as u64
    }

    /// Whether the body is stored compressed.
    pub fn is_compressed(&self) -> bool {
        self.frame[0] == TAG_LZ4
    }

    /// Wire bytes to report to the cost model for a transfer that
    /// declares `declared` logical bytes: the actual frame length when
    /// the frame is compressed *and* the declaration matches the raw
    /// stream (so the measured ratio is meaningful), else 0 — which
    /// tells the model to fall back to its assumed compression ratio
    /// over the declared bytes (virtual payloads declare logical sizes
    /// far above their wire form, and uncompressed runs keep the
    /// pre-existing modeled costs).
    pub fn wire_hint(&self, declared: u64) -> u64 {
        if self.is_compressed() && declared == self.raw_len() {
            self.wire_len()
        } else {
            0
        }
    }

    /// The whole frame, for shipping or spilling verbatim. Refcount
    /// bump, no copy.
    pub fn frame(&self) -> Bytes {
        self.frame.clone()
    }

    /// Recover the raw encoded stream. Uncompressed frames return a
    /// zero-copy slice of the frame allocation; compressed frames
    /// inflate into a fresh buffer (with full bounds checking — a
    /// corrupted body yields [`JobError::Codec`], never a panic).
    pub fn open(&self) -> Result<Bytes, JobError> {
        let raw_len = frame_raw_len(&self.frame) as usize;
        match self.frame[0] {
            TAG_RAW => Ok(self.frame.slice(FRAME_HEADER..)),
            TAG_LZ4 => {
                let body = &self.frame[FRAME_HEADER..];
                Ok(Bytes::from(lz_decompress(body, raw_len)?))
            }
            // Unreachable: construction validates the tag.
            other => Err(JobError::Codec(format!("unknown payload tag {other}"))),
        }
    }
}

fn frame_raw_len(frame: &[u8]) -> u64 {
    let mut n = [0u8; 8];
    n.copy_from_slice(&frame[1..FRAME_HEADER]);
    u64::from_le_bytes(n)
}

/// Builds a frame in place: the header is reserved up front so encoders
/// append the record stream directly into the final allocation, and
/// [`PayloadBuilder::seal`] freezes it without copying (unless the body
/// compresses, in which case the smaller image replaces it).
#[derive(Debug)]
pub struct PayloadBuilder {
    buf: BytesMut,
}

impl Default for PayloadBuilder {
    fn default() -> Self {
        PayloadBuilder::with_capacity(0)
    }
}

impl PayloadBuilder {
    /// A builder with room for `raw_capacity` body bytes.
    pub fn with_capacity(raw_capacity: usize) -> PayloadBuilder {
        let mut buf = BytesMut::with_capacity(FRAME_HEADER + raw_capacity);
        buf.put_u8(TAG_RAW);
        buf.put_u64_le(0);
        PayloadBuilder { buf }
    }

    /// The body buffer encoders append to.
    pub fn buf(&mut self) -> &mut BytesMut {
        &mut self.buf
    }

    /// Bytes of body appended so far.
    pub fn raw_len(&self) -> usize {
        self.buf.len() - FRAME_HEADER
    }

    /// Freeze into a [`Payload`]. With [`Compression::None`] this is
    /// zero-copy (header fix-up + freeze). With [`Compression::Lz4`]
    /// the body is compressed and kept only if strictly smaller.
    pub fn seal(mut self, compression: Compression) -> Payload {
        let raw_len = (self.buf.len() - FRAME_HEADER) as u64;
        if compression == Compression::Lz4 {
            let packed = lz_compress(&self.buf[FRAME_HEADER..]);
            if (packed.len() as u64) < raw_len {
                let mut frame = BytesMut::with_capacity(FRAME_HEADER + packed.len());
                frame.put_u8(TAG_LZ4);
                frame.put_u64_le(raw_len);
                frame.extend_from_slice(&packed);
                return Payload {
                    frame: frame.freeze(),
                };
            }
        }
        self.buf[1..FRAME_HEADER].copy_from_slice(&raw_len.to_le_bytes());
        Payload {
            frame: self.buf.freeze(),
        }
    }
}

// ---------------------------------------------------------------------
// LZ4-style block codec (self-contained; no external crates).
//
// Sequence format, patterned on the LZ4 block spec: a token byte whose
// high nibble is the literal-run length and low nibble is the match
// length minus 4 (each nibble saturates at 15 and extends with 255-run
// bytes), the literals, a 2-byte little-endian back-reference offset,
// then the match-length extension. The final sequence is literals-only.
// ---------------------------------------------------------------------

const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 13;
const MAX_OFFSET: usize = 0xFFFF;

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read_u32(s: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([s[i], s[i + 1], s[i + 2], s[i + 3]])
}

fn put_len_ext(out: &mut Vec<u8>, mut rest: usize) {
    while rest >= 255 {
        out.push(255);
        rest -= 255;
    }
    out.push(rest as u8);
}

fn put_sequence(out: &mut Vec<u8>, literals: &[u8], offset: usize, match_len: usize) {
    let lit = literals.len();
    let ml = match_len - MIN_MATCH;
    out.push(((lit.min(15) as u8) << 4) | ml.min(15) as u8);
    if lit >= 15 {
        put_len_ext(out, lit - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if ml >= 15 {
        put_len_ext(out, ml - 15);
    }
}

fn put_literal_run(out: &mut Vec<u8>, literals: &[u8]) {
    // An empty final run carries no information, and omitting it keeps
    // truncation detectable: every proper prefix of a stream now either
    // cuts a sequence or drops decoded bytes, so the decoder's length
    // check always fires.
    if literals.is_empty() {
        return;
    }
    let lit = literals.len();
    out.push((lit.min(15) as u8) << 4);
    if lit >= 15 {
        put_len_ext(out, lit - 15);
    }
    out.extend_from_slice(literals);
}

/// Greedy single-pass compressor over 4-byte hash candidates.
pub(crate) fn lz_compress(src: &[u8]) -> Vec<u8> {
    let n = src.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n < MIN_MATCH {
        put_literal_run(&mut out, src);
        return out;
    }
    // Candidate positions, stored +1 so 0 means "empty slot".
    let mut table = vec![0usize; 1 << HASH_BITS];
    let match_limit = n - MIN_MATCH;
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i <= match_limit {
        let here = read_u32(src, i);
        let slot = &mut table[hash4(here)];
        let cand = *slot;
        *slot = i + 1;
        if cand != 0 {
            let c = cand - 1;
            if i - c <= MAX_OFFSET && read_u32(src, c) == here {
                let mut len = MIN_MATCH;
                while i + len < n && src[c + len] == src[i + len] {
                    len += 1;
                }
                put_sequence(&mut out, &src[anchor..i], i - c, len);
                i += len;
                anchor = i;
                continue;
            }
        }
        i += 1;
    }
    put_literal_run(&mut out, &src[anchor..]);
    out
}

/// Fully bounds-checked decompressor: any truncation, overrun, or
/// invalid back-reference yields [`JobError::Codec`].
pub(crate) fn lz_decompress(src: &[u8], raw_len: usize) -> Result<Vec<u8>, JobError> {
    fn err(msg: &str) -> JobError {
        JobError::Codec(format!("lz4 body: {msg}"))
    }
    // Cap the up-front allocation; a lying header cannot OOM us because
    // growth past this point comes from actual decoded bytes.
    let mut out = Vec::with_capacity(raw_len.min(1 << 26));
    let mut i = 0usize;
    while i < src.len() {
        let token = src[i];
        i += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            loop {
                let b = *src.get(i).ok_or_else(|| err("truncated literal length"))?;
                i += 1;
                lit += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        let lit_end = i
            .checked_add(lit)
            .ok_or_else(|| err("literal length overflow"))?;
        if lit_end > src.len() {
            return Err(err("literal run past end of input"));
        }
        if out.len() + lit > raw_len {
            return Err(err("decoded past declared length"));
        }
        out.extend_from_slice(&src[i..lit_end]);
        i = lit_end;
        if i == src.len() {
            // Final literals-only sequence.
            break;
        }
        if i + 2 > src.len() {
            return Err(err("truncated match offset"));
        }
        let offset = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
        i += 2;
        if offset == 0 || offset > out.len() {
            return Err(err("match offset out of range"));
        }
        let mut match_len = (token & 0x0F) as usize + MIN_MATCH;
        if token & 0x0F == 0x0F {
            loop {
                let b = *src.get(i).ok_or_else(|| err("truncated match length"))?;
                i += 1;
                match_len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        if out.len() + match_len > raw_len {
            return Err(err("decoded past declared length"));
        }
        // Byte-at-a-time: matches may overlap their own output (RLE).
        let start = out.len() - offset;
        for k in start..start + match_len {
            let b = out[k];
            out.push(b);
        }
    }
    if out.len() != raw_len {
        return Err(err(&format!(
            "decoded {} bytes, header declared {raw_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(data: &[u8], compression: Compression) -> Payload {
        let mut b = PayloadBuilder::with_capacity(data.len());
        b.buf().extend_from_slice(data);
        b.seal(compression)
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(n: usize, mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let word = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.truncate(n);
        out
    }

    #[test]
    fn raw_roundtrip_is_a_slice_of_the_frame() {
        let p = sealed(b"hello payload", Compression::None);
        assert!(!p.is_compressed());
        assert_eq!(p.raw_len(), 13);
        assert_eq!(p.wire_len(), 13 + FRAME_HEADER as u64);
        let opened = p.open().unwrap();
        assert_eq!(&opened[..], b"hello payload");
        // Zero-copy: the opened body points into the frame allocation.
        let frame = p.frame();
        assert_eq!(
            opened.as_ptr() as usize,
            frame.as_ptr() as usize + FRAME_HEADER
        );
    }

    #[test]
    fn clone_shares_the_allocation() {
        let p = sealed(&noise(4096, 7), Compression::None);
        let q = p.clone();
        assert_eq!(p.frame().as_ptr(), q.frame().as_ptr());
    }

    #[test]
    fn compressible_data_shrinks_and_roundtrips() {
        let mut data = Vec::new();
        for i in 0..2000u64 {
            data.extend_from_slice(&(i % 17).to_le_bytes());
        }
        let p = sealed(&data, Compression::Lz4);
        assert!(p.is_compressed(), "periodic data must compress");
        assert!(p.wire_len() < p.raw_len());
        assert_eq!(&p.open().unwrap()[..], &data[..]);
    }

    #[test]
    fn incompressible_data_falls_back_to_raw() {
        let data = noise(4096, 99);
        let p = sealed(&data, Compression::Lz4);
        assert!(!p.is_compressed(), "noise must not grow the frame");
        assert_eq!(&p.open().unwrap()[..], &data[..]);
    }

    #[test]
    fn empty_and_tiny_payloads_roundtrip() {
        for compression in [Compression::None, Compression::Lz4] {
            for len in 0..24usize {
                let data: Vec<u8> = (0..len as u8).collect();
                let p = sealed(&data, compression);
                assert_eq!(p.raw_len(), len as u64);
                assert_eq!(&p.open().unwrap()[..], &data[..], "len {len}");
            }
        }
    }

    #[test]
    fn long_runs_exercise_length_extensions() {
        // >15 literals, then a match far longer than 15+4.
        let mut data = noise(300, 3);
        data.extend(std::iter::repeat_n(0xAB, 5000));
        let p = sealed(&data, Compression::Lz4);
        assert!(p.is_compressed());
        assert_eq!(&p.open().unwrap()[..], &data[..]);
    }

    #[test]
    fn from_frame_validates_headers() {
        assert!(Payload::from_frame(Bytes::from_static(b"")).is_err());
        assert!(Payload::from_frame(Bytes::from_static(b"\x00\x01\x00")).is_err());
        // Unknown tag.
        let mut bad = vec![7u8];
        bad.extend_from_slice(&0u64.to_le_bytes());
        assert!(Payload::from_frame(Bytes::from(bad)).is_err());
        // Raw frame whose body length disagrees with the header.
        let mut lying = vec![TAG_RAW];
        lying.extend_from_slice(&100u64.to_le_bytes());
        lying.extend_from_slice(b"abc");
        assert!(Payload::from_frame(Bytes::from(lying)).is_err());
        // A good frame survives the trip through from_frame.
        let p = sealed(b"ok", Compression::None);
        let back = Payload::from_frame(p.frame()).unwrap();
        assert_eq!(&back.open().unwrap()[..], b"ok");
    }

    #[test]
    fn corrupted_compressed_bodies_error_not_panic() {
        let mut data = Vec::new();
        for i in 0..500u64 {
            data.extend_from_slice(&(i % 5).to_le_bytes());
        }
        let p = sealed(&data, Compression::Lz4);
        assert!(p.is_compressed());
        let frame = p.frame();
        // Truncate the body at every length and flip bytes at every
        // position: decode must return Codec errors or wrong-but-sized
        // data, never panic. (Length mismatches are always caught.)
        for cut in FRAME_HEADER..frame.len() {
            let trunc = Payload::from_frame(frame.slice(..cut));
            if let Ok(t) = trunc {
                let _ = t.open();
            }
        }
        for pos in FRAME_HEADER..frame.len() {
            let mut bent = frame.to_vec();
            bent[pos] ^= 0x5A;
            if let Ok(b) = Payload::from_frame(Bytes::from(bent)) {
                let _ = b.open();
            }
        }
    }

    #[test]
    fn decompress_rejects_overrun_and_bad_offsets() {
        // Offset 0 is invalid.
        let bad_offset = [0x40u8, b'a', b'b', b'c', b'd', 0, 0];
        assert!(lz_decompress(&bad_offset, 100).is_err());
        // Offset beyond what has been decoded so far.
        let far_offset = [0x40u8, b'a', b'b', b'c', b'd', 9, 0];
        assert!(lz_decompress(&far_offset, 100).is_err());
        // Declared length smaller than the literal run.
        let long_lits = [0x40u8, b'a', b'b', b'c', b'd'];
        assert!(lz_decompress(&long_lits, 2).is_err());
    }
}
