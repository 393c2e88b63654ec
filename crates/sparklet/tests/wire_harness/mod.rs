//! The hostile-input harness every wire protocol runs through, shared
//! by `codec_props` (executor and service messages) and dp-core's
//! `job_wire_props` (job bodies and result codecs): whatever a peer
//! writes, a decoder answers with `JobError::Codec` — `io::Error` at
//! the socket boundary — never a panic, never an unbounded allocation.

use std::cell::Cell;
use std::fmt::Debug;
use std::io::{ErrorKind, Read};

use bytes::Bytes;
use sparklet::wire::{read_frame, write_frame, Body, MAX_FRAME};
use sparklet::JobError;
use testkit::Rng;

/// Run every hostile-input case over `samples`, moved by `encode` /
/// `decode` — the owned-body decoder a socket read hands its buffer to;
/// `poke` consumes whatever a corrupted body still decodes
/// to (e.g. opens its embedded payload) and must not panic either.
/// Samples should embed raw-sealed payload frames only: a
/// raw frame's declared length is checked structurally at decode, so
/// *every* truncation is detectable without inflating anything (an
/// Lz4 body is only fully checkable by `open()`, at the consumer).
pub fn hostile_input_harness<M: PartialEq + Debug>(
    seed: u64,
    samples: &[M],
    encode: impl Fn(&M) -> Vec<u8>,
    decode: impl Fn(Bytes) -> Result<M, JobError> + Copy,
    poke: impl Fn(M),
) {
    let mut rng = Rng::new(seed);
    let decode_slice = |body: &[u8]| decode(Bytes::copy_from_slice(body));
    for msg in samples {
        let body = encode(msg);
        assert_eq!(&decode_slice(&body).unwrap(), msg, "clean body roundtrips");

        for cut in 0..body.len() {
            assert!(
                matches!(decode_slice(&body[..cut]), Err(JobError::Codec(_))),
                "{msg:?}: truncation at {cut}/{} must be a codec error",
                body.len()
            );
        }

        // Trailing garbage is an error too — a peer that frames
        // sloppily is corrupt, not "close enough".
        let mut long = body.clone();
        long.push(0);
        assert!(
            matches!(decode_slice(&long), Err(JobError::Codec(_))),
            "{msg:?}: an appended byte must be rejected"
        );

        // Corruption may decode to a different-but-valid message or
        // error; it must never panic or allocate past the body. Random
        // flips first, then `u64::MAX` over every 8-byte window, which
        // puts an absurd value in every count and length field.
        for _ in 0..200 {
            let mut bad = body.clone();
            for _ in 0..=rng.range(0..4u64) {
                let at = rng.range(0..bad.len());
                bad[at] ^= rng.u64() as u8;
            }
            decode_slice(&bad).into_iter().for_each(&poke);
        }
        for at in 0..body.len().saturating_sub(7) {
            let mut bad = body.clone();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            decode_slice(&bad).into_iter().for_each(&poke);
        }

        // Every proper prefix of the framed stream — including a cut
        // inside the length prefix itself — is an io::Error.
        let mut stream = Vec::new();
        let wrote = write_frame(&mut stream, &body.clone().into()).unwrap();
        assert_eq!(wrote as usize, stream.len());
        assert_eq!(wrote as usize, 4 + body.len());
        assert_every_cut_is_eof(&stream, decode);
        // A corrupt body inside a well-formed frame is InvalidData.
        let mut framed_long = Vec::new();
        write_frame(&mut framed_long, &long.into()).unwrap();
        let err = read_frame(&mut framed_long.as_slice(), decode).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        // The clean stream reads back whole, counting its wire bytes.
        let mut r = stream.as_slice();
        let (back, got) = read_frame(&mut r, decode).unwrap();
        assert_eq!((&back, got), (msg, wrote));
        assert!(r.is_empty());
    }

    // An oversized length prefix is refused before allocation, and
    // with nothing past it taken off the stream.
    for len in [MAX_FRAME + 1, u32::MAX] {
        let mut stream = len.to_le_bytes().to_vec();
        stream.extend_from_slice(&[0; 64]);
        let mut slow = Trickle {
            bytes: &stream,
            taken: 0,
        };
        let err = read_frame(&mut slow, decode).expect_err("oversized frame must be refused");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(slow.taken, 4, "nothing past the prefix may be read");
    }
}

/// A framed stream that ends early — inside the length prefix or
/// anywhere in the body — is `UnexpectedEof`, and the decoder is never
/// shown the part that did arrive.
fn assert_every_cut_is_eof<M>(stream: &[u8], decode: impl Fn(Bytes) -> Result<M, JobError>) {
    for cut in 0..stream.len() {
        let decoded = Cell::new(false);
        let err = read_frame(&mut &stream[..cut], |body| {
            decoded.set(true);
            decode(body)
        })
        .err()
        .expect("a cut stream is not a message");
        assert_eq!(
            err.kind(),
            ErrorKind::UnexpectedEof,
            "cut at {cut}/{}",
            stream.len()
        );
        assert!(!decoded.get(), "decoder saw a body cut at {cut}");
    }
}

/// A stream that hands out one byte per `read` call and counts how many
/// it has handed out — the slowest peer a blocking socket can be.
struct Trickle<'a> {
    bytes: &'a [u8],
    taken: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(1).min(self.bytes.len() - self.taken);
        buf[..n].copy_from_slice(&self.bytes[self.taken..self.taken + n]);
        self.taken += n;
        Ok(n)
    }
}

/// The socket framing over `samples`: `encode` is a protocol's split
/// encoder (head + borrowed frame), `decode` its owned-body decoder.
/// Sending head and frame back to back must put the same bytes on the
/// wire as sending their concatenation; the reader must reassemble a
/// body however the stream fragments it and must never hand the
/// decoder a body that was cut short.
pub fn framing_harness<M: PartialEq + Debug>(
    samples: &[M],
    encode: impl for<'a> Fn(&'a M) -> Body<'a>,
    decode: impl Fn(Bytes) -> Result<M, JobError> + Copy,
) {
    for msg in samples {
        let whole = encode(msg).concat();
        let mut split = Vec::new();
        let wrote = write_frame(&mut split, &encode(msg)).unwrap();
        let mut joined = Vec::new();
        assert_eq!(
            write_frame(&mut joined, &whole.clone().into()).unwrap(),
            wrote
        );
        assert_eq!(split, joined, "{msg:?}: split write drifted from concat");
        assert_eq!(wrote as usize, split.len());
        assert_eq!(&split[..4], (whole.len() as u32).to_le_bytes());
        assert_eq!(&split[4..], whole);

        let mut slow = Trickle {
            bytes: &split,
            taken: 0,
        };
        let (back, got) = read_frame(&mut slow, decode).unwrap();
        assert_eq!((&back, got), (msg, wrote));
        assert_eq!(slow.taken, split.len());

        assert_every_cut_is_eof(&split, decode);
    }
}

/// Pin the wire format: each sample encodes to exactly its golden hex
/// (captured from the commit before the wire layer was unified), and
/// the golden bytes decode back to the sample.
pub fn assert_golden<M: PartialEq + Debug>(
    samples: &[M],
    golden_hex: &[&str],
    encode: impl Fn(&M) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<M, JobError>,
) {
    assert_eq!(samples.len(), golden_hex.len());
    for (msg, hex) in samples.iter().zip(golden_hex) {
        let body = encode(msg);
        let got: String = body.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(&got, hex, "{msg:?}: wire bytes drifted");
        assert_eq!(&decode(&body).unwrap(), msg);
    }
}
