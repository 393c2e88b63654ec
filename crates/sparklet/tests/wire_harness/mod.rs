//! The hostile-input harness every wire protocol runs through, shared
//! by `codec_props` (executor and service messages) and dp-core's
//! `job_wire_props` (job bodies and result codecs): whatever a peer
//! writes, a decoder answers with `JobError::Codec` — `io::Error` at
//! the socket boundary — never a panic, never an unbounded allocation.

use std::fmt::Debug;
use std::io::ErrorKind;

use sparklet::wire::{read_frame, write_frame, MAX_FRAME};
use sparklet::JobError;

/// Minimal seeded xorshift so failures replay from a printed seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Run every hostile-input case over `samples`, moved by `encode` /
/// `decode`; `poke` consumes whatever a corrupted body still decodes
/// to (e.g. opens its embedded payload) and must not panic either.
/// Samples should embed raw-sealed payload frames only: a
/// raw frame's declared length is checked structurally at decode, so
/// *every* truncation is detectable without inflating anything (an
/// Lz4 body is only fully checkable by `open()`, at the consumer).
pub fn hostile_input_harness<M: PartialEq + Debug>(
    seed: u64,
    samples: &[M],
    encode: impl Fn(&M) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<M, JobError> + Copy,
    poke: impl Fn(M),
) {
    let mut rng = Rng::new(seed);
    for msg in samples {
        let body = encode(msg);
        assert_eq!(&decode(&body).unwrap(), msg, "clean body roundtrips");

        for cut in 0..body.len() {
            assert!(
                matches!(decode(&body[..cut]), Err(JobError::Codec(_))),
                "{msg:?}: truncation at {cut}/{} must be a codec error",
                body.len()
            );
        }

        // Trailing garbage is an error too — a peer that frames
        // sloppily is corrupt, not "close enough".
        let mut long = body.clone();
        long.push(0);
        assert!(
            matches!(decode(&long), Err(JobError::Codec(_))),
            "{msg:?}: an appended byte must be rejected"
        );

        // Corruption may decode to a different-but-valid message or
        // error; it must never panic or allocate past the body. Random
        // flips first, then `u64::MAX` over every 8-byte window, which
        // puts an absurd value in every count and length field.
        for _ in 0..200 {
            let mut bad = body.clone();
            for _ in 0..=rng.below(4) {
                let at = rng.below(bad.len() as u64) as usize;
                bad[at] ^= rng.next() as u8;
            }
            decode(&bad).into_iter().for_each(&poke);
        }
        for at in 0..body.len().saturating_sub(7) {
            let mut bad = body.clone();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            decode(&bad).into_iter().for_each(&poke);
        }

        // Every proper prefix of the framed stream — including a cut
        // inside the length prefix itself — is an io::Error.
        let mut stream = Vec::new();
        let wrote = write_frame(&mut stream, &body).unwrap();
        assert_eq!(wrote as usize, stream.len());
        assert_eq!(wrote as usize, 4 + body.len());
        for cut in 0..stream.len() {
            assert!(
                read_frame(&mut &stream[..cut], decode).is_err(),
                "{msg:?}: stream cut at {cut}/{} must error",
                stream.len()
            );
        }
        // A corrupt body inside a well-formed frame is InvalidData.
        let mut framed_long = Vec::new();
        write_frame(&mut framed_long, &long).unwrap();
        let err = read_frame(&mut framed_long.as_slice(), decode).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        // The clean stream reads back whole, counting its wire bytes.
        let mut r = stream.as_slice();
        let (back, got) = read_frame(&mut r, decode).unwrap();
        assert_eq!((&back, got), (msg, wrote));
        assert!(r.is_empty());
    }

    // An oversized length prefix is refused before allocation.
    for len in [MAX_FRAME + 1, u32::MAX] {
        let mut stream = len.to_le_bytes().to_vec();
        stream.extend_from_slice(b"\0\0\0\0");
        let err = read_frame(&mut stream.as_slice(), decode)
            .expect_err("oversized frame must be refused");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
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
