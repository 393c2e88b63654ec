//! Property tests for the data-plane codec layer: every `Storable`
//! impl round-trips exactly and sizes itself exactly, malformed
//! buffers fail with `JobError::Codec` instead of panicking, the
//! unaligned decode fallback is byte-identical to the aligned fast
//! path, and the `Payload` frame behaves the same way under both
//! codecs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sparklet::codec::{decode_le_slice, decode_one, encode_le_slice, encode_one};
use sparklet::service::{wire as svc_wire, SvcMsg};
use sparklet::transport::wire::{self as exec_wire, WireMsg};
use sparklet::wire::{read_frame, MAX_FRAME};
use sparklet::{Compression, Either, JobError, Payload, Storable};

mod wire_harness;
use testkit::Rng;
use wire_harness::{assert_golden, framing_harness, hostile_input_harness};

/// Forwards to the system allocator, noting the largest single request
/// each thread has made — how a test sees what a decoder reserved.
struct WatchedAlloc;

thread_local! {
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    // Ignored while a thread's locals are being torn down.
    let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call is handed to `System` with the arguments it came
// with, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for WatchedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: WatchedAlloc = WatchedAlloc;

fn roundtrip<T: Storable + PartialEq + std::fmt::Debug>(v: T) {
    let enc = encode_one(&v);
    assert_eq!(
        enc.len(),
        v.encoded_len(),
        "encoded_len must be exact for {v:?}"
    );
    let dec: T = decode_one(enc).unwrap();
    assert_eq!(dec, v);
}

#[test]
fn every_storable_impl_roundtrips_exactly() {
    let mut rng = Rng::new(0x5eed);
    for _ in 0..50 {
        roundtrip(rng.u64() as u8);
        roundtrip(rng.u64() as u32);
        roundtrip(rng.u64());
        roundtrip(rng.u64() as i64);
        roundtrip(rng.u64() as f32 * 0.25 - 7.0);
        roundtrip(rng.u64() as f64 * 0.5 - 11.0);
        roundtrip(rng.u64() as usize);
        roundtrip(rng.u64().is_multiple_of(2));
        roundtrip(());
        roundtrip((rng.u64(), rng.u64() as f64 * 0.5));
        roundtrip((rng.u64() as u8, rng.u64() as u32, rng.u64() as i64));
        let n = rng.range(0..40usize);
        roundtrip((0..n).map(|_| rng.u64() as f64).collect::<Vec<f64>>());
        roundtrip(
            (0..n)
                .map(|_| (rng.u64() as usize, rng.u64()))
                .collect::<Vec<(usize, u64)>>(),
        );
        roundtrip(
            (0..rng.range(0..6u64))
                .map(|_| (0..rng.range(0..9u64)).map(|_| rng.u64() as f32).collect())
                .collect::<Vec<Vec<f32>>>(),
        );
        let s: String = (0..rng.range(0..30u64))
            .map(|_| char::from(rng.range(b'a'..=b'z')))
            .collect();
        roundtrip(s.clone());
        roundtrip(if rng.u64().is_multiple_of(2) {
            Some(s)
        } else {
            None
        });
        roundtrip(if rng.u64().is_multiple_of(2) {
            Either::<u64, String>::Left(rng.u64())
        } else {
            Either::<u64, String>::Right("right".into())
        });
    }
}

#[test]
fn special_float_values_survive_the_wire() {
    for v in [
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN,
        f64::MAX,
    ] {
        roundtrip(v);
        roundtrip(vec![v; 7]);
    }
    // NaN breaks PartialEq; compare bit patterns instead.
    let enc = encode_one(&f64::NAN);
    let dec: f64 = decode_one(enc).unwrap();
    assert_eq!(dec.to_bits(), f64::NAN.to_bits());
}

#[test]
fn truncated_buffers_error_and_never_panic() {
    let mut rng = Rng::new(0xcafe);
    for _ in 0..20 {
        let n = rng.range(1..=20usize);
        let v: Vec<(u64, f64)> = (0..n).map(|_| (rng.u64(), rng.u64() as f64)).collect();
        let enc = encode_one(&v);
        for cut in 0..enc.len() {
            let err = decode_one::<Vec<(u64, f64)>>(enc.slice(..cut));
            assert!(
                matches!(err, Err(JobError::Codec(_))),
                "cut at {cut}/{} must yield JobError::Codec",
                enc.len()
            );
        }
    }
    let e = Either::<String, u64>::Left("payload".into());
    let enc = encode_one(&e);
    for cut in 0..enc.len() {
        assert!(decode_one::<Either<String, u64>>(enc.slice(..cut)).is_err());
    }
}

#[test]
fn corrupted_buffers_error_or_misparse_but_never_panic() {
    let mut rng = Rng::new(0xdead);
    let v: Vec<(usize, u64)> = (0..16).map(|i| (i, i as u64 * 3)).collect();
    let enc = encode_one(&v);
    for _ in 0..400 {
        let mut bad = enc.to_vec();
        let flips = 1 + rng.range(0..4u64);
        for _ in 0..flips {
            let at = rng.range(0..bad.len());
            bad[at] ^= rng.u64() as u8;
        }
        // A corrupted length prefix may declare absurd sizes: decode
        // must bound-check before it allocates or reads.
        let _ = decode_one::<Vec<(usize, u64)>>(Bytes::from(bad));
    }
    // Directed: a length prefix claiming u64::MAX elements.
    let mut huge = BytesMut::new();
    huge.put_u64_le(u64::MAX);
    huge.put_u64_le(7);
    assert!(decode_one::<Vec<u64>>(huge.freeze()).is_err());
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut buf = BytesMut::new();
    3u64.encode(&mut buf);
    buf.put_u8(0xff);
    let err = decode_one::<u64>(buf.freeze());
    assert!(matches!(err, Err(JobError::Codec(_))), "{err:?}");
}

#[test]
fn unaligned_buffers_fall_back_to_the_bytewise_path() {
    let vals: Vec<f64> = (0..33).map(|i| i as f64 * 0.5 - 4.0).collect();
    let mut aligned = BytesMut::new();
    encode_le_slice(&vals, &mut aligned);
    // Shift the same bytes to an odd offset: `align_to::<f64>` cannot
    // produce a clean slice, so decode takes the chunked fallback.
    let mut shifted = BytesMut::new();
    shifted.put_u8(0);
    shifted.extend_from_slice(&aligned);
    let mut buf = shifted.freeze();
    buf.advance(1);
    assert_eq!(decode_le_slice::<f64>(&mut buf, vals.len()).unwrap(), vals);
    assert!(buf.is_empty());
}

#[test]
fn payload_roundtrips_under_both_codecs_with_identical_declared_size() {
    let mut rng = Rng::new(0xf00d);
    for _ in 0..30 {
        let n = rng.range(0..600usize);
        // Mix compressible runs and incompressible noise.
        let raw: Vec<u8> = (0..n)
            .map(|i| {
                if rng.u64().is_multiple_of(3) {
                    rng.u64() as u8
                } else {
                    (i / 7) as u8
                }
            })
            .collect();
        let plain = Payload::seal(Bytes::from(raw.clone()), Compression::None);
        let packed = Payload::seal(Bytes::from(raw.clone()), Compression::Lz4);
        // Declared/logical size is codec-independent...
        assert_eq!(plain.raw_len(), packed.raw_len());
        assert_eq!(plain.raw_len(), raw.len() as u64);
        // ...and both open back to the same bytes.
        assert_eq!(plain.open().unwrap(), raw);
        assert_eq!(packed.open().unwrap(), raw);
        if packed.is_compressed() {
            assert!(packed.wire_len() < plain.wire_len());
            assert_eq!(packed.wire_hint(raw.len() as u64), packed.wire_len());
        } else {
            assert_eq!(packed.wire_len(), plain.wire_len());
        }
        // Uncompressed frames never report a measured wire size — the
        // cost model keeps its assumed-ratio pricing.
        assert_eq!(plain.wire_hint(raw.len() as u64), 0);
        // An inflated declaration (virtual blocks) is never taken as
        // the measured stream either.
        assert_eq!(packed.wire_hint(raw.len() as u64 + 1), 0);
    }
}

#[test]
fn corrupted_payload_frames_error_and_never_panic() {
    let mut rng = Rng::new(0xfade);
    let body: Vec<u8> = (0..256).map(|i| (i % 11) as u8).collect();
    for compression in [Compression::None, Compression::Lz4] {
        let frame = Payload::seal(Bytes::from(body.clone()), compression).frame();
        // Truncations at every prefix.
        for cut in 0..frame.len() {
            match Payload::from_frame(frame.slice(..cut)) {
                Ok(p) => assert!(p.open().is_err(), "cut {cut} opened"),
                Err(JobError::Codec(_)) => {}
                Err(e) => panic!("cut {cut}: unexpected error {e:?}"),
            }
        }
        // Random corruptions.
        for _ in 0..300 {
            let mut bad = frame.to_vec();
            for _ in 0..=rng.range(0..3u64) {
                let at = rng.range(0..bad.len());
                bad[at] ^= rng.u64() as u8;
            }
            if let Ok(p) = Payload::from_frame(Bytes::from(bad)) {
                let _ = p.open();
            }
        }
    }
}

// ---- Sparse CSR tiles ---------------------------------------------------
//
// `Block::Sparse` frames ride the same Storable/Payload plane as dense
// tiles; the representation refactor holds only if they meet the same
// hostile-input bar: exact sizing, exact roundtrips, and typed errors
// (never panics, never unbounded allocations) on truncation, bit flips,
// and structurally invalid CSR (bad nnz accounting, out-of-range or
// unsorted column indices).

/// A random canonical CSR tile: per-row sorted unique columns.
fn random_csr(rng: &mut Rng, max_side: u64) -> gep_kernels::Csr<f64> {
    let rows = rng.range(0..max_side) as usize + 1;
    let cols = rng.range(0..max_side) as usize + 1;
    let mut row_ptr = vec![0u32];
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    for _ in 0..rows {
        for c in 0..cols {
            if rng.range(0..3u64) == 0 {
                col_idx.push(c as u32);
                vals.push(rng.u64() as f64 * 0.125 - 3.0);
            }
        }
        row_ptr.push(col_idx.len() as u32);
    }
    gep_kernels::Csr::try_new(rows, cols, f64::INFINITY, row_ptr, col_idx, vals)
        .expect("constructed canonical")
}

#[test]
fn sparse_tiles_roundtrip_with_nnz_exact_sizing() {
    let mut rng = Rng::new(0x0c52);
    for _ in 0..60 {
        let csr = random_csr(&mut rng, 9);
        let (rows, nnz) = (csr.rows(), csr.nnz());
        let blk = dp_core::Block::Sparse(csr);
        let enc = encode_one(&blk);
        assert_eq!(enc.len(), blk.encoded_len(), "encoded_len must be exact");
        // nnz-exact framing: header + nnz + fill + row_ptr + entries.
        assert_eq!(enc.len(), 17 + 8 + 8 + (rows + 1) * 4 + nnz * 12);
        let dec: dp_core::Block<f64> = decode_one(enc).unwrap();
        assert_eq!(dec, blk);
    }
}

#[test]
fn truncated_sparse_tiles_error_and_never_panic() {
    let mut rng = Rng::new(0x0c53);
    for _ in 0..8 {
        let enc = encode_one(&dp_core::Block::Sparse(random_csr(&mut rng, 7)));
        for cut in 0..enc.len() {
            let err = decode_one::<dp_core::Block<f64>>(enc.slice(..cut));
            assert!(
                matches!(err, Err(JobError::Codec(_))),
                "cut at {cut}/{} must yield JobError::Codec",
                enc.len()
            );
        }
    }
}

#[test]
fn corrupted_sparse_tiles_error_or_misparse_but_never_panic() {
    let mut rng = Rng::new(0x0c54);
    let enc = encode_one(&dp_core::Block::Sparse(random_csr(&mut rng, 12)));
    for _ in 0..500 {
        let mut bad = enc.to_vec();
        for _ in 0..=rng.range(0..4u64) {
            let at = rng.range(0..bad.len());
            bad[at] ^= rng.u64() as u8;
        }
        // A flipped length, pointer, or column index must be caught by
        // the bounds checks and canonical-form validation; a flip that
        // only touches values decodes to a different-but-valid tile.
        let _ = decode_one::<dp_core::Block<f64>>(Bytes::from(bad));
    }
    // Directed: an nnz prefix claiming more entries than the buffer
    // holds must be refused before any allocation.
    let mut huge = BytesMut::new();
    huge.put_u8(2); // TAG_SPARSE
    huge.put_u64_le(4); // rows
    huge.put_u64_le(4); // cols
    huge.put_u64_le(u64::MAX); // nnz
    huge.put_f64_le(f64::INFINITY);
    assert!(matches!(
        decode_one::<dp_core::Block<f64>>(huge.freeze()),
        Err(JobError::Codec(_))
    ));
}

#[test]
fn structurally_invalid_csr_frames_are_codec_errors() {
    // Hand-frame bodies that parse but violate CSR canonical form: the
    // decoder's `Csr::try_new` validation must refuse each one.
    let frame = |rows: u64, cols: u64, row_ptr: &[u32], col_idx: &[u32], vals: &[f64]| {
        let mut b = BytesMut::new();
        b.put_u8(2); // TAG_SPARSE
        b.put_u64_le(rows);
        b.put_u64_le(cols);
        b.put_u64_le(col_idx.len() as u64);
        b.put_f64_le(f64::INFINITY);
        for &p in row_ptr {
            b.put_u32_le(p);
        }
        for &c in col_idx {
            b.put_u32_le(c);
        }
        for &v in vals {
            b.put_f64_le(v);
        }
        b.freeze()
    };
    let cases = [
        // Decreasing row pointers.
        frame(2, 2, &[0, 1, 0], &[0], &[1.0]),
        // Terminal pointer disagrees with nnz.
        frame(2, 2, &[0, 0, 0], &[0], &[1.0]),
        // Column index out of bounds.
        frame(2, 2, &[0, 1, 1], &[9], &[1.0]),
        // Duplicate column within a row.
        frame(1, 3, &[0, 2], &[1, 1], &[1.0, 2.0]),
        // Unsorted columns within a row.
        frame(1, 3, &[0, 2], &[2, 0], &[1.0, 2.0]),
    ];
    for (i, bytes) in cases.iter().enumerate() {
        assert!(
            matches!(
                decode_one::<dp_core::Block<f64>>(bytes.clone()),
                Err(JobError::Codec(_))
            ),
            "case {i} must be a typed codec error"
        );
    }
}

#[test]
fn sparse_frames_ride_payload_frames_like_any_other_bytes() {
    let mut rng = Rng::new(0x0c55);
    let blk = dp_core::Block::Sparse(random_csr(&mut rng, 16));
    let enc = encode_one(&blk);
    for compression in [Compression::None, Compression::Lz4] {
        let payload = Payload::seal(enc.clone(), compression);
        let opened = payload.open().unwrap();
        assert_eq!(opened, enc, "payload preserves the frame bytes");
        let dec: dp_core::Block<f64> = decode_one(opened).unwrap();
        assert_eq!(dec, blk);
    }
}

// ---- Wire boundary ------------------------------------------------------
//
// The same hostile-input discipline, pushed one layer down to the
// length-prefixed socket protocols: one harness (`wire_harness`), run
// for the executor protocol and the submission protocol, both
// directions of each — requests a hostile client or driver could send
// and replies a lying server or executor could answer with.

/// A raw-sealed payload frame over `len` random bytes.
fn sealed(rng: &mut Rng, len: u64) -> Bytes {
    let body: Vec<u8> = (0..len).map(|_| rng.u64() as u8).collect();
    Payload::seal(Bytes::from(body), Compression::None).frame()
}

/// Open whatever payload a (possibly corrupted) message still carries:
/// it must open or error cleanly.
fn open_frame(frame: Option<Bytes>) {
    if let Some(Ok(p)) = frame.map(Payload::from_frame) {
        let _ = p.open();
    }
}

#[test]
fn executor_messages_survive_hostile_input() {
    let mut rng = Rng::new(0xbead);
    let frame = sealed(&mut rng, 200);
    let samples = [
        WireMsg::Hello {
            node: rng.u64(),
            protocol: rng.u64(),
        },
        WireMsg::HelloAck {
            node: rng.u64(),
            protocol: rng.u64(),
        },
        WireMsg::ShufflePut {
            shuffle: rng.u64(),
            map_task: rng.u64(),
            reduce: rng.u64(),
            frame: frame.clone(),
        },
        WireMsg::ShuffleGet {
            shuffle: rng.u64(),
            map_task: rng.u64(),
            reduce: rng.u64(),
        },
        WireMsg::Block { frame: Some(frame) },
        WireMsg::Block { frame: None },
        WireMsg::BroadcastPut {
            id: rng.u64(),
            frame: sealed(&mut rng, 5),
        },
        WireMsg::ShufflePutAt {
            shuffle: rng.u64(),
            map_task: rng.u64(),
            reduce: rng.u64(),
            seq: rng.u64(),
            len: rng.u64(),
        },
        WireMsg::BroadcastPutAt {
            id: rng.u64(),
            seq: rng.u64(),
            len: rng.u64(),
        },
        WireMsg::BlockAt {
            seq: rng.u64(),
            len: rng.u64(),
        },
        WireMsg::Heartbeat { seq: rng.u64() },
        WireMsg::HeartbeatAck {
            seq: rng.u64(),
            buckets: rng.u64(),
        },
        WireMsg::Ack,
        WireMsg::Shutdown,
    ];
    hostile_input_harness(
        0xbadd,
        &samples,
        exec_wire::encode_body,
        exec_wire::decode,
        |msg| match msg {
            WireMsg::ShufflePut { frame, .. } | WireMsg::BroadcastPut { frame, .. } => {
                open_frame(Some(frame))
            }
            WireMsg::Block { frame } => open_frame(frame),
            _ => {}
        },
    );
}

#[test]
fn service_messages_survive_hostile_input() {
    let mut rng = Rng::new(0x5e4c);
    let frame = sealed(&mut rng, 120);
    let samples = [
        SvcMsg::Submit {
            tenant: rng.u64(),
            frame: frame.clone(),
        },
        SvcMsg::SubmitOk { job: rng.u64() },
        SvcMsg::SubmitErr {
            code: rng.u64() as u8,
            message: "over budget: κόστος".into(),
        },
        SvcMsg::Wait { job: rng.u64() },
        SvcMsg::Status {
            job: rng.u64(),
            state: 2,
            cache_hit: true,
            stages_run: rng.u64(),
            frame: Some(frame),
            error: None,
        },
        SvcMsg::Status {
            job: rng.u64(),
            state: 3,
            cache_hit: false,
            stages_run: rng.u64(),
            frame: None,
            error: Some("task failed".into()),
        },
        // A `Done` whose result a `Wait` has already collected.
        SvcMsg::Status {
            job: rng.u64(),
            state: 2,
            cache_hit: false,
            stages_run: rng.u64(),
            frame: None,
            error: None,
        },
        // The status of a job the service does not know.
        SvcMsg::Status {
            job: rng.u64(),
            state: 255,
            cache_hit: false,
            stages_run: 0,
            frame: None,
            error: Some("unknown job".into()),
        },
        SvcMsg::CancelOk,
        SvcMsg::StatsOk {
            submitted: rng.u64(),
            admitted: rng.u64(),
            rejected: rng.u64(),
            completed: rng.u64(),
            cache_hits: rng.u64(),
            cancelled: rng.u64(),
        },
        SvcMsg::Shutdown,
    ];
    hostile_input_harness(
        0x5e4d,
        &samples,
        svc_wire::encode_body,
        svc_wire::decode,
        |msg| match msg {
            SvcMsg::Submit { frame, .. } => open_frame(Some(frame)),
            SvcMsg::Status { frame, .. } => open_frame(frame),
            _ => {}
        },
    );
}

#[test]
fn an_oversized_prefix_reserves_nothing_for_its_body() {
    let largest_while_reading = |prefix: u32| {
        LARGEST_ALLOC.with(|m| m.set(0));
        let err = read_frame(&mut &prefix.to_le_bytes()[..], exec_wire::decode).unwrap_err();
        (err.kind(), LARGEST_ALLOC.with(Cell::get))
    };
    for prefix in [MAX_FRAME + 1, u32::MAX] {
        let (kind, largest) = largest_while_reading(prefix);
        assert_eq!(kind, ErrorKind::InvalidData);
        assert!(largest < 1024, "refusing {prefix} reserved {largest} bytes");
    }
    // The watch does see a body buffer: the largest prefix that is
    // accepted reserves exactly itself, then finds the stream empty.
    let (kind, largest) = largest_while_reading(MAX_FRAME);
    assert_eq!(kind, ErrorKind::UnexpectedEof);
    assert_eq!(largest, MAX_FRAME as usize);
}

// Golden vectors: the hex of every executor and service message, as
// encoded by the commit *before* the three codecs were put on one wire
// layer (3831a70). A drift here is a wire-format change. The deliberate
// changes since: `HeartbeatAck` shrank to `{ seq, buckets }`, and
// `Hello`/`HelloAck` gained the `PROTOCOL` word; their vectors were
// re-recorded then.

#[test]
fn executor_wire_bytes_match_the_golden_vectors() {
    let frame = Payload::seal(Bytes::from_static(b"bucket"), Compression::None).frame();
    let samples = [
        WireMsg::Hello {
            node: 3,
            protocol: 1,
        },
        WireMsg::HelloAck {
            node: 3,
            protocol: 1,
        },
        WireMsg::ShufflePut {
            shuffle: 9,
            map_task: 1,
            reduce: 4,
            frame: frame.clone(),
        },
        WireMsg::ShuffleGet {
            shuffle: 9,
            map_task: 1,
            reduce: 4,
        },
        WireMsg::Block {
            frame: Some(frame.clone()),
        },
        WireMsg::Block { frame: None },
        WireMsg::ShuffleRemove {
            shuffle: 9,
            map_task: 1,
            reduce: 4,
        },
        WireMsg::ShuffleRelease { shuffle: 9 },
        WireMsg::BroadcastPut { id: 5, frame },
        WireMsg::BroadcastGet { id: 5 },
        WireMsg::BroadcastRemove { id: 5 },
        WireMsg::Heartbeat { seq: 11 },
        WireMsg::HeartbeatAck {
            seq: 11,
            buckets: 2,
        },
        WireMsg::Ack,
        WireMsg::Shutdown,
        WireMsg::ShutdownAck,
        // A frame that lies in a segment file: 15 bytes (the sealed
        // `bucket` above) in segment 6, or 7 for the broadcast.
        WireMsg::ShufflePutAt {
            shuffle: 9,
            map_task: 1,
            reduce: 4,
            seq: 6,
            len: 15,
        },
        WireMsg::BroadcastPutAt {
            id: 5,
            seq: 7,
            len: 15,
        },
        WireMsg::BlockAt { seq: 6, len: 15 },
    ];
    let golden = [
        "0103000000000000000100000000000000",
        "0203000000000000000100000000000000",
        "050900000000000000010000000000000004000000000000000006000000000000006275636b6574",
        "06090000000000000001000000000000000400000000000000",
        "07010006000000000000006275636b6574",
        "0700",
        "12090000000000000001000000000000000400000000000000",
        "080900000000000000",
        "0a05000000000000000006000000000000006275636b6574",
        "0b0500000000000000",
        "0c0500000000000000",
        "0d0b00000000000000",
        "0e0b000000000000000200000000000000",
        "0f",
        "10",
        "11",
        "1309000000000000000100000000000000040000000000000006000000000000000f00000000000000",
        "14050000000000000007000000000000000f00000000000000",
        "1506000000000000000f00000000000000",
    ];
    assert_golden(
        &samples,
        &golden,
        exec_wire::encode_body,
        exec_wire::decode_body,
    );
    // The same messages as the socket moves them: head and frame sent
    // back to back, the body decoded from the buffer it was read into.
    framing_harness(&samples, exec_wire::encode, exec_wire::decode);
    // Tags 3 and 4 (task launch and completion notices) and 9 (a
    // wholesale shuffle clear) are retired, not reused.
    for tag in [3u8, 4, 9] {
        let retired = exec_wire::decode_body(&[tag]);
        assert!(
            matches!(&retired, Err(JobError::Codec(m)) if *m == format!("unknown wire tag {tag}")),
            "{retired:?}"
        );
    }
    // A `HeartbeatAck` in the older six-word layout (seq, buckets, then
    // bucket bytes, broadcasts, launches and completions) is refused
    // whole: a stale executor binary fails typed, it is never misread.
    let mut stale = vec![14u8];
    for word in [11u64, 2, 64, 1, 12, 10] {
        stale.put_u64_le(word);
    }
    let refused = exec_wire::decode_body(&stale);
    assert!(
        matches!(&refused, Err(JobError::Codec(m)) if m == "32 trailing bytes in body"),
        "{refused:?}"
    );
}

#[test]
fn service_wire_bytes_match_the_golden_vectors() {
    let frame = Payload::seal(Bytes::from_static(b"job-body"), Compression::None).frame();
    let samples = [
        SvcMsg::Submit {
            tenant: 42,
            frame: frame.clone(),
        },
        SvcMsg::SubmitOk { job: 7 },
        SvcMsg::SubmitErr {
            code: 2,
            message: "over budget".into(),
        },
        SvcMsg::Poll { job: 7 },
        SvcMsg::Wait { job: 7 },
        SvcMsg::Status {
            job: 7,
            state: 2,
            cache_hit: true,
            stages_run: 0,
            frame: Some(frame),
            error: None,
        },
        SvcMsg::Status {
            job: 8,
            state: 3,
            cache_hit: false,
            stages_run: 4,
            frame: None,
            error: Some("task failed".into()),
        },
        SvcMsg::Cancel { job: 7 },
        SvcMsg::CancelOk,
        SvcMsg::Stats,
        SvcMsg::StatsOk {
            submitted: 9,
            admitted: 8,
            rejected: 1,
            completed: 7,
            cache_hits: 3,
            cancelled: 1,
        },
        SvcMsg::Shutdown,
        SvcMsg::ShutdownAck,
        // Recorded later: a collected `Done` and an unknown job.
        SvcMsg::Status {
            job: 7,
            state: 2,
            cache_hit: false,
            stages_run: 5,
            frame: None,
            error: None,
        },
        SvcMsg::Status {
            job: 9,
            state: 255,
            cache_hit: false,
            stages_run: 0,
            frame: None,
            error: Some("unknown job".into()),
        },
    ];
    let golden = [
        "012a000000000000000008000000000000006a6f622d626f6479",
        "020700000000000000",
        "03020b000000000000006f76657220627564676574",
        "040700000000000000",
        "050700000000000000",
        "0607000000000000000201000000000000000000010008000000000000006a6f622d626f6479",
        "06080000000000000003000400000000000000010b000000000000007461736b206661696c656400",
        "070700000000000000",
        "08",
        "09",
        "0a090000000000000008000000000000000100000000000000070000000000000003000000000000000100000000000000",
        "0b",
        "0c",
        "060700000000000000020005000000000000000000",
        "060900000000000000ff000000000000000000010b00000000000000756e6b6e6f776e206a6f6200",
    ];
    assert_golden(
        &samples,
        &golden,
        svc_wire::encode_body,
        svc_wire::decode_body,
    );
    framing_harness(&samples, svc_wire::encode, svc_wire::decode);
}
