//! Job bodies are the job service's input: `DpJobRequest` bodies and
//! the three result codecs go through the same hostile-input harness as
//! the executor and service protocols (`sparklet/tests/wire_harness`),
//! and their bytes are pinned by golden vectors captured at 3831a70,
//! the commit before the codecs were put on `sparklet::wire`.

use bytes::Bytes;
use dp_core::jobs::{
    decode_matrix_f64, decode_matrix_i64, decode_vec_f64, encode_matrix_f64, encode_matrix_i64,
    encode_vec_f64, DpJobRequest,
};
use gep_kernels::alignment::AlignScore;
use gep_kernels::parenthesis::ParenWeight;
use gep_kernels::{Csr, Matrix};
use sparklet::JobError;

#[path = "../../sparklet/tests/wire_harness/mod.rs"]
mod wire_harness;
use testkit::Rng;
use wire_harness::{assert_golden, framing_harness, hostile_input_harness};

fn encode_job(req: &DpJobRequest) -> Vec<u8> {
    req.encode().to_vec()
}

fn decode_job(body: &[u8]) -> Result<DpJobRequest, JobError> {
    DpJobRequest::decode(&Bytes::copy_from_slice(body))
}

/// Lift a `&Bytes` result decoder to the harness's `&[u8]` shape.
fn over_slice<T>(
    decode: fn(&Bytes) -> Result<T, JobError>,
) -> impl Fn(&[u8]) -> Result<T, JobError> + Copy {
    move |body| decode(&Bytes::copy_from_slice(body))
}

/// A canonical `n×n` CSR with roughly a third of the cells stored.
fn random_csr(rng: &mut Rng, n: usize) -> Csr<f64> {
    let mut row_ptr = vec![0u32];
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    for _ in 0..n {
        for c in 0..n {
            if rng.range(0..3u64) == 0 {
                col_idx.push(c as u32);
                vals.push(rng.range(0..90u64) as f64 + 1.0);
            }
        }
        row_ptr.push(col_idx.len() as u32);
    }
    Csr::try_new(n, n, f64::INFINITY, row_ptr, col_idx, vals).expect("constructed canonical")
}

#[test]
fn job_bodies_survive_hostile_input() {
    let mut rng = Rng::new(0x10b5);
    let dist = Matrix::from_fn(5, 5, |i, j| {
        if i == j {
            0.0
        } else if rng.range(0..4u64) == 0 {
            f64::INFINITY
        } else {
            rng.range(0..100u64) as f64 + 1.0
        }
    });
    let samples = [
        DpJobRequest::Apsp {
            dist: dist.clone(),
            block: 4,
            sources: None,
        },
        DpJobRequest::Apsp {
            dist,
            block: 2,
            sources: Some(vec![0, 3]),
        },
        DpJobRequest::Alignment {
            a: b"GATTACA".to_vec(),
            b: b"GCATGCU".to_vec(),
            score: AlignScore::NeedlemanWunsch {
                matched: 1,
                mismatch: -1,
                gap: -1,
            },
            block: 3,
        },
        DpJobRequest::Parenthesis {
            weight: ParenWeight::MatrixChain(vec![30, 35, 15, 5, 10, 20, 25]),
            block: 2,
        },
        DpJobRequest::Parenthesis {
            weight: ParenWeight::Polygon(vec![1.0, 2.5, -3.0, 0.5]),
            block: 2,
        },
        DpJobRequest::LinearSystem {
            a: Matrix::from_fn(3, 3, |i, j| if i == j { 4.0 } else { 1.0 }),
            rhs: vec![1.0, 2.0, 3.0],
            block: 2,
        },
        DpJobRequest::SparseApsp {
            edges: random_csr(&mut rng, 7),
            sources: vec![0, 4, 6],
            parts: 3,
        },
    ];
    hostile_input_harness(
        0x10b6,
        &samples,
        encode_job,
        |body| DpJobRequest::decode(&body),
        drop,
    );
    assert!(decode_job(&[99]).is_err(), "unknown job tag");
}

#[test]
fn result_codecs_survive_hostile_input() {
    let m = Matrix::from_fn(3, 4, |i, j| (i * 7 + j) as f64 / 3.0);
    hostile_input_harness(
        1,
        &[m],
        |m| encode_matrix_f64(m).to_vec(),
        |body| decode_matrix_f64(&body),
        drop,
    );
    let mi = Matrix::from_fn(2, 5, |i, j| i as i64 * 100 - j as i64);
    hostile_input_harness(
        2,
        &[mi],
        |m| encode_matrix_i64(m).to_vec(),
        |body| decode_matrix_i64(&body),
        drop,
    );
    let v = vec![1.5, -2.5, f64::INFINITY];
    hostile_input_harness(
        3,
        &[v],
        |v| encode_vec_f64(v).to_vec(),
        |body| decode_vec_f64(&body),
        drop,
    );
}

#[test]
fn job_body_bytes_match_the_golden_vectors() {
    let dist = Matrix::from_fn(3, 3, |i, j| {
        if i == j {
            0.0
        } else if (i + 2 * j) % 4 == 0 {
            f64::INFINITY
        } else {
            (3 * i + j) as f64 + 0.5
        }
    });
    let edges = Csr::try_new(
        3,
        3,
        f64::INFINITY,
        vec![0, 2, 3, 4],
        vec![1, 2, 2, 0],
        vec![1.5, 4.0, 2.25, 7.0],
    )
    .unwrap();
    let (a, b) = (b"GATTACA".to_vec(), b"GCATGCU".to_vec());
    let samples = [
        DpJobRequest::Apsp {
            dist: dist.clone(),
            block: 2,
            sources: None,
        },
        DpJobRequest::Apsp {
            dist,
            block: 2,
            sources: Some(vec![0, 2]),
        },
        DpJobRequest::Alignment {
            a: a.clone(),
            b: b.clone(),
            score: AlignScore::Lcs,
            block: 3,
        },
        DpJobRequest::Alignment {
            a,
            b,
            score: AlignScore::NeedlemanWunsch {
                matched: 1,
                mismatch: -1,
                gap: -2,
            },
            block: 3,
        },
        DpJobRequest::Parenthesis {
            weight: ParenWeight::MatrixChain(vec![30, 35, 15, 5]),
            block: 2,
        },
        DpJobRequest::Parenthesis {
            weight: ParenWeight::Polygon(vec![1.0, 2.5, -3.0]),
            block: 2,
        },
        DpJobRequest::LinearSystem {
            a: Matrix::from_fn(2, 2, |i, j| if i == j { 4.0 } else { 1.0 }),
            rhs: vec![1.0, -2.0],
            block: 2,
        },
        DpJobRequest::SparseApsp {
            edges,
            sources: vec![0, 2],
            parts: 2,
        },
    ];
    let golden = [
        "01020000000000000000030000000000000003000000000000000000000000000000000000000000f83f000000000000f07f0000000000000c40000000000000000000000000000016400000000000001a40000000000000f07f0000000000000000",
        "01020000000000000001020000000000000000000000000000000200000000000000030000000000000003000000000000000000000000000000000000000000f83f000000000000f07f0000000000000c40000000000000000000000000000016400000000000001a40000000000000f07f0000000000000000",
        "02030000000000000000070000000000000047415454414341070000000000000047434154474355",
        "020300000000000000010100000000000000fffffffffffffffffeffffffffffffff070000000000000047415454414341070000000000000047434154474355",
        "0302000000000000000004000000000000001e0000000000000023000000000000000f000000000000000500000000000000",
        "030200000000000000010300000000000000000000000000f03f000000000000044000000000000008c0",
        "0402000000000000000200000000000000000000000000f03f00000000000000c0020000000000000002000000000000000000000000001040000000000000f03f000000000000f03f0000000000001040",
        "05020000000000000002000000000000000000000000000000020000000000000003000000000000000400000000000000000000000000f07f0000000002000000030000000400000001000000020000000200000000000000000000000000f83f000000000000104000000000000002400000000000001c40",
    ];
    assert_golden(&samples, &golden, encode_job, decode_job);
    // A job body is all head: the degenerate case of the socket framing.
    framing_harness(
        &samples,
        |req| encode_job(req).into(),
        |body| DpJobRequest::decode(&body),
    );
}

#[test]
fn result_bytes_match_the_golden_vectors() {
    assert_golden(
        &[Matrix::from_fn(2, 3, |i, j| (i * 7 + j) as f64 / 4.0 - 1.0)],
        &["02000000000000000300000000000000000000000000f0bf000000000000e8bf000000000000e0bf000000000000e83f000000000000f03f000000000000f43f"],
        |m| encode_matrix_f64(m).to_vec(),
        over_slice(decode_matrix_f64),
    );
    assert_golden(
        &[Matrix::from_fn(2, 2, |i, j| i as i64 * 100 - j as i64 * 3)],
        &["020000000000000002000000000000000000000000000000fdffffffffffffff64000000000000006100000000000000"],
        |m| encode_matrix_i64(m).to_vec(),
        over_slice(decode_matrix_i64),
    );
    assert_golden(
        &[vec![1.5, -2.5, f64::INFINITY]],
        &["0300000000000000000000000000f83f00000000000004c0000000000000f07f"],
        |v| encode_vec_f64(v).to_vec(),
        over_slice(decode_vec_f64),
    );
}
