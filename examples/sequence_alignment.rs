//! DNA sequence alignment — the bioinformatics motivation from the
//! paper's introduction, run as a *beyond-GEP* DP on the engine: LCS
//! and Needleman–Wunsch over an anti-diagonal block wavefront.
//!
//! ```text
//! cargo run --release --example sequence_alignment
//! ```

use dp_core::solve_alignment;
use gep_kernels::alignment::{align_reference, traceback_lcs, AlignScore};
use sparklet::{SparkConf, SparkContext};

fn random_dna(len: usize, seed: u64) -> Vec<u8> {
    let bases = b"ACGT";
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            bases[(state % 4) as usize]
        })
        .collect()
}

/// Mutate a sequence: point substitutions plus a deletion block.
fn mutate(seq: &[u8], seed: u64) -> Vec<u8> {
    let bases = b"ACGT";
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(seq.len());
    for (i, &ch) in seq.iter().enumerate() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if (300..320).contains(&i) {
            continue; // deletion
        }
        if state.is_multiple_of(20) {
            out.push(bases[(state % 4) as usize]); // substitution
        } else {
            out.push(ch);
        }
    }
    out
}

fn main() {
    let reference_genome = random_dna(600, 42);
    let read = mutate(&reference_genome, 7);

    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(4)
            .with_executor_cores(2)
            .with_partitions(16),
    );

    println!(
        "aligning a {}-base read against a {}-base reference …",
        read.len(),
        reference_genome.len()
    );

    // LCS similarity.
    let lcs_table = solve_alignment(&sc, &reference_genome, &read, &AlignScore::Lcs, 64)
        .expect("distributed LCS");
    let lcs_len = lcs_table.get(reference_genome.len(), read.len());
    println!(
        "LCS length: {lcs_len} ({:.1}% of the read)",
        100.0 * lcs_len as f64 / read.len() as f64
    );
    let lcs = traceback_lcs(&lcs_table, &reference_genome, &read);
    assert_eq!(lcs.len() as i64, lcs_len);

    // Global alignment score.
    let nw = AlignScore::NeedlemanWunsch {
        matched: 2,
        mismatch: -1,
        gap: -2,
    };
    let nw_table = solve_alignment(&sc, &reference_genome, &read, &nw, 64).expect("distributed NW");
    let score = nw_table.get(reference_genome.len(), read.len());
    println!("Needleman–Wunsch score: {score}");

    // Validate both against the sequential reference.
    assert_eq!(
        solve_alignment(&sc, &reference_genome, &read, &AlignScore::Lcs, 64)
            .unwrap()
            .first_difference(&align_reference(&reference_genome, &read, &AlignScore::Lcs)),
        None
    );
    assert_eq!(
        nw_table.first_difference(&align_reference(&reference_genome, &read, &nw)),
        None
    );
    println!("validated against the sequential reference (bitwise)");

    let did = sc.summary();
    println!(
        "engine: {} stages across {} wavefront diagonals, {:.1} kB of halos broadcast",
        did.stages,
        2 * reference_genome.len().div_ceil(64) - 1,
        did.broadcast_bytes as f64 / 1e3,
    );
}
