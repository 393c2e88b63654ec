//! The "inline and optimize" design methodology (Section IV-A).
//!
//! A blocked GEP algorithm is a sequence of kernel *calls*, each with a
//! write region `W(F)` and read regions `R(F)`. The methodology derives
//! an r-way algorithm from a 2-way one by (1) inlining every call by one
//! level of recursion and (2) re-scheduling the inlined calls to the
//! earliest stage permitted by the paper's dependency rules:
//!
//! 1. `W(F1) ≠ W(F2)` and `W(F1) ∈ R(F2)` ⇒ `F1 → F2` (flow);
//! 2. `W(F1) = W(F2)` and only `F1` flexible (`W(F1) ∉ R(F1)`) ⇒
//!    `F1 → F2`;
//! 3. `W(F1) = W(F2)`, both flexible ⇒ serialized, either order;
//! 4. otherwise ⇒ `F1 ∥ F2`.
//!
//! This implementation additionally orders an anti-dependence
//! (`W(F2) ∈ R(F1)`, later writer over earlier reader) and the
//! both-inflexible same-write case — both are required for a schedule
//! that is *executable* (the test suite runs the schedules against the
//! real kernels and compares bitwise with the reference), and both are
//! vacuously satisfied by the paper's in-order GEP sequences.

use crate::gep::{block_active, GepSpec, Kind};
use crate::matrix::Matrix;

/// Block coordinate in a `g×g` decomposition.
pub type Block = (usize, usize);

/// One kernel call in a blocked GEP program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Which kernel (A/B/C/D).
    pub kind: Kind,
    /// The phase's diagonal block (supplies `u`/`v`/`w` operands).
    pub diag: Block,
    /// The block this call writes (read-modify-write).
    pub writes: Block,
    /// Blocks this call reads, including `writes` itself (GEP kernels
    /// are never "flexible" in the paper's sense).
    pub reads: Vec<Block>,
}

impl Call {
    fn new(kind: Kind, diag: Block, writes: Block, mut extra_reads: Vec<Block>) -> Self {
        let mut reads = vec![writes];
        reads.append(&mut extra_reads);
        reads.sort_unstable();
        reads.dedup();
        Call {
            kind,
            diag,
            writes,
            reads,
        }
    }
}

/// The in-order call sequence of the blocked GEP algorithm on a `g×g`
/// grid of `b×b` blocks (the grid-level program that both Listings run),
/// with inactive blocks filtered out through the spec's Σ_G.
pub fn call_sequence<S: GepSpec>(g: usize, b: usize) -> Vec<Call> {
    let mut calls = Vec::new();
    for k in 0..g {
        calls.push(Call::new(Kind::A, (k, k), (k, k), vec![]));
        for j in (0..g).filter(|&j| j != k) {
            if block_active::<S>(k, j, k, b) {
                calls.push(Call::new(Kind::B, (k, k), (k, j), vec![(k, k)]));
            }
        }
        for i in (0..g).filter(|&i| i != k) {
            if block_active::<S>(i, k, k, b) {
                calls.push(Call::new(Kind::C, (k, k), (i, k), vec![(k, k)]));
            }
        }
        for i in (0..g).filter(|&i| i != k) {
            for j in (0..g).filter(|&j| j != k) {
                if block_active::<S>(i, j, k, b) {
                    let mut reads = vec![(i, k), (k, j)];
                    if S::USES_W {
                        reads.push((k, k));
                    }
                    calls.push(Call::new(Kind::D, (k, k), (i, j), reads));
                }
            }
        }
    }
    calls
}

/// Inline every call of a `g×g`-grid program by one level of 2-way
/// recursion, producing a `2g×2g`-grid program (step 1 of the
/// methodology). `b` is the block size of the *output* grid.
pub fn inline_once<S: GepSpec>(calls: &[Call], b: usize) -> Vec<Call> {
    let mut out = Vec::new();
    for call in calls {
        inline_call::<S>(call, b, &mut out);
    }
    out
}

fn sub(block: Block, di: usize, dj: usize) -> Block {
    (2 * block.0 + di, 2 * block.1 + dj)
}

fn push_if_active<S: GepSpec>(out: &mut Vec<Call>, call: Call, b: usize) {
    // A sub-call is active when Σ_G admits any update with its write
    // rows/cols against the diagonal's k-range.
    let (wi, wj) = call.writes;
    let (dk, _) = call.diag;
    let rows = (wi * b, wi * b + b);
    let cols = (wj * b, wj * b + b);
    let ks = (dk * b, dk * b + b);
    if S::range_row_active(rows.0, rows.1, ks.0, ks.1)
        && S::range_col_active(cols.0, cols.1, ks.0, ks.1)
    {
        out.push(call);
    }
}

fn inline_call<S: GepSpec>(call: &Call, b: usize, out: &mut Vec<Call>) {
    let x = call.writes;
    match call.kind {
        // A(X): for k: A(X_kk); B(X_kj); C(X_ik); D(X_ij)
        Kind::A => {
            for k in 0..2 {
                let dkk = sub(x, k, k);
                out.push(Call::new(Kind::A, dkk, dkk, vec![]));
                for j in (0..2).filter(|&j| j != k) {
                    push_if_active::<S>(out, Call::new(Kind::B, dkk, sub(x, k, j), vec![dkk]), b);
                }
                for i in (0..2).filter(|&i| i != k) {
                    push_if_active::<S>(out, Call::new(Kind::C, dkk, sub(x, i, k), vec![dkk]), b);
                }
                for i in (0..2).filter(|&i| i != k) {
                    for j in (0..2).filter(|&j| j != k) {
                        let mut reads = vec![sub(x, i, k), sub(x, k, j)];
                        if S::USES_W {
                            reads.push(dkk);
                        }
                        push_if_active::<S>(out, Call::new(Kind::D, dkk, sub(x, i, j), reads), b);
                    }
                }
            }
        }
        // B(X, U): for k: B(X_kj, U_kk); D(X_ij, U_ik, X_kj, U_kk), i≠k
        Kind::B => {
            let u = call.diag;
            for k in 0..2 {
                let ukk = sub(u, k, k);
                for j in 0..2 {
                    push_if_active::<S>(out, Call::new(Kind::B, ukk, sub(x, k, j), vec![ukk]), b);
                }
                for i in (0..2).filter(|&i| i != k) {
                    for j in 0..2 {
                        let mut reads = vec![sub(u, i, k), sub(x, k, j)];
                        if S::USES_W {
                            reads.push(ukk);
                        }
                        push_if_active::<S>(out, Call::new(Kind::D, ukk, sub(x, i, j), reads), b);
                    }
                }
            }
        }
        // C(X, V): for k: C(X_ik, V_kk); D(X_ij, X_ik, V_kj, V_kk), j≠k
        Kind::C => {
            let v = call.diag;
            for k in 0..2 {
                let vkk = sub(v, k, k);
                for i in 0..2 {
                    push_if_active::<S>(out, Call::new(Kind::C, vkk, sub(x, i, k), vec![vkk]), b);
                }
                for j in (0..2).filter(|&j| j != k) {
                    for i in 0..2 {
                        let mut reads = vec![sub(x, i, k), sub(v, k, j)];
                        if S::USES_W {
                            reads.push(vkk);
                        }
                        push_if_active::<S>(out, Call::new(Kind::D, vkk, sub(x, i, j), reads), b);
                    }
                }
            }
        }
        // D(X, U, V, W): for k: D(X_ij, U_ik, V_kj, W_kk) all i, j
        Kind::D => {
            // Reads layout: reads = sorted {X, U_col_block, V_row_block, W}.
            // Recover U/V/W blocks from the call's structure: W = diag;
            // U shares X's row, V shares X's column.
            let w = call.diag;
            let u_blk = *call
                .reads
                .iter()
                .find(|r| r.0 == x.0 && **r != x && **r != w)
                .expect("D reads a column-panel block");
            let v_blk = *call
                .reads
                .iter()
                .find(|r| r.1 == x.1 && **r != x && **r != w)
                .expect("D reads a row-panel block");
            for k in 0..2 {
                let wkk = sub(w, k, k);
                for i in 0..2 {
                    for j in 0..2 {
                        let mut reads = vec![sub(u_blk, i, k), sub(v_blk, k, j)];
                        if S::USES_W {
                            reads.push(wkk);
                        }
                        push_if_active::<S>(out, Call::new(Kind::D, wkk, sub(x, i, j), reads), b);
                    }
                }
            }
        }
    }
}

/// Must `calls[a]` (earlier) be ordered before `calls[b]` (later)?
fn ordered(f1: &Call, f2: &Call) -> bool {
    if f1.writes == f2.writes {
        // Rules 2/3 plus the read-modify-write case: same output block
        // always serializes (kept in program order).
        return true;
    }
    // Flow: F1's output feeds F2. Anti: F2 overwrites what F1 reads.
    f2.reads.contains(&f1.writes) || f1.reads.contains(&f2.writes)
}

/// Assign each call the earliest stage (1-based) consistent with the
/// dependency rules (step 2 of the methodology: "move each function
/// call to the lowest possible stage").
pub fn schedule(calls: &[Call]) -> Vec<usize> {
    let mut stage = vec![1usize; calls.len()];
    for i in 0..calls.len() {
        let mut earliest = 1;
        for j in 0..i {
            if ordered(&calls[j], &calls[i]) {
                earliest = earliest.max(stage[j] + 1);
            }
        }
        stage[i] = earliest;
    }
    stage
}

/// Stage count of the *unoptimized* inlined program — the way Fig. 3
/// draws it: each inlined parent call's sub-stages execute strictly
/// after all previous parents' stages (no cross-parent motion).
pub fn naive_stage_count(parents: &[Call]) -> usize {
    parents
        .iter()
        .map(|c| match c.kind {
            // 2-way A: per local phase: A; B∥C; D → 3 stages × 2 phases.
            Kind::A => 6,
            // 2-way B/C/D: per local phase: panel stage; D stage → 2×2.
            Kind::B | Kind::C | Kind::D => 4,
        })
        .sum()
}

/// A `(stage → calls)` grouping for display.
pub fn stages_of(_calls: &[Call], stage: &[usize]) -> Vec<Vec<usize>> {
    let max = stage.iter().copied().max().unwrap_or(0);
    let mut groups = vec![Vec::new(); max];
    for (idx, &s) in stage.iter().enumerate() {
        groups[s - 1].push(idx);
    }
    groups
}

/// Execute a scheduled call list against a real matrix with the block
/// kernels, honouring stages (calls within a stage may run in any
/// order; `perm_seed` shuffles them to expose ordering bugs).
pub fn execute_schedule<S: GepSpec>(
    c: &mut Matrix<S::Elem>,
    calls: &[Call],
    stage: &[usize],
    g: usize,
    perm_seed: u64,
) {
    assert_eq!(calls.len(), stage.len());
    let b = c.rows() / g;
    assert_eq!(c.rows() % g, 0);
    let groups = stages_of(calls, stage);
    let mut rng = perm_seed | 1;
    for group in groups {
        let mut order = group.clone();
        // Fisher-Yates with an xorshift: within-stage order must not
        // matter, so scramble it.
        for i in (1..order.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            order.swap(i, (rng as usize) % (i + 1));
        }
        for idx in order {
            apply_call::<S>(c, &calls[idx], b);
        }
    }
}

/// Apply one call directly on the full matrix with global indices.
/// Exact by construction (reads and writes go straight to `c`); the
/// view-based kernels are exercised by `iterative`/`recursive` tests.
fn apply_call<S: GepSpec>(c: &mut Matrix<S::Elem>, call: &Call, b: usize) {
    let (wi, wj) = call.writes;
    let (dk, _) = call.diag;
    let end = |blk: usize| (blk + 1) * b;
    assert!(
        end(wi.max(dk)) <= c.rows() && end(wj.max(dk)) <= c.cols(),
        "call {call:?} reaches outside the {}x{} matrix",
        c.rows(),
        c.cols()
    );
    let ks0 = dk * b;
    let mut c = c.view_mut();
    for k in 0..b {
        let gk = ks0 + k;
        for i in 0..b {
            let gi = wi * b + i;
            if !S::sigma_i(gi, gk) {
                continue;
            }
            for j in 0..b {
                let gj = wj * b + j;
                if !S::sigma_j(gj, gk) {
                    continue;
                }
                let x = c.at(gi, gj);
                let u = c.at(gi, gk);
                let v = c.at(gk, gj);
                let w = c.at(gk, gk);
                c.set(gi, gj, S::f(x, u, v, w));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gep::{gep_reference, GaussianElim, Tropical};

    #[test]
    fn ge_sequence_filters_inactive_blocks() {
        let calls = call_sequence::<GaussianElim>(2, 4);
        // Phase 0: A(0,0), B(0,1), C(1,0), D(1,1). Phase 1: A(1,1) only —
        // B/C/D blocks would need row/col > 1, which don't exist.
        assert_eq!(calls.len(), 5);
        assert_eq!(calls[4].kind, Kind::A);
        assert_eq!(calls[4].writes, (1, 1));
    }

    #[test]
    fn fw_sequence_keeps_all_blocks() {
        let calls = call_sequence::<Tropical>(2, 4);
        // Per phase: A + 1×B + 1×C + 1×D = 4; two phases.
        assert_eq!(calls.len(), 8);
    }

    #[test]
    fn schedule_respects_dependencies() {
        let calls = call_sequence::<Tropical>(3, 4);
        let stage = schedule(&calls);
        for i in 0..calls.len() {
            for j in 0..i {
                if ordered(&calls[j], &calls[i]) {
                    assert!(stage[j] < stage[i], "dep {j}->{i} violated");
                }
            }
        }
    }

    #[test]
    fn grid_level_ge_schedule_matches_abcd_stages() {
        // g=2 GE: A(00) | B(01) ∥ C(10) | D(11) | A(11) → 4 stages... but
        // A(11) depends on D(11) (same write) → stage 4+1? D(11) at stage
        // 3, A(11) at 4. Check the known critical path.
        let calls = call_sequence::<GaussianElim>(2, 4);
        let stage = schedule(&calls);
        assert_eq!(stage, vec![1, 2, 2, 3, 4]);
    }

    #[test]
    fn inlined_ge_schedule_is_shorter_than_naive() {
        let parents = call_sequence::<GaussianElim>(1, 8); // single A call
        let inlined = inline_once::<GaussianElim>(&parents, 4);
        let stage = schedule(&inlined);
        let optimized = *stage.iter().max().unwrap();
        let naive = naive_stage_count(&parents);
        assert!(optimized <= naive, "optimized {optimized} vs naive {naive}");
        assert!(optimized >= 4, "2-way GE needs at least 4 stages");
    }

    #[test]
    fn executing_optimized_schedule_matches_reference_ge() {
        let g = 2;
        let n = 8;
        let parents = call_sequence::<GaussianElim>(1, n);
        let inlined = inline_once::<GaussianElim>(&parents, n / g);
        let stage = schedule(&inlined);
        for seed in [1u64, 7, 42] {
            let mut m = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    n as f64 + 2.0
                } else {
                    ((i * 31 + j * 17) % 7) as f64 / 3.0 - 1.0
                }
            });
            let mut reference = m.clone();
            execute_schedule::<GaussianElim>(&mut m, &inlined, &stage, g, seed);
            gep_reference::<GaussianElim>(&mut reference);
            assert_eq!(m.first_difference(&reference), None, "seed {seed}");
        }
    }

    #[test]
    fn executing_optimized_schedule_matches_reference_fw() {
        let g = 2;
        let n = 8;
        let parents = call_sequence::<Tropical>(1, n);
        let inlined = inline_once::<Tropical>(&parents, n / g);
        let stage = schedule(&inlined);
        for seed in [3u64, 9, 100] {
            let inf = f64::INFINITY;
            let mut m = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    0.0
                } else if (i * 13 + j * 7) % 3 == 0 {
                    ((i + j) % 9 + 1) as f64
                } else {
                    inf
                }
            });
            let mut reference = m.clone();
            execute_schedule::<Tropical>(&mut m, &inlined, &stage, g, seed);
            gep_reference::<Tropical>(&mut reference);
            assert_eq!(m.first_difference(&reference), None, "seed {seed}");
        }
    }

    #[test]
    fn double_inline_still_executes_correctly() {
        // Inline twice: 1 → 2×2 → 4×4 grid, i.e. the 4-way refinement of
        // Fig. 3, then execute on a 16×16 GE instance.
        let n = 16;
        let parents = call_sequence::<GaussianElim>(1, n);
        let l1 = inline_once::<GaussianElim>(&parents, n / 2);
        let l2 = inline_once::<GaussianElim>(&l1, n / 4);
        let stage = schedule(&l2);
        let mut m = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 + 3.0
            } else {
                ((i * 7 + j * 3) % 11) as f64 / 5.0 - 1.0
            }
        });
        let mut reference = m.clone();
        execute_schedule::<GaussianElim>(&mut m, &l2, &stage, 4, 17);
        gep_reference::<GaussianElim>(&mut reference);
        assert_eq!(m.first_difference(&reference), None);
    }

    #[test]
    fn fig7_dependency_arrows() {
        // The Fig. 7 structure: within one phase, A feeds B and C, which
        // feed D; for FW this is the entire dependency story.
        let calls = call_sequence::<Tropical>(2, 4);
        let a = &calls[0];
        let b = &calls[1];
        let c = &calls[2];
        let d = &calls[3];
        assert!(ordered(a, b) && ordered(a, c));
        assert!(ordered(b, d) && ordered(c, d));
        assert!(!ordered(b, c), "B and C are parallel");
    }
}
