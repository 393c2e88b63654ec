//! The differential driver: the paper's claim — In-Memory (Listing 1)
//! and Collect-Broadcast (Listing 2), with either kernel, compute the
//! sequential table of Fig. 1 — widened to every problem, kernel
//! backend, shape, codec, execution mode and fault schedule. Every row
//! is a `harness::Case`; `Case::check` holds the assertions.
//!
//! A failing row prints its label and replay line: `CHAOS_SEED=<s>`
//! pins the sim seed of a sweep, `TESTKIT_SEED=<n>` the drawn case.

mod harness;

use std::sync::OnceLock;

use dp_core::{KernelSpec, RunSummary};
use gep_kernels::alignment::AlignScore;
use harness::{
    assert_retries_keep_the_plan, cluster, drawn_rows, masked, sweep, Case, Chaos, Mode, Problem,
    STRATEGIES,
};

/// Rows drawn over every axis (sockets aside): each equals its oracle.
#[test]
fn drawn_rows_match_their_oracles() {
    drawn_rows(16, Problem::draw);
}

/// One fault-free in-process row per problem, and per strategy of the
/// GEP ones, on two nodes, with its masked summary: what the mode and
/// codec rows compare with. Checked once per test binary.
fn baselines() -> &'static [(Case, RunSummary)] {
    static ROWS: OnceLock<Vec<(Case, RunSummary)>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let sparse = Problem::Sparse {
            density: 0.2,
            sources: Some(vec![0, 4, 9, 17]),
        };
        let rows = [
            Case::new(Problem::Fw, 32, 8).seed(99),
            Case::new(Problem::Ge, 32, 8).seed(99),
            Case::new(Problem::Tc, 16, 4),
            Case::new(Problem::MaxMin, 20, 5),
            Case::new(sparse, 18, 3),
            Case::new(Problem::Align(AlignScore::Lcs, 19), 23, 8),
            Case::new(Problem::Paren, 17, 4),
        ];
        let mut out = Vec::new();
        for row in rows {
            let strategies = if row.problem.is_gep() { 2 } else { 1 };
            for &s in &STRATEGIES[..strategies] {
                let row = row.clone().on(cluster(2, 2, 8)).cfg(|c| c.with_strategy(s));
                out.push((row.clone(), masked(row.check().summary)));
            }
        }
        out
    })
}

/// The `variants` of every baseline row: the oracle's bits, and the
/// baseline's summary with the stage-concurrency mark masked — a
/// fault-free row's counters do not depend on where or how its bytes
/// moved.
fn agree_with_baselines(variants: impl Fn(&Case) -> Vec<Case>) {
    for (base, want) in baselines() {
        for row in variants(base) {
            assert_eq!(&masked(row.check().summary), want, "{}", row.label());
        }
    }
}

/// Every row over a Unix socket; the FW and GE rows over TCP too.
#[test]
fn socket_rows_agree_with_in_process() {
    agree_with_baselines(|c| {
        let fw_or_ge = matches!(c.problem, Problem::Fw | Problem::Ge);
        let tcp = fw_or_ge.then(|| c.clone().mode(Mode::Tcp));
        [Some(c.clone().mode(Mode::Unix)), tcp]
            .into_iter()
            .flatten()
            .collect()
    });
}

#[test]
fn sim_rows_agree_with_in_process() {
    sweep(1, |sim| {
        agree_with_baselines(|c| vec![c.clone().mode(Mode::Sim(sim))])
    });
}

#[test]
fn service_rows_agree_with_in_process() {
    agree_with_baselines(|c| {
        let job = c.problem.is_job().then(|| c.clone().mode(Mode::Service));
        job.into_iter().collect()
    });
}

#[test]
fn lz4_rows_agree_with_uncompressed() {
    agree_with_baselines(|c| vec![c.clone().lz4()]);
}

/// Chaos that only fails attempts leaves the plan alone.
#[test]
fn sim_rows_keep_their_plan_under_retried_attempts() {
    sweep(1, |sim| {
        for problem in [Problem::Fw, Problem::Ge] {
            let clean = Case::new(problem, 32, 8).seed(sim).on(cluster(4, 2, 16));
            let schedules = [Chaos::Mix(60), Chaos::EveryWave];
            assert_retries_keep_the_plan(&clean.mode(Mode::Sim(sim)), &schedules);
        }
    });
}

/// Degenerate inputs every mode must still answer.
#[test]
fn empty_sequences_align_to_the_boundary_table_in_every_mode() {
    for (n, m) in [(0, 4), (4, 0), (0, 0)] {
        for mode in [Mode::InProcess, Mode::Sim(7), Mode::Service] {
            let row = Case::new(Problem::Align(AlignScore::Lcs, m), n, 4).mode(mode);
            assert_eq!(row.check().summary.stages, 0, "{}", row.label());
        }
    }
}

/// The soak rows a release build should pass: larger tables, more
/// executors, deeper recursion.
#[test]
#[ignore = "heavy: 512² FW, 384² GE and a 300-matrix chain on 8 executors (run with --release)"]
fn large_rows_match_their_oracles() {
    let big = cluster(8, 4, 64);
    for (strategy, kernel) in [
        (STRATEGIES[0], KernelSpec::iterative()),
        (STRATEGIES[0], KernelSpec::recursive(4, 32, 2)),
        (STRATEGIES[1], KernelSpec::recursive(8, 16, 2)),
    ] {
        // Sparse: many unreachable pairs and long shortest paths.
        Case::new(Problem::FwDijkstra { density: 0.01 }, 512, 128)
            .seed(99)
            .on(big.clone())
            .cfg(|c| c.with_strategy(strategy).with_kernel(kernel))
            .check();
    }
    for (block, r_shared, base) in [(64, 2, 8), (96, 4, 12), (128, 8, 16)] {
        Case::new(Problem::Ge, 384, block)
            .seed(7)
            .on(big.clone())
            .cfg(|c| {
                c.with_strategy(STRATEGIES[1])
                    .with_kernel(KernelSpec::recursive(r_shared, base, 2))
            })
            .check();
    }
    Case::new(Problem::Paren, 300, 32).seed(3).on(big).check();
}
