//! The distributed solver's pinned rows — every strategy × kernel
//! combination reproduces the sequential Fig. 1 reference (GE always;
//! FW/TC on exact-arithmetic inputs) — and what only virtual runs
//! show: IM against CB traffic, and full-scale byte accounting.

mod harness;

use cluster_model::{ClusterSpec, CostModel};
use dp_core::{price, record_virtual, solve_virtual, DpConfig, KernelSpec, Strategy};
use gep_kernels::{GaussianElim, Tropical};
use harness::{cluster, Case, Chaos, Problem, STRATEGIES};
use sparklet::SparkContext;

fn all_variants() -> [(Strategy, KernelSpec); 4] {
    [
        (Strategy::InMemory, KernelSpec::iterative()),
        (Strategy::InMemory, KernelSpec::recursive(2, 2, 2)),
        (Strategy::CollectBroadcast, KernelSpec::iterative()),
        (Strategy::CollectBroadcast, KernelSpec::recursive(4, 2, 3)),
    ]
}

fn variants_of(base: Case) {
    for (strategy, kernel) in all_variants() {
        base.clone()
            .cfg(|c| c.with_strategy(strategy).with_kernel(kernel))
            .check();
    }
}

#[test]
fn ge_all_variants_match_reference_bitwise() {
    variants_of(Case::new(Problem::Ge, 24, 8).seed(42));
}

#[test]
fn fw_all_variants_match_reference_bitwise() {
    variants_of(Case::new(Problem::Fw, 24, 6).seed(7));
}

#[test]
fn tc_both_strategies_match_reference() {
    for strategy in STRATEGIES {
        Case::new(Problem::Tc, 16, 4)
            .seed(99)
            .cfg(|c| c.with_strategy(strategy))
            .check();
    }
}

#[test]
fn non_divisible_size_pads_virtually() {
    // n = 21, block = 8 → padded to 24; padding must be inert (and the
    // result is 21 × 21, like the oracle's).
    let cb = |c: DpConfig| c.with_strategy(Strategy::CollectBroadcast);
    Case::new(Problem::Ge, 21, 8).seed(5).cfg(cb).check();
}

#[test]
fn grid_partitioner_variant_matches_reference() {
    let grid = |c: DpConfig| c.with_grid_partitioner(true);
    Case::new(Problem::Fw, 16, 4).seed(3).cfg(grid).check();
}

#[test]
fn fw_apsp_agrees_with_dijkstra_on_random_graph() {
    let rec = |c: DpConfig| c.with_kernel(KernelSpec::recursive(2, 2, 2));
    Case::new(Problem::FwDijkstra { density: 0.3 }, 20, 5)
        .seed(11)
        .cfg(rec)
        .check();
}

#[test]
fn solver_is_deterministic_across_runs() {
    let case = Case::new(Problem::Fw, 16, 4).seed(77);
    case.check();
    case.check();
}

#[test]
fn injected_task_failure_recovers_mid_solve() {
    // Fail a couple of tasks in early stages; lineage retry must heal.
    let at = vec![(1, 0, 1), (3, 2, 1), (3, 2, 2)];
    Case::new(Problem::Ge, 16, 4)
        .seed(21)
        .chaos(Chaos::Panics(at))
        .check();
}

fn ctx() -> SparkContext {
    SparkContext::new(cluster(4, 2, 8))
}

#[test]
fn im_moves_more_shuffle_bytes_than_cb() {
    // The defining difference of the two strategies.
    let rep_im = solve_virtual::<GaussianElim>(&ctx(), &DpConfig::new(64, 16)).unwrap();
    let cfg_cb = DpConfig::new(64, 16).with_strategy(Strategy::CollectBroadcast);
    let rep_cb = solve_virtual::<GaussianElim>(&ctx(), &cfg_cb).unwrap();

    let im_shuffle = rep_im.remote_bytes + rep_im.staged_bytes;
    let cb_shuffle = rep_cb.remote_bytes + rep_cb.staged_bytes;
    assert!(
        im_shuffle > 2 * cb_shuffle,
        "IM shuffles {im_shuffle}, CB {cb_shuffle}"
    );
    // And CB is the one with driver traffic.
    assert_eq!(rep_im.collect_bytes, 0, "IM never collects blocks");
    assert!(rep_cb.collect_bytes > 0 && rep_cb.broadcast_bytes > 0);
}

#[test]
fn virtual_and_real_runs_produce_identical_stage_structure() {
    let real = Case::new(Problem::Ge, 24, 8).seed(13).check().summary;
    let virt = solve_virtual::<GaussianElim>(&ctx(), &DpConfig::new(24, 8)).unwrap();
    // The virtual run has one final `count` stage where the real run
    // has one final `collect`; everything else is identical.
    assert_eq!(real.stages, virt.stages);
    assert_eq!(real.tasks, virt.tasks);
}

#[test]
fn virtual_byte_accounting_reflects_full_scale() {
    // 4×4 grid of 1K×1K virtual FW blocks: one IM iteration's A-stage
    // alone copies the diagonal to 15 consumers ≈ 15 × 8 MB.
    let rep = solve_virtual::<Tropical>(&ctx(), &DpConfig::new(4096, 1024)).unwrap();
    let block_bytes = (1024u64 * 1024 * 8) + 17;
    assert!(
        rep.staged_bytes > 4 * 15 * block_bytes,
        "staged {} should exceed the A-copy volume alone",
        rep.staged_bytes
    );
}

#[test]
#[ignore = "heavy: paper-scale virtual sweep smoke (several minutes)"]
fn paper_scale_virtual_smoke() {
    let cluster = ClusterSpec::skylake();
    let model = CostModel::new(cluster.clone(), 32);
    for strategy in STRATEGIES {
        let cfg = DpConfig::new(32 * 1024, 2048).with_strategy(strategy);
        let records = record_virtual::<Tropical>(&cluster, &cfg).expect("record");
        let secs = price(&records, &KernelSpec::recursive(4, 64, 8), &model);
        assert!(secs > 10.0 && secs < 8.0 * 3600.0, "{strategy:?}: {secs}");
    }
}
