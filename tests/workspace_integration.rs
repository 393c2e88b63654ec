//! Workspace-level integration tests: every layer of the stack in one
//! scenario — generators → distributed solve on the engine → kernels →
//! metrics → cost model — cross-checked against independent oracles.

use std::sync::Arc;

use cluster_model::{ClusterSpec, CostModel};
use dp_core::tuner::TuneSpace;
use dp_core::{solve, solve_virtual, tune, Backend, DpConfig, KernelSpec, Strategy};
use gep_kernels::gep::gep_reference;
use gep_kernels::graph::{check_apsp, erdos_renyi, grid_network, reachability_of};
use gep_kernels::{GaussianElim, Matrix, TransitiveClosure, Tropical};
use sparklet::{GridPartitioner, HashPartitioner, SparkConf, SparkContext};

fn ctx() -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(4)
            .with_executor_cores(2)
            .with_partitions(16),
    )
}

#[test]
fn full_stack_apsp_on_road_network() {
    // Generator → IM distributed solve with recursive kernels →
    // Dijkstra oracle → engine metrics sanity.
    let roads = grid_network(6, 6, 3);
    let sc = ctx();
    let cfg = DpConfig::new(36, 9)
        .with_strategy(Strategy::InMemory)
        .with_kernel(KernelSpec::recursive(3, 3, 2));
    let times = solve::<Tropical>(&sc, &cfg, &roads).expect("solve");
    assert_eq!(check_apsp(&roads, &times, 1e-9), None);
    let did = sc.summary();
    assert!(
        did.stages >= 4 * 3,
        "4 phases × 3 stages each (two shuffle map stages, one materialization)"
    );
    assert!(did.staged_bytes > 0, "IM stages shuffle data");
    assert!(did.collect_bytes > 0, "final collect");
}

#[test]
fn closure_matches_weights_reachability() {
    // FW-derived reachability == TC closure of the same graph.
    let adj = erdos_renyi(24, 0.15, 1.0, 5.0, 17);
    let reach_input = reachability_of(&adj);

    let sc = ctx();
    let cfg = DpConfig::new(24, 6).with_strategy(Strategy::CollectBroadcast);
    let closure = solve::<TransitiveClosure>(&sc, &cfg, &reach_input).expect("solve");

    let mut dist = adj.clone();
    gep_reference::<Tropical>(&mut dist);
    for i in 0..24 {
        for j in 0..24 {
            assert_eq!(
                closure.get(i, j),
                dist.get(i, j).is_finite(),
                "({i},{j}): closure and finite-distance must agree"
            );
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)]
fn ge_distributed_solves_linear_system() {
    // End-to-end linear algebra: distributed forward elimination, then
    // driver-side back-substitution, residual < 1e-9.
    let m = 23; // unknowns; table is (m+1)×(m+1), padded internally
    let n = m + 1;
    let mut a = Matrix::square(m, 0.0f64);
    let mut state = 41u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..m {
        for j in 0..m {
            a.set(i, j, rnd() - 0.5);
        }
        a.set(i, i, m as f64 + 1.0);
    }
    let x_true: Vec<f64> = (0..m).map(|i| (i as f64 - 10.0) / 3.0).collect();
    let mut table = Matrix::square(n, 0.0f64);
    for i in 0..m {
        for j in 0..m {
            table.set(i, j, a.get(i, j));
        }
        let rhs: f64 = (0..m).map(|j| a.get(i, j) * x_true[j]).sum();
        table.set(i, m, rhs);
    }
    table.set(m, m, 1.0);

    let sc = ctx();
    let cfg = DpConfig::new(n, 8).with_strategy(Strategy::CollectBroadcast);
    let red = solve::<GaussianElim>(&sc, &cfg, &table).expect("solve");

    let mut x = vec![0.0f64; m];
    for i in (0..m).rev() {
        let mut s = red.get(i, m);
        for j in i + 1..m {
            s -= red.get(i, j) * x[j];
        }
        x[i] = s / red.get(i, i);
    }
    for i in 0..m {
        assert!((x[i] - x_true[i]).abs() < 1e-9, "x[{i}]");
    }
}

#[test]
fn grid_partitioner_reduces_remote_traffic() {
    // The paper's future-work custom partitioner: same dataflow, less
    // cross-node traffic than hash placement.
    let run = |grid: bool| {
        let sc = ctx();
        let cfg = DpConfig::new(4096, 512).with_grid_partitioner(grid);
        solve_virtual::<Tropical>(&sc, &cfg).expect("virtual solve")
    };
    let hash = run(false);
    let grid = run(true);
    assert!(
        grid.remote_bytes < hash.remote_bytes,
        "grid {} vs hash {}",
        grid.remote_bytes,
        hash.remote_bytes
    );
}

#[test]
fn cost_model_prices_any_recorded_run() {
    let sc = ctx();
    let cfg = DpConfig::new(2048, 512);
    solve_virtual::<Tropical>(&sc, &cfg).expect("virtual solve");
    let records = sc.with_event_log(|log| log.records());
    let secs = CostModel::new(ClusterSpec::skylake(), 32).job_seconds(&records);
    assert!(secs.is_finite() && secs > 0.0);
    // A weaker cluster must price the same run slower.
    let weaker = CostModel::new(ClusterSpec::haswell(), 20).job_seconds(&records);
    assert!(weaker > secs);
}

#[test]
fn tuner_prefers_reasonable_configurations() {
    let space = TuneSpace {
        blocks: vec![256, 512],
        r_shared: vec![4],
        threads: vec![1, 8],
        strategies: vec![Strategy::InMemory],
    };
    let results = tune::<Tropical>(&ClusterSpec::skylake(), 2048, &space).expect("tune");
    assert!(!results.is_empty());
    let best = &results[0];
    // A threaded recursive kernel must be on top, not 1-thread iterative.
    assert_eq!(
        best.config.kernel.backend,
        Backend::Recursive,
        "best = {:?}",
        best.config.kernel
    );
    assert!(best.omp_threads > 1);
    // And the spread must be meaningful (tunability matters).
    let worst = results.last().unwrap();
    assert!(worst.seconds > 1.5 * best.seconds);
}

#[test]
fn partitioners_agree_on_results_not_placement() {
    let adj = erdos_renyi(16, 0.3, 1.0, 4.0, 5);
    let solve_with = |grid: bool| {
        let sc = ctx();
        let cfg = DpConfig::new(16, 4).with_grid_partitioner(grid);
        solve::<Tropical>(&sc, &cfg, &adj).expect("solve")
    };
    let a = solve_with(false);
    let b = solve_with(true);
    assert_eq!(a.first_difference(&b), None);
    // Placement differs though:
    let h = Arc::new(HashPartitioner);
    let g = Arc::new(GridPartitioner::new(4));
    use sparklet::Partitioner;
    let hash_places: Vec<usize> = (0..4)
        .flat_map(|i| (0..4).map(move |j| (i, j)))
        .map(|k| h.partition(&k, 16))
        .collect();
    let grid_places: Vec<usize> = (0..4)
        .flat_map(|i| (0..4).map(move |j| (i, j)))
        .map(|k| g.partition(&k, 16))
        .collect();
    assert_ne!(hash_places, grid_places);
}

#[test]
fn staging_limit_kills_im_but_not_cb() {
    // The paper's IM drawback #2 at paper scale: a tiny "SSD" makes the
    // IM shuffle overflow; CB fits because it stages far less.
    let make = |cap: u64| {
        SparkContext::new(
            SparkConf::default()
                .with_executors(4)
                .with_executor_cores(2)
                .with_partitions(16)
                .with_staging_capacity(cap),
        )
    };
    // IM at 4K×4K virtual scale stages its operand copies, ~64 MB/node
    // *per iteration* on average and more on the nodes the copies
    // concentrate on (staging is reclaimed between iterations); cap at
    // 64 MB/node.
    let sc_im = make(64 << 20);
    let cfg_im = DpConfig::new(4096, 1024);
    let err = solve_virtual::<Tropical>(&sc_im, &cfg_im).unwrap_err();
    assert!(
        matches!(err, sparklet::JobError::StagingOverflow { .. }),
        "{err}"
    );
    // CB stages nothing: its closing repartition elides. It fits in the
    // same budget.
    let sc_cb = make(64 << 20);
    let cfg_cb = DpConfig::new(4096, 1024).with_strategy(Strategy::CollectBroadcast);
    solve_virtual::<Tropical>(&sc_cb, &cfg_cb).expect("CB fits in the same budget");
}
