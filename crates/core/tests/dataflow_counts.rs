//! Exact fault-free dataflow counts: the stages, tasks and bytes one
//! small solve of each strategy runs and moves, in process and over a
//! Unix socket. A change to what an iteration shuffles, or to how many
//! stages and tasks it runs, moves a number here; re-record it in the
//! same change and list the old and new values in CHANGES.md.

mod harness;

use dp_core::Strategy;
use harness::{cluster, Case, Mode, Problem};

/// Two tuples of a checked row. The dataflow: `(stages, tasks, staged
/// bytes, remote + local bytes, shuffle wire bytes)`. Remote and local
/// bytes are shuffle fetches, cross-node cache reads and broadcast
/// reads. The wire bytes are the measured frame sizes of the fetched
/// shuffle buckets, non-zero only when the frames were compressed.
/// The ledger: `(staged bytes released, cache hits, cache misses,
/// staged bytes lost, stage resubmissions)`, exact in every mode
/// because the summary counts what no stage record has taken yet.
#[allow(clippy::type_complexity)]
fn counts(case: Case) -> ((usize, usize, u64, u64, u64), (u64, u64, u64, u64, u64)) {
    let run = case.check();
    let did = run.summary;
    let wire = run.sc.with_event_log(|log| {
        log.records()
            .iter()
            .flat_map(|stage| &stage.tasks)
            .map(|t| t.remote_read_wire_bytes + t.local_read_wire_bytes)
            .sum()
    });
    (
        (
            did.stages,
            did.tasks,
            did.staged_bytes,
            did.remote_bytes + did.local_bytes,
            wire,
        ),
        (
            did.staged_released_bytes,
            did.cache_hits,
            did.cache_misses,
            did.staged_lost_bytes,
            did.stage_resubmissions,
        ),
    )
}

/// A 64-sided table in 8×8 blocks of 8, on 2 executors × 2 cores × 4
/// partitions.
fn row(problem: Problem, strategy: Strategy) -> Case {
    Case::new(problem, 64, 8)
        .on(cluster(2, 2, 4))
        .cfg(|c| c.with_strategy(strategy))
}

#[test]
fn fw_in_memory_moves_only_the_operand_copies() {
    // 8 iterations × (two shuffle map stages + the materialization) +
    // the collect. An iteration stages 128 tiles of 512 + 34 bytes: the
    // diagonal and its 14 panel copies, then the diagonal and the 14
    // panels again with their 98 D operand copies.
    assert_eq!(
        counts(row(Problem::Fw, Strategy::InMemory)),
        ((25, 100, 559_104, 559_104, 0), (559_104, 116, 0, 0, 0))
    );
}

#[test]
fn ge_collect_broadcast_stages_nothing() {
    // 8 iterations × (A and B/C collects, two driver records, the D and
    // A/B/C materializations, the table's) + the collect. The bytes are
    // the tasks' broadcast reads; the closing repartition elides.
    assert_eq!(
        counts(row(Problem::Ge, Strategy::CollectBroadcast)),
        ((57, 164, 0, 70_008, 0), (0, 208, 0, 0, 0))
    );
}

#[test]
fn fw_in_memory_over_a_unix_socket_ships_the_same_buckets() {
    // The wire bytes are 79 remote fetches, each a segment's frame plus
    // the 21 socket bytes of the reply that names it.
    let case = row(Problem::Fw, Strategy::InMemory).mode(Mode::Unix).lz4();
    assert_eq!(
        counts(case),
        ((25, 100, 559_104, 559_104, 99_348), (559_104, 116, 0, 0, 0))
    );
}

#[test]
fn ge_in_memory_ships_diagonal_copies_through_both_shuffles() {
    // GE's D kernel reads `w`, so iteration k (m = 7 - k trailing
    // blocks a side) stages 2 + 4m + 4m² tiles of 512 + 34 bytes: the
    // diagonal with its 2m panel and m² D copies, then the diagonal,
    // the 2m panels, their 2m² D operand copies and the m² diagonal
    // copies passing through to D. Σ over m = 0..7 is 688 tiles.
    assert_eq!(
        counts(row(Problem::Ge, Strategy::InMemory)),
        ((25, 100, 375_648, 375_648, 0), (375_648, 116, 0, 0, 0))
    );
}

#[test]
fn fw_collect_broadcast_runs_d_without_the_diagonal() {
    // The same 7 records an iteration as GE's row; every block is
    // active, so the D and A/B/C tasks read more broadcast bytes.
    assert_eq!(
        counts(row(Problem::Fw, Strategy::CollectBroadcast)),
        ((57, 164, 0, 131_056, 0), (0, 208, 0, 0, 0))
    );
}
