//! One iteration `k` of the blocked GEP — Listings 1 and 2 of the paper.
//!
//! Both strategies run the same three kernel waves over the same
//! `FilterA/B/C/D` ([`WAVES`]: A, then B/C, then D), and both return
//! the next table in the plan's placement, so the listings' closing
//! repartition moves no block. They differ in how a wave's updated
//! blocks reach the blocks that read them:
//!
//! * **IM** (Listing 1) ships copies. A block updated in one wave
//!   flat-maps a tagged copy of itself to each of its readers
//!   ([`Phase::readers`]); the next wave `cogroup`s those copies onto
//!   its blocks, which are the narrow side (already placed by the
//!   plan's partitioner), so only the copies, plus the A and B/C blocks
//!   passing through, shuffle: two shuffles an iteration. The updated
//!   blocks are then unioned with the untouched ones, which zips
//!   partition by partition.
//! * **CB** (Listing 2) collects the A wave, then the B/C wave, to the
//!   driver and broadcasts each through shared storage. The D update,
//!   the A/B/C rebuild and the untouched blocks' pass-through read only
//!   the cached table and the broadcasts. Listing 2 unions the three,
//!   but a union of narrow maps over one co-partitioned table is one
//!   stage, so they run as one `map_partitions` over the table, and an
//!   iteration stages no shuffle bytes at all. The driver phases are
//!   logged with `log_driver_traffic` for the cost model.
//!
//! The module also declares what an iteration of each strategy appends
//! to the event log and what it moves ([`Record`],
//! `Strategy::records`, `Strategy::moved`,
//! `Strategy::tiles_moved`), so the adaptive planner prices the
//! iteration this module runs, not a copy of its shape.

use std::marker::PhantomData;
use std::sync::Arc;

use gep_kernels::gep::Kind;
use sparklet::{Broadcast, JobError, Rdd, RunSummary, SparkContext, Storable, TaskContext};

use crate::backend::KernelSpec;
use crate::block::Block;
use crate::config::Strategy;
use crate::filters;
use crate::kernels::apply_kernel;
use crate::problem::DpProblem;
use crate::solver::Plan;

type K = (usize, usize);
/// The DP table as an RDD of blocks.
type Table<E> = Rdd<K, Block<E>>;
/// Tagged block stream flowing between the IM waves.
type Tagged<E> = Vec<(K, (u8, Block<E>))>;
/// A CB wave's updated blocks, broadcast from the driver.
type Shipped<E> = Broadcast<Vec<(K, Block<E>)>>;

/// An iteration's kernel waves in dependency order. Each runs in a
/// stage of its own under both strategies.
pub(crate) const WAVES: [&[Kind]; 3] = [&[Kind::A], &[Kind::B, Kind::C], &[Kind::D]];
/// The last wave (D): it updates blocks nobody reads this phase.
const LAST: usize = WAVES.len() - 1;

/// The index in [`WAVES`] of the wave that runs `kind`.
pub(crate) fn wave_of(kind: Kind) -> usize {
    let wave = WAVES.iter().position(|wave| wave.contains(&kind));
    wave.expect("every kind runs in a wave")
}

/// Tag of a block's own payload in the IM stream.
const MAIN: u8 = 0;
/// The diagonal block, read as `w` (by B, C, and D when `f` reads it).
const W: u8 = 1;
/// A column-panel block, read as `u` by the D blocks of its row.
const U: u8 = 2;
/// A row-panel block, read as `v` by the D blocks of its column.
const V: u8 = 3;

/// The strategies the planner chooses between.
pub(crate) const STRATEGIES: [Strategy; 2] = [Strategy::InMemory, Strategy::CollectBroadcast];

/// One event-log record an iteration appends, as the planner prices it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Record {
    /// A task stage running kernel wave `WAVES[w]`.
    Wave(usize),
    /// A task stage running wave `WAVES[w]` that is priced with every
    /// byte the iteration shuffles (IM's copies all land by its D wave).
    ShuffleWave(usize),
    /// The driver collecting wave `WAVES[w]` and broadcasting it.
    Driver(usize),
}

impl Strategy {
    /// The records one iteration appends, in order. IM: its three wave
    /// stages. CB: the A wave and its driver record, the B/C wave and
    /// its driver record, then the D wave. Under both the D stage is
    /// the table's materialization.
    pub(crate) fn records(self) -> &'static [Record] {
        use Record::*;
        match self {
            Strategy::InMemory => &[Wave(0), Wave(1), ShuffleWave(LAST)],
            Strategy::CollectBroadcast => &[Wave(0), Driver(0), Wave(1), Driver(1), Wave(LAST)],
        }
    }

    /// What an iteration moved, read from its records: the bytes IM
    /// staged for its shuffles, or the bytes CB broadcast.
    pub(crate) fn moved(self, did: &RunSummary) -> u64 {
        match self {
            Strategy::InMemory => did.staged_bytes,
            Strategy::CollectBroadcast => did.broadcast_bytes,
        }
    }

    /// How many tiles phase `k` moves, from the filters alone. IM's A
    /// wave ships the diagonal and a copy of it per panel (and per D
    /// block when `f` reads `w`); its B/C wave ships the diagonal and
    /// the panels on, a copy per D block from each side, and the
    /// diagonal copies bound for D. CB broadcasts the A block and its
    /// panels.
    pub(crate) fn tiles_moved<S: DpProblem>(self, k: usize, g: usize, b: usize) -> usize {
        let count =
            |f: fn(K, usize, usize) -> bool| grid_keys(g).filter(|&key| f(key, k, b)).count();
        let panel = 1 + count(filters::filter_b::<S>) + count(filters::filter_c::<S>);
        let d = count(filters::filter_d::<S>);
        match self {
            Strategy::InMemory => 2 * panel + 2 * d + if S::USES_W { 2 * d } else { 0 },
            Strategy::CollectBroadcast => panel,
        }
    }
}

/// Every block key of a `g×g` grid, in row-major order.
pub(crate) fn grid_keys(g: usize) -> impl Iterator<Item = K> {
    (0..g).flat_map(move |i| (0..g).map(move |j| (i, j)))
}

/// What every task of iteration `k` needs: the kernel and the phase's
/// geometry.
struct Phase<S: DpProblem> {
    kernel: KernelSpec,
    k: usize,
    g: usize,
    b: usize,
    problem: PhantomData<S>,
}

impl<S: DpProblem> Phase<S> {
    /// The wave (index into [`WAVES`]) that updates `key`, if any.
    fn wave(&self, key: K) -> Option<usize> {
        filters::kind_of::<S>(key, self.k, self.b).map(wave_of)
    }

    /// Run the phase's kernel on block `key`, reading its operands
    /// through `read`: A reads none, B and C read the diagonal as `w`,
    /// and D reads `u` and `v`, and `w` only when `f` does.
    fn update<'a>(
        &self,
        key: K,
        blk: &mut Block<S::Elem>,
        read: impl Fn(u8) -> Option<&'a Block<S::Elem>>,
        tc: &TaskContext,
    ) {
        let kind = filters::kind_of::<S>(key, self.k, self.b).expect("only touched blocks update");
        let operand = |role| Some(read(role).expect("operand present"));
        let (u, v, w) = match kind {
            Kind::A => (None, None, None),
            Kind::B | Kind::C => (None, None, operand(W)),
            Kind::D => (
                operand(U),
                operand(V),
                if S::USES_W { operand(W) } else { None },
            ),
        };
        apply_kernel::<S>(&self.kernel, kind, key, self.k, blk, u, v, w, tc);
    }

    /// The blocks that read `key`'s update this phase, each with the
    /// operand it reads it as, in Listing 1's emission order: the
    /// diagonal goes to its B panels, then its C panels, then (when
    /// `f` reads `w`) every D block; a row panel goes to the D blocks
    /// of its column, a column panel to those of its row.
    fn readers(&self, (i, j): K) -> Vec<(K, u8)> {
        let (k, g) = (self.k, self.g);
        let of = |kind| move |&r: &K| filters::kind_of::<S>(r, k, self.b) == Some(kind);
        let row = |i| (0..g).map(move |t| (i, t));
        let col = |j| (0..g).map(move |t| (t, j));
        let tag = |role| move |r| (r, role);
        match filters::kind_of::<S>((i, j), k, self.b) {
            Some(Kind::A) => {
                let trailing = grid_keys(g).filter(|_| S::USES_W).filter(of(Kind::D));
                let panels = row(k).filter(of(Kind::B)).chain(col(k).filter(of(Kind::C)));
                panels.chain(trailing).map(tag(W)).collect()
            }
            Some(Kind::B) => col(j).filter(of(Kind::D)).map(tag(V)).collect(),
            Some(Kind::C) => row(i).filter(of(Kind::D)).map(tag(U)).collect(),
            _ => Vec::new(),
        }
    }

    /// IM's fan-out of an updated block: a copy to each reader, then
    /// the block itself.
    fn ship(&self, key: K, blk: Block<S::Elem>) -> Tagged<S::Elem> {
        let mut out: Tagged<S::Elem> = self
            .readers(key)
            .into_iter()
            .map(|(r, role)| (r, (role, blk.clone())))
            .collect();
        out.push((key, (MAIN, blk)));
        out
    }
}

/// One iteration: consumes the DP table RDD for phase `k` and returns
/// the updated (not yet materialized) table RDD.
pub(crate) fn step<S: DpProblem>(
    sc: &SparkContext,
    dp: &Table<S::Elem>,
    k: usize,
    plan: &Plan<S>,
) -> Result<Table<S::Elem>, JobError> {
    let b = plan.block;
    let phase = Arc::new(Phase {
        kernel: plan.kernel,
        k,
        g: plan.grid,
        b,
        problem: PhantomData,
    });
    match plan.strategy {
        Strategy::InMemory => {
            let untouched = dp.filter(move |key, _| !filters::touched::<S>(*key, k, b));
            Ok(sc
                .union(vec![untouched, shuffle(dp, &phase, plan)])
                .partition_by(plan.partitions, Arc::clone(&plan.partitioner)))
        }
        Strategy::CollectBroadcast => broadcast(sc, dp, &phase),
    }
}

/// The table's blocks whose wave index passes `keep`.
fn blocks<S: DpProblem>(
    dp: &Table<S::Elem>,
    phase: &Arc<Phase<S>>,
    keep: impl Fn(usize) -> bool + Send + Sync + 'static,
) -> Table<S::Elem> {
    let p = Arc::clone(phase);
    dp.filter(move |key, _| p.wave(*key).is_some_and(&keep))
}

/// IM: the A wave updates the diagonal and ships it; each later wave
/// cogroups the shipped copies onto its blocks (the narrow side),
/// updates them and ships them on, passing every other group through.
/// A shipping wave's output is keyed by its readers, so it drops the
/// placement; the D wave ships to nobody and keeps it.
fn shuffle<S: DpProblem>(
    dp: &Table<S::Elem>,
    phase: &Arc<Phase<S>>,
    plan: &Plan<S>,
) -> Table<S::Elem> {
    let p = Arc::clone(phase);
    let mut flow = blocks(dp, phase, |w| w == 0).map_partitions(false, move |_p, items, tc| {
        let mut out: Tagged<S::Elem> = Vec::new();
        for (key, mut blk) in items {
            p.update(key, &mut blk, |_| None, tc);
            out.extend(p.ship(key, blk));
        }
        out
    });
    for w in 1..WAVES.len() {
        let p = Arc::clone(phase);
        let grouped = blocks(dp, phase, move |v| v == w).cogroup(
            &flow,
            plan.partitions,
            Arc::clone(&plan.partitioner),
        );
        flow = grouped.map_partitions(w == LAST, move |_p, groups, tc| {
            let mut out: Tagged<S::Elem> = Vec::new();
            for (key, (mut mains, group)) in groups {
                match mains.pop() {
                    Some(mut blk) => {
                        let read = |role| group.iter().find(|(r, _)| *r == role).map(|(_, c)| c);
                        p.update(key, &mut blk, read, tc);
                        out.extend(p.ship(key, blk));
                    }
                    None => out.extend(group.into_iter().map(|item| (key, item))),
                }
            }
            out
        });
    }
    flow.map_partitions(true, |_p, items, _tc| {
        items
            .into_iter()
            .map(|(key, (_, blk))| (key, blk))
            .collect()
    })
}

/// Phase `k`'s operand that block `(i, j)` reads as `role`.
fn source((i, j): K, role: u8, k: usize) -> K {
    match role {
        W => (k, k),
        U => (i, k),
        _ => (k, j),
    }
}

/// CB's task body, given the broadcasts of the first `shipped.len()`
/// waves: a block of one of those waves is rebuilt from its broadcast
/// (sharing the decoded tile's cells, not recomputing its kernel), a
/// block of a later wave updates against the broadcasts, and a block
/// the phase does not touch passes through.
fn with_broadcasts<S: DpProblem>(
    phase: &Phase<S>,
    shipped: &[Shipped<S::Elem>],
    items: Vec<(K, Block<S::Elem>)>,
    tc: &TaskContext,
) -> Vec<(K, Block<S::Elem>)> {
    let values: Vec<_> = shipped
        .iter()
        .map(|bc| bc.value(tc).expect("broadcast available"))
        .collect();
    // Every broadcast block lies in block row or column `k`, so two
    // vectors indexed by position find any of them without hashing (a
    // D block reads up to three).
    let k = phase.k;
    let (mut row, mut col) = (vec![None; phase.g], vec![None; phase.g]);
    for (key, blk) in values.iter().flat_map(|tiles| tiles.iter()) {
        if key.0 == k {
            row[key.1] = Some(blk);
        } else {
            col[key.0] = Some(blk);
        }
    }
    let get = |(i, j): K| if i == k { row[j] } else { col[i] };
    items
        .into_iter()
        .map(|(key, mut blk)| {
            match phase.wave(key) {
                None => {}
                Some(w) if w < shipped.len() => {
                    blk = get(key).expect("a broadcast wave's block").clone();
                }
                Some(_) => phase.update(key, &mut blk, |role| get(source(key, role, k)), tc),
            }
            (key, blk)
        })
        .collect()
}

/// CB: collect and broadcast the A wave, then the B/C wave (which reads
/// the first broadcast); then return the next table as one narrow map
/// over `dp` that updates the D blocks against both broadcasts,
/// rebuilds the A/B/C blocks from them and passes every other block
/// through. The caller materializes it.
fn broadcast<S: DpProblem>(
    sc: &SparkContext,
    dp: &Table<S::Elem>,
    phase: &Arc<Phase<S>>,
) -> Result<Table<S::Elem>, JobError> {
    let mut shipped: Vec<Shipped<S::Elem>> = Vec::new();
    for (w, name) in ["a", "panels"].into_iter().enumerate() {
        let (p, by) = (Arc::clone(phase), shipped.clone());
        let tiles = blocks(dp, phase, move |v| v == w)
            .map_partitions(true, move |_p, items, tc| {
                with_broadcasts(&p, &by, items, tc)
            })
            .collect()?;
        shipped.push(sc.broadcast(&tiles));
        sc.log_driver_traffic(
            &format!("cb.iter{}.bcast-{name}", phase.k),
            0,
            tiles.approx_bytes() as u64,
        );
    }
    // Unlike the collected waves, a partition holding no touched block
    // reads no broadcast.
    let p = Arc::clone(phase);
    Ok(dp.map_partitions(true, move |_p, items, tc| {
        if items.iter().all(|(key, _)| p.wave(*key).is_none()) {
            return items;
        }
        with_broadcasts(&p, &shipped, items, tc)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpConfig;
    use gep_kernels::Tropical;
    use sparklet::SparkConf;

    /// Pin the stage graph the DAG scheduler extracts from one
    /// representative IM iteration: each `cogroup` shuffles only the
    /// stage output feeding it (4 map tasks), the two chain, and the
    /// result stage hangs off the second. The in-place sides and the
    /// closing repartition elide. If stage extraction, fusion of the narrow filter/map
    /// chains, or the explain format drifts, this fails.
    #[test]
    fn explain_pins_the_im_iteration_stage_graph() {
        let g = 3;
        let b = 2;
        let parts = 4;
        let sc = SparkContext::new(
            SparkConf::default()
                .with_executors(2)
                .with_partitions(parts),
        );
        let mut blocks: Vec<(K, Block<f64>)> = Vec::new();
        for i in 0..g {
            for j in 0..g {
                blocks.push(((i, j), Block::Virtual { rows: b, cols: b }));
            }
        }
        let plan = Plan::<Tropical>::new(&sc, &DpConfig::new(g * b, b).with_grid_partitioner(true))
            .expect("the default config resolves");
        let dp = sc.parallelize_with(blocks, parts, Arc::clone(&plan.partitioner));
        let next = step(&sc, &dp, 1, &plan).expect("IM iterations build lazily");
        let plan = next.explain();
        let expected = "\
== stage graph ==
stage shuffle#1 partition_by [4 map tasks -> 4 partitions] <- [input]
stage shuffle#2 partition_by [4 map tasks -> 4 partitions] <- [shuffle#1]
stage result <- [shuffle#2]
note: 3 shuffle(s) elided (already co-partitioned)
";
        assert!(
            plan.contains(expected),
            "stage graph drifted; explain() now prints:\n{plan}"
        );
    }
}
