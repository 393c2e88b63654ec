//! Deterministic simulation: seeded chaos policies and the logical
//! random stream behind the simulated scheduler.
//!
//! In sim mode ([`crate::SparkConf::with_sim_seed`]) the whole engine —
//! task completion order, stage launch order, retry deadlines, fault
//! injection — is a pure function of one `u64` seed. The pieces here:
//!
//! * [`SimRng`]: a SplitMix64 stream drawn from by the simulated task
//!   and DAG schedulers to pick *which* ready item runs next;
//! * [`ChaosPolicy`]: decides *what goes wrong* for a given
//!   `(stage, partition, attempt)` coordinate. Probabilistic draws are
//!   stateless hashes of `(seed, event-stream, coordinate)`, so the
//!   verdict for a coordinate never depends on the order in which the
//!   scheduler asks — only executor-loss consumes a stateful budget
//!   (and sim-mode queries are themselves deterministically ordered).
//!   Scripted coordinates and the standing rule are plain lookups on
//!   the same coordinate: this is the engine's one fault injector.
//!
//! Replay: every scenario failure prints `CHAOS_SEED=<seed>`; exporting
//! that variable re-runs the identical schedule.

use std::collections::HashMap;

/// One injected fault, scoped to a single task attempt (except
/// [`ChaosEvent::ExecutorLoss`], which takes out a whole node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// The task attempt panics after its side effects landed (the
    /// harshest ordering: retries must reconcile the partial writes).
    TaskPanic,
    /// The attempt completes, but only after `delay_ms` of extra
    /// logical time: a slow task its stage must wait out.
    Straggler {
        /// Extra logical milliseconds before the attempt finishes.
        delay_ms: u64,
    },
    /// The attempt's first shuffle fetch fails
    /// ([`crate::JobError::FetchFailed`]), forcing a map-stage
    /// resubmission at the job level.
    FetchFailure,
    /// The executor the attempt was placed on dies before running it:
    /// all its cached blocks and staged map outputs are lost.
    ExecutorLoss,
    /// Every disk write the attempt tries (spill or `DiskOnly` put)
    /// hits a full disk.
    DiskFull,
}

/// SplitMix64: the deterministic random stream for scheduler choices.
///
/// Not cryptographic — chosen for a tiny, well-studied, dependency-free
/// generator whose output is identical on every platform.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// A stream determined entirely by `seed`.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Uniform pick in `0..n` (`n > 0`).
    pub fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// SplitMix64 finalizer: avalanches all input bits.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateless per-coordinate hash: one independent draw per
/// `(seed, stream, stage, partition, attempt)`.
fn coord_hash(seed: u64, stream: u64, stage: u64, partition: usize, attempt: u64) -> u64 {
    let mut h = mix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    h = mix64(h ^ stage.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    h = mix64(h ^ (partition as u64).wrapping_mul(0x94d0_49bb_1331_11eb));
    mix64(h ^ attempt.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

// Stream tags separating the per-event-type draws.
const STREAM_PANIC: u64 = 1;
const STREAM_STRAGGLER: u64 = 2;
const STREAM_FETCH: u64 = 3;
const STREAM_LOSS: u64 = 4;
const STREAM_DISK: u64 = 5;

/// A seeded script of faults, installed on a [`crate::SparkContext`]
/// via [`crate::SparkContext::install_chaos`].
///
/// Probabilities are per-mille (`0..=1000`) so draws stay in exact
/// integer arithmetic. Scripted entries
/// ([`ChaosPolicy::script`]) override the probabilistic draws for
/// their exact coordinate, as does the standing rule
/// ([`ChaosPolicy::with_standing_panics`]) for the attempts it names.
#[derive(Debug, Clone)]
pub struct ChaosPolicy {
    seed: u64,
    panic_per_mille: u32,
    straggler_per_mille: u32,
    fetch_per_mille: u32,
    loss_per_mille: u32,
    disk_per_mille: u32,
    straggler_delay_ms: u64,
    loss_budget: u32,
    scripted: HashMap<(u64, usize, u64), ChaosEvent>,
    /// `(partition, n)`: attempts `1..=n` of `partition` panic in every
    /// stage.
    standing: Vec<(usize, u64)>,
}

impl ChaosPolicy {
    /// A policy with every probability zero: only scripted events fire.
    pub fn seeded(seed: u64) -> Self {
        ChaosPolicy {
            seed,
            panic_per_mille: 0,
            straggler_per_mille: 0,
            fetch_per_mille: 0,
            loss_per_mille: 0,
            disk_per_mille: 0,
            straggler_delay_ms: 500,
            loss_budget: 0,
            scripted: HashMap::new(),
            standing: Vec::new(),
        }
    }

    /// Per-mille chance a task attempt panics.
    pub fn with_task_panics(mut self, per_mille: u32) -> Self {
        self.panic_per_mille = per_mille.min(1000);
        self
    }

    /// Per-mille chance an attempt straggles, and by how long.
    pub fn with_stragglers(mut self, per_mille: u32, delay_ms: u64) -> Self {
        self.straggler_per_mille = per_mille.min(1000);
        self.straggler_delay_ms = delay_ms;
        self
    }

    /// Per-mille chance an attempt's shuffle fetch fails.
    pub fn with_fetch_failures(mut self, per_mille: u32) -> Self {
        self.fetch_per_mille = per_mille.min(1000);
        self
    }

    /// Per-mille chance an attempt's executor dies, capped at `budget`
    /// losses per run (losses are expensive to recover; an unbounded
    /// rate can exceed any retry budget).
    pub fn with_executor_loss(mut self, per_mille: u32, budget: u32) -> Self {
        self.loss_per_mille = per_mille.min(1000);
        self.loss_budget = budget;
        self
    }

    /// Per-mille chance an attempt sees a full disk on every spill.
    pub fn with_disk_full(mut self, per_mille: u32) -> Self {
        self.disk_per_mille = per_mille.min(1000);
        self
    }

    /// Force `event` at exactly `(stage, partition, attempt)`,
    /// overriding the probabilistic draws. `stage` is the stage ordinal
    /// ([`cluster_model::StageRecord::stage_id`] order of launch).
    pub fn script(mut self, stage: u64, partition: usize, attempt: u64, event: ChaosEvent) -> Self {
        self.scripted.insert((stage, partition, attempt), event);
        self
    }

    /// Panic the first `attempts` attempts of `partition` in *every*
    /// stage (the standing fault of the fault-tolerance stress tests).
    /// Attempt numbers are 1-based and consecutive per
    /// `(stage, partition)`, so the rule is a predicate on the attempt
    /// number — no per-stage budget to keep, however the DAG scheduler
    /// interleaves stages.
    pub fn with_standing_panics(mut self, partition: usize, attempts: u64) -> Self {
        self.standing.push((partition, attempts));
        self
    }

    /// The seed this policy was built from (printed on scenario
    /// failure for replay).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn draw(
        &self,
        stream: u64,
        per_mille: u32,
        stage: u64,
        partition: usize,
        attempt: u64,
    ) -> bool {
        per_mille > 0
            && coord_hash(self.seed, stream, stage, partition, attempt) % 1000 < per_mille as u64
    }

    /// The fault (if any) for one task attempt. At most one event fires
    /// per coordinate; when several draws hit, the most disruptive
    /// wins: loss > panic > fetch failure > disk full > straggler.
    pub fn event_for(&mut self, stage: u64, partition: usize, attempt: u64) -> Option<ChaosEvent> {
        // Scripted entries and the standing rule bypass the draws (and
        // the loss budget: both are explicit asks).
        if let Some(ev) = self.scripted.get(&(stage, partition, attempt)) {
            return Some(*ev);
        }
        if self
            .standing
            .iter()
            .any(|&(p, n)| p == partition && attempt <= n)
        {
            return Some(ChaosEvent::TaskPanic);
        }
        if self.loss_budget > 0
            && self.draw(STREAM_LOSS, self.loss_per_mille, stage, partition, attempt)
        {
            self.loss_budget -= 1;
            return Some(ChaosEvent::ExecutorLoss);
        }
        if self.draw(
            STREAM_PANIC,
            self.panic_per_mille,
            stage,
            partition,
            attempt,
        ) {
            return Some(ChaosEvent::TaskPanic);
        }
        if self.draw(
            STREAM_FETCH,
            self.fetch_per_mille,
            stage,
            partition,
            attempt,
        ) {
            return Some(ChaosEvent::FetchFailure);
        }
        if self.draw(STREAM_DISK, self.disk_per_mille, stage, partition, attempt) {
            return Some(ChaosEvent::DiskFull);
        }
        if self.draw(
            STREAM_STRAGGLER,
            self.straggler_per_mille,
            stage,
            partition,
            attempt,
        ) {
            return Some(ChaosEvent::Straggler {
                delay_ms: self.straggler_delay_ms,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_stream_is_deterministic() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(43);
        assert_ne!(SimRng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn draws_are_order_independent() {
        // The verdict for a coordinate must not depend on query order.
        let mut fwd = ChaosPolicy::seeded(7).with_task_panics(300);
        let mut rev = fwd.clone();
        let coords: Vec<(u64, usize, u64)> = (0..4)
            .flat_map(|s| (0..8).map(move |p| (s, p, 1)))
            .collect();
        let a: Vec<_> = coords
            .iter()
            .map(|&(s, p, t)| fwd.event_for(s, p, t))
            .collect();
        let b: Vec<_> = coords
            .iter()
            .rev()
            .map(|&(s, p, t)| rev.event_for(s, p, t))
            .collect();
        assert_eq!(a, b.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn probabilities_land_near_their_rate() {
        let mut policy = ChaosPolicy::seeded(99).with_task_panics(250);
        let hits = (0..1000)
            .filter(|&p| policy.event_for(0, p, 1) == Some(ChaosEvent::TaskPanic))
            .count();
        assert!((150..350).contains(&hits), "250‰ drew {hits}/1000");
    }

    #[test]
    fn scripted_events_override_draws() {
        let mut policy = ChaosPolicy::seeded(1).script(2, 3, 1, ChaosEvent::FetchFailure);
        assert_eq!(policy.event_for(2, 3, 1), Some(ChaosEvent::FetchFailure));
        assert_eq!(policy.event_for(2, 3, 2), None, "other attempts untouched");
        assert_eq!(
            policy.event_for(2, 4, 1),
            None,
            "other partitions untouched"
        );
    }

    fn panics(policy: &mut ChaosPolicy, stage: u64, partition: usize, attempt: u64) -> bool {
        policy.event_for(stage, partition, attempt) == Some(ChaosEvent::TaskPanic)
    }

    #[test]
    fn standing_rule_resets_per_stage() {
        let mut policy = ChaosPolicy::seeded(0).with_standing_panics(0, 1);
        assert!(panics(&mut policy, 0, 0, 1));
        assert!(!panics(&mut policy, 0, 0, 2)); // only the first attempt
        assert!(!panics(&mut policy, 0, 1, 1)); // other partitions untouched
        assert!(panics(&mut policy, 1, 0, 1)); // and again in stage 1
        assert!(!panics(&mut policy, 1, 0, 2));
    }

    #[test]
    fn standing_rule_is_independent_under_interleaving() {
        // With the DAG scheduler two stages' attempts interleave; each
        // stage ordinal must see its own first attempt fail, whatever
        // the order of the asks.
        let mut policy = ChaosPolicy::seeded(0).with_standing_panics(0, 1);
        assert!(panics(&mut policy, 0, 0, 1));
        assert!(panics(&mut policy, 1, 0, 1)); // stage 1 interleaves
        assert!(!panics(&mut policy, 0, 0, 2)); // stage 0's retry still runs
        assert!(!panics(&mut policy, 1, 0, 2));
    }

    #[test]
    fn scripts_and_the_standing_rule_consume_no_draw() {
        // Adding either to a policy must leave every other
        // coordinate's verdict — loss budget included — unchanged.
        let base = ChaosPolicy::seeded(11)
            .with_task_panics(200)
            .with_stragglers(150, 40)
            .with_fetch_failures(100)
            .with_disk_full(50)
            .with_executor_loss(120, 3);
        let mut plain = base.clone();
        let mut asked = base
            .script(1, 2, 1, ChaosEvent::FetchFailure)
            .with_standing_panics(5, 2);
        for stage in 0..6u64 {
            for partition in 0..8usize {
                for attempt in 1..=4u64 {
                    let got = asked.event_for(stage, partition, attempt);
                    if (stage, partition, attempt) == (1, 2, 1) {
                        assert_eq!(got, Some(ChaosEvent::FetchFailure));
                    } else if partition == 5 && attempt <= 2 {
                        assert_eq!(got, Some(ChaosEvent::TaskPanic));
                    } else {
                        assert_eq!(got, plain.event_for(stage, partition, attempt));
                    }
                }
            }
        }
    }

    #[test]
    fn loss_budget_caps_executor_deaths() {
        let mut policy = ChaosPolicy::seeded(5).with_executor_loss(1000, 2);
        let losses = (0..50)
            .filter(|&p| policy.event_for(0, p, 1) == Some(ChaosEvent::ExecutorLoss))
            .count();
        assert_eq!(losses, 2, "budget of 2 must stop the third loss");
    }

    #[test]
    fn different_seeds_give_different_fault_patterns() {
        let pattern = |seed| {
            let mut p = ChaosPolicy::seeded(seed).with_task_panics(200);
            (0..64u64)
                .map(|i| p.event_for(i / 8, (i % 8) as usize, 1).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(pattern(1), pattern(2));
    }
}
