use std::panic::{catch_unwind, AssertUnwindSafe};

use super::{run, Rng};

#[test]
fn same_seed_same_draws() {
    let draws = |seed| {
        let mut rng = Rng::new(seed);
        let v = rng.vec(3..9, |r| r.range(-5i32..5));
        (
            rng.u64(),
            rng.bool(),
            rng.range(0.5..2.5),
            v,
            *rng.pick(&[1, 2, 3]),
        )
    };
    assert_eq!(draws(7), draws(7));
    assert_ne!(draws(7).0, draws(8).0);
}

#[test]
fn range_draws_stay_in_range_at_the_boundaries() {
    let mut rng = Rng::new(1);
    let (mut lo_seen, mut hi_seen) = (false, false);
    for _ in 0..2000 {
        let x = rng.range(-2i8..=2);
        assert!((-2..=2).contains(&x));
        lo_seen |= x == -2;
        hi_seen |= x == 2;
        assert!((3..6).contains(&rng.range(3usize..6)));
        assert_eq!(rng.range(9u32..10), 9);
        assert_eq!(rng.range(i64::MIN..=i64::MIN), i64::MIN);
        // Full-width ranges must not overflow the span arithmetic.
        let _ = rng.range(u64::MIN..=u64::MAX);
        let _ = rng.range(i64::MIN..=i64::MAX);
        assert_eq!(rng.range(u64::MAX - 1..u64::MAX), u64::MAX - 1);
        let f = rng.range(-1.0..1.0);
        assert!((-1.0..1.0).contains(&f));
        assert!(rng.vec(0..1, |r| r.bool()).is_empty());
    }
    assert!(lo_seen && hi_seen, "inclusive ends are reachable");
}

#[test]
#[should_panic(expected = "empty range")]
fn an_empty_range_is_refused() {
    Rng::new(0).range(4u8..4);
}

#[test]
fn every_case_gets_its_own_seed() {
    let mut firsts = Vec::new();
    run(64, None, |rng| firsts.push(rng.u64()));
    firsts.sort_unstable();
    firsts.dedup();
    assert_eq!(firsts.len(), 64);
}

#[test]
fn a_failing_property_names_its_seed_and_the_seed_replays_that_case() {
    let property = |rng: &mut Rng| {
        let x = rng.range(0u32..10);
        assert!(x != 7, "drew {x}");
    };
    let failure = catch_unwind(|| run(200, None, property)).expect_err("some case draws 7");
    let message = failure.downcast_ref::<String>().expect("formatted panic");
    assert!(message.starts_with("drew 7\n"), "{message}");
    let seed: u64 = message
        .rsplit_once("TESTKIT_SEED=")
        .expect("the message names the seed")
        .1
        .parse()
        .expect("and nothing follows it");

    let mut ran = 0;
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        run(200, Some(seed), |rng| {
            ran += 1;
            property(rng);
        })
    }));
    assert!(replayed.is_err(), "the replayed case fails again");
    assert_eq!(ran, 1, "and it is the only case run");
}
