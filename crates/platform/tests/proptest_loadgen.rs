//! Property tests for load generation: arrivals are strictly monotonic,
//! generation is deterministic per seed, and the CSV trace codec is an
//! exact round-trip for every generator's collected schedule.

use proptest::prelude::*;

use prebake_platform::loadgen::{Arrival, ArrivalGen, PoissonProcess, Schedule};
use prebake_sim::time::{SimDuration, SimInstant};

/// Builds one schedule from a generator index and shared parameters, so
/// every property ranges over all the generators at once.
fn build(
    gen: u8,
    function: &str,
    n: usize,
    start_ns: u64,
    interval_ms: u64,
    seed: u64,
) -> Schedule {
    let start = SimInstant::from_nanos(start_ns);
    let interval = SimDuration::from_millis(interval_ms);
    let gen = match gen % 4 {
        0 => ArrivalGen::constant(function, n, start, interval),
        1 => ArrivalGen::poisson(function, n, start, interval, seed),
        2 => ArrivalGen::pareto(function, n, start, interval_ms as f64, 1.3, seed),
        _ => ArrivalGen::empirical(
            function,
            n,
            start,
            // Five distinct gaps keep a cross-seed pick-for-pick
            // collision (which would trip the inequality property)
            // vanishingly unlikely even for short schedules.
            &[
                1.0,
                interval_ms as f64,
                interval_ms as f64 * 3.0,
                interval_ms as f64 * 9.0,
                interval_ms as f64 * 27.0,
            ],
            seed,
        ),
    };
    Schedule::from_stream(gen.unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generator yields exactly `n` arrivals with strictly
    /// increasing timestamps starting at or after `start`.
    #[test]
    fn arrivals_are_strictly_monotonic(
        gen in 0u8..4,
        n in 1usize..200,
        start_ns in 0u64..1_000_000_000,
        interval_ms in 1u64..5_000,
        seed in 0u64..1_000,
    ) {
        let schedule = build(gen, "f", n, start_ns, interval_ms, seed);
        prop_assert_eq!(schedule.len(), n);
        let arrivals = schedule.arrivals();
        prop_assert!(arrivals[0].at >= SimInstant::from_nanos(start_ns));
        for pair in arrivals.windows(2) {
            prop_assert!(
                pair[1].at > pair[0].at,
                "arrivals must be strictly increasing: {} then {}",
                pair[0].at,
                pair[1].at
            );
        }
    }

    /// The same seed reproduces the same schedule exactly; for the
    /// randomised generators a different seed must perturb at least one
    /// timestamp (with more than a couple of arrivals, a collision
    /// across every gap is as good as impossible).
    #[test]
    fn schedules_are_deterministic_per_seed(
        gen in 1u8..4, // skip `constant`: it takes no seed
        n in 8usize..100,
        interval_ms in 2u64..5_000,
        seed in 0u64..1_000,
    ) {
        let a = build(gen, "f", n, 0, interval_ms, seed);
        let b = build(gen, "f", n, 0, interval_ms, seed);
        prop_assert_eq!(a, b.clone());
        let c = build(gen, "f", n, 0, interval_ms, seed + 1);
        prop_assert_ne!(b, c);
    }

    /// The open-loop Poisson process is deterministic per seed, emits
    /// strictly increasing arrivals confined to `[start, start+horizon)`
    /// with the first exactly at `start`, and a different seed perturbs
    /// the sequence (whenever the horizon holds more than one arrival).
    #[test]
    fn poisson_process_is_deterministic_and_horizon_bounded(
        rate in 1.0f64..2_000.0,
        start_ns in 0u64..1_000_000_000,
        horizon_ms in 1u64..60_000,
        seed in 0u64..1_000,
    ) {
        let start = SimInstant::from_nanos(start_ns);
        let horizon = SimDuration::from_millis(horizon_ms);
        let stream = |s: u64| -> Vec<Arrival> {
            PoissonProcess::new("f", rate, start, horizon, s)
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
        };
        let a = stream(seed);
        let b = stream(seed);
        prop_assert_eq!(&a, &b, "same seed must replay byte-identically");
        prop_assert_eq!(a[0].at, start, "first arrival lands at start");
        let end = start + horizon;
        for pair in a.windows(2) {
            prop_assert!(pair[1].at > pair[0].at);
        }
        prop_assert!(a.iter().all(|x| x.at < end), "horizon is exclusive");
        let c = stream(seed + 1);
        if a.len() > 2 && c.len() > 2 {
            prop_assert_ne!(&a, &c);
        }
    }

    /// `to_csv` → `from_csv` is the identity for any merged multi-tenant
    /// schedule, including exact nanosecond timestamps and names.
    #[test]
    fn csv_roundtrip_is_exact(
        gen_a in 0u8..4,
        gen_b in 0u8..4,
        n_a in 1usize..60,
        n_b in 1usize..60,
        interval_ms in 1u64..2_000,
        seed in 0u64..1_000,
    ) {
        let merged = build(gen_a, "tenant-a", n_a, 0, interval_ms, seed)
            .merge(build(gen_b, "tenant-b", n_b, 17, interval_ms, seed + 7));
        prop_assert_eq!(merged.len(), n_a + n_b);
        let back = Schedule::from_csv(&merged.to_csv()).unwrap();
        prop_assert_eq!(back, merged);
    }
}
