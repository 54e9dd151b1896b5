//! Property tests for the sharded fleet event loop: for arbitrary
//! multi-tenant workloads, threading must be invisible (a threaded
//! drain equals a serial drain of the same shard count, bit for bit).

use proptest::prelude::*;

use prebake_fleet::policy::{KeepAlive, Policy, StartSelection};
use prebake_fleet::profile::{FunctionProfile, Gear, GearCost};
use prebake_fleet::sim::{FleetConfig, FleetSim, RegistryConfig};
use prebake_platform::loadgen::{ArrivalGen, Schedule};
use prebake_sim::time::{SimDuration, SimInstant};

fn profile(name: &str, mem_mb: u64, image_mb: u64) -> FunctionProfile {
    FunctionProfile::synthetic(
        name,
        &[
            (
                Gear::Vanilla,
                GearCost {
                    cold_ms: 180.0,
                    first_service_ms: 10.0,
                    warm_service_ms: 2.0,
                    replica_mem_bytes: mem_mb << 20,
                    image_bytes: 0,
                },
            ),
            (
                Gear::Prefetch,
                GearCost {
                    cold_ms: 25.0,
                    first_service_ms: 4.0,
                    warm_service_ms: 2.0,
                    replica_mem_bytes: mem_mb << 20,
                    image_bytes: image_mb << 20,
                },
            ),
        ],
    )
}

fn build(shards: usize, threads: bool, seed: u64, tenants: usize) -> FleetSim {
    let mut sim = FleetSim::new(FleetConfig {
        workers: 8,
        shards,
        threads,
        seed,
        policy: Policy {
            keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(3)),
            start: StartSelection::Adaptive,
        },
        registry: Some(RegistryConfig::default()),
        ..FleetConfig::default()
    });
    for t in 0..tenants {
        sim.register(profile(
            &format!("fn-{t}"),
            40 + 20 * t as u64,
            10 + 10 * t as u64,
        ));
    }
    sim
}

/// An arbitrary multi-tenant schedule: each tenant contributes a
/// Poisson stream with its own mean and phase.
fn workload(tenants: usize, arrivals: usize, seed: u64) -> Schedule {
    let mut merged: Option<Schedule> = None;
    for t in 0..tenants {
        let s = ArrivalGen::poisson(
            &format!("fn-{t}"),
            arrivals,
            SimInstant::EPOCH + SimDuration::from_millis(37 * t as u64),
            SimDuration::from_millis(150 + 90 * t as u64),
            seed ^ (t as u64).wrapping_mul(0x9e37_79b9),
        )
        .and_then(Schedule::from_stream)
        .unwrap();
        merged = Some(match merged {
            None => s,
            Some(m) => m.merge(s),
        });
    }
    merged.expect("at least one tenant")
}

/// One completed request, reduced to its identity-relevant fields:
/// (id, function, worker, cold, completion nanos).
type RequestRow = (u64, String, usize, bool, u64);

/// Everything a run produces that the execution strategy must not
/// change.
fn fingerprint(sim: &mut FleetSim) -> (String, Vec<RequestRow>, u64, u64, u64) {
    (
        sim.render_metrics(),
        sim.completed()
            .iter()
            .map(|r| {
                (
                    r.id,
                    r.function.clone(),
                    r.worker,
                    r.cold,
                    r.completed.as_nanos(),
                )
            })
            .collect(),
        sim.registry().map_or(0, |r| r.egress_bytes()),
        sim.events_processed(),
        sim.now().as_nanos(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Threaded and serial drains of the same shard count are
    /// bit-identical for arbitrary workloads and shard counts.
    #[test]
    fn threading_is_invisible(
        shard_idx in 0usize..4,
        tenants in 1usize..5,
        arrivals in 1usize..40,
        seed in 0u64..1000,
    ) {
        let shards = [1usize, 2, 4, 8][shard_idx];
        let schedule = workload(tenants, arrivals, seed);
        let mut threaded = build(shards, true, seed, tenants);
        threaded.run(&schedule).unwrap();
        let mut serial = build(shards, false, seed, tenants);
        serial.run(&schedule).unwrap();
        prop_assert_eq!(fingerprint(&mut threaded), fingerprint(&mut serial));
    }
}
