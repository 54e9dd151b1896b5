//! `fleet_trace`: one streamed multi-tenant trace through the analytic
//! cluster model.
//!
//! `FleetSim::run_stream` at 200 workers, one shard, no threads, with
//! the registry tier in `DedupPullThrough` mode (affinity placement and
//! prepull on), the gateway frontier with one idempotent tenant cached,
//! obs on via `default_fleet_obs`, and the per-request log retained so
//! quantiles are exact. No page-level work happens: `fleet`, `registry`
//! and `obs` do the work.
//!
//! The 24 tenants are clones of the Fig. 5 small/medium/big functions
//! with the per-gear costs in [`frozen_costs`]. A few hot tenants
//! arrive Poisson; a long tail arrives Pareto-gapped with every gap
//! longer than the 60 s keep-alive TTL, so each tail arrival is a cold
//! start with a registry pull.

use std::collections::BTreeMap;
use std::time::Instant;

use prebake_fleet::{
    default_fleet_obs, CacheConfig, FleetConfig, FleetSim, FunctionProfile, GatewayConfig, Gear,
    GearCost, KeepAlive, Policy, RegistryConfig, StartSelection,
};
use prebake_gateway::first_chunk_at;
use prebake_platform::loadgen::{ArrivalGen, LoadResult, MergedArrivals, PoissonProcess};
use prebake_platform::Arrival;
use prebake_sim::error::{Errno, SysResult};
use prebake_sim::time::{SimDuration, SimInstant};
use prebake_sim::trace::TraceSpan;

use crate::report::{put_latency, Outcome};
use crate::stats::{median, sorted, tail};
use crate::trace::{uncovered_pct, Recorder};
use crate::{Run, Workload};

/// Virtual length of the hot tenants' Poisson streams.
const HORIZON: SimDuration = SimDuration::from_secs(600);
/// Tenants: `TENANTS` clones cycling small/medium/big; the first ones
/// arrive Poisson at `HOT_RATES` per second, the rest are the long tail.
const TENANTS: usize = 24;
const HOT_RATES: [f64; 3] = [3.0, 1.5, 0.5];
/// Long-tail arrivals per tenant and their Pareto gap shape. The
/// minimum gap (the scale) outlives the 60 s TTL.
const TAIL_ARRIVALS: usize = 10;
const TAIL_GAP_SCALE_MS: f64 = 61_000.0;
const TAIL_GAP_ALPHA: f64 = 4.0;
/// Keep-alive TTL.
const TTL: SimDuration = SimDuration::from_secs(60);
/// The cached tenant (a hot one) and its result-cache TTL.
const CACHED_TTL: SimDuration = SimDuration::from_secs(1);
/// Share of non-breaching traces the tail sampler keeps.
const KEEP_FRACTION: f64 = 0.01;
/// Setup repetitions; `setup_s` reports their median. Set-up here is
/// short (registry manifests only), so more repetitions steady it.
const SETUPS: usize = 7;

/// Per-gear costs of the Fig. 5 synthetic functions, frozen from the
/// `profiles` table of `BENCH_fleet.json` (seed 1, 5 profiling reps;
/// measured with `FunctionProfile::measure` at commit 33471f5). Frozen
/// here so the workload rests on measured restores, skips the ~29 s
/// profiling pass, and cannot change when that baseline is regenerated.
/// Columns: cold, first service, warm service (ms); replica and image
/// bytes.
fn frozen_costs(size: usize) -> Vec<(Gear, GearCost)> {
    type Row = (f64, f64, f64, u64, u64);
    const TABLE: [[Row; 5]; 3] = [
        [
            (101.4815, 117.0926, 0.4332, 20_858_624, 0),
            (52.5616, 0.4253, 0.4245, 20_858_624, 20_858_624),
            (51.439, 6.8695, 0.4227, 20_858_624, 20_858_624),
            (46.2165, 0.4363, 0.4258, 12_288, 15_495_168),
            (50.615, 0.4305, 0.4323, 20_858_624, 20_858_624),
        ],
        [
            (142.9216, 299.8375, 0.4218, 36_838_844, 0),
            (58.5154, 0.4256, 0.4247, 36_838_844, 36_838_844),
            (63.75, 13.8187, 0.4233, 36_838_844, 36_838_844),
            (47.2197, 0.4405, 0.426, 16_384, 31_346_688),
            (58.9046, 0.4215, 0.4286, 36_838_844, 36_838_844),
        ],
        [
            (358.3898, 1237.8327, 0.4276, 118_835_620, 0),
            (89.0663, 0.4266, 0.4258, 118_835_620, 118_835_620),
            (126.8026, 43.0291, 0.4285, 118_835_620, 118_835_620),
            (52.3679, 0.4618, 0.4272, 36_864, 112_783_360),
            (93.496, 0.4278, 0.4287, 118_835_620, 118_835_620),
        ],
    ];
    // Row order matches `Gear::ALL`: vanilla, eager, lazy, cow, prefetch.
    Gear::ALL
        .iter()
        .zip(TABLE[size])
        .map(|(&gear, (cold, first, warm, mem, image))| {
            (
                gear,
                GearCost {
                    cold_ms: cold,
                    first_service_ms: first,
                    warm_service_ms: warm,
                    replica_mem_bytes: mem,
                    image_bytes: image,
                },
            )
        })
        .collect()
}

fn tenant_name(k: usize) -> String {
    const SIZES: [&str; 3] = ["small", "medium", "big"];
    format!("t{k:02}-{}", SIZES[k % 3])
}

fn profiles() -> Vec<FunctionProfile> {
    (0..TENANTS)
        .map(|k| FunctionProfile::synthetic(&tenant_name(k), &frozen_costs(k % 3)))
        .collect()
}

fn config(seed: u64, obs: bool, spans: bool) -> FleetConfig {
    let mut per_function = BTreeMap::new();
    per_function.insert(tenant_name(0), CACHED_TTL);
    FleetConfig {
        workers: 200,
        mem_budget_bytes: 4 << 30,
        cold_start_concurrency: 4,
        queue_cap: 4096,
        max_replicas_per_function: 64,
        policy: Policy {
            keep_alive: KeepAlive::FixedTtl(TTL),
            start: StartSelection::Adaptive,
        },
        seed,
        span_tracing: spans,
        registry: Some(RegistryConfig::default()),
        obs: obs.then(|| default_fleet_obs(KEEP_FRACTION, seed)),
        shards: 1,
        threads: false,
        retain_completed: true,
        gateway: Some(GatewayConfig {
            inflight_per_worker: 8,
            queue_per_worker: 32,
            cache: CacheConfig {
                per_function,
                ..CacheConfig::default()
            },
            ..GatewayConfig::default()
        }),
        ..FleetConfig::default()
    }
}

type Source = Box<dyn Iterator<Item = LoadResult<Arrival>>>;

/// The lazily generated, time-merged arrival stream for `seed`.
fn stream(seed: u64) -> LoadResult<MergedArrivals<Source>> {
    let stream_seed = |k: usize| {
        seed.wrapping_add(k as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
    };
    let mut sources: Vec<Source> = Vec::new();
    for k in 0..TENANTS {
        let name = tenant_name(k);
        let start = SimInstant::EPOCH + SimDuration::from_millis(137 * k as u64);
        let source: Source = match HOT_RATES.get(k) {
            Some(&rate) => Box::new(PoissonProcess::new(
                &name,
                rate,
                start,
                HORIZON,
                stream_seed(k),
            )?),
            None => Box::new(ArrivalGen::pareto(
                &name,
                TAIL_ARRIVALS,
                start,
                TAIL_GAP_SCALE_MS,
                TAIL_GAP_ALPHA,
                stream_seed(k),
            )?),
        };
        sources.push(source);
    }
    Ok(MergedArrivals::new(sources))
}

/// Wraps the arrival stream: counts arrivals and, when timing, sums the
/// wall time spent inside `next`.
struct Metered<I> {
    inner: I,
    count: u64,
    timing: bool,
    secs: f64,
}

impl<I: Iterator<Item = LoadResult<Arrival>>> Iterator for Metered<I> {
    type Item = LoadResult<Arrival>;

    fn next(&mut self) -> Option<Self::Item> {
        let t = self.timing.then(Instant::now);
        let item = self.inner.next();
        if let Some(t) = t {
            self.secs += t.elapsed().as_secs_f64();
        }
        if item.is_some() {
            self.count += 1;
        }
        item
    }
}

/// Registry set-up: a fleet with every tenant registered (registration
/// publishes each gear's image manifest to the snapshot registry).
fn build_sim(seed: u64, obs: bool, spans: bool) -> FleetSim {
    let mut sim = FleetSim::new(config(seed, obs, spans));
    for p in profiles() {
        sim.register(p);
    }
    sim
}

/// What one pass produced.
struct PassOut {
    sim: FleetSim,
    arrivals: u64,
    /// Wall seconds inside `run_stream`.
    secs: f64,
    /// Wall seconds inside the arrival iterator (traced pass only).
    loadgen_secs: f64,
}

impl PassOut {
    /// Everything virtual the pass produced, for the repeat check.
    fn fingerprint(&self) -> (String, usize, u64, u64, u64) {
        let s = &self.sim;
        (
            s.render_metrics(),
            s.completed().len(),
            s.now().as_nanos(),
            s.events_processed(),
            s.registry().map_or(0, |r| r.egress_bytes()),
        )
    }

    /// Arrivals per wall second of `run_stream`. The gate checks that
    /// every arrival is answered (by the backend or the cache).
    fn rate(&self) -> f64 {
        self.arrivals as f64 / self.secs
    }
}

/// Streams the seed's trace through a freshly built `sim`.
fn pass(
    mut sim: FleetSim,
    seed: u64,
    rec: &mut Recorder,
    parent: Option<u64>,
) -> SysResult<PassOut> {
    let mut metered = Metered {
        inner: stream(seed).map_err(|_| Errno::Einval)?,
        count: 0,
        timing: rec.enabled(),
        secs: 0.0,
    };
    let open = rec.open("fleet.run_stream", parent, 0);
    let t = Instant::now();
    let result = sim.run_stream(&mut metered);
    let secs = t.elapsed().as_secs_f64();
    rec.close(open);
    result.map_err(|_| Errno::Einval)?;
    Ok(PassOut {
        sim,
        arrivals: metered.count,
        secs,
        loadgen_secs: metered.secs,
    })
}

/// The workload.
pub struct FleetTrace;

impl Workload for FleetTrace {
    fn run(&self, run: &Run, out: &mut Outcome) -> SysResult<()> {
        let mut setup_secs = Vec::new();
        let mut sim = None;
        for _ in 0..SETUPS {
            drop(sim.take());
            let t = Instant::now();
            sim = Some(build_sim(run.seed, true, false));
            setup_secs.push(t.elapsed().as_secs_f64());
        }
        out.e2e
            .insert("setup_s", median(&sorted(&setup_secs)).expect("SETUPS > 0"));

        // Each pass streams the trace through a fresh fleet; only
        // `run_stream` is timed, and the rate is the median over passes.
        let mut off = Recorder::new(false, run.epoch, 0);
        let start = Instant::now();
        let first = pass(sim.expect("SETUPS > 0"), run.seed, &mut off, None)?;
        crate::record_peak_rss(out);
        let fingerprint = first.fingerprint();
        let mut rates = vec![first.rate()];
        let mut secs = vec![first.secs];
        while start.elapsed().as_secs_f64() < run.seconds {
            let again = pass(build_sim(run.seed, true, false), run.seed, &mut off, None)?;
            rates.push(again.rate());
            secs.push(again.secs);
            if again.fingerprint() != fingerprint {
                out.violate(format!(
                    "pass {} differs from pass 1 for the same seed",
                    secs.len()
                ));
            }
        }
        let ips = median(&sorted(&rates)).expect("at least one pass");
        out.e2e.insert("invocations_per_wall_s", ips);
        println!(
            "fleet_trace: {} arrivals/pass, {} passes, run_stream {secs:.3?} s",
            first.arrivals,
            secs.len(),
        );

        self.gate(&first, out);
        self.virtual_metrics(&first, out);

        if run.trace {
            let mut rec = Recorder::new(true, run.epoch, 0);
            let root = rec.open("fleet_trace.pass", None, 0);
            let parent = Some(root.id());
            let (sim, _) = rec.time("fleet.setup", parent, 0, || build_sim(run.seed, true, true));
            let mut traced = pass(sim, run.seed, &mut rec, parent)?;
            rec.close(root);
            if traced.fingerprint() != fingerprint {
                out.violate("traced pass differs from the untraced one".into());
            }
            out.layer("bench.trace_overhead_inv_per_s", ips - traced.rate());
            out.layer("fleet.run_stream_s", traced.secs);
            out.layer("platform.loadgen_s", traced.loadgen_secs);
            out.layer(
                "fleet.events_per_wall_s",
                traced.sim.events_processed() as f64 / traced.secs,
            );
            // Obs-off twin: the same untraced pass without telemetry.
            let twin = pass(build_sim(run.seed, false, false), run.seed, &mut off, None)?;
            if twin.fingerprint() != fingerprint {
                out.violate("obs-off twin differs from the obs-on pass".into());
            }
            let on_secs = median(&sorted(&secs)).expect("at least one pass");
            out.layer(
                "obs.overhead_pct",
                100.0 * (on_secs - twin.secs) / twin.secs,
            );
            let spans = rec.into_spans();
            out.layer(
                "bench.uncovered_pct",
                uncovered_pct(&spans, "fleet_trace.pass"),
            );
            let trees: Vec<(u64, Vec<TraceSpan>)> = vec![(0, traced.sim.take_spans())];
            run.write_spans(&spans, &trees);
        }
        Ok(())
    }
}

/// Serve time of a cache hit and its time to first chunk, ms.
fn cached_times() -> (f64, f64) {
    let gw = config(0, false, false).gateway.expect("gateway configured");
    let serve = SimDuration::from_millis_f64(gw.cache.serve_ms.max(0.0));
    let t0 = SimInstant::EPOCH;
    let first = first_chunk_at(t0, t0 + serve, gw.stream.chunks.max(1));
    (serve.as_millis_f64(), (first - t0).as_millis_f64())
}

impl FleetTrace {
    /// The correctness gate: every arrival is accounted for as a backend
    /// request, a shed or a cache hit; every backend request completed;
    /// the gateway ledger balances.
    fn gate(&self, p: &PassOut, out: &mut Outcome) {
        let sim = &p.sim;
        let m = sim.metrics();
        let gm = sim.gateway_metrics().expect("gateway configured");
        out.attempted = p.arrivals;
        let requests = m.requests.get();
        let accounted = requests + gm.shed() + gm.cache_hits.get();
        if accounted != p.arrivals || gm.arrivals.get() != p.arrivals {
            out.violate(format!(
                "{requests} requests + {} shed + {} cache hits != {} arrivals",
                gm.shed(),
                gm.cache_hits.get(),
                p.arrivals
            ));
        }
        let lost = requests.saturating_sub(sim.completed().len() as u64);
        if lost > 0 || sim.gateway_queue_depth() > 0 {
            out.violate(format!("{lost} requests never completed"));
        }
        out.failed = lost;
        if !sim.gateway_conserved() {
            out.violate("gateway_conserved() does not hold".into());
        }
    }

    fn virtual_metrics(&self, p: &PassOut, out: &mut Outcome) {
        let sim = &p.sim;
        let gm = sim.gateway_metrics().expect("gateway configured");
        let chunks = config(0, false, false)
            .gateway
            .expect("gateway configured")
            .stream
            .chunks;
        let hits = gm.cache_hits.get() as usize;
        let (serve_ms, cached_ttfc_ms) = cached_times();
        let done = sim.completed();
        let mut latency: Vec<f64> = done.iter().map(|r| r.latency_ms()).collect();
        latency.extend(std::iter::repeat_n(serve_ms, hits));
        let mut ttfc: Vec<f64> = done
            .iter()
            .map(|r| {
                (first_chunk_at(r.dispatched, r.completed, chunks) - r.arrived).as_millis_f64()
            })
            .collect();
        ttfc.extend(std::iter::repeat_n(cached_ttfc_ms, hits));
        let cold: Vec<f64> = done
            .iter()
            .filter(|r| r.cold)
            .map(|r| r.latency_ms())
            .collect();
        put_latency(out, "latency", &sorted(&latency));
        put_latency(out, "ttfc", &sorted(&ttfc));
        put_latency(out, "cold_start", &sorted(&cold));
        let answered = latency.len();
        out.e2e
            .insert("cold_fraction", cold.len() as f64 / answered.max(1) as f64);
        let good = (answered as u64).saturating_sub(out.failed);
        out.e2e
            .insert("served_ratio", good as f64 / p.arrivals.max(1) as f64);

        let m = sim.metrics();
        let delay = sorted(&done.iter().map(|r| r.queue_delay_ms()).collect::<Vec<_>>());
        out.layer("fleet.queue_delay_p50_ms", median(&delay).unwrap_or(0.0));
        out.layer(
            "fleet.queue_delay_tail_ms",
            tail(&delay).map_or(0.0, |t| t.value),
        );
        out.layer(
            "fleet.events_per_invocation",
            sim.events_processed() as f64 / p.arrivals.max(1) as f64,
        );
        if let Some(reg) = sim.registry() {
            let (egress, dedup) = (reg.egress_bytes() as f64, reg.dedup_bytes() as f64);
            out.layer("registry.egress_mib", egress / (1 << 20) as f64);
            out.layer("registry.dedup_ratio", dedup / (egress + dedup).max(1.0));
            out.layer(
                "registry.pull_hit_ratio",
                reg.cache_hits() as f64 / reg.pulls().max(1) as f64,
            );
        }
        out.layer("fleet.replicas_started", m.replicas_started.get() as f64);
        out.layer("fleet.cold_starts", m.cold_starts.get() as f64);
        out.layer("gateway.shed", gm.shed() as f64);
        out.layer("gateway.cache_hit_ratio", gm.cache_hit_ratio());
    }
}
