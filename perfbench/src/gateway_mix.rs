//! `gateway_mix`: open-loop multi-tenant traffic through the gateway.
//!
//! Per-tenant arrival streams flow through `Gateway` → `Platform` to
//! real handlers on the sim kernel: a cacheable markdown tenant
//! (prefetch restore, Poisson) whose bodies come from a skewed draw over
//! a fixed document set, a noop tenant (eager, Poisson), an
//! image-resizer tenant (CoW, periodic), a vanilla synthetic-small
//! tenant (Poisson), small-snapshot scale-to-zero tenants whose gaps
//! outlive the idle timeout, and a burst above admission capacity, so
//! queueing and shedding occur.
//!
//! Time is virtual: every arrival is offered at its due instant, so the
//! generator is never late (the gate checks each reply's arrival instant
//! against the schedule), and latency counts from that instant.
//!
//! About 99% of invocations are warm serving through
//! `gateway`/`platform`/`runtime`/`functions`, which loads the sim
//! kernel with many small request-time writes instead of `cold_sweep`'s
//! bulk page installs. The ~110 restores per pass are few but costly:
//! about half the pass's wall time.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use bytes::Bytes;
use prebake_core::starter::quick_start;
use prebake_functions::markdown::render_page;
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_gateway::{
    ArrivalOutcome, CacheConfig, Gateway, GatewayConfig, InvokeReply, StreamConfig,
};
use prebake_platform::loadgen::{ArrivalGen, LoadResult, MergedArrivals, PoissonProcess};
use prebake_platform::{
    Arrival, ContainerImage, FunctionBuilder, Platform, PlatformConfig, Registry, Template,
};
use prebake_runtime::gen::SplitMix64;
use prebake_runtime::http::Request;
use prebake_sim::error::{Errno, SysResult};
use prebake_sim::time::{SimDuration, SimInstant};

use crate::report::{put_latency, Outcome};
use crate::stats::{median, sorted, tail};
use crate::trace::{uncovered_pct, Recorder};
use crate::{Run, Workload};

/// Virtual length of the steady phase.
const HORIZON: SimDuration = SimDuration::from_secs(120);
/// Idle time after which the platform reaps a replica.
const IDLE_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// The cacheable tenant and its result-cache TTL.
const MARKDOWN: &str = "markdown-render";
const MARKDOWN_TTL: SimDuration = SimDuration::from_secs(2);
/// Documents in the markdown tenant's fixed set.
const DOCS: usize = 40;
/// Scale-to-zero tenants, arrivals each, and their Pareto gap shape: the
/// minimum gap (the scale) outlives the idle timeout, so every one of
/// their arrivals is a cold start.
const STZ_TENANTS: usize = 15;
const STZ_ARRIVALS: usize = 7;
const STZ_GAP_SCALE_MS: f64 = 12_000.0;
const STZ_GAP_ALPHA: f64 = 3.0;
/// The burst: noop arrivals far above what 8 admission slots carry.
const BURST_RATE: f64 = 20_000.0;
const BURST_AT: SimDuration = SimDuration::from_secs(60);
const BURST_LEN: SimDuration = SimDuration::from_millis(40);
/// Setup repetitions; `setup_s` reports their median.
const SETUPS: usize = 3;

/// How a tenant's arrivals are spaced.
enum Arrivals {
    /// Poisson at this many per second over the steady phase.
    Poisson(f64),
    /// One every interval from a seeded phase. The image-resizer arrives
    /// this way: two overlapping requests would start a second 100 MB
    /// replica, and peak memory would then depend on the seed.
    Periodic(SimDuration),
    /// [`STZ_ARRIVALS`] Pareto-gapped arrivals (scale-to-zero tenants).
    ScaleToZero,
}

/// One tenant: its function, build template and arrival pattern.
struct Tenant {
    spec: FunctionSpec,
    template: Template,
    arrivals: Arrivals,
}

fn tenants() -> Vec<Tenant> {
    let mut out = vec![
        Tenant {
            spec: FunctionSpec::markdown(),
            template: Template::java11_criu_prefetch(),
            arrivals: Arrivals::Poisson(50.0),
        },
        Tenant {
            spec: FunctionSpec::noop(),
            template: Template::java11_criu_warm(1),
            arrivals: Arrivals::Poisson(50.0),
        },
        Tenant {
            spec: FunctionSpec::image_resizer(),
            template: Template::java11_criu_cow(),
            arrivals: Arrivals::Periodic(SimDuration::from_secs(1)),
        },
        Tenant {
            spec: FunctionSpec::synthetic(SyntheticSize::Small),
            template: Template::java11(),
            arrivals: Arrivals::Poisson(10.0),
        },
    ];
    for k in 0..STZ_TENANTS {
        out.push(Tenant {
            spec: FunctionSpec::noop().with_name(format!("stz-{k:02}")),
            template: Template::java11_criu_lazy(),
            arrivals: Arrivals::ScaleToZero,
        });
    }
    out
}

/// The fixed document set the markdown tenant draws from.
fn documents() -> Vec<String> {
    (0..DOCS)
        .map(|i| {
            let mut doc = format!("# Document {i}\n\n");
            for j in 0..(6 + (i * 7) % 24) {
                doc.push_str(&format!(
                    "Paragraph {j} of document {i} has *emphasis*, `code` and a [link](https://example.com/{i}/{j}).\n\n"
                ));
                if j % 5 == 4 {
                    doc.push_str(&format!("- item {j}\n- item {}\n\n", j + 1));
                }
            }
            doc
        })
        .collect()
}

/// One scheduled arrival.
#[derive(Debug, Clone)]
struct Due {
    at: SimInstant,
    tenant: usize,
    /// Index into the document set (markdown tenant only).
    doc: Option<usize>,
}

/// The arrival schedule for `seed`: per-tenant Poisson streams, the
/// scale-to-zero tenants' Pareto streams and the burst, merged in time
/// order; markdown bodies drawn Zipf(1) over the document set.
fn schedule(tenants: &[Tenant], seed: u64) -> LoadResult<Vec<Due>> {
    type Source = Box<dyn Iterator<Item = LoadResult<Arrival>>>;
    let mut sources: Vec<Source> = Vec::new();
    let stream_seed = |k: u64| seed.wrapping_add(k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for (k, t) in tenants.iter().enumerate() {
        let name = t.spec.name();
        let offset = SimDuration::from_millis(700 * k as u64);
        let source: Source = match t.arrivals {
            Arrivals::Poisson(rate) => Box::new(PoissonProcess::new(
                name,
                rate,
                SimInstant::EPOCH + offset,
                HORIZON,
                stream_seed(k as u64),
            )?),
            Arrivals::Periodic(interval) => {
                let phase = SplitMix64::new(stream_seed(k as u64)).below(interval.as_nanos());
                Box::new(ArrivalGen::constant(
                    name,
                    (HORIZON.as_nanos() / interval.as_nanos()) as usize,
                    SimInstant::EPOCH + offset + SimDuration::from_nanos(phase),
                    interval,
                )?)
            }
            Arrivals::ScaleToZero => Box::new(ArrivalGen::pareto(
                name,
                STZ_ARRIVALS,
                SimInstant::EPOCH + offset,
                STZ_GAP_SCALE_MS,
                STZ_GAP_ALPHA,
                stream_seed(k as u64),
            )?),
        };
        sources.push(source);
    }
    sources.push(Box::new(PoissonProcess::new(
        "noop",
        BURST_RATE,
        SimInstant::EPOCH + BURST_AT,
        BURST_LEN,
        stream_seed(1 << 20),
    )?));
    let index: HashMap<&str, usize> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.spec.name(), i))
        .collect();
    let weights: Vec<f64> = (0..DOCS).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = SplitMix64::new(stream_seed(1 << 21));
    let mut out = Vec::new();
    for arrival in MergedArrivals::new(sources) {
        let arrival = arrival?;
        let tenant = index[arrival.function.as_str()];
        let doc = (arrival.function == MARKDOWN).then(|| {
            let mut u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(DOCS - 1)
        });
        out.push(Due {
            at: arrival.at,
            tenant,
            doc,
        });
    }
    Ok(out)
}

/// Setup output: built images, the schedule and the request bodies.
struct Prepared {
    tenants: Vec<Tenant>,
    images: Vec<ContainerImage>,
    docs: Vec<Bytes>,
    due: Vec<Due>,
}

fn prepare(seed: u64) -> SysResult<Prepared> {
    let tenants = tenants();
    let images = tenants
        .iter()
        .map(|t| FunctionBuilder.build(t.spec.clone(), &t.template))
        .collect::<SysResult<Vec<_>>>()?;
    let due = schedule(&tenants, seed).map_err(|_| Errno::Einval)?;
    let docs = documents().into_iter().map(Bytes::from).collect();
    Ok(Prepared {
        tenants,
        images,
        docs,
        due,
    })
}

fn gateway_config() -> GatewayConfig {
    let mut per_function = BTreeMap::new();
    per_function.insert(MARKDOWN.to_owned(), MARKDOWN_TTL);
    GatewayConfig {
        inflight_per_worker: 8,
        queue_per_worker: 32,
        stream: StreamConfig {
            chunks: 8,
            chunk_bytes: 4 * 1024,
        },
        cache: CacheConfig {
            per_function,
            ..CacheConfig::default()
        },
    }
}

/// What one pass produced.
struct PassOut {
    replies: Vec<InvokeReply>,
    shed: u64,
    deferred: u64,
    peak_queue: usize,
    cache_hit_ratio: f64,
    cold_starts: u64,
    conserved: bool,
    /// Traced pass only: wall seconds of each `arrive`, by outcome.
    arrive_secs: Vec<(ArrivalOutcome, f64)>,
    finish_secs: f64,
}

impl PassOut {
    /// Everything virtual the pass produced, for the repeat check.
    fn fingerprint(&self) -> Vec<(String, u64, u64, u64, bool, bool, Bytes)> {
        self.replies
            .iter()
            .map(|r| {
                (
                    r.function.clone(),
                    r.arrived.as_nanos(),
                    r.dispatched.as_nanos(),
                    r.completed.as_nanos(),
                    r.cold,
                    r.cached,
                    r.body.clone(),
                )
            })
            .collect()
    }
}

fn request(p: &Prepared, d: &Due) -> Request {
    match d.doc {
        Some(doc) => Request::with_body(p.docs[doc].clone()),
        None => p.tenants[d.tenant].spec.sample_request(),
    }
}

fn pass(p: &Prepared, seed: u64, rec: &mut Recorder) -> SysResult<PassOut> {
    let root = rec.open("gateway_mix.pass", None, 0);
    let parent = Some(root.id());
    let (gw, _) = rec.time("gateway.build", parent, 0, || {
        let registry = Registry::new();
        for image in &p.images {
            registry.push(image.clone());
        }
        let config = PlatformConfig {
            idle_timeout: IDLE_TIMEOUT,
            seed,
            ..PlatformConfig::default()
        };
        let mut gw = Gateway::new(Platform::new(config, registry), gateway_config());
        for t in &p.tenants {
            gw.deploy(t.spec.name())?;
        }
        Ok::<_, prebake_gateway::GatewayError>(gw)
    });
    let mut gw = gw.map_err(errno)?;
    let mut arrive_secs = Vec::new();
    for (i, d) in p.due.iter().enumerate() {
        let req = request(p, d);
        let name = p.tenants[d.tenant].spec.name();
        let (outcome, secs) = rec.time("gateway.arrive", parent, i as u64 + 1, || {
            gw.arrive(d.at, name, req)
        });
        let outcome = outcome.map_err(errno)?;
        if rec.enabled() {
            arrive_secs.push((outcome, secs));
        }
    }
    let (report, finish_secs) = rec.time("gateway.finish", parent, 0, || gw.finish());
    let report = report.map_err(errno)?;
    rec.close(root);
    let m = gw.metrics();
    let cold_starts = p
        .tenants
        .iter()
        .filter_map(|t| gw.platform().metrics().get(t.spec.name()))
        .map(|f| f.cold_starts.get())
        .sum();
    Ok(PassOut {
        shed: report.admission.shed,
        deferred: report.admission.deferred,
        peak_queue: report.admission.peak_queue,
        cache_hit_ratio: m.cache_hit_ratio(),
        cold_starts,
        conserved: gw.conserved(),
        replies: report.replies,
        arrive_secs,
        finish_secs,
    })
}

/// The workload.
pub struct GatewayMix;

impl Workload for GatewayMix {
    fn run(&self, run: &Run, out: &mut Outcome) -> SysResult<()> {
        let mut setup_secs = Vec::new();
        let mut prepared = None;
        for _ in 0..SETUPS {
            drop(prepared.take());
            let t = Instant::now();
            prepared = Some(prepare(run.seed)?);
            setup_secs.push(t.elapsed().as_secs_f64());
        }
        let p = prepared.expect("SETUPS > 0");
        out.e2e
            .insert("setup_s", median(&sorted(&setup_secs)).expect("SETUPS > 0"));

        let mut off = Recorder::new(false, run.epoch, 0);
        let start = Instant::now();
        let first = pass(&p, run.seed, &mut off)?;
        crate::record_peak_rss(out);
        let fingerprint = first.fingerprint();
        let mut replies = first.replies.len() as u64;
        let mut passes = 1;
        while start.elapsed().as_secs_f64() < run.seconds {
            let again = pass(&p, run.seed, &mut off)?;
            passes += 1;
            replies += again.replies.len() as u64;
            if again.fingerprint() != fingerprint {
                out.violate(format!(
                    "pass {passes} differs from pass 1 for the same seed"
                ));
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let ips = replies as f64 / elapsed;
        out.e2e.insert("invocations_per_wall_s", ips);
        println!(
            "gateway_mix: {} arrivals/pass, {passes} passes, {replies} replies in {elapsed:.3} s wall",
            p.due.len()
        );

        self.gate(&p, &first, out)?;
        self.virtual_metrics(&p, &first, out);

        if run.trace {
            let mut rec = Recorder::new(true, run.epoch, 0);
            let t = Instant::now();
            let traced = pass(&p, run.seed, &mut rec)?;
            let traced_ips = traced.replies.len() as f64 / t.elapsed().as_secs_f64();
            if traced.fingerprint() != fingerprint {
                out.violate("traced pass differs from the untraced one".into());
            }
            out.layer("bench.trace_overhead_inv_per_s", ips - traced_ips);
            let mean_us = |cached: bool| {
                let v: Vec<f64> = traced
                    .arrive_secs
                    .iter()
                    .filter(|(o, _)| (*o == ArrivalOutcome::Cached) == cached)
                    .map(|(_, s)| *s)
                    .collect();
                1e6 * v.iter().sum::<f64>() / v.len().max(1) as f64
            };
            out.layer("gateway.arrive_cached_us", mean_us(true));
            out.layer("gateway.arrive_backend_us", mean_us(false));
            out.layer("gateway.finish_ms", 1e3 * traced.finish_secs);
            // The handler's floor: rendering the same documents directly.
            let docs = documents();
            let reps = 20;
            let open = rec.open("functions.render", None, 0);
            for _ in 0..reps {
                for d in &docs {
                    std::hint::black_box(render_page("Rendered", std::hint::black_box(d)));
                }
            }
            let secs = rec.close(open);
            out.layer(
                "functions.render_us",
                1e6 * secs / (reps * docs.len()) as f64,
            );
            let spans = rec.into_spans();
            out.layer(
                "bench.uncovered_pct",
                uncovered_pct(&spans, "gateway_mix.pass"),
            );
            run.write_spans(&spans, &[]);
        }
        Ok(())
    }
}

impl GatewayMix {
    /// The correctness gate: conservation, every arrival answered or
    /// shed at its due instant, every body equal to the handler's output
    /// for its request, every cached body equal to its uncached twin.
    fn gate(&self, p: &Prepared, first: &PassOut, out: &mut Outcome) -> SysResult<()> {
        out.attempted = p.due.len() as u64;
        if !first.conserved {
            out.violate("Gateway::conserved() does not hold".into());
        }
        // Reference outputs: markdown renders directly; every other
        // tenant's request is fixed, so one vanilla start answers it.
        let rendered: Vec<Bytes> = documents()
            .iter()
            .map(|d| Bytes::from(render_page("Rendered", d)))
            .collect();
        let mut reference: HashMap<&str, Bytes> = HashMap::new();
        for t in p.tenants.iter().filter(|t| t.spec.name() != MARKDOWN) {
            let (mut kernel, mut started) = quick_start(t.spec.clone(), 1)?;
            let resp = started
                .replica
                .handle(&mut kernel, &t.spec.sample_request())?;
            reference.insert(t.spec.name(), resp.body);
        }
        let mut due: HashMap<(&str, u64), Vec<Option<usize>>> = HashMap::new();
        for d in &p.due {
            due.entry((p.tenants[d.tenant].spec.name(), d.at.as_nanos()))
                .or_default()
                .push(d.doc);
        }
        let mut uncached: HashMap<usize, Bytes> = HashMap::new();
        let mut wrong = 0u64;
        let mut late = 0u64;
        for r in first.replies.iter().filter(|r| !r.cached) {
            let doc = due
                .get_mut(&(r.function.as_str(), r.arrived.as_nanos()))
                .and_then(Vec::pop);
            let Some(doc) = doc else {
                late += 1;
                continue;
            };
            let expected = match doc {
                Some(i) => {
                    uncached.entry(i).or_insert_with(|| r.body.clone());
                    &rendered[i]
                }
                None => &reference[r.function.as_str()],
            };
            if r.body != *expected {
                wrong += 1;
            }
        }
        for r in first.replies.iter().filter(|r| r.cached) {
            let doc = due
                .get_mut(&(r.function.as_str(), r.arrived.as_nanos()))
                .and_then(Vec::pop);
            match doc {
                Some(Some(i)) => {
                    if r.body != rendered[i] || uncached.get(&i).is_some_and(|u| *u != r.body) {
                        wrong += 1;
                    }
                }
                _ => late += 1,
            }
        }
        let answered = first.replies.len() as u64;
        if answered + first.shed != out.attempted {
            out.violate(format!(
                "{answered} replies + {} shed != {} arrivals",
                first.shed, out.attempted
            ));
        }
        if wrong > 0 {
            out.violate(format!("{wrong} replies differ from the handler output"));
        }
        if late > 0 {
            out.violate(format!(
                "{late} replies do not match a scheduled arrival instant"
            ));
        }
        out.failed = wrong + late;
        println!(
            "gateway_mix: generator lateness 0 ns (virtual clock); {answered} replies checked"
        );
        Ok(())
    }

    fn virtual_metrics(&self, p: &Prepared, first: &PassOut, out: &mut Outcome) {
        let replies = &first.replies;
        let ms = |f: &dyn Fn(&InvokeReply) -> f64, keep: &dyn Fn(&InvokeReply) -> bool| {
            sorted(
                &replies
                    .iter()
                    .filter(|r| keep(r))
                    .map(f)
                    .collect::<Vec<_>>(),
            )
        };
        put_latency(out, "latency", &ms(&|r| r.latency_ms(), &|_| true));
        put_latency(out, "ttfc", &ms(&|r| r.ttfc_ms(), &|_| true));
        put_latency(out, "cold_start", &ms(&|r| r.latency_ms(), &|r| r.cold));
        let cold = replies.iter().filter(|r| r.cold).count();
        out.e2e
            .insert("cold_fraction", cold as f64 / replies.len().max(1) as f64);
        let good = replies.len() as u64 - out.failed.min(replies.len() as u64);
        out.e2e
            .insert("served_ratio", good as f64 / p.due.len().max(1) as f64);

        let backend = |r: &&InvokeReply| !r.cached;
        let wait = sorted(
            &replies
                .iter()
                .filter(backend)
                .map(|r| (r.dispatched - r.arrived).as_millis_f64())
                .collect::<Vec<_>>(),
        );
        let service = sorted(
            &replies
                .iter()
                .filter(backend)
                .map(|r| (r.completed - r.dispatched).as_millis_f64())
                .collect::<Vec<_>>(),
        );
        out.layer("gateway.queue_wait_p50_ms", median(&wait).unwrap_or(0.0));
        out.layer(
            "gateway.queue_wait_tail_ms",
            tail(&wait).map_or(0.0, |t| t.value),
        );
        out.layer("gateway.service_p50_ms", median(&service).unwrap_or(0.0));
        out.layer("gateway.cache_hit_ratio", first.cache_hit_ratio);
        out.layer("gateway.shed", first.shed as f64);
        out.layer("gateway.deferred", first.deferred as f64);
        out.layer("gateway.peak_queue", first.peak_queue as f64);
        out.layer("platform.cold_starts", first.cold_starts as f64);
    }
}

/// The platform error behind a gateway error.
fn errno(e: prebake_gateway::GatewayError) -> Errno {
    match e {
        prebake_gateway::GatewayError::Platform(errno) => errno,
        _ => Errno::Einval,
    }
}
