//! `cold_sweep`: closed-loop cold starts on fresh machines.
//!
//! Two clients, each a host thread, take trials off one shared list and
//! start the next when the previous returns. A trial is the paper's
//! Fig. 3/5 measurement: provision a fresh machine, start the function
//! (vanilla boot or snapshot restore), serve the first request. The
//! trial is the same call path as `TrialRunner::startup_trial`, split so
//! each layer call can be timed on its own.
//!
//! The restore path (`sim`/`criu`/`core`/`lazy`) does most of the work;
//! fleet, gateway and obs do none.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bytes::Bytes;
use prebake_core::env::{export_images, fresh_container, import_images};
use prebake_core::prebaker::record_working_set;
use prebake_core::{
    bake, provision_machine, Deployment, Phases, PrebakeStarter, SnapshotPolicy, StartMode,
    Started, Starter, TrialRunner, VanillaStarter,
};
use prebake_criu::{read_images, ImageSet};
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_sim::error::SysResult;
use prebake_sim::kernel::Kernel;
use prebake_sim::probe::ProbeCounters;
use prebake_sim::trace::{TraceSpan, TraceSummary};

use crate::report::{put_latency, Outcome, SELF_TIME_SPANS};
use crate::stats::{median, sorted};
use crate::trace::{durations, uncovered_pct, Recorder, Span};
use crate::{Run, Workload};

/// Host threads driving trials (the closed loop's client count).
const CLIENTS: usize = 2;

/// Repetitions of every function × gear pair in one pass. Six gives the
/// 108 prebaked trials a p90 tail needs (≥10 samples beyond it).
const REPS: u64 = 6;

/// Port every replica binds.
const PORT: u16 = 8080;

/// Setup repetitions; `setup_s` reports their median.
const SETUPS: usize = 3;

/// The sweep's start gears: the vanilla baseline arm and the three
/// prebaked restores under study, all baked after one warm-up request.
const GEARS: [(&str, StartMode); 4] = [
    ("vanilla", StartMode::Vanilla),
    ("eager", StartMode::PrebakeWarmup(1)),
    ("prefetch", StartMode::PrebakePrefetch(1)),
    ("cow", StartMode::PrebakeCow(1)),
];

/// The sweep's functions, longest trials first so the two clients
/// finish each repetition at about the same time.
fn functions() -> Vec<FunctionSpec> {
    vec![
        FunctionSpec::synthetic(SyntheticSize::Big),
        FunctionSpec::image_resizer(),
        FunctionSpec::synthetic(SyntheticSize::Medium),
        FunctionSpec::synthetic(SyntheticSize::Small),
        FunctionSpec::markdown(),
        FunctionSpec::noop(),
    ]
}

/// One function's build output: the baked images exactly as a
/// `TrialRunner` of each gear would ship them.
struct Baked {
    spec: FunctionSpec,
    /// After the bake: what eager and CoW restores ship.
    images: Vec<(String, Bytes)>,
    /// After the working-set record pass: what prefetch restores ship.
    ws_images: Vec<(String, Bytes)>,
    pages_stored: usize,
    pages_unique: usize,
    snapshot_bytes: u64,
}

impl Baked {
    fn files(&self, mode: StartMode) -> Option<&[(String, Bytes)]> {
        match mode {
            StartMode::Vanilla => None,
            m if m.needs_working_set() => Some(&self.ws_images),
            _ => Some(&self.images),
        }
    }
}

/// Bakes every function on a builder machine seeded like
/// `TrialRunner::new`'s, so the images match bit for bit.
fn build(rec: &mut Recorder) -> SysResult<Vec<Baked>> {
    functions()
        .into_iter()
        .map(|spec| {
            let mut kernel = Kernel::new(0xBA5E);
            let builder = provision_machine(&mut kernel)?;
            let dep = Deployment::install(&mut kernel, spec.clone(), PORT)?;
            let policy = SnapshotPolicy::AfterWarmup(1);
            let (report, _) = rec.time("criu.dump", None, 0, || {
                bake(&mut kernel, builder, &dep, policy, &dep.images_dir())
            });
            let report = report?;
            let images = export_images(&mut kernel, &dep.images_dir())?;
            let (outcome, _) = rec.time("lazy.record", None, 0, || {
                record_working_set(&mut kernel, builder, &dep, &dep.images_dir())
            });
            outcome?;
            let ws_images = export_images(&mut kernel, &dep.images_dir())?;
            Ok(Baked {
                spec,
                images,
                ws_images,
                pages_stored: report.dump.pages_stored,
                pages_unique: report.dump.pages_unique,
                snapshot_bytes: report.snapshot_bytes(),
            })
        })
        .collect()
}

/// What one trial observed in virtual time.
#[derive(Debug, Clone, PartialEq)]
struct TrialOut {
    startup_ms: f64,
    first_response_ms: f64,
    phases: Phases,
    probes: ProbeCounters,
    status: u16,
    body: Bytes,
}

/// One pass's trial list entry.
#[derive(Debug, Clone, Copy)]
struct TrialSpec {
    function: usize,
    gear: usize,
    seed: u64,
}

fn trial_list(seed: u64, n_functions: usize) -> Vec<TrialSpec> {
    let mut out = Vec::new();
    for rep in 0..REPS {
        for function in 0..n_functions {
            for gear in 0..GEARS.len() {
                out.push(TrialSpec {
                    function,
                    gear,
                    seed: trial_seed(seed, rep),
                });
            }
        }
    }
    out
}

/// Machine seed of repetition `rep`: every pair in a repetition shares
/// it, as the paper's paired trials do.
fn trial_seed(seed: u64, rep: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(rep)
}

/// Runs one trial: the decomposed `TrialRunner::startup_trial`.
fn trial(
    b: &Baked,
    mode: StartMode,
    seed: u64,
    rec: &mut Recorder,
    id: u64,
) -> SysResult<TrialOut> {
    let root = rec.open("cold_sweep.trial", None, id);
    let parent = Some(root.id());
    let (machine, _) = rec.time("core.machine_setup", parent, id, || {
        let mut kernel = Kernel::new(seed);
        let watchdog = provision_machine(&mut kernel)?;
        let dep = Deployment::install(&mut kernel, b.spec.clone(), PORT)?;
        let mut warm = Vec::new();
        if let Some(files) = b.files(mode) {
            import_images(&mut kernel, &dep.images_dir(), files)?;
            warm = dep.image_paths();
        }
        fresh_container(&mut kernel, &warm)?;
        SysResult::Ok((kernel, watchdog, dep))
    });
    let (mut kernel, watchdog, dep) = machine?;
    let t0 = kernel.now();
    let (started, _) = match mode.restore_mode() {
        None => rec.time("core.vanilla_start", parent, id, || {
            VanillaStarter.start(&mut kernel, watchdog, &dep)
        }),
        Some(m) => rec.time("core.prebake_start", parent, id, || {
            PrebakeStarter::with_mode(m).start(&mut kernel, watchdog, &dep)
        }),
    };
    let Started {
        mut replica,
        startup,
        phases,
        trace,
        ..
    } = started?;
    kernel.set_tracing(true);
    let req = dep.spec.sample_request();
    let (resp, _) = rec.time("functions.first_request", parent, id, || {
        replica.handle(&mut kernel, &req)
    });
    let resp = resp?;
    let first_response = kernel.now() - t0;
    let request_trace = kernel.take_trace();
    kernel.set_tracing(false);
    let mut probes = ProbeCounters::from_events(&trace);
    probes.merge(&ProbeCounters::from_events(&request_trace));
    rec.time("core.machine_teardown", parent, id, || {
        drop((kernel, replica))
    });
    rec.close(root);
    Ok(TrialOut {
        startup_ms: startup.as_millis_f64(),
        first_response_ms: first_response.as_millis_f64(),
        phases,
        probes,
        status: resp.status,
        body: resp.body,
    })
}

/// Runs the trials `list` (whose first entry is trial `first_id`) on
/// [`CLIENTS`] threads. Results come back in list order whatever the
/// interleaving.
fn run_trials(
    baked: &[Baked],
    list: &[TrialSpec],
    first_id: usize,
    rec_base: u64,
    traced: bool,
    epoch: Instant,
) -> (Vec<SysResult<TrialOut>>, Vec<Span>) {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, SysResult<TrialOut>)>> = Mutex::new(Vec::new());
    let spans: Mutex<Vec<Span>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (next, results, spans) = (&next, &results, &spans);
            scope.spawn(move || {
                let mut rec = Recorder::new(traced, epoch, rec_base + ((client as u64) << 40));
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(t) = list.get(i) else { break };
                    let mode = GEARS[t.gear].1;
                    let id = (first_id + i) as u64;
                    mine.push((i, trial(&baked[t.function], mode, t.seed, &mut rec, id)));
                }
                results.lock().expect("no client panicked").extend(mine);
                spans
                    .lock()
                    .expect("no client panicked")
                    .extend(rec.into_spans());
            });
        }
    });
    let mut results = results.into_inner().expect("no client panicked");
    results.sort_by_key(|(i, _)| *i);
    let spans = spans.into_inner().expect("no client panicked");
    (results.into_iter().map(|(_, r)| r).collect(), spans)
}

/// What [`timed_passes`] measured.
struct Timed {
    /// The first pass's results, in list order.
    first: Vec<SysResult<TrialOut>>,
    /// Trials per wall second of every repetition.
    rates: Vec<f64>,
    /// Peak resident set of every repetition, MiB (empty when the peak
    /// count cannot be reset).
    peaks: Vec<f64>,
    spans: Vec<Span>,
}

/// Runs one whole pass over the trial list, then further repetitions
/// (cycling through the pass) until `seconds` have elapsed, timing each
/// repetition of the 24 pairs on its own. Every repetition must
/// reproduce the first pass's results for it.
fn timed_passes(
    baked: &[Baked],
    list: &[TrialSpec],
    seconds: f64,
    traced: bool,
    epoch: Instant,
    out: &mut Outcome,
) -> Timed {
    let per_rep = baked.len() * GEARS.len();
    let reps = list.len() / per_rep;
    let start = Instant::now();
    let mut first: Vec<SysResult<TrialOut>> = Vec::with_capacity(list.len());
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let mut spans = Vec::new();
    let mut done = 0usize;
    while done < reps || start.elapsed().as_secs_f64() < seconds {
        let r = done % reps;
        let chunk = &list[r * per_rep..(r + 1) * per_rep];
        let rec_base = ((done as u64) << 48) | 1 << 62;
        let reset = crate::reset_peak_rss();
        let t = Instant::now();
        let (results, rep_spans) = run_trials(baked, chunk, r * per_rep, rec_base, traced, epoch);
        rates.push(chunk.len() as f64 / t.elapsed().as_secs_f64());
        if let Some(mib) = crate::peak_rss_mib().filter(|_| reset) {
            peaks.push(mib);
        }
        spans.extend(rep_spans);
        if done < reps {
            first.extend(results);
        } else if first[r * per_rep..(r + 1) * per_rep] != results[..] {
            out.violate(format!(
                "repetition {r} differs from its first run for the same seed"
            ));
        }
        done += 1;
    }
    Timed {
        first,
        rates,
        peaks,
        spans,
    }
}

/// Self time per virtual span name from `TrialRunner::traced_trial` on
/// every prebaked pair, checking each against the decomposed trial.
fn traced_runner_trials(
    baked: &[Baked],
    results: &[SysResult<TrialOut>],
    list: &[TrialSpec],
    out: &mut Outcome,
) -> SysResult<Vec<(u64, Vec<TraceSpan>)>> {
    let mut trees = Vec::new();
    let mut self_ms = std::collections::BTreeMap::<&str, f64>::new();
    for (i, t) in list.iter().enumerate().take(baked.len() * GEARS.len()) {
        let (label, mode) = GEARS[t.gear];
        if mode == StartMode::Vanilla {
            continue;
        }
        let runner = TrialRunner::new(baked[t.function].spec.clone(), mode)?;
        let (trial, spans) = runner.traced_trial(t.seed)?;
        if let Ok(mine) = &results[i] {
            if trial.startup_ms != mine.startup_ms
                || trial.first_response_ms != mine.first_response_ms
            {
                out.violate(format!(
                    "{} {label}: traced_trial {}/{} ms != decomposed {}/{} ms",
                    baked[t.function].spec.name(),
                    trial.startup_ms,
                    trial.first_response_ms,
                    mine.startup_ms,
                    mine.first_response_ms
                ));
            }
        }
        let summary = TraceSummary::from_spans(&spans);
        if summary.self_total() != summary.wall {
            out.violate(format!(
                "span self times do not sum to the trial on pair {i}"
            ));
        }
        for stage in &summary.stages {
            let name = if SELF_TIME_SPANS.contains(&stage.name) {
                stage.name
            } else {
                "other"
            };
            *self_ms.entry(name).or_default() += stage.self_time.as_millis_f64();
        }
        trees.push((i as u64, spans));
    }
    let pairs = trees.len().max(1) as f64;
    for name in SELF_TIME_SPANS {
        out.layer(
            &format!("core.span_self_ms.{name}"),
            self_ms.get(name).copied().unwrap_or(0.0) / pairs,
        );
    }
    Ok(trees)
}

/// Wall time of `read_images` on a twin of each function's trial
/// machine, so no measured machine's virtual clock moves.
fn image_parse(baked: &[Baked], rec: &mut Recorder) -> SysResult<(f64, u64)> {
    let mut secs = 0.0;
    let mut bytes = 0;
    for b in baked {
        let mut kernel = Kernel::new(0x7715);
        provision_machine(&mut kernel)?;
        let dep = Deployment::install(&mut kernel, b.spec.clone(), PORT)?;
        import_images(&mut kernel, &dep.images_dir(), &b.images)?;
        fresh_container(&mut kernel, &dep.image_paths())?;
        let open = rec.open("criu.image_parse", None, 0);
        let set: SysResult<ImageSet> = read_images(&mut kernel, &dep.images_dir());
        secs += rec.close(open);
        bytes += set?.total_bytes();
    }
    Ok((secs, bytes))
}

/// The workload.
pub struct ColdSweep;

impl Workload for ColdSweep {
    fn run(&self, run: &Run, out: &mut Outcome) -> SysResult<()> {
        let mut setup_rec = Recorder::new(run.trace, run.epoch, 1 << 60);
        let mut setup_secs = Vec::new();
        let mut baked = Vec::new();
        for _ in 0..SETUPS {
            drop(std::mem::take(&mut baked));
            let t = Instant::now();
            baked = build(&mut setup_rec)?;
            setup_secs.push(t.elapsed().as_secs_f64());
        }
        out.e2e
            .insert("setup_s", median(&sorted(&setup_secs)).expect("SETUPS > 0"));
        let list = trial_list(run.seed, baked.len());

        let Timed {
            first: results,
            rates,
            peaks,
            ..
        } = timed_passes(&baked, &list, run.seconds, false, run.epoch, out);
        let ips = median(&sorted(&rates)).expect("at least one repetition");
        out.e2e.insert("invocations_per_wall_s", ips);
        // The whole-run peak grows by a different amount each run,
        // depending on how the two clients' trials overlapped; the median
        // of per-repetition peaks does not.
        match median(&sorted(&peaks)) {
            Some(mib) => {
                out.e2e.insert("peak_rss_mib", mib);
            }
            None => crate::record_peak_rss(out),
        }
        println!(
            "cold_sweep: {} repetitions of {} trials on {CLIENTS} clients, trials/s {rates:.3?}",
            rates.len(),
            baked.len() * GEARS.len()
        );

        self.gate(&baked, &list, &results, run.seed, out)?;
        self.virtual_metrics(&baked, &list, &results, out);

        if run.trace {
            let traced = timed_passes(&baked, &list, run.seconds, true, run.epoch, out);
            let mut spans = traced.spans;
            let traced_ips = median(&sorted(&traced.rates)).expect("at least one repetition");
            out.layer("bench.trace_overhead_inv_per_s", ips - traced_ips);
            let (parse_secs, parse_bytes) = image_parse(&baked, &mut setup_rec)?;
            let trees = traced_runner_trials(&baked, &results, &list, out)?;
            spans.extend(setup_rec.into_spans());
            self.wall_layers(&baked, &spans, parse_secs, parse_bytes, out);
            run.write_spans(&spans, &trees);
        }
        Ok(())
    }
}

impl ColdSweep {
    /// The correctness gate: bodies agree across gears, and the
    /// decomposed path reproduces `TrialRunner::startup_trial` on one
    /// pair per run (which pair rotates with the seed).
    fn gate(
        &self,
        baked: &[Baked],
        list: &[TrialSpec],
        results: &[SysResult<TrialOut>],
        seed: u64,
        out: &mut Outcome,
    ) -> SysResult<()> {
        out.attempted = results.len() as u64;
        for (t, r) in list.iter().zip(results) {
            let name = baked[t.function].spec.name();
            let label = GEARS[t.gear].0;
            let ok = match r {
                Err(e) => {
                    out.violate(format!("{name} {label} seed {}: {e:?}", t.seed));
                    false
                }
                Ok(trial) if !(200..300).contains(&trial.status) => {
                    out.violate(format!("{name} {label}: status {}", trial.status));
                    false
                }
                Ok(trial) => {
                    // The vanilla arm of the same repetition is the reference.
                    let vanilla = list
                        .iter()
                        .zip(results)
                        .find(|(v, _)| v.function == t.function && v.gear == 0 && v.seed == t.seed)
                        .and_then(|(_, r)| r.as_ref().ok());
                    let same = vanilla.is_some_and(|v| v.body == trial.body && !v.body.is_empty());
                    if !same {
                        out.violate(format!(
                            "{name} {label}: first-response body differs from vanilla"
                        ));
                    }
                    same
                }
            };
            if !ok {
                out.failed += 1;
            }
        }
        let pairs = baked.len() * GEARS.len();
        let i = (seed % pairs as u64) as usize;
        let t = list[i];
        let runner = TrialRunner::new(baked[t.function].spec.clone(), GEARS[t.gear].1)?;
        let reference = runner.startup_trial(t.seed)?;
        if let Ok(mine) = &results[i] {
            let same = reference.startup_ms == mine.startup_ms
                && reference.first_response_ms == mine.first_response_ms;
            println!(
                "cold_sweep gate: {} {} startup {} ms (TrialRunner {} ms) {}",
                baked[t.function].spec.name(),
                GEARS[t.gear].0,
                mine.startup_ms,
                reference.startup_ms,
                if same { "match" } else { "MISMATCH" }
            );
            if !same {
                out.violate(
                    "decomposed trial does not reproduce TrialRunner::startup_trial".into(),
                );
            }
        }
        Ok(())
    }

    fn virtual_metrics(
        &self,
        baked: &[Baked],
        list: &[TrialSpec],
        results: &[SysResult<TrialOut>],
        out: &mut Outcome,
    ) {
        let ok: Vec<(&TrialSpec, &TrialOut)> = list
            .iter()
            .zip(results)
            .filter_map(|(t, r)| r.as_ref().ok().map(|o| (t, o)))
            .collect();
        let all = sorted(
            &ok.iter()
                .map(|(_, o)| o.first_response_ms)
                .collect::<Vec<_>>(),
        );
        let prebaked: Vec<&TrialOut> = ok
            .iter()
            .filter(|(t, _)| t.gear != 0)
            .map(|(_, o)| *o)
            .collect();
        let cold = sorted(
            &prebaked
                .iter()
                .map(|o| o.first_response_ms)
                .collect::<Vec<_>>(),
        );
        let vanilla = sorted(
            &ok.iter()
                .filter(|(t, _)| t.gear == 0)
                .map(|(_, o)| o.first_response_ms)
                .collect::<Vec<_>>(),
        );
        put_latency(out, "latency", &all);
        // Trials answer in one piece: the first byte is the last byte.
        put_latency(out, "ttfc", &all);
        put_latency(out, "cold_start", &cold);
        out.e2e.insert("cold_fraction", 1.0);
        out.e2e.insert(
            "served_ratio",
            (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        );
        out.layer(
            "core.vanilla_first_response_p50_ms",
            median(&vanilla).unwrap_or(0.0),
        );
        let phase = |f: fn(&Phases) -> f64| {
            median(&sorted(
                &prebaked.iter().map(|o| f(&o.phases)).collect::<Vec<_>>(),
            ))
            .unwrap_or(0.0)
        };
        out.layer("core.phase.clone_ms", phase(|p| p.clone.as_millis_f64()));
        out.layer("core.phase.exec_ms", phase(|p| p.exec.as_millis_f64()));
        out.layer("core.phase.rts_ms", phase(|p| p.rts.as_millis_f64()));
        out.layer(
            "core.phase.appinit_ms",
            phase(|p| p.appinit.as_millis_f64()),
        );
        let sum = |f: fn(&ProbeCounters) -> u64| {
            prebaked.iter().map(|o| f(&o.probes)).sum::<u64>() as f64
        };
        out.layer("sim.major_faults", sum(|p| p.major_faults));
        out.layer("sim.minor_faults", sum(|p| p.minor_faults));
        out.layer("sim.cow_breaks", sum(|p| p.cow_breaks));
        out.layer("lazy.faults_avoided", sum(|p| p.faults_avoided));
        out.layer("criu.extents_restored", sum(|p| p.extents_restored));
        let stored: usize = baked.iter().map(|b| b.pages_stored).sum();
        let unique: usize = baked.iter().map(|b| b.pages_unique).sum();
        out.layer("criu.dedup_ratio", unique as f64 / stored.max(1) as f64);
    }

    fn wall_layers(
        &self,
        baked: &[Baked],
        spans: &[Span],
        parse_secs: f64,
        parse_bytes: u64,
        out: &mut Outcome,
    ) {
        // One prebaked trial (the first synthetic-big eager start) call
        // by call, and what its timed calls leave uncovered.
        if let Some(root) = spans
            .iter()
            .find(|s| s.name == "cold_sweep.trial" && s.request == 1)
        {
            let mut covered = 0.0;
            let mut line = format!("trial 1 ({} eager):", baked[0].spec.name());
            for child in spans.iter().filter(|s| s.parent == Some(root.id)) {
                covered += child.secs();
                line.push_str(&format!(" {} {:.3} ms,", child.name, 1e3 * child.secs()));
            }
            println!(
                "{line} total {:.3} ms, uncovered {:.3} ms",
                1e3 * root.secs(),
                1e3 * (root.secs() - covered)
            );
        }
        let mean_ms = |name: &str| {
            let d = durations(spans, name);
            1e3 * d.iter().sum::<f64>() / d.len().max(1) as f64
        };
        out.layer("core.machine_setup_ms", mean_ms("core.machine_setup"));
        out.layer("core.vanilla_start_ms", mean_ms("core.vanilla_start"));
        out.layer(
            "functions.first_request_ms",
            mean_ms("functions.first_request"),
        );
        // Prebake start time per gear: spans carry the trial id, whose
        // position in the list names the gear.
        for (g, (label, _)) in GEARS.iter().enumerate().skip(1) {
            let d: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == "core.prebake_start" && s.request as usize % GEARS.len() == g)
                .map(Span::secs)
                .collect();
            let ms = 1e3 * d.iter().sum::<f64>() / d.len().max(1) as f64;
            out.layer(&format!("core.prebake_start_ms.{label}"), ms);
        }
        out.layer("criu.image_parse_ms", 1e3 * parse_secs / baked.len() as f64);
        out.layer(
            "criu.image_parse_mib_per_s",
            parse_bytes as f64 / (1 << 20) as f64 / parse_secs,
        );
        let dump = durations(spans, "criu.dump");
        let setups = (dump.len() / baked.len()).max(1) as f64;
        let dump_secs = dump.iter().sum::<f64>() / setups;
        out.layer("criu.dump_ms", 1e3 * dump_secs);
        let snap: u64 = baked.iter().map(|b| b.snapshot_bytes).sum();
        out.layer(
            "criu.dump_mib_per_s",
            snap as f64 / (1 << 20) as f64 / dump_secs,
        );
        out.layer(
            "lazy.record_ms",
            1e3 * durations(spans, "lazy.record").iter().sum::<f64>() / setups,
        );
        out.layer(
            "bench.uncovered_pct",
            uncovered_pct(spans, "cold_sweep.trial"),
        );
    }
}
