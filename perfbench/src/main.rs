//! The prebake benchmark: one command, three workloads, two clocks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_sweep|gateway_mix|fleet_trace --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload drives the system only through its public API, makes
//! its inputs from `--seed`, repeats its fixed pass of work until
//! `--seconds` of wall time have elapsed, and checks the outputs. The
//! last stdout line is one JSON object: with `--trace 0` it carries
//! every end-to-end metric, with `--trace 1` every per-layer metric
//! (from a separate traced run, whose spans go to
//! `perfbench/out/spans-<workload>-<seed>.json`).
//!
//! Virtual-clock metrics come from the first pass and repeat exactly for
//! a fixed seed; every later pass must reproduce them. Wall-clock
//! metrics cover every pass. See `perfbench/WORKLOADS.md`.

mod cold_sweep;
mod fleet_trace;
mod gateway_mix;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use prebake_sim::error::SysResult;
use prebake_sim::trace::TraceSpan;

use report::{result_line, Outcome, END_TO_END};
use trace::Span;

const USAGE: &str = "usage: prebake-perfbench --workload cold_sweep|gateway_mix|fleet_trace \
--seed N --seconds S --trace 0|1";

/// One invocation's parameters.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Wall seconds the timed phase runs for (whole passes, at least one).
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Process start; span times count from here.
    pub epoch: Instant,
}

impl Run {
    fn parse(epoch: Instant) -> Result<Run, String> {
        let mut args = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad.clone())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad.clone())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Run {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
            epoch,
        })
    }

    /// Writes the traced run's wall spans and the program's virtual-time
    /// span trees (each tagged with the request it belongs to).
    pub fn write_spans(&self, wall: &[Span], virtual_trees: &[(u64, Vec<TraceSpan>)]) {
        let path = format!("perfbench/out/spans-{}-{}.json", self.workload, self.seed);
        match trace::write_spans(&path, wall, virtual_trees) {
            Ok(()) => println!(
                "spans: {} wall, {} virtual -> {path}",
                wall.len(),
                virtual_trees.iter().map(|(_, t)| t.len()).sum::<usize>()
            ),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Sets up, measures and checks; fills `out`.
    ///
    /// # Errors
    ///
    /// A failure the workload cannot count as one failed invocation.
    fn run(&self, run: &Run, out: &mut Outcome) -> SysResult<()>;
}

/// Peak resident set (`VmHWM`) since process start or the last
/// [`reset_peak_rss`], MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Restarts the `VmHWM` count from the current resident set; `false`
/// where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Records `peak_rss_mib`: the process's peak resident set so far.
/// Workloads call it once set-up and the first pass are done, so the
/// figure covers the same work on every run whatever the number of
/// later passes or the correctness gate's extra work.
pub fn record_peak_rss(out: &mut Outcome) {
    match peak_rss_mib() {
        Some(mib) => {
            out.e2e.insert("peak_rss_mib", mib);
        }
        None => out.violate("VmHWM unavailable in /proc/self/status".into()),
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let run = match Run::parse(epoch) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload: Box<dyn Workload> = match run.workload.as_str() {
        "cold_sweep" => Box::new(cold_sweep::ColdSweep),
        "gateway_mix" => Box::new(gateway_mix::GatewayMix),
        "fleet_trace" => Box::new(fleet_trace::FleetTrace),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    if let Err(e) = workload.run(&run, &mut out) {
        eprintln!("{} failed: {e:?}", run.workload);
        return ExitCode::FAILURE;
    }
    if !run.trace {
        for (name, _) in END_TO_END {
            if !out.e2e.get(name).is_some_and(|v| v.is_finite() && *v > 0.0) {
                out.violate(format!("{name} missing or not positive"));
            }
        }
    }
    for v in &out.violations {
        println!("gate violation: {v}");
    }
    println!("{}", result_line(&out, run.trace));
    if out.violations.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
