//! Load generation.
//!
//! The paper's generator "starts the function replica and holds the
//! first request until the replica becomes ready; after that, the load
//! is sent sequentially and at a constant rate". The ablation studies
//! additionally use Poisson (open-loop) arrivals, instantaneous bursts,
//! heavy-tailed (Pareto) inter-arrivals, empirical resampling of
//! observed gaps, and recorded traces replayed from CSV — the
//! multi-tenant workloads the fleet scheduler (`prebake-fleet`) faces.
//!
//! Every workload is an arrival stream: an iterator of
//! `LoadResult<Arrival>`. [`ArrivalGen`] generates the constant, burst,
//! Poisson, Pareto and empirical shapes, [`PoissonProcess`] the
//! rate-and-horizon open loop, [`CsvArrivalStream`] reads a recorded
//! trace and [`MergedArrivals`] interleaves tenants. A [`Schedule`] is a
//! stream collected into an ordered list ([`Schedule::from_stream`]) so
//! it can be merged, serialised ([`write_csv_stream`]) and replayed into
//! a [`Platform`] or any other consumer.
//!
//! All generators are deterministic per seed, produce strictly
//! monotonically increasing arrival times (bursts excepted, which are
//! simultaneous by design), and validate their arguments with a typed
//! [`LoadError`] instead of panicking on degenerate rates or overflowing
//! tick arithmetic.

use std::error::Error;
use std::fmt;

use prebake_runtime::http::Request;
use prebake_sim::error::Errno;
use prebake_sim::noise::Noise;
use prebake_sim::time::{SimDuration, SimInstant};

use crate::platform::Platform;

/// Why a load schedule could not be generated or replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LoadError {
    /// A rate/interval argument was zero (or saturated to zero from a
    /// negative or non-finite input) where progress is required.
    InvalidRate,
    /// A shape parameter (Pareto `alpha`/`scale`, empirical gap set) was
    /// empty, non-positive or non-finite.
    InvalidShape,
    /// Tick arithmetic overflowed the virtual-time range.
    Overflow,
    /// A function id contains characters the CSV format reserves
    /// (comma/newline) or is empty.
    InvalidFunction(String),
    /// A CSV trace line failed to parse (1-based line number).
    Malformed(usize),
    /// Submission into the platform failed.
    Submit(Errno),
    /// Reading or writing a streamed CSV trace failed at the I/O layer.
    Io(std::io::ErrorKind),
    /// A consumer that needs time order got an arrival earlier than the
    /// one before it (1-based position in the stream).
    Unsorted(usize),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::InvalidRate => write!(f, "rate/interval must be positive"),
            LoadError::InvalidShape => write!(f, "invalid distribution shape parameter"),
            LoadError::Overflow => write!(f, "arrival time overflows virtual time"),
            LoadError::InvalidFunction(name) => {
                write!(
                    f,
                    "function id {name:?} is empty or contains ',' or a newline"
                )
            }
            LoadError::Malformed(line) => write!(f, "malformed trace CSV at line {line}"),
            LoadError::Submit(e) => write!(f, "submission failed: {e}"),
            LoadError::Io(kind) => write!(f, "trace stream I/O failed: {kind}"),
            LoadError::Unsorted(n) => {
                write!(f, "arrival {n} is earlier than the arrival before it")
            }
        }
    }
}

impl Error for LoadError {}

impl From<Errno> for LoadError {
    fn from(e: Errno) -> LoadError {
        LoadError::Submit(e)
    }
}

/// Result alias for load generation.
pub type LoadResult<T> = Result<T, LoadError>;

/// One scheduled invocation: which function is hit, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant at the gateway.
    pub at: SimInstant,
    /// Target function id.
    pub function: String,
}

/// An ordered multi-tenant arrival schedule: an arrival stream
/// collected by [`Schedule::from_stream`].
///
/// [`Schedule::merge`] folds per-function schedules into one fleet-wide
/// trace ordered by time (ties keep the left-hand side first, so merging
/// is deterministic). Every arrival carries a function id the CSV format
/// can hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    arrivals: Vec<Arrival>,
}

/// Rejects function ids the CSV format cannot carry.
fn validate_function(function: &str) -> LoadResult<()> {
    if function.is_empty() || function.contains(',') || function.contains('\n') {
        return Err(LoadError::InvalidFunction(function.to_owned()));
    }
    Ok(())
}

/// Overflow-checked `t + gap`.
fn advance(t: SimInstant, gap: SimDuration) -> LoadResult<SimInstant> {
    t.as_nanos()
        .checked_add(gap.as_nanos())
        .map(SimInstant::from_nanos)
        .ok_or(LoadError::Overflow)
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// Collects a fallible arrival stream into a schedule, sorting by
    /// time (stable for equal instants — stream order is kept).
    ///
    /// # Errors
    ///
    /// The first error the stream yields (for an [`ArrivalGen`] that
    /// leaves virtual time, [`LoadError::Overflow`]);
    /// [`LoadError::InvalidFunction`] for a function id the CSV format
    /// cannot carry.
    pub fn from_stream(
        stream: impl IntoIterator<Item = LoadResult<Arrival>>,
    ) -> LoadResult<Schedule> {
        let mut arrivals = stream
            .into_iter()
            .map(|a| a.and_then(|a| validate_function(&a.function).map(|()| a)))
            .collect::<LoadResult<Vec<Arrival>>>()?;
        arrivals.sort_by_key(|a| a.at);
        Ok(Schedule { arrivals })
    }

    /// Merges two schedules into one time-ordered trace. Equal-time
    /// arrivals keep `self` before `other` (stable), so merging is
    /// deterministic.
    #[must_use]
    pub fn merge(self, other: Schedule) -> Schedule {
        let mut arrivals = self.arrivals;
        arrivals.extend(other.arrivals);
        // Stable sort: FIFO order within equal instants is preserved.
        arrivals.sort_by_key(|a| a.at);
        Schedule { arrivals }
    }

    /// The ordered arrivals.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Returns `true` if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Instant of the last arrival, if any.
    pub fn end(&self) -> Option<SimInstant> {
        self.arrivals.iter().map(|a| a.at).max()
    }

    /// Serialises the schedule as a CSV trace with [`write_csv_stream`].
    /// The format round-trips bit-exactly through [`Schedule::from_csv`].
    pub fn to_csv(&self) -> String {
        let mut out = Vec::new();
        write_csv_stream(&mut out, self.arrivals.iter().cloned().map(Ok))
            .expect("schedules hold only CSV-safe function ids");
        String::from_utf8(out).expect("CSV rows are UTF-8")
    }

    /// Parses a CSV trace with [`CsvArrivalStream`]. Rows may appear in
    /// any order — the result is sorted by time, stable for equal
    /// instants.
    ///
    /// # Errors
    ///
    /// As [`CsvArrivalStream`]: [`LoadError::Malformed`] with the
    /// 1-based line number of the first unparsable row;
    /// [`LoadError::InvalidFunction`] for function ids the format cannot
    /// carry.
    pub fn from_csv(text: &str) -> LoadResult<Schedule> {
        Schedule::from_stream(CsvArrivalStream::new(text.as_bytes()))
    }

    /// Replays the schedule into a platform, building each request with
    /// `make_request(index)` (index is the position in the schedule).
    ///
    /// # Errors
    ///
    /// [`LoadError::Submit`] on submission failure (unknown function).
    pub fn submit(
        &self,
        platform: &mut Platform,
        make_request: impl Fn(usize) -> Request,
    ) -> LoadResult<()> {
        for (i, a) in self.arrivals.iter().enumerate() {
            platform.submit(a.at, &a.function, make_request(i))?;
        }
        Ok(())
    }
}

/// How one [`ArrivalGen`] spaces its arrivals.
#[derive(Debug, Clone)]
enum GenKind {
    Constant {
        interval: SimDuration,
    },
    Burst,
    Poisson {
        mean_ms: f64,
        noise: Noise,
    },
    Pareto {
        scale_ms: f64,
        alpha: f64,
        noise: Noise,
    },
    Empirical {
        gaps_ms: Vec<f64>,
        noise: Noise,
    },
}

impl GenKind {
    /// The next inter-arrival gap. Constant intervals are used as-is
    /// (zero is rejected for more than one arrival), bursts never
    /// advance, and stochastic gaps floor at 1 ns so arrival times
    /// strictly increase.
    fn gap(&mut self) -> SimDuration {
        let ms = match self {
            GenKind::Constant { interval } => return *interval,
            GenKind::Burst => return SimDuration::ZERO,
            GenKind::Poisson { mean_ms, noise } => noise.exponential(*mean_ms),
            GenKind::Pareto {
                scale_ms,
                alpha,
                noise,
            } => {
                // uniform() is in [0, 1); mirror to (0, 1] so
                // u^(-1/alpha) stays finite.
                let u = 1.0 - noise.uniform();
                *scale_ms * u.powf(-1.0 / *alpha)
            }
            GenKind::Empirical { gaps_ms, noise } => {
                let idx = (noise.uniform() * gaps_ms.len() as f64) as usize;
                gaps_ms[idx.min(gaps_ms.len() - 1)]
            }
        };
        SimDuration::from_millis_f64(ms).max(SimDuration::from_nanos(1))
    }
}

/// A lazy, count-bounded arrival generator — the one source of the
/// constant, burst, Poisson, Pareto and empirical workload shapes. It
/// yields arrivals one at a time, so a million-invocation trace never
/// lives in memory; [`Schedule::from_stream`] collects it when a
/// materialised schedule is wanted. Arrival times are non-decreasing by
/// construction.
///
/// Virtual-time overflow is reported in-stream: the arrivals before the
/// overflow are yielded, then one `Err(LoadError::Overflow)`, then the
/// stream ends (so collecting the stream fails with that error).
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    function: String,
    remaining: usize,
    t: SimInstant,
    pending_err: Option<LoadError>,
    kind: GenKind,
}

impl ArrivalGen {
    fn new(function: &str, n: usize, start: SimInstant, kind: GenKind) -> LoadResult<ArrivalGen> {
        validate_function(function)?;
        Ok(ArrivalGen {
            function: function.to_owned(),
            remaining: n,
            t: start,
            pending_err: None,
            kind,
        })
    }

    /// `n` arrivals at a constant inter-arrival interval starting at
    /// `start`.
    ///
    /// # Errors
    ///
    /// [`LoadError::InvalidRate`] if `interval` is zero and `n > 1`
    /// (distinct arrivals could not advance);
    /// [`LoadError::InvalidFunction`] on a malformed function id.
    pub fn constant(
        function: &str,
        n: usize,
        start: SimInstant,
        interval: SimDuration,
    ) -> LoadResult<ArrivalGen> {
        if interval.is_zero() && n > 1 {
            return Err(LoadError::InvalidRate);
        }
        ArrivalGen::new(function, n, start, GenKind::Constant { interval })
    }

    /// `n` simultaneous arrivals at `at` (a burst — the demand surge that
    /// makes cold-start latency visible).
    ///
    /// # Errors
    ///
    /// [`LoadError::InvalidFunction`] on a malformed function id.
    pub fn burst(function: &str, n: usize, at: SimInstant) -> LoadResult<ArrivalGen> {
        ArrivalGen::new(function, n, at, GenKind::Burst)
    }

    /// `n` arrivals with exponentially distributed inter-arrival times of
    /// the given mean (an open-loop Poisson process), deterministic in
    /// `seed`.
    ///
    /// # Errors
    ///
    /// [`LoadError::InvalidRate`] if `mean_interval` is zero;
    /// [`LoadError::InvalidFunction`] on a malformed function id.
    pub fn poisson(
        function: &str,
        n: usize,
        start: SimInstant,
        mean_interval: SimDuration,
        seed: u64,
    ) -> LoadResult<ArrivalGen> {
        if mean_interval.is_zero() {
            return Err(LoadError::InvalidRate);
        }
        ArrivalGen::new(
            function,
            n,
            start,
            GenKind::Poisson {
                mean_ms: mean_interval.as_millis_f64(),
                noise: Noise::new(seed, 0.0),
            },
        )
    }

    /// `n` arrivals with Pareto (heavy-tailed) inter-arrival gaps:
    /// `gap = scale_ms * u^(-1/alpha)` for uniform `u`, deterministic in
    /// `seed`. Small `alpha` (e.g. 1.1–1.5) produces the bursty,
    /// long-gapped arrival processes production FaaS traces show; the
    /// minimum gap is `scale_ms`.
    ///
    /// # Errors
    ///
    /// [`LoadError::InvalidShape`] unless `scale_ms > 0` and `alpha > 0`
    /// (both finite); [`LoadError::InvalidFunction`] on a malformed
    /// function id.
    pub fn pareto(
        function: &str,
        n: usize,
        start: SimInstant,
        scale_ms: f64,
        alpha: f64,
        seed: u64,
    ) -> LoadResult<ArrivalGen> {
        if !(scale_ms.is_finite() && scale_ms > 0.0 && alpha.is_finite() && alpha > 0.0) {
            return Err(LoadError::InvalidShape);
        }
        ArrivalGen::new(
            function,
            n,
            start,
            GenKind::Pareto {
                scale_ms,
                alpha,
                noise: Noise::new(seed, 0.0),
            },
        )
    }

    /// `n` arrivals whose gaps are resampled uniformly (with
    /// replacement) from an observed set of inter-arrival gaps — the
    /// empirical-bootstrap workload generator. Feeding it gaps measured
    /// from a production trace reproduces that trace's marginal
    /// inter-arrival distribution, heavy tail included.
    ///
    /// # Errors
    ///
    /// [`LoadError::InvalidShape`] if `observed_gaps_ms` is empty or
    /// contains a non-finite or negative gap;
    /// [`LoadError::InvalidFunction`] on a malformed function id.
    pub fn empirical(
        function: &str,
        n: usize,
        start: SimInstant,
        observed_gaps_ms: &[f64],
        seed: u64,
    ) -> LoadResult<ArrivalGen> {
        if observed_gaps_ms.is_empty()
            || observed_gaps_ms.iter().any(|g| !g.is_finite() || *g < 0.0)
        {
            return Err(LoadError::InvalidShape);
        }
        ArrivalGen::new(
            function,
            n,
            start,
            GenKind::Empirical {
                gaps_ms: observed_gaps_ms.to_vec(),
                noise: Noise::new(seed, 0.0),
            },
        )
    }

    /// Arrivals not yet yielded.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl Iterator for ArrivalGen {
    type Item = LoadResult<Arrival>;

    fn next(&mut self) -> Option<LoadResult<Arrival>> {
        if let Some(e) = self.pending_err.take() {
            self.remaining = 0;
            return Some(Err(e));
        }
        if self.remaining == 0 {
            return None;
        }
        let out = Arrival {
            at: self.t,
            function: self.function.clone(),
        };
        self.remaining -= 1;
        if self.remaining > 0 {
            match advance(self.t, self.kind.gap()) {
                Ok(t) => self.t = t,
                Err(e) => self.pending_err = Some(e),
            }
        }
        Some(Ok(out))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// An open-loop Poisson arrival process: rate-and-horizon bounded
/// instead of count bounded. This is the load shape a streaming gateway
/// is judged under — arrivals keep coming at the offered rate whether
/// or not earlier invocations completed, so admission queues and sheds
/// are properties of the *offered* load, not of the completion loop.
///
/// The first arrival lands exactly at `start` (as with
/// [`ArrivalGen::poisson`], whose gap formula it shares); subsequent
/// gaps are exponentially distributed with mean `1000 / rate_per_sec`
/// ms, floored at 1 ns for strict monotonicity. Arrivals stop at
/// `start + horizon` (exclusive). Same seed ⇒ byte-identical sequence.
/// Unlike [`ArrivalGen`] there is no in-band overflow: the constructor
/// proves `start + horizon` fits in virtual time, so a gap that
/// overflows necessarily lands past the horizon and simply ends the
/// stream.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    function: String,
    t: SimInstant,
    end: SimInstant,
    gaps: GenKind,
}

impl PoissonProcess {
    /// Creates a process emitting `rate_per_sec` arrivals per virtual
    /// second over `[start, start + horizon)`.
    ///
    /// # Errors
    ///
    /// [`LoadError::InvalidRate`] if the rate is non-positive or
    /// non-finite; [`LoadError::InvalidFunction`] on a bad function id;
    /// [`LoadError::Overflow`] if the horizon end overflows virtual
    /// time.
    pub fn new(
        function: &str,
        rate_per_sec: f64,
        start: SimInstant,
        horizon: SimDuration,
        seed: u64,
    ) -> LoadResult<PoissonProcess> {
        validate_function(function)?;
        if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
            return Err(LoadError::InvalidRate);
        }
        let end = advance(start, horizon)?;
        Ok(PoissonProcess {
            function: function.to_owned(),
            t: start,
            end,
            gaps: GenKind::Poisson {
                mean_ms: 1_000.0 / rate_per_sec,
                noise: Noise::new(seed, 0.0),
            },
        })
    }

    /// The exclusive end of the emission window.
    pub fn horizon_end(&self) -> SimInstant {
        self.end
    }
}

impl Iterator for PoissonProcess {
    type Item = LoadResult<Arrival>;

    fn next(&mut self) -> Option<LoadResult<Arrival>> {
        if self.t >= self.end {
            return None;
        }
        let out = Arrival {
            at: self.t,
            function: self.function.clone(),
        };
        self.t = advance(self.t, self.gaps.gap()).unwrap_or(self.end);
        Some(Ok(out))
    }
}

/// Head slot of one merge source.
#[derive(Debug)]
enum Head {
    Unprimed,
    Ready(Arrival),
    Done,
}

/// Deterministic k-way merge of sorted arrival streams. Equal-time
/// arrivals drain in source order — exactly the order nested
/// [`Schedule::merge`] calls produce when the sources are given in the
/// same order — so a streamed multi-tenant trace is byte-identical to
/// the merged schedule. The merge is O(k) per arrival (k = tenant
/// streams), which is flat in trace length.
#[derive(Debug)]
pub struct MergedArrivals<I> {
    sources: Vec<I>,
    heads: Vec<Head>,
    failed: bool,
}

impl<I: Iterator<Item = LoadResult<Arrival>>> MergedArrivals<I> {
    /// Merges `sources` (each individually time-sorted).
    pub fn new(sources: Vec<I>) -> MergedArrivals<I> {
        let heads = sources.iter().map(|_| Head::Unprimed).collect();
        MergedArrivals {
            sources,
            heads,
            failed: false,
        }
    }
}

impl<I: Iterator<Item = LoadResult<Arrival>>> Iterator for MergedArrivals<I> {
    type Item = LoadResult<Arrival>;

    fn next(&mut self) -> Option<LoadResult<Arrival>> {
        if self.failed {
            return None;
        }
        for (head, source) in self.heads.iter_mut().zip(&mut self.sources) {
            if matches!(head, Head::Unprimed) {
                match source.next() {
                    Some(Ok(a)) => *head = Head::Ready(a),
                    Some(Err(e)) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                    None => *head = Head::Done,
                }
            }
        }
        // Earliest time wins; the first source wins ties, matching the
        // left-biased stable sort of `Schedule::merge`.
        let mut best: Option<(usize, SimInstant)> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Head::Ready(a) = head {
                if best.is_none_or(|(_, at)| a.at < at) {
                    best = Some((i, a.at));
                }
            }
        }
        let (i, _) = best?;
        match std::mem::replace(&mut self.heads[i], Head::Unprimed) {
            Head::Ready(a) => Some(Ok(a)),
            _ => unreachable!("best index always holds a ready head"),
        }
    }
}

/// Writes arrivals to `out` as a CSV trace — a `t_ns,function` header
/// followed by one row per arrival, nanosecond timestamps — without
/// materializing the trace, returning the number of rows written. Wrap
/// `out` in a `BufWriter` for file targets — rows are written one at a
/// time. [`CsvArrivalStream`] reads the format back bit-exactly.
///
/// # Errors
///
/// [`LoadError::Io`] on write failure; [`LoadError::InvalidFunction`]
/// if a streamed function id cannot be carried by the format; any error
/// the stream itself yields.
pub fn write_csv_stream<W: std::io::Write>(
    mut out: W,
    stream: impl IntoIterator<Item = LoadResult<Arrival>>,
) -> LoadResult<u64> {
    let io_err = |e: std::io::Error| LoadError::Io(e.kind());
    out.write_all(b"t_ns,function\n").map_err(io_err)?;
    let mut rows = 0u64;
    for arrival in stream {
        let a = arrival?;
        validate_function(&a.function)?;
        writeln!(out, "{},{}", a.at.as_nanos(), a.function).map_err(io_err)?;
        rows += 1;
    }
    out.flush().map_err(io_err)?;
    Ok(rows)
}

/// Lazily parses a CSV trace from a buffered reader, yielding arrivals
/// in file order one row at a time (the chunking is the reader's
/// buffer). The header row, blank lines and `\r\n` endings are optional
/// and ignored. The stream does **not** sort: [`Schedule::from_stream`]
/// sorts what it collects, and traces written by [`write_csv_stream`]
/// from a sorted source are sorted by construction.
///
/// # Errors
///
/// Yields one error and then ends: [`LoadError::Malformed`] with the
/// 1-based line number of an unparsable row,
/// [`LoadError::InvalidFunction`] for a function id the format cannot
/// carry, or [`LoadError::Io`] on a read failure.
#[derive(Debug)]
pub struct CsvArrivalStream<R> {
    reader: R,
    line: String,
    lineno: usize,
    failed: bool,
}

impl<R: std::io::BufRead> CsvArrivalStream<R> {
    /// Wraps a buffered reader positioned at the start of a trace.
    pub fn new(reader: R) -> CsvArrivalStream<R> {
        CsvArrivalStream {
            reader,
            line: String::new(),
            lineno: 0,
            failed: false,
        }
    }
}

impl<R: std::io::BufRead> Iterator for CsvArrivalStream<R> {
    type Item = LoadResult<Arrival>;

    fn next(&mut self) -> Option<LoadResult<Arrival>> {
        if self.failed {
            return None;
        }
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(LoadError::Io(e.kind())));
                }
            }
            self.lineno += 1;
            let line = self.line.trim_end_matches('\n').trim_end_matches('\r');
            if line.is_empty() || (self.lineno == 1 && line == "t_ns,function") {
                continue;
            }
            let parsed = (|| {
                let (t, function) = line
                    .split_once(',')
                    .ok_or(LoadError::Malformed(self.lineno))?;
                let nanos: u64 = t
                    .trim()
                    .parse()
                    .map_err(|_| LoadError::Malformed(self.lineno))?;
                validate_function(function)?;
                Ok(Arrival {
                    at: SimInstant::from_nanos(nanos),
                    function: function.to_owned(),
                })
            })();
            if parsed.is_err() {
                self.failed = true;
            }
            return Some(parsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, Template};
    use crate::platform::PlatformConfig;
    use crate::registry::Registry;
    use prebake_functions::FunctionSpec;

    fn platform() -> Platform {
        let registry = Registry::new();
        registry.push(
            FunctionBuilder
                .build(FunctionSpec::noop(), &Template::java11())
                .unwrap(),
        );
        let mut p = Platform::new(PlatformConfig::default(), registry);
        p.deploy_function("noop").unwrap();
        p
    }

    /// Collects a generator into a schedule, panicking on any error.
    fn collect(gen: LoadResult<ArrivalGen>) -> Schedule {
        Schedule::from_stream(gen.unwrap()).unwrap()
    }

    #[test]
    fn constant_rate_submits_all() {
        let mut p = platform();
        collect(ArrivalGen::constant(
            "noop",
            20,
            SimInstant::EPOCH,
            SimDuration::from_millis(50),
        ))
        .submit(&mut p, |_| Request::empty())
        .unwrap();
        p.run().unwrap();
        assert_eq!(p.completed().len(), 20);
        // Sequential constant-rate load after warm-up is all warm.
        let warm = p.completed().iter().filter(|r| !r.cold).count();
        assert!(warm >= 18, "most requests warm, got {warm}");
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let run = || {
            let mut p = platform();
            collect(ArrivalGen::poisson(
                "noop",
                30,
                SimInstant::EPOCH,
                SimDuration::from_millis(20),
                7,
            ))
            .submit(&mut p, |_| Request::empty())
            .unwrap();
            p.run().unwrap();
            p.completed()
                .iter()
                .map(|r| r.completed.as_nanos())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn burst_fans_out_replicas() {
        let mut p = platform();
        collect(ArrivalGen::burst("noop", 6, SimInstant::EPOCH))
            .submit(&mut p, |_| Request::empty())
            .unwrap();
        p.run().unwrap();
        assert_eq!(p.completed().len(), 6);
        let started = p.metrics().get("noop").unwrap().replicas_started.get();
        assert!(started >= 3, "burst should fan out, started {started}");
    }

    #[test]
    fn zero_rates_are_typed_errors() {
        assert_eq!(
            ArrivalGen::constant("f", 2, SimInstant::EPOCH, SimDuration::ZERO).unwrap_err(),
            LoadError::InvalidRate
        );
        // A single arrival needs no progress, so a zero interval is fine.
        assert_eq!(
            collect(ArrivalGen::constant(
                "f",
                1,
                SimInstant::EPOCH,
                SimDuration::ZERO
            ))
            .len(),
            1
        );
        assert_eq!(
            ArrivalGen::poisson("f", 5, SimInstant::EPOCH, SimDuration::ZERO, 1).unwrap_err(),
            LoadError::InvalidRate
        );
        // Negative float intervals saturate to zero and are rejected too.
        assert_eq!(
            ArrivalGen::poisson(
                "f",
                5,
                SimInstant::EPOCH,
                SimDuration::from_millis_f64(-3.0),
                1
            )
            .unwrap_err(),
            LoadError::InvalidRate
        );
    }

    #[test]
    fn shape_parameters_are_validated() {
        for (scale, alpha) in [(0.0, 1.5), (-1.0, 1.5), (10.0, 0.0), (10.0, -2.0)] {
            assert_eq!(
                ArrivalGen::pareto("f", 3, SimInstant::EPOCH, scale, alpha, 1).unwrap_err(),
                LoadError::InvalidShape
            );
        }
        assert_eq!(
            ArrivalGen::pareto("f", 3, SimInstant::EPOCH, f64::NAN, 1.5, 1).unwrap_err(),
            LoadError::InvalidShape
        );
        assert_eq!(
            ArrivalGen::empirical("f", 3, SimInstant::EPOCH, &[], 1).unwrap_err(),
            LoadError::InvalidShape
        );
        assert_eq!(
            ArrivalGen::empirical("f", 3, SimInstant::EPOCH, &[5.0, f64::INFINITY], 1).unwrap_err(),
            LoadError::InvalidShape
        );
        assert_eq!(
            ArrivalGen::empirical("f", 3, SimInstant::EPOCH, &[5.0, -1.0], 1).unwrap_err(),
            LoadError::InvalidShape
        );
    }

    #[test]
    fn tick_overflow_is_a_typed_error() {
        let near_end = SimInstant::from_nanos(u64::MAX - 10);
        let gens = [
            ArrivalGen::constant("f", 3, near_end, SimDuration::from_secs(1)),
            ArrivalGen::poisson("f", 50, near_end, SimDuration::from_secs(1), 1),
            ArrivalGen::pareto("f", 50, near_end, 1000.0, 1.1, 1),
        ];
        for gen in gens {
            assert_eq!(
                Schedule::from_stream(gen.unwrap()).unwrap_err(),
                LoadError::Overflow
            );
        }
    }

    #[test]
    fn function_ids_are_validated() {
        for bad in ["", "a,b", "a\nb"] {
            assert_eq!(
                ArrivalGen::burst(bad, 1, SimInstant::EPOCH).unwrap_err(),
                LoadError::InvalidFunction(bad.to_owned())
            );
        }
        // A hand-built stream is checked when collected.
        let bad = Arrival {
            at: SimInstant::EPOCH,
            function: "a,b".to_owned(),
        };
        assert_eq!(
            Schedule::from_stream([Ok(bad)]).unwrap_err(),
            LoadError::InvalidFunction("a,b".to_owned())
        );
    }

    #[test]
    fn error_display_and_source() {
        let e = LoadError::Submit(Errno::Enoent);
        assert!(e.to_string().contains("no such file"));
        assert!(LoadError::Malformed(3).to_string().contains("line 3"));
        assert!(LoadError::Unsorted(4).to_string().contains("arrival 4"));
        let from: LoadError = Errno::Einval.into();
        assert_eq!(from, LoadError::Submit(Errno::Einval));
    }

    #[test]
    fn pareto_gaps_are_heavy_tailed() {
        let gen = ArrivalGen::pareto("f", 2000, SimInstant::EPOCH, 10.0, 1.2, 9).unwrap();
        assert_eq!(gen.remaining(), 2000);
        assert_eq!(gen.size_hint(), (2000, Some(2000)));
        let s = Schedule::from_stream(gen).unwrap();
        let gaps: Vec<f64> = s
            .arrivals()
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_millis_f64())
            .collect();
        let min = gaps.iter().cloned().fold(f64::MAX, f64::min);
        let max = gaps.iter().cloned().fold(0.0f64, f64::max);
        assert!(min >= 10.0, "Pareto minimum gap is the scale, got {min}");
        assert!(
            max > 200.0,
            "alpha 1.2 should produce occasional huge gaps, max {max}"
        );
    }

    #[test]
    fn empirical_resamples_only_observed_gaps() {
        let observed = [5.0, 50.0, 500.0];
        let s = collect(ArrivalGen::empirical(
            "f",
            400,
            SimInstant::EPOCH,
            &observed,
            3,
        ));
        for w in s.arrivals().windows(2) {
            let gap = (w[1].at - w[0].at).as_millis_f64();
            assert!(
                observed.iter().any(|o| (gap - o).abs() < 1e-6),
                "gap {gap} not in the observed set"
            );
        }
    }

    #[test]
    fn merge_orders_by_time_stably() {
        let a = collect(ArrivalGen::constant(
            "a",
            3,
            SimInstant::EPOCH,
            SimDuration::from_millis(10),
        ));
        let b = collect(ArrivalGen::constant(
            "b",
            3,
            SimInstant::EPOCH,
            SimDuration::from_millis(10),
        ));
        let merged = a.merge(b);
        assert_eq!(merged.len(), 6);
        let order: Vec<&str> = merged
            .arrivals()
            .iter()
            .map(|x| x.function.as_str())
            .collect();
        assert_eq!(order, ["a", "b", "a", "b", "a", "b"]);
        assert!(merged.arrivals().windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(
            merged.end(),
            Some(SimInstant::EPOCH + SimDuration::from_millis(20))
        );
    }

    #[test]
    fn csv_roundtrip_is_exact() {
        let s = collect(ArrivalGen::poisson(
            "noop",
            25,
            SimInstant::EPOCH,
            SimDuration::from_millis(7),
            11,
        ))
        .merge(collect(ArrivalGen::burst(
            "fn-b",
            3,
            SimInstant::from_nanos(12345),
        )));
        let csv = s.to_csv();
        assert!(csv.starts_with("t_ns,function\n"));
        let back = Schedule::from_csv(&csv).unwrap();
        assert_eq!(s, back);
        // Headerless input parses too.
        let headerless: String = csv.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert_eq!(Schedule::from_csv(&headerless).unwrap(), s);
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        assert_eq!(
            Schedule::from_csv("t_ns,function\nnot-a-number,f\n").unwrap_err(),
            LoadError::Malformed(2)
        );
        assert_eq!(
            Schedule::from_csv("12 no comma here\n").unwrap_err(),
            LoadError::Malformed(1)
        );
        assert!(Schedule::from_csv("").unwrap().is_empty());
    }

    #[test]
    fn trace_replay_drives_the_platform() {
        let csv = "t_ns,function\n0,noop\n1000000000,noop\n2000000000,noop\n";
        let schedule = Schedule::from_csv(csv).unwrap();
        let mut p = platform();
        schedule.submit(&mut p, |_| Request::empty()).unwrap();
        p.run().unwrap();
        assert_eq!(p.completed().len(), 3);
        // One-second spacing keeps everything on one warm replica.
        assert_eq!(p.completed().iter().filter(|r| r.cold).count(), 1);
    }

    #[test]
    fn submit_unknown_function_is_typed() {
        let schedule = collect(ArrivalGen::burst("ghost", 1, SimInstant::EPOCH));
        let mut p = platform();
        assert_eq!(
            schedule.submit(&mut p, |_| Request::empty()).unwrap_err(),
            LoadError::Submit(Errno::Enoent)
        );
    }

    #[test]
    fn arrival_gen_streams_overflow_after_valid_prefix() {
        let near_end = SimInstant::from_nanos(u64::MAX - 5);
        let mut gen = ArrivalGen::constant("f", 3, near_end, SimDuration::from_nanos(10)).unwrap();
        assert_eq!(gen.next().unwrap().unwrap().at, near_end);
        assert_eq!(gen.next().unwrap().unwrap_err(), LoadError::Overflow);
        assert!(gen.next().is_none(), "stream ends after the error");
    }

    #[test]
    fn merged_arrivals_match_nested_schedule_merge() {
        let start = SimInstant::EPOCH;
        let t0 = || ArrivalGen::poisson("t0", 50, start, SimDuration::from_millis(2), 1);
        let t1 = || ArrivalGen::constant("t1", 50, start, SimDuration::from_millis(2));
        let t2 = || ArrivalGen::burst("t2", 5, start + SimDuration::from_millis(10));
        let nested = collect(t0()).merge(collect(t1())).merge(collect(t2()));
        let lazy = MergedArrivals::new(vec![t0().unwrap(), t1().unwrap(), t2().unwrap()]);
        let streamed: Vec<Arrival> = lazy.map(|a| a.unwrap()).collect();
        assert_eq!(streamed, nested.arrivals());
    }

    #[test]
    fn merged_arrivals_stop_at_first_error() {
        let near_end = SimInstant::from_nanos(u64::MAX - 5);
        let merged = MergedArrivals::new(vec![
            ArrivalGen::constant("bad", 3, near_end, SimDuration::from_nanos(10)).unwrap(),
            ArrivalGen::constant("ok", 3, SimInstant::EPOCH, SimDuration::from_nanos(1)).unwrap(),
        ]);
        let items: Vec<LoadResult<Arrival>> = merged.collect();
        assert!(items.iter().filter(|i| i.is_err()).count() == 1);
        assert!(items.last().unwrap().is_err(), "error terminates the merge");
    }

    #[test]
    fn csv_stream_writes_and_reads_the_schedule_format() {
        let start = SimInstant::EPOCH;
        let t0 = || ArrivalGen::poisson("t0", 40, start, SimDuration::from_millis(2), 3);
        let t1 = || ArrivalGen::constant("t1", 40, start, SimDuration::from_millis(3));
        let schedule = collect(t0()).merge(collect(t1()));

        // Streaming the merged generators writes the schedule's CSV.
        let merged = MergedArrivals::new(vec![t0().unwrap(), t1().unwrap()]);
        let mut buf = Vec::new();
        let rows = write_csv_stream(&mut buf, merged).unwrap();
        assert_eq!(rows, 80);
        assert_eq!(String::from_utf8(buf.clone()).unwrap(), schedule.to_csv());

        // The reader yields the same arrivals in file order.
        let back: Vec<Arrival> = CsvArrivalStream::new(&buf[..])
            .map(|a| a.unwrap())
            .collect();
        assert_eq!(back, schedule.arrivals());
    }

    #[test]
    fn csv_stream_rejects_malformed_rows_with_line_numbers() {
        let items: Vec<LoadResult<Arrival>> =
            CsvArrivalStream::new("t_ns,function\nnot-a-number,f\n".as_bytes()).collect();
        assert_eq!(items, vec![Err(LoadError::Malformed(2))]);
        let items: Vec<LoadResult<Arrival>> =
            CsvArrivalStream::new("12 no comma here\n".as_bytes()).collect();
        assert_eq!(items, vec![Err(LoadError::Malformed(1))]);
        assert!(CsvArrivalStream::new("".as_bytes()).next().is_none());
        // Blank lines and a CRLF header are skipped.
        let back: Vec<Arrival> = CsvArrivalStream::new("t_ns,function\r\n\n7,f\r\n".as_bytes())
            .map(|a| a.unwrap())
            .collect();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].at, SimInstant::from_nanos(7));
    }
}
