//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! A [`Recorder`] keeps every span in memory; the traced run writes
//! them once at the end (see [`write_spans`]). With tracing off the
//! recorder only runs the timed closure, so the untraced run that
//! produces the end-to-end metrics pays nothing for it.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use prebake_sim::trace::TraceSpan;

/// One recorded wall-clock interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one (`None` for roots).
    pub parent: Option<u64>,
    /// Layer call (`"core.prebake_start"`, …).
    pub name: &'static str,
    /// Identifier shared by every span of one request or trial.
    pub request: u64,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An open span; close it with [`Recorder::close`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Instant,
}

impl Open {
    /// The id children should name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span store for one thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose span ids start at `id_base` (give each thread a
    /// disjoint range) and whose times count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant, id_base: u64) -> Recorder {
        Recorder {
            enabled,
            epoch,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        self.next_id += 1;
        Open {
            id: self.next_id,
            parent,
            name,
            request,
            start: Instant::now(),
        }
    }

    /// Closes a span, keeping it when tracing is on; returns its
    /// duration in seconds either way.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = (end - open.start).as_secs_f64();
        if self.enabled {
            let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                request: open.request,
                start_ns: ns(open.start),
                end_ns: ns(end),
            });
        }
        secs
    }

    /// Runs `f` inside a span when tracing is on; runs it bare when off.
    /// Returns `f`'s result and the span's duration (0 when off).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        if !self.enabled {
            return (f(), 0.0);
        }
        let open = self.open(name, parent, request);
        let out = f();
        let secs = self.close(open);
        (out, secs)
    }

    /// Takes the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Share of the summed duration of the `root` spans that their direct
/// children leave uncovered, in percent.
pub fn uncovered_pct(spans: &[Span], root: &str) -> f64 {
    let roots: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.id)
        .collect();
    let total: f64 = spans
        .iter()
        .filter(|s| roots.contains(&s.id))
        .map(Span::secs)
        .sum();
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
        .map(Span::secs)
        .sum();
    if total > 0.0 {
        100.0 * (total - covered) / total
    } else {
        0.0
    }
}

/// Writes the run's wall spans and the program's own virtual-time span
/// trees (ids are unique within a tree; `request` names the tree) to
/// `path` as one JSON document, creating the parent directory.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_spans(
    path: &str,
    wall: &[Span],
    virtual_trees: &[(u64, Vec<TraceSpan>)],
) -> std::io::Result<()> {
    let mut out = String::from("{\"wall_spans\":[");
    for (i, s) in wall.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.request, s.start_ns, s.end_ns
        );
    }
    out.push_str("],\"virtual_spans\":[");
    let mut first = true;
    for (request, tree) in virtual_trees {
        for s in tree {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s
                .parent
                .map_or("null".to_owned(), |p| p.as_u64().to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{request},\"pid\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id.as_u64(),
                parent,
                s.name,
                s.pid.0,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
    }
    out.push_str("]}\n");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(out.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn uncovered_share_counts_only_direct_children() {
        let spans = vec![
            span(1, None, "trial", 0, 1000),
            span(2, Some(1), "a", 0, 600),
            span(3, Some(2), "a.inner", 0, 500),
            span(4, Some(1), "b", 600, 900),
        ];
        assert!((uncovered_pct(&spans, "trial") - 10.0).abs() < 1e-9);
        assert_eq!(uncovered_pct(&spans, "missing"), 0.0);
        assert_eq!(durations(&spans, "a"), vec![600e-9]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false, Instant::now(), 0);
        let (v, secs) = r.time("x", None, 0, || 7);
        assert_eq!((v, secs), (7, 0.0));
        assert!(r.into_spans().is_empty());
    }
}
