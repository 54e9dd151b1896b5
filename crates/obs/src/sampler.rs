//! Deterministic tail-based span sampling.
//!
//! At fleet scale the tracer would retain a span tree per invocation —
//! hundreds of thousands of spans per run. Tail-based sampling decides
//! *after* a request completes (when its outcome is known): trees that
//! breached an SLO threshold or errored are always kept in full; the
//! rest are kept with a small seeded probability. The keep decision
//! hashes (seed, trace id) — no RNG state — so a given workload keeps
//! exactly the same trace ids on every run, machine-independently.

use prebake_sim::hash::{fnv1a, fnv1a_continue};
use prebake_sim::trace::TraceSpan;

/// Sampler shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Probability of keeping an uninteresting trace, in `[0, 1]`.
    pub keep_fraction: f64,
    /// Hash seed; different seeds keep different (but each
    /// deterministic) subsets.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            keep_fraction: 0.02,
            seed: 1,
        }
    }
}

/// The tail sampler. Stateless: every decision is a pure function of
/// (config, trace id, interesting-flag).
#[derive(Debug, Clone, Copy)]
pub struct TailSampler {
    config: SamplerConfig,
}

impl TailSampler {
    /// Creates a sampler.
    ///
    /// # Panics
    ///
    /// Panics if `keep_fraction` is outside `[0, 1]`.
    pub fn new(config: SamplerConfig) -> TailSampler {
        assert!(
            (0.0..=1.0).contains(&config.keep_fraction),
            "keep_fraction in [0,1]"
        );
        TailSampler { config }
    }

    /// The sampler's configuration.
    pub fn config(&self) -> SamplerConfig {
        self.config
    }

    /// Uniform-ish hash of a trace id into `[0, 1)` (seeded FNV-1a).
    pub fn hash01(&self, trace_id: u64) -> f64 {
        let h = fnv1a_continue(
            fnv1a(&self.config.seed.to_le_bytes()),
            &trace_id.to_le_bytes(),
        );
        // Top 53 bits -> exactly representable f64 in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The tail decision: interesting traces are always kept, the rest
    /// kept iff their hash lands under `keep_fraction`.
    pub fn keep(&self, trace_id: u64, interesting: bool) -> bool {
        interesting || self.hash01(trace_id) < self.config.keep_fraction
    }
}

/// Bookkeeping from a [`sample_trees`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Root trees kept.
    pub trees_kept: u64,
    /// Root trees dropped.
    pub trees_dropped: u64,
    /// Spans retained (all spans of kept trees).
    pub spans_kept: u64,
    /// Spans discarded with their dropped trees.
    pub spans_dropped: u64,
    /// Trees kept because the predicate marked them interesting.
    pub interesting_kept: u64,
}

/// Applies tail sampling to a flat span list: groups spans into root
/// trees (parents precede children, as the `Tracer` emits them), asks
/// `interesting` about each *root* span, and keeps or drops whole trees.
/// `trace_id_of` maps a root span to the trace id hashed for the keep
/// decision (e.g. a request id attribute).
pub fn sample_trees<I, T>(
    spans: Vec<TraceSpan>,
    sampler: &TailSampler,
    trace_id_of: T,
    interesting: I,
) -> (Vec<TraceSpan>, SampleStats)
where
    I: Fn(&TraceSpan) -> bool,
    T: Fn(&TraceSpan) -> u64,
{
    use std::collections::BTreeMap;
    // span id -> root span id (roots map to themselves).
    let mut root_of: BTreeMap<u64, u64> = BTreeMap::new();
    // root span id -> keep decision.
    let mut keep_root: BTreeMap<u64, bool> = BTreeMap::new();
    let mut stats = SampleStats::default();

    for s in &spans {
        let root = match s.parent {
            Some(parent) => *root_of.get(&parent.as_u64()).unwrap_or(&s.id.as_u64()),
            None => s.id.as_u64(),
        };
        root_of.insert(s.id.as_u64(), root);
        if s.parent.is_none() {
            let hot = interesting(s);
            let kept = sampler.keep(trace_id_of(s), hot);
            if kept {
                stats.trees_kept += 1;
                if hot {
                    stats.interesting_kept += 1;
                }
            } else {
                stats.trees_dropped += 1;
            }
            keep_root.insert(root, kept);
        }
    }

    let kept: Vec<TraceSpan> = spans
        .into_iter()
        .filter(|s| {
            let root = root_of[&s.id.as_u64()];
            let keep = *keep_root.get(&root).unwrap_or(&true);
            if keep {
                stats.spans_kept += 1;
            } else {
                stats.spans_dropped += 1;
            }
            keep
        })
        .collect();
    (kept, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebake_sim::proc::Pid;
    use prebake_sim::time::{SimDuration, SimInstant};
    use prebake_sim::trace::Tracer;

    #[test]
    fn hash_is_deterministic_and_roughly_uniform() {
        let s = TailSampler::new(SamplerConfig {
            keep_fraction: 0.1,
            seed: 7,
        });
        let mut kept = 0usize;
        for id in 0..10_000u64 {
            assert_eq!(s.hash01(id), s.hash01(id));
            let h = s.hash01(id);
            assert!((0.0..1.0).contains(&h));
            if s.keep(id, false) {
                kept += 1;
            }
        }
        // 10% +- 1.5% over 10k ids.
        assert!((850..=1150).contains(&kept), "kept {kept}");
        // A different seed keeps a different subset.
        let other = TailSampler::new(SamplerConfig {
            keep_fraction: 0.1,
            seed: 8,
        });
        assert!((0..1000u64).any(|id| s.keep(id, false) != other.keep(id, false)));
    }

    #[test]
    fn interesting_always_kept_even_at_zero_fraction() {
        let s = TailSampler::new(SamplerConfig {
            keep_fraction: 0.0,
            seed: 1,
        });
        assert!(s.keep(42, true));
        assert!(!s.keep(42, false));
    }

    /// Builds `n` two-span trees; roots carry an `id` attribute.
    fn trees(n: u64, slow_every: u64) -> Vec<TraceSpan> {
        let mut tracer = Tracer::new();
        tracer.set_enabled(true);
        let mut now = SimInstant::EPOCH;
        for i in 0..n {
            let root = tracer.begin("request", Pid(1), now);
            tracer.attr(root, "id", i.to_string());
            let child = tracer.begin("serve", Pid(1), now);
            now += SimDuration::from_millis(if i % slow_every == 0 { 500 } else { 1 });
            tracer.end(child, now);
            tracer.end(root, now);
        }
        tracer.take(now)
    }

    #[test]
    fn sample_trees_keeps_whole_interesting_trees() {
        let spans = trees(100, 10);
        let sampler = TailSampler::new(SamplerConfig {
            keep_fraction: 0.0,
            seed: 1,
        });
        let (kept, stats) = sample_trees(
            spans,
            &sampler,
            |root| {
                root.attrs
                    .iter()
                    .find(|(k, _)| *k == "id")
                    .and_then(|(_, v)| v.parse().ok())
                    .unwrap_or(0)
            },
            |root| root.duration().as_millis() >= 250,
        );
        // Exactly the 10 slow trees survive, each with both spans.
        assert_eq!(stats.trees_kept, 10);
        assert_eq!(stats.interesting_kept, 10);
        assert_eq!(stats.trees_dropped, 90);
        assert_eq!(stats.spans_kept, 20);
        assert_eq!(stats.spans_dropped, 180);
        assert_eq!(kept.len(), 20);
        // Trees stay intact: every kept child's parent is kept too.
        for s in &kept {
            if let Some(p) = s.parent {
                assert!(kept.iter().any(|q| q.id == p));
            }
        }
    }

    #[test]
    fn sample_trees_is_reproducible() {
        let sampler = TailSampler::new(SamplerConfig {
            keep_fraction: 0.3,
            seed: 5,
        });
        let run = || {
            sample_trees(
                trees(200, 17),
                &sampler,
                |root| {
                    root.attrs
                        .iter()
                        .find(|(k, _)| *k == "id")
                        .and_then(|(_, v)| v.parse().ok())
                        .unwrap_or(0)
                },
                |_| false,
            )
            .1
        };
        assert_eq!(run(), run());
        let stats = run();
        assert_eq!(stats.trees_kept + stats.trees_dropped, 200);
        assert!(stats.trees_kept > 30 && stats.trees_kept < 90);
    }
}
