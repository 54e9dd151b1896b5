//! The committed baselines, full (`BENCH_*.json` at the repository root)
//! and `--quick` (`baselines/quick/`), each parse, are already in the
//! writer's layout (so rebuilding the same values rewrites the same
//! bytes), and diff clean against themselves.

use prebake_bench::diff::{diff, Tolerance, Verdict};
use prebake_bench::json;

#[test]
fn committed_baselines_round_trip_and_self_diff_clean() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for dir in [root.to_owned(), format!("{root}/baselines/quick")] {
        for name in [
            "fleet", "gateway", "obs", "parallel", "registry", "restore", "scale",
        ] {
            let path = format!("{dir}/BENCH_{name}.json");
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let v = json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(
                json::write(&v),
                text,
                "{path} is not in the writer's layout"
            );
            let report = diff(&v, &v, Tolerance::default());
            assert!(!report.deltas.is_empty(), "{path} has no metrics");
            assert!(report.deltas.iter().all(|d| d.verdict == Verdict::Stable));
            assert!(report.missing_in_new.is_empty() && report.missing_in_old.is_empty());
        }
    }
}
