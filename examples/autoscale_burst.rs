//! Autoscaling under bursty load: where cold starts actually hurt.
//!
//! The paper's motivation is the tail latency users see when the
//! platform scales up (or from zero) under a demand surge. This example
//! throws identical traffic — steady Poisson arrivals plus a burst after
//! an idle period long enough for scale-to-zero — at two deployments of
//! the Image Resizer, one vanilla and one prebaked, and compares the
//! latency tails and replica churn.
//!
//! Run with: `cargo run --release --example autoscale_burst`

use prebake_functions::FunctionSpec;
use prebake_platform::builder::{FunctionBuilder, Template};
use prebake_platform::loadgen::{ArrivalGen, Schedule};
use prebake_platform::platform::{Platform, PlatformConfig};
use prebake_platform::registry::Registry;
use prebake_runtime::http::Request;
use prebake_sim::time::{SimDuration, SimInstant};
use prebake_stats::summary::quantile;

fn run_scenario(template: &Template) -> (Vec<f64>, u64, u64) {
    let registry = Registry::new();
    registry.push(
        FunctionBuilder
            .build(FunctionSpec::image_resizer(), template)
            .expect("build image"),
    );
    let config = PlatformConfig {
        idle_timeout: SimDuration::from_secs(15),
        ..PlatformConfig::default()
    };
    let mut platform = Platform::new(config, registry);
    platform.deploy_function("image-resizer").expect("deploy");

    // Steady trickle for ~20s, then silence, then a 10-request burst at
    // t=60s — well past the idle GC, so the burst lands on zero replicas.
    ArrivalGen::poisson(
        "image-resizer",
        30,
        SimInstant::EPOCH,
        SimDuration::from_millis(700),
        11,
    )
    .and_then(Schedule::from_stream)
    .and_then(|s| s.submit(&mut platform, |_| Request::empty()))
    .expect("steady load");
    ArrivalGen::burst(
        "image-resizer",
        10,
        SimInstant::EPOCH + SimDuration::from_secs(60),
    )
    .and_then(Schedule::from_stream)
    .and_then(|s| s.submit(&mut platform, |_| Request::empty()))
    .expect("burst");
    platform.run().expect("run platform");

    let latencies: Vec<f64> = platform
        .completed()
        .iter()
        .map(|r| r.latency_ms())
        .collect();
    let metrics = platform.metrics().get("image-resizer").expect("metrics");
    (
        latencies,
        metrics.cold_starts.get(),
        metrics.replicas_started.get(),
    )
}

fn main() {
    println!("autoscale burst — Image Resizer, scale-to-zero platform\n");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>12} {:>9}",
        "variant", "p50", "p95", "p99", "cold starts", "replicas"
    );
    for (label, template) in [
        ("vanilla", Template::java11()),
        ("prebaked", Template::java11_criu()),
    ] {
        let (latencies, cold, started) = run_scenario(&template);
        println!(
            "{label:<10} {:>7.1}ms {:>7.1}ms {:>7.1}ms {:>12} {:>9}",
            quantile(&latencies, 0.50),
            quantile(&latencies, 0.95),
            quantile(&latencies, 0.99),
            cold,
            started
        );
    }
    println!(
        "\nthe burst after scale-to-zero forces cold starts in both deployments; \
         prebaking shrinks each one (~310ms -> ~90ms for this function), which is \
         exactly the tail the paper attacks."
    );
}
