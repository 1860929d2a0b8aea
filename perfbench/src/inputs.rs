//! Seeded input generators. Every input the program sees comes from
//! here (or from the checked-in presets named in [`HOT_PRESETS`]); the
//! same seed gives the same bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Points per shard in the sweep workloads, and the product of the
/// sweep-grid's trailing axes, so each shard is one value of its first
/// axis (the traced run evaluates shard by shard through that axis).
pub const SHARD_SIZE: usize = 2000;

/// One RNG per input stream, so adding draws to one stream never shifts
/// another.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn scale(rng: &mut StdRng, base: f64) -> f64 {
    base * rng.gen_range(0.5..2.0)
}

fn list(values: impl IntoIterator<Item = String>) -> String {
    values.into_iter().collect::<Vec<_>>().join(",")
}

/// The seeded gd job fields shared by every generated spec: a job in the
/// neighbourhood of the paper's Fig 2 MNIST network.
fn gd_job(rng: &mut StdRng) -> String {
    format!(
        r#""kind":"gd","params":{},"cost_per_example":{},"batch":{},"bits":64,"flops":{}"#,
        scale(rng, 12e6).round(),
        scale(rng, 72e6).round(),
        scale(rng, 60000.0).round(),
        scale(rng, 84.48e9).round(),
    )
}

/// `sweep-grid`: an exhaustive deterministic gd grid shaped like
/// `scenarios/adaptive-frontier-grid.json` without `adaptive` —
/// `max_n` × `latency` × `bandwidth` = 25 × 400 × 5 = 50 000 points.
/// `tiny` keeps the shape at 25 × 4 × 5 = 500 points.
pub fn sweep_grid(seed: u64, tiny: bool) -> String {
    let mut rng = rng(seed, 1);
    let job = gd_job(&mut rng);
    let latencies = if tiny { 4 } else { SHARD_SIZE / 5 };
    let step = rng.gen_range(2e-6..8e-6);
    let latency = list((0..latencies).map(|i| format!("{}", i as f64 * step)));
    let bandwidth =
        list((0..5).map(|_| format!("{}", (rng.gen_range(1.0f64..40.0) * 1e9).round())));
    let max_n = list((2..=26).map(|n: u32| n.to_string()));
    format!(
        r#"{{"name":"sweep-grid","workload":{{{job}}},"sweep":[{{"param":"max_n","values":[{max_n}]}},{{"param":"latency","values":[{latency}]}},{{"param":"bandwidth","values":[{bandwidth}]}}]}}"#
    )
}

/// `plan-largen` spec `index`: a 10⁶-worker planning query under a
/// seeded straggler tail — lognormal for three specs in four,
/// exponential for the fourth, so the median stays inside the lognormal
/// cost mode — over a 2 collectives × 2 `backup_k` grid.
pub fn plan_spec(seed: u64, index: u64, tiny: bool) -> String {
    let mut rng = rng(seed, 2 + (index << 8));
    let job = gd_job(&mut rng);
    let straggler = if index % 4 == 3 {
        format!(r#"{{"kind":"exp","mean":{}}}"#, rng.gen_range(0.01..0.2))
    } else {
        format!(
            r#"{{"kind":"lognormal","mu":{},"sigma":{}}}"#,
            rng.gen_range(-3.0..-1.0),
            rng.gen_range(0.3..1.2)
        )
    };
    let log_points = if tiny { 20 } else { 200 };
    format!(
        r#"{{"name":"plan-largen-{index}","workload":{{{job},"max_n":1000000,"log_points":{log_points},"straggler":{straggler},"plan":{{"iterations":{},"price":{}}}}},"sweep":[{{"param":"comm","values":["tree","ring"]}},{{"param":"backup_k","values":[0,{}]}}]}}"#,
        rng.gen_range(100..10_000u64),
        rng.gen_range(0.5..5.0),
        rng.gen_range(1..4u64),
    )
}

/// A cold `/sweep` body: a small seeded gd grid (2 collectives × 2
/// latencies) under a name no other request uses, so it always misses
/// the daemon's response cache.
pub fn cold_body(seed: u64, client: u64, index: u64) -> String {
    let mut rng = rng(seed, 3 + (client << 8) + (index << 16));
    let job = gd_job(&mut rng);
    let max_n = rng.gen_range(16..=48u64);
    let (l1, l2) = (rng.gen_range(0.0..1e-4), rng.gen_range(1e-4..1e-3));
    format!(
        r#"{{"name":"cold-{seed}-{client}-{index}","workload":{{{job},"max_n":{max_n}}},"sweep":[{{"param":"comm","values":["tree","ring"]}},{{"param":"latency","values":[{l1},{l2}]}}]}}"#
    )
}

/// The checked-in scenarios the serve workloads repeat. Pinned by name
/// so a new preset does not change the benchmark; the one left out,
/// `adaptive-frontier-grid`, answers with 1.1 MB — twenty times the next
/// largest — and would turn the hot path into a loopback copy test.
pub const HOT_PRESETS: [&str; 8] = [
    "ext-hierarchical-comm",
    "ext-stragglers",
    "fig1",
    "fig2",
    "fig3-weak-jitter",
    "latency-grid",
    "rack-pod-grid",
    "straggler-mitigation-grid",
];

/// Reads the hot presets from `scenarios/` under the current directory.
pub fn hot_presets() -> Result<Vec<String>, String> {
    HOT_PRESETS
        .iter()
        .map(|name| {
            let path = format!("scenarios/{name}.json");
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
        })
        .collect()
}
