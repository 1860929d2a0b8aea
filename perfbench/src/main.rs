//! `perfbench` — the repository's benchmark, one command for every
//! workload listed in `BENCHMARK.json`:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Run it from the repository root (the serve workloads read the
//! checked-in `scenarios/` presets; results go under `.bench_work/`).
//! Every input is generated from `--seed`. An untraced run prints the
//! end-to-end metrics; a traced run prints the per-layer metrics. The
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; lines before it start with `#` and say how
//! the figures were taken. A failed output check prints the workload
//! and the check on stderr and exits 1; a usage error exits 2. `--tiny`
//! shrinks every input for a smoke run.

#![forbid(unsafe_code)]

mod inputs;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SweepGrid,
    PlanLargen,
    ServeKeepalive,
    ServeFreshConn,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SweepGrid,
        Workload::PlanLargen,
        Workload::ServeKeepalive,
        Workload::ServeFreshConn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepGrid => "sweep-grid",
            Workload::PlanLargen => "plan-largen",
            Workload::ServeKeepalive => "serve-keepalive",
            Workload::ServeFreshConn => "serve-fresh-conn",
        }
    }
}

/// One run's settings.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    /// Engine and server threads: `MLSCALE_THREADS`, else `nproc`.
    pub threads: usize,
    /// Client threads of the serve workloads: `nproc`.
    pub clients: usize,
}

impl Config {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Where this workload writes, inside the directory it runs from.
    pub fn work_dir(&self) -> PathBuf {
        PathBuf::from(".bench_work").join(self.workload.name())
    }
}

/// Set-ups per run; the reported `setup_s` is their median. Set-up is
/// short (10 ms to 0.4 s), so one slow set-up would otherwise decide it.
pub const SETUP_REPS: usize = 9;

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with units. A layer a
/// workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("spec.validate_s", "s"),
    ("spec.points", "count"),
    ("grid.decode_s", "s"),
    ("grid.resolve_s", "s"),
    ("engine.eval_s", "s"),
    ("engine.points", "count"),
    ("render.json_s", "s"),
    ("render.bytes", "bytes"),
    ("store.write_shard_s", "s"),
    ("store.bytes", "bytes"),
    ("store.shards", "count"),
    ("kernel.orderstat_s", "s"),
    ("kernel.orderstat_calls", "count"),
    ("kernel.pool_entries", "count"),
    ("model.curve_s", "s"),
    ("model.planner_s", "s"),
    ("http.parse_us", "us"),
    ("serve.handle_hot_us", "us"),
    ("serve.handle_cold_us", "us"),
    ("lru.hits", "count"),
    ("lru.misses", "count"),
    ("lru.hit_ratio", "ratio"),
    ("serve.shed_503", "count"),
    ("serve.retries", "count"),
    ("serve.connect_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Adds per-layer metrics to `report`, each with its unit from
/// [`PER_LAYER`].
pub fn push_layers(report: &mut stats::Report, values: &[(&'static str, f64)]) {
    for &(name, value) in values {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, unit)| *unit)
            .expect("every reported per-layer metric is listed in PER_LAYER");
        report.push(name, value, unit);
    }
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Config {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        tiny,
        threads: mlscale_core::par::try_thread_count().unwrap_or_else(|e| usage(&e)),
        clients: nproc,
    }
}

fn main() {
    let cfg = parse_args();
    println!(
        "# runner: nproc {}, engine and server threads {} (MLSCALE_THREADS, else nproc), seed {}",
        cfg.clients, cfg.threads, cfg.seed
    );
    let outcome = match cfg.workload {
        Workload::SweepGrid | Workload::PlanLargen => sweep::run(&cfg),
        Workload::ServeKeepalive | Workload::ServeFreshConn => serve::run(&cfg),
    };
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{}: {e}", cfg.workload.name());
            std::process::exit(1);
        }
    };
    if !cfg.trace {
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            END_TO_END.map(|(name, _)| name),
            "untraced runs report END_TO_END"
        );
    } else {
        for (name, unit) in PER_LAYER {
            if !report.metrics.iter().any(|m| m.name == name) {
                report.push(name, 0.0, unit);
            }
        }
    }
    for m in &report.metrics {
        println!("# {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    match report.to_json() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{}: {e}", cfg.workload.name());
            std::process::exit(1);
        }
    }
    if !report.correct {
        eprintln!("{}: output checks failed", cfg.workload.name());
        std::process::exit(1);
    }
}
