//! The batch workloads, `sweep-grid` and `plan-largen`: a closed loop of
//! one client that validates a scenario and runs it through the sharded
//! sweep engine into a results directory, as `mlscale sweep` does.

use crate::inputs::{self, SHARD_SIZE};
use crate::stats::{median, tail, Report};
use crate::trace::Tracer;
use crate::{Config, Workload};
use mlscale_core::par;
use mlscale_core::planner::Pricing;
use mlscale_core::speedup::log_spaced_ns;
use mlscale_core::straggler::{OrderStatCachePool, StragglerModel};
use mlscale_scenario::spec::point_id_width;
use mlscale_scenario::store::{shard_count, shard_file_name};
use mlscale_scenario::{
    run_pooled, run_sharded, AxisSpec, GdSpec, GridPoint, ResolvedWorkload, ScenarioSpec,
    ShardedStore,
};
use mlscale_workloads::ExperimentResult;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Specs generated per `plan-largen` set-up; the loop cycles through them.
const PLAN_BATCH: u64 = 64;
/// Records per `sweep-grid` run compared against the per-point path.
const SAMPLED_RECORDS: usize = 8;
/// Specs per traced `plan-largen` run replayed layer by layer.
const REPLAYED_SPECS: usize = 8;
/// Relative agreement between `expected_order_stat` and the exact
/// oracle, as the extreme-scale property tests require at the crossover.
const ORDER_STAT_REL_ERR: f64 = 1e-3;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The scenario texts one run cycles through.
fn batch(cfg: &Config) -> Vec<String> {
    match cfg.workload {
        Workload::SweepGrid => vec![inputs::sweep_grid(cfg.seed, cfg.tiny)],
        _ => (0..PLAN_BATCH)
            .map(|i| inputs::plan_spec(cfg.seed, i, cfg.tiny))
            .collect(),
    }
}

/// The untraced operation: validate, then sweep through the sharded
/// store. Returns the grid size.
fn run_op(text: &str, dir: &Path) -> Result<usize, String> {
    let spec = ScenarioSpec::from_json(text).map_err(err)?;
    Ok(run_sharded(&spec, dir, false, SHARD_SIZE)
        .map_err(err)?
        .grid_points)
}

/// Generate the inputs, validate them, and take one warm-up operation
/// on the tiny variant: the program is then ready to sweep.
fn setup(cfg: &Config, dir: &Path) -> Result<(Vec<String>, f64), String> {
    let mut times = Vec::new();
    let mut texts = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        // lint: allow(determinism): the benchmark times set-up by design
        let start = Instant::now();
        texts = batch(cfg);
        for text in &texts {
            ScenarioSpec::from_json(text).map_err(err)?;
        }
        reset_dir(dir)?;
        let warm = match cfg.workload {
            Workload::SweepGrid => inputs::sweep_grid(cfg.seed, true),
            _ => inputs::plan_spec(cfg.seed, 0, true),
        };
        run_op(&warm, dir)?;
        reset_dir(dir)?;
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((texts, median(&times)))
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// What a closed loop of operations measured.
#[derive(Default)]
struct Loop {
    latencies: Vec<f64>,
    points: usize,
    attempted: u64,
    failed: u64,
    elapsed: f64,
    /// Spec index of every completed operation, in order.
    done: Vec<usize>,
}

/// Runs operations back to back for `budget`, cycling through `texts`.
fn closed_loop(
    texts: &[String],
    budget: Duration,
    mut op: impl FnMut(&str) -> Result<usize, String>,
) -> Loop {
    let mut out = Loop::default();
    // lint: allow(determinism): the benchmark's measurement window
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget || out.attempted == 0 {
        let index = i % texts.len();
        // lint: allow(determinism): per-operation latency sample
        let sent = Instant::now();
        out.attempted += 1;
        match op(&texts[index]) {
            Ok(points) => {
                out.latencies.push(sent.elapsed().as_secs_f64());
                out.points += points;
                out.done.push(index);
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("operation {i} failed: {e}");
            }
        }
        i += 1;
    }
    out.elapsed = start.elapsed().as_secs_f64();
    out
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let work = cfg.work_dir();
    let dir = work.join("out");
    let (texts, setup_s) = setup(cfg, &dir)?;
    let mut report = Report::default();
    let mut problems = Vec::new();

    if !cfg.trace {
        let measured = closed_loop(&texts, cfg.budget(), |text| run_op(text, &dir));
        problems.extend(check(cfg, &texts, &measured, &dir));
        let latencies_ms: Vec<f64> = measured.latencies.iter().map(|s| s * 1e3).collect();
        let (tail_ms, pct) = tail(&latencies_ms);
        println!(
            "# {}: {} operations, {} grid points in {:.3} s; latency_tail_ms is p{pct:.1} of {} samples",
            cfg.workload.name(),
            measured.attempted,
            measured.points,
            measured.elapsed,
            latencies_ms.len()
        );
        println!("# cold_p50_ms: every operation misses every result cache (fresh order-statistic pool, fresh results)");
        report.push("setup_s", setup_s, "s");
        report.push(
            "points_per_s",
            measured.points as f64 / measured.elapsed,
            "1/s",
        );
        report.push(
            "req_per_s",
            measured.latencies.len() as f64 / measured.elapsed,
            "1/s",
        );
        report.push("latency_p50_ms", median(&latencies_ms), "ms");
        report.push("latency_tail_ms", tail_ms, "ms");
        report.push("cold_p50_ms", median(&latencies_ms), "ms");
        report.push("peak_rss_mb", crate::stats::peak_rss_mb()?, "MB");
        report.attempted = measured.attempted;
        report.failed = measured.failed;
    } else {
        traced(cfg, &texts, &dir, &work, &mut report, &mut problems)?;
    }
    reset_dir(&dir)?;
    report.correct = problems.is_empty();
    for p in &problems {
        eprintln!("{}: check failed: {p}", cfg.workload.name());
    }
    Ok(report)
}

/// Output checks on what the untraced loop left on disk.
fn check(cfg: &Config, texts: &[String], measured: &Loop, dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    if measured.failed > 0 {
        problems.push(format!("{} operation(s) failed", measured.failed));
    }
    // Every spec the loop completed left its shards; the last run of each
    // name is on disk. The per-point path and the exact oracle cost as
    // much as the operation itself, so only the first spec gets them.
    let ran: BTreeSet<usize> = measured.done.iter().copied().collect();
    for (n, &index) in ran.iter().enumerate() {
        if let Err(e) = check_shards(cfg, &texts[index], dir, n == 0) {
            problems.push(e);
        }
        if n == 0 && cfg.workload == Workload::PlanLargen {
            if let Err(e) = check_order_stats(&texts[index]) {
                problems.push(e);
            }
        }
    }
    problems
}

/// Every shard line parses and carries its grid id, the record count
/// equals the grid size, and (with `per_point`) a seeded sample of
/// records is byte-identical to what the per-point path renders for
/// that point.
fn check_shards(cfg: &Config, text: &str, dir: &Path, per_point: bool) -> Result<(), String> {
    let spec = ScenarioSpec::from_json(text).map_err(err)?;
    let total = spec.grid_len().map_err(err)?;
    let width = point_id_width(total);
    let mut rng = inputs::rng(cfg.seed, 9);
    let sample: BTreeSet<usize> = (0..if per_point { SAMPLED_RECORDS } else { 0 })
        .map(|_| rng.gen_range(0..total))
        .collect();
    let mut sampled = BTreeMap::new();
    let mut records = 0;
    for k in 0..shard_count(total, SHARD_SIZE) {
        let path = dir.join(shard_file_name(&spec.name, k));
        let shard = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for line in shard.lines() {
            let result: ExperimentResult = serde_json::from_str(line)
                .map_err(|e| format!("{} line {}: {e}", path.display(), records + 1))?;
            let id = spec.point_at(records, width).id;
            if result.id != id {
                return Err(format!(
                    "record {records} has id {} (expected {id})",
                    result.id
                ));
            }
            if sample.contains(&records) {
                sampled.insert(records, line.to_string());
            }
            records += 1;
        }
    }
    if records != total {
        return Err(format!(
            "{}: {records} records for {total} grid points",
            spec.name
        ));
    }
    for (index, line) in sampled {
        let point = spec.point_at(index, width);
        let single = single_point(&spec, &point);
        let mut result = mlscale_scenario::run(&single)
            .map_err(err)?
            .points
            .pop()
            .ok_or("the per-point path returned no point")?;
        result.id = point.id.clone();
        if serde_json::to_string(&result).map_err(err)? != line {
            return Err(format!(
                "record {} differs from the per-point path",
                point.id
            ));
        }
    }
    Ok(())
}

/// The one-point scenario of `point`: every axis pinned to its value.
/// The engine names the point `<name>-p000`; everything else in its
/// record matches the grid's.
fn single_point(spec: &ScenarioSpec, point: &GridPoint) -> ScenarioSpec {
    let mut single = spec.clone();
    single.sweep = point
        .assignments
        .iter()
        .map(|(param, value)| AxisSpec {
            param: param.clone(),
            values: vec![value.clone()],
        })
        .collect();
    single
}

/// The order statistics a plan spec needs agree with the exact oracle:
/// the largest worker count, the first rung past the asymptotic
/// crossover, and the last rung before it.
fn check_order_stats(text: &str) -> Result<(), String> {
    let spec = ScenarioSpec::from_json(text).map_err(err)?;
    let total = spec.grid_len().map_err(err)?;
    let width = point_id_width(total);
    for index in 0..total {
        let point = spec.point_at(index, width);
        let ResolvedWorkload::Gd(gd) = spec.resolve(&point).map_err(err)? else {
            return Err(format!("{}: not a gd point", point.id));
        };
        let model = gd.straggler_model();
        let ns = ladder(gd.max_n, gd.log_points);
        let cross = model.asymptotic_crossover().unwrap_or(usize::MAX);
        let probes = [
            ns.last().copied(),
            ns.iter().copied().find(|&n| n > cross),
            ns.iter().copied().rfind(|&n| n <= cross),
        ];
        for n in probes.into_iter().flatten() {
            let k = gd.backup_k.min(n - 1);
            let routed = model.expected_order_stat(n, k);
            let exact = model.expected_order_stat_exact(n, k);
            let rel = (routed - exact).abs() / exact.abs().max(1e-300);
            if rel.is_nan() || rel > ORDER_STAT_REL_ERR {
                return Err(format!(
                    "{}: {model:?} n={n} k={k}: expected_order_stat {routed} vs exact {exact} (rel {rel:e})",
                    point.id
                ));
            }
        }
    }
    Ok(())
}

fn ladder(max_n: usize, log_points: Option<usize>) -> Vec<usize> {
    match log_points {
        Some(points) => log_spaced_ns(max_n, points),
        None => (1..=max_n).collect(),
    }
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Top-level stages of a traced operation; their sum over the untraced
/// operation's wall time is `trace.coverage`.
const STAGES: [&str; 4] = [
    "spec.validate",
    "engine.eval",
    "render.json",
    "store.write_shard",
];

/// Per-operation counts of a traced operation.
#[derive(Default, Clone, Copy)]
struct Counts {
    points: usize,
    bytes: u64,
    shards: usize,
}

/// The traced run: half the budget runs untraced operations (the base
/// for coverage and overhead), half runs the same operations as a
/// pipeline of public layer calls, each in a span, writing the same
/// shards. Then the engine's inner layers (grid decode and resolve,
/// order-statistic kernel, model curves and planner) are replayed on
/// the same inputs, each in a span.
fn traced(
    cfg: &Config,
    texts: &[String],
    dir: &Path,
    work: &Path,
    report: &mut Report,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let half = cfg.budget() / 2;
    let base = closed_loop(texts, half, |text| run_op(text, dir));
    problems.extend(check(cfg, texts, &base, dir));

    let traced_dir = work.join("traced");
    reset_dir(&traced_dir)?;
    let mut tracer = Tracer::new();
    let mut counts = Vec::new();
    let mut op = 0u64;
    let measured = closed_loop(texts, half, |text| {
        op += 1;
        let c = traced_op(&mut tracer, op, text, &traced_dir)?;
        counts.push(c);
        Ok(c.points)
    });
    if measured.failed > 0 {
        problems.push(format!("{} traced operation(s) failed", measured.failed));
    }
    // Specs both loops ran left run_sharded's shards in `dir` and the
    // pipeline's in `traced_dir`.
    let base_ran: BTreeSet<usize> = base.done.iter().copied().collect();
    for &index in measured.done.iter().collect::<BTreeSet<_>>() {
        if base_ran.contains(&index) && !same_shards(&texts[index], dir, &traced_dir)? {
            problems.push(format!(
                "spec {index}: the traced pipeline's shards differ from run_sharded's"
            ));
        }
    }

    // Engine internals, replayed once per distinct input.
    let mut layers = Layers::default();
    let replayed: Vec<usize> = measured
        .done
        .iter()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .take(REPLAYED_SPECS)
        .collect();
    for (n, &index) in replayed.iter().enumerate() {
        replay(
            &mut tracer,
            1_000_000 + n as u64,
            &texts[index],
            &mut layers,
        )?;
    }
    let replays = replayed.len().max(1) as f64;

    let untraced_s = median(&base.latencies);
    let traced_s = median(&tracer.per_op_seconds("sweep"));
    let per_op = |name: &str| median(&tracer.per_op_seconds(name));
    let staged: f64 = STAGES.iter().map(|s| per_op(s)).sum();
    println!(
        "# trace.coverage = (spec.validate + engine.eval + render.json + store.write_shard) per op / untraced op wall ({untraced_s:.6} s, {} ops)",
        base.latencies.len()
    );
    println!("# not covered: run_sharded's point summaries, roll-up (assembly, pretty rendering, write) and journal, which no public function reaches; the traced pipeline skips them, so trace.overhead_s can read below 0");
    println!("# grid.*, kernel.* and model.* replay the engine's inner layers on the same inputs (nested in engine.eval, not part of coverage)");
    let first = counts.first().copied().unwrap_or_default();
    let pool_entries = layers.pool_entries as f64 / replays;
    let failed = base.failed + measured.failed;
    let attempted = base.attempted + measured.attempted;

    crate::push_layers(
        report,
        &[
            ("spec.validate_s", per_op("spec.validate")),
            ("spec.points", first.points as f64),
            ("grid.decode_s", layers.decode / replays),
            ("grid.resolve_s", layers.resolve / replays),
            ("engine.eval_s", per_op("engine.eval")),
            ("engine.points", first.points as f64),
            ("render.json_s", per_op("render.json")),
            ("render.bytes", first.bytes as f64),
            ("store.write_shard_s", per_op("store.write_shard")),
            ("store.bytes", first.bytes as f64),
            ("store.shards", first.shards as f64),
            ("kernel.orderstat_s", layers.kernel / replays),
            (
                "kernel.orderstat_calls",
                layers.kernel_calls as f64 / replays,
            ),
            ("kernel.pool_entries", pool_entries),
            ("model.curve_s", layers.curve / replays),
            ("model.planner_s", layers.planner / replays),
            ("failed_ratio", failed as f64 / attempted as f64),
            ("trace.coverage", staged / untraced_s),
            ("trace.overhead_s", traced_s - untraced_s),
        ],
    );
    report.attempted = attempted;
    report.failed = failed;
    tracer
        .write(&work.join("trace.ndjson"))
        .map_err(|e| format!("cannot write the trace: {e}"))?;
    reset_dir(&traced_dir)?;
    Ok(())
}

/// Whether every shard of `text`'s grid is byte-identical in `a` and `b`.
fn same_shards(text: &str, a: &Path, b: &Path) -> Result<bool, String> {
    let spec = ScenarioSpec::from_json(text).map_err(err)?;
    let total = spec.grid_len().map_err(err)?;
    for file in (0..shard_count(total, SHARD_SIZE)).map(|k| shard_file_name(&spec.name, k)) {
        let read = |dir: &Path| {
            let path = dir.join(&file);
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
        };
        if read(a)? != read(b)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The scenarios the engine evaluates, one per shard, with the index of
/// their first grid point. A grid larger than one shard must split
/// along its first axis (the product of the others is the shard size),
/// so that each shard is the whole grid with the first axis pinned.
fn chunks(spec: &ScenarioSpec, total: usize) -> Result<Vec<(usize, ScenarioSpec)>, String> {
    if total <= SHARD_SIZE {
        return Ok(vec![(0, spec.clone())]);
    }
    let first = spec.sweep.first().ok_or("a multi-shard grid has axes")?;
    if total / first.values.len() != SHARD_SIZE {
        return Err(format!(
            "{}: trailing axes span {} points, not one shard of {SHARD_SIZE}",
            spec.name,
            total / first.values.len()
        ));
    }
    Ok(first
        .values
        .iter()
        .enumerate()
        .map(|(k, value)| {
            let mut chunk = spec.clone();
            chunk.sweep[0].values = vec![value.clone()];
            (k * SHARD_SIZE, chunk)
        })
        .collect())
}

/// One operation as a pipeline of public layer calls, each in a span
/// under the operation's `sweep` span: validate the spec, then per
/// shard evaluate it (`run_pooled`), encode its records into the store
/// (`ShardedStore::buffer`, which renders each with `serde_json`) and
/// publish the shard (`ShardedStore::write_shard`).
fn traced_op(tr: &mut Tracer, op: u64, text: &str, dir: &Path) -> Result<Counts, String> {
    let root = tr.open("sweep", op, None);
    let (spec, _) = tr.span("spec.validate", op, Some(root), || {
        ScenarioSpec::from_json(text)
    });
    let spec = spec.map_err(err)?;
    let total = spec.grid_len().map_err(err)?;
    let width = point_id_width(total);
    let pool = OrderStatCachePool::new();
    let mut store = ShardedStore::new(dir, &spec.name, SHARD_SIZE);
    let mut counts = Counts {
        points: total,
        ..Counts::default()
    };
    for (k, (lo, chunk)) in chunks(&spec, total)?.iter().enumerate() {
        let (outcome, _) = tr.span("engine.eval", op, Some(root), || run_pooled(chunk, &pool));
        let mut points = outcome.map_err(err)?.points;
        if total > SHARD_SIZE {
            for (slot, result) in points.iter_mut().enumerate() {
                result.id = format!("{}-p{:0width$}", spec.name, lo + slot);
            }
        }
        let (buffered, _) = tr.span("render.json", op, Some(root), || {
            points
                .iter()
                .enumerate()
                .try_for_each(|(slot, result)| store.buffer(slot, result))
        });
        buffered.map_err(err)?;
        let (bytes, _) = tr.span("store.write_shard", op, Some(root), || {
            store.write_shard(k, points.len())
        });
        counts.bytes += bytes.map_err(err)?;
        counts.shards += 1;
    }
    tr.close(root);
    Ok(counts)
}

/// Totals of the replayed inner layers over the replayed specs.
#[derive(Default)]
pub struct Layers {
    pub decode: f64,
    pub resolve: f64,
    pub kernel: f64,
    pub kernel_calls: usize,
    pub pool_entries: usize,
    pub curve: f64,
    pub planner: f64,
}

/// Replays the engine's inner layers on one spec, one span per layer:
/// decode every grid point, resolve it, evaluate the order statistics
/// its curves need into a fresh cache pool (the kernel), build the
/// model and its curve from that warm cache, then build its planner
/// (which takes its own order-statistic table pass, so
/// `model.planner_s` includes that kernel work).
pub fn replay(tr: &mut Tracer, op: u64, text: &str, layers: &mut Layers) -> Result<(), String> {
    let spec = ScenarioSpec::from_json(text).map_err(err)?;
    let total = spec.grid_len().map_err(err)?;
    let width = point_id_width(total);
    let root = tr.open("replay", op, None);
    let (points, id) = tr.span("grid.decode", op, Some(root), || {
        (0..total)
            .map(|i| spec.point_at(i, width))
            .collect::<Vec<_>>()
    });
    layers.decode += tr.seconds(id);
    let (resolved, id) = tr.span("grid.resolve", op, Some(root), || {
        points
            .iter()
            .map(|p| spec.resolve(p))
            .collect::<Result<Vec<_>, _>>()
    });
    layers.resolve += tr.seconds(id);
    let gds: Vec<_> = resolved
        .map_err(err)?
        .into_iter()
        .filter_map(|w| match w {
            ResolvedWorkload::Gd(gd) => Some(gd),
            _ => None,
        })
        .collect();

    let pool = OrderStatCachePool::new();
    let mut needed: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
    let mut models: Vec<StragglerModel> = Vec::new();
    let (_, id) = tr.span("kernel.orderstat", op, Some(root), || {
        for gd in &gds {
            let model = gd.straggler_model();
            if model.is_zero() {
                continue;
            }
            let m = models.iter().position(|&x| x == model).unwrap_or_else(|| {
                models.push(model);
                models.len() - 1
            });
            let cache = pool.cache_for(model);
            for n in ladder(gd.max_n, gd.log_points) {
                let k = gd.backup_k.min(n - 1);
                if needed.insert((m, n, k)) {
                    std::hint::black_box(cache.expected_order_stat(n, k));
                }
            }
        }
    });
    layers.kernel += tr.seconds(id);
    layers.kernel_calls += needed.len();
    layers.pool_entries += pool.len();

    // As in the engine: deterministic curves fan out across points
    // (each curve then runs serially), straggler curves run one by one
    // from the shared cache.
    let curve = |gd: &GdSpec| -> Result<(), mlscale_scenario::SpecError> {
        let model = gd.build()?;
        let ns = ladder(gd.max_n, gd.log_points);
        let straggler = gd.straggler_model();
        let curve = match (gd.weak, straggler.is_zero()) {
            (false, true) => model.strong_curve(ns),
            (true, true) => model.weak_curve(ns),
            (false, false) => model.strong_curve_cached(ns, &pool.cache_for(straggler)),
            (true, false) => model.weak_curve_cached(ns, &pool.cache_for(straggler)),
        };
        std::hint::black_box(curve.optimal());
        Ok(())
    };
    let (det, stochastic): (Vec<&GdSpec>, Vec<&GdSpec>) = gds
        .iter()
        .map(|gd| &**gd)
        .partition(|gd| gd.straggler_model().is_zero());
    let (built, id) = tr.span("model.curve", op, Some(root), || {
        par::map(&det, |gd| curve(gd))
            .into_iter()
            .chain(stochastic.iter().map(|gd| curve(gd)))
            .collect::<Result<Vec<()>, _>>()
    });
    layers.curve += tr.seconds(id);
    built.map_err(err)?;

    let (planned, id) = tr.span("model.planner", op, Some(root), || {
        for gd in &gds {
            let Some(plan) = &gd.plan else { continue };
            let model = gd.build()?;
            let pricing = Pricing::hourly(plan.price);
            let planner = match gd.log_points {
                Some(points) => model.planner_log(plan.iterations, gd.max_n, pricing, points),
                None => model.planner(plan.iterations, gd.max_n, pricing),
            };
            std::hint::black_box((planner.fastest(), planner.cheapest()));
        }
        Ok::<(), mlscale_scenario::SpecError>(())
    });
    planned.map_err(err)?;
    layers.planner += tr.seconds(id);
    tr.close(root);
    Ok(())
}
