//! Cross-cutting properties of the streaming, sharded, and adaptive
//! sweep paths, checked over the real scenario documents shipped in
//! `scenarios/`: the adaptive refiner must land on exactly the Pareto
//! frontier an exhaustive sweep finds, the sharded store must distil the
//! same roll-up bytes as the per-point path, results restored from
//! shards must be the results that were evaluated, and every mode must
//! write the same bytes at every thread count.

use std::path::{Path, PathBuf};

use mlscale::model::par;
use mlscale::model::planner::pareto_frontier;
use mlscale::model::straggler::OrderStatCachePool;
use mlscale::scenario::{
    run, run_adaptive, run_checkpointed, run_pooled, run_sharded, write_outcome, ScenarioSpec,
    SweepSummary, DEFAULT_PER_POINT_MAX,
};
use mlscale::workloads::ExperimentResult;

/// The (cost, time) objectives the adaptive refiner optimises, recomputed
/// from the public result stats: expected time at the optimum, and the
/// plan's cheapest cost when present (the `optimal n × time` node-seconds
/// proxy otherwise).
fn objectives(result: &ExperimentResult) -> Option<(f64, f64)> {
    let stat = |label: &str| {
        result
            .stats
            .iter()
            .find(|s| s.label == label)
            .map(|s| s.value)
    };
    let time = stat("time at optimum s")?;
    let cost = match stat("cheapest cost") {
        Some(cost) => cost,
        None => stat("optimal n")? * time,
    };
    Some((cost, time))
}

/// Checked-in scenarios with a sweepable grid — exhibits reproduce fixed
/// figures and single-point specs have nothing to shard or refine.
fn grid_scenarios() -> Vec<(PathBuf, ScenarioSpec)> {
    let mut specs = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir("scenarios")
        .expect("scenarios/ ships with the repo")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("read scenario");
        let spec = ScenarioSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("{}: checked-in scenario invalid: {e}", path.display()));
        let is_exhibit = matches!(spec.workload, mlscale::scenario::WorkloadSpec::Exhibit(_));
        if !is_exhibit && !spec.sweep.is_empty() {
            specs.push((path, spec));
        }
    }
    assert!(
        specs.len() >= 2,
        "expected at least two grid scenarios, found {specs:?}",
        specs = specs
            .iter()
            .map(|(p, _)| p.display().to_string())
            .collect::<Vec<_>>()
    );
    specs
}

#[test]
fn adaptive_finds_the_exhaustive_frontier_on_every_checked_in_grid() {
    for (path, spec) in grid_scenarios() {
        let grid_len = spec.grid_len().expect("grid length");
        if grid_len > 1_000 {
            continue; // exhaustive reference must stay cheap in tests
        }
        let exhaustive = run(&spec).expect("exhaustive sweep");
        let objs: Vec<(f64, f64)> = exhaustive
            .points
            .iter()
            .map(|r| objectives(r).expect("every gd/bp result carries the objectives"))
            .collect();
        let mut want: Vec<(f64, f64)> = pareto_frontier(&objs)
            .into_iter()
            .map(|i| objs[i])
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).expect("finite objectives"));

        let adaptive = run_adaptive(&spec).expect("adaptive sweep");
        let mut got: Vec<(f64, f64)> = adaptive.frontier.iter().map(|f| (f.cost, f.time)).collect();
        got.sort_by(|a, b| a.partial_cmp(b).expect("finite objectives"));
        assert_eq!(
            got,
            want,
            "{}: adaptive frontier diverges from the exhaustive one",
            path.display()
        );
        assert!(
            adaptive.outcome.points.len() <= grid_len,
            "{}: adaptive evaluated more points than the grid holds",
            path.display()
        );
        // Every adaptive result must be the bit-identical exhaustive one.
        for (grid_point, result) in adaptive.outcome.grid.iter().zip(&adaptive.outcome.points) {
            assert_eq!(
                result,
                &exhaustive.points[grid_point.index],
                "{}: {} evaluated differently under refinement",
                path.display(),
                grid_point.id
            );
        }
    }
}

#[test]
fn sharded_rollup_matches_the_per_point_rollup_on_every_checked_in_grid() {
    let base = std::env::temp_dir().join(format!("mlscale-sweep-scale-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    for (path, spec) in grid_scenarios() {
        let grid_len = spec.grid_len().expect("grid length");
        if !(2..=1_000).contains(&grid_len) {
            continue;
        }
        let tag = path.file_stem().unwrap().to_string_lossy().into_owned();
        let per_point_dir = base.join(format!("{tag}-per-point"));
        let sharded_dir = base.join(format!("{tag}-sharded"));
        let checkpointed = run_checkpointed(&spec, &per_point_dir, false).expect("per-point sweep");
        // A shard size below the grid forces at least two shards.
        let shard_size = grid_len.div_ceil(2);
        let sharded = run_sharded(&spec, &sharded_dir, false, shard_size).expect("sharded sweep");
        assert!(sharded.shards >= 2, "{tag}: expected a real shard split");
        assert_eq!(
            checkpointed.outcome.rollup, sharded.rollup,
            "{tag}: roll-up reports differ between store layouts"
        );
        let rollup_file = |dir: &Path| {
            std::fs::read(dir.join(format!("{}-rollup.json", spec.name))).expect("roll-up file")
        };
        assert_eq!(
            rollup_file(&per_point_dir),
            rollup_file(&sharded_dir),
            "{tag}: roll-up files differ byte-for-byte between store layouts"
        );
        // The shard records are the per-point results, in grid order.
        let mut from_shards = Vec::new();
        for shard_path in &sharded.paths[..sharded.shards] {
            let text = std::fs::read_to_string(shard_path).expect("shard");
            for line in text.lines() {
                from_shards
                    .push(serde_json::from_str::<ExperimentResult>(line).expect("shard record"));
            }
        }
        assert_eq!(
            from_shards, checkpointed.outcome.points,
            "{tag}: shard records diverge from the per-point results"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A lognormal straggler grid on a log ladder: every point draws on one
/// shared order-statistic cache, warmed by a parallel sparse pass, and
/// the group's points then evaluate across the pool.
const LOGNORMAL_LADDER_GRID: &str = r#"{
  "name": "lognormal-ladder",
  "workload": {"kind": "gd", "preset": "fig2", "max_n": 20000, "log_points": 16,
               "straggler": {"kind": "lognormal", "mu": -3.0, "sigma": 1.1},
               "plan": {"iterations": 500, "price": 1.5, "deadline": 30.0}},
  "sweep": [{"param": "comm", "values": ["tree", "ring", "halving"]},
            {"param": "backup_k", "values": [0, 2]}]
}"#;

/// Every file in `dir`, by name.
fn dir_bytes(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("output directory")
        .map(|e| {
            let path = e.expect("entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("output file"))
        })
        .collect()
}

/// What one sweep mode left behind at one thread count: its files (shards
/// or per-point files, roll-up, manifest) and the CLI's summary line.
struct ModeOutput {
    files: std::collections::BTreeMap<String, Vec<u8>>,
    summary: String,
}

/// Runs every sweep mode that applies to `spec` at `threads` workers:
/// sharded, adaptive, per-point (checkpointed) and in-memory (pooled).
/// Grids past the per-point default (the 10⁴-point adaptive grid) skip
/// the last two, which the CLI never picks for them.
fn sweep_outputs(
    spec: &ScenarioSpec,
    base: &Path,
    threads: usize,
) -> Vec<(&'static str, ModeOutput)> {
    let grid_len = spec.grid_len().expect("grid length");
    let summary = |mode: &'static str,
                   evaluated: usize,
                   files: usize,
                   shards: usize,
                   frontier: Vec<(f64, f64)>| {
        SweepSummary {
            name: spec.name.clone(),
            mode,
            grid_points: grid_len,
            evaluated,
            resumed: 0,
            files,
            shards,
            frontier,
        }
        .to_json()
        .expect("summary JSON")
    };
    par::with_thread_count(threads, || {
        let mut outputs = Vec::new();
        let dir = base.join(format!("t{threads}-sharded"));
        let sharded = run_sharded(spec, &dir, false, grid_len.div_ceil(2)).expect("sharded sweep");
        outputs.push((
            "sharded",
            ModeOutput {
                files: dir_bytes(&dir),
                summary: summary(
                    "sharded",
                    grid_len,
                    sharded.paths.len(),
                    sharded.shards,
                    Vec::new(),
                ),
            },
        ));
        if !spec.sweep.is_empty() {
            let dir = base.join(format!("t{threads}-adaptive"));
            let adaptive = run_adaptive(spec).expect("adaptive sweep");
            let paths = write_outcome(&adaptive.outcome, &dir).expect("adaptive files");
            let frontier = adaptive.frontier.iter().map(|f| (f.cost, f.time)).collect();
            outputs.push((
                "adaptive",
                ModeOutput {
                    files: dir_bytes(&dir),
                    summary: summary(
                        "adaptive",
                        adaptive.outcome.points.len(),
                        paths.len(),
                        0,
                        frontier,
                    ),
                },
            ));
        }
        if grid_len <= DEFAULT_PER_POINT_MAX {
            let dir = base.join(format!("t{threads}-per-point"));
            let checkpointed = run_checkpointed(spec, &dir, false).expect("per-point sweep");
            outputs.push((
                "per-point",
                ModeOutput {
                    files: dir_bytes(&dir),
                    summary: summary(
                        "per-point",
                        grid_len,
                        checkpointed.paths.len(),
                        0,
                        Vec::new(),
                    ),
                },
            ));
            let dir = base.join(format!("t{threads}-pooled"));
            let outcome = run_pooled(spec, &OrderStatCachePool::new()).expect("in-memory sweep");
            let paths = write_outcome(&outcome, &dir).expect("in-memory files");
            outputs.push((
                "pooled",
                ModeOutput {
                    files: dir_bytes(&dir),
                    summary: summary("per-point", grid_len, paths.len(), 0, Vec::new()),
                },
            ));
        }
        outputs
    })
}

#[test]
fn sweep_output_does_not_depend_on_the_thread_count() {
    let base = std::env::temp_dir().join(format!("mlscale-sweep-threads-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let mut specs = grid_scenarios();
    specs.push((
        PathBuf::from("lognormal-ladder"),
        ScenarioSpec::from_json(LOGNORMAL_LADDER_GRID).expect("valid scenario"),
    ));
    for (path, spec) in specs {
        let tag = path.file_stem().unwrap().to_string_lossy().into_owned();
        let dir = base.join(&tag);
        let serial = sweep_outputs(&spec, &dir, 1);
        assert!(
            serial.iter().any(|(mode, _)| *mode == "sharded"),
            "{tag}: every grid streams through the sharded store"
        );
        for threads in [2, 3] {
            let parallel = sweep_outputs(&spec, &dir, threads);
            assert_eq!(serial.len(), parallel.len(), "{tag}: modes run");
            for ((mode, one), (_, many)) in serial.iter().zip(&parallel) {
                assert_eq!(
                    one.files.keys().collect::<Vec<_>>(),
                    many.files.keys().collect::<Vec<_>>(),
                    "{tag} {mode}: files differ at {threads} threads"
                );
                for (name, bytes) in &one.files {
                    assert!(
                        many.files[name] == *bytes,
                        "{tag} {mode}: {name} differs at {threads} threads"
                    );
                }
                assert_eq!(
                    one.summary, many.summary,
                    "{tag} {mode}: summary line differs at {threads} threads"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&base).ok();
}
