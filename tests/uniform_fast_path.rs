//! Bit-identity of the O(1) uniform-cluster barrier and of the planner
//! that reads a sweep's order-statistic cache, on generated parameters.
//!
//! A uniform cluster's straggler barrier is computed as
//! `base + E[X_(n−k)]` (or `base` at zero jitter) without building the
//! `n`-element base vector; every public per-`n` method, every curve and
//! every planner must still return exactly what the materialised
//! `expected_barrier(&vec![base; n], k)` gives, bit for bit. The sweep
//! engine builds each point's planner from the cache its curve filled;
//! its plan stats must equal a fresh, uncached `planner_log` / `planner`
//! bit for bit at any thread count.

use mlscale::model::hardware::presets;
use mlscale::model::models::gd::{GdComm, GradientDescentModel};
use mlscale::model::par;
use mlscale::model::planner::Pricing;
use mlscale::model::speedup::log_spaced_ns;
use mlscale::model::straggler::{
    OrderStatCache, OrderStatCachePool, StragglerGdModel, StragglerModel,
};
use mlscale::model::units::{FlopCount, Seconds};
use mlscale::scenario::{run_pooled, ResolvedWorkload, ScenarioSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every delay variant, zero-scale ones included, with generated scales.
fn variants(rng: &mut StdRng) -> Vec<StragglerModel> {
    vec![
        StragglerModel::Deterministic,
        StragglerModel::BoundedJitter { spread: 0.0 },
        StragglerModel::BoundedJitter {
            spread: rng.gen_range(0.001..0.5),
        },
        StragglerModel::ExponentialTail { mean: 0.0 },
        StragglerModel::ExponentialTail {
            mean: rng.gen_range(0.001..0.2),
        },
        StragglerModel::LogNormalTail {
            mu: rng.gen_range(-4.0..0.0),
            sigma: 0.0,
        },
        StragglerModel::LogNormalTail {
            mu: rng.gen_range(-4.0..-1.0),
            sigma: rng.gen_range(0.2..1.4),
        },
    ]
}

/// A gd job near the paper's Fig 2 network, scaled by the generator.
fn job(rng: &mut StdRng) -> GradientDescentModel {
    let params = 12e6 * rng.gen_range(0.5..2.0);
    GradientDescentModel {
        cost_per_example: FlopCount::new(6.0 * params),
        batch_size: (60_000.0 * rng.gen_range(0.5f64..2.0)).round(),
        params,
        bits_per_param: 64,
        cluster: presets::spark_cluster(),
        comm: [GdComm::Spark, GdComm::Ring, GdComm::TwoStageTree][rng.gen_range(0..3usize)],
    }
}

/// Rungs of the 200-point 10⁶ ladder: both ends, the rungs around each
/// asymptotic crossover, and a generated sample of the rest.
fn rungs(rng: &mut StdRng) -> Vec<usize> {
    let ladder = log_spaced_ns(1_000_000, 200);
    let mut picked: Vec<usize> = Vec::new();
    for seam in [512usize, 8_192, 10_000] {
        let i = ladder.partition_point(|&n| n <= seam);
        picked.extend(&ladder[i.saturating_sub(1)..(i + 1).min(ladder.len())]);
    }
    picked.extend([1, 2, 3, 1_000_000]);
    for _ in 0..6 {
        picked.push(ladder[rng.gen_range(0..ladder.len())]);
    }
    picked.sort_unstable();
    picked.dedup();
    picked
}

#[test]
fn uniform_barrier_equals_the_materialised_base_vector() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..3 {
        let inner = job(&mut rng);
        let ns = rungs(&mut rng);
        for straggler in variants(&mut rng) {
            for backup_k in 0..=4usize {
                let m = StragglerGdModel {
                    straggler,
                    backup_k,
                    ..StragglerGdModel::deterministic(inner)
                };
                let cache = OrderStatCache::new(straggler);
                let strong = m.strong_curve(ns.iter().copied());
                let weak = m.weak_curve(ns.iter().copied());
                let strong_cached = m.strong_curve_cached(ns.iter().copied(), &cache);
                let weak_cached = m.weak_curve_cached(ns.iter().copied(), &cache);
                let weak_base =
                    (inner.cost_per_example * inner.batch_size / inner.cluster.flops()).as_secs();
                for (i, &n) in ns.iter().enumerate() {
                    let k = backup_k.min(n - 1);
                    let tag = format!("case {case} {straggler:?} n={n} backup_k={backup_k}");
                    let comm = inner.comm_time(n);

                    let strong_base = inner.strong_comp_time(n).as_secs();
                    let barrier = straggler.expected_barrier(&vec![strong_base; n], k);
                    let got = m.expected_strong_comp_time(n);
                    assert_eq!(
                        got.as_secs().to_bits(),
                        barrier.as_secs().to_bits(),
                        "{tag}"
                    );
                    let iteration = (barrier + comm).as_secs().to_bits();
                    assert_eq!(
                        m.expected_strong_iteration_time(n).as_secs().to_bits(),
                        iteration,
                        "{tag} strong iteration"
                    );
                    assert_eq!(
                        strong.times()[i].as_secs().to_bits(),
                        iteration,
                        "{tag} strong curve"
                    );
                    assert_eq!(
                        strong_cached.times()[i].as_secs().to_bits(),
                        iteration,
                        "{tag} strong cached curve"
                    );

                    let barrier = straggler.expected_barrier(&vec![weak_base; n], k);
                    assert_eq!(
                        m.expected_weak_iteration_time(n).as_secs().to_bits(),
                        (barrier + comm).as_secs().to_bits(),
                        "{tag} weak iteration"
                    );
                    let per_instance = ((barrier + comm) / n as f64).as_secs().to_bits();
                    assert_eq!(
                        weak.times()[i].as_secs().to_bits(),
                        per_instance,
                        "{tag} weak curve"
                    );
                    assert_eq!(
                        weak_cached.times()[i].as_secs().to_bits(),
                        per_instance,
                        "{tag} weak cached curve"
                    );
                }
            }
        }
    }
}

/// The stats a planner contributes to a point result.
const PLAN_STATS: [&str; 10] = [
    "fastest n",
    "fastest time s",
    "fastest cost",
    "cheapest n",
    "cheapest time s",
    "cheapest cost",
    "cheapest n within deadline",
    "cheapest cost within deadline",
    "fastest n within budget",
    "fastest time s within budget",
];

/// A generated plan spec: `max_n` with an optional log ladder, a delay
/// variant, and a comm × backup_k grid.
fn plan_spec(rng: &mut StdRng, index: usize, max_n: usize, log_points: Option<usize>) -> String {
    let straggler = match index % 4 {
        0 => format!(
            r#"{{"kind":"lognormal","mu":{},"sigma":{}}}"#,
            rng.gen_range(-3.0..-1.0),
            rng.gen_range(0.3..1.2)
        ),
        1 => format!(r#"{{"kind":"exp","mean":{}}}"#, rng.gen_range(0.01..0.2)),
        2 => format!(
            r#"{{"kind":"jitter","spread":{}}}"#,
            rng.gen_range(0.01..0.3)
        ),
        _ => r#"{"kind":"jitter","spread":0.0}"#.to_string(),
    };
    let ladder = log_points.map_or(String::new(), |p| format!(r#","log_points":{p}"#));
    format!(
        r#"{{"name":"plan-{index}","workload":{{"kind":"gd","params":{},"cost_per_example":{},
            "batch":{},"bits":64,"flops":84.48e9,"max_n":{max_n}{ladder},"straggler":{straggler},
            "plan":{{"iterations":{},"price":{},"deadline":{},"budget":{}}}}},
            "sweep":[{{"param":"comm","values":["tree","ring"]}},
                     {{"param":"backup_k","values":[0,{}]}}]}}"#,
        (12e6 * rng.gen_range(0.5f64..2.0)).round(),
        (72e6 * rng.gen_range(0.5f64..2.0)).round(),
        (60_000.0 * rng.gen_range(0.5f64..2.0)).round(),
        rng.gen_range(100..5_000u64),
        rng.gen_range(0.5..5.0),
        rng.gen_range(50.0..2_000.0),
        rng.gen_range(1.0..50.0),
        rng.gen_range(1..5u64),
    )
}

#[test]
fn engine_plan_stats_equal_fresh_uncached_planners() {
    let mut rng = StdRng::seed_from_u64(0x91A7);
    let mut specs = Vec::new();
    for index in 0..4 {
        let log_points = rng.gen_range(30..60);
        specs.push(plan_spec(&mut rng, index, 1_000_000, Some(log_points)));
        let max_n = rng.gen_range(24..96);
        specs.push(plan_spec(&mut rng, index + 4, max_n, None));
    }
    for text in &specs {
        let spec = ScenarioSpec::from_json(text).expect("generated spec validates");
        let grid = spec.expand().expect("grid expands");
        // The reference: every point's planner built fresh, outside any
        // cache or pool.
        let fresh: Vec<Vec<Option<f64>>> = grid
            .iter()
            .map(|point| {
                let ResolvedWorkload::Gd(gd) = spec.resolve(point).expect("resolves") else {
                    panic!("gd grid resolved to a non-gd workload")
                };
                let plan = gd.plan.expect("plan block");
                let model = gd.build().expect("model builds");
                let pricing = Pricing::hourly(plan.price);
                let planner = match gd.log_points {
                    Some(points) => model.planner_log(plan.iterations, gd.max_n, pricing, points),
                    None => model.planner(plan.iterations, gd.max_n, pricing),
                };
                let fastest = planner.fastest();
                let cheapest = planner.cheapest();
                let deadline = plan.deadline.expect("deadline");
                let within_deadline = planner.cheapest_within_deadline(Seconds::new(deadline));
                let within_budget = planner.fastest_within_budget(plan.budget.expect("budget"));
                vec![
                    Some(fastest.n as f64),
                    Some(fastest.time.as_secs()),
                    Some(fastest.cost),
                    Some(cheapest.n as f64),
                    Some(cheapest.time.as_secs()),
                    Some(cheapest.cost),
                    within_deadline.map(|p| p.n as f64),
                    within_deadline.map(|p| p.cost),
                    within_budget.map(|p| p.n as f64),
                    within_budget.map(|p| p.time.as_secs()),
                ]
            })
            .collect();
        for threads in [1, 2] {
            // A fresh pool, then the same pool again with its caches warm.
            let pool = OrderStatCachePool::new();
            for pass in ["cold", "warm"] {
                let outcome = par::with_thread_count(threads, || run_pooled(&spec, &pool))
                    .expect("sweep runs");
                for (result, want) in outcome.points.iter().zip(&fresh) {
                    for (label, want) in PLAN_STATS.iter().zip(want) {
                        let got = result
                            .stats
                            .iter()
                            .find(|s| s.label == *label)
                            .map(|s| s.value);
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "{} {label} at {threads} thread(s), {pass} pool",
                            result.id
                        );
                    }
                }
            }
        }
    }
}
