//! Smoke run: every workload at tiny size, untraced and traced, must
//! pass its output checks and print exactly the metrics `BENCHMARK.json`
//! names, each with the unit it gives.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use serde::Value;
use std::path::Path;
use std::process::Command;

fn field<'v>(value: &'v Value, name: &str) -> &'v Value {
    let map = value.as_map().expect("a JSON object");
    serde::field(map, name)
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(benchmark: &Value, list: &str) -> Vec<(String, String)> {
    field(benchmark, list)
        .as_seq()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let text = |key| field(m, key).as_str().expect("a string").to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric_with_its_unit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let benchmark = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
    let workloads = field(&benchmark, "workloads").as_seq().expect("workloads");
    assert!(workloads.len() >= 2);
    for workload in workloads {
        let name = field(workload, "name").as_str().expect("a workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(&root)
                .args(["--workload", name, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("perfbench runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::value_from_str(last).expect("the result line is JSON");
            let keys: Vec<&str> = result
                .as_map()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{name}");
            let metrics = field(&result, "metrics").as_map().expect("metrics");
            let mut reported: Vec<(String, String)> = metrics
                .iter()
                .map(|(metric, m)| {
                    let unit = field(m, "unit").as_str().expect("a unit").to_string();
                    let value = match field(m, "value") {
                        Value::F64(v) => *v,
                        Value::U64(v) => *v as f64,
                        Value::I64(v) => *v as f64,
                        other => panic!("{name}: {metric} is not a number: {other:?}"),
                    };
                    // End-to-end metrics are never 0: their bounds are
                    // shares of their medians.
                    assert!(
                        trace == "1" || value > 0.0,
                        "{name}: {metric} reads {value}"
                    );
                    (metric.clone(), unit)
                })
                .collect();
            let mut want = declared(&benchmark, list);
            reported.sort();
            want.sort();
            assert_eq!(reported, want, "{name} --trace {trace}");
        }
    }
}
