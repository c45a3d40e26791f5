//! Smoke test: every workload at tiny size, untraced and traced, prints
//! exactly the metric names `BENCHMARK.json` lists (with units), the
//! workload-specific end-to-end names with sample counts, zero failed
//! checks, and (traced) a span file with complete events.

use std::path::Path;
use std::process::Command;

use mkss_serve::json::{self, JsonValue};

fn names(doc: &JsonValue, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("BENCHMARK.json list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

fn object_keys(value: &JsonValue) -> Vec<String> {
    match value {
        JsonValue::Object(members) => members.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn every_workload_prints_every_metric_with_no_failed_check() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench_text = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = json::parse(&bench_text).expect("BENCHMARK.json parses");
    let plan =
        json::parse(&std::fs::read_to_string(manifest.join("plan.json")).expect("plan.json"))
            .expect("plan.json parses");
    assert_eq!(
        names(&bench, "per_layer"),
        object_keys(plan.get("per_layer").expect("plan per_layer"))
    );
    assert_eq!(
        names(&bench, "end_to_end"),
        object_keys(plan.get("end_to_end").expect("plan end_to_end"))
    );
    let out_dir = "out/smoke";
    let specific = [
        ("fig6", vec!["fig6_s", "error_rate"]),
        ("engine-soak", vec!["sim_jobs_per_s", "error_rate"]),
        (
            "serve-mix",
            vec!["req_per_s", "latency_p99_us", "error_rate"],
        ),
    ];
    for (workload, extra) in &specific {
        for trace in ["0", "1"] {
            let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(manifest)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "0.3",
                    "--trace",
                    trace,
                ])
                .args(["--size", "tiny", "--out-dir", out_dir])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                output.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{stderr}"
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("result line is JSON");
            assert_eq!(
                object_keys(&result),
                ["correct", "attempted", "failed", "metrics"]
            );
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true),
                "{workload} trace {trace}:\n{stderr}"
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(
                result
                    .get("attempted")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
                    >= 1
            );
            let metrics = result.get("metrics").expect("metrics");
            let list = if trace == "0" {
                "end_to_end"
            } else {
                "per_layer"
            };
            assert_eq!(
                object_keys(metrics),
                names(&bench, list),
                "{workload} trace {trace}"
            );
            for entry in bench
                .get(list)
                .and_then(JsonValue::as_array)
                .expect("metric list")
            {
                let name = entry.get("name").and_then(JsonValue::as_str).expect("name");
                let metric = metrics.get(name).expect("metric present");
                assert_eq!(
                    metric.get("unit").and_then(JsonValue::as_str),
                    entry.get("unit").and_then(JsonValue::as_str),
                    "{name}"
                );
                assert!(
                    metric
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .is_some_and(f64::is_finite),
                    "{name}"
                );
            }
            for name in extra {
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with("e2e") && l.split_whitespace().nth(1) == Some(name))
                    .unwrap_or_else(|| panic!("{workload}: no e2e line for {name}:\n{stdout}"));
                assert!(line.contains(" n="), "{line}");
            }
            let error_rate = stdout
                .lines()
                .find(|l| l.split_whitespace().nth(1) == Some("error_rate"))
                .expect("error_rate line");
            assert_eq!(
                error_rate.split_whitespace().nth(2),
                Some("0.000000"),
                "{error_rate}"
            );
            assert!(
                stdout.contains("| nproc ") && stdout.contains("rustc"),
                "host line missing:\n{stdout}"
            );
            if trace == "1" {
                let spans = manifest
                    .join(out_dir)
                    .join(format!("spans-{workload}-seed3.json"));
                let text = std::fs::read_to_string(&spans).expect("span file written");
                let doc = json::parse(&text).expect("span file is JSON");
                let events = doc
                    .get("traceEvents")
                    .and_then(JsonValue::as_array)
                    .expect("traceEvents");
                assert!(
                    events
                        .iter()
                        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
                        .count()
                        > 10
                );
            }
        }
    }
}
