//! Metric rows, the human-readable result lines, the full result file,
//! and the one-line JSON result that ends standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Samples;

/// End-to-end metrics of the JSON result line (`--trace 0`), each
/// defined on every workload; the workload-specific figures (`fig6_s`,
/// `sim_jobs_per_s`, `req_per_s`, `latency_p99_us`, `error_rate`) are
/// printed beside them.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "latency_p50_us",
    "cpu_per_op_ms",
    "peak_rss_mb",
    "selective_energy_norm",
];

/// Per-layer metrics of the JSON result line (`--trace 1`).
pub const PER_LAYER: [&str; 36] = [
    "workload.candidates",
    "workload.accept_ratio",
    "workload.raw_set_busy_s",
    "workload.slowest_bucket_share",
    "analysis.rta_calls",
    "analysis.rta_busy_s",
    "analysis.rta_us_p50",
    "analysis.postpone_us_p50",
    "policies.build_calls",
    "policies.build_us_p50",
    "policies.build_busy_s",
    "sim.calls",
    "sim.busy_s",
    "sim.us_p50",
    "sim.us_p99",
    "sim.ns_per_job",
    "sim.jobs_released",
    "sim.transient_faults",
    "sim.backups_canceled",
    "obs.registry_overhead",
    "obs.trace_overhead",
    "serve.parse_us_p50",
    "serve.execute_us_p50",
    "serve.execute_us_p99",
    "serve.roundtrip_us_p50",
    "serve.transport_us_p50",
    "serve.queue_depth_p99",
    "serve.rejected",
    "serve.response_bytes",
    "harness.generate_s",
    "harness.build_s",
    "harness.simulate_s",
    "harness.fold_s",
    "par.busy_share",
    "trace.overhead",
    "trace.coverage",
];

/// One measured figure with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for stderr.
    pub failures: Vec<String>,
    /// Free-form lines (cross-checks, where the span file went).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        push(&mut self.end_to_end, name, value, unit, samples);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        push(&mut self.layers, name, value, unit, samples);
    }

    pub fn has_layer(&self, name: &str) -> bool {
        self.layers.iter().any(|m| m.name == name)
    }

    /// Median of `samples` as a layer metric (skipped when empty).
    pub fn layer_median(
        &mut self,
        name: &str,
        samples: &mut Samples,
        scale: f64,
        unit: &'static str,
    ) {
        if let Some(median) = samples.median() {
            self.layer(name, median * scale, unit, samples.len() as u64);
        }
    }

    /// Percentile of `samples` as a layer metric, skipped unless ten
    /// samples lie beyond it.
    pub fn layer_percentile(
        &mut self,
        name: &str,
        samples: &mut Samples,
        q: f64,
        scale: f64,
        unit: &'static str,
    ) {
        if let Some(value) = samples.percentile(q) {
            self.layer(name, value * scale, unit, samples.len() as u64);
        }
    }

    /// Counts one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str, samples: u64) {
    list.retain(|m| m.name != name);
    list.push(Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    });
}

/// Identity of the host and build a result was taken on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Host {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc,
            commit: std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
        }
    }
}

fn json_string(out: &mut String, s: &str) {
    mkss_serve::json::push_json_string(out, s);
}

fn metric_rows(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(out, &m.name);
        let _ = write!(out, ":{{\"value\":{},\"unit\":", m.value);
        json_string(out, m.unit);
        let _ = write!(out, ",\"samples\":{}}}", m.samples);
    }
    out.push('}');
}

/// The full result document (host, every metric with sample counts,
/// failures, notes) written beside the span file.
pub fn result_document(
    workload: &str,
    seed: u64,
    trace: bool,
    host: &Host,
    outcome: &Outcome,
) -> String {
    let mut out = String::new();
    out.push_str("{\"workload\":");
    json_string(&mut out, workload);
    let _ = write!(
        out,
        ",\"seed\":{seed},\"trace\":{trace},\"host\":{{\"nproc\":{},\"rustc\":",
        host.nproc
    );
    json_string(&mut out, &host.rustc);
    out.push_str(",\"commit\":");
    json_string(&mut out, &host.commit);
    let _ = write!(
        out,
        "}},\"attempted\":{},\"failed\":{},\"error_rate\":{},\"end_to_end\":",
        outcome.attempted,
        outcome.failed,
        outcome.error_rate()
    );
    metric_rows(&mut out, &outcome.end_to_end);
    out.push_str(",\"per_layer\":");
    metric_rows(&mut out, &outcome.layers);
    out.push_str(",\"failures\":[");
    for (i, f) in outcome.failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(&mut out, f);
    }
    out.push_str("],\"notes\":[");
    for (i, n) in outcome.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(&mut out, n);
    }
    out.push_str("]}\n");
    out
}

/// Human-readable lines: host, every metric with unit and sample count.
pub fn human_lines(
    workload: &str,
    seed: u64,
    trace: bool,
    host: &Host,
    outcome: &Outcome,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# workload {workload} seed {seed} trace {} | nproc {} | {} | commit {}",
        u8::from(trace),
        host.nproc,
        host.rustc,
        host.commit
    );
    for (kind, list) in [("e2e", &outcome.end_to_end), ("layer", &outcome.layers)] {
        for m in list {
            let _ = writeln!(
                out,
                "{kind:5} {:32} {:>16.6} {:8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    let _ = writeln!(
        out,
        "check attempted={} failed={} error_rate={}",
        outcome.attempted,
        outcome.failed,
        outcome.error_rate()
    );
    for note in &outcome.notes {
        let _ = writeln!(out, "note  {note}");
    }
    out
}

/// The result line that ends standard output: `correct`, `attempted`,
/// `failed` and the `END_TO_END` (untraced) or `PER_LAYER` (traced)
/// metrics with value and unit. Errors name a metric that is missing or
/// not finite — a benchmark bug, never a result.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let (names, list): (&[&str], _) = if trace {
        (&PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    let by_name: BTreeMap<&str, &Metric> = list.iter().map(|m| (m.name.as_str(), m)).collect();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, name) in names.iter().enumerate() {
        let metric = by_name
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !metric.value.is_finite() {
            return Err(format!("metric {name} is not finite ({})", metric.value));
        }
        if i > 0 {
            out.push(',');
        }
        json_string(&mut out, name);
        let _ = write!(out, ":{{\"value\":{},\"unit\":", metric.value);
        json_string(&mut out, metric.unit);
        out.push('}');
    }
    out.push_str("}}");
    Ok(out)
}
