//! Golden guard for everything the engine's event stream feeds.
//!
//! Each simulated fact reaches four places: the run's `JobStats`, the
//! registry's counters and histograms, the flight recorder's captured
//! events (and their Chrome/timeline exports), and the `mkss-serve`
//! response lines that embed per-request metrics. These tests pin a
//! digest of each over a fixed matrix — seeds 1–6, four utilizations,
//! five fault plans, every `PolicyKind`, a 500 ms horizon — so a change
//! to how the engine records facts that moves a single report byte,
//! counter cell, trace line or response byte fails here.

use std::sync::Arc;

use mkss::obs::{
    chrome_trace, timeline_text, CounterId, HistogramId, MetricsSnapshot, Recorder, Registry,
    TraceRecorder, DEFAULT_TRACE_CAPACITY,
};
use mkss::prelude::*;
use mkss_serve::{execute, ExecEnv, Request};

/// 64-bit FNV-1a over a stream of `u64` words and byte strings.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn snapshot(&mut self, snap: &MetricsSnapshot) {
        for counter in CounterId::ALL {
            self.word(snap.counter(counter));
        }
        for histogram in HistogramId::ALL {
            for &cell in snap.histogram(histogram) {
                self.word(cell);
            }
        }
    }
}

/// The fault plans of `tests/workspace_differential.rs`.
fn fault_configs() -> Vec<FaultConfig> {
    vec![
        FaultConfig::none(),
        FaultConfig::permanent(ProcId::PRIMARY, Time::from_ms(137)),
        FaultConfig::permanent(ProcId::SPARE, Time::from_ms(61)),
        FaultConfig::combined(ProcId::PRIMARY, Time::from_ms(333), 1e-4, 0xfa17),
        FaultConfig::transient(5e-4, 0x7ea5),
    ]
}

/// Digests of the simulation matrix, one per consumer of the stream.
#[derive(Debug, PartialEq, Eq)]
struct MatrixDigests {
    runs: u64,
    reports: u64,
    registry: u64,
    chrome: u64,
    timeline: u64,
}

/// Run the matrix with a registry attached through a flight recorder.
/// Each run hashes its report's JSON, its registry delta and its
/// timeline; each (seed, utilization, fault plan) cell hashes one Chrome
/// trace labeled by policy, the shape `mkss-cli compare --trace-out`
/// writes.
fn matrix_digests() -> MatrixDigests {
    let registry = Arc::new(Registry::new(1));
    let tracer = Arc::new(TraceRecorder::wrapping(
        Arc::new(registry.handle_at(0)),
        DEFAULT_TRACE_CAPACITY,
    ));
    let mut ws = SimWorkspace::with_recorder(Arc::clone(&tracer) as Arc<dyn Recorder>);
    let horizon = Time::from_ms(500);
    let mut runs = 0u64;
    let mut reports = Fnv::new();
    let mut cells = Fnv::new();
    let mut chrome = Fnv::new();
    let mut timeline = Fnv::new();
    for seed in 1..=6u64 {
        for util in [0.3, 0.5, 0.7, 0.9] {
            let Some(ts) = Generator::new(WorkloadConfig::paper(), seed).schedulable_set(util)
            else {
                reports.word(u64::MAX);
                continue;
            };
            for faults in fault_configs() {
                let config = SimConfig::builder().horizon(horizon).faults(faults).build();
                let mut buffers = Vec::new();
                for kind in PolicyKind::ALL {
                    let Ok(mut policy) = kind.build(&ts, &BuildOptions::default()) else {
                        reports.word(u64::MAX - 1);
                        continue;
                    };
                    let before = registry.snapshot();
                    let report = simulate_in(&mut ws, &ts, policy.as_mut(), &config);
                    reports.bytes(
                        serde_json::to_string(&report)
                            .expect("report serializes")
                            .as_bytes(),
                    );
                    cells.snapshot(&registry.snapshot().delta(&before));
                    let buffer = tracer.take();
                    timeline.bytes(timeline_text(&buffer).as_bytes());
                    buffers.push((kind.to_string(), buffer));
                    runs += 1;
                }
                let labeled: Vec<(&str, &_)> = buffers
                    .iter()
                    .map(|(label, buffer)| (label.as_str(), buffer))
                    .collect();
                chrome.bytes(chrome_trace(&labeled).as_bytes());
            }
        }
    }
    cells.snapshot(&registry.snapshot());
    MatrixDigests {
        runs,
        reports: reports.0,
        registry: cells.0,
        chrome: chrome.0,
        timeline: timeline.0,
    }
}

#[test]
fn reports_registry_cells_and_trace_exports_are_unchanged() {
    let digests = matrix_digests();
    assert_eq!(
        digests,
        MatrixDigests {
            runs: GOLDEN_RUNS,
            reports: GOLDEN_REPORTS,
            registry: GOLDEN_REGISTRY,
            chrome: GOLDEN_CHROME,
            timeline: GOLDEN_TIMELINE,
        }
    );
}

/// One simulate line over a two-task set with seeded transient faults.
fn simulate_line(id: u64, policy: &str, trace: &str) -> String {
    format!(
        r#"{{"id": {id}, "op": "simulate", "task_set": {{"tasks": [{{"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}}, {{"period_ms": 10, "wcet_ms": 3, "m": 1, "k": 2}}]}}, "policy": "{policy}", "horizon_ms": 300, "faults": {{"seed": {id}, "transient_per_ms": 0.002}}{trace}}}"#
    )
}

fn serve_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (i, policy) in ["st", "dp", "selective", "greedy"].iter().enumerate() {
        let id = i as u64 + 1;
        lines.push(simulate_line(id, policy, ""));
        lines.push(simulate_line(id + 10, policy, r#", "trace": {"last": 48}"#));
    }
    lines.push(
        r#"{"id": 30, "op": "simulate", "task_set": {"tasks": [{"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}]}, "policy": "selective", "horizon_ms": 200, "faults": {"permanent": {"proc": 0, "at_ms": 47}}, "trace": {"last": 4096}}"#
            .to_string(),
    );
    lines.push(
        r#"{"id": 31, "op": "compare", "task_set": {"tasks": [{"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}, {"period_ms": 10, "wcet_ms": 3, "m": 1, "k": 2}]}, "horizon_ms": 250, "faults": {"seed": 5, "transient_per_ms": 0.003}, "policies": ["st", "dp", "selective"]}"#
            .to_string(),
    );
    lines.push(
        r#"{"id": 32, "op": "sweep", "task_set": {"tasks": [{"period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4}]}, "policy": "selective", "horizon_ms": 150, "faults": {"transient_per_ms": 0.004}, "seeds": 6, "seed_from": 7}"#
            .to_string(),
    );
    lines
}

#[test]
fn serve_response_bytes_are_unchanged() {
    let pool = WorkspacePool::new();
    let global = Arc::new(Registry::new(2));
    let env = ExecEnv {
        pool: &pool,
        global: Some(Arc::new(global.handle()) as Arc<dyn Recorder>),
        fanout: 2,
    };
    let mut responses = Fnv::new();
    for line in serve_lines() {
        let request = Request::parse(&line).expect("valid request");
        let response = execute(&request, &env);
        assert!(response.contains("\"ok\":true"), "{response}");
        responses.bytes(response.as_bytes());
    }
    let mut totals = Fnv::new();
    totals.snapshot(&global.snapshot());
    assert_eq!(
        (responses.0, totals.0),
        (GOLDEN_SERVE_RESPONSES, GOLDEN_SERVE_GLOBAL)
    );
}

// Digests of the matrix and serve lines above; every consumer of the event
// stream must reproduce them exactly.
const GOLDEN_RUNS: u64 = 1170;
const GOLDEN_REPORTS: u64 = 0x8b1c_bcf6_13c9_ce7c;
const GOLDEN_REGISTRY: u64 = 0x3c05_f8f6_5002_8ea6;
const GOLDEN_CHROME: u64 = 0xab5d_8591_19d4_5901;
const GOLDEN_TIMELINE: u64 = 0x7b79_9944_16a6_cf35;
const GOLDEN_SERVE_RESPONSES: u64 = 0xc404_b339_8112_169a;
const GOLDEN_SERVE_GLOBAL: u64 = 0xabde_3f49_1977_c0f3;
