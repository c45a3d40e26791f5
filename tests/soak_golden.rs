//! Golden guard for the long-horizon, faulty runs the engine-soak
//! benchmark stresses, which `tests/event_stream_golden.rs` (500 ms
//! horizons) does not reach: each run releases about 4,000 jobs and
//! takes a permanent fault in the middle half of its horizon plus
//! transient faults at 2e-3 per ms of execution, under `st`, `dp`,
//! `selective` and `dp-theta`. A second matrix runs a 70-task set, so
//! task ids past 63 (which share one bit of the engine's release mask)
//! are pinned too. Every run hashes its report JSON and the
//! `timeline_text` of its complete event stream.

use std::sync::Arc;

use mkss::obs::{timeline_text, Recorder, TraceRecorder, DEFAULT_TRACE_CAPACITY};
use mkss::prelude::*;

/// 64-bit FNV-1a over byte strings.
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
}

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Static,
    PolicyKind::DualPriority,
    PolicyKind::Selective,
    PolicyKind::DualPriorityTheta,
];

/// The engine-soak config of set `index`: a horizon releasing about
/// `jobs` jobs, a permanent fault placed in the middle half of it (on
/// alternating processors), and seeded transients at 2e-3 per ms.
fn soak_config(ts: &TaskSet, index: u64, jobs: u64) -> SimConfig {
    let rate_per_ms: f64 = ts.iter().map(|(_, t)| 1.0 / t.period().as_ms_f64()).sum();
    let horizon = Time::from_ms((jobs as f64 / rate_per_ms).ceil() as u64);
    let at = Time::from_ticks(horizon.ticks() / 4 + (horizon.ticks() / 2) * (index % 7) / 7);
    let proc = if index.is_multiple_of(2) {
        ProcId::PRIMARY
    } else {
        ProcId::SPARE
    };
    let faults = FaultConfig::combined(proc, at, 2e-3, 0x50a6 ^ index);
    SimConfig::builder().horizon(horizon).faults(faults).build()
}

/// 70 tasks in rate-monotonic order with mixed (m,k) constraints and
/// constrained deadlines; R-pattern schedulable, so every policy builds.
fn wide_set() -> TaskSet {
    let mk = [(1, 2), (2, 3), (3, 5), (2, 4), (1, 3)];
    let tasks = (0..70u64)
        .map(|i| {
            let period = 100 + 2 * i;
            let (m, k) = mk[i as usize % mk.len()];
            Task::from_ms(period, period - 5 * (i % 3), 1 + i % 3, m, k).expect("valid task")
        })
        .collect();
    TaskSet::new(tasks).expect("non-empty")
}

/// (runs, report digest, timeline digest) over `sets` × [`POLICIES`].
fn digests(
    sets: &[Option<TaskSet>],
    faults: impl Fn(&TaskSet, u64) -> SimConfig,
) -> (u64, u64, u64) {
    let tracer = Arc::new(TraceRecorder::with_capacity(DEFAULT_TRACE_CAPACITY));
    let mut ws = SimWorkspace::with_recorder(Arc::clone(&tracer) as Arc<dyn Recorder>);
    let (mut runs, mut reports, mut timeline) = (0u64, Fnv::new(), Fnv::new());
    for (index, ts) in sets.iter().enumerate() {
        let Some(ts) = ts else {
            reports.bytes(b"no set");
            continue;
        };
        let config = faults(ts, index as u64);
        for kind in POLICIES {
            let Ok(mut policy) = kind.build(ts, &BuildOptions::default()) else {
                reports.bytes(b"unschedulable");
                continue;
            };
            let report = simulate_in(&mut ws, ts, policy.as_mut(), &config);
            reports.bytes(
                serde_json::to_string(&report)
                    .expect("report serializes")
                    .as_bytes(),
            );
            let buffer = tracer.take();
            assert_eq!(buffer.dropped(), 0, "the capture must hold the whole run");
            timeline.bytes(timeline_text(&buffer).as_bytes());
            runs += 1;
        }
    }
    (runs, reports.0, timeline.0)
}

#[test]
fn soak_reports_and_timelines_are_unchanged() {
    let sets: Vec<Option<TaskSet>> = [1u64, 2]
        .iter()
        .flat_map(|&seed| {
            [0.5, 0.6, 0.7, 0.8, 0.85]
                .map(|util| Generator::new(WorkloadConfig::paper(), seed).schedulable_set(util))
        })
        .collect();
    assert_eq!(
        digests(&sets, |ts, index| soak_config(ts, index, 4_000)),
        (GOLDEN_SOAK_RUNS, GOLDEN_SOAK_REPORTS, GOLDEN_SOAK_TIMELINE)
    );
}

#[test]
fn wide_set_reports_and_timelines_are_unchanged() {
    let ts = wide_set();
    let sets = [Some(ts.clone()), Some(ts.clone()), Some(ts)];
    // Fault-free, then the soak config on either processor.
    let wide = |ts: &TaskSet, index: u64| match index {
        0 => SimConfig::builder().horizon_ms(2_000).build(),
        _ => soak_config(ts, index, 4_000),
    };
    assert_eq!(
        digests(&sets, wide),
        (GOLDEN_WIDE_RUNS, GOLDEN_WIDE_REPORTS, GOLDEN_WIDE_TIMELINE)
    );
}

// Digests captured before the engine's time advance moved from a heap
// calendar to per-task slots; both engines must reproduce them exactly.
const GOLDEN_SOAK_RUNS: u64 = 28;
const GOLDEN_SOAK_REPORTS: u64 = 0x618e_c66c_feb7_80ae;
const GOLDEN_SOAK_TIMELINE: u64 = 0x2c4c_0154_bacb_31ce;
const GOLDEN_WIDE_RUNS: u64 = 12;
const GOLDEN_WIDE_REPORTS: u64 = 0x2613_1e73_fd28_8786;
const GOLDEN_WIDE_TIMELINE: u64 = 0xba1d_4d5f_7d94_7ae8;
