//! Differential test for the observability layer's central contract: a
//! recorder attached to the workspace **observes** the simulation but
//! never feeds back into it, so a recorder-on run's [`SimReport`] must be
//! byte-for-byte identical (under serde_json) to the recorder-off run —
//! across task sets, every paper policy, fault scenarios, and trace
//! recording on and off. Alongside, the registry totals themselves must
//! be deterministic: two recorder-on runs of the same input count the
//! same events, and they must agree with the captured event stream and
//! the report's `JobStats`, which are tallied from the same events.

use std::io::Write;
use std::sync::{Arc, Mutex};

use mkss::obs::{
    CounterId, EchoRecorder, HistogramId, MetricsSnapshot, Registry, Reporter, TraceBuffer,
    TraceKind, TraceRecorder, DEFAULT_TRACE_CAPACITY,
};
use mkss::prelude::*;

/// A cloneable in-memory `Reporter` sink, so a test can read back what
/// the `MKSS_LOG=events` narration wrote.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl SharedSink {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn fault_configs() -> Vec<FaultConfig> {
    vec![
        FaultConfig::none(),
        FaultConfig::permanent(ProcId::PRIMARY, Time::from_ms(137)),
        FaultConfig::combined(ProcId::PRIMARY, Time::from_ms(333), 1e-4, 0xfa17),
        FaultConfig::transient(5e-4, 0x7ea5),
    ]
}

/// One run's three tallies of the same facts must agree: the per-kind
/// event counts of the capture, the registry's counter and histogram
/// delta, and the report's `JobStats`.
fn assert_tallies_agree(
    buffer: &TraceBuffer,
    delta: &MetricsSnapshot,
    stats: &JobStats,
    ctx: &str,
) {
    assert_eq!(buffer.dropped(), 0, "capture overflowed: {ctx}");
    let n = |kind: TraceKind| buffer.iter().filter(|r| r.event.kind == kind).count() as u64;
    for kind in TraceKind::ALL {
        assert_eq!(
            delta.counter(kind.counter()),
            n(kind),
            "{} events vs {} counter: {ctx}",
            kind.name(),
            kind.counter().name()
        );
    }
    let released =
        n(TraceKind::MandatoryRelease) + n(TraceKind::OptionalSelect) + n(TraceKind::OptionalSkip);
    assert_eq!(delta.counter(CounterId::JobsReleased), released, "{ctx}");
    assert_eq!(
        delta.counter(CounterId::FaultsInjected),
        n(TraceKind::TransientFault) + n(TraceKind::PermanentFault),
        "{ctx}"
    );
    let postponed = buffer
        .iter()
        .filter(|r| r.event.kind == TraceKind::BackupRelease && r.event.payload > 0)
        .count() as u64;
    assert_eq!(
        delta.counter(CounterId::BackupsPostponed),
        postponed,
        "{ctx}"
    );
    let samples = |h: HistogramId| delta.histogram(h).iter().sum::<u64>();
    assert_eq!(samples(HistogramId::BackupDelayMs), postponed, "{ctx}");
    assert_eq!(
        samples(HistogramId::MkDistance),
        n(TraceKind::JobMet) + n(TraceKind::JobMissed),
        "{ctx}"
    );
    let expected = JobStats {
        released,
        mandatory: n(TraceKind::MandatoryRelease),
        optional_selected: n(TraceKind::OptionalSelect),
        optional_skipped: n(TraceKind::OptionalSkip),
        optional_abandoned: n(TraceKind::OptionalAbandon),
        backups_canceled: n(TraceKind::BackupCancel),
        backups_completed: n(TraceKind::BackupComplete),
        transient_faults: n(TraceKind::TransientFault),
        copies_lost: n(TraceKind::CopyLost),
        met: n(TraceKind::JobMet),
        missed: n(TraceKind::JobMissed),
    };
    assert_eq!(*stats, expected, "report stats vs captured events: {ctx}");
}

#[test]
fn recorder_on_reports_are_byte_identical_to_recorder_off() {
    let horizon = Time::from_ms(500);
    let registry = Arc::new(Registry::new(1));
    let tracer = Arc::new(TraceRecorder::wrapping(
        Arc::new(registry.handle_at(0)),
        DEFAULT_TRACE_CAPACITY,
    ));
    let mut plain_ws = SimWorkspace::new();
    let mut observed_ws = SimWorkspace::with_recorder(Arc::clone(&tracer) as Arc<dyn Recorder>);
    let mut runs = 0u32;
    for (seed, util) in [(11u64, 0.3), (22, 0.5), (33, 0.7)] {
        let Some(ts) = Generator::new(WorkloadConfig::paper(), seed).schedulable_set(util) else {
            continue;
        };
        for faults in fault_configs() {
            for record_trace in [false, true] {
                let config = SimConfig::builder()
                    .horizon(horizon)
                    .faults(faults)
                    .record_trace(record_trace)
                    .build();
                for kind in PolicyKind::PAPER {
                    let mut plain_policy = kind
                        .build(&ts, &BuildOptions::default())
                        .expect("schedulable");
                    let mut observed_policy = kind
                        .build(&ts, &BuildOptions::default())
                        .expect("schedulable");
                    let plain = simulate_in(&mut plain_ws, &ts, plain_policy.as_mut(), &config);
                    let before = registry.snapshot();
                    let observed =
                        simulate_in(&mut observed_ws, &ts, observed_policy.as_mut(), &config);
                    let ctx = format!(
                        "seed {seed} util {util} policy {kind} trace {record_trace} \
                         faults {faults:?}"
                    );
                    assert_eq!(
                        serde_json::to_string(&plain).expect("report serializes"),
                        serde_json::to_string(&observed).expect("report serializes"),
                        "recorder changed the report: {ctx}"
                    );
                    assert_tallies_agree(
                        &tracer.take(),
                        &registry.snapshot().delta(&before),
                        &observed.stats,
                        &ctx,
                    );
                    runs += 1;
                }
            }
        }
    }
    assert!(runs >= 48, "differential probe barely ran ({runs} pairs)");
    // The whole sweep released work, so the registry actually heard it.
    let snap = registry.snapshot();
    assert!(snap.counter(CounterId::JobsReleased) > 0);
    assert_eq!(
        snap.counter(CounterId::JobsMet) + snap.counter(CounterId::JobsMissed),
        snap.counter(CounterId::JobsReleased),
    );
}

#[test]
fn echo_narration_carries_sim_time_and_leaves_the_report_untouched() {
    let ts = Generator::new(WorkloadConfig::paper(), 5)
        .schedulable_set(0.5)
        .expect("generatable");
    let config = SimConfig::builder()
        .horizon_ms(300)
        .faults(FaultConfig::transient(5e-4, 0x0b5))
        .build();
    let kind = PolicyKind::Selective;

    let mut plain_ws = SimWorkspace::new();
    let mut plain_policy = kind.build(&ts, &BuildOptions::default()).unwrap();
    let plain = simulate_in(&mut plain_ws, &ts, plain_policy.as_mut(), &config);

    // The MKSS_LOG=events backend: an EchoRecorder narrating to a sink
    // this test can read back.
    let sink = SharedSink::default();
    let registry = Arc::new(Registry::new(1));
    let echo = EchoRecorder::new(
        registry.handle_at(0),
        Arc::new(Reporter::with_sink(Box::new(sink.clone()))),
    );
    let mut echo_ws = SimWorkspace::with_recorder(Arc::new(echo));
    let mut echo_policy = kind.build(&ts, &BuildOptions::default()).unwrap();
    let echoed = simulate_in(&mut echo_ws, &ts, echo_policy.as_mut(), &config);

    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&echoed).unwrap(),
        "narration changed the report"
    );
    let narration = sink.text();
    let timed: Vec<&str> = narration
        .lines()
        .filter(|l| l.starts_with("event t="))
        .collect();
    assert!(
        !timed.is_empty(),
        "no structured-event narration lines in:\n{narration}"
    );
    for line in &timed {
        // Every structured line stamps the simulated instant, not wall
        // time: `event t=<N>us <kind> task=... job=...`.
        let t = line
            .strip_prefix("event t=")
            .and_then(|r| r.split_once("us "))
            .map(|(n, _)| n)
            .expect("sim-time prefix");
        assert!(
            t.chars().all(|c| c.is_ascii_digit()) && !t.is_empty(),
            "bad sim-time in narration line: {line}"
        );
        assert!(line.contains(" task="), "{line}");
        assert!(line.contains(" job="), "{line}");
    }
    // One narration line per fact, and nothing else: the `job_met` lines
    // number exactly the `jobs_met` counter folded from the same events.
    assert_eq!(timed.len(), narration.lines().count(), "{narration}");
    let met_lines = timed.iter().filter(|l| l.contains("us job_met ")).count() as u64;
    assert!(met_lines > 0, "{narration}");
    assert_eq!(
        met_lines,
        registry.snapshot().counter(CounterId::JobsMet),
        "{narration}"
    );
}

#[test]
fn flight_recorder_capture_leaves_the_report_untouched() {
    let ts = Generator::new(WorkloadConfig::paper(), 9)
        .schedulable_set(0.6)
        .expect("generatable");
    let config = SimConfig::builder()
        .horizon_ms(400)
        .faults(FaultConfig::combined(
            ProcId::SPARE,
            Time::from_ms(123),
            3e-4,
            0x77,
        ))
        .build();
    for kind in PolicyKind::PAPER {
        let mut plain_ws = SimWorkspace::new();
        let mut plain_policy = kind.build(&ts, &BuildOptions::default()).unwrap();
        let plain = simulate_in(&mut plain_ws, &ts, plain_policy.as_mut(), &config);

        let tracer = Arc::new(TraceRecorder::with_capacity(4096));
        let mut traced_ws = SimWorkspace::with_recorder(Arc::clone(&tracer) as _);
        let mut traced_policy = kind.build(&ts, &BuildOptions::default()).unwrap();
        let traced = simulate_in(&mut traced_ws, &ts, traced_policy.as_mut(), &config);

        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced).unwrap(),
            "flight recorder changed the report for {kind}"
        );
        assert!(
            !tracer.snapshot().is_empty(),
            "flight recorder captured nothing for {kind}"
        );
    }
}

#[test]
fn registry_totals_are_reproducible() {
    let ts = Generator::new(WorkloadConfig::paper(), 7)
        .schedulable_set(0.6)
        .expect("generatable");
    let config = SimConfig::builder()
        .horizon_ms(800)
        .faults(FaultConfig::combined(
            ProcId::PRIMARY,
            Time::from_ms(444),
            2e-4,
            99,
        ))
        .build();
    let mut snapshots = Vec::new();
    for _ in 0..2 {
        let registry = Arc::new(Registry::new(4));
        let mut ws = SimWorkspace::with_recorder(Arc::new(registry.handle()));
        for kind in PolicyKind::PAPER {
            let mut policy = kind.build(&ts, &BuildOptions::default()).unwrap();
            simulate_in(&mut ws, &ts, policy.as_mut(), &config);
        }
        snapshots.push(registry.snapshot());
    }
    assert_eq!(snapshots[0], snapshots[1]);
    assert!(!snapshots[0].is_zero());
}
