//! The [`Recorder`] trait — the only thing emit sites know about — and the
//! trivial and composing implementations around it.

use std::sync::Arc;

use crate::registry::RecorderHandle;
use crate::reporter::Reporter;
use crate::trace::EngineEvent;

/// Sink for engine events: one call per simulated fact.
///
/// Implementations must be cheap and non-blocking: emit sites sit inside
/// the simulator inner loop. They must also be oblivious — a recorder
/// observes the simulation but never feeds back into it, which is what
/// makes recorder-on and recorder-off runs byte-identical.
///
/// Counters and histograms are not emitted separately; a
/// [`RecorderHandle`] derives them from each event through one table, so
/// the counter totals and a captured trace cannot disagree:
///
/// | event kind | counters bumped | histogram sample |
/// |---|---|---|
/// | `mandatory_release`, `optional_select`, `optional_skip` | `jobs_released` + [`TraceKind::counter`](crate::TraceKind::counter) | — |
/// | `backup_release` | `backups_released`; if payload θ > 0 also `backups_postponed` | `backup_delay_ms` = ⌈θ/1000⌉ when θ > 0 |
/// | `transient_fault`, `permanent_fault` | `faults_injected` + its own counter | — |
/// | `job_met`, `job_missed` | its own counter | `mk_distance` = payload |
/// | every other kind | its own counter | — |
pub trait Recorder: Send + Sync {
    /// Receive one structured engine event.
    fn event(&self, event: &EngineEvent);
}

/// A recorder that discards everything.
///
/// Its one method is an empty `#[inline]` body, so with this recorder
/// attached an emit site reduces to a virtual call returning immediately;
/// with no recorder attached at all (`None`), it reduces to one branch.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn event(&self, _event: &EngineEvent) {}
}

/// Identifier of one request served by a long-running process, used to
/// scope recorded events to the request that caused them.
///
/// The id itself is an opaque sequence number minted by the server (not
/// the client-supplied correlation id, which is echoed in the protocol
/// instead); its only job is to name the scope in logs and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// A recorder that scopes events to one request: every event is written
/// to a request-local sink (typically a single-shard [`Registry`] whose
/// snapshot becomes the response's per-request metrics) **and** forwarded
/// to an optional process-global sink.
///
/// Because the same event lands in both sinks, per-request snapshots sum
/// exactly to the global totals — the separability invariant the
/// `mkss-serve` loadgen differential asserts. Like every recorder, it is
/// oblivious: responses are byte-identical whether the global tee is
/// attached or not.
pub struct ScopedRecorder {
    request: RequestId,
    local: Arc<dyn Recorder>,
    global: Option<Arc<dyn Recorder>>,
}

impl ScopedRecorder {
    /// Scope `local` to `request`, teeing every event into `global` too.
    pub fn new(
        request: RequestId,
        local: Arc<dyn Recorder>,
        global: Option<Arc<dyn Recorder>>,
    ) -> ScopedRecorder {
        ScopedRecorder {
            request,
            local,
            global,
        }
    }

    /// The request this recorder is scoped to.
    pub fn request(&self) -> RequestId {
        self.request
    }
}

impl std::fmt::Debug for ScopedRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedRecorder")
            .field("request", &self.request)
            .field("global", &self.global.is_some())
            .finish_non_exhaustive()
    }
}

impl Recorder for ScopedRecorder {
    #[inline]
    fn event(&self, event: &EngineEvent) {
        self.local.event(event);
        if let Some(global) = &self.global {
            global.event(event);
        }
    }
}

/// A recorder that aggregates into a registry shard *and* narrates each
/// event as one line on a [`Reporter`] — the `MKSS_LOG=events` backend.
/// Strictly a debugging aid: it is far too chatty for the bench harness
/// and is only wired into the CLI and examples.
#[derive(Debug)]
pub struct EchoRecorder {
    handle: RecorderHandle,
    reporter: Arc<Reporter>,
}

impl EchoRecorder {
    /// Wrap a registry handle so every event is also echoed to `reporter`.
    pub fn new(handle: RecorderHandle, reporter: Arc<Reporter>) -> Self {
        EchoRecorder { handle, reporter }
    }
}

impl Recorder for EchoRecorder {
    fn event(&self, event: &EngineEvent) {
        self.handle.event(event);
        self.reporter.line(&format!(
            "event t={}us {} task={} job={} copy={} payload={}",
            event.at_us,
            event.kind.name(),
            event.task,
            event.job,
            event.copy.name(),
            event.payload
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterId, HistogramId};
    use crate::registry::Registry;
    use crate::trace::{CopyRole, TraceKind, PROC_NONE};

    fn ev(kind: TraceKind, payload: u64) -> EngineEvent {
        EngineEvent {
            at_us: 10,
            kind,
            task: 1,
            job: 2,
            copy: CopyRole::None,
            proc: PROC_NONE,
            payload,
        }
    }

    #[test]
    fn noop_recorder_is_callable_through_dyn() {
        let r: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        r.event(&ev(TraceKind::JobMet, 3));
    }

    #[test]
    fn scoped_recorder_tees_into_both_sinks() {
        let local = Arc::new(Registry::new(1));
        let global = Arc::new(Registry::new(1));
        let scoped = ScopedRecorder::new(
            RequestId(7),
            Arc::new(local.handle_at(0)),
            Some(Arc::new(global.handle_at(0))),
        );
        scoped.event(&ev(TraceKind::JobMet, 2));
        assert_eq!(scoped.request(), RequestId(7));
        assert_eq!(scoped.request().to_string(), "req-7");
        for registry in [&local, &global] {
            let snap = registry.snapshot();
            assert_eq!(snap.counter(CounterId::JobsMet), 1);
            assert_eq!(snap.histogram(HistogramId::MkDistance)[2], 1);
        }
    }

    #[test]
    fn scoped_recorder_without_global_only_writes_locally() {
        let local = Arc::new(Registry::new(1));
        let scoped = ScopedRecorder::new(RequestId(0), Arc::new(local.handle_at(0)), None);
        scoped.event(&ev(TraceKind::BackupCancel, 0));
        assert_eq!(local.snapshot().counter(CounterId::BackupsCanceled), 1);
    }

    #[test]
    fn echo_recorder_aggregates_and_narrates() {
        // Narration text is checked end to end in tests/obs_differential.rs.
        let registry = Arc::new(Registry::new(1));
        let reporter = Arc::new(Reporter::with_sink(Box::new(std::io::sink())));
        let echo = EchoRecorder::new(registry.handle_at(0), reporter);
        echo.event(&ev(TraceKind::BackupCancel, 0));
        echo.event(&ev(TraceKind::BackupRelease, 4_000));
        let snap = registry.snapshot();
        assert_eq!(snap.counter(CounterId::BackupsCanceled), 1);
        assert_eq!(snap.counter(CounterId::BackupsPostponed), 1);
        assert_eq!(snap.histogram(HistogramId::BackupDelayMs)[3], 1);
    }
}
