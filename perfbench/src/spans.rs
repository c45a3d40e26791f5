//! In-memory span recorder for the traced runs.
//!
//! A span is a named host-time interval with a parent span and a group
//! id (the spans of one serve request share one). The benchmark wraps
//! each call into an mkss layer in a span; spans stay in memory until the
//! run ends and are then folded into per-layer metrics and written as
//! Chrome Trace Event JSON, which Perfetto loads.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Parent span id, `0` for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Shared by every span of one request; `0` when unused.
    pub group: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread. A disabled tracer runs the wrapped
/// closures and records nothing, so one code path serves both the
/// untraced and the traced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static TID: Cell<u32> = const { Cell::new(0) });
    TID.with(|tid| {
        if tid.get() == 0 {
            // Relaxed: a unique ticket, no data is published through it.
            tid.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch, on the span clock.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id,
    /// to pass on as the parent of nested spans (`0` when disabled).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        group: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        // Relaxed: ids only need to be unique.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let result = f(id);
        let end = self.epoch.elapsed();
        let span = Span {
            id,
            parent,
            name,
            group,
            tid: thread_tid(),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking worker")
            .push(span);
        result
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span buffer lock poisoned by a panicking worker"),
        )
    }
}

/// Total length of the union of `intervals` (half-open, in any order).
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span (same order as `spans`): its duration minus
/// the part of its interval covered by its children. Overlapping
/// children (parallel workers under one parent) count once, and a child
/// reaching outside its parent is clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let clipped: Vec<(u64, u64)> = children
                .get(&span.id)
                .into_iter()
                .flatten()
                .map(|&(s, e)| (s.max(span.start_ns), e.min(span.end_ns)))
                .filter(|(s, e)| s < e)
                .collect();
            span.dur_ns() - union_ns(clipped)
        })
        .collect()
}

/// Chrome Trace Event JSON for `spans`: one complete (`X`) event per
/// span, on one process named `process`, one track per recording
/// thread, with id/parent/group/self time in the event args.
pub fn chrome_json(process: &str, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
    );
    for (span, self_ns) in spans.iter().zip(selfs) {
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"group\":{},\"self_us\":{:.3}}}}}",
            span.name,
            span.tid,
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
            span.id,
            span.parent,
            span.group,
            self_ns as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            group: 0,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_one_level_only() {
        // root [0,100) > child [10,60) > grandchild [20,50).
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 50)];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers under one parent: [10,50) and [30,70) cover [10,70).
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)];
        assert_eq!(self_times(&spans), vec![40, 40, 40]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [span(1, 0, 10, 20), span(2, 1, 0, 15), span(3, 1, 18, 40)];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn disjoint_children_and_leaves() {
        let spans = [span(1, 0, 0, 10), span(2, 1, 0, 2), span(3, 1, 5, 6)];
        assert_eq!(self_times(&spans), vec![7, 2, 1]);
    }

    #[test]
    fn union_merges_touching_and_nested_intervals() {
        assert_eq!(union_ns(vec![(5, 10), (0, 5), (2, 3), (20, 25)]), 15);
        assert_eq!(union_ns(Vec::new()), 0);
    }

    #[test]
    fn tracer_records_parent_links_and_disabled_records_nothing() {
        let tracer = Tracer::new(true);
        tracer.span("outer", 0, 7, |outer| {
            tracer.span("inner", outer, 7, |_| ());
        });
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (spans[0], spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(chrome_json("p", &spans).contains("\"ph\":\"X\""));

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, 0, |id| id), 0);
        assert!(off.take().is_empty());
    }
}
