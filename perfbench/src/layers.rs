//! Folding spans into per-layer metrics shared by every workload.

use std::collections::BTreeMap;

use mkss_sim::report::JobStats;
use mkss_workload::Bucket;

use crate::report::Outcome;
use crate::spans::{union_ns, Span};
use crate::stats::Samples;

/// Samples a p99 needs so that ten lie beyond it.
pub const MIN_TAIL_SAMPLES: usize = 1000;

/// Span durations (ns) grouped by span name, accumulated over many
/// traced repetitions.
#[derive(Debug, Default)]
pub struct SpanFold {
    by_name: BTreeMap<&'static str, Samples>,
}

impl SpanFold {
    pub fn add(&mut self, spans: &[Span]) {
        for span in spans {
            self.by_name
                .entry(span.name)
                .or_default()
                .push(span.dur_ns() as f64);
        }
    }

    pub fn samples(&mut self, name: &'static str) -> &mut Samples {
        self.by_name.entry(name).or_default()
    }

    pub fn count(&mut self, name: &'static str) -> f64 {
        self.samples(name).len() as f64
    }

    pub fn busy_ns(&mut self, name: &'static str) -> f64 {
        self.samples(name).sum()
    }
}

/// Per-unit engine counters summed over the reports of traced runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTotals {
    pub jobs_released: u64,
    pub transient_faults: u64,
    pub backups_canceled: u64,
}

impl SimTotals {
    pub fn add(&mut self, stats: &JobStats) {
        self.jobs_released += stats.released;
        self.transient_faults += stats.transient_faults;
        self.backups_canceled += stats.backups_canceled;
    }

    pub fn absorb(&mut self, other: SimTotals) {
        self.jobs_released += other.jobs_released;
        self.transient_faults += other.transient_faults;
        self.backups_canceled += other.backups_canceled;
    }
}

/// Share of the slowest `workload.bucket` span among the buckets of each
/// generation round (rounds are told apart by the buckets' parent span).
pub fn slowest_bucket_shares(spans: &[Span]) -> Samples {
    let mut rounds: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == "workload.bucket") {
        let entry = rounds.entry(span.parent).or_default();
        let dur = span.dur_ns() as f64;
        entry.0 = entry.0.max(dur);
        entry.1 += dur;
    }
    let mut shares = Samples::new();
    for (max, total) in rounds.into_values() {
        if total > 0.0 {
            shares.push(max / total);
        }
    }
    shares
}

/// Workload and analysis layer metrics from generation spans covering
/// `rounds` generation rounds that produced `buckets` each.
pub fn generation(
    out: &mut Outcome,
    fold: &mut SpanFold,
    shares: &mut Samples,
    buckets: &[Bucket],
    rounds: f64,
) {
    let generated: u64 = buckets.iter().map(|b| b.generated).sum();
    let accepted: usize = buckets.iter().map(|b| b.sets.len()).sum();
    let n = fold.count("workload.raw_set") as u64;
    out.layer(
        "workload.candidates",
        fold.count("workload.raw_set") / rounds,
        "count",
        n,
    );
    out.layer(
        "workload.accept_ratio",
        accepted as f64 / generated.max(1) as f64,
        "ratio",
        generated,
    );
    out.layer(
        "workload.raw_set_busy_s",
        fold.busy_ns("workload.raw_set") / rounds / 1e9,
        "s",
        n,
    );
    out.layer_median("workload.slowest_bucket_share", shares, 1.0, "ratio");
    let rta = fold.count("analysis.rta") as u64;
    out.layer(
        "analysis.rta_calls",
        fold.count("analysis.rta") / rounds,
        "count",
        rta,
    );
    out.layer(
        "analysis.rta_busy_s",
        fold.busy_ns("analysis.rta") / rounds / 1e9,
        "s",
        rta,
    );
    out.layer_median(
        "analysis.rta_us_p50",
        fold.samples("analysis.rta"),
        1e-3,
        "us",
    );
}

/// Policy-build and engine layer metrics from `policies.build` and
/// `sim.simulate` spans covering `units` timed units.
pub fn simulation(out: &mut Outcome, fold: &mut SpanFold, totals: SimTotals, units: f64) {
    let builds = fold.count("policies.build") as u64;
    out.layer(
        "policies.build_calls",
        fold.count("policies.build") / units,
        "count",
        builds,
    );
    out.layer_median(
        "policies.build_us_p50",
        fold.samples("policies.build"),
        1e-3,
        "us",
    );
    out.layer(
        "policies.build_busy_s",
        fold.busy_ns("policies.build") / units / 1e9,
        "s",
        builds,
    );
    let sims = fold.count("sim.simulate") as u64;
    out.layer(
        "sim.calls",
        fold.count("sim.simulate") / units,
        "count",
        sims,
    );
    out.layer(
        "sim.busy_s",
        fold.busy_ns("sim.simulate") / units / 1e9,
        "s",
        sims,
    );
    out.layer_median("sim.us_p50", fold.samples("sim.simulate"), 1e-3, "us");
    out.layer_percentile("sim.us_p99", fold.samples("sim.simulate"), 99.0, 1e-3, "us");
    out.layer(
        "sim.ns_per_job",
        fold.busy_ns("sim.simulate") / totals.jobs_released.max(1) as f64,
        "ns",
        sims,
    );
    out.layer(
        "sim.jobs_released",
        totals.jobs_released as f64 / units,
        "count",
        sims,
    );
    out.layer(
        "sim.transient_faults",
        totals.transient_faults as f64 / units,
        "count",
        sims,
    );
    out.layer(
        "sim.backups_canceled",
        totals.backups_canceled as f64 / units,
        "count",
        sims,
    );
}

/// Fraction of `[start, end)` covered by the union of the named spans.
pub fn coverage(spans: &[Span], names: &[&str], start: u64, end: u64) -> f64 {
    let covered = union_ns(
        spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.start_ns.max(start), s.end_ns.min(end)))
            .filter(|(s, e)| s < e)
            .collect(),
    );
    covered as f64 / (end - start).max(1) as f64
}

/// High-water resident memory of process `pid` (`self` for this one),
/// in MiB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
