//! `engine-soak`: paper-generator task sets from the 0.5–0.9 buckets,
//! built during set-up, each simulated under the three paper policies
//! plus `dp-theta` with `simulate_in` on one reused `SimWorkspace`, on
//! one thread, recorder detached.
//!
//! Horizons are sized so every run releases about the same number of
//! jobs (long horizons), and each set gets a permanent fault plus a
//! transient rate high enough that the fault, recovery and backup paths
//! of the engine fire.

use std::sync::Arc;
use std::time::Instant;

use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_obs::{CounterId, Recorder, Registry};
use mkss_policies::{BuildOptions, PolicyKind};
use mkss_sim::engine::{simulate, simulate_in, SimConfig, SimWorkspace};
use mkss_sim::fault::FaultConfig;
use mkss_sim::proc::ProcId;
use mkss_workload::{BucketPlan, WorkloadConfig};

use crate::layers::{self, SimTotals, SpanFold};
use crate::probe::{self, ProbeCall};
use crate::report::Outcome;
use crate::spans::{Span, Tracer};
use crate::stats::Samples;
use crate::{cpu, gen, median_of, Opts};

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Static,
    PolicyKind::DualPriority,
    PolicyKind::Selective,
    PolicyKind::DualPriorityTheta,
];

/// Transient faults per millisecond of execution: at ~1–5 ms per copy,
/// a few copies in a thousand fail, so every run recovers from some.
const TRANSIENT_PER_MS: f64 = 2e-3;

struct SoakSet {
    task_set: TaskSet,
    config: SimConfig,
}

/// Horizon releasing about `jobs` jobs of `ts`, and the set's faults: a
/// permanent fault in the middle half of the horizon plus transients.
fn soak_set(ts: TaskSet, index: usize, jobs: u64, seed: u64) -> SoakSet {
    let rate_per_ms: f64 = ts.iter().map(|(_, t)| 1.0 / t.period().as_ms_f64()).sum();
    let horizon = Time::from_ms((jobs as f64 / rate_per_ms).ceil() as u64);
    let at = Time::from_ticks(horizon.ticks() / 4 + (horizon.ticks() / 2) * (index as u64 % 7) / 7);
    let proc = if index.is_multiple_of(2) {
        ProcId::PRIMARY
    } else {
        ProcId::SPARE
    };
    let faults = FaultConfig::combined(proc, at, TRANSIENT_PER_MS, seed ^ index as u64);
    SoakSet {
        task_set: ts,
        config: SimConfig::builder().horizon(horizon).faults(faults).build(),
    }
}

pub fn run(opts: &Opts, out: &mut Outcome) {
    let tracer = Tracer::new(opts.trace);
    let plan = BucketPlan {
        from: 0.5,
        to: 0.9,
        width: 0.1,
        sets_per_bucket: if opts.tiny { 2 } else { 48 },
        max_generated: if opts.tiny { 300 } else { 5_000 },
    };
    let jobs_per_run = if opts.tiny { 500 } else { 4_000 };

    // Set-up, three times: generate the sets (traced in the traced run).
    // The traced run keeps the last set-up's spans.
    let mut setups = Samples::new();
    let mut buckets = Vec::new();
    let mut setup_spans = Vec::new();
    for _ in 0..3 {
        let cpu0 = cpu::process_s();
        buckets = tracer.span("setup", 0, 0, |s| {
            gen::generate(&tracer, s, WorkloadConfig::paper(), plan, opts.seed, 1)
        });
        setups.push(cpu::process_s() - cpu0);
        setup_spans = tracer.take();
    }
    out.e2e("setup_s", median_of(&mut setups), "s", setups.len() as u64);
    let sets: Vec<SoakSet> = gen::flatten(&buckets)
        .into_iter()
        .enumerate()
        .map(|(i, ts)| soak_set(ts, i, jobs_per_run, opts.seed))
        .collect();

    let mut ws = SimWorkspace::new();
    let mut calls_plain = Samples::new();
    let mut calls_cpu = Samples::new();
    let mut pass_plain = Samples::new();
    let mut pass_traced = Samples::new();
    let mut jobs_plain = 0u64;
    let mut time_plain = 0.0;
    let mut fold = SpanFold::default();
    let mut totals = SimTotals::default();
    let mut busy_share = Samples::new();
    let mut coverage = Samples::new();
    let mut first_spans: Vec<Span> = Vec::new();
    let mut selective: Vec<f64> = Vec::new();

    // Successive passes of each kind run on successive CPUs: the host's
    // CPUs differ in speed (their neighbours differ), and a thread left to
    // the scheduler tends to stay on one, so a run would ride on which.
    let cpus = cpu::allowed_cpus();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
    let mut pass = 0usize;
    // Whole passes only, so every pass weighs the sets alike; in the
    // traced run untraced and traced passes alternate.
    // The traced run also goes on until a `sim.us_p99` rests on enough runs.
    while pass < 2
        || Instant::now() < deadline
        || (opts.trace && fold.count("sim.simulate") < layers::MIN_TAIL_SAMPLES as f64)
    {
        let traced = opts.trace && pass % 2 == 1;
        let first = pass == 0;
        let slot = if opts.trace { pass / 2 } else { pass };
        if !cpus.is_empty() {
            cpu::pin(&cpus[slot % cpus.len()..][..1]);
        }
        pass += 1;
        let pass_start = Instant::now();
        let mut pass_jobs = 0u64;
        let mut pass_totals = SimTotals::default();
        let root = tracer.now_ns();
        for (i, set) in sets.iter().enumerate() {
            let mut energies = [0.0; POLICIES.len()];
            for (p, kind) in POLICIES.iter().enumerate() {
                let (t0, cpu0) = (Instant::now(), cpu::thread_s());
                let report = if traced {
                    tracer.span("soak.call", 0, 0, |call| {
                        let mut policy = tracer
                            .span("policies.build", call, 0, |_| {
                                kind.build(&set.task_set, &BuildOptions::default())
                            })
                            .expect("generated sets are R-pattern schedulable");
                        tracer.span("sim.simulate", call, 0, |_| {
                            simulate_in(&mut ws, &set.task_set, policy.as_mut(), &set.config)
                        })
                    })
                } else {
                    let mut policy = kind
                        .build(&set.task_set, &BuildOptions::default())
                        .expect("generated sets are R-pattern schedulable");
                    simulate_in(&mut ws, &set.task_set, policy.as_mut(), &set.config)
                };
                let dt = t0.elapsed().as_secs_f64();
                let cpu_dt = cpu::thread_s() - cpu0;
                let s = report.stats;
                out.check(s.released == s.met + s.missed, || {
                    format!(
                        "soak set {i} {kind}: released {} != met {} + missed {}",
                        s.released, s.met, s.missed
                    )
                });
                pass_jobs += s.released;
                pass_totals.add(&s);
                energies[p] = report.total_energy().units();
                if !traced {
                    calls_plain.push(dt * 1e6);
                    calls_cpu.push(cpu_dt * 1e3);
                }
            }
            if first && energies[0] > 0.0 {
                selective.push(energies[2] / energies[0]);
            }
        }
        let pass_s = pass_start.elapsed().as_secs_f64();
        if traced {
            pass_traced.push(pass_s);
            let spans = tracer.take();
            fold.add(&spans);
            totals.absorb(pass_totals);
            let end = tracer.now_ns();
            let busy: u64 = spans
                .iter()
                .filter(|s| s.name == "soak.call")
                .map(Span::dur_ns)
                .sum();
            busy_share.push(busy as f64 / (end - root).max(1) as f64);
            coverage.push(layers::coverage(
                &spans,
                &["policies.build", "sim.simulate"],
                root,
                end,
            ));
            if first_spans.is_empty() {
                first_spans = spans;
            }
        } else {
            pass_plain.push(pass_s);
            jobs_plain += pass_jobs;
            time_plain += pass_s;
        }
    }

    cpu::pin(&cpus);

    // Reused-workspace reports must equal fresh `simulate` ones, and a
    // registry on the fresh run must see no engine stall.
    let registry = Arc::new(Registry::new(1));
    let mut fresh_ws =
        SimWorkspace::with_recorder(Arc::new(registry.handle()) as Arc<dyn Recorder>);
    for (i, set) in sets.iter().enumerate().step_by(3) {
        for kind in POLICIES {
            let build = || {
                kind.build(&set.task_set, &BuildOptions::default())
                    .expect("schedulable set")
            };
            let reused = simulate_in(&mut ws, &set.task_set, build().as_mut(), &set.config);
            let fresh = simulate(&set.task_set, build().as_mut(), &set.config);
            let observed = simulate_in(&mut fresh_ws, &set.task_set, build().as_mut(), &set.config);
            let json = |r| serde_json::to_string(r).expect("reports serialize");
            let same = json(&reused) == json(&fresh) && json(&fresh) == json(&observed);
            out.check(same, || {
                format!("soak set {i} {kind}: reused-workspace report differs from fresh simulate")
            });
        }
    }
    let stalls = registry.snapshot().counter(CounterId::EngineStalls);
    out.check(stalls == 0, || format!("soak: {stalls} engine stalls"));

    let jobs_per_s = jobs_plain as f64 / time_plain;
    out.e2e(
        "sim_jobs_per_s",
        jobs_per_s,
        "jobs/s",
        pass_plain.len() as u64,
    );
    out.e2e(
        "cpu_per_op_ms",
        median_of(&mut calls_cpu),
        "ms",
        calls_cpu.len() as u64,
    );
    out.e2e(
        "latency_p50_us",
        calls_plain.median().unwrap_or(f64::NAN),
        "us",
        calls_plain.len() as u64,
    );
    if let Some(p99) = calls_plain.percentile(99.0) {
        out.e2e("latency_p99_us", p99, "us", calls_plain.len() as u64);
    }
    out.e2e(
        "selective_energy_norm",
        mkss_core::fold::mean_f64(&selective),
        "ratio",
        selective.len() as u64,
    );
    out.e2e(
        "peak_rss_mb",
        layers::peak_rss_mb("self").unwrap_or(f64::NAN),
        "MiB",
        1,
    );
    out.notes.push(format!(
        "engine-soak: {} sets x {} policies, ~{jobs_per_run} jobs per run, {} untraced passes",
        sets.len(),
        POLICIES.len(),
        pass_plain.len()
    ));
    if !opts.trace {
        return;
    }
    let mut gen_fold = SpanFold::default();
    gen_fold.add(&setup_spans);
    let mut shares = layers::slowest_bucket_shares(&setup_spans);
    layers::generation(out, &mut gen_fold, &mut shares, &buckets, 1.0);
    let passes = pass_traced.len() as f64;
    layers::simulation(out, &mut fold, totals, passes);
    out.layer_median("par.busy_share", &mut busy_share, 1.0, "ratio");
    out.layer_median("trace.coverage", &mut coverage, 1.0, "ratio");
    out.layer(
        "trace.overhead",
        median_of(&mut pass_traced) / median_of(&mut pass_plain),
        "ratio",
        passes as u64,
    );

    let calls: Vec<ProbeCall> = sets
        .iter()
        .take(8)
        .map(|s| ProbeCall {
            task_set: s.task_set.clone(),
            policy: PolicyKind::Selective,
            config: s.config,
        })
        .collect();
    let mut spans = setup_spans;
    spans.extend(first_spans);
    probe::run(opts, out, &tracer, &calls, &mut spans);
    crate::write_spans(opts, out, "engine-soak", &spans);
}
