//! `fig6`: the paper's Figure 6 regenerated in-process at paper size —
//! 8 buckets × 20 sets × the three paper policies × all three scenarios,
//! 1 s horizon — through the `mkss_bench::experiment` harness at
//! `--jobs` = nproc.
//!
//! The untraced repetitions call the harness as the `fig6` binary does.
//! The traced repetitions run the same pipeline from the public layer
//! calls (generator draw, R-pattern RTA, policy build, `simulate_in`) so
//! each gets its own span, and must reproduce the harness's results bit
//! for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use mkss_bench::experiment::{
    run_experiment_jobs, run_experiment_observed, ExperimentConfig, HarnessObs, RunStats, Scenario,
};
use mkss_core::par;
use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_policies::{BuildOptions, PolicyKind};
use mkss_sim::engine::{simulate_in, SimConfig};
use mkss_sim::pool::WorkspacePool;

use crate::layers::{self, SimTotals, SpanFold};
use crate::probe::{self, ProbeCall};
use crate::report::Outcome;
use crate::spans::{Span, Tracer};
use crate::stats::Samples;
use crate::steal::StealMeter;
use crate::{cpu, gen, median_of, Opts};

fn configs(opts: &Opts, seed: u64) -> Vec<ExperimentConfig> {
    Scenario::ALL
        .iter()
        .map(|&scenario| {
            let mut cfg = ExperimentConfig::fig6(scenario);
            cfg.seed = seed;
            if opts.tiny {
                cfg.plan.sets_per_bucket = 2;
                cfg.plan.max_generated = 100;
                cfg.horizon = Time::from_ms(100);
            }
            cfg
        })
        .collect()
}

/// What one traced scenario produced, for the cross-checks.
struct TracedScenario {
    generated: u64,
    selective_mean: f64,
    violations: u64,
    build_errors: u64,
    totals: SimTotals,
    buckets: Vec<mkss_workload::Bucket>,
}

enum SetResult {
    Row(BTreeMap<PolicyKind, (f64, u64)>, SimTotals),
    BuildError,
}

/// One scenario through the public layer calls, mirroring
/// `run_experiment_observed` (same sets, fault plans, fold order).
fn traced_scenario(
    tracer: &Tracer,
    parent: u64,
    cfg: &ExperimentConfig,
    jobs: usize,
    pool: &WorkspacePool,
) -> TracedScenario {
    let buckets = tracer.span("fig6.generate", parent, 0, |g| {
        gen::generate(tracer, g, cfg.workload, cfg.plan, cfg.seed, jobs)
    });
    let mut policies = cfg.policies.clone();
    if !policies.contains(&PolicyKind::Static) {
        policies.push(PolicyKind::Static);
    }
    let mut work: Vec<(usize, u64, &TaskSet)> = Vec::new();
    for (b, bucket) in buckets.iter().enumerate() {
        for ts in &bucket.sets {
            work.push((b, work.len() as u64, ts));
        }
    }
    let results = tracer.span("fig6.simulate", parent, 0, |sim_span| {
        par::map_indexed(jobs, &work, |_, &(_, set_index, ts)| {
            tracer.span("fig6.set", sim_span, 0, |set_span| {
                let config = SimConfig::builder()
                    .horizon(cfg.horizon)
                    .power(cfg.power)
                    .faults(cfg.fault_plan(set_index))
                    .build();
                let mut ws = pool.checkout();
                let mut row = BTreeMap::new();
                let mut totals = SimTotals::default();
                for &kind in &policies {
                    let built = tracer.span("policies.build", set_span, 0, |_| {
                        kind.build(ts, &BuildOptions::default())
                    });
                    let Ok(mut policy) = built else {
                        return SetResult::BuildError;
                    };
                    let report = tracer.span("sim.simulate", set_span, 0, |_| {
                        simulate_in(&mut ws, ts, policy.as_mut(), &config)
                    });
                    totals.add(&report.stats);
                    row.insert(
                        kind,
                        (
                            report.total_energy().units(),
                            report.violations.len() as u64,
                        ),
                    );
                }
                SetResult::Row(row, totals)
            })
        })
    });
    let mut scenario = tracer.span("fig6.fold", parent, 0, |_| {
        let mut sums: Vec<(f64, usize)> = vec![(0.0, 0); buckets.len()];
        let mut out = TracedScenario {
            generated: buckets.iter().map(|b| b.generated).sum(),
            selective_mean: 0.0,
            violations: 0,
            build_errors: 0,
            totals: SimTotals::default(),
            buckets: Vec::new(),
        };
        for (&(b, _, _), result) in work.iter().zip(results) {
            match result {
                SetResult::BuildError => out.build_errors += 1,
                SetResult::Row(row, totals) => {
                    out.totals.absorb(totals);
                    let reference = row.get(&PolicyKind::Static).map_or(0.0, |r| r.0);
                    out.violations += PolicyKind::PAPER
                        .iter()
                        .filter_map(|k| row.get(k))
                        .map(|r| r.1)
                        .sum::<u64>();
                    if reference > 0.0 {
                        if let Some(&(energy, _)) = row.get(&PolicyKind::Selective) {
                            sums[b].0 += energy / reference;
                        }
                        sums[b].1 += 1;
                    }
                }
            }
        }
        let means: Vec<f64> = sums
            .iter()
            .filter(|s| s.1 > 0)
            .map(|s| s.0 / s.1 as f64)
            .collect();
        out.selective_mean = means.iter().sum::<f64>() / means.len() as f64;
        out
    });
    scenario.buckets = buckets;
    scenario
}

/// Checks one harness result: Theorem 1 (no (m,k) violation for any
/// paper policy) and no set dropped on a build error.
fn check_harness(out: &mut Outcome, scenario: Scenario, stats: &RunStats) {
    for kind in PolicyKind::PAPER {
        let violations = stats.violations.get(&kind).copied().unwrap_or(0);
        out.check(violations == 0, || {
            format!(
                "fig6 {}: {kind} had {violations} (m,k) violations",
                scenario.id()
            )
        });
    }
    out.check(stats.skipped_build_errors == 0, || {
        format!(
            "fig6 {}: {} sets dropped on build errors",
            scenario.id(),
            stats.skipped_build_errors
        )
    });
}

/// Independent input draws per run. Repetitions cycle through them, so
/// one run's figures average over several Fig. 6 inputs rather than
/// riding on one draw's few expensive sets.
const DRAWS: u64 = 3;

/// One input draw: its scenario configs and what its repetitions saw.
struct Draw {
    cfgs: Vec<ExperimentConfig>,
    /// Start and wall seconds, and process CPU seconds, per untraced
    /// regeneration.
    timed: Vec<(Instant, f64)>,
    cpu: Samples,
    selective: Option<f64>,
    generated: Vec<u64>,
}

pub fn run(opts: &Opts, out: &mut Outcome) {
    let jobs = par::effective_jobs(0);
    let tracer = Tracer::new(opts.trace);
    let pool = WorkspacePool::new();

    // Set-up: the configs plus one cold pass through the harness at a
    // reduced size (the quickly filled low buckets), which spawns its
    // workers and warms its arena pool.
    let mut setups = Samples::new();
    let mut draws: Vec<Draw> = Vec::new();
    for _ in 0..3 {
        let cpu0 = cpu::process_s();
        draws = (0..DRAWS)
            .map(|d| Draw {
                cfgs: configs(opts, opts.seed.wrapping_mul(DRAWS).wrapping_add(d)),
                timed: Vec::new(),
                cpu: Samples::new(),
                selective: None,
                generated: Vec::new(),
            })
            .collect();
        for cfg in &draws[0].cfgs {
            let mut warm = cfg.clone();
            warm.plan.to = 0.5;
            warm.plan.sets_per_bucket = 24;
            warm.horizon = Time::from_ms(200);
            std::hint::black_box(run_experiment_jobs(&warm, jobs));
        }
        setups.push(cpu::process_s() - cpu0);
    }
    out.e2e("setup_s", median_of(&mut setups), "s", setups.len() as u64);

    let mut plain_total = Samples::new();
    let mut traced = Samples::new();
    let mut stages: [Samples; 4] = Default::default();
    let mut fold = SpanFold::default();
    let mut shares = Samples::new();
    let mut totals = SimTotals::default();
    let mut busy_share = Samples::new();
    let mut coverage = Samples::new();
    let mut first_spans: Vec<Span> = Vec::new();
    let mut gen_buckets = Vec::new();
    let mut probe_sets: Vec<TaskSet> = Vec::new();
    let mut probe_cfg = draws[0].cfgs[2].clone();

    let steal = StealMeter::start();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
    let per_draw = if opts.trace { 2 } else { 1 };
    let mut rep = 0usize;
    // Untraced and traced repetitions alternate in the traced run, so both
    // see the same host conditions; the untraced run never traces.
    // The traced run also goes on until a `sim.us_p99` rests on enough runs.
    while rep < per_draw * DRAWS as usize
        || Instant::now() < deadline
        || (opts.trace && fold.count("sim.simulate") < layers::MIN_TAIL_SAMPLES as f64)
    {
        let traced_rep = opts.trace && rep % 2 == 1;
        let draw = &mut draws[(rep / per_draw) % DRAWS as usize];
        rep += 1;
        if !traced_rep {
            let (start, cpu0) = (Instant::now(), cpu::process_s());
            let results: Vec<_> = draw
                .cfgs
                .iter()
                .map(|cfg| run_experiment_observed(cfg, jobs, &HarnessObs::none()))
                .collect();
            let wall = start.elapsed().as_secs_f64();
            draw.cpu.push(cpu::process_s() - cpu0);
            draw.timed.push((start, wall));
            plain_total.push(wall);
            let mean = mkss_core::fold::mean_f64(
                &results
                    .iter()
                    .map(|r| r.mean_normalized(PolicyKind::Selective))
                    .collect::<Vec<_>>(),
            );
            let first = *draw.selective.get_or_insert(mean);
            out.check(first.to_bits() == mean.to_bits(), || {
                format!("fig6: selective mean {mean} differs between repetitions ({first})")
            });
            draw.generated = results.iter().map(|r| r.stats.sets_generated).collect();
            for (cfg, result) in draw.cfgs.iter().zip(&results) {
                check_harness(out, cfg.scenario, &result.stats);
            }
            let mut sum = [0.0; 4];
            for r in &results {
                let s = r.stats.stages;
                for (acc, v) in
                    sum.iter_mut()
                        .zip([s.generate_ms, s.build_ms, s.simulate_ms, s.fold_ms])
                {
                    *acc += v / 1e3;
                }
            }
            for (samples, v) in stages.iter_mut().zip(sum) {
                samples.push(v);
            }
            continue;
        }
        let start = Instant::now();
        let scenarios: Vec<(Scenario, TracedScenario)> =
            tracer.span("fig6.regenerate", 0, 0, |root| {
                draw.cfgs
                    .iter()
                    .map(|cfg| {
                        (
                            cfg.scenario,
                            tracer.span("fig6.scenario", root, 0, |s| {
                                traced_scenario(&tracer, s, cfg, jobs, &pool)
                            }),
                        )
                    })
                    .collect()
            });
        traced.push(start.elapsed().as_secs_f64());
        let spans = tracer.take();
        let root = spans
            .iter()
            .find(|s| s.name == "fig6.regenerate")
            .copied()
            .expect("root span recorded");
        fold.add(&spans);
        shares.extend(&layers::slowest_bucket_shares(&spans));
        let worker_busy: u64 = spans
            .iter()
            .filter(|s| s.name == "workload.bucket" || s.name == "fig6.set")
            .map(Span::dur_ns)
            .sum();
        busy_share.push(worker_busy as f64 / (jobs as f64 * root.dur_ns() as f64));
        coverage.push(layers::coverage(
            &spans,
            &[
                "workload.raw_set",
                "analysis.rta",
                "policies.build",
                "sim.simulate",
            ],
            root.start_ns,
            root.end_ns,
        ));
        let traced_mean = mkss_core::fold::mean_f64(
            &scenarios
                .iter()
                .map(|(_, t)| t.selective_mean)
                .collect::<Vec<_>>(),
        );
        let expected = draw.selective.unwrap_or(f64::NAN);
        out.check(traced_mean.to_bits() == expected.to_bits(), || {
            format!(
                "fig6 traced: selective mean {traced_mean} differs from the harness's {expected}"
            )
        });
        for (i, (scenario, t)) in scenarios.iter().enumerate() {
            totals.absorb(t.totals);
            out.check(t.violations == 0 && t.build_errors == 0, || {
                format!(
                    "fig6 traced {}: {} violations, {} build errors",
                    scenario.id(),
                    t.violations,
                    t.build_errors
                )
            });
            let expected = draw.generated.get(i).copied();
            out.check(expected == Some(t.generated), || {
                format!(
                    "fig6 traced {}: drew {} candidates, harness RunStats says {expected:?}",
                    scenario.id(),
                    t.generated
                )
            });
        }
        if first_spans.is_empty() {
            first_spans = spans;
            let (_, first) = &scenarios[0];
            let cfg = &draw.cfgs[0];
            out.check(
                gen::matches_library(&first.buckets, cfg.workload, cfg.plan, cfg.seed, jobs),
                || {
                    "fig6 traced: generation accepted different sets than generate_buckets_jobs"
                        .to_string()
                },
            );
            gen_buckets = first.buckets.clone();
            probe_sets = gen::flatten(&first.buckets);
            probe_cfg = draw.cfgs[2].clone();
        }
    }

    // Per draw the median regeneration, then the mean over draws; the
    // gated latency takes the stolen share out of each regeneration.
    let steal = steal.finish();
    let (mut medians, mut adjusted) = (Vec::new(), Vec::new());
    for d in &draws {
        let (mut raw, mut adj) = (Samples::new(), Samples::new());
        for &(start, wall) in &d.timed {
            raw.push(wall);
            adj.push(steal.adjust(start, wall));
        }
        medians.extend(raw.median());
        adjusted.extend(adj.median());
    }
    let fig6_s = mkss_core::fold::mean_f64(&medians);
    let n = plain_total.len() as u64;
    let cpu_medians: Vec<f64> = draws.iter_mut().filter_map(|d| d.cpu.median()).collect();
    out.e2e(
        "cpu_per_op_ms",
        mkss_core::fold::mean_f64(&cpu_medians) * 1e3,
        "ms",
        n,
    );
    out.e2e(
        "latency_p50_us",
        mkss_core::fold::mean_f64(&adjusted) * 1e6,
        "us",
        n,
    );
    out.e2e("fig6_s", fig6_s, "s", n);
    let selective: Vec<f64> = draws.iter().filter_map(|d| d.selective).collect();
    out.e2e(
        "selective_energy_norm",
        mkss_core::fold::mean_f64(&selective),
        "ratio",
        selective.len() as u64 * 3,
    );
    out.e2e(
        "peak_rss_mb",
        layers::peak_rss_mb("self").unwrap_or(f64::NAN),
        "MiB",
        1,
    );
    out.notes.push(format!(
        "fig6: {n} untraced regenerations over {DRAWS} input draws at --jobs {jobs}"
    ));

    if !opts.trace {
        return;
    }
    let reps = traced.len() as f64;
    layers::generation(
        out,
        &mut fold,
        &mut shares,
        &gen_buckets,
        reps * Scenario::ALL.len() as f64,
    );
    layers::simulation(out, &mut fold, totals, reps);
    let names = [
        "harness.generate_s",
        "harness.build_s",
        "harness.simulate_s",
        "harness.fold_s",
    ];
    for (name, samples) in names.iter().zip(stages.iter_mut()) {
        out.layer_median(name, samples, 1.0, "s");
    }
    out.layer_median("par.busy_share", &mut busy_share, 1.0, "ratio");
    out.layer_median("trace.coverage", &mut coverage, 1.0, "ratio");
    out.layer(
        "trace.overhead",
        median_of(&mut traced) / median_of(&mut plain_total),
        "ratio",
        traced.len() as u64,
    );
    out.notes.push(format!(
        "fig6 cross-check per regeneration, harness stage vs traced spans: generate {:.4} vs {:.4} s wall, \
         build {:.4} vs {:.4} s busy, simulate {:.4} vs {:.4} s busy",
        stages[0].median().unwrap_or(f64::NAN),
        fold.busy_ns("fig6.generate") / reps / 1e9,
        stages[1].median().unwrap_or(f64::NAN),
        fold.busy_ns("policies.build") / reps / 1e9,
        stages[2].median().unwrap_or(f64::NAN),
        fold.busy_ns("sim.simulate") / reps / 1e9,
    ));

    let calls: Vec<ProbeCall> = probe_sets
        .iter()
        .enumerate()
        .step_by(4)
        .map(|(i, ts)| ProbeCall {
            task_set: ts.clone(),
            policy: PolicyKind::Selective,
            config: SimConfig::builder()
                .horizon(probe_cfg.horizon)
                .power(probe_cfg.power)
                .faults(probe_cfg.fault_plan(i as u64))
                .build(),
        })
        .collect();
    probe::run(opts, out, &tracer, &calls, &mut first_spans);
    crate::write_spans(opts, out, "fig6", &first_spans);
}
