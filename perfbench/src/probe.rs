//! The traced run's layer probe: after the timed window, each layer the
//! workload's own traffic does not isolate is timed directly on the
//! workload's task sets, so every per-layer metric is measured on every
//! workload. On a workload whose end-to-end metrics do not pass through
//! a layer, that layer's figures are the "no change" side of a claim.

use std::sync::Arc;
use std::time::Instant;

use mkss_analysis::postpone::{postponement_intervals, PostponeConfig};
use mkss_bench::experiment::{run_experiment_observed, ExperimentConfig, HarnessObs, Scenario};
use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_obs::{Recorder, Registry, TraceRecorder, DEFAULT_TRACE_CAPACITY};
use mkss_policies::{BuildOptions, PolicyKind};
use mkss_sim::engine::{simulate_in, SimConfig, SimWorkspace};

use crate::layers::{self, SimTotals, SpanFold};
use crate::report::Outcome;
use crate::serve_mix;
use crate::spans::{Span, Tracer};
use crate::stats::Samples;
use crate::{median_of, Opts};

/// One simulation the probe may replay: a set, a policy and a scenario
/// taken from the workload's own inputs.
pub struct ProbeCall {
    pub task_set: TaskSet,
    pub policy: PolicyKind,
    pub config: SimConfig,
}

fn timed_pass(calls: &[ProbeCall], recorder: &Option<Arc<dyn Recorder>>) -> f64 {
    let mut ws = SimWorkspace::new();
    ws.set_recorder(recorder.clone());
    let mut total = 0.0;
    for call in calls {
        let mut policy = call
            .policy
            .build(&call.task_set, &BuildOptions::default())
            .expect("probe sets are schedulable");
        let start = Instant::now();
        std::hint::black_box(simulate_in(
            &mut ws,
            &call.task_set,
            policy.as_mut(),
            &call.config,
        ));
        total += start.elapsed().as_secs_f64();
    }
    total
}

pub fn run(
    opts: &Opts,
    out: &mut Outcome,
    tracer: &Tracer,
    calls: &[ProbeCall],
    spans: &mut Vec<Span>,
) {
    if calls.is_empty() {
        out.check(false, || {
            "probe: the workload produced no task sets".to_string()
        });
        return;
    }
    // θ analysis, once per set per θ-using build.
    let mut postpone = Samples::new();
    while postpone.len() < 20 {
        for call in calls {
            let start = Instant::now();
            let theta = tracer.span("analysis.postpone", 0, 0, |_| {
                postponement_intervals(&call.task_set, PostponeConfig::default())
            });
            postpone.push(start.elapsed().as_secs_f64() * 1e6);
            out.check(theta.is_ok(), || {
                format!("probe: postponement analysis failed: {theta:?}")
            });
        }
    }
    out.layer_median("analysis.postpone_us_p50", &mut postpone, 1.0, "us");
    spans.extend(tracer.take());

    // Recorder overheads: the same runs detached, through a registry and
    // through the flight recorder, alternated three times.
    let registry = Arc::new(Registry::new(1));
    let modes: [Option<Arc<dyn Recorder>>; 3] = [
        None,
        Some(Arc::new(registry.handle())),
        Some(Arc::new(TraceRecorder::with_capacity(
            DEFAULT_TRACE_CAPACITY,
        ))),
    ];
    let mut times: [Samples; 3] = Default::default();
    for _ in 0..3 {
        for (mode, samples) in modes.iter().zip(times.iter_mut()) {
            samples.push(timed_pass(calls, mode));
        }
    }
    let detached = median_of(&mut times[0]);
    out.layer(
        "obs.registry_overhead",
        median_of(&mut times[1]) / detached,
        "ratio",
        3,
    );
    out.layer(
        "obs.trace_overhead",
        median_of(&mut times[2]) / detached,
        "ratio",
        3,
    );

    // Build and engine layers, when the workload's traffic ran them out
    // of reach (inside the daemon).
    if !out.has_layer("sim.calls") {
        let mut ws = SimWorkspace::new();
        let mut fold = SpanFold::default();
        let mut totals = SimTotals::default();
        let mut passes = 0.0;
        let mut first = true;
        while fold.count("sim.simulate") < layers::MIN_TAIL_SAMPLES as f64 {
            for call in calls {
                let mut policy = tracer
                    .span("policies.build", 0, 0, |_| {
                        call.policy.build(&call.task_set, &BuildOptions::default())
                    })
                    .expect("probe sets are schedulable");
                let report = tracer.span("sim.simulate", 0, 0, |_| {
                    simulate_in(&mut ws, &call.task_set, policy.as_mut(), &call.config)
                });
                totals.add(&report.stats);
            }
            let pass_spans = tracer.take();
            fold.add(&pass_spans);
            if first {
                spans.extend(pass_spans);
                first = false;
            }
            passes += 1.0;
        }
        layers::simulation(out, &mut fold, totals, passes);
    }

    // The serve layers, through a short daemon session on simulate lines
    // built from the workload's sets.
    if !out.has_layer("serve.roundtrip_us_p50") {
        let sets: Vec<TaskSet> = calls.iter().map(|c| c.task_set.clone()).collect();
        let lines: Vec<String> = serve_mix::request_lines(&sets, 64, opts.seed)
            .into_iter()
            .filter(|l| l.contains("\"op\":\"simulate\""))
            .collect();
        serve_mix::probe_session(opts, out, &lines, tracer);
    }

    // Harness stages, from a small Fig. 6 run on this workload's seed.
    if !out.has_layer("harness.generate_s") {
        let mut cfg = ExperimentConfig::fig6(Scenario::Combined);
        cfg.seed = opts.seed;
        cfg.plan.to = 0.5;
        cfg.plan.sets_per_bucket = 4;
        cfg.horizon = Time::from_ms(200);
        let result = run_experiment_observed(&cfg, 0, &HarnessObs::none());
        let s = result.stats.stages;
        out.layer("harness.generate_s", s.generate_ms / 1e3, "s", 1);
        out.layer("harness.build_s", s.build_ms / 1e3, "s", 1);
        out.layer("harness.simulate_s", s.simulate_ms / 1e3, "s", 1);
        out.layer("harness.fold_s", s.fold_ms / 1e3, "s", 1);
    }
}
