//! Differential test for the reusable-workspace entry point: a single
//! [`SimWorkspace`] reused across many runs must produce reports that are
//! **bit-identical** (byte-for-byte under serde_json) to the legacy
//! throwaway-arena [`simulate`] path — across seeded random task sets,
//! every paper policy, fault scenarios on and off, and trace recording
//! on and off. This is the contract that lets the experiment harness
//! thread one workspace per worker without any risk to Figure 6.
//!
//! This same matrix doubles as the slots-vs-scan differential: every
//! run here advances time through the per-task event slots, and in debug
//! builds the engine cross-checks each chosen event time against the
//! linear-scan oracle (`Engine::next_event_time_scan`) via a per-step
//! `debug_assert_eq!`. The whole-run report comparison lives next to the
//! oracle in `crates/sim/src/engine.rs`
//! (`scan_oracle_and_slot_reports_are_identical`).

use mkss::prelude::*;

/// The fault scenarios exercised per task set: fault-free, a permanent
/// fault on either processor mid-horizon, and combined
/// permanent + transient faults (seeded, hence deterministic).
fn fault_configs() -> Vec<FaultConfig> {
    vec![
        FaultConfig::none(),
        FaultConfig::permanent(ProcId::PRIMARY, Time::from_ms(137)),
        FaultConfig::permanent(ProcId::SPARE, Time::from_ms(61)),
        FaultConfig::combined(ProcId::PRIMARY, Time::from_ms(333), 1e-4, 0xfa17),
        FaultConfig::transient(5e-4, 0x7ea5),
    ]
}

#[test]
fn reused_workspace_reports_are_byte_identical_to_fresh_runs() {
    let horizon = Time::from_ms(500);
    // One workspace deliberately reused across *everything*: different
    // task-set shapes, policies, fault plans, and trace settings, so any
    // state leaking between runs shows up as a diff.
    let mut ws = SimWorkspace::new();
    let mut runs = 0u32;
    for (seed, util) in [(11u64, 0.3), (22, 0.5), (33, 0.7), (44, 0.9)] {
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
                    let mut fresh_policy = kind
                        .build(&ts, &BuildOptions::default())
                        .expect("schedulable");
                    let mut reuse_policy = kind
                        .build(&ts, &BuildOptions::default())
                        .expect("schedulable");
                    let fresh = simulate(&ts, fresh_policy.as_mut(), &config);
                    let reused = simulate_in(&mut ws, &ts, reuse_policy.as_mut(), &config);
                    let fresh_json = serde_json::to_string(&fresh).expect("report serializes");
                    let reused_json = serde_json::to_string(&reused).expect("report serializes");
                    assert_eq!(
                        fresh_json, reused_json,
                        "divergence: seed {seed} util {util} policy {kind} \
                         trace {record_trace} faults {faults:?}"
                    );
                    runs += 1;
                }
            }
        }
    }
    assert!(runs >= 80, "differential probe barely ran ({runs} pairs)");
}

#[test]
fn back_to_back_reuse_is_self_consistent() {
    // Same workspace, same inputs, run twice in a row: the second run
    // must not observe any residue from the first.
    let ts = Generator::new(WorkloadConfig::paper(), 7)
        .schedulable_set(0.6)
        .expect("generatable");
    let config = SimConfig::builder()
        .horizon_ms(800)
        .record_trace(true)
        .build();
    let mut ws = SimWorkspace::new();
    let mut policy_a = PolicyKind::Selective
        .build(&ts, &BuildOptions::default())
        .unwrap();
    let mut policy_b = PolicyKind::Selective
        .build(&ts, &BuildOptions::default())
        .unwrap();
    let first = simulate_in(&mut ws, &ts, policy_a.as_mut(), &config);
    let second = simulate_in(&mut ws, &ts, policy_b.as_mut(), &config);
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap()
    );
}
