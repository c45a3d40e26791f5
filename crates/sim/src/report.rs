//! Simulation results: energy, job statistics, and QoS outcomes.

use mkss_core::task::TaskId;
use mkss_core::time::Time;
use mkss_obs::TraceKind;
use serde::{Deserialize, Serialize};

use crate::power::{Energy, EnergyBreakdown};
use crate::trace::Trace;

/// An (m,k)-constraint violation observed during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MkViolation {
    /// Violating task.
    pub task: TaskId,
    /// 1-based index of the job completing the first violating window.
    pub job_index: u64,
}

/// Aggregate job statistics of one run, tallied from the same engine
/// events a recorder receives (see [`JobStats::tally`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobStats {
    /// Jobs released within the horizon.
    pub released: u64,
    /// Jobs classified mandatory at release.
    pub mandatory: u64,
    /// Optional jobs selected for execution.
    pub optional_selected: u64,
    /// Optional jobs skipped at release.
    pub optional_skipped: u64,
    /// Optional jobs abandoned because they could no longer finish by
    /// their deadline.
    pub optional_abandoned: u64,
    /// Backup copies canceled after their main succeeded (including
    /// never-started ones).
    pub backups_canceled: u64,
    /// Backup copies that ran to completion.
    pub backups_completed: u64,
    /// Copies that completed with a transient fault.
    pub transient_faults: u64,
    /// Copies destroyed by the permanent fault.
    pub copies_lost: u64,
    /// Jobs resolved as met (within the horizon).
    pub met: u64,
    /// Jobs resolved as missed (within the horizon).
    pub missed: u64,
}

impl JobStats {
    /// Count one engine event: `released` counts the three release kinds,
    /// each other field exactly one kind; the remaining kinds count nothing.
    #[inline]
    pub fn tally(&mut self, kind: TraceKind) {
        use TraceKind as K;
        if matches!(
            kind,
            K::MandatoryRelease | K::OptionalSelect | K::OptionalSkip
        ) {
            self.released += 1;
        }
        let field = match kind {
            K::MandatoryRelease => &mut self.mandatory,
            K::OptionalSelect => &mut self.optional_selected,
            K::OptionalSkip => &mut self.optional_skipped,
            K::OptionalAbandon => &mut self.optional_abandoned,
            K::BackupCancel => &mut self.backups_canceled,
            K::BackupComplete => &mut self.backups_completed,
            K::TransientFault => &mut self.transient_faults,
            K::CopyLost => &mut self.copies_lost,
            K::JobMet => &mut self.met,
            K::JobMissed => &mut self.missed,
            _ => return,
        };
        *field += 1;
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Name of the policy that produced this run.
    pub policy: String,
    /// Simulated span `[0, horizon)`.
    pub horizon: Time,
    /// Per-processor energy breakdown (index 0 = primary, 1 = spare).
    pub energy: [EnergyBreakdown; 2],
    /// Job statistics.
    pub stats: JobStats,
    /// All (m,k)-violations (empty when the guarantee held, which
    /// Theorem 1 promises for schedulable sets).
    pub violations: Vec<MkViolation>,
    /// Full schedule trace, when recording was enabled.
    pub trace: Option<Trace>,
}

impl SimReport {
    /// Total energy of both processors.
    pub fn total_energy(&self) -> Energy {
        self.energy[0].total() + self.energy[1].total()
    }

    /// Total active (busy) energy of both processors.
    pub fn active_energy(&self) -> Energy {
        self.energy[0].active + self.energy[1].active
    }

    /// Whether the (m,k)-deadlines were assured for every task.
    pub fn mk_assured(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::Energy;

    #[test]
    fn report_totals() {
        let mut r = SimReport {
            policy: "test".into(),
            horizon: Time::from_ms(20),
            energy: [EnergyBreakdown::default(), EnergyBreakdown::default()],
            stats: JobStats::default(),
            violations: vec![],
            trace: None,
        };
        r.energy[0].active = Energy::from_units(8.0);
        r.energy[1].active = Energy::from_units(7.0);
        r.energy[1].idle = Energy::from_units(0.5);
        assert!((r.active_energy().units() - 15.0).abs() < 1e-12);
        assert!((r.total_energy().units() - 15.5).abs() < 1e-12);
        assert!(r.mk_assured());
        r.violations.push(MkViolation {
            task: TaskId(0),
            job_index: 3,
        });
        assert!(!r.mk_assured());
    }

    #[test]
    fn tally_counts_releases_once_and_other_kinds_in_their_field() {
        let mut stats = JobStats::default();
        for kind in TraceKind::ALL {
            stats.tally(kind);
        }
        assert_eq!(
            stats,
            JobStats {
                released: 3,
                mandatory: 1,
                optional_selected: 1,
                optional_skipped: 1,
                optional_abandoned: 1,
                backups_canceled: 1,
                backups_completed: 1,
                transient_faults: 1,
                copies_lost: 1,
                met: 1,
                missed: 1,
            }
        );
    }
}
