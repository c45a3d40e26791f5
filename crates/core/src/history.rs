//! Per-task execution history and the *flexibility degree* (Definition 1).
//!
//! The selective scheme classifies each job **at its release** from the
//! recent outcome history: a job is *mandatory* iff its flexibility degree
//! is 0, and only optional jobs with flexibility degree exactly 1 are
//! selected for execution (Section IV, principle (i)).

use serde::{Deserialize, Serialize};

use crate::mk::MkConstraint;

/// Outcome of one job with respect to its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
// mkss-lint: allow(pub-api-hygiene) — closed variant set: met/missed is the (m,k) model's complete outcome alphabet; every history consumer matches exhaustively
pub enum JobOutcome {
    /// The job completed successfully by its deadline (an *effective* job).
    Met,
    /// The job missed its deadline, failed, or was skipped.
    Missed,
}

impl JobOutcome {
    /// `true` for [`JobOutcome::Met`].
    #[inline]
    pub const fn is_met(self) -> bool {
        matches!(self, JobOutcome::Met)
    }
}

/// Sliding execution history of the most recent `k − 1` job outcomes of a
/// task, supporting flexibility-degree queries.
///
/// History before the first job is treated as all-met, which matches the
/// paper's motivating examples: the very first job of a task with
/// constraint (m,k) has flexibility degree `k − m` (e.g. `FD(O₁₁) = 2` for
/// τ1 = (5,4,3,2,4) and `FD(O₂₁) = 1` for τ2 = (10,10,3,1,2) in Section
/// III).
///
/// # Examples
///
/// ```
/// use mkss_core::history::{JobOutcome, MkHistory};
/// use mkss_core::mk::MkConstraint;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mk = MkConstraint::new(2, 4)?;
/// let mut h = MkHistory::new(mk);
/// assert_eq!(h.flexibility_degree(), 2); // fresh task: k − m
///
/// h.record(JobOutcome::Missed);
/// assert_eq!(h.flexibility_degree(), 1); // one more miss tolerable
///
/// h.record(JobOutcome::Missed);
/// assert_eq!(h.flexibility_degree(), 0); // next job is mandatory
///
/// // Both misses are still inside the window of 3, so a single success
/// // does not yet buy back any slack for (2,4)…
/// h.record(JobOutcome::Met);
/// assert_eq!(h.flexibility_degree(), 0);
/// // …but a second one pushes a miss out of every future window.
/// h.record(JobOutcome::Met);
/// assert_eq!(h.flexibility_degree(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MkHistory {
    mk: MkConstraint,
    /// Outcomes of the last `k − 1` jobs, oldest first. Length is always
    /// exactly `k − 1`; pre-history is padded with `Met`.
    window: Vec<JobOutcome>,
    /// Total jobs recorded (for diagnostics).
    recorded: u64,
    /// Total jobs recorded as met.
    met_total: u64,
}

impl MkHistory {
    /// Creates a history for a task with the given constraint, with the
    /// pre-history treated as all-met.
    pub fn new(mk: MkConstraint) -> Self {
        MkHistory {
            mk,
            window: vec![JobOutcome::Met; (mk.k() - 1) as usize],
            recorded: 0,
            met_total: 0,
        }
    }

    /// The task's (m,k) constraint.
    pub fn constraint(&self) -> MkConstraint {
        self.mk
    }

    /// Resets the history to its initial all-met pre-history state,
    /// keeping the window allocation. Equivalent to (but cheaper than)
    /// `*self = MkHistory::new(self.constraint())`; used by simulation
    /// workspaces that are reused across runs.
    pub fn reset(&mut self) {
        self.window.fill(JobOutcome::Met);
        self.recorded = 0;
        self.met_total = 0;
    }

    /// Records the outcome of the next job in release order.
    pub fn record(&mut self, outcome: JobOutcome) {
        if !self.window.is_empty() {
            self.window.remove(0);
            self.window.push(outcome);
        }
        self.recorded += 1;
        if outcome.is_met() {
            self.met_total += 1;
        }
    }

    /// Number of met outcomes among the most recent `n` recorded jobs
    /// (padding with met pre-history when fewer than `n` have been
    /// recorded).
    ///
    /// # Panics
    ///
    /// Panics if `n > k − 1` — the history only retains `k − 1` outcomes.
    pub fn met_in_last(&self, n: u32) -> u32 {
        let len = self.window.len();
        assert!(
            n as usize <= len,
            "history window only retains k-1 = {len} outcomes, asked for {n}"
        );
        self.window[len - n as usize..]
            .iter()
            .filter(|o| o.is_met())
            .count() as u32
    }

    /// The flexibility degree (Definition 1) of the **next** job of this
    /// task: the number of consecutive deadline misses the task can still
    /// tolerate, starting from that job, without ever violating the (m,k)
    /// constraint (assuming all later jobs are then made mandatory and
    /// succeed).
    ///
    /// Derivation: if the next `f` jobs all miss, the tightest window is
    /// the one ending at the `f`-th miss; it contains the `k − f` most
    /// recent history outcomes plus the `f` misses, so it needs
    /// `met_in_last(k − f) ≥ m`. Earlier windows (ending at miss `j < f`)
    /// contain `k − j ≥ k − f` recent outcomes, a superset of met
    /// outcomes, so the `f`-th window is binding and
    ///
    /// ```text
    /// FD = max { f ∈ [0, k−m] : met_in_last(k − f) ≥ m }
    /// ```
    ///
    /// (Windows stretching past the `f`-th miss contain future jobs, which
    /// are assumed mandatory-and-met and can only help.)
    ///
    /// `met_in_last(n)` grows with `n`, so the maximum is set by the
    /// shortest suffix holding `m` met outcomes: if the `m`-th most
    /// recent met outcome is `a` jobs old (the newest being 1), then
    /// `FD = k − a` (at most `k − m`, since `a ≥ m`), and `FD = 0` when
    /// the window holds fewer than `m` met outcomes. One pass from the
    /// newest outcome back finds `a`.
    pub fn flexibility_degree(&self) -> u32 {
        let m = self.mk.m() as usize;
        let mut met = 0;
        for (age, outcome) in self.window.iter().rev().enumerate() {
            met += usize::from(outcome.is_met());
            if met == m {
                return self.mk.k() - 1 - age as u32;
            }
        }
        0
    }

    /// Whether the next job **must** be executed (flexibility degree 0).
    pub fn next_is_mandatory(&self) -> bool {
        self.flexibility_degree() == 0
    }

    /// The *distance-based priority* metric of Hamdaoui & Ramanathan's
    /// DBP scheme (the paper's reference \[10\]): the number of consecutive
    /// deadline misses, starting from the next job, that would drive the
    /// task into a failing (m,k) state. Smaller = more urgent.
    ///
    /// This is exactly [`MkHistory::flexibility_degree`]` + 1`: a task
    /// that can still tolerate `FD` misses fails on the `FD + 1`-th.
    ///
    /// ```
    /// use mkss_core::history::{JobOutcome, MkHistory};
    /// use mkss_core::mk::MkConstraint;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut h = MkHistory::new(MkConstraint::new(1, 3)?);
    /// assert_eq!(h.dbp_distance(), 3); // fresh: k − m + 1
    /// h.record(JobOutcome::Missed);
    /// h.record(JobOutcome::Missed);
    /// assert_eq!(h.dbp_distance(), 1); // one more miss fails
    /// # Ok(())
    /// # }
    /// ```
    pub fn dbp_distance(&self) -> u32 {
        self.flexibility_degree() + 1
    }

    /// Total number of outcomes recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Total number of met outcomes recorded.
    pub fn met_total(&self) -> u64 {
        self.met_total
    }

    /// The retained window (oldest first), mainly for diagnostics.
    pub fn window(&self) -> &[JobOutcome] {
        &self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mk::MkMonitor;
    use proptest::prelude::*;

    fn mk(m: u32, k: u32) -> MkConstraint {
        MkConstraint::new(m, k).unwrap()
    }

    #[test]
    fn fresh_history_fd_is_k_minus_m() {
        assert_eq!(MkHistory::new(mk(2, 4)).flexibility_degree(), 2);
        assert_eq!(MkHistory::new(mk(1, 2)).flexibility_degree(), 1);
        assert_eq!(MkHistory::new(mk(3, 5)).flexibility_degree(), 2);
        assert_eq!(MkHistory::new(mk(19, 20)).flexibility_degree(), 1);
    }

    #[test]
    fn paper_section_iii_footnote() {
        // τ1 = (5,4,3,2,4): FD of the first job is 2 (can tolerate two
        // misses); τ2 = (10,10,3,1,2): FD of the first job is 1, hence τ2's
        // first job is "more urgent" and is executed first.
        assert_eq!(MkHistory::new(mk(2, 4)).flexibility_degree(), 2);
        assert_eq!(MkHistory::new(mk(1, 2)).flexibility_degree(), 1);
    }

    #[test]
    fn misses_decrease_fd_to_zero() {
        let mut h = MkHistory::new(mk(2, 4));
        h.record(JobOutcome::Missed);
        assert_eq!(h.flexibility_degree(), 1);
        h.record(JobOutcome::Missed);
        assert_eq!(h.flexibility_degree(), 0);
        assert!(h.next_is_mandatory());
    }

    #[test]
    fn success_restores_fd() {
        let mut h = MkHistory::new(mk(1, 2));
        h.record(JobOutcome::Missed);
        assert_eq!(h.flexibility_degree(), 0);
        h.record(JobOutcome::Met);
        assert_eq!(h.flexibility_degree(), 1);
    }

    #[test]
    fn fd_counts_interleaved_outcomes() {
        // (2,4): window keeps 3 outcomes.
        let mut h = MkHistory::new(mk(2, 4));
        for o in [JobOutcome::Met, JobOutcome::Missed, JobOutcome::Met] {
            h.record(o);
        }
        // window = [Met, Missed, Met]; met_in_last(3)=2>=2 → f=1 ok;
        // met_in_last(2)=1<2 → stop. FD = 1.
        assert_eq!(h.flexibility_degree(), 1);
        assert_eq!(h.met_in_last(3), 2);
        assert_eq!(h.met_in_last(2), 1);
        assert_eq!(h.met_in_last(1), 1);
        assert_eq!(h.met_in_last(0), 0);
    }

    #[test]
    fn bookkeeping_counters() {
        let mut h = MkHistory::new(mk(1, 3));
        h.record(JobOutcome::Met);
        h.record(JobOutcome::Missed);
        h.record(JobOutcome::Met);
        assert_eq!(h.recorded(), 3);
        assert_eq!(h.met_total(), 2);
        assert_eq!(h.window().len(), 2);
        assert_eq!(h.constraint(), mk(1, 3));
    }

    /// Oracle: brute-force FD by simulating f misses over the *full*
    /// outcome sequence (with met pre-history) and checking every window
    /// of k via MkMonitor.
    fn oracle_fd(mk_c: MkConstraint, outcomes: &[JobOutcome]) -> u32 {
        let k = mk_c.k() as usize;
        let m = mk_c.m() as usize;
        // Pre-history counts as met; FD is defined relative to the current
        // state, so only windows ending at one of the hypothetical future
        // misses are inspected (violations an arbitrary generated history
        // already contains are not the future misses' fault).
        let mut seq: Vec<bool> = vec![true; k];
        seq.extend(outcomes.iter().map(|o| o.is_met()));
        let hist_len = seq.len();
        let mut best = 0;
        'f: for f in 1..=(mk_c.k() - mk_c.m()) {
            let mut s = seq.clone();
            s.extend(std::iter::repeat_n(false, f as usize));
            for end in hist_len..s.len() {
                let window = &s[end + 1 - k..=end];
                if window.iter().filter(|&&b| b).count() < m {
                    continue 'f;
                }
            }
            best = f;
        }
        best
    }

    /// Outcome `i` misses iff `raw[i] < misses_per_10`, so a case's miss
    /// density ranges from none to nine in ten.
    fn outcomes(raw: &[u8], misses_per_10: u8) -> Vec<JobOutcome> {
        raw.iter()
            .map(|&r| {
                if r < misses_per_10 {
                    JobOutcome::Missed
                } else {
                    JobOutcome::Met
                }
            })
            .collect()
    }

    // k ranges up to 128, past one and two 64-bit words, so the single
    // FD path is checked on windows wider than a machine word.
    proptest! {
        #[test]
        fn fd_matches_bruteforce_oracle(
            m in 1u32..40,
            extra in 1u32..90,
            misses_per_10 in 0u8..10,
            raw in proptest::collection::vec(0u8..10, 0..200),
        ) {
            let k = m + extra;
            let c = mk(m, k);
            let outcomes = outcomes(&raw, misses_per_10);
            let mut h = MkHistory::new(c);
            for &o in &outcomes {
                h.record(o);
            }
            prop_assert_eq!(h.flexibility_degree(), oracle_fd(c, &outcomes));
        }

        /// Executing misses exactly FD times never violates; FD+1 misses do.
        #[test]
        fn fd_is_tight(
            m in 1u32..40,
            extra in 1u32..90,
            misses_per_10 in 0u8..10,
            raw in proptest::collection::vec(0u8..10, 0..200),
        ) {
            let k = m + extra;
            let c = mk(m, k);
            let mut h = MkHistory::new(c);
            let mut mon = MkMonitor::new(c);
            for o in outcomes(&raw, misses_per_10) {
                // Keep history consistent: only feed outcomes that do not
                // already violate (a real scheduler would never allow them).
                if !o.is_met() && h.flexibility_degree() == 0 {
                    h.record(JobOutcome::Met);
                    mon.record(true);
                    continue;
                }
                h.record(o);
                mon.record(o.is_met());
                prop_assert!(!mon.violated());
            }
            let fd = h.flexibility_degree();
            // fd misses are safe…
            let mut mon2 = mon.clone();
            for _ in 0..fd {
                mon2.record(false);
            }
            prop_assert!(!mon2.violated());
            // …but one more is not (when fd < k-m headroom remains checked
            // by oracle equivalence above; here assert violation).
            mon2.record(false);
            if fd < k - m {
                prop_assert!(mon2.violated());
            }
        }
    }
}
