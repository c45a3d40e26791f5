//! Golden guards for the R-pattern schedulability filter.
//!
//! Section V's bucket filling keeps a candidate set only when it passes
//! the deeply-red busy-window RTA, so every accept/reject decision shapes
//! the inputs of Fig. 6. These tests pin, for fixed seeds, the number of
//! candidates each bucket draws, a digest of the sets it keeps, and a
//! digest of every per-task response time the analysis returns over one
//! bucket's raw candidates under all three interference models. Any
//! change to `mkss_analysis::rta` that moves a single draw, decision or
//! response time fails here.

use mkss::prelude::*;
use mkss_analysis::rta::{analyze, InterferenceModel};
use mkss_workload::{bucket_bounds, generate_buckets_jobs, BucketPlan, Generator, WorkloadConfig};

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn task_set(&mut self, ts: &TaskSet) {
        self.word(ts.len() as u64);
        for (_, task) in ts.iter() {
            self.word(task.period().ticks());
            self.word(task.deadline().ticks());
            self.word(task.wcet().ticks());
            self.word(u64::from(task.mk().m()));
            self.word(u64::from(task.mk().k()));
        }
    }
}

/// Per-bucket candidate counts and the digest of the accepted sets, in
/// bucket order, for the paper's plan.
fn bucket_fingerprint(seed: u64) -> (Vec<u64>, u64) {
    let buckets = generate_buckets_jobs(WorkloadConfig::paper(), BucketPlan::default(), seed, 0);
    let mut digest = Fnv::new();
    for bucket in &buckets {
        digest.word(bucket.sets.len() as u64);
        for ts in &bucket.sets {
            digest.task_set(ts);
        }
    }
    (buckets.iter().map(|b| b.generated).collect(), digest.0)
}

#[test]
fn seed_1_buckets_draw_and_keep_the_same_sets() {
    let (generated, digest) = bucket_fingerprint(1);
    assert_eq!(generated, GOLDEN_SEED_1_GENERATED);
    assert_eq!(digest, GOLDEN_SEED_1_DIGEST, "accepted sets changed");
}

#[test]
fn seed_101_buckets_draw_and_keep_the_same_sets() {
    let (generated, digest) = bucket_fingerprint(101);
    assert_eq!(generated, GOLDEN_SEED_101_GENERATED);
    assert_eq!(digest, GOLDEN_SEED_101_DIGEST, "accepted sets changed");
}

/// Every response time of every task of every raw candidate that seed
/// 1's [0.8, 0.9) bucket draws (the same stream `generate_buckets_jobs`
/// consumes), under all-jobs, deeply-red and evenly-distributed
/// interference. Unschedulable tasks hash as `u64::MAX`.
#[test]
fn seed_1_top_bucket_response_times_are_unchanged() {
    let plan = BucketPlan::default();
    let bucket_index = 7;
    let (lo, hi) = bucket_bounds(plan)[bucket_index];
    let mut generator = Generator::new(
        WorkloadConfig::paper(),
        1u64.wrapping_add(bucket_index as u64 * 0x9e37_79b9),
    );
    let models = [
        InterferenceModel::AllJobs,
        InterferenceModel::MandatoryOnly(Pattern::DeeplyRed),
        InterferenceModel::MandatoryOnly(Pattern::EvenlyDistributed),
    ];
    let mut digest = Fnv::new();
    let mut candidates = 0u64;
    let mut schedulable = [0u64; 3];
    for _ in 0..GOLDEN_SEED_1_GENERATED[bucket_index] {
        let Some(ts) = generator.raw_set_in(lo, hi) else {
            continue;
        };
        candidates += 1;
        for (slot, &model) in models.iter().enumerate() {
            let report = analyze(&ts, model);
            schedulable[slot] += u64::from(report.schedulable());
            for response in &report.tasks {
                digest.word(response.response_time.map_or(u64::MAX, Time::ticks));
            }
        }
    }
    assert_eq!(candidates, GOLDEN_TOP_BUCKET_CANDIDATES);
    assert_eq!(schedulable, GOLDEN_TOP_BUCKET_SCHEDULABLE);
    assert_eq!(digest.0, GOLDEN_TOP_BUCKET_DIGEST, "response times changed");
}

const GOLDEN_SEED_1_GENERATED: [u64; 8] = [20, 20, 25, 29, 101, 442, 5000, 5000];
const GOLDEN_SEED_1_DIGEST: u64 = 11_252_686_398_795_929_213;
const GOLDEN_SEED_101_GENERATED: [u64; 8] = [20, 20, 21, 33, 70, 569, 5000, 5000];
const GOLDEN_SEED_101_DIGEST: u64 = 16_546_410_230_183_826_535;
const GOLDEN_TOP_BUCKET_CANDIDATES: u64 = 4931;
const GOLDEN_TOP_BUCKET_SCHEDULABLE: [u64; 3] = [0, 0, 1];
const GOLDEN_TOP_BUCKET_DIGEST: u64 = 6_774_668_709_066_750_111;
