//! Bucketed task-set generation through the public generator and RTA
//! calls, one span per candidate draw and per schedulability test.
//!
//! This mirrors `mkss_workload::generate_buckets_jobs` step for step
//! (same per-bucket seed, same draw order), so it accepts exactly the
//! sets that function returns; `matches_library` checks that.

use mkss_analysis::rta::is_schedulable_r_pattern;
use mkss_core::task::TaskSet;
use mkss_workload::{
    bucket_bounds, generate_buckets_jobs, Bucket, BucketPlan, Generator, WorkloadConfig,
};

use crate::spans::Tracer;

/// Fills every bucket of `plan` on up to `jobs` workers. Each bucket is
/// a `workload.bucket` span under `parent`, holding one
/// `workload.raw_set` span per candidate and one `analysis.rta` span per
/// schedulability test.
pub fn generate(
    tracer: &Tracer,
    parent: u64,
    config: WorkloadConfig,
    plan: BucketPlan,
    seed: u64,
    jobs: usize,
) -> Vec<Bucket> {
    let bounds = bucket_bounds(plan);
    mkss_core::par::map_indexed(jobs, &bounds, |bucket_index, &(lo, hi)| {
        tracer.span("workload.bucket", parent, 0, |bucket_span| {
            let mut generator =
                Generator::new(config, seed.wrapping_add(bucket_index as u64 * 0x9e37_79b9));
            let mut sets = Vec::new();
            let mut generated = 0u64;
            while sets.len() < plan.sets_per_bucket && generated < plan.max_generated {
                generated += 1;
                let candidate = tracer.span("workload.raw_set", bucket_span, 0, |_| {
                    generator.raw_set_in(lo, hi)
                });
                if let Some(ts) = candidate {
                    if tracer.span("analysis.rta", bucket_span, 0, |_| {
                        is_schedulable_r_pattern(&ts)
                    }) {
                        sets.push(ts);
                    }
                }
            }
            Bucket {
                lo,
                hi,
                sets,
                generated,
            }
        })
    })
}

/// True when `buckets` equal what the library generator produces for
/// the same inputs: same sets, same candidate counts.
pub fn matches_library(
    buckets: &[Bucket],
    config: WorkloadConfig,
    plan: BucketPlan,
    seed: u64,
    jobs: usize,
) -> bool {
    let reference = generate_buckets_jobs(config, plan, seed, jobs);
    reference.len() == buckets.len()
        && reference
            .iter()
            .zip(buckets)
            .all(|(a, b)| a.generated == b.generated && a.sets == b.sets)
}

/// Every set of every bucket, in bucket order.
pub fn flatten(buckets: &[Bucket]) -> Vec<TaskSet> {
    buckets
        .iter()
        .flat_map(|b| b.sets.iter().cloned())
        .collect()
}
