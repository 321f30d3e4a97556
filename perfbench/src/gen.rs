//! Seeded job mixes for the synthetic workloads.
//!
//! `SynthTrace` draws every record independently, so two seeds give two
//! different amounts of work. On the 1 005-node machine the simulated
//! makespan of a 3 000-job trace moved by ±15 % from seed to seed and the
//! mean wait by ±25 %; on the 10 005-node machine the mean wait ranged
//! from 1 s to 48 s. Differences that size would swamp any change the
//! benchmark is meant to see. So the benchmark draws one fixed *pool*
//! from `SynthConfig::sized_for` — its job shapes and its interarrival
//! gaps — and lets the seed shuffle both within consecutive blocks of
//! [`BLOCK`] jobs. Every seed is a different trace with the same load
//! curve at block granularity.

use iosched_simkit::rng::SimRng;
use iosched_workloads::{SwfRecord, SynthConfig, SynthTrace};

/// Seed of the fixed pool the seeded mixes are shuffled from.
const POOL_SEED: u64 = 2024;
/// Jobs per shuffled block.
const BLOCK: usize = 64;

/// `jobs` SWF records for a machine of `nodes` nodes: the
/// `SynthConfig::sized_for` pool with its job shapes (run time, width,
/// requested time) and its interarrival gaps shuffled independently by
/// `seed` within blocks of [`BLOCK`]. Job numbers count up from 1 in
/// submit order; cancelled records stay in the mix.
pub fn seeded_mix(nodes: usize, jobs: u64, seed: u64) -> Vec<SwfRecord> {
    let pool: Vec<SwfRecord> =
        SynthTrace::new(SynthConfig::sized_for(nodes, jobs, POOL_SEED)).collect();
    let mut gaps: Vec<i64> = Vec::with_capacity(pool.len());
    let mut prev = 0;
    for rec in &pool {
        gaps.push(rec.submit - prev);
        prev = rec.submit;
    }
    let mut shapes: Vec<(i64, i64, i64)> = pool
        .iter()
        .map(|r| (r.run_time, r.procs, r.requested))
        .collect();
    let rng = SimRng::from_seed(seed);
    let mut gap_rng = rng.fork(1);
    for block in gaps.chunks_mut(BLOCK) {
        gap_rng.shuffle(block);
    }
    let mut shape_rng = rng.fork(2);
    for block in shapes.chunks_mut(BLOCK) {
        shape_rng.shuffle(block);
    }
    let mut submit = 0;
    gaps.iter()
        .zip(&shapes)
        .enumerate()
        .map(|(i, (&gap, &(run_time, procs, requested)))| {
            submit += gap;
            SwfRecord {
                job_no: i as i64 + 1,
                submit,
                run_time,
                procs,
                requested,
            }
        })
        .collect()
}
