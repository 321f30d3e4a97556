//! I/O-aware scheduling (paper §VI, Algorithms 2–4).
//!
//! Lustre bandwidth becomes an additional cluster-wide resource with a
//! fixed limit `R_limit`. The tracker (`{NT, LT}` in the paper) combines
//! Slurm's stock node tracker with a bandwidth reservation profile:
//!
//! * running jobs reserve their *estimated* throughput `r_j` over
//!   `[b_j, b_j + L_j)` (Algorithm 2, lines 5–6);
//! * if the *measured* current load exceeds the sum of the running
//!   estimates, the difference is reserved as "unaccounted" load until the
//!   last running job's limit expires (lines 7–8) — this is what protects
//!   the file system from jobs with missing or underestimated
//!   requirements;
//! * `EarliestStartTime` is the two-resource fixpoint of Algorithm 4;
//! * `ReserveResources` reserves both nodes and bandwidth (Algorithm 3).
//!
//! Like the node policy it composes with, the policy owns pooled profile
//! scratch that its per-round trackers borrow and mutate in place, so a
//! steady-state scheduling round allocates nothing.

use crate::book::EstimateBook;
use iosched_simkit::time::SimTime;
use iosched_slurm::policy::{NodePolicy, NodeTracker};
use iosched_slurm::{ReservationTracker, ResourceProfile, RunningView, SchedJob, SchedulingPolicy};

/// Configuration of the I/O-aware policy.
#[derive(Clone, Copy, Debug)]
pub struct IoAwareConfig {
    /// File-system throughput limit `R_limit`, bytes/s (paper evaluates
    /// 20 GiB/s and 15 GiB/s).
    pub limit_bps: f64,
}

/// The node tracker plus the pooled LT profile — the reusable part of the
/// I/O-aware machinery, shared with the adaptive policy (which layers its
/// AT profile on top).
#[derive(Clone, Debug, Default)]
pub(crate) struct IoAwareCore {
    node_policy: NodePolicy,
    lt: ResourceProfile,
}

impl IoAwareCore {
    /// Algorithm 2: build the `{NT, LT}` tracker for one round, borrowing
    /// the pooled profiles.
    pub(crate) fn init_tracker<'a>(
        &'a mut self,
        book: &'a EstimateBook,
        limit_bps: f64,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
    ) -> IoAwareTracker<'a> {
        let IoAwareCore { node_policy, lt } = self;
        let nodes = node_policy.init_tracker(running, queue, now, total_nodes);
        fill_bandwidth_profile(book, running, now, limit_bps, lt);
        IoAwareTracker {
            nodes,
            lt,
            book,
            limit_bps,
        }
    }
}

/// The I/O-aware scheduling policy.
pub struct IoAwarePolicy {
    cfg: IoAwareConfig,
    book: EstimateBook,
    core: IoAwareCore,
}

impl IoAwarePolicy {
    /// Create the policy with the given throughput limit.
    pub fn new(cfg: IoAwareConfig) -> Self {
        assert!(cfg.limit_bps > 0.0, "throughput limit must be positive");
        IoAwarePolicy {
            cfg,
            book: EstimateBook::new(),
            core: IoAwareCore::default(),
        }
    }

    /// Install the round's estimate snapshot (Algorithm 2, lines 1–2).
    /// Call before every [`iosched_slurm::backfill_pass`].
    pub fn begin_round(&mut self, book: EstimateBook) {
        self.book = book;
    }

    /// Take the estimate snapshot back out (the driver hands the same
    /// book to the policy every round instead of cloning it).
    pub fn take_book(&mut self) -> EstimateBook {
        std::mem::take(&mut self.book)
    }

    /// The configured limit.
    pub fn config(&self) -> IoAwareConfig {
        self.cfg
    }

    /// The current estimate snapshot.
    pub fn book(&self) -> &EstimateBook {
        &self.book
    }
}

/// Fill the LT bandwidth profile of Algorithm 2 (lines 4–8) into a
/// caller-owned profile (reset first, so the profile's allocation is
/// reused round over round).
pub(crate) fn fill_bandwidth_profile(
    book: &EstimateBook,
    running: &[RunningView<'_>],
    now: SimTime,
    limit_bps: f64,
    lt: &mut ResourceProfile,
) {
    lt.reset(limit_bps);
    let mut sum_running = 0.0;
    let mut horizon = now;
    // Batched build: stage every delta and sort-coalesce once, keeping
    // the staging order (running set first, unaccounted load last) equal
    // to the old insert order so accumulation stays bit-identical.
    for rv in running {
        let r = effective_r(book, rv.job, limit_bps);
        let end = rv.reservation_end(now);
        lt.stage(r, rv.started, end);
        sum_running += r;
        horizon = horizon.max(end);
    }
    // Lines 7–8: measured load above the accounted estimates is reserved
    // as anonymous usage until the last running job may end.
    let unaccounted = book.measured_total_bps - sum_running;
    if unaccounted > 0.0 && horizon > now {
        lt.stage(unaccounted, now, horizon);
    }
    lt.commit_staged();
}

/// `r_j` clamped to the limit: an estimate above `R_limit` would make the
/// job permanently unschedulable, which Slurm's license semantics also
/// avoid (demand is capped at pool size).
pub(crate) fn effective_r(book: &EstimateBook, job: &SchedJob, limit_bps: f64) -> f64 {
    book.r(job.id).min(limit_bps)
}

/// Tracker produced by [`IoAwarePolicy`]: Slurm's node tracker plus the
/// Lustre-throughput profile, both borrowed from policy-owned scratch.
pub struct IoAwareTracker<'a> {
    pub(crate) nodes: NodeTracker<'a>,
    pub(crate) lt: &'a mut ResourceProfile,
    pub(crate) book: &'a EstimateBook,
    pub(crate) limit_bps: f64,
}

impl IoAwareTracker<'_> {
    /// Read access to the bandwidth profile (diagnostics/tests).
    pub fn bandwidth_profile(&self) -> &ResourceProfile {
        self.lt
    }
}

impl SchedulingPolicy for IoAwarePolicy {
    type Tracker<'a> = IoAwareTracker<'a>;

    fn init_tracker<'a>(
        &'a mut self,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
    ) -> IoAwareTracker<'a> {
        self.core.init_tracker(
            &self.book,
            self.cfg.limit_bps,
            running,
            queue,
            now,
            total_nodes,
        )
    }
}

impl ReservationTracker for IoAwareTracker<'_> {
    /// Algorithm 4: alternate between the node tracker and the bandwidth
    /// profile until a common start time is a fixpoint.
    fn earliest_start(&mut self, job: &SchedJob, t_min: SimTime) -> SimTime {
        let r = effective_r(self.book, job, self.limit_bps);
        let mut t = t_min;
        loop {
            let t_nt = self.nodes.earliest_start(job, t);
            if t_nt == SimTime::FAR_FUTURE {
                return t_nt;
            }
            let t_lt = self.lt.earliest_fit(t_nt, job.limit, r);
            if t_lt == t_nt {
                return t_lt;
            }
            t = t_lt;
        }
    }

    /// Algorithm 3: reserve nodes and bandwidth for `[t, t + L_j)`.
    fn reserve(&mut self, job: &SchedJob, start: SimTime) {
        self.nodes.reserve(job, start);
        let r = effective_r(self.book, job, self.limit_bps);
        self.lt.reserve(r, start, start + job.limit);
    }

    /// Node/limit/license dominance plus at least as much estimated
    /// bandwidth. Sound for pruning: every mid-round reservation adds
    /// nonnegative usage to both the node and LT profiles.
    fn demands_at_least(&self, probe: &SchedJob, failed: &SchedJob) -> bool {
        self.nodes.demands_at_least(probe, failed)
            && effective_r(self.book, probe, self.limit_bps)
                >= effective_r(self.book, failed, self.limit_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_analytics::JobEstimate;
    use iosched_simkit::ids::JobId;
    use iosched_simkit::time::SimDuration;
    use iosched_slurm::{backfill_pass, BackfillConfig};

    fn job(id: u64, nodes: usize, limit_s: u64) -> SchedJob {
        SchedJob::new(
            JobId(id),
            format!("j{id}"),
            nodes,
            SimDuration::from_secs(limit_s),
            SimTime::ZERO,
        )
    }

    fn est(r: f64, d_s: u64) -> JobEstimate {
        JobEstimate {
            throughput_bps: r,
            runtime: SimDuration::from_secs(d_s),
        }
    }

    fn policy_with(limit: f64, entries: &[(u64, f64, u64)], measured: f64) -> IoAwarePolicy {
        let mut p = IoAwarePolicy::new(IoAwareConfig { limit_bps: limit });
        let mut book = EstimateBook::new();
        for &(id, r, d) in entries {
            book.insert(JobId(id), est(r, d));
        }
        book.measured_total_bps = measured;
        p.begin_round(book);
        p
    }

    #[test]
    fn admits_jobs_up_to_the_limit() {
        // Limit 10; each job estimated at 3 → exactly 3 admitted now, the
        // fourth reserved for later (nodes are plentiful).
        let mut p = policy_with(
            10.0,
            &[(1, 3.0, 50), (2, 3.0, 50), (3, 3.0, 50), (4, 3.0, 50)],
            0.0,
        );
        let q: Vec<SchedJob> = (1..=4).map(|i| job(i, 1, 100)).collect();
        let refs: Vec<&SchedJob> = q.iter().collect();
        let out = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        assert_eq!(out.start_now, vec![JobId(1), JobId(2), JobId(3)], "{out:?}");
        assert_eq!(out.reservations.len(), 1);
        assert_eq!(out.reservations[0], (JobId(4), SimTime::from_secs(100)));
    }

    #[test]
    fn zero_estimate_jobs_are_unconstrained_by_bandwidth() {
        let mut p = policy_with(10.0, &[], 0.0);
        let q: Vec<SchedJob> = (1..=5).map(|i| job(i, 1, 100)).collect();
        let refs: Vec<&SchedJob> = q.iter().collect();
        let out = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        assert_eq!(out.start_now.len(), 5);
    }

    #[test]
    fn running_jobs_consume_bandwidth() {
        // One running job estimated at 8 of 10; a queued job at 3 must
        // wait for its window.
        let r1 = job(1, 1, 100);
        let mut p = policy_with(10.0, &[(1, 8.0, 100), (2, 3.0, 50)], 8.0);
        let running = [RunningView {
            job: &r1,
            started: SimTime::ZERO,
        }];
        let q2 = job(2, 1, 50);
        let refs = [&q2];
        let out = backfill_pass(
            &mut p,
            &running,
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        assert!(out.start_now.is_empty());
        assert_eq!(out.reservations[0], (JobId(2), SimTime::from_secs(100)));
    }

    #[test]
    fn measured_load_compensates_for_missing_estimates() {
        // Running job has NO estimate (r=0) but the file system measures
        // 9 of 10 — the unaccounted reservation blocks a queued job
        // estimated at 3 until the running job's limit expires.
        let r1 = job(1, 1, 100);
        let mut p = policy_with(10.0, &[(2, 3.0, 50)], 9.0);
        let running = [RunningView {
            job: &r1,
            started: SimTime::ZERO,
        }];
        let q2 = job(2, 1, 50);
        let refs = [&q2];
        let out = backfill_pass(
            &mut p,
            &running,
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        assert!(out.start_now.is_empty(), "{out:?}");
        assert_eq!(out.reservations[0], (JobId(2), SimTime::from_secs(100)));
    }

    #[test]
    fn measured_load_without_running_jobs_does_not_block() {
        // No running jobs: there is no horizon to reserve against, so a
        // queued job starts immediately (stale measured load decays).
        let mut p = policy_with(10.0, &[(1, 3.0, 50)], 9.0);
        let q1 = job(1, 1, 50);
        let refs = [&q1];
        let out = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        assert_eq!(out.start_now, vec![JobId(1)]);
    }

    #[test]
    fn estimates_above_limit_are_clamped() {
        // r = 50 with limit 10: without clamping the job could never
        // start; with clamping it runs alone.
        let mut p = policy_with(10.0, &[(1, 50.0, 50), (2, 50.0, 50)], 0.0);
        let a = job(1, 1, 100);
        let b = job(2, 1, 100);
        let refs = [&a, &b];
        let out = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        assert_eq!(out.start_now, vec![JobId(1)]);
        assert_eq!(out.reservations[0], (JobId(2), SimTime::from_secs(100)));
    }

    #[test]
    fn node_and_bandwidth_fixpoint() {
        // 2 nodes total. Running: 2-node job for 100 s with r=2.
        // Queue: job A (1 node, r=9, limit 50), job B (1 node, r=0, 30 s).
        // A fits node-wise at t=100 and bandwidth-wise at t=100 (limit 10,
        // 9 ≤ 10), B at t=100 too (only 2 nodes)... use a bandwidth-bound
        // case: after A is reserved at 100, B (r=2) collides on bandwidth
        // over [100,150) → must wait for nodes anyway. Keep as regression:
        // the fixpoint returns consistent times for both.
        let r1 = job(1, 2, 100);
        let mut p = policy_with(10.0, &[(1, 2.0, 100), (2, 9.0, 50), (3, 2.0, 30)], 2.0);
        let running = [RunningView {
            job: &r1,
            started: SimTime::ZERO,
        }];
        let a = job(2, 1, 50);
        let b = job(3, 1, 30);
        let refs = [&a, &b];
        let out = backfill_pass(
            &mut p,
            &running,
            &refs,
            SimTime::ZERO,
            2,
            &BackfillConfig::default(),
        );
        assert!(out.start_now.is_empty());
        let ta = out.reservations[0].1;
        let tb = out.reservations[1].1;
        assert_eq!(ta, SimTime::from_secs(100));
        // B: nodes free at 100, but bandwidth 9+2 > 10 during [100,150) →
        // earliest at 150.
        assert_eq!(tb, SimTime::from_secs(150));
    }

    #[test]
    fn repeated_rounds_reuse_policy_scratch() {
        // The same policy driven over several rounds produces the same
        // decisions each time (the pooled profiles are fully reset).
        let mut p = policy_with(10.0, &[(1, 3.0, 50), (2, 8.0, 50)], 0.0);
        let a = job(1, 1, 100);
        let b = job(2, 1, 100);
        let refs = [&a, &b];
        let first = backfill_pass(
            &mut p,
            &[],
            &refs,
            SimTime::ZERO,
            100,
            &BackfillConfig::default(),
        );
        for _ in 0..3 {
            let again = backfill_pass(
                &mut p,
                &[],
                &refs,
                SimTime::ZERO,
                100,
                &BackfillConfig::default(),
            );
            assert_eq!(again, first);
        }
        // take_book returns the installed snapshot and leaves an empty one.
        let book = p.take_book();
        assert_eq!(book.r(JobId(2)), 8.0);
        assert!(p.book().is_empty());
    }

    #[test]
    #[should_panic]
    fn non_positive_limit_panics() {
        IoAwarePolicy::new(IoAwareConfig { limit_bps: 0.0 });
    }
}
