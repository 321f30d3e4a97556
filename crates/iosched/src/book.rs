//! Estimate snapshot the policies schedule against.
//!
//! At the beginning of every scheduling round the scheduler obtains the
//! latest job estimates and the measured file-system load from the
//! analytical services (Algorithm 2, lines 1–2). The [`EstimateBook`] is
//! that snapshot: immutable for the duration of the round, so every
//! tracker query within a round sees consistent numbers.
//!
//! The analytics estimate a job by its *class* (job name): every job of a
//! class shares one prediction, and a class with no history falls back to
//! the job's own cold-start estimate. The book stores exactly that. Each
//! job slot holds the job's class [`Sym`] and its fallback; a per-class
//! table holds the predictor's current prediction. [`EstimateBook::get`]
//! reads the class entry when there is one, else the fallback. A
//! completion therefore updates one class entry
//! ([`EstimateBook::set_class`]) instead of re-estimating every live job
//! of the class, and the book persists across rounds: the driver binds a
//! job at submission and removes it when the job finishes. Both tables
//! are dense vectors (driver job ids and symbols are small and dense), so
//! a query on the scheduling hot path is two array loads.

use iosched_analytics::JobEstimate;
use iosched_simkit::ids::JobId;
use iosched_simkit::sym::Sym;
use iosched_simkit::time::SimDuration;

/// One job's entry: its estimate class and the estimate used while the
/// class has no prediction.
#[derive(Clone, Copy, Debug)]
struct Slot {
    class: Sym,
    fallback: JobEstimate,
}

/// Snapshot of `r_j`/`d_j` estimates for all relevant jobs plus the
/// measured current total throughput `R_now`.
#[derive(Clone, Debug, Default)]
pub struct EstimateBook {
    per_job: Vec<Option<Slot>>,
    /// Current prediction per class, indexed by `Sym`; `None` = no
    /// history, so the job's fallback applies.
    per_class: Vec<Option<JobEstimate>>,
    entries: usize,
    /// Measured current total Lustre throughput, bytes/s.
    pub measured_total_bps: f64,
}

impl EstimateBook {
    /// Empty book (no estimates, zero measured load).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a job of estimate class `class`, replacing any previous
    /// entry. The job reads the class's prediction when one is set and
    /// `fallback` otherwise; `Sym::NONE` binds the job to `fallback`
    /// alone.
    pub fn bind(&mut self, job: JobId, class: Sym, fallback: JobEstimate) {
        let idx = job.0 as usize;
        if idx >= self.per_job.len() {
            self.per_job.resize(idx + 1, None);
        }
        if self.per_job[idx].is_none() {
            self.entries += 1;
        }
        self.per_job[idx] = Some(Slot { class, fallback });
    }

    /// Record a fixed estimate for one job, replacing any previous entry.
    pub fn insert(&mut self, job: JobId, estimate: JobEstimate) {
        self.bind(job, Sym::NONE, estimate);
    }

    /// Set (or, with `None`, clear) the prediction every job of `class`
    /// reads. No-op for `Sym::NONE`, which names no class.
    pub fn set_class(&mut self, class: Sym, estimate: Option<JobEstimate>) {
        if !class.is_some() {
            return;
        }
        let idx = class.0 as usize;
        if idx >= self.per_class.len() {
            if estimate.is_none() {
                return;
            }
            self.per_class.resize(idx + 1, None);
        }
        self.per_class[idx] = estimate;
    }

    /// Drop a job's entry (the job finished); no-op when absent.
    pub fn remove(&mut self, job: JobId) {
        if let Some(slot) = self.per_job.get_mut(job.0 as usize) {
            if slot.take().is_some() {
                self.entries -= 1;
            }
        }
    }

    /// The job's estimate — its class's prediction, else its fallback —
    /// if the job is recorded.
    pub fn get(&self, job: JobId) -> Option<JobEstimate> {
        let slot = (*self.per_job.get(job.0 as usize)?)?;
        let class = self.per_class.get(slot.class.0 as usize).copied();
        Some(class.flatten().unwrap_or(slot.fallback))
    }

    /// Estimated throughput `r_j` (bytes/s); 0.0 when the job is unknown —
    /// the paper's cold-start assumption, backed by the measured-load
    /// compensation.
    pub fn r(&self, job: JobId) -> f64 {
        self.get(job).map_or(0.0, |e| e.throughput_bps.max(0.0))
    }

    /// Estimated runtime `d_j`; zero when unknown (callers fall back to
    /// the requested limit where the algorithm needs a duration).
    pub fn d(&self, job: JobId) -> SimDuration {
        self.get(job).map_or(SimDuration::ZERO, |e| e.runtime)
    }

    /// Estimated runtime, or `limit` when there is no estimate (or a
    /// degenerate zero estimate).
    pub fn d_or(&self, job: JobId, limit: SimDuration) -> SimDuration {
        let d = self.d(job);
        if d.is_zero() {
            limit
        } else {
            d
        }
    }

    /// Number of jobs with recorded estimates.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no per-job estimates were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_for_unknown_jobs() {
        let book = EstimateBook::new();
        assert_eq!(book.r(JobId(1)), 0.0);
        assert_eq!(book.d(JobId(1)), SimDuration::ZERO);
        assert_eq!(
            book.d_or(JobId(1), SimDuration::from_secs(100)),
            SimDuration::from_secs(100)
        );
        assert!(book.is_empty());
        assert_eq!(book.get(JobId(1)), None);
    }

    #[test]
    fn recorded_estimates_round_trip() {
        let mut book = EstimateBook::new();
        book.insert(
            JobId(1),
            JobEstimate {
                throughput_bps: 5.0,
                runtime: SimDuration::from_secs(60),
            },
        );
        book.measured_total_bps = 99.0;
        assert_eq!(book.r(JobId(1)), 5.0);
        assert_eq!(book.d(JobId(1)), SimDuration::from_secs(60));
        assert_eq!(
            book.d_or(JobId(1), SimDuration::from_secs(100)),
            SimDuration::from_secs(60)
        );
        assert_eq!(book.len(), 1);
    }

    #[test]
    fn insert_replaces_and_remove_forgets() {
        let mut book = EstimateBook::new();
        let est = |r: f64| JobEstimate {
            throughput_bps: r,
            runtime: SimDuration::from_secs(10),
        };
        book.insert(JobId(4), est(1.0));
        book.insert(JobId(4), est(2.0));
        assert_eq!(book.len(), 1);
        assert_eq!(book.r(JobId(4)), 2.0);
        book.remove(JobId(4));
        assert!(book.is_empty());
        assert_eq!(book.r(JobId(4)), 0.0);
        // Removing an absent job (in or out of range) is a no-op.
        book.remove(JobId(4));
        book.remove(JobId(1000));
        assert!(book.is_empty());
    }

    #[test]
    fn zero_runtime_estimate_falls_back_to_limit() {
        // A degenerate d̂ = 0 (e.g. a job that was killed instantly) must
        // not produce zero-length reservations: d_or falls back.
        let mut book = EstimateBook::new();
        book.insert(
            JobId(3),
            JobEstimate {
                throughput_bps: 1.0,
                runtime: SimDuration::ZERO,
            },
        );
        assert_eq!(
            book.d_or(JobId(3), SimDuration::from_secs(50)),
            SimDuration::from_secs(50)
        );
    }

    #[test]
    fn negative_throughput_estimates_clamp_to_zero() {
        let mut book = EstimateBook::new();
        book.insert(
            JobId(2),
            JobEstimate {
                throughput_bps: -3.0,
                runtime: SimDuration::from_secs(1),
            },
        );
        assert_eq!(book.r(JobId(2)), 0.0);
    }

    #[test]
    fn bound_jobs_read_their_class_then_fall_back() {
        let mut book = EstimateBook::new();
        let est = |r: f64, d: u64| JobEstimate {
            throughput_bps: r,
            runtime: SimDuration::from_secs(d),
        };
        book.bind(JobId(1), Sym(2), est(0.0, 100));
        book.bind(JobId(2), Sym(2), est(0.0, 200));
        assert_eq!(book.get(JobId(1)), Some(est(0.0, 100)));
        book.set_class(Sym(2), Some(est(7.0, 30)));
        assert_eq!(book.get(JobId(1)), Some(est(7.0, 30)));
        assert_eq!(book.get(JobId(2)), Some(est(7.0, 30)));
        // Clearing the class restores each job's own fallback.
        book.set_class(Sym(2), None);
        assert_eq!(book.d(JobId(2)), SimDuration::from_secs(200));
        // `insert` binds to no class: class updates never reach it.
        book.insert(JobId(1), est(3.0, 9));
        book.set_class(Sym(2), Some(est(7.0, 30)));
        assert_eq!(book.get(JobId(1)), Some(est(3.0, 9)));
        assert_eq!(book.len(), 2);
    }

    #[test]
    fn set_class_on_the_null_symbol_is_a_no_op() {
        let mut book = EstimateBook::new();
        let fixed = JobEstimate {
            throughput_bps: 1.0,
            runtime: SimDuration::from_secs(5),
        };
        book.insert(JobId(0), fixed);
        book.set_class(
            Sym::NONE,
            Some(JobEstimate {
                throughput_bps: 9.0,
                runtime: SimDuration::from_secs(99),
            }),
        );
        assert_eq!(book.get(JobId(0)), Some(fixed));
        assert!(book.per_class.is_empty());
        // Clearing a class that was never set allocates nothing either.
        book.set_class(Sym(1000), None);
        assert!(book.per_class.is_empty());
    }
}
