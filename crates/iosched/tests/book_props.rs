//! Property test of the read-through estimate book: random interleavings
//! of `bind`, `set_class`, `remove` and `insert` over a few classes must
//! answer every query bitwise like a per-job map that re-estimates each
//! live job of a class whenever that class's prediction changes.
//!
//! The experiment drivers cross-check the book only under
//! `debug_assertions`; this suite runs in release builds too.

use iosched_analytics::JobEstimate;
use iosched_core::EstimateBook;
use iosched_simkit::ids::JobId;
use iosched_simkit::sym::Sym;
use iosched_simkit::time::SimDuration;
use iosched_simkit::{prop, prop_assert_eq, props};
use std::collections::BTreeMap;

const JOBS: u64 = 12;
const CLASSES: u64 = 4;

/// The per-job book with the per-completion refresh the drivers used to
/// run: every job stores its own estimate, and a class change walks the
/// class's job list and re-estimates each live member.
#[derive(Default)]
struct RefreshOracle {
    estimates: BTreeMap<JobId, JobEstimate>,
    /// `(class, fallback)` of each job ever bound, as the drivers kept
    /// the job table next to `jobs_by_sym`.
    bound: BTreeMap<JobId, (Sym, JobEstimate)>,
    jobs_by_class: BTreeMap<Sym, Vec<JobId>>,
    predictions: BTreeMap<Sym, JobEstimate>,
}

impl RefreshOracle {
    fn estimate(&self, class: Sym, fallback: JobEstimate) -> JobEstimate {
        self.predictions.get(&class).copied().unwrap_or(fallback)
    }

    fn bind(&mut self, job: JobId, class: Sym, fallback: JobEstimate) {
        self.estimates.insert(job, self.estimate(class, fallback));
        self.bound.insert(job, (class, fallback));
        self.jobs_by_class.entry(class).or_default().push(job);
    }

    fn insert(&mut self, job: JobId, est: JobEstimate) {
        self.estimates.insert(job, est);
        self.bound.remove(&job);
    }

    fn set_class(&mut self, class: Sym, est: Option<JobEstimate>) {
        if class == Sym::NONE {
            return;
        }
        match est {
            Some(e) => self.predictions.insert(class, e),
            None => self.predictions.remove(&class),
        };
        for &job in self.jobs_by_class.get(&class).into_iter().flatten() {
            // Only live jobs still bound to this class are refreshed.
            if let Some(&(c, fallback)) = self.bound.get(&job) {
                if c == class {
                    let fresh = self.estimate(class, fallback);
                    self.estimates.insert(job, fresh);
                }
            }
        }
    }

    fn remove(&mut self, job: JobId) {
        self.estimates.remove(&job);
        self.bound.remove(&job);
    }
}

fn class_of(c: u64) -> Sym {
    if c == CLASSES {
        Sym::NONE
    } else {
        Sym(c as u32)
    }
}

fn bits(e: Option<JobEstimate>) -> Option<(u64, SimDuration)> {
    e.map(|e| (e.throughput_bps.to_bits(), e.runtime))
}

props! {
    #![cases(256)]

    /// Every `get`/`r`/`d`/`d_or`/`len` answer of the book equals the
    /// refresh oracle's, bit for bit, after every operation.
    fn read_through_book_matches_per_job_refresh(
        ops in prop::vec(
            (0u64..5, 0u64..JOBS, 0u64..CLASSES + 1, -2.0f64..10.0, 0u64..4),
            1..120,
        ),
    ) {
        let mut book = EstimateBook::new();
        let mut oracle = RefreshOracle::default();
        for (step, &(kind, job, class, r, d)) in ops.iter().enumerate() {
            let job = JobId(job);
            let class = class_of(class);
            // Zero runtimes exercise `d_or`'s fallback; negative rates
            // exercise `r`'s clamp.
            let est = JobEstimate {
                throughput_bps: r,
                runtime: SimDuration::from_secs(d * 50),
            };
            match kind {
                0 => {
                    book.bind(job, class, est);
                    oracle.bind(job, class, est);
                }
                1 => {
                    book.set_class(class, Some(est));
                    oracle.set_class(class, Some(est));
                }
                2 => {
                    book.set_class(class, None);
                    oracle.set_class(class, None);
                }
                3 => {
                    book.remove(job);
                    oracle.remove(job);
                }
                _ => {
                    book.insert(job, est);
                    oracle.insert(job, est);
                }
            }
            prop_assert_eq!(book.len(), oracle.estimates.len(), "len after step {step}");
            let limit = SimDuration::from_secs(77);
            for id in (0..JOBS + 2).map(JobId) {
                let want = oracle.estimates.get(&id).copied();
                prop_assert_eq!(bits(book.get(id)), bits(want), "get({id}) after step {step}");
                let want_r = want.map_or(0.0, |e| e.throughput_bps.max(0.0));
                prop_assert_eq!(book.r(id).to_bits(), want_r.to_bits(), "r({id}) after step {step}");
                let want_d = want.map_or(SimDuration::ZERO, |e| e.runtime);
                prop_assert_eq!(book.d(id), want_d, "d({id}) after step {step}");
                let want_d_or = if want_d.is_zero() { limit } else { want_d };
                prop_assert_eq!(book.d_or(id, limit), want_d_or, "d_or({id}) after step {step}");
            }
        }
    }
}
