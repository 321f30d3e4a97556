//! The analytics service facade the scheduler talks to.

use crate::estimator::JobEstimate;
use crate::predictor::{Predictor, PredictorKind};
use iosched_ldms::LdmsDaemon;
use iosched_simkit::sym::{Sym, SymbolTable};
use iosched_simkit::time::{SimDuration, SimTime};

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct AnalyticsConfig {
    /// Which predictor backs the job-requirement estimates.
    pub predictor: PredictorKind,
    /// Trailing window over which `R_now` is averaged.
    pub load_window: SimDuration,
}

impl Default for AnalyticsConfig {
    fn default() -> Self {
        AnalyticsConfig {
            predictor: PredictorKind::default(),
            load_window: SimDuration::from_secs(30),
        }
    }
}

/// The analytical services module: job-requirement prediction plus the
/// measured-current-load query (paper Fig. 2, right-hand box).
///
/// The service owns the job-name **symbol table**: callers intern each
/// name once ([`AnalyticsService::intern`]) and use the `_sym` methods on
/// the hot path — a symbol lookup is an array index, with no string
/// allocation or comparison. The string-keyed methods remain as thin
/// wrappers for callers (and the wire protocol) that work with names.
pub struct AnalyticsService {
    cfg: AnalyticsConfig,
    predictor: Box<dyn Predictor + Send>,
    symbols: SymbolTable,
}

impl AnalyticsService {
    /// Fresh ("untrained") service.
    pub fn new(cfg: AnalyticsConfig) -> Self {
        AnalyticsService {
            predictor: cfg.predictor.build(),
            cfg,
            symbols: SymbolTable::new(),
        }
    }

    /// Service with default configuration.
    pub fn untrained() -> Self {
        Self::new(AnalyticsConfig::default())
    }

    /// Intern a job name, returning its symbol. Idempotent; allocates
    /// only the first time a name is seen.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.symbols.intern(name)
    }

    /// The symbol table (diagnostics, tests).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Predicted requirements for a job. Falls back to the paper's
    /// cold-start behaviour when no similar job has completed: assume
    /// zero Lustre throughput (the measured-load compensation in
    /// Algorithm 2 covers the risk) and take the user's requested limit
    /// as the runtime estimate.
    pub fn job_estimate(&self, name: &str, requested_limit: SimDuration) -> JobEstimate {
        let sym = self.symbols.get(name).unwrap_or(Sym::NONE);
        self.job_estimate_sym(sym, requested_limit)
    }

    /// [`AnalyticsService::job_estimate`] by interned symbol — the
    /// scheduler's per-pass fast path. `Sym::NONE` (or any symbol with no
    /// history) yields the cold-start fallback.
    pub fn job_estimate_sym(&self, name: Sym, requested_limit: SimDuration) -> JobEstimate {
        self.class_estimate_sym(name).unwrap_or(JobEstimate {
            throughput_bps: 0.0,
            runtime: requested_limit,
        })
    }

    /// The prediction shared by every job named `name`, without the
    /// cold-start fallback: `None` for `Sym::NONE` or a name with no
    /// history. It changes only when a job of that name completes (or is
    /// pretrained).
    pub fn class_estimate_sym(&self, name: Sym) -> Option<JobEstimate> {
        if name.is_some() {
            self.predictor.predict(name)
        } else {
            None
        }
    }

    /// True if at least one similar job has been observed.
    pub fn has_history_for(&self, name: &str) -> bool {
        self.symbols
            .get(name)
            .is_some_and(|sym| self.has_history_sym(sym))
    }

    /// [`AnalyticsService::has_history_for`] by interned symbol.
    pub fn has_history_sym(&self, name: Sym) -> bool {
        self.class_estimate_sym(name).is_some()
    }

    /// Measured current total Lustre throughput `R_now` (Algorithm 2,
    /// line 2): trailing-window average over the monitoring store.
    pub fn current_load_bps(&self, daemon: &LdmsDaemon, now: SimTime) -> f64 {
        daemon.measured_total_bps(now, self.cfg.load_window)
    }

    /// Notification that a job completed (paper §III): pull the job's
    /// sampled I/O records from the store, derive average throughput and
    /// runtime, and fold them into the job-name estimate.
    pub fn on_job_complete(
        &mut self,
        daemon: &LdmsDaemon,
        job_id: u64,
        name: &str,
        started: SimTime,
        ended: SimTime,
    ) {
        let sym = self.symbols.intern(name);
        self.on_job_complete_sym(daemon, job_id, sym, started, ended);
    }

    /// [`AnalyticsService::on_job_complete`] by interned symbol — no
    /// string in sight on the completion path.
    pub fn on_job_complete_sym(
        &mut self,
        daemon: &LdmsDaemon,
        job_id: u64,
        name: Sym,
        started: SimTime,
        ended: SimTime,
    ) {
        let runtime = ended.saturating_since(started);
        if runtime.is_zero() {
            return;
        }
        let bytes = daemon.job_bytes(job_id, started, ended);
        let throughput = bytes / runtime.as_secs_f64();
        self.predictor.observe(name, throughput, runtime);
    }

    /// Pre-train the estimator with a known observation — the paper's
    /// "pre-trained by running jobs in isolation" setup.
    pub fn pretrain(&mut self, name: &str, throughput_bps: f64, runtime: SimDuration) {
        let sym = self.symbols.intern(name);
        self.predictor.observe(sym, throughput_bps, runtime);
    }

    /// Direct access to the predictor (diagnostics, tests).
    pub fn predictor(&self) -> &dyn Predictor {
        self.predictor.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_assumes_zero_throughput_and_limit_runtime() {
        let svc = AnalyticsService::untrained();
        let est = svc.job_estimate("w8", SimDuration::from_secs(1800));
        assert_eq!(est.throughput_bps, 0.0);
        assert_eq!(est.runtime, SimDuration::from_secs(1800));
        assert!(!svc.has_history_for("w8"));
        // The symbol-keyed path with a never-observed symbol behaves
        // identically.
        let est = svc.job_estimate_sym(Sym::NONE, SimDuration::from_secs(1800));
        assert_eq!(est.throughput_bps, 0.0);
        assert_eq!(est.runtime, SimDuration::from_secs(1800));
    }

    #[test]
    fn pretraining_feeds_estimates() {
        let mut svc = AnalyticsService::untrained();
        svc.pretrain("w8", 1e9, SimDuration::from_secs(30));
        let est = svc.job_estimate("w8", SimDuration::from_secs(1800));
        assert_eq!(est.throughput_bps, 1e9);
        assert_eq!(est.runtime, SimDuration::from_secs(30));
        assert!(svc.has_history_for("w8"));
    }

    #[test]
    fn sym_and_string_paths_agree() {
        let mut svc = AnalyticsService::untrained();
        svc.pretrain("w8", 1e9, SimDuration::from_secs(30));
        let sym = svc.intern("w8");
        assert_eq!(
            svc.job_estimate("w8", SimDuration::from_secs(99)),
            svc.job_estimate_sym(sym, SimDuration::from_secs(99))
        );
        assert!(svc.has_history_sym(sym));
        assert_eq!(
            svc.class_estimate_sym(sym),
            Some(svc.job_estimate_sym(sym, SimDuration::from_secs(99)))
        );
        assert_eq!(svc.class_estimate_sym(Sym::NONE), None);
        // Interning a fresh name gives a cold-start estimate until a
        // completion is observed.
        let cold = svc.intern("new-job");
        assert!(!svc.has_history_sym(cold));
        assert_eq!(svc.class_estimate_sym(cold), None);
        assert_eq!(
            svc.job_estimate_sym(cold, SimDuration::from_secs(7))
                .runtime,
            SimDuration::from_secs(7)
        );
    }

    #[test]
    fn completion_updates_from_monitoring_records() {
        let mut daemon = LdmsDaemon::new(SimDuration::from_secs(1));
        // Job 5 ("w8") writes at 200 B/s from t=0 to t=10.
        for s in 0..10 {
            daemon.sample(SimTime::from_secs(s), 200.0, &[(5, 200.0)], 1);
        }
        let mut svc = AnalyticsService::untrained();
        svc.on_job_complete(&daemon, 5, "w8", SimTime::ZERO, SimTime::from_secs(10));
        let est = svc.job_estimate("w8", SimDuration::from_secs(999));
        assert!((est.throughput_bps - 200.0).abs() < 1e-6, "{est:?}");
        assert_eq!(est.runtime, SimDuration::from_secs(10));
    }

    #[test]
    fn completion_by_symbol_updates_estimates() {
        let mut daemon = LdmsDaemon::new(SimDuration::from_secs(1));
        for s in 0..10 {
            daemon.sample(SimTime::from_secs(s), 200.0, &[(5, 200.0)], 1);
        }
        let mut svc = AnalyticsService::untrained();
        let sym = svc.intern("w8");
        svc.on_job_complete_sym(&daemon, 5, sym, SimTime::ZERO, SimTime::from_secs(10));
        let est = svc.job_estimate_sym(sym, SimDuration::from_secs(999));
        assert!((est.throughput_bps - 200.0).abs() < 1e-6, "{est:?}");
        assert!(svc.has_history_for("w8"));
    }

    #[test]
    fn zero_runtime_completion_ignored() {
        let daemon = LdmsDaemon::new(SimDuration::from_secs(1));
        let mut svc = AnalyticsService::untrained();
        svc.on_job_complete(&daemon, 1, "w8", SimTime::ZERO, SimTime::ZERO);
        assert!(!svc.has_history_for("w8"));
    }

    #[test]
    fn current_load_reads_window_average() {
        let mut daemon = LdmsDaemon::new(SimDuration::from_secs(1));
        for s in 0..60 {
            daemon.sample(SimTime::from_secs(s), 10.0, &[], 0);
        }
        let svc = AnalyticsService::untrained();
        let r = svc.current_load_bps(&daemon, SimTime::from_secs(59));
        assert!((r - 10.0).abs() < 1e-9);
    }
}
