//! The experiment event loop.
//!
//! One [`run_experiment`] call reproduces one panel of the paper's Fig. 3
//! or Fig. 5: a full workload scheduled to completion under a chosen
//! scheduler configuration, with monitoring traces recorded along the way.
//!
//! Event loop structure (all simulated time):
//!
//! * the **cluster** advances through stream completions and phase ends;
//! * the **monitoring daemon** samples throughput and allocation at a
//!   fixed cadence (1 s, like the paper's LDMS setup);
//! * the **scheduler** runs a backfill pass periodically (`sched_period`,
//!   Slurm's backfill interval) and after job completions, subject to a
//!   minimum interval (Slurm's `sched_min_interval`);
//! * completions are reported to the **analytics**, and the finished
//!   job's name class gets its new prediction in the persistent
//!   [`EstimateBook`], which every job of that class reads through.
//!
//! The control-plane data path is allocation-free in steady state: job
//! names are interned once at submission, the estimate book persists
//! across rounds (jobs bound to their class at submission, one class
//! entry set per completion, jobs removed when they finish), and every
//! per-pass buffer — queue ids, queue refs, running views, the
//! scheduling outcome — is reused.

use iosched_analytics::service::{AnalyticsConfig, AnalyticsService};
use iosched_cluster::{ClusterSim, ExecSpec, JobCompletion};
use iosched_core::{AdaptiveConfig, AdaptivePolicy, EstimateBook, IoAwareConfig, IoAwarePolicy};
use iosched_ldms::LdmsDaemon;
use iosched_lustre::LustreConfig;
use iosched_simkit::ids::JobId;
use iosched_simkit::rng::SimRng;
use iosched_simkit::series::TimeSeries;
use iosched_simkit::sym::Sym;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_slurm::policy::NodePolicy;
use iosched_slurm::{
    backfill_pass_into, BackfillConfig, JobRegistry, PassStats, PriorityPolicy, RunningView,
    SchedJob, SchedulingOutcome,
};
use iosched_workloads::JobSubmission;

/// Which scheduler to run — the five configurations of the paper's
/// evaluation plus the naïve-adaptive ablation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedulerKind {
    /// Stock Slurm backfill (nodes only).
    DefaultBackfill,
    /// I/O-aware with a fixed throughput limit (bytes/s).
    IoAware { limit_bps: f64 },
    /// Workload-adaptive; `two_group = false` is the naïve ablation.
    Adaptive { limit_bps: f64, two_group: bool },
    /// Dot-product vector packing (TETRIS-style, §VIII comparator):
    /// order-free, reservation-free greedy packing of nodes × bandwidth.
    Packing { limit_bps: f64 },
}
iosched_simkit::impl_json_enum!(SchedulerKind {
    DefaultBackfill,
    IoAware { limit_bps },
    Adaptive { limit_bps, two_group },
    Packing { limit_bps },
});

impl SchedulerKind {
    /// Short human-readable label used in figure outputs.
    pub fn label(&self) -> String {
        use iosched_simkit::units::to_gibps;
        match self {
            SchedulerKind::DefaultBackfill => "default".to_string(),
            SchedulerKind::IoAware { limit_bps } => {
                format!("io-aware-{:.0}", to_gibps(*limit_bps))
            }
            SchedulerKind::Adaptive {
                limit_bps,
                two_group,
            } => format!(
                "adaptive{}-{:.0}",
                if *two_group { "" } else { "-naive" },
                to_gibps(*limit_bps)
            ),
            SchedulerKind::Packing { limit_bps } => {
                format!("packing-{:.0}", to_gibps(*limit_bps))
            }
        }
    }
}

/// Full configuration of one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    pub scheduler: SchedulerKind,
    pub fs: LustreConfig,
    /// Compute nodes (paper testbed: 15).
    pub nodes: usize,
    /// Master seed; all stochastic behaviour derives from it.
    pub seed: u64,
    /// Backfill interval (Slurm `bf_interval`, default 30 s).
    pub sched_period: SimDuration,
    /// Minimum spacing between event-triggered passes
    /// (Slurm `sched_min_interval`).
    pub sched_min_interval: SimDuration,
    /// Monitoring cadence (paper: 1 s).
    pub sample_period: SimDuration,
    /// Only the first `max_queue_depth` queued jobs are examined per pass
    /// (Slurm `bf_max_job_test`).
    pub max_queue_depth: usize,
    /// `BackfillMax` of Algorithm 1.
    pub backfill_max: usize,
    /// Pre-train the estimator by running each job type in isolation.
    pub pretrained: bool,
    /// QoS fraction of the two-group threshold, Eq. (2) (paper: 0.5).
    /// Only affects `SchedulerKind::Adaptive`.
    pub qos_fraction: f64,
    /// Kill jobs that exceed their requested limit `L_j` (Slurm's
    /// behaviour). Off by default: the paper's workloads are sized so no
    /// job hits its limit, and killed write jobs would change the offered
    /// I/O volume.
    pub enforce_limits: bool,
    /// Queue ordering before each backfill pass (Algorithm 1, line 2).
    pub priority_policy: PriorityPolicy,
    /// Per-node burst-buffer capacity in bytes (0 = none, the paper's
    /// setup). Buffered write bytes complete at client speed and drain
    /// asynchronously.
    pub burst_buffer_per_node_bytes: f64,
    /// Skip scheduling rounds that are provably identical to the previous
    /// one (nothing submitted/completed/killed since — only completions
    /// change estimates — `now` before the previous round's earliest
    /// future start, and the policy's tracker build is time-invariant).
    /// Outcome is bit-identical either way (debug-asserted); only worth
    /// disabling as a bench baseline.
    pub elide_rounds: bool,
    /// Analytics configuration (EMA decay, measurement window).
    pub analytics: AnalyticsConfig,
}

impl ExperimentConfig {
    /// The paper's testbed defaults for a given scheduler.
    pub fn paper(scheduler: SchedulerKind, seed: u64) -> Self {
        ExperimentConfig {
            scheduler,
            fs: LustreConfig::stria(),
            nodes: 15,
            seed,
            sched_period: SimDuration::from_secs(30),
            sched_min_interval: SimDuration::from_secs(2),
            sample_period: SimDuration::from_secs(1),
            max_queue_depth: 500,
            backfill_max: usize::MAX,
            pretrained: true,
            qos_fraction: 0.5,
            enforce_limits: false,
            priority_policy: PriorityPolicy::Fifo,
            burst_buffer_per_node_bytes: 0.0,
            elide_rounds: true,
            analytics: AnalyticsConfig::default(),
        }
    }

    /// The paper's testbed grown `factor ×` in horizontal extent:
    /// `factor × 15` compute nodes in front of a
    /// [`LustreConfig::scaled`] file system. `factor = 67` ≈ a 1 000-node
    /// machine, `factor = 667` ≈ 10 000 nodes — the scale sweep's axis.
    pub fn paper_scaled(scheduler: SchedulerKind, seed: u64, factor: usize) -> Self {
        assert!(factor >= 1, "scale factor must be at least 1");
        let mut cfg = Self::paper(scheduler, seed);
        cfg.nodes *= factor;
        cfg.fs = cfg.fs.scaled(factor);
        cfg
    }
}

/// Per-job outcome record.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub id: JobId,
    pub name: String,
    pub submit: SimTime,
    pub start: SimTime,
    pub end: SimTime,
    /// True if the job was killed at its runtime limit.
    pub timed_out: bool,
}
iosched_simkit::impl_json_struct!(JobRecord {
    id,
    name,
    submit,
    start,
    end,
    timed_out,
});

impl JobRecord {
    /// Wait time `Q_j`.
    pub fn wait(&self) -> SimDuration {
        self.start.saturating_since(self.submit)
    }

    /// Runtime `D_j`.
    pub fn runtime(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Everything one run produces.
#[derive(Clone, Debug, Default)]
pub struct ExperimentResult {
    /// Total workload runtime (first submit → last completion), seconds.
    pub makespan_secs: f64,
    /// Sampled aggregate Lustre throughput (bytes/s).
    pub throughput_trace: TimeSeries,
    /// Sampled allocated-node count.
    pub nodes_trace: TimeSeries,
    /// Sampled mean OST fatigue level (model diagnostic).
    pub fatigue_trace: TimeSeries,
    /// Sampled active-stream count (model diagnostic).
    pub streams_trace: TimeSeries,
    /// Per-job records, by id.
    pub jobs: Vec<JobRecord>,
    /// Scheduling passes executed (including elided rounds — an elided
    /// round *is* a pass whose outcome was proven unchanged, so the
    /// counter stays comparable across `elide_rounds` settings).
    pub sched_passes: u64,
    /// Of [`Self::sched_passes`], rounds whose queue walk was elided
    /// because the previous outcome provably still held.
    pub rounds_elided: u64,
    /// Event-loop iterations executed (the loop's `guard` counter): a
    /// deterministic proxy for event count, recorded by the campaign
    /// bench so an event blowup fails the perf gate even when wall-time
    /// noise hides it.
    pub loop_iterations: u64,
    /// Scheduler label (for reports).
    pub label: String,
}

impl ExperimentResult {
    /// Average allocated nodes over the makespan.
    pub fn mean_busy_nodes(&self) -> f64 {
        self.nodes_trace
            .time_average(SimTime::ZERO, SimTime::from_secs_f64(self.makespan_secs))
    }

    /// Average aggregate throughput over the makespan (bytes/s).
    pub fn mean_throughput_bps(&self) -> f64 {
        self.throughput_trace
            .time_average(SimTime::ZERO, SimTime::from_secs_f64(self.makespan_secs))
    }
}

/// The scheduler-policy dispatch (static enum rather than trait objects:
/// `SchedulingPolicy` has an associated tracker type). Shared with the
/// streaming replay driver ([`crate::streaming`]).
// One instance per experiment run; the adaptive variant carries its
// pooled scratch inline so rounds stay allocation-free — boxing it
// would trade a one-off stack cost for a pointer chase per round.
#[allow(clippy::large_enum_variant)]
pub(crate) enum PolicyImpl {
    Default(NodePolicy),
    IoAware(IoAwarePolicy),
    Adaptive(AdaptivePolicy),
    Packing(iosched_core::PackingConfig),
}

impl PolicyImpl {
    pub(crate) fn new(kind: SchedulerKind, qos_fraction: f64) -> Self {
        match kind {
            SchedulerKind::DefaultBackfill => PolicyImpl::Default(NodePolicy::default()),
            SchedulerKind::IoAware { limit_bps } => {
                PolicyImpl::IoAware(IoAwarePolicy::new(IoAwareConfig { limit_bps }))
            }
            SchedulerKind::Adaptive {
                limit_bps,
                two_group,
            } => PolicyImpl::Adaptive(AdaptivePolicy::new(AdaptiveConfig {
                limit_bps,
                two_group,
                qos_fraction,
            })),
            SchedulerKind::Packing { limit_bps } => {
                PolicyImpl::Packing(iosched_core::PackingConfig { limit_bps })
            }
        }
    }

    /// One scheduling round. The driver's persistent book is lent to the
    /// I/O-aware policies for the duration of the round (`begin_round` /
    /// `take_book`), so no estimate map is rebuilt or cloned per pass.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_pass(
        &mut self,
        book: &mut EstimateBook,
        running: &[RunningView<'_>],
        queue: &[&SchedJob],
        now: SimTime,
        total_nodes: usize,
        bf: &BackfillConfig,
        outcome: &mut SchedulingOutcome,
    ) -> PassStats {
        match self {
            PolicyImpl::Default(p) => {
                backfill_pass_into(p, running, queue, now, total_nodes, bf, outcome)
            }
            PolicyImpl::IoAware(p) => {
                p.begin_round(std::mem::take(book));
                let stats = backfill_pass_into(p, running, queue, now, total_nodes, bf, outcome);
                *book = p.take_book();
                stats
            }
            PolicyImpl::Adaptive(p) => {
                p.begin_round(std::mem::take(book));
                let stats = backfill_pass_into(p, running, queue, now, total_nodes, bf, outcome);
                *book = p.take_book();
                stats
            }
            PolicyImpl::Packing(cfg) => {
                *outcome = iosched_core::packing_pass(book, running, queue, now, total_nodes, cfg);
                // `next_possible_start = ZERO` means `now < horizon` is
                // never true: packing rounds are never elided (the pass
                // has no fixpoint horizon to reuse).
                PassStats {
                    next_possible_start: SimTime::ZERO,
                    pruned: 0,
                }
            }
        }
    }

    /// True when this policy's tracker build depends only on the running
    /// set and queue — not on `now` or freshly measured load — so a round
    /// with identical inputs at a later `now` (before any reservation
    /// horizon) must decide identically. The elision precondition.
    pub(crate) fn round_is_time_invariant(
        &self,
        book: &EstimateBook,
        running: &[(JobId, SimTime)],
        measured_bps: f64,
    ) -> bool {
        match self {
            // Node/license profiles are built from started/limit pairs;
            // reservation ends past `now` only move for overrunning jobs,
            // which the driver's `next_limit_expiry` guard excludes.
            PolicyImpl::Default(_) => true,
            // The LT build adds an "unaccounted" term
            // `measured − Σ r̂` pinned to `[now, now + window)` whenever
            // measured load exceeds the running jobs' estimates; that
            // breakpoint tracks `now`, so only rounds without it are
            // time-invariant.
            PolicyImpl::IoAware(p) => {
                let limit = p.config().limit_bps;
                let sum_running: f64 = running.iter().map(|&(id, _)| book.r(id).min(limit)).sum();
                measured_bps <= sum_running
            }
            // `compute_target` divides remaining work by horizons measured
            // from `now` whenever jobs are running; only an idle cluster
            // makes the round time-invariant.
            PolicyImpl::Adaptive(_) => running.is_empty(),
            // Packing never elides (see `run_pass`).
            PolicyImpl::Packing(_) => false,
        }
    }
}

/// One row of the driver's immutable job table: scheduling metadata plus
/// the execution spec, id-sorted for binary-search lookup. The table is
/// never mutated after submission, so per-pass `&SchedJob` views can be
/// resolved against it without fighting the registry's mutable borrows.
struct JobEntry {
    meta: SchedJob,
    spec: ExecSpec,
}

/// Look up a job's table row by id (ids are unique; the table is sorted).
fn entry(jobs: &[JobEntry], id: JobId) -> &JobEntry {
    let i = jobs
        .binary_search_by_key(&id, |e| e.meta.id)
        .unwrap_or_else(|_| panic!("unknown {id}"));
    &jobs[i]
}

/// Reusable buffers for [`run_experiment_with_scratch`]. Campaign
/// workers keep one per thread and reuse it across runs, so repeated
/// experiments stop churning the allocator on completion harvests,
/// snapshots and scheduling passes.
#[derive(Default)]
pub struct RunScratch {
    completions: Vec<JobCompletion>,
    snap: iosched_lustre::FsSnapshot,
    per_job: Vec<(u64, f64)>,
    queue_ids: Vec<JobId>,
    running_pairs: Vec<(JobId, SimTime)>,
    outcome: SchedulingOutcome,
    /// The previous executed round's outcome — what an elided round
    /// re-reports (and what the debug oracle replays against).
    prev_outcome: SchedulingOutcome,
}

/// Run one experiment to completion.
pub fn run_experiment(cfg: &ExperimentConfig, workload: &[JobSubmission]) -> ExperimentResult {
    run_experiment_with_scratch(cfg, workload, &mut RunScratch::default())
}

/// [`run_experiment`] with caller-owned scratch buffers (see
/// [`RunScratch`]); the result is identical.
pub fn run_experiment_with_scratch(
    cfg: &ExperimentConfig,
    workload: &[JobSubmission],
    scratch: &mut RunScratch,
) -> ExperimentResult {
    assert!(!workload.is_empty(), "workload must not be empty");
    let master = SimRng::from_seed(cfg.seed);
    let mut cluster = ClusterSim::new(cfg.nodes, cfg.fs.clone(), master.fork(1));
    cluster.set_burst_buffer(cfg.burst_buffer_per_node_bytes);
    let mut daemon = LdmsDaemon::new(cfg.sample_period);
    let mut analytics = AnalyticsService::new(cfg.analytics);
    let mut policy = PolicyImpl::new(cfg.scheduler, cfg.qos_fraction);
    let bf = BackfillConfig {
        max_reservations: cfg.backfill_max,
        prune_fits_now: true,
        monotone_cursor: true,
    };

    if cfg.pretrained {
        for (name, r, d) in crate::pretrain::pretrain_isolated_with_bb(
            &cfg.fs,
            workload,
            cfg.seed,
            cfg.burst_buffer_per_node_bytes,
        ) {
            analytics.pretrain(&name, r, d);
        }
    }

    // Registry + the immutable job table. Names are interned exactly once
    // here; everything downstream works with `Sym` handles.
    let mut registry = JobRegistry::new();
    let mut jobs: Vec<JobEntry> = Vec::with_capacity(workload.len());
    for sub in workload {
        let sym = analytics.intern(&sub.name);
        let meta = SchedJob::new(
            sub.id,
            sub.name.clone(),
            sub.exec.nodes,
            sub.limit,
            sub.submit,
        )
        .with_priority(sub.priority)
        .with_after(sub.after.clone())
        .with_name_sym(sym);
        registry.submit(meta.clone());
        jobs.push(JobEntry {
            meta,
            spec: sub.exec.clone(),
        });
    }
    jobs.sort_unstable_by_key(|e| e.meta.id);

    // The persistent estimate book (Algorithm 2, line 1 — incremental):
    // every submitted job is bound to its name class with the cold-start
    // fallback, each class entry holds the current prediction, and entries
    // are dropped as jobs finish. The prediction of a class changes only
    // when one of its jobs completes, which sets that class entry again,
    // so the values seen in any round equal a rebuild from the analytics.
    let mut book = EstimateBook::new();
    for e in &jobs {
        let sym = e.meta.name_sym;
        book.set_class(sym, analytics.class_estimate_sym(sym));
        book.bind(
            e.meta.id,
            sym,
            analytics.job_estimate_sym(Sym::NONE, e.meta.limit),
        );
    }

    let mut result = ExperimentResult {
        label: cfg.scheduler.label(),
        ..ExperimentResult::default()
    };

    let first_submit = workload.iter().map(|s| s.submit).min().unwrap();
    let mut next_sched = first_submit;
    let mut last_sched: Option<SimTime> = None;
    let mut sched_requested = true;
    let mut now = SimTime::ZERO;

    // Round-elision state (see `ExperimentConfig::elide_rounds`). A round
    // may be skipped only if: nothing dirtied the inputs since the last
    // executed round, `now` is before that round's earliest future start,
    // no job was submitted since it ran, no running job is at its limit
    // (an overrunning job's reservation end tracks `now`), and the
    // policy's tracker build was and still is time-invariant.
    let mut round_dirty = true;
    let mut prev_round_at = SimTime::ZERO;
    let mut prev_next_possible = SimTime::ZERO;
    let mut prev_invariant = false;

    // Sampling and per-pass buffers live in `scratch`, reused across
    // ticks and across whole runs. The reference vectors borrow from the
    // run-local job table, so they stay local (cheap: they reach working
    // capacity within a few passes of each run).
    let RunScratch {
        completions,
        snap,
        per_job,
        queue_ids,
        running_pairs,
        outcome,
        prev_outcome,
    } = scratch;
    let mut queue_refs: Vec<&SchedJob> = Vec::new();
    let mut running_views: Vec<RunningView<'_>> = Vec::new();
    #[cfg(debug_assertions)]
    let mut oracle_outcome = SchedulingOutcome::default();

    let mut guard: u64 = 0;
    while !registry.all_completed() {
        guard += 1;
        assert!(
            guard < 50_000_000,
            "event loop failed to converge (time {now}; {} pending, {} running, \
             {} resident; next cluster event {:?}, next sample {}, next round {next_sched})",
            registry.pending_count(),
            registry.running_count(),
            registry.pending_count() + registry.running_count(),
            cluster.next_event_time(),
            daemon.next_sample_at(),
        );

        // Next event: cluster activity, sampling tick, scheduling tick,
        // or a future submission.
        let mut t_next = next_sched;
        if let Some(t) = cluster.next_event_time() {
            t_next = t_next.min(t);
        }
        t_next = t_next.min(daemon.next_sample_at());
        if let Some(t) = registry.next_submission_after(now) {
            t_next = t_next.min(t);
        }
        if cfg.enforce_limits {
            if let Some(t) = registry.next_limit_expiry() {
                t_next = t_next.min(t);
            }
        }
        // Never move backwards (e.g. a sched request issued "now").
        let t = t_next.max(now);

        // 1. Advance the cluster; harvest completions into the reusable
        // buffer.
        cluster.advance_to_into(t, completions);
        for c in completions.iter() {
            registry.mark_completed(c.job, c.at);
            let sym = entry(&jobs, c.job).meta.name_sym;
            let (started, ended) = match registry.state(c.job) {
                Some(iosched_slurm::JobState::Completed { started, ended }) => (started, ended),
                _ => unreachable!("just marked completed"),
            };
            analytics.on_job_complete_sym(&daemon, c.job.0, sym, started, ended);
            daemon.retire_job(c.job.0);
            book.remove(c.job);
            // The completion changed this name's prediction, which every
            // similar job still alive reads through its class entry.
            book.set_class(sym, analytics.class_estimate_sym(sym));
            sched_requested = true;
            round_dirty = true;
        }
        now = t;

        // 1b. Limit enforcement: kill running jobs that hit `L_j`.
        if cfg.enforce_limits {
            for (id, _) in registry.overrunning(now) {
                cluster
                    .cancel_job(now, id)
                    .expect("overrunning job is running");
                registry.mark_timed_out(id, now);
                daemon.retire_job(id.0);
                book.remove(id);
                // Killed jobs produce no estimator observation: their
                // measured volume is truncated and would bias r̂/d̂.
                sched_requested = true;
                round_dirty = true;
            }
        }

        // 2. Monitoring sample.
        if now >= daemon.next_sample_at() {
            cluster.fs().snapshot_into(snap);
            per_job.clear();
            per_job.extend(snap.per_tag_bps.iter().map(|&(tag, bps)| (tag.0, bps)));
            daemon.sample(now, snap.total_bps, per_job, cluster.busy_nodes());
            result.throughput_trace.push(now, snap.total_bps);
            result.nodes_trace.push(now, cluster.busy_nodes() as f64);
            let fat = cluster.fs().ost_fatigue();
            result
                .fatigue_trace
                .push(now, fat.iter().sum::<f64>() / fat.len().max(1) as f64);
            result
                .streams_trace
                .push(now, cluster.fs().active_stream_count() as f64);
        }

        // 3. Scheduling pass (periodic, or event-triggered subject to the
        // minimum interval).
        let min_ok = last_sched.is_none_or(|ls| now.saturating_since(ls) >= cfg.sched_min_interval);
        if now >= next_sched || (sched_requested && min_ok) {
            sched_requested = false;
            last_sched = Some(now);
            next_sched = now + cfg.sched_period;

            registry.wait_queue_ids_limited_into(
                now,
                cfg.priority_policy,
                cfg.max_queue_depth,
                queue_ids,
            );
            if !queue_ids.is_empty() {
                // Elided rounds count too: a pass whose outcome was
                // proven unchanged is still a pass, and the counter must
                // not depend on `elide_rounds`.
                result.sched_passes += 1;
                registry.running_ids_into(running_pairs);
                // Line 2 of Algorithm 2: measured current load.
                let measured = analytics.current_load_bps(&daemon, now);

                let elide = cfg.elide_rounds
                    && !round_dirty
                    && now < prev_next_possible
                    && registry
                        .next_submission_after(prev_round_at)
                        .is_none_or(|s| s > now)
                    && registry.next_limit_expiry().is_none_or(|e| e > now)
                    && prev_invariant
                    && policy.round_is_time_invariant(&book, running_pairs, measured);

                if elide {
                    result.rounds_elided += 1;
                    // Debug oracle: replay the full queue walk and insist
                    // the previous executed round's outcome still holds
                    // verbatim (in particular, nothing could start).
                    #[cfg(debug_assertions)]
                    {
                        queue_refs.clear();
                        queue_refs.extend(queue_ids.iter().map(|&id| &entry(&jobs, id).meta));
                        running_views.clear();
                        running_views.extend(running_pairs.iter().map(|&(id, started)| {
                            RunningView {
                                job: &entry(&jobs, id).meta,
                                started,
                            }
                        }));
                        book.measured_total_bps = measured;
                        policy.run_pass(
                            &mut book,
                            &running_views,
                            &queue_refs,
                            now,
                            cfg.nodes,
                            &bf,
                            &mut oracle_outcome,
                        );
                        debug_assert!(
                            oracle_outcome.start_now.is_empty(),
                            "elided round at {now} would have started {:?}",
                            oracle_outcome.start_now
                        );
                        debug_assert_eq!(
                            oracle_outcome, *prev_outcome,
                            "elided round at {now} diverged from the previous outcome"
                        );
                    }
                } else {
                    queue_refs.clear();
                    queue_refs.extend(queue_ids.iter().map(|&id| &entry(&jobs, id).meta));
                    running_views.clear();
                    running_views.extend(running_pairs.iter().map(|&(id, started)| RunningView {
                        job: &entry(&jobs, id).meta,
                        started,
                    }));

                    book.measured_total_bps = measured;

                    // The incremental book must agree with what a rebuild
                    // from the analytics would produce for every job the
                    // round can see.
                    #[cfg(debug_assertions)]
                    for j in queue_refs
                        .iter()
                        .copied()
                        .chain(running_views.iter().map(|rv| rv.job))
                    {
                        debug_assert_eq!(
                            book.get(j.id),
                            Some(analytics.job_estimate_sym(j.name_sym, j.limit)),
                            "estimate book out of sync for {}",
                            j.id
                        );
                    }

                    let stats = policy.run_pass(
                        &mut book,
                        &running_views,
                        &queue_refs,
                        now,
                        cfg.nodes,
                        &bf,
                        outcome,
                    );
                    prev_round_at = now;
                    prev_next_possible = stats.next_possible_start;
                    prev_invariant = policy.round_is_time_invariant(&book, running_pairs, measured);
                    round_dirty = false;

                    for &id in &outcome.start_now {
                        let spec = &entry(&jobs, id).spec;
                        cluster
                            .start_job(now, id, spec)
                            .unwrap_or_else(|e| panic!("scheduler overcommitted: {e}"));
                        registry.mark_started(id, now);
                    }
                    if !outcome.start_now.is_empty() {
                        // Starts changed the running set; the next round
                        // sees different inputs.
                        round_dirty = true;
                    }
                    std::mem::swap(outcome, prev_outcome);
                }
            }
        }
    }

    // Final sample so traces extend to the end of the run. Stamped at the
    // completion time itself — never past it: stamping at the *next*
    // scheduled sample tick would extend the trace beyond the makespan
    // and bias tail averages. Skipped when the regular cadence already
    // sampled this instant.
    if result.throughput_trace.last_time() != Some(now) {
        cluster.fs().snapshot_into(snap);
        result.throughput_trace.push(now, snap.total_bps);
        result.nodes_trace.push(now, cluster.busy_nodes() as f64);
    }

    result.loop_iterations = guard;
    result.makespan_secs = registry
        .makespan()
        .expect("all jobs completed")
        .as_secs_f64();
    result.jobs = registry
        .timings()
        .iter()
        .map(|&(id, _, _)| {
            let meta = registry.meta(id).unwrap();
            let (started, ended, timed_out) = match registry.state(id) {
                Some(iosched_slurm::JobState::Completed { started, ended }) => {
                    (started, ended, false)
                }
                Some(iosched_slurm::JobState::TimedOut { started, ended }) => {
                    (started, ended, true)
                }
                _ => unreachable!(),
            };
            JobRecord {
                id,
                name: meta.name.clone(),
                submit: meta.submit,
                start: started,
                end: ended,
                timed_out,
            }
        })
        .collect();
    result.jobs.sort_by_key(|r| r.id);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::units::{gib, gibps};
    use iosched_workloads::{JobSubmission, WorkloadBuilder};

    fn tiny_workload() -> Vec<JobSubmission> {
        // 2 waves of 4 write×4 + 6 short sleeps on a small volume: quick.
        WorkloadBuilder::new()
            .waves(2, |b| {
                b.batch(
                    4,
                    "write_x4",
                    ExecSpec::write_xn(4, gib(2.0)),
                    SimDuration::from_secs(600),
                )
                .batch(
                    6,
                    "sleep",
                    ExecSpec::sleep(SimDuration::from_secs(30)),
                    SimDuration::from_secs(60),
                )
            })
            .build()
    }

    fn quick_cfg(kind: SchedulerKind) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(kind, 7);
        cfg.fs = LustreConfig::stria().noiseless();
        cfg.nodes = 5;
        cfg.sched_period = SimDuration::from_secs(5);
        cfg
    }

    #[test]
    fn default_scheduler_completes_workload() {
        let res = run_experiment(&quick_cfg(SchedulerKind::DefaultBackfill), &tiny_workload());
        assert_eq!(res.jobs.len(), 20);
        assert!(res.makespan_secs > 0.0);
        assert!(res.sched_passes > 0);
        // Starts never precede submissions; ends never precede starts.
        for j in &res.jobs {
            assert!(j.start >= j.submit);
            assert!(j.end >= j.start);
        }
        // All sampled node counts within the cluster size.
        assert!(res.nodes_trace.max_value().unwrap() <= 5.0);
    }

    #[test]
    fn io_aware_respects_limit_on_average() {
        let limit = gibps(3.0);
        let res = run_experiment(
            &quick_cfg(SchedulerKind::IoAware { limit_bps: limit }),
            &tiny_workload(),
        );
        assert_eq!(res.jobs.len(), 20);
        // The scheduler plans below the limit; transient measurement
        // excursions are possible, so check the time-average.
        assert!(
            res.mean_throughput_bps() < limit * 1.2,
            "mean {} vs limit {}",
            res.mean_throughput_bps(),
            limit
        );
    }

    #[test]
    fn adaptive_completes_and_records_traces() {
        let res = run_experiment(
            &quick_cfg(SchedulerKind::Adaptive {
                limit_bps: gibps(20.0),
                two_group: true,
            }),
            &tiny_workload(),
        );
        assert_eq!(res.jobs.len(), 20);
        assert!(res.throughput_trace.len() > 10);
        assert!(res.nodes_trace.len() > 10);
        assert_eq!(res.label, "adaptive-20");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let cfg = quick_cfg(SchedulerKind::Adaptive {
            limit_bps: gibps(20.0),
            two_group: true,
        });
        let w = tiny_workload();
        let a = run_experiment(&cfg, &w);
        let b = run_experiment(&cfg, &w);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        let starts_a: Vec<SimTime> = a.jobs.iter().map(|j| j.start).collect();
        let starts_b: Vec<SimTime> = b.jobs.iter().map(|j| j.start).collect();
        assert_eq!(starts_a, starts_b);
    }

    #[test]
    fn untrained_runs_still_complete() {
        let mut cfg = quick_cfg(SchedulerKind::Adaptive {
            limit_bps: gibps(20.0),
            two_group: true,
        });
        cfg.pretrained = false;
        let res = run_experiment(&cfg, &tiny_workload());
        assert_eq!(res.jobs.len(), 20);
    }

    #[test]
    fn traces_never_extend_past_the_makespan() {
        // Write jobs finish at fractional times between sample ticks; the
        // final trace point must be stamped at the completion time, not
        // at the next (never-taken) sampling tick past the makespan.
        let res = run_experiment(&quick_cfg(SchedulerKind::DefaultBackfill), &tiny_workload());
        let end = res.jobs.iter().map(|j| j.end).max().unwrap();
        assert_eq!(res.throughput_trace.last_time(), Some(end));
        assert_eq!(res.nodes_trace.last_time(), Some(end));
    }

    #[test]
    fn priority_policy_reorders_dispatch() {
        // Two batches on a 1-node cluster: low priority first in FIFO
        // order, high priority second. Under Priority ordering the
        // high-priority job runs first.
        let w = WorkloadBuilder::new()
            .priority(1)
            .batch(
                1,
                "low",
                ExecSpec::sleep(SimDuration::from_secs(20)),
                SimDuration::from_secs(40),
            )
            .priority(9)
            .batch(
                1,
                "high",
                ExecSpec::sleep(SimDuration::from_secs(20)),
                SimDuration::from_secs(40),
            )
            .build();
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.nodes = 1;
        cfg.priority_policy = PriorityPolicy::Priority;
        let res = run_experiment(&cfg, &w);
        let high = res.jobs.iter().find(|j| j.name == "high").unwrap();
        let low = res.jobs.iter().find(|j| j.name == "low").unwrap();
        assert!(high.start < low.start, "{res:?}");

        // FIFO keeps submission order.
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.nodes = 1;
        let res = run_experiment(&cfg, &w);
        let high = res.jobs.iter().find(|j| j.name == "high").unwrap();
        let low = res.jobs.iter().find(|j| j.name == "low").unwrap();
        assert!(low.start < high.start);
    }

    #[test]
    fn queue_depth_cap_defers_deep_jobs() {
        // 1-node cluster, 3 sleeps; with depth 1, only the head is
        // examined each round — later jobs still run eventually.
        let w = WorkloadBuilder::new()
            .batch(
                3,
                "s",
                ExecSpec::sleep(SimDuration::from_secs(10)),
                SimDuration::from_secs(20),
            )
            .build();
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.nodes = 1;
        cfg.max_queue_depth = 1;
        let res = run_experiment(&cfg, &w);
        assert_eq!(res.jobs.len(), 3);
        let mut starts: Vec<_> = res.jobs.iter().map(|j| j.start).collect();
        starts.sort();
        assert!(starts[2] >= SimTime::from_secs(20));
    }

    #[test]
    fn easy_backfill_mode_completes() {
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.backfill_max = 1;
        let res = run_experiment(&cfg, &tiny_workload());
        assert_eq!(res.jobs.len(), 20);
    }

    #[test]
    fn windowed_quantile_predictor_works_in_the_loop() {
        use iosched_analytics::PredictorKind;
        let mut cfg = quick_cfg(SchedulerKind::Adaptive {
            limit_bps: gibps(20.0),
            two_group: true,
        });
        cfg.analytics.predictor = PredictorKind::WindowedQuantile {
            window: 5,
            quantile: 0.5,
        };
        let res = run_experiment(&cfg, &tiny_workload());
        assert_eq!(res.jobs.len(), 20);
    }

    #[test]
    fn dependency_chains_serialize_workflow_stages() {
        // preprocess → simulate → archive: stages must not overlap even
        // though plenty of nodes are free.
        let w = WorkloadBuilder::new()
            .batch(
                2,
                "preprocess",
                ExecSpec::sleep(SimDuration::from_secs(20)),
                SimDuration::from_secs(40),
            )
            .after_previous()
            .batch(
                2,
                "simulate",
                ExecSpec::sleep(SimDuration::from_secs(30)),
                SimDuration::from_secs(60),
            )
            .after_previous()
            .batch(
                1,
                "archive",
                ExecSpec::write_xn(2, gib(0.9)),
                SimDuration::from_secs(60),
            )
            .build();
        let res = run_experiment(&quick_cfg(SchedulerKind::DefaultBackfill), &w);
        assert_eq!(res.jobs.len(), 5);
        let stage_end = |name: &str| {
            res.jobs
                .iter()
                .filter(|j| j.name == name)
                .map(|j| j.end)
                .max()
                .unwrap()
        };
        let stage_start = |name: &str| {
            res.jobs
                .iter()
                .filter(|j| j.name == name)
                .map(|j| j.start)
                .min()
                .unwrap()
        };
        assert!(stage_start("simulate") >= stage_end("preprocess"));
        assert!(stage_start("archive") >= stage_end("simulate"));
    }

    #[test]
    fn packing_scheduler_completes_workloads() {
        let res = run_experiment(
            &quick_cfg(SchedulerKind::Packing {
                limit_bps: gibps(20.0),
            }),
            &tiny_workload(),
        );
        assert_eq!(res.jobs.len(), 20);
        assert_eq!(res.label, "packing-20");
        assert!(res.nodes_trace.max_value().unwrap() <= 5.0);
    }

    #[test]
    fn limit_enforcement_kills_overrunning_jobs() {
        // Sleeps of 300 s with a 60 s limit: with enforcement on, they
        // are killed at the limit; with it off they run to completion.
        let w = WorkloadBuilder::new()
            .batch(
                4,
                "long_sleep",
                ExecSpec::sleep(SimDuration::from_secs(300)),
                SimDuration::from_secs(60),
            )
            .build();
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.enforce_limits = true;
        let res = run_experiment(&cfg, &w);
        assert_eq!(res.jobs.len(), 4);
        assert!(res.jobs.iter().all(|j| j.timed_out));
        for j in &res.jobs {
            assert!((j.runtime().as_secs_f64() - 60.0).abs() < 2.0, "{j:?}");
        }
        assert!(res.makespan_secs < 100.0);

        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.enforce_limits = false;
        let res = run_experiment(&cfg, &w);
        assert!(res.jobs.iter().all(|j| !j.timed_out));
        assert!(res.makespan_secs >= 300.0);
    }

    #[test]
    fn round_elision_is_outcome_neutral_across_policies() {
        // `elide_rounds` is a pure optimization: per-job records,
        // makespan, pass count and event count must be identical with it
        // on and off, for every policy family.
        for kind in [
            SchedulerKind::DefaultBackfill,
            SchedulerKind::IoAware {
                limit_bps: gibps(3.0),
            },
            SchedulerKind::Adaptive {
                limit_bps: gibps(20.0),
                two_group: true,
            },
        ] {
            let on = quick_cfg(kind); // elide_rounds defaults to true
            let mut off = on.clone();
            off.elide_rounds = false;
            let w = tiny_workload();
            let a = run_experiment(&on, &w);
            let b = run_experiment(&off, &w);
            assert_eq!(b.rounds_elided, 0);
            assert_eq!(a.sched_passes, b.sched_passes, "{kind:?}");
            assert_eq!(a.loop_iterations, b.loop_iterations, "{kind:?}");
            assert_eq!(a.makespan_secs, b.makespan_secs, "{kind:?}");
            assert_eq!(a.jobs.len(), b.jobs.len());
            for (x, y) in a.jobs.iter().zip(&b.jobs) {
                assert_eq!(
                    (x.id, x.start, x.end, x.timed_out),
                    (y.id, y.start, y.end, y.timed_out),
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    fn overrunning_jobs_block_round_elision() {
        // A 1-node sleep of 300 s with a 60 s limit (enforcement off)
        // overruns from t = 60 on; its `reservation_end` then tracks
        // `now + OVERRUN_GRACE`, so the waiter's computed reservation
        // moves every round — eliding such a round would freeze a stale
        // outcome, which the `next_limit_expiry` guard forbids. Pin that
        // the outcome really would change: two passes over the same
        // overrunning running set at different `now` disagree.
        use iosched_slurm::{backfill_pass, RunningView};
        let hog_meta = SchedJob::new(
            JobId(0),
            "hog",
            1,
            SimDuration::from_secs(60),
            SimTime::ZERO,
        );
        let waiter_meta = SchedJob::new(
            JobId(1),
            "waiter",
            1,
            SimDuration::from_secs(30),
            SimTime::ZERO,
        );
        let mut outs = [SimTime::ZERO; 2];
        for (i, now_s) in [100u64, 150].into_iter().enumerate() {
            let views = [RunningView {
                job: &hog_meta,
                started: SimTime::ZERO,
            }];
            let out = backfill_pass(
                &mut NodePolicy::default(),
                &views,
                &[&waiter_meta],
                SimTime::from_secs(now_s),
                1,
                &BackfillConfig::default(),
            );
            outs[i] = out.reservations[0].1;
        }
        assert_ne!(outs[0], outs[1], "overrunning reservation end must move");

        // Driver level: the same shape never elides a round while the hog
        // overruns. The control run (limit 400 s, no overrun) elides
        // almost every round of the same 300 s window.
        let mk = |limit_s: u64| {
            WorkloadBuilder::new()
                .batch(
                    1,
                    "hog",
                    ExecSpec::sleep(SimDuration::from_secs(300)),
                    SimDuration::from_secs(limit_s),
                )
                .batch(
                    1,
                    "waiter",
                    ExecSpec::sleep(SimDuration::from_secs(10)),
                    SimDuration::from_secs(30),
                )
                .build()
        };
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.nodes = 1;
        let mut cfg_off = cfg.clone();
        cfg_off.elide_rounds = false;

        let overrun = run_experiment(&cfg, &mk(60));
        let overrun_off = run_experiment(&cfg_off, &mk(60));
        assert_eq!(overrun.makespan_secs, overrun_off.makespan_secs);
        for (x, y) in overrun.jobs.iter().zip(&overrun_off.jobs) {
            assert_eq!((x.id, x.start, x.end), (y.id, y.start, y.end));
        }
        let control = run_experiment(&cfg, &mk(400));
        // Pre-overrun rounds (t < 60) may elide; the 48 rounds of the
        // overrun window (60 ≤ t < 300) must all execute.
        assert!(
            overrun.rounds_elided + 48 <= overrun.sched_passes,
            "elided {} of {} rounds despite the overrunning hog",
            overrun.rounds_elided,
            overrun.sched_passes
        );
        // The guard is not vacuous: without an overrun the same window
        // elides the bulk of its rounds.
        assert!(
            control.rounds_elided > overrun.rounds_elided + 20,
            "control elided {} vs overrun {}",
            control.rounds_elided,
            overrun.rounds_elided
        );
    }

    #[test]
    fn labels() {
        assert_eq!(SchedulerKind::DefaultBackfill.label(), "default");
        assert_eq!(
            SchedulerKind::IoAware {
                limit_bps: gibps(15.0)
            }
            .label(),
            "io-aware-15"
        );
        assert_eq!(
            SchedulerKind::Adaptive {
                limit_bps: gibps(20.0),
                two_group: false
            }
            .label(),
            "adaptive-naive-20"
        );
    }
}
