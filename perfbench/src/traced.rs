//! Traced copies of the program's two event loops.
//!
//! [`traced_batch`] mirrors `iosched_experiments::run_experiment` and
//! [`traced_streaming`] mirrors `iosched_experiments::run_streaming`,
//! statement for statement in release builds, built only from the layers'
//! public functions. Each call into a layer sits inside a span of the
//! [`Tracer`], so a replay's wall time splits over the layers. The copies
//! must decide exactly what the program decides; the benchmark checks
//! their outcome against the program's on every traced replay, so a copy
//! that drifts from the program it mirrors fails loudly instead of
//! reporting another loop's costs.

use crate::tracer::{Layer, Tracer};
use iosched_analytics::service::AnalyticsService;
use iosched_cluster::{ClusterSim, ExecSpec, JobCompletion};
use iosched_core::{AdaptiveConfig, AdaptivePolicy, EstimateBook, IoAwareConfig, IoAwarePolicy};
use iosched_experiments::{ExperimentConfig, SchedulerKind, StreamingOptions};
use iosched_ldms::LdmsDaemon;
use iosched_simkit::ids::JobId;
use iosched_simkit::rng::SimRng;
use iosched_simkit::series::TimeSeries;
use iosched_simkit::time::SimTime;
use iosched_slurm::policy::NodePolicy;
use iosched_slurm::{
    backfill_pass_into, BackfillConfig, JobRegistry, JobState, PassStats, RunningView, SchedJob,
    SchedulingOutcome,
};
use iosched_workloads::JobSubmission;
use std::collections::BTreeMap;

/// What one replay decided: the figures checked against the program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopOutcome {
    pub jobs_completed: u64,
    pub makespan_secs: f64,
    /// Mean queue wait over completed jobs, seconds.
    pub mean_wait_secs: f64,
    pub sched_passes: u64,
    pub rounds_elided: u64,
    pub loop_iterations: u64,
    pub peak_resident_jobs: usize,
}

/// Work counts the traced loop observes at layer boundaries.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Queue entries handed to executed passes.
    pub examined: u64,
    /// Jobs those passes started.
    pub started: u64,
    /// Queue entries whose fixpoint fits-now pruning skipped.
    pub pruned: u64,
    /// Completions harvested from the cluster advance.
    pub completions: u64,
    /// `job_estimate_sym` calls refreshing similar jobs after completions.
    pub refreshes: u64,
    /// Per-job entries handed to LDMS samples.
    pub per_job_entries: u64,
    /// Submissions pulled from the workload iterator.
    pub records: u64,
}

impl LayerCounts {
    pub fn add(&mut self, o: &LayerCounts) {
        self.examined += o.examined;
        self.started += o.started;
        self.pruned += o.pruned;
        self.completions += o.completions;
        self.refreshes += o.refreshes;
        self.per_job_entries += o.per_job_entries;
        self.records += o.records;
    }
}

/// The scheduling policies the benchmark replays, dispatched as the
/// experiments crate's event loop dispatches them (that dispatch is
/// private to its crate).
#[allow(clippy::large_enum_variant)]
enum Policy {
    Default(NodePolicy),
    IoAware(IoAwarePolicy),
    Adaptive(AdaptivePolicy),
}

impl Policy {
    fn new(kind: SchedulerKind, qos_fraction: f64) -> Self {
        match kind {
            SchedulerKind::DefaultBackfill => Policy::Default(NodePolicy::default()),
            SchedulerKind::IoAware { limit_bps } => {
                Policy::IoAware(IoAwarePolicy::new(IoAwareConfig { limit_bps }))
            }
            SchedulerKind::Adaptive {
                limit_bps,
                two_group,
            } => Policy::Adaptive(AdaptivePolicy::new(AdaptiveConfig {
                limit_bps,
                two_group,
                qos_fraction,
            })),
            SchedulerKind::Packing { .. } => panic!("the benchmark does not replay packing"),
        }
    }

    /// One scheduling round: the book is lent to the I/O-aware policies
    /// for the round (`begin_round` / `take_book`).
    #[allow(clippy::too_many_arguments)]
    fn run_pass(
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
            Policy::Default(p) => {
                backfill_pass_into(p, running, queue, now, total_nodes, bf, outcome)
            }
            Policy::IoAware(p) => {
                p.begin_round(std::mem::take(book));
                let stats = backfill_pass_into(p, running, queue, now, total_nodes, bf, outcome);
                *book = p.take_book();
                stats
            }
            Policy::Adaptive(p) => {
                p.begin_round(std::mem::take(book));
                let stats = backfill_pass_into(p, running, queue, now, total_nodes, bf, outcome);
                *book = p.take_book();
                stats
            }
        }
    }

    /// The round-elision precondition: the tracker build depends only on
    /// the running set and the queue, not on `now` or measured load.
    fn round_is_time_invariant(
        &self,
        book: &EstimateBook,
        running: &[(JobId, SimTime)],
        measured_bps: f64,
    ) -> bool {
        match self {
            Policy::Default(_) => true,
            Policy::IoAware(p) => {
                let limit = p.config().limit_bps;
                let sum_running: f64 = running.iter().map(|&(id, _)| book.r(id).min(limit)).sum();
                measured_bps <= sum_running
            }
            Policy::Adaptive(_) => running.is_empty(),
        }
    }
}

fn backfill_config(cfg: &ExperimentConfig) -> BackfillConfig {
    BackfillConfig {
        max_reservations: cfg.backfill_max,
        prune_fits_now: true,
        monotone_cursor: true,
    }
}

/// Round-elision state carried between scheduling rounds.
struct Elision {
    round_dirty: bool,
    prev_round_at: SimTime,
    prev_next_possible: SimTime,
    prev_invariant: bool,
}

impl Elision {
    fn new() -> Self {
        Elision {
            round_dirty: true,
            prev_round_at: SimTime::ZERO,
            prev_next_possible: SimTime::ZERO,
            prev_invariant: false,
        }
    }

    /// True when the previous executed round's outcome provably still
    /// holds at `now`.
    #[allow(clippy::too_many_arguments)]
    fn holds(
        &self,
        cfg: &ExperimentConfig,
        registry: &JobRegistry,
        policy: &Policy,
        book: &EstimateBook,
        running_pairs: &[(JobId, SimTime)],
        measured: f64,
        now: SimTime,
    ) -> bool {
        cfg.elide_rounds
            && !self.round_dirty
            && now < self.prev_next_possible
            && registry
                .next_submission_after(self.prev_round_at)
                .is_none_or(|s| s > now)
            && registry.next_limit_expiry().is_none_or(|e| e > now)
            && self.prev_invariant
            && policy.round_is_time_invariant(book, running_pairs, measured)
    }
}

/// Next-event selection shared by both loops.
fn select_next(
    cfg: &ExperimentConfig,
    cluster: &ClusterSim,
    daemon: &LdmsDaemon,
    registry: &JobRegistry,
    next_sched: SimTime,
    now: SimTime,
) -> SimTime {
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
    t_next.max(now)
}

fn completed_times(registry: &JobRegistry, id: JobId) -> (SimTime, SimTime) {
    match registry.state(id) {
        Some(JobState::Completed { started, ended }) => (started, ended),
        _ => unreachable!("just marked completed"),
    }
}

/// One row of the batch loop's immutable job table.
struct JobEntry {
    meta: SchedJob,
    spec: ExecSpec,
}

fn entry(jobs: &[JobEntry], id: JobId) -> &JobEntry {
    let i = jobs
        .binary_search_by_key(&id, |e| e.meta.id)
        .unwrap_or_else(|_| panic!("unknown {id}"));
    &jobs[i]
}

/// Traced copy of `run_experiment` (limit enforcement off, as in every
/// configuration the benchmark replays).
pub fn traced_batch(
    cfg: &ExperimentConfig,
    workload: &[JobSubmission],
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> LoopOutcome {
    assert!(
        !cfg.enforce_limits,
        "the traced loops replay without limit enforcement"
    );
    assert!(!workload.is_empty(), "workload must not be empty");
    tr.enter(Layer::Run);

    tr.enter(Layer::Init);
    let master = SimRng::from_seed(cfg.seed);
    let mut cluster = ClusterSim::new(cfg.nodes, cfg.fs.clone(), master.fork(1));
    cluster.set_burst_buffer(cfg.burst_buffer_per_node_bytes);
    let mut daemon = LdmsDaemon::new(cfg.sample_period);
    let mut analytics = AnalyticsService::new(cfg.analytics);
    let mut policy = Policy::new(cfg.scheduler, cfg.qos_fraction);
    let bf = backfill_config(cfg);
    tr.exit();

    if cfg.pretrained {
        tr.enter(Layer::Pretrain);
        for (name, r, d) in iosched_experiments::pretrain::pretrain_isolated_with_bb(
            &cfg.fs,
            workload,
            cfg.seed,
            cfg.burst_buffer_per_node_bytes,
        ) {
            analytics.pretrain(&name, r, d);
        }
        tr.exit();
    }

    tr.enter(Layer::Registry);
    let mut registry = JobRegistry::new();
    let mut jobs: Vec<JobEntry> = Vec::with_capacity(workload.len());
    let mut jobs_by_sym: Vec<Vec<JobId>> = Vec::new();
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
        if jobs_by_sym.len() <= sym.0 as usize {
            jobs_by_sym.resize(sym.0 as usize + 1, Vec::new());
        }
        jobs_by_sym[sym.0 as usize].push(sub.id);
        jobs.push(JobEntry {
            meta,
            spec: sub.exec.clone(),
        });
    }
    jobs.sort_unstable_by_key(|e| e.meta.id);
    tr.exit();

    tr.enter(Layer::Estimate);
    let mut book = EstimateBook::new();
    for e in &jobs {
        book.insert(
            e.meta.id,
            analytics.job_estimate_sym(e.meta.name_sym, e.meta.limit),
        );
    }
    tr.exit();

    let mut throughput_trace = TimeSeries::default();
    let mut nodes_trace = TimeSeries::default();
    let mut fatigue_trace = TimeSeries::default();
    let mut streams_trace = TimeSeries::default();
    let mut out = LoopOutcome {
        peak_resident_jobs: workload.len(),
        ..LoopOutcome::default()
    };

    let first_submit = workload.iter().map(|s| s.submit).min().unwrap();
    let mut next_sched = first_submit;
    let mut last_sched: Option<SimTime> = None;
    let mut sched_requested = true;
    let mut now = SimTime::ZERO;
    let mut el = Elision::new();

    let mut completions: Vec<JobCompletion> = Vec::new();
    let mut snap = iosched_lustre::FsSnapshot::default();
    let mut per_job: Vec<(u64, f64)> = Vec::new();
    let mut queue_ids: Vec<JobId> = Vec::new();
    let mut running_pairs: Vec<(JobId, SimTime)> = Vec::new();
    let mut outcome = SchedulingOutcome::default();
    let mut prev_outcome = SchedulingOutcome::default();
    let mut queue_refs: Vec<&SchedJob> = Vec::new();
    let mut running_views: Vec<RunningView<'_>> = Vec::new();

    let mut guard: u64 = 0;
    loop {
        tr.enter(Layer::Select);
        if registry.all_completed() {
            tr.exit();
            break;
        }
        guard += 1;
        assert!(
            guard < 50_000_000,
            "event loop failed to converge (time {now})"
        );
        let t = select_next(cfg, &cluster, &daemon, &registry, next_sched, now);
        tr.exit();

        // 1. Advance the cluster and harvest completions.
        tr.span(Layer::Advance, || {
            cluster.advance_to_into(t, &mut completions)
        });
        counts.completions += completions.len() as u64;
        for c in completions.iter() {
            tr.enter(Layer::Registry);
            registry.mark_completed(c.job, c.at);
            let sym = entry(&jobs, c.job).meta.name_sym;
            let (started, ended) = completed_times(&registry, c.job);
            tr.exit();
            tr.span(Layer::Observe, || {
                analytics.on_job_complete_sym(&daemon, c.job.0, sym, started, ended)
            });
            tr.enter(Layer::Estimate);
            book.remove(c.job);
            for &jid in &jobs_by_sym[sym.0 as usize] {
                if matches!(
                    registry.state(jid),
                    Some(JobState::Pending) | Some(JobState::Running { .. })
                ) {
                    let e = entry(&jobs, jid);
                    book.insert(jid, analytics.job_estimate_sym(sym, e.meta.limit));
                    counts.refreshes += 1;
                }
            }
            tr.exit();
            sched_requested = true;
            el.round_dirty = true;
        }
        now = t;

        // 2. Monitoring sample, recorded into the run's traces.
        if now >= daemon.next_sample_at() {
            tr.span(Layer::Snapshot, || cluster.fs().snapshot_into(&mut snap));
            tr.enter(Layer::Ldms);
            per_job.clear();
            per_job.extend(snap.per_tag_bps.iter().map(|&(tag, bps)| (tag.0, bps)));
            daemon.sample(now, snap.total_bps, &per_job, cluster.busy_nodes());
            tr.exit();
            counts.per_job_entries += per_job.len() as u64;
            tr.enter(Layer::Record);
            throughput_trace.push(now, snap.total_bps);
            nodes_trace.push(now, cluster.busy_nodes() as f64);
            let fat = cluster.fs().ost_fatigue();
            fatigue_trace.push(now, fat.iter().sum::<f64>() / fat.len().max(1) as f64);
            streams_trace.push(now, cluster.fs().active_stream_count() as f64);
            tr.exit();
        }

        // 3. Scheduling pass.
        let min_ok = last_sched.is_none_or(|ls| now.saturating_since(ls) >= cfg.sched_min_interval);
        if now >= next_sched || (sched_requested && min_ok) {
            sched_requested = false;
            last_sched = Some(now);
            next_sched = now + cfg.sched_period;

            tr.span(Layer::Queue, || {
                registry.wait_queue_ids_limited_into(
                    now,
                    cfg.priority_policy,
                    cfg.max_queue_depth,
                    &mut queue_ids,
                )
            });
            if !queue_ids.is_empty() {
                out.sched_passes += 1;
                tr.span(Layer::Queue, || {
                    registry.running_ids_into(&mut running_pairs)
                });
                let measured = tr.span(Layer::Load, || analytics.current_load_bps(&daemon, now));
                let elide = tr.span(Layer::Elision, || {
                    el.holds(
                        cfg,
                        &registry,
                        &policy,
                        &book,
                        &running_pairs,
                        measured,
                        now,
                    )
                });
                if elide {
                    out.rounds_elided += 1;
                } else {
                    tr.enter(Layer::Queue);
                    queue_refs.clear();
                    queue_refs.extend(queue_ids.iter().map(|&id| &entry(&jobs, id).meta));
                    running_views.clear();
                    running_views.extend(running_pairs.iter().map(|&(id, started)| RunningView {
                        job: &entry(&jobs, id).meta,
                        started,
                    }));
                    tr.exit();
                    book.measured_total_bps = measured;
                    let stats = tr.span(Layer::Pass, || {
                        policy.run_pass(
                            &mut book,
                            &running_views,
                            &queue_refs,
                            now,
                            cfg.nodes,
                            &bf,
                            &mut outcome,
                        )
                    });
                    counts.examined += queue_refs.len() as u64;
                    counts.started += outcome.start_now.len() as u64;
                    counts.pruned += stats.pruned;
                    tr.enter(Layer::Elision);
                    el.prev_round_at = now;
                    el.prev_next_possible = stats.next_possible_start;
                    el.prev_invariant =
                        policy.round_is_time_invariant(&book, &running_pairs, measured);
                    el.round_dirty = false;
                    tr.exit();
                    for &id in &outcome.start_now {
                        let spec = &entry(&jobs, id).spec;
                        tr.span(Layer::Start, || {
                            cluster
                                .start_job(now, id, spec)
                                .unwrap_or_else(|e| panic!("scheduler overcommitted: {e}"))
                        });
                        tr.span(Layer::Registry, || registry.mark_started(id, now));
                    }
                    if !outcome.start_now.is_empty() {
                        el.round_dirty = true;
                    }
                    std::mem::swap(&mut outcome, &mut prev_outcome);
                }
            }
        }
    }

    // Final sample so the traces extend to the end of the run.
    if throughput_trace.last_time() != Some(now) {
        tr.span(Layer::Snapshot, || cluster.fs().snapshot_into(&mut snap));
        tr.enter(Layer::Record);
        throughput_trace.push(now, snap.total_bps);
        nodes_trace.push(now, cluster.busy_nodes() as f64);
        tr.exit();
    }

    tr.enter(Layer::Registry);
    out.loop_iterations = guard;
    out.makespan_secs = registry
        .makespan()
        .expect("all jobs completed")
        .as_secs_f64();
    let mut wait_sum_secs = 0.0f64;
    for (_, wait, _) in registry.timings() {
        out.jobs_completed += 1;
        wait_sum_secs += wait.as_secs_f64();
    }
    out.mean_wait_secs = wait_sum_secs / out.jobs_completed.max(1) as f64;
    tr.exit();

    tr.exit();
    out
}

/// One resident job's bookkeeping in the streaming loop.
struct Resident {
    meta: SchedJob,
    spec: ExecSpec,
}

/// The streaming loop's admission-side state.
struct Admission {
    registry: JobRegistry,
    resident: BTreeMap<JobId, Resident>,
    jobs_by_sym: Vec<Vec<JobId>>,
    book: EstimateBook,
    admitted: u64,
    last_submit: SimTime,
    first_submit: Option<SimTime>,
}

impl Admission {
    /// Pull from `source` while the window has room; `true` once the
    /// source is exhausted.
    fn admit(
        &mut self,
        source: &mut impl Iterator<Item = JobSubmission>,
        window: usize,
        analytics: &mut AnalyticsService,
        tr: &mut Tracer,
        counts: &mut LayerCounts,
    ) -> bool {
        while self.resident.len() < window {
            let Some(sub) = tr.span(Layer::Ingest, || source.next()) else {
                return true;
            };
            counts.records += 1;
            assert!(
                sub.after.is_empty(),
                "streaming replay does not support dependencies ({})",
                sub.id
            );
            assert!(
                sub.submit >= self.last_submit,
                "submissions must arrive in submit order ({})",
                sub.id
            );
            self.last_submit = sub.submit;
            self.first_submit.get_or_insert(sub.submit);
            tr.enter(Layer::Registry);
            let sym = analytics.intern(&sub.name);
            let meta = SchedJob::new(sub.id, sub.name, sub.exec.nodes, sub.limit, sub.submit)
                .with_priority(sub.priority)
                .with_name_sym(sym);
            self.registry.submit(meta.clone());
            if self.jobs_by_sym.len() <= sym.0 as usize {
                self.jobs_by_sym.resize(sym.0 as usize + 1, Vec::new());
            }
            self.jobs_by_sym[sym.0 as usize].push(sub.id);
            tr.exit();
            tr.enter(Layer::Estimate);
            self.book
                .insert(sub.id, analytics.job_estimate_sym(sym, meta.limit));
            tr.exit();
            tr.enter(Layer::Registry);
            self.resident.insert(
                sub.id,
                Resident {
                    meta,
                    spec: sub.exec,
                },
            );
            tr.exit();
            self.admitted += 1;
        }
        false
    }
}

/// Traced copy of `run_streaming` (limit enforcement off, as in every
/// configuration the benchmark replays).
pub fn traced_streaming(
    cfg: &ExperimentConfig,
    submissions: impl IntoIterator<Item = JobSubmission>,
    opts: &StreamingOptions,
    tr: &mut Tracer,
    counts: &mut LayerCounts,
) -> LoopOutcome {
    assert!(
        !cfg.enforce_limits,
        "the traced loops replay without limit enforcement"
    );
    assert!(opts.window > 0, "admission window must be positive");
    assert!(!cfg.pretrained, "streaming replay cannot pretrain");
    tr.enter(Layer::Run);
    let mut source = submissions.into_iter();

    tr.enter(Layer::Init);
    let master = SimRng::from_seed(cfg.seed);
    let mut cluster = ClusterSim::new(cfg.nodes, cfg.fs.clone(), master.fork(1));
    cluster.set_burst_buffer(cfg.burst_buffer_per_node_bytes);
    let mut daemon = LdmsDaemon::new(cfg.sample_period);
    if let Some((horizon, bucket_ms)) = opts.retention {
        daemon.set_retention(horizon, bucket_ms);
    }
    let mut analytics = AnalyticsService::new(cfg.analytics);
    let mut policy = Policy::new(cfg.scheduler, cfg.qos_fraction);
    let bf = backfill_config(cfg);
    tr.exit();

    let mut adm = Admission {
        registry: JobRegistry::new(),
        resident: BTreeMap::new(),
        jobs_by_sym: Vec::new(),
        book: EstimateBook::new(),
        admitted: 0,
        last_submit: SimTime::ZERO,
        first_submit: None,
    };
    let mut out = LoopOutcome::default();
    let mut last_end = SimTime::ZERO;
    let mut wait_sum_secs = 0.0f64;

    let mut exhausted = adm.admit(&mut source, opts.window, &mut analytics, tr, counts);
    if adm.registry.is_empty() {
        tr.exit();
        return out;
    }

    let mut next_sched = adm.first_submit.expect("at least one job admitted");
    let mut last_sched: Option<SimTime> = None;
    let mut sched_requested = true;
    let mut now = SimTime::ZERO;
    let mut el = Elision::new();

    let mut completions: Vec<JobCompletion> = Vec::new();
    let mut snap = iosched_lustre::FsSnapshot::default();
    let mut per_job: Vec<(u64, f64)> = Vec::new();
    let mut queue_ids: Vec<JobId> = Vec::new();
    let mut running_pairs: Vec<(JobId, SimTime)> = Vec::new();
    let mut outcome = SchedulingOutcome::default();
    let mut prev_outcome = SchedulingOutcome::default();

    let mut guard: u64 = 0;
    loop {
        tr.enter(Layer::Select);
        if adm.registry.is_empty() && exhausted {
            tr.exit();
            break;
        }
        guard += 1;
        assert!(
            guard < 50_000_000 + 500 * adm.admitted,
            "event loop failed to converge (time {now})"
        );
        out.peak_resident_jobs = out.peak_resident_jobs.max(adm.resident.len());
        let t = select_next(cfg, &cluster, &daemon, &adm.registry, next_sched, now);
        tr.exit();

        // 1. Advance the cluster; retire completions at once.
        tr.span(Layer::Advance, || {
            cluster.advance_to_into(t, &mut completions)
        });
        counts.completions += completions.len() as u64;
        let mut retired_any = false;
        for c in completions.iter() {
            tr.enter(Layer::Registry);
            adm.registry.mark_completed(c.job, c.at);
            let retired = adm
                .resident
                .remove(&c.job)
                .expect("completed job is resident");
            let sym = retired.meta.name_sym;
            let (started, ended) = completed_times(&adm.registry, c.job);
            tr.exit();
            tr.span(Layer::Observe, || {
                analytics.on_job_complete_sym(&daemon, c.job.0, sym, started, ended)
            });
            tr.enter(Layer::Estimate);
            adm.book.remove(c.job);
            tr.exit();
            tr.enter(Layer::Registry);
            adm.registry.retire(c.job);
            tr.exit();
            retired_any = true;
            out.jobs_completed += 1;
            last_end = last_end.max(ended);
            wait_sum_secs += started.saturating_since(retired.meta.submit).as_secs_f64();
            tr.enter(Layer::Estimate);
            let Admission {
                resident,
                jobs_by_sym,
                book,
                ..
            } = &mut adm;
            jobs_by_sym[sym.0 as usize].retain(|&jid| {
                let Some(e) = resident.get(&jid) else {
                    return false;
                };
                book.insert(jid, analytics.job_estimate_sym(sym, e.meta.limit));
                counts.refreshes += 1;
                true
            });
            tr.exit();
            sched_requested = true;
            el.round_dirty = true;
        }
        now = t;

        // 1c. Freed window slots admit the next slice of the trace.
        if retired_any && !exhausted {
            exhausted = adm.admit(&mut source, opts.window, &mut analytics, tr, counts);
        }

        // 2. Monitoring sample (feeds the load measurement only).
        if now >= daemon.next_sample_at() {
            tr.span(Layer::Snapshot, || cluster.fs().snapshot_into(&mut snap));
            tr.enter(Layer::Ldms);
            per_job.clear();
            per_job.extend(snap.per_tag_bps.iter().map(|&(tag, bps)| (tag.0, bps)));
            daemon.sample(now, snap.total_bps, &per_job, cluster.busy_nodes());
            tr.exit();
            counts.per_job_entries += per_job.len() as u64;
        }

        // 3. Scheduling pass.
        let min_ok = last_sched.is_none_or(|ls| now.saturating_since(ls) >= cfg.sched_min_interval);
        if now >= next_sched || (sched_requested && min_ok) {
            sched_requested = false;
            last_sched = Some(now);
            next_sched = now + cfg.sched_period;

            tr.span(Layer::Queue, || {
                adm.registry.wait_queue_ids_limited_into(
                    now,
                    cfg.priority_policy,
                    cfg.max_queue_depth,
                    &mut queue_ids,
                )
            });
            if !queue_ids.is_empty() {
                out.sched_passes += 1;
                tr.span(Layer::Queue, || {
                    adm.registry.running_ids_into(&mut running_pairs)
                });
                let measured = tr.span(Layer::Load, || analytics.current_load_bps(&daemon, now));
                let elide = tr.span(Layer::Elision, || {
                    el.holds(
                        cfg,
                        &adm.registry,
                        &policy,
                        &adm.book,
                        &running_pairs,
                        measured,
                        now,
                    )
                });
                if elide {
                    out.rounds_elided += 1;
                } else {
                    tr.enter(Layer::Queue);
                    let queue_refs: Vec<&SchedJob> = queue_ids
                        .iter()
                        .map(|&id| &adm.resident[&id].meta)
                        .collect();
                    let running_views: Vec<RunningView<'_>> = running_pairs
                        .iter()
                        .map(|&(id, started)| RunningView {
                            job: &adm.resident[&id].meta,
                            started,
                        })
                        .collect();
                    tr.exit();
                    adm.book.measured_total_bps = measured;
                    let stats = tr.span(Layer::Pass, || {
                        policy.run_pass(
                            &mut adm.book,
                            &running_views,
                            &queue_refs,
                            now,
                            cfg.nodes,
                            &bf,
                            &mut outcome,
                        )
                    });
                    counts.examined += queue_refs.len() as u64;
                    counts.started += outcome.start_now.len() as u64;
                    counts.pruned += stats.pruned;
                    tr.enter(Layer::Elision);
                    el.prev_round_at = now;
                    el.prev_next_possible = stats.next_possible_start;
                    el.prev_invariant =
                        policy.round_is_time_invariant(&adm.book, &running_pairs, measured);
                    el.round_dirty = false;
                    tr.exit();
                    for &id in &outcome.start_now {
                        let spec = &adm.resident[&id].spec;
                        tr.span(Layer::Start, || {
                            cluster
                                .start_job(now, id, spec)
                                .unwrap_or_else(|e| panic!("scheduler overcommitted: {e}"))
                        });
                        tr.span(Layer::Registry, || adm.registry.mark_started(id, now));
                    }
                    if !outcome.start_now.is_empty() {
                        el.round_dirty = true;
                    }
                    std::mem::swap(&mut outcome, &mut prev_outcome);
                }
            }
        }
    }

    assert!(adm.resident.is_empty(), "resident table must drain");
    out.loop_iterations = guard;
    out.makespan_secs = last_end
        .saturating_since(adm.first_submit.expect("non-empty trace"))
        .as_secs_f64();
    out.mean_wait_secs = wait_sum_secs / out.jobs_completed.max(1) as f64;
    tr.exit();
    out
}
