//! Streaming SWF replay: the scale-sweep event loop.
//!
//! [`run_streaming`] drives the same cluster/monitoring/scheduler stack
//! as [`crate::driver::run_experiment`], but consumes its workload from
//! an **iterator** under a bounded admission window instead of
//! materialising the whole trace up front. At most `window` jobs are
//! resident (pending + running) at any instant; a job's bookkeeping —
//! registry entry, job-table row, estimate-book entry, sampled-volume
//! sum — is created when the job is admitted (or first sampled) and torn
//! down when it completes. Peak memory is therefore bounded by the window
//! (plus the monitoring store's aggregate series, which are bounded
//! separately via sample retention), no matter whether the trace holds
//! one thousand jobs or one million.
//!
//! Semantics: with `window ≥` the trace length the replay is the exact
//! event loop of `run_experiment` (pretraining off, traces not recorded)
//! — the test suite pins this. With a smaller window the scheduler sees a
//! bounded lookahead of the submission stream, which is how a real
//! scheduler's queue works anyway: jobs beyond the window simply have not
//! been submitted yet.

use crate::driver::{ExperimentConfig, PolicyImpl};
use iosched_analytics::service::AnalyticsService;
use iosched_cluster::{ClusterSim, ExecSpec, JobCompletion};
use iosched_core::EstimateBook;
use iosched_ldms::LdmsDaemon;
use iosched_simkit::ids::JobId;
use iosched_simkit::rng::SimRng;
use iosched_simkit::sym::Sym;
use iosched_simkit::time::{SimDuration, SimTime};
use iosched_slurm::{BackfillConfig, JobRegistry, RunningView, SchedJob, SchedulingOutcome};
use iosched_workloads::JobSubmission;
use std::collections::BTreeMap;

/// Streaming-replay knobs on top of an [`ExperimentConfig`].
#[derive(Clone, Debug)]
pub struct StreamingOptions {
    /// Admission window: the maximum number of resident (pending or
    /// running) jobs. The scheduler never sees more than this many jobs;
    /// peak driver memory is proportional to it.
    pub window: usize,
    /// Monitoring-sample retention `(horizon, bucket_ms)` for the
    /// aggregate series (file-system total, busy nodes): samples older
    /// than `horizon` are archived as bucket means. `None` keeps every
    /// sample (unbounded — what `run_experiment` does). Job volumes are
    /// running sums in the daemon, exact under any retention.
    pub retention: Option<(SimDuration, u64)>,
}

impl Default for StreamingOptions {
    fn default() -> Self {
        StreamingOptions {
            window: 10_000,
            // One-minute buckets after two hours: recent samples (which
            // feed the load measurement) stay exact; ancient history
            // coarsens to bucket means.
            retention: Some((SimDuration::from_secs(2 * 3600), 60_000)),
        }
    }
}

/// Aggregate outcome of a streaming replay. Deliberately O(1) in the
/// trace length: no per-job records, no traces.
#[derive(Clone, Debug, Default)]
pub struct StreamingResult {
    /// Scheduler label (for reports).
    pub label: String,
    /// Jobs that ran to completion (or were killed at their limit).
    pub jobs_completed: u64,
    /// First submission → last completion, seconds.
    pub makespan_secs: f64,
    /// Mean queue wait over all completed jobs, seconds.
    pub mean_wait_secs: f64,
    /// Largest queue wait observed, seconds.
    pub max_wait_secs: f64,
    /// Scheduling passes executed (including elided rounds, exactly like
    /// [`crate::driver::ExperimentResult::sched_passes`]).
    pub sched_passes: u64,
    /// Of [`Self::sched_passes`], rounds whose queue walk was elided
    /// because the previous outcome provably still held.
    pub rounds_elided: u64,
    /// Event-loop iterations (deterministic event-count proxy, recorded
    /// by the scale bench and gated like the campaign bench's counter).
    pub loop_iterations: u64,
    /// High-water mark of resident (pending + running) jobs — by
    /// construction `≤ window`; the memory-boundedness tests pin it.
    pub peak_resident_jobs: usize,
}

/// One resident job's bookkeeping: scheduling metadata + execution spec.
struct Resident {
    meta: SchedJob,
    spec: ExecSpec,
}

/// Replay `submissions` (non-decreasing submit times, no dependencies)
/// under `cfg`, admitting at most `opts.window` jobs at a time.
///
/// # Panics
/// Panics if `cfg.pretrained` is set (pretraining needs the whole trace
/// up front — the opposite of streaming), if `opts.window` is zero, or if
/// a submission carries dependencies or out-of-order submit times.
pub fn run_streaming(
    cfg: &ExperimentConfig,
    submissions: impl IntoIterator<Item = JobSubmission>,
    opts: &StreamingOptions,
) -> StreamingResult {
    assert!(opts.window > 0, "admission window must be positive");
    assert!(
        !cfg.pretrained,
        "streaming replay cannot pretrain: pretraining scans the whole trace"
    );
    let mut source = submissions.into_iter();

    let master = SimRng::from_seed(cfg.seed);
    let mut cluster = ClusterSim::new(cfg.nodes, cfg.fs.clone(), master.fork(1));
    cluster.set_burst_buffer(cfg.burst_buffer_per_node_bytes);
    let mut daemon = LdmsDaemon::new(cfg.sample_period);
    if let Some((horizon, bucket_ms)) = opts.retention {
        daemon.set_retention(horizon, bucket_ms);
    }
    let mut analytics = AnalyticsService::new(cfg.analytics);
    let mut policy = PolicyImpl::new(cfg.scheduler, cfg.qos_fraction);
    let bf = BackfillConfig {
        max_reservations: cfg.backfill_max,
        prune_fits_now: true,
        monotone_cursor: true,
    };

    let mut registry = JobRegistry::new();
    let mut resident: BTreeMap<JobId, Resident> = BTreeMap::new();
    // Resident jobs read their name class's prediction through the book,
    // whose per-class table is as large as the name universe — assumed
    // bounded (SWF traces intern to `swf_p{procs}` classes).
    let mut book = EstimateBook::new();

    let mut result = StreamingResult {
        label: cfg.scheduler.label(),
        ..StreamingResult::default()
    };

    let mut admitted: u64 = 0;
    let mut last_submit = SimTime::ZERO;
    let mut first_submit: Option<SimTime> = None;
    let mut last_end = SimTime::ZERO;
    let mut wait_sum_secs = 0.0f64;

    // Admission: pull from the source while the window has room. Called
    // at start-up and after every retirement. Returns `true` once the
    // source is known to be exhausted.
    let mut admit = |registry: &mut JobRegistry,
                     resident: &mut BTreeMap<JobId, Resident>,
                     book: &mut EstimateBook,
                     analytics: &mut AnalyticsService,
                     admitted: &mut u64,
                     last_submit: &mut SimTime,
                     first_submit: &mut Option<SimTime>|
     -> bool {
        while resident.len() < opts.window {
            let Some(sub) = source.next() else {
                return true;
            };
            assert!(
                sub.after.is_empty(),
                "streaming replay does not support dependencies ({})",
                sub.id
            );
            assert!(
                sub.submit >= *last_submit,
                "submissions must arrive in submit order ({})",
                sub.id
            );
            *last_submit = sub.submit;
            first_submit.get_or_insert(sub.submit);
            let sym = analytics.intern(&sub.name);
            let meta = SchedJob::new(sub.id, sub.name, sub.exec.nodes, sub.limit, sub.submit)
                .with_priority(sub.priority)
                .with_name_sym(sym);
            registry.submit(meta.clone());
            book.set_class(sym, analytics.class_estimate_sym(sym));
            book.bind(
                sub.id,
                sym,
                analytics.job_estimate_sym(Sym::NONE, meta.limit),
            );
            resident.insert(
                sub.id,
                Resident {
                    meta,
                    spec: sub.exec,
                },
            );
            *admitted += 1;
        }
        false
    };

    let mut exhausted = admit(
        &mut registry,
        &mut resident,
        &mut book,
        &mut analytics,
        &mut admitted,
        &mut last_submit,
        &mut first_submit,
    );
    if registry.is_empty() {
        return result; // empty trace
    }

    let mut next_sched = first_submit.expect("at least one job admitted");
    let mut last_sched: Option<SimTime> = None;
    let mut sched_requested = true;
    let mut now = SimTime::ZERO;

    // Round-elision state — same protocol as `run_experiment_with_scratch`
    // (see `ExperimentConfig::elide_rounds`). Admissions only happen at
    // start-up and after retirements, and retirements dirty the round, so
    // the `next_submission_after` guard still sees every queue change.
    let mut round_dirty = true;
    let mut prev_round_at = SimTime::ZERO;
    let mut prev_next_possible = SimTime::ZERO;
    let mut prev_invariant = false;

    let mut completions: Vec<JobCompletion> = Vec::new();
    let mut snap = iosched_lustre::FsSnapshot::default();
    let mut per_job: Vec<(u64, f64)> = Vec::new();
    let mut queue_ids: Vec<JobId> = Vec::new();
    let mut running_pairs: Vec<(JobId, SimTime)> = Vec::new();
    let mut outcome = SchedulingOutcome::default();
    let mut prev_outcome = SchedulingOutcome::default();
    #[cfg(debug_assertions)]
    let mut oracle_outcome = SchedulingOutcome::default();

    let mut guard: u64 = 0;
    while !registry.is_empty() || !exhausted {
        guard += 1;
        assert!(
            guard < 50_000_000 + 500 * admitted,
            "event loop failed to converge (time {now}; {} pending, {} running, \
             {} resident; next cluster event {:?}, next sample {}, next round {next_sched})",
            registry.pending_count(),
            registry.running_count(),
            resident.len(),
            cluster.next_event_time(),
            daemon.next_sample_at(),
        );
        result.peak_resident_jobs = result.peak_resident_jobs.max(resident.len());

        // Next event: cluster activity, sampling tick, scheduling tick,
        // or a future (already admitted) submission.
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
        let t = t_next.max(now);

        // 1. Advance the cluster; harvest and immediately retire
        // completions — a finished job's bookkeeping frees its window
        // slot before the next admission check.
        cluster.advance_to_into(t, &mut completions);
        let mut retired_any = false;
        for c in completions.iter() {
            registry.mark_completed(c.job, c.at);
            let entry = resident.remove(&c.job).expect("completed job is resident");
            let sym = entry.meta.name_sym;
            let (started, ended) = match registry.state(c.job) {
                Some(iosched_slurm::JobState::Completed { started, ended }) => (started, ended),
                _ => unreachable!("just marked completed"),
            };
            analytics.on_job_complete_sym(&daemon, c.job.0, sym, started, ended);
            daemon.retire_job(c.job.0);
            book.remove(c.job);
            book.set_class(sym, analytics.class_estimate_sym(sym));
            registry.retire(c.job);
            retired_any = true;
            result.jobs_completed += 1;
            last_end = last_end.max(ended);
            let wait = started.saturating_since(entry.meta.submit).as_secs_f64();
            wait_sum_secs += wait;
            result.max_wait_secs = result.max_wait_secs.max(wait);
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
                let entry = resident.remove(&id).expect("killed job is resident");
                let started = match registry.state(id) {
                    Some(iosched_slurm::JobState::TimedOut { started, .. }) => started,
                    _ => unreachable!("just marked timed out"),
                };
                daemon.retire_job(id.0);
                book.remove(id);
                registry.retire(id);
                retired_any = true;
                result.jobs_completed += 1;
                last_end = last_end.max(now);
                let wait = started.saturating_since(entry.meta.submit).as_secs_f64();
                wait_sum_secs += wait;
                result.max_wait_secs = result.max_wait_secs.max(wait);
                sched_requested = true;
                round_dirty = true;
            }
        }

        // 1c. Freed window slots admit the next slice of the trace.
        if retired_any && !exhausted {
            exhausted = admit(
                &mut registry,
                &mut resident,
                &mut book,
                &mut analytics,
                &mut admitted,
                &mut last_submit,
                &mut first_submit,
            );
        }

        // 2. Monitoring sample (feeds the load measurement; traces are
        // not recorded — a million-job replay cannot afford them).
        if now >= daemon.next_sample_at() {
            cluster.fs().snapshot_into(&mut snap);
            per_job.clear();
            per_job.extend(snap.per_tag_bps.iter().map(|&(tag, bps)| (tag.0, bps)));
            daemon.sample(now, snap.total_bps, &per_job, cluster.busy_nodes());
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
                &mut queue_ids,
            );
            if !queue_ids.is_empty() {
                result.sched_passes += 1;
                registry.running_ids_into(&mut running_pairs);
                let measured = analytics.current_load_bps(&daemon, now);

                let elide = cfg.elide_rounds
                    && !round_dirty
                    && now < prev_next_possible
                    && registry
                        .next_submission_after(prev_round_at)
                        .is_none_or(|s| s > now)
                    && registry.next_limit_expiry().is_none_or(|e| e > now)
                    && prev_invariant
                    && policy.round_is_time_invariant(&book, &running_pairs, measured);

                if elide {
                    result.rounds_elided += 1;
                    // Debug oracle: replay the full queue walk and insist
                    // the previous executed round's outcome still holds.
                    #[cfg(debug_assertions)]
                    {
                        let queue_refs: Vec<&SchedJob> =
                            queue_ids.iter().map(|&id| &resident[&id].meta).collect();
                        let running_views: Vec<RunningView<'_>> = running_pairs
                            .iter()
                            .map(|&(id, started)| RunningView {
                                job: &resident[&id].meta,
                                started,
                            })
                            .collect();
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
                            oracle_outcome, prev_outcome,
                            "elided round at {now} diverged from the previous outcome"
                        );
                    }
                } else {
                    // Reference vectors are pass-local: they borrow the
                    // resident table, which retirement mutates between
                    // passes. Their size is bounded by the window.
                    let queue_refs: Vec<&SchedJob> =
                        queue_ids.iter().map(|&id| &resident[&id].meta).collect();
                    let running_views: Vec<RunningView<'_>> = running_pairs
                        .iter()
                        .map(|&(id, started)| RunningView {
                            job: &resident[&id].meta,
                            started,
                        })
                        .collect();
                    book.measured_total_bps = measured;
                    let stats = policy.run_pass(
                        &mut book,
                        &running_views,
                        &queue_refs,
                        now,
                        cfg.nodes,
                        &bf,
                        &mut outcome,
                    );
                    prev_round_at = now;
                    prev_next_possible = stats.next_possible_start;
                    prev_invariant =
                        policy.round_is_time_invariant(&book, &running_pairs, measured);
                    round_dirty = false;
                    for &id in &outcome.start_now {
                        let spec = &resident[&id].spec;
                        cluster
                            .start_job(now, id, spec)
                            .unwrap_or_else(|e| panic!("scheduler overcommitted: {e}"));
                        registry.mark_started(id, now);
                    }
                    if !outcome.start_now.is_empty() {
                        round_dirty = true;
                    }
                    std::mem::swap(&mut outcome, &mut prev_outcome);
                }
            }
        }
    }

    assert!(resident.is_empty(), "resident table must drain");
    result.loop_iterations = guard;
    result.makespan_secs = last_end
        .saturating_since(first_submit.expect("non-empty trace"))
        .as_secs_f64();
    result.mean_wait_secs = wait_sum_secs / (result.jobs_completed.max(1)) as f64;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_experiment, SchedulerKind};
    use iosched_lustre::LustreConfig;
    use iosched_simkit::units::gibps;
    use iosched_workloads::{SwfOptions, SynthConfig, SynthTrace};

    fn synth_workload(jobs: u64, seed: u64) -> Vec<JobSubmission> {
        let cfg = SynthConfig {
            jobs,
            seed,
            max_procs: 4,
            mean_interarrival_secs: 20.0,
            median_run_secs: 120.0,
            ..SynthConfig::default()
        };
        SynthTrace::new(cfg)
            .submissions(SwfOptions {
                io_fraction: 0.3,
                io_rate_per_node_bps: gibps(0.2),
                ..SwfOptions::default()
            })
            .collect()
    }

    fn quick_cfg(kind: SchedulerKind) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(kind, 11);
        cfg.fs = LustreConfig::stria().noiseless();
        cfg.nodes = 8;
        cfg.sched_period = SimDuration::from_secs(10);
        cfg.pretrained = false;
        cfg
    }

    /// With a window covering the whole trace the streaming loop is the
    /// batch loop: identical makespan, pass count and iteration count.
    /// Sample retention bounds only the aggregate series, so even a
    /// horizon shorter than many jobs' write phases leaves every job
    /// volume, and hence every adaptive decision, unchanged.
    #[test]
    fn full_window_matches_run_experiment() {
        for kind in [
            SchedulerKind::DefaultBackfill,
            SchedulerKind::Adaptive {
                limit_bps: gibps(15.0),
                two_group: true,
            },
        ] {
            let cfg = quick_cfg(kind);
            let workload = synth_workload(80, 3);
            let batch = run_experiment(&cfg, &workload);
            let batch_max_wait = batch
                .jobs
                .iter()
                .map(|j| j.wait().as_secs_f64())
                .fold(0.0f64, f64::max);
            for retention in [None, Some((SimDuration::from_secs(60), 10_000))] {
                let opts = StreamingOptions {
                    window: workload.len(),
                    retention,
                };
                let streamed = run_streaming(&cfg, workload.iter().cloned(), &opts);
                let case = format!("{kind:?}, retention {retention:?}");
                assert_eq!(streamed.jobs_completed as usize, batch.jobs.len());
                assert_eq!(streamed.makespan_secs, batch.makespan_secs, "{case}");
                assert_eq!(streamed.sched_passes, batch.sched_passes, "{case}");
                assert_eq!(streamed.rounds_elided, batch.rounds_elided, "{case}");
                assert_eq!(streamed.loop_iterations, batch.loop_iterations, "{case}");
                assert_eq!(streamed.max_wait_secs, batch_max_wait, "{case}");
            }
        }
    }

    /// A window smaller than the trace still completes every job, and
    /// the resident high-water mark respects the window.
    #[test]
    fn bounded_window_completes_and_bounds_residency() {
        let cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        let workload = synth_workload(120, 9);
        let opts = StreamingOptions {
            window: 16,
            retention: Some((SimDuration::from_secs(600), 10_000)),
        };
        let res = run_streaming(&cfg, workload.iter().cloned(), &opts);
        assert_eq!(res.jobs_completed as usize, workload.len());
        assert!(res.peak_resident_jobs <= 16, "{}", res.peak_resident_jobs);
        assert!(res.makespan_secs > 0.0);
        assert!(res.mean_wait_secs >= 0.0);
    }

    /// Same seed, same trace → identical aggregates (streaming path is
    /// deterministic end to end).
    #[test]
    fn streaming_replay_is_deterministic() {
        let cfg = quick_cfg(SchedulerKind::Adaptive {
            limit_bps: gibps(15.0),
            two_group: true,
        });
        let opts = StreamingOptions {
            window: 32,
            ..StreamingOptions::default()
        };
        let mk = || {
            let cfg_w = SynthConfig {
                jobs: 100,
                seed: 5,
                max_procs: 4,
                mean_interarrival_secs: 15.0,
                median_run_secs: 90.0,
                ..SynthConfig::default()
            };
            SynthTrace::new(cfg_w).submissions(SwfOptions {
                io_fraction: 0.25,
                io_rate_per_node_bps: gibps(0.2),
                ..SwfOptions::default()
            })
        };
        let a = run_streaming(&cfg, mk(), &opts);
        let b = run_streaming(&cfg, mk(), &opts);
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.loop_iterations, b.loop_iterations);
        assert_eq!(a.mean_wait_secs, b.mean_wait_secs);
        assert_eq!(a.peak_resident_jobs, b.peak_resident_jobs);
    }

    #[test]
    fn empty_trace_returns_empty_result() {
        let cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        let res = run_streaming(&cfg, std::iter::empty(), &StreamingOptions::default());
        assert_eq!(res.jobs_completed, 0);
        assert_eq!(res.makespan_secs, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot pretrain")]
    fn pretraining_is_rejected() {
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.pretrained = true;
        let _ = run_streaming(&cfg, synth_workload(5, 1), &StreamingOptions::default());
    }

    #[test]
    fn limit_enforcement_kills_and_retires() {
        let mut cfg = quick_cfg(SchedulerKind::DefaultBackfill);
        cfg.enforce_limits = true;
        // Synthetic requested times always exceed run times, so force a
        // hand-built overrun: one sleep job with a limit below its run.
        use iosched_cluster::ExecSpec;
        let sub = JobSubmission {
            id: iosched_simkit::ids::JobId(1),
            name: "overrun".to_string(),
            exec: ExecSpec::sleep(SimDuration::from_secs(300)),
            limit: SimDuration::from_secs(60),
            submit: SimTime::ZERO,
            priority: 0,
            after: Vec::new(),
        };
        let res = run_streaming(&cfg, [sub], &StreamingOptions::default());
        assert_eq!(res.jobs_completed, 1);
        assert!(res.makespan_secs < 100.0, "{}", res.makespan_secs);
    }
}
