//! The sampling daemon.
//!
//! In the real deployment an LDMS daemon on every compute node reads the
//! Lustre-client (`llite`) counters once per second and streams them to
//! the store. In simulation the experiment driver plays the role of the
//! transport: at each sampling tick it hands the daemon the current
//! file-system load (aggregate and per job).
//!
//! The aggregate series (`FS_TOTAL`, `NODES_BUSY`) land in the store as
//! records. Per-job samples have exactly one reader — the job's measured
//! volume at completion ([`LdmsDaemon::job_bytes`]) — so they are not
//! stored: each job keeps one running Riemann sum of its sampled,
//! sample-and-hold rate, folded in as each tick arrives. The additions
//! are the ones [`crate::Container::integrate_for_key`] would make over
//! the job's full sample sequence, in the same order, so the volume is
//! bit-identical to integrating stored records, and memory is O(jobs
//! with samples that have not been retired) rather than O(trace length).

use crate::store::{MetricStore, Record, SCHEMA_FS_TOTAL, SCHEMA_NODES_BUSY};
use iosched_simkit::time::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// How much aggregate-throughput history the daemon mirrors in its
/// rolling deque. Queries with `window` inside this horizon are answered
/// from the deque in O(horizon / period) — constant with respect to
/// store size; larger windows fall back to the (indexed) store query.
const RECENT_HORIZON: SimDuration = SimDuration::from_secs(120);

/// One job's sampled I/O so far: the Riemann sum of its rate up to the
/// latest sample, plus that sample, which holds until the next one.
#[derive(Clone, Copy, Debug)]
struct JobVolume {
    first: SimTime,
    last: SimTime,
    last_bps: f64,
    /// Bytes integrated over `[first, last)`.
    bytes: f64,
}

/// Sampling daemon state: the store, the per-job volumes and the
/// sampling cadence.
pub struct LdmsDaemon {
    store: MetricStore,
    /// Running volume of every sampled job not yet retired.
    job_volumes: HashMap<u64, JobVolume>,
    period: SimDuration,
    next_sample: SimTime,
    /// Rolling mirror of the trailing `RECENT_HORIZON` of `FS_TOTAL`
    /// samples, pruned on append.
    recent_total: VecDeque<(SimTime, f64)>,
    /// Latest timestamp ever pruned from `recent_total` (coverage bound
    /// for the fast path).
    pruned_through: Option<SimTime>,
}

impl LdmsDaemon {
    /// A daemon sampling every `period` (paper setup: 1 s).
    pub fn new(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sampling period must be positive");
        LdmsDaemon {
            store: MetricStore::new(),
            job_volumes: HashMap::new(),
            period,
            next_sample: SimTime::ZERO,
            recent_total: VecDeque::new(),
            pruned_through: None,
        }
    }

    /// Sampling period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The next instant a sample is due.
    pub fn next_sample_at(&self) -> SimTime {
        self.next_sample
    }

    /// Record one sampling tick. `total_bps` is the aggregate file-system
    /// throughput; `busy_nodes` is the allocated node count. Advances the
    /// sampling clock.
    ///
    /// `per_job_bps` lists jobs' current throughput. Each sample holds
    /// until the job's next one (sample-and-hold), so listing a job with
    /// 0.0 and omitting it are *not* the same: a job sampled at 100 B/s
    /// and then omitted keeps accruing 100 B/s until its volume is read;
    /// listed at 0.0, it stops. `run_experiment` and `run_streaming` list
    /// exactly the jobs with an open stream, so a job whose streams end
    /// before it completes holds its last sampled rate until then — the
    /// sampling-resolution error a 1 s LDMS cadence has.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the previous tick.
    pub fn sample(
        &mut self,
        t: SimTime,
        total_bps: f64,
        per_job_bps: &[(u64, f64)],
        busy_nodes: usize,
    ) {
        // The store asserts time order, so `t ≥ v.last` below.
        self.store.append(
            SCHEMA_FS_TOTAL,
            Record {
                time: t,
                key: 0,
                value: total_bps,
            },
        );
        for &(job, bps) in per_job_bps {
            self.job_volumes
                .entry(job)
                .and_modify(|v| {
                    v.bytes += v.last_bps * t.saturating_since(v.last).as_secs_f64();
                    v.last = t;
                    v.last_bps = bps;
                })
                .or_insert(JobVolume {
                    first: t,
                    last: t,
                    last_bps: bps,
                    bytes: 0.0,
                });
        }
        self.store.append(
            SCHEMA_NODES_BUSY,
            Record {
                time: t,
                key: 0,
                value: busy_nodes as f64,
            },
        );
        self.recent_total.push_back((t, total_bps));
        let keep_from = t.as_millis().saturating_sub(RECENT_HORIZON.as_millis());
        while let Some(&(ft, _)) = self.recent_total.front() {
            if ft.as_millis() >= keep_from {
                break;
            }
            self.pruned_through = Some(self.pruned_through.map_or(ft, |p| p.max(ft)));
            self.recent_total.pop_front();
        }
        self.next_sample = t + self.period;
    }

    /// Opt the daemon's aggregate containers into store retention: keep
    /// `horizon` of exact samples, archive older history as `bucket_ms`
    /// bucket means (see [`crate::Container::set_retention`]). `horizon`
    /// should exceed any query window the analytics use. Job volumes are
    /// running sums, not records, so retention never truncates them.
    pub fn set_retention(&mut self, horizon: SimDuration, bucket_ms: u64) {
        for schema in [SCHEMA_FS_TOTAL, SCHEMA_NODES_BUSY] {
            self.store
                .container_mut(schema)
                .set_retention(horizon, bucket_ms);
        }
    }

    /// Read access for the analytical services.
    pub fn store(&self) -> &MetricStore {
        &self.store
    }

    /// Mean aggregate throughput over the trailing `window` ending at `now`
    /// (the measured `R_now` of paper Algorithm 2, line 2). Returns 0.0
    /// when no samples exist in the window (cold start).
    ///
    /// Answered from the rolling deque whenever it covers the window —
    /// O(1) with respect to store size, and bit-identical to the store
    /// scan because the deque holds the same samples in the same order.
    pub fn measured_total_bps(&self, now: SimTime, window: SimDuration) -> f64 {
        let from = SimTime::from_millis(now.as_millis().saturating_sub(window.as_millis()));
        let to = now + SimDuration::from_millis(1);
        let covered = match self.pruned_through {
            None => true,
            Some(p) => p < from,
        };
        if covered {
            let mut sum = 0.0;
            let mut n = 0usize;
            for &(t, v) in &self.recent_total {
                if t >= from && t < to {
                    sum += v;
                    n += 1;
                }
            }
            return if n == 0 { 0.0 } else { sum / n as f64 };
        }
        self.store
            .container(SCHEMA_FS_TOTAL)
            .and_then(|c| c.mean_for_key(0, from, to))
            .unwrap_or(0.0)
    }

    /// Bytes attributed to `job` by its sampled rates over `[start, end)`
    /// — the measured volume used to estimate `r_j`. Each sample's rate
    /// holds until the job's next sample, the last one until `end`; a
    /// job never sampled (or already retired) reads 0. O(1).
    ///
    /// # Panics
    /// Panics unless the window covers every sample of the job
    /// (`start ≤ first sample ≤ last sample ≤ end`; a sample at `end`
    /// itself holds for no time and adds nothing). The experiment loops
    /// sample a job only between its start and its completion.
    pub fn job_bytes(&self, job: u64, start: SimTime, end: SimTime) -> f64 {
        let Some(v) = self.job_volumes.get(&job) else {
            return 0.0;
        };
        assert!(
            start <= v.first && v.last <= end,
            "job {job}: window [{start:?}, {end:?}) does not cover its samples [{:?}, {:?}]",
            v.first,
            v.last
        );
        v.bytes + v.last_bps * end.saturating_since(v.last).as_secs_f64()
    }

    /// Forget a job's sampled volume once it has been read (or will never
    /// be): completed and killed jobs are retired so the daemon holds
    /// only jobs still running. A retired job reads 0 from
    /// [`LdmsDaemon::job_bytes`].
    pub fn retire_job(&mut self, job: u64) {
        self.job_volumes.remove(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Container;
    use iosched_simkit::{prop, prop_assert_eq, props};

    #[test]
    fn sampling_advances_clock() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        assert_eq!(d.next_sample_at(), SimTime::ZERO);
        d.sample(SimTime::ZERO, 5.0, &[(1, 5.0)], 3);
        assert_eq!(d.next_sample_at(), SimTime::from_secs(1));
        assert_eq!(d.store().container(SCHEMA_FS_TOTAL).unwrap().len(), 1);
        assert_eq!(d.store().container(SCHEMA_NODES_BUSY).unwrap().len(), 1);
    }

    #[test]
    fn windowed_total_average() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        for s in 0..10 {
            d.sample(SimTime::from_secs(s), s as f64, &[], 0);
        }
        // Trailing 4-second window at t=9 covers samples at 5..=9... the
        // window [5, 9] inclusive of both ends per implementation.
        let avg = d.measured_total_bps(SimTime::from_secs(9), SimDuration::from_secs(4));
        assert!((avg - 7.0).abs() < 1e-9, "avg {avg}");
        // Cold start: empty window.
        let d2 = LdmsDaemon::new(SimDuration::from_secs(1));
        assert_eq!(
            d2.measured_total_bps(SimTime::from_secs(9), SimDuration::from_secs(4)),
            0.0
        );
    }

    #[test]
    fn job_bytes_integrates_samples() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        // Job 7 writes at 100 B/s for 5 samples.
        for s in 0..5 {
            d.sample(SimTime::from_secs(s), 100.0, &[(7, 100.0)], 1);
        }
        let bytes = d.job_bytes(7, SimTime::ZERO, SimTime::from_secs(5));
        assert!((bytes - 500.0).abs() < 1e-9, "bytes {bytes}");
        assert_eq!(d.job_bytes(8, SimTime::ZERO, SimTime::from_secs(5)), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_period_panics() {
        LdmsDaemon::new(SimDuration::ZERO);
    }

    #[test]
    fn sparse_samples_average_what_exists() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        // Only two samples land in a 30 s window.
        d.sample(SimTime::from_secs(0), 4.0, &[], 1);
        d.sample(SimTime::from_secs(29), 8.0, &[], 1);
        let avg = d.measured_total_bps(SimTime::from_secs(29), SimDuration::from_secs(30));
        assert_eq!(avg, 6.0);
        // A window that covers no samples returns 0.
        assert_eq!(
            d.measured_total_bps(SimTime::from_secs(200), SimDuration::from_secs(10)),
            0.0
        );
    }

    #[test]
    fn rolling_window_matches_store_scan_past_the_horizon() {
        // Run long enough that the deque prunes; the fast path and the
        // store fallback must agree exactly on every window size.
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        for s in 0..400 {
            d.sample(SimTime::from_secs(s), (s % 13) as f64, &[], 0);
        }
        let now = SimTime::from_secs(399);
        for window_s in [1u64, 4, 30, 119, 200, 500] {
            let window = SimDuration::from_secs(window_s);
            let fast = d.measured_total_bps(now, window);
            let from = SimTime::from_millis(now.as_millis().saturating_sub(window.as_millis()));
            let scan = d
                .store()
                .container(SCHEMA_FS_TOTAL)
                .and_then(|c| c.mean_for_key(0, from, now + SimDuration::from_millis(1)))
                .unwrap_or(0.0);
            assert_eq!(fast, scan, "window {window_s}s");
        }
    }

    #[test]
    fn retention_bounds_container_growth() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        d.set_retention(SimDuration::from_secs(60), 10_000);
        for s in 0..3600 {
            d.sample(SimTime::from_secs(s), 1.0, &[(1, 1.0)], 1);
        }
        let c = d.store().container(SCHEMA_FS_TOTAL).unwrap();
        // Eviction batches until the expired prefix is a quarter of the
        // live set, so the live high-water mark is 4/3 × (horizon +
        // bucket) records — bounded, just not clamped to the horizon.
        assert!(c.len() <= 100, "live set stays bounded, got {}", c.len());
        assert!(c.archive().is_some());
        // Recent window is still exact.
        assert_eq!(
            d.measured_total_bps(SimTime::from_secs(3599), SimDuration::from_secs(30)),
            1.0
        );
    }

    #[test]
    fn job_bytes_outside_sampled_span_is_zero() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        d.sample(SimTime::from_secs(5), 10.0, &[(1, 10.0)], 1);
        assert_eq!(d.job_bytes(1, SimTime::ZERO, SimTime::from_secs(5)), 0.0);
    }

    #[test]
    fn retention_never_truncates_job_volume() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        d.set_retention(SimDuration::from_secs(60), 10_000);
        // Job 1 writes at 100 B/s for ten minutes — ten retention
        // horizons.
        for s in 0..600 {
            d.sample(SimTime::from_secs(s), 100.0, &[(1, 100.0)], 1);
        }
        assert!(
            d.store()
                .container(SCHEMA_FS_TOTAL)
                .unwrap()
                .archive()
                .is_some(),
            "retention evicted the aggregate series"
        );
        assert_eq!(
            d.job_bytes(1, SimTime::ZERO, SimTime::from_secs(600)),
            60_000.0
        );
    }

    #[test]
    fn retired_job_reads_zero() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        for s in 0..5 {
            d.sample(SimTime::from_secs(s), 10.0, &[(1, 10.0), (2, 10.0)], 2);
        }
        d.retire_job(1);
        assert_eq!(d.job_bytes(1, SimTime::ZERO, SimTime::from_secs(5)), 0.0);
        assert_eq!(d.job_bytes(2, SimTime::ZERO, SimTime::from_secs(5)), 50.0);
        // Retiring an unknown or already retired job is a no-op.
        d.retire_job(1);
        d.retire_job(99);
        assert_eq!(d.job_bytes(2, SimTime::ZERO, SimTime::from_secs(5)), 50.0);
    }

    #[test]
    fn omitted_job_holds_its_rate_but_a_zero_sample_stops_it() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        // Both jobs are sampled at 100 B/s at t = 0. Afterwards job 1 is
        // omitted and job 2 is listed at 0.0.
        d.sample(SimTime::ZERO, 200.0, &[(1, 100.0), (2, 100.0)], 2);
        for s in 1..10 {
            d.sample(SimTime::from_secs(s), 0.0, &[(2, 0.0)], 2);
        }
        let end = SimTime::from_secs(10);
        assert_eq!(d.job_bytes(1, SimTime::ZERO, end), 1000.0);
        assert_eq!(d.job_bytes(2, SimTime::ZERO, end), 100.0);
    }

    #[test]
    #[should_panic(expected = "does not cover its samples")]
    fn window_starting_after_first_sample_panics() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        d.sample(SimTime::from_secs(5), 10.0, &[(1, 10.0)], 1);
        d.job_bytes(1, SimTime::from_secs(6), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "does not cover its samples")]
    fn window_ending_before_last_sample_panics() {
        let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
        d.sample(SimTime::from_secs(1), 10.0, &[(1, 10.0)], 1);
        d.sample(SimTime::from_secs(5), 10.0, &[(1, 10.0)], 1);
        d.job_bytes(1, SimTime::ZERO, SimTime::from_secs(4));
    }

    props! {
        #![cases(128)]

        /// Every job's running volume is bit-identical to integrating its
        /// full sample sequence from a container without retention, over
        /// any window that covers the samples: irregular tick spacing
        /// (including repeated timestamps), jobs omitted for some ticks,
        /// zero rates, and the daemon's own store under retention or not.
        fn job_volumes_match_container_integral(
            ticks in prop::vec(
                (0u64..2_500, prop::vec((0u64..5, 0u64..3, 0.0f64..1e10), 0..5)),
                1..90,
            ),
            retain in 0u64..2,
            lead_ms in 0u64..4_000,
            tail_ms in 0u64..4_000,
        ) {
            let mut d = LdmsDaemon::new(SimDuration::from_secs(1));
            if retain == 1 {
                d.set_retention(SimDuration::from_secs(5), 1_000);
            }
            let mut oracle = Container::default();
            let mut span: [Option<(SimTime, SimTime)>; 5] = [None; 5];
            let mut now_ms = 0u64;
            let mut per_job = Vec::new();
            for (dt_ms, jobs) in &ticks {
                now_ms += dt_ms;
                let t = SimTime::from_millis(now_ms);
                per_job.clear();
                for &(job, kind, rate) in jobs {
                    let bps = if kind == 0 { 0.0 } else { rate };
                    per_job.push((job, bps));
                    oracle.append(Record { time: t, key: job, value: bps });
                    let s = &mut span[job as usize];
                    *s = Some(s.map_or((t, t), |(first, _)| (first, t)));
                }
                d.sample(t, 0.0, &per_job, 0);
            }
            let end_ms = now_ms + tail_ms;
            for (job, s) in span.iter().enumerate() {
                let job = job as u64;
                let (from, to) = match s {
                    Some((first, last)) => (
                        SimTime::from_millis(first.as_millis().saturating_sub(lead_ms)),
                        SimTime::from_millis(last.as_millis() + tail_ms),
                    ),
                    None => (SimTime::ZERO, SimTime::from_millis(end_ms)),
                };
                prop_assert_eq!(
                    d.job_bytes(job, from, to).to_bits(),
                    oracle.integrate_for_key(job, from, to).to_bits(),
                    "job {job} over [{from:?}, {to:?})"
                );
            }
            d.retire_job(0);
            prop_assert_eq!(d.job_bytes(0, SimTime::ZERO, SimTime::from_millis(end_ms)), 0.0);
        }
    }
}
