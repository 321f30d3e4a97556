//! Piecewise-constant resource reservation profiles.
//!
//! A [`ResourceProfile`] is the data structure behind every reservation
//! tracker in the system: Slurm's node tracker (`NT`), the I/O-aware
//! Lustre-throughput tracker (`LT`, paper Algorithm 2) and the adjusted
//! throughput tracker of the workload-adaptive scheduler (`AT`, paper
//! Algorithm 5). It stores the total reserved amount as a step function of
//! time and answers the two queries backfill needs:
//!
//! * [`ResourceProfile::reserve`] — add `amount` over `[start, end)`;
//! * [`ResourceProfile::earliest_fit`] — the earliest time `t ≥ from` such
//!   that an extra `amount` fits under the capacity for a whole window
//!   `[t, t + dur)` (the inner step of `EarliestStartTime`).
//!
//! Amounts are `f64` and may be negative (the workload-adaptive AT tracker
//! reserves `r_j − n_j·r̄_zero`, which is negative for low-I/O running
//! jobs); usage is allowed to dip below zero.
//!
//! # Representation: a lazily folded breakpoint vector
//!
//! One sorted vector of `(instant, change of the reserved amount)`
//! breakpoints, at most one per instant, plus a parallel `usage` vector
//! holding their left-to-right fold: `usage[i]` is the reserved amount
//! from breakpoint `i` until the next one. The fold is valid for the
//! first `usage.len()` breakpoints, the *folded watermark*:
//!
//! * [`ResourceProfile::reserve`] edits the breakpoint vector with
//!   `insert_delta` (accumulate in place, insert, or drop a breakpoint
//!   that cancels to within `eps_for` of zero) and then only lowers the
//!   watermark to the first edited breakpoint;
//! * every query binary-searches its start instant, extends the fold on
//!   demand as far as it reads, and scans the stored values.
//!
//! The stored fold is the same sequence of float additions the linear
//! `sweep` performs from the first breakpoint (`0.0 + d₀ + d₁ + …`, in
//! time order), and a write changes nothing before its first edited
//! breakpoint, so every stored value is bitwise the sweep's and every
//! capacity comparison gives the sweep's answer. `sweep` is the
//! debug-build oracle of every `earliest_at_most` call.
//!
//! The round-start tracker build stages the running set and commits it in
//! one sort ([`ResourceProfile::stage`] +
//! [`ResourceProfile::commit_staged`]), asserted in debug builds against
//! an insert-path replay. The commit folds the whole profile once and
//! records its peak; the peak plus every positive amount reserved since
//! (plus any residue a dropped breakpoint carried) bounds every stored
//! value from above, so a probe whose threshold is at or above that bound
//! fits at `from` without reading a breakpoint. On a free cluster, where
//! every probe fits at once, this keeps a reservation-heavy round O(1)
//! per query.
//!
//! Measurements against the overlay and segment-tree design this
//! replaced are in DESIGN.md §3.7.

use iosched_simkit::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};

/// Relative tolerance used when comparing usage against capacity, so that
/// reserving exactly the remaining capacity still "fits".
fn eps_for(cap: f64) -> f64 {
    1e-9 * cap.abs().max(1.0)
}

thread_local! {
    /// Breakpoints scanned by [`ResourceProfile::earliest_at_most`] on
    /// this thread — the deterministic work counter behind the deep-queue
    /// bench's `sweep_steps/*` entries.
    static SWEEP_STEPS: Cell<u64> = const { Cell::new(0) };
}

/// Read and reset this thread's sweep-step counter (breakpoints scanned
/// by `earliest_at_most` since the last call).
pub fn take_sweep_steps() -> u64 {
    SWEEP_STEPS.with(|c| c.replace(0))
}

/// Always `(0, 0)`. These were the descent and update counts of a
/// segment-tree query index that the folded breakpoint vector replaced;
/// all query work is now counted by [`take_sweep_steps`]. Kept so that
/// callers reporting the pair keep building.
pub fn take_tree_counters() -> (u64, u64) {
    (0, 0)
}

/// Accumulate `d` at breakpoint `t`: binary-search, then accumulate in
/// place or `Vec::insert`. The reserve path, and the replay the batched
/// build is checked against. Returns the position of the edit and the
/// value a dropped breakpoint carried (`0.0` when none was dropped).
///
/// A breakpoint whose accumulated delta lands within `eps` of zero is
/// dropped (+a then −a at the same instant, including cancellations that
/// leave a ±1e-17 float residue) so scans don't walk dead entries. The
/// tolerance is the caller's [`eps_for`], so the batched build agrees; a
/// fresh insert is never dropped.
fn insert_delta(deltas: &mut Vec<(SimTime, f64)>, t: SimTime, d: f64, eps: f64) -> (usize, f64) {
    match deltas.binary_search_by_key(&t, |e| e.0) {
        Ok(i) => {
            deltas[i].1 += d;
            let v = deltas[i].1;
            if v.abs() <= eps {
                deltas.remove(i);
                return (i, v);
            }
            (i, 0.0)
        }
        Err(i) => {
            deltas.insert(i, (t, d));
            (i, 0.0)
        }
    }
}

/// A step function of reserved amount over time, with a fixed capacity.
///
/// [`Self::reset`] retains all allocations, so pooled profiles keep the
/// steady-state scheduling pass allocation-free.
#[derive(Clone, Debug)]
pub struct ResourceProfile {
    capacity: f64,
    /// `(breakpoint, change of the reserved amount)`, sorted by time with
    /// at most one entry per instant.
    deltas: Vec<(SimTime, f64)>,
    /// Left-to-right fold of `deltas`: `usage[i]` is the reserved amount
    /// on `[deltas[i].0, deltas[i + 1].0)`. Holds the first
    /// `usage.len()` breakpoints (the folded watermark); queries extend
    /// it from `&self`, writes truncate it.
    usage: RefCell<Vec<f64>>,
    /// Upper bound on every stored usage value, and on the zero before the
    /// first breakpoint.
    peak_bound: f64,
    /// Staged `(t, seq, d)` entries awaiting [`Self::commit_staged`];
    /// `seq` is the push index, so an unstable sort on `(t, seq)` (which
    /// never allocates, unlike a stable sort) reproduces call order at
    /// each instant exactly.
    staged: Vec<(SimTime, u32, f64)>,
    /// Pooled insert-path replay for the `commit_staged` debug oracle.
    #[cfg(debug_assertions)]
    oracle: Vec<(SimTime, f64)>,
}

impl Default for ResourceProfile {
    fn default() -> Self {
        ResourceProfile::new(0.0)
    }
}

impl ResourceProfile {
    /// Empty profile with the given capacity (must be finite).
    pub fn new(capacity: f64) -> Self {
        assert!(capacity.is_finite(), "capacity must be finite");
        ResourceProfile {
            capacity,
            deltas: Vec::new(),
            usage: RefCell::new(Vec::new()),
            peak_bound: 0.0,
            staged: Vec::new(),
            #[cfg(debug_assertions)]
            oracle: Vec::new(),
        }
    }

    /// The capacity this profile enforces in [`Self::earliest_fit`].
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Clear all reservations and set a new capacity, keeping the
    /// allocations for reuse.
    pub fn reset(&mut self, capacity: f64) {
        assert!(capacity.is_finite(), "capacity must be finite");
        self.capacity = capacity;
        self.deltas.clear();
        self.usage.get_mut().clear();
        self.peak_bound = 0.0;
        self.staged.clear();
    }

    /// Reserve `amount` (may be negative) over `[start, end)`. Empty or
    /// inverted intervals are ignored.
    pub fn reserve(&mut self, amount: f64, start: SimTime, end: SimTime) {
        if end <= start || amount == 0.0 {
            return;
        }
        debug_assert!(self.staged.is_empty(), "commit_staged before reserving");
        let eps = eps_for(self.capacity);
        let (first, r0) = insert_delta(&mut self.deltas, start, amount, eps);
        let (_, r1) = insert_delta(&mut self.deltas, end, -amount, eps);
        // The end edit lands at or after `first`, so the fold before it
        // is still the sweep's.
        self.usage.get_mut().truncate(first);
        // Usage rises by at most `amount` on `[start, end)`, and by a
        // dropped breakpoint's residue from its instant on.
        self.peak_bound += amount.max(0.0) + r0.abs() + r1.abs();
    }

    /// Stage `amount` over `[start, end)` for a batched build. Invisible
    /// to queries until [`Self::commit_staged`]; must only be used on a
    /// freshly [`Self::reset`] profile.
    pub fn stage(&mut self, amount: f64, start: SimTime, end: SimTime) {
        if end <= start || amount == 0.0 {
            return;
        }
        let seq = self.staged.len() as u32;
        self.staged.push((start, seq, amount));
        self.staged.push((end, seq + 1, -amount));
    }

    /// Sort and coalesce everything staged since [`Self::reset`] into the
    /// breakpoint vector: O(S log S) total where the insert path is
    /// O(S·k). Accumulation at each instant runs left-to-right in staging
    /// (call) order, so every stored delta is bit-identical to the insert
    /// path's — asserted against a pooled insert-path replay in debug
    /// builds. Near-zero sums drop the breakpoint with the same
    /// `eps_for` tolerance as `insert_delta`: a running total landing
    /// within `eps` deletes the entry, so the next delta at that instant
    /// restarts the accumulation fresh (bitwise what the insert path
    /// computes). Then folds the whole profile once and records its peak.
    pub fn commit_staged(&mut self) {
        debug_assert!(
            self.deltas.is_empty(),
            "commit_staged on a profile with committed reservations"
        );
        let eps = eps_for(self.capacity);
        #[cfg(debug_assertions)]
        {
            let (oracle, staged) = (&mut self.oracle, &self.staged);
            oracle.clear();
            for &(t, _, d) in staged {
                insert_delta(oracle, t, d, eps);
            }
        }
        self.staged.sort_unstable_by_key(|&(t, seq, _)| (t, seq));
        let mut i = 0;
        while i < self.staged.len() {
            let t = self.staged[i].0;
            let mut acc = self.staged[i].2;
            let mut live = true;
            i += 1;
            while i < self.staged.len() && self.staged[i].0 == t {
                let d = self.staged[i].2;
                if live {
                    acc += d;
                    if acc.abs() <= eps {
                        live = false;
                    }
                } else {
                    acc = d;
                    live = true;
                }
                i += 1;
            }
            if live {
                self.deltas.push((t, acc));
            }
        }
        self.staged.clear();
        #[cfg(debug_assertions)]
        debug_assert!(
            self.deltas.len() == self.oracle.len()
                && self
                    .deltas
                    .iter()
                    .zip(self.oracle.iter())
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
            "batched build diverged from the insert-path oracle"
        );
        let usage = self.usage.get_mut();
        usage.clear();
        fold_onto(usage, &self.deltas);
        self.peak_bound = usage.iter().fold(0.0, |m, &u| m.max(u));
    }

    /// Extend the stored fold to cover the first `n` breakpoints.
    fn fold_to(&self, usage: &mut Vec<f64>, n: usize) {
        if n > usage.len() {
            fold_onto(usage, &self.deltas[usage.len()..n]);
        }
    }

    /// Total reserved amount at time `t`.
    pub fn usage_at(&self, t: SimTime) -> f64 {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        let k = self.deltas.partition_point(|e| e.0 <= t);
        if k == 0 {
            return 0.0;
        }
        let mut usage = self.usage.borrow_mut();
        self.fold_to(&mut usage, k);
        usage[k - 1]
    }

    /// Maximum reserved amount over `[start, end)`; `usage_at(start)` if
    /// there are no breakpoints inside the window. Returns 0.0 for empty
    /// windows.
    pub fn max_over(&self, start: SimTime, end: SimTime) -> f64 {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        if end <= start {
            return 0.0;
        }
        let lo = self.deltas.partition_point(|e| e.0 <= start);
        let hi = lo + self.deltas[lo..].partition_point(|e| e.0 < end);
        let mut usage = self.usage.borrow_mut();
        self.fold_to(&mut usage, hi);
        let at_start = if lo == 0 { 0.0 } else { usage[lo - 1] };
        usage[lo..hi].iter().fold(at_start, |m, &u| m.max(u))
    }

    /// Earliest `t ≥ from` such that the reserved amount stays at or below
    /// `threshold` throughout `[t, t + dur)`.
    ///
    /// A threshold at or above the peak bound fits at `from` at once.
    /// Otherwise the probe binary-searches `from`, then scans the folded
    /// usage segment by segment (extending the fold as it goes), tracking
    /// the start of the current run of fitting segments, and returns as
    /// soon as a run covers a full window. In debug builds every result
    /// is asserted against the linear `sweep` over the breakpoints.
    ///
    /// Always terminates: after the last breakpoint the profile is
    /// constant (zero if all reservations have finite ends) — if even the
    /// tail usage exceeds the threshold, [`SimTime::FAR_FUTURE`] is
    /// returned.
    pub fn earliest_at_most(&self, from: SimTime, dur: SimDuration, threshold: f64) -> SimTime {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        let limit = threshold + eps_for(self.capacity);
        let dur = dur.max(SimDuration::from_millis(1));
        let result = if threshold >= self.peak_bound {
            from
        } else {
            self.scan(from, dur, limit)
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            result,
            sweep(&self.deltas, from, dur, limit),
            "folded scan diverged from the linear sweep (from {from}, dur {dur}, \
             threshold {threshold})"
        );
        result
    }

    /// The [`Self::earliest_at_most`] scan over the folded usage from
    /// the first breakpoint after `from`.
    fn scan(&self, from: SimTime, dur: SimDuration, limit: f64) -> SimTime {
        let mut usage = self.usage.borrow_mut();
        let first = self.deltas.partition_point(|e| e.0 <= from);
        self.fold_to(&mut usage, first);
        // `u` is the usage on the segment ending at breakpoint `j`;
        // `cand` the earliest potential start: `from`, pushed to the end
        // of every violating segment encountered.
        let mut u = if first == 0 { 0.0 } else { usage[first - 1] };
        let mut cand = from;
        let mut j = first;
        let result = loop {
            let Some(&(end, d)) = self.deltas.get(j) else {
                // Tail segment: constant forever.
                break if u <= limit {
                    cand
                } else {
                    SimTime::FAR_FUTURE
                };
            };
            if u <= limit {
                if cand + dur <= end {
                    break cand;
                }
            } else {
                cand = end;
            }
            u = match usage.get(j) {
                Some(&v) => v,
                None => {
                    u += d;
                    usage.push(u);
                    u
                }
            };
            j += 1;
        };
        SWEEP_STEPS.with(|c| c.set(c.get() + (j - first) as u64));
        result
    }

    /// Earliest `t ≥ from` at which an additional `amount` fits under the
    /// capacity for the whole window `[t, t + dur)`.
    pub fn earliest_fit(&self, from: SimTime, dur: SimDuration, amount: f64) -> SimTime {
        self.earliest_at_most(from, dur, self.capacity - amount)
    }

    /// Breakpoints and cumulative usage, for diagnostics and tests.
    pub fn steps(&self) -> Vec<(SimTime, f64)> {
        debug_assert!(self.staged.is_empty(), "commit_staged before querying");
        let mut usage = self.usage.borrow_mut();
        self.fold_to(&mut usage, self.deltas.len());
        self.deltas
            .iter()
            .zip(usage.iter())
            .map(|(&(t, _), &u)| (t, u))
            .collect()
    }
}

/// Append the fold of `deltas` to `usage`, continuing from its last value.
fn fold_onto(usage: &mut Vec<f64>, deltas: &[(SimTime, f64)]) {
    let mut acc = usage.last().copied().unwrap_or(0.0);
    usage.extend(deltas.iter().map(|&(_, d)| {
        acc += d;
        acc
    }));
}

/// The linear oracle of [`ResourceProfile::earliest_at_most`]: accumulate
/// usage from zero over every breakpoint in time order, track the start
/// of the current run of fitting segments, and return as soon as a run
/// covers a full window.
#[cfg(any(test, debug_assertions))]
fn sweep(deltas: &[(SimTime, f64)], from: SimTime, dur: SimDuration, limit: f64) -> SimTime {
    let mut m = deltas.iter().copied().peekable();

    // Accumulate usage over the breakpoints at or before `from`.
    let mut usage = 0.0;
    while m.peek().is_some_and(|&(bt, _)| bt <= from) {
        usage += m.next().expect("peeked").1;
    }

    // Walk the segments [seg_start, peek()) with constant `usage`.
    // `cand` is the earliest potential start: `from`, pushed to the
    // end of every violating segment encountered.
    let mut cand = from;
    loop {
        let seg_end = m.peek().map(|&(bt, _)| bt);
        if usage <= limit {
            // Fits through this whole segment; done if the window
            // [cand, cand + dur) closes before the segment does.
            match seg_end {
                Some(end) if cand + dur > end => {}
                _ => break cand, // covers the window (or tail: fits forever)
            }
        } else {
            match seg_end {
                Some(end) => cand = end,
                // Tail usage exceeds the threshold forever.
                None => break SimTime::FAR_FUTURE,
            }
        }
        usage += m.next().expect("peeked").1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::{prop, prop_assert, props};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn usage_tracks_reservations() {
        let mut p = ResourceProfile::new(10.0);
        p.reserve(4.0, t(10), t(20));
        p.reserve(3.0, t(15), t(25));
        assert_eq!(p.usage_at(t(0)), 0.0);
        assert_eq!(p.usage_at(t(10)), 4.0);
        assert_eq!(p.usage_at(t(15)), 7.0);
        assert_eq!(p.usage_at(t(20)), 3.0);
        assert_eq!(p.usage_at(t(25)), 0.0);
    }

    #[test]
    fn max_over_windows() {
        let mut p = ResourceProfile::new(10.0);
        p.reserve(4.0, t(10), t(20));
        p.reserve(3.0, t(15), t(25));
        assert_eq!(p.max_over(t(0), t(10)), 0.0);
        assert_eq!(p.max_over(t(0), t(16)), 7.0);
        assert_eq!(p.max_over(t(12), t(14)), 4.0);
        assert_eq!(p.max_over(t(21), t(30)), 3.0);
        assert_eq!(p.max_over(t(5), t(5)), 0.0);
    }

    #[test]
    fn earliest_fit_simple() {
        let mut p = ResourceProfile::new(10.0);
        p.reserve(8.0, t(0), t(100));
        // 2 units fit immediately; 3 only after the block ends.
        assert_eq!(p.earliest_fit(t(0), d(10), 2.0), t(0));
        assert_eq!(p.earliest_fit(t(0), d(10), 3.0), t(100));
    }

    #[test]
    fn earliest_fit_finds_gap_large_enough() {
        let mut p = ResourceProfile::new(10.0);
        p.reserve(10.0, t(0), t(50));
        p.reserve(10.0, t(60), t(100));
        // A 10 s window fits exactly in the [50, 60) gap.
        assert_eq!(p.earliest_fit(t(0), d(10), 10.0), t(50));
        // A 20 s window does not; it must wait until t=100.
        assert_eq!(p.earliest_fit(t(0), d(20), 10.0), t(100));
    }

    #[test]
    fn earliest_fit_exact_capacity_boundary() {
        let mut p = ResourceProfile::new(10.0);
        p.reserve(6.0, t(0), t(100));
        // Exactly-fitting amount is accepted (epsilon tolerance).
        assert_eq!(p.earliest_fit(t(0), d(10), 4.0), t(0));
        assert_eq!(p.earliest_fit(t(0), d(10), 4.0000001), t(100));
    }

    #[test]
    fn earliest_at_most_threshold_query() {
        let mut p = ResourceProfile::new(100.0);
        p.reserve(5.0, t(0), t(30));
        p.reserve(5.0, t(10), t(20));
        // A 5 s window below threshold 8 fits immediately (usage 5 on
        // [0,10)); a 15 s window cannot avoid the [10,20) peak until t=20.
        assert_eq!(p.earliest_at_most(t(0), d(5), 8.0), t(0));
        assert_eq!(p.earliest_at_most(t(0), d(15), 8.0), t(20));
        // Threshold 5 with a 15 s window: t=20 works (usage 5 then 0).
        assert_eq!(p.earliest_at_most(t(0), d(15), 5.0), t(20));
        // Threshold 4: must wait for everything to end.
        assert_eq!(p.earliest_at_most(t(0), d(5), 4.0), t(30));
    }

    #[test]
    fn infeasible_returns_far_future() {
        let mut p = ResourceProfile::new(10.0);
        // Permanent overload: reservation to FAR_FUTURE.
        p.reserve(10.0, t(0), SimTime::FAR_FUTURE);
        assert_eq!(p.earliest_fit(t(0), d(10), 5.0), SimTime::FAR_FUTURE);
    }

    #[test]
    fn negative_amounts_lower_usage() {
        let mut p = ResourceProfile::new(10.0);
        p.reserve(8.0, t(0), t(100));
        p.reserve(-3.0, t(0), t(100));
        assert_eq!(p.usage_at(t(50)), 5.0);
        assert_eq!(p.earliest_fit(t(0), d(10), 5.0), t(0));
    }

    #[test]
    fn empty_and_inverted_intervals_ignored() {
        let mut p = ResourceProfile::new(10.0);
        p.reserve(5.0, t(10), t(10));
        p.reserve(5.0, t(20), t(10));
        assert!(p.steps().is_empty());
    }

    #[test]
    fn cancelled_deltas_leave_no_dead_breakpoints() {
        // +a then −a over the same interval cancels both breakpoints.
        let mut p = ResourceProfile::new(10.0);
        p.reserve(3.0, t(10), t(20));
        p.reserve(-3.0, t(10), t(20));
        assert!(p.steps().is_empty());

        // Abutting reservations of the same amount cancel the shared
        // instant: +2@0 −2@10 then +2@10 −2@20 leaves nothing at t=10.
        let mut p = ResourceProfile::new(10.0);
        p.reserve(2.0, t(0), t(10));
        p.reserve(2.0, t(10), t(20));
        assert!(p.steps().iter().all(|&(bt, _)| bt != t(10)));
        assert_eq!(p.usage_at(t(5)), 2.0);
        assert_eq!(p.usage_at(t(15)), 2.0);
        assert_eq!(p.usage_at(t(25)), 0.0);

        // Same cancellation through the batched path.
        let mut p = ResourceProfile::new(10.0);
        p.stage(2.0, t(0), t(10));
        p.stage(2.0, t(10), t(20));
        p.commit_staged();
        assert!(p.steps().iter().all(|&(bt, _)| bt != t(10)));
        assert_eq!(p.usage_at(t(15)), 2.0);
    }

    #[test]
    fn batched_build_matches_reserve() {
        let mut a = ResourceProfile::new(10.0);
        let mut b = ResourceProfile::new(10.0);
        let resv = [
            (4.0, 10u64, 20u64),
            (3.0, 15, 25),
            (-1.0, 0, 40),
            (2.0, 15, 25),
        ];
        for &(amt, s, e) in &resv {
            a.reserve(amt, t(s), t(e));
            b.stage(amt, t(s), t(e));
        }
        b.commit_staged();
        assert_eq!(a.steps(), b.steps());
        // Committed profiles accept further reservations.
        a.reserve(1.5, t(12), t(18));
        b.reserve(1.5, t(12), t(18));
        assert_eq!(a.steps(), b.steps());
        assert_eq!(
            a.earliest_fit(t(0), d(8), 3.0),
            b.earliest_fit(t(0), d(8), 3.0)
        );
    }

    #[test]
    fn capacity_accessor_and_stacked_identical_intervals() {
        let mut p = ResourceProfile::new(7.5);
        assert_eq!(p.capacity(), 7.5);
        // Three reservations over the identical interval accumulate.
        for _ in 0..3 {
            p.reserve(2.0, t(5), t(10));
        }
        assert_eq!(p.usage_at(t(5)), 6.0);
        assert_eq!(p.usage_at(t(10)), 0.0);
        assert_eq!(p.steps().len(), 2);
        // 1.5 fits exactly at capacity; 2.0 does not until t=10.
        assert_eq!(p.earliest_fit(t(0), d(5), 1.5), t(0).max(SimTime::ZERO));
        assert_eq!(p.earliest_fit(t(5), d(2), 2.0), t(10));
    }

    #[test]
    fn earliest_fit_beyond_all_breakpoints_is_immediate() {
        let mut p = ResourceProfile::new(10.0);
        p.reserve(10.0, t(0), t(10));
        // Querying from far past the last breakpoint: free immediately.
        assert_eq!(p.earliest_fit(t(1000), d(50), 10.0), t(1000));
    }

    #[test]
    fn zero_duration_window_still_probes_an_instant() {
        let mut p = ResourceProfile::new(10.0);
        p.reserve(10.0, t(0), t(10));
        // dur = 0 behaves like a 1 ms window.
        assert_eq!(p.earliest_fit(t(0), SimDuration::ZERO, 1.0), t(10));
    }

    #[test]
    fn near_zero_residues_drop_dead_breakpoints() {
        // 0.1 + 0.2 − 0.3 cancels to a 5.55e-17 residue, not exactly 0.0;
        // both write paths drop the dead breakpoints (eps_for(10) = 1e-8
        // tolerance) instead of keeping them forever.
        let residue = 0.1_f64 + 0.2 - 0.3;
        assert!(residue != 0.0 && residue.abs() <= eps_for(10.0));

        // Reserve path.
        let mut p = ResourceProfile::new(10.0);
        p.reserve(0.1, t(10), t(20));
        p.reserve(0.2, t(10), t(20));
        p.reserve(-0.3, t(10), t(20));
        assert!(p.steps().is_empty());
        assert_eq!(p.earliest_fit(t(0), d(5), 10.0), t(0));

        // In-place accumulate onto committed breakpoints.
        let mut p = ResourceProfile::new(10.0);
        p.stage(0.1, t(10), t(20));
        p.stage(0.2, t(10), t(20));
        p.commit_staged();
        p.reserve(-0.3, t(10), t(20));
        assert!(p.steps().is_empty());
        assert_eq!(p.earliest_fit(t(0), d(5), 10.0), t(0));

        // Batched build.
        let mut p = ResourceProfile::new(10.0);
        p.stage(0.1, t(10), t(20));
        p.stage(0.2, t(10), t(20));
        p.stage(-0.3, t(10), t(20));
        p.commit_staged();
        assert!(p.steps().is_empty());
        assert_eq!(p.earliest_fit(t(0), d(5), 10.0), t(0));
    }

    #[test]
    fn reset_clears_reservations_and_swaps_capacity() {
        let mut p = ResourceProfile::new(10.0);
        p.reserve(4.0, t(0), t(10));
        p.reset(5.0);
        assert_eq!(p.capacity(), 5.0);
        assert!(p.steps().is_empty());
        assert_eq!(p.usage_at(t(5)), 0.0);
        p.reserve(2.0, t(0), t(10));
        assert_eq!(p.usage_at(t(5)), 2.0);
    }

    /// The folded watermark: how many breakpoints the stored fold covers.
    fn watermark(p: &ResourceProfile) -> usize {
        p.usage.borrow().len()
    }

    #[test]
    fn cancelling_reserve_below_the_watermark_refolds() {
        let mut p = ResourceProfile::new(10.0);
        for k in 0..5u64 {
            p.stage(1.0 + k as f64, t(10 * k), t(10 * k + 15));
        }
        p.commit_staged();
        assert_eq!(watermark(&p), p.deltas.len(), "the build folds everything");
        let before = p.deltas.len();
        // Cancel the breakpoint at t=20 exactly (it carries +3, the job
        // starting there) — a drop below the watermark, with the end at
        // t=35 landing on an existing breakpoint too.
        p.reserve(-3.0, t(20), t(35));
        assert_eq!(watermark(&p), 3, "watermark drops to the edited breakpoint");
        assert_eq!(p.deltas.len(), before - 2);
        assert!(p.steps().iter().all(|&(bt, _)| bt != t(20) && bt != t(35)));
        assert_eq!(watermark(&p), p.deltas.len());
        // Every stored value matches a fresh fold, bit for bit.
        let mut acc = 0.0;
        for (&(_, dv), &(_, u)) in p.deltas.iter().zip(p.steps().iter()) {
            acc += dv;
            assert_eq!(acc.to_bits(), u.to_bits());
        }
        // And a partially folded profile answers like the sweep.
        p.reserve(2.0, t(5), t(12));
        for thr in [0.0, 2.5, 4.0, 6.0] {
            assert_eq!(
                p.earliest_at_most(t(0), d(6), thr),
                sweep(&p.deltas, t(0), d(6), thr + eps_for(10.0))
            );
        }
    }

    #[test]
    fn reset_after_a_partial_fold() {
        let mut p = ResourceProfile::new(10.0);
        for k in 0..6u64 {
            p.reserve(2.0, t(5 * k), t(5 * k + 8));
        }
        // A query near the start folds only a prefix.
        assert_eq!(p.usage_at(t(6)), 4.0);
        assert!(watermark(&p) > 0 && watermark(&p) < p.deltas.len());
        p.reset(4.0);
        assert_eq!(watermark(&p), 0);
        assert_eq!(p.peak_bound, 0.0);
        // The stale prefix must not leak into the new profile.
        p.reserve(3.0, t(100), t(110));
        assert_eq!(p.usage_at(t(6)), 0.0);
        assert_eq!(p.usage_at(t(105)), 3.0);
        assert_eq!(p.earliest_fit(t(95), d(10), 2.0), t(110));
        assert_eq!(p.steps(), vec![(t(100), 3.0), (t(110), 0.0)]);
    }

    #[test]
    fn threshold_equal_to_the_peak_bound_fits_at_once() {
        let mut p = ResourceProfile::new(10.0);
        p.stage(6.0, t(0), t(50));
        p.commit_staged();
        p.reserve(2.0, t(10), t(20));
        p.reserve(-1.0, t(30), t(40));
        assert_eq!(p.peak_bound, 8.0, "built peak plus positive reserves");
        // Threshold exactly at the bound: answered without a scan, and
        // the sweep agrees.
        take_sweep_steps();
        assert_eq!(p.earliest_at_most(t(5), d(30), 8.0), t(5));
        assert_eq!(take_sweep_steps(), 0);
        assert_eq!(sweep(&p.deltas, t(5), d(30), 8.0 + eps_for(10.0)), t(5));
        // Just below the bound the scan runs; usage peaks at exactly 8 on
        // [10, 20), which still fits within the eps tolerance.
        assert_eq!(p.earliest_at_most(t(5), d(30), 8.0 - 1e-12), t(5));
        assert!(take_sweep_steps() > 0);
        assert_eq!(p.earliest_at_most(t(5), d(30), 7.0), t(20));
    }

    /// The insert-path oracle: reservations replayed through
    /// `insert_delta`, the write path every other is pinned to.
    fn oracle_deltas(resv: &[(u64, u64, f64)]) -> Vec<(SimTime, f64)> {
        let mut deltas = Vec::new();
        for &(s, len, a) in resv {
            oracle_reserve(&mut deltas, s, len, a);
        }
        deltas
    }

    fn oracle_reserve(deltas: &mut Vec<(SimTime, f64)>, s: u64, len: u64, a: f64) {
        if a != 0.0 && len > 0 {
            insert_delta(deltas, t(s), a, eps_for(10.0));
            insert_delta(deltas, t(s + len), -a, eps_for(10.0));
        }
    }

    /// Cumulative steps of a delta vector by a fresh left-to-right fold.
    fn fold_steps(deltas: &[(SimTime, f64)]) -> Vec<(SimTime, f64)> {
        let mut usage = 0.0;
        deltas
            .iter()
            .map(|&(bt, d)| {
                usage += d;
                (bt, usage)
            })
            .collect()
    }

    fn bitwise_eq(a: &[(SimTime, f64)], b: &[(SimTime, f64)]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b.iter())
                .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
    }

    /// Every query of `p` against the oracles computed from the
    /// insert-path `deltas`: `sweep` for `earliest_at_most`, a fresh fold
    /// for `usage_at`/`max_over`.
    fn check_queries(
        p: &ResourceProfile,
        deltas: &[(SimTime, f64)],
        (f, du, thr): (u64, u64, f64),
    ) -> Result<(), String> {
        let limit = thr + eps_for(10.0);
        let got = p.earliest_at_most(t(f), d(du), thr);
        let want = sweep(deltas, t(f), d(du), limit);
        prop_assert!(
            got == want,
            "earliest_at_most(from {f}, dur {du}, thr {thr}) = {got}, sweep says {want}"
        );
        let steps = fold_steps(deltas);
        let at = |x: SimTime| {
            steps
                .iter()
                .take_while(|&&(bt, _)| bt <= x)
                .last()
                .map_or(0.0, |&(_, u)| u)
        };
        prop_assert!(
            p.usage_at(t(f)).to_bits() == at(t(f)).to_bits(),
            "usage_at({f}) diverged from the fold"
        );
        let (s, e) = (t(f), t(f + du));
        let max = steps
            .iter()
            .filter(|&&(bt, _)| bt > s && bt < e)
            .fold(at(s), |m, &(_, u)| m.max(u));
        prop_assert!(
            p.max_over(s, e).to_bits() == max.to_bits(),
            "max_over({f}, {}) diverged from the fold",
            f + du
        );
        Ok(())
    }

    props! {
        /// earliest_fit's result actually fits, and no earlier breakpoint-
        /// aligned candidate fits.
        fn prop_earliest_fit_correct(
            resv in prop::vec((0u64..50, 1u64..30, 0.5f64..5.0), 0..12),
            from in 0u64..40,
            dur in 1u64..20,
            amount in 0.5f64..6.0,
        ) {
            let cap = 10.0;
            let mut p = ResourceProfile::new(cap);
            for &(s, len, a) in &resv {
                p.reserve(a, t(s), t(s + len));
            }
            let got = p.earliest_fit(t(from), d(dur), amount);
            if got != SimTime::FAR_FUTURE {
                // It fits at `got`.
                prop_assert!(p.max_over(got, got + d(dur)) <= cap - amount + 1e-6);
                // No earlier candidate among {from} ∪ breakpoints fits.
                let mut candidates = vec![t(from)];
                candidates.extend(p.steps().iter().map(|&(bt, _)| bt));
                for c in candidates {
                    if c >= t(from) && c < got {
                        prop_assert!(
                            p.max_over(c, c + d(dur)) > cap - amount - 1e-6,
                            "earlier candidate {c} fits but earliest_fit returned {got}"
                        );
                    }
                }
            }
        }

        /// Usage is the sum of overlapping reservations at every probe point.
        fn prop_usage_matches_naive(
            resv in prop::vec((0u64..50, 1u64..30, -3.0f64..5.0), 0..12),
            probe in 0u64..100,
        ) {
            let mut p = ResourceProfile::new(10.0);
            let mut naive = 0.0;
            for &(s, len, a) in &resv {
                if a != 0.0 {
                    p.reserve(a, t(s), t(s + len));
                }
                if probe >= s && probe < s + len {
                    naive += a;
                }
            }
            // Tolerance covers both float reassociation and the eps_for
            // zero-drop rule (≤ 1e-8 residues may be dropped at cap 10).
            prop_assert!((p.usage_at(t(probe)) - naive).abs() < 2e-8);
        }

        /// The batched build and the reserve path store bit-identical
        /// breakpoints to the insert path, and every query — interleaved
        /// with reserves, so the fold is extended and cut back at random
        /// watermarks — answers exactly as the oracles over the insert-path
        /// deltas do. Negative amounts and thresholds cover the AT tracker.
        /// Runs under cfg(test), not just debug_assertions, so release CI
        /// exercises the oracles too.
        fn prop_write_paths_bitwise_identical(
            committed in prop::vec((0u64..60, 1u64..30, -3.0f64..5.0), 0..16),
            resv in prop::vec((0u64..60, 1u64..30, -3.0f64..5.0), 0..24),
            probes in prop::vec((0u64..90, 1u64..25, -3.0f64..9.0), 1..8),
        ) {
            let mut oracle = oracle_deltas(&committed);
            let mut p = ResourceProfile::new(10.0);
            for &(s, len, a) in &committed {
                p.stage(a, t(s), t(s + len));
            }
            p.commit_staged();
            prop_assert!(
                bitwise_eq(&p.steps(), &fold_steps(&oracle)),
                "batched build diverged from the insert path"
            );
            let mut probe_iter = probes.iter().copied().cycle();
            for &(s, len, a) in &resv {
                p.reserve(a, t(s), t(s + len));
                oracle_reserve(&mut oracle, s, len, a);
                check_queries(&p, &oracle, probe_iter.next().expect("cycle"))?;
            }
            for &probe in &probes {
                check_queries(&p, &oracle, probe)?;
            }
            prop_assert!(
                bitwise_eq(&p.steps(), &fold_steps(&oracle)),
                "reserve path diverged from the insert path"
            );
        }
    }
}
