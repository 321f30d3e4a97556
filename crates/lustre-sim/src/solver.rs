//! Progressive-filling max-min fair rate allocation.
//!
//! Given a set of flows and a set of capacity constraints (each constraint
//! covers a subset of flows), the allocator raises all flow rates
//! uniformly; when a constraint saturates, its member flows freeze at the
//! current level and filling continues for the rest. The result is the
//! unique max-min fair allocation — the standard fluid approximation for
//! bandwidth sharing in storage/network fabrics.
//!
//! Three implementations live here:
//!
//! * [`max_min_fair`] — the simple reference implementation (kept as the
//!   test oracle and for before/after benchmarking). O(rounds × flows ×
//!   constraints) with linear member scans; allocates freely.
//! * [`IndexedSolver`] — a from-scratch solver over reused buffers.
//!   Per-flow rate caps are folded into a plain clamp instead of
//!   singleton constraints and flow→constraint adjacency is indexed once
//!   per solve. It is [`WarmSolver`]'s bit-identity oracle.
//! * [`WarmSolver`] — the production solver used by
//!   [`crate::LustreSim`]. It keeps the constraint membership alive
//!   across solves, repairs it per stream join/leave, and fills only the
//!   constraints that can bind. A steady-state solve performs no heap
//!   allocations.

/// A capacity constraint over a set of flows (indices into the flow list).
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Total capacity shared by the member flows (≥ 0).
    pub capacity: f64,
    /// Indices of the flows subject to this constraint. Duplicates are
    /// tolerated and count once.
    pub members: Vec<usize>,
}

/// Relative saturation tolerance: a constraint is considered saturated
/// once its residual falls to `EPS · max(capacity, 1)`.
const EPS: f64 = 1e-9;

/// Relative part of [`WarmSolver`]'s slack margin: covers the float
/// rounding a constraint's residual can accumulate over the fill rounds
/// (a few ulps of its capacity per round).
const SLACK_REL: f64 = 1e-6;

/// Absolute part of the slack margin: keeps a sub-unit capacity's
/// residual clear of the saturation floor `EPS · max(capacity, 1)`.
const SLACK_ABS: f64 = 1e3 * EPS;

/// Whether a constraint of `capacity` over `members` flows, each clamped
/// at `cap`, is slack: its members together can never reach it, so it
/// never binds (see [`WarmSolver::solve`]). False for NaN or infinite
/// capacities and for `cap = INFINITY`.
#[inline]
fn is_slack(capacity: f64, members: usize, cap: f64) -> bool {
    let demand = cap * members as f64;
    capacity < f64::INFINITY && capacity > demand + demand * SLACK_REL + SLACK_ABS
}

/// Compute the max-min fair rates for `n_flows` flows under `constraints`
/// (reference implementation — see [`WarmSolver`] for the production path).
///
/// A flow covered by no finite constraint is *released*: it freezes at the
/// level reached when no constraint applies to the remaining flows any
/// more. Duplicate members within one constraint are deduplicated on
/// entry. Returns one rate per flow.
pub fn max_min_fair(n_flows: usize, constraints: &[Constraint]) -> Vec<f64> {
    let mut rate = vec![0.0_f64; n_flows];
    if n_flows == 0 {
        return rate;
    }

    // Dedup members on entry: a flow listed twice in one constraint must
    // count once toward both capacity consumption and the unfrozen count,
    // otherwise the residual math is skewed (the count would start at 2
    // but be decremented once at freeze time).
    let members: Vec<Vec<usize>> = constraints
        .iter()
        .map(|c| {
            let mut m = c.members.clone();
            m.sort_unstable();
            m.dedup();
            m
        })
        .collect();

    let mut frozen = vec![false; n_flows];
    // Per-constraint bookkeeping: remaining capacity after frozen members,
    // and number of unfrozen members.
    let mut residual: Vec<f64> = constraints.iter().map(|c| c.capacity.max(0.0)).collect();
    let mut unfrozen_count: Vec<usize> = members.iter().map(|m| m.len()).collect();

    let mut level = 0.0_f64;
    let mut remaining_flows = n_flows;

    while remaining_flows > 0 {
        // The next level at which some constraint saturates:
        // cap_c = Σ_frozen r + level'·u_c  ⇒  level' = level + residual_c/u_c
        // where residual_c already accounts for frozen members and the
        // *current* level consumed by unfrozen members.
        let mut next_level = f64::INFINITY;
        for (ci, _) in constraints.iter().enumerate() {
            if unfrozen_count[ci] == 0 {
                continue;
            }
            let candidate = level + residual[ci] / unfrozen_count[ci] as f64;
            if candidate < next_level {
                next_level = candidate;
            }
        }
        if !next_level.is_finite() {
            // No finite constraint applies to the remaining flows; release
            // them at the current level.
            for f in 0..n_flows {
                if !frozen[f] {
                    rate[f] = level;
                }
            }
            break;
        }

        let delta = (next_level - level).max(0.0);
        // Consume capacity for the uniform raise.
        for (ci, _) in constraints.iter().enumerate() {
            residual[ci] -= delta * unfrozen_count[ci] as f64;
        }
        level = next_level;

        // Freeze members of all (numerically) saturated constraints.
        let mut to_freeze: Vec<usize> = Vec::new();
        for (ci, c) in constraints.iter().enumerate() {
            if unfrozen_count[ci] > 0 && residual[ci] <= EPS * c.capacity.max(1.0) {
                for &m in &members[ci] {
                    if !frozen[m] {
                        to_freeze.push(m);
                    }
                }
            }
        }
        debug_assert!(
            !to_freeze.is_empty(),
            "progressive filling must freeze at least one flow per round"
        );
        to_freeze.sort_unstable();
        to_freeze.dedup();
        for f in to_freeze {
            frozen[f] = true;
            rate[f] = level;
            remaining_flows -= 1;
            // Remove this flow from every constraint's unfrozen set; its
            // consumption at `level` is already reflected in `residual`.
            for (ci, m) in members.iter().enumerate() {
                if m.contains(&f) {
                    unfrozen_count[ci] -= 1;
                }
            }
        }
    }

    rate
}

/// Indexed progressive-filling solver with reusable scratch buffers.
///
/// Usage per solve: [`IndexedSolver::begin`], then any number of
/// [`IndexedSolver::set_cap`] / [`IndexedSolver::push_constraint`] /
/// [`IndexedSolver::push_constraint_all`] calls, then
/// [`IndexedSolver::solve`]. All internal buffers retain their capacity
/// across solves, so repeated solves of similar size allocate nothing.
///
/// Differences from the reference encoding:
///
/// * per-flow rate caps are a plain clamp (`set_cap`), not singleton
///   constraints — the constraint list stays O(shared resources);
/// * flow→constraint adjacency is built once per solve, so freezing a
///   flow costs O(its constraint count) instead of a scan over every
///   constraint's member list;
/// * iteration order is fixed (flow index, then constraint index), so
///   results are deterministic and no float summation is reordered
///   between runs.
#[derive(Default)]
pub struct IndexedSolver {
    n_flows: usize,
    /// Per-flow rate clamp (≥ 0; `INFINITY` = uncapped).
    cap: Vec<f64>,
    /// Constraint capacities.
    con_cap: Vec<f64>,
    /// Concatenated (deduplicated) member lists.
    members: Vec<u32>,
    /// `con_start[c]..con_start[c+1]` delimits constraint `c`'s members.
    con_start: Vec<u32>,
    /// Flow→constraint adjacency (CSR, built by `solve`).
    flow_start: Vec<u32>,
    flow_cons: Vec<u32>,
    /// Per-flow scratch: dedup stamps during building, then placement
    /// cursors during the adjacency build.
    stamp: Vec<u32>,
    residual: Vec<f64>,
    unfrozen: Vec<u32>,
    frozen: Vec<bool>,
    rate: Vec<f64>,
    /// Flow indices sorted by cap ascending.
    cap_order: Vec<u32>,
    to_freeze: Vec<u32>,
}

impl IndexedSolver {
    /// A solver with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new system of `n_flows` flows, every flow clamped at
    /// `default_cap` (use `f64::INFINITY` for uncapped).
    pub fn begin(&mut self, n_flows: usize, default_cap: f64) {
        self.n_flows = n_flows;
        self.cap.clear();
        self.cap.resize(n_flows, default_cap.max(0.0));
        self.con_cap.clear();
        self.members.clear();
        self.con_start.clear();
        self.con_start.push(0);
        self.stamp.clear();
        self.stamp.resize(n_flows, 0);
    }

    /// Clamp `flow`'s rate at `cap` (tightest clamp wins). NaN is not a
    /// cap.
    pub fn set_cap(&mut self, flow: usize, cap: f64) {
        debug_assert!(!cap.is_nan(), "cap must not be NaN");
        let c = &mut self.cap[flow];
        *c = c.min(cap.max(0.0));
    }

    /// Add a shared-capacity constraint over `member_flows`. Duplicate
    /// members are deduplicated; out-of-range members are a logic error.
    pub fn push_constraint(&mut self, capacity: f64, member_flows: &[u32]) {
        let id = self.con_cap.len() as u32;
        self.con_cap.push(capacity);
        for &m in member_flows {
            debug_assert!((m as usize) < self.n_flows, "member out of range");
            // Stamp with id+1 so a fresh `begin` (stamps zeroed) never
            // aliases constraint 0.
            if self.stamp[m as usize] != id + 1 {
                self.stamp[m as usize] = id + 1;
                self.members.push(m);
            }
        }
        self.con_start.push(self.members.len() as u32);
    }

    /// Add a constraint covering every flow (e.g. a fabric-wide cap).
    pub fn push_constraint_all(&mut self, capacity: f64) {
        self.con_cap.push(capacity);
        self.members.extend(0..self.n_flows as u32);
        self.con_start.push(self.members.len() as u32);
    }

    /// Run progressive filling; returns one rate per flow. Flows covered
    /// by no finite constraint and no finite cap are released at the last
    /// finite level (0 if none).
    pub fn solve(&mut self) -> &[f64] {
        let n = self.n_flows;
        let n_cons = self.con_cap.len();
        self.rate.clear();
        self.rate.resize(n, 0.0);
        if n == 0 {
            return &self.rate;
        }

        // Flow→constraint adjacency by counting sort: degree count,
        // prefix sum, then placement (reusing `stamp` as the cursor).
        self.flow_start.clear();
        self.flow_start.resize(n + 1, 0);
        for &m in &self.members {
            self.flow_start[m as usize + 1] += 1;
        }
        for f in 0..n {
            self.flow_start[f + 1] += self.flow_start[f];
        }
        self.stamp.clear();
        self.stamp.extend_from_slice(&self.flow_start[..n]);
        self.flow_cons.clear();
        self.flow_cons.resize(self.members.len(), 0);
        for c in 0..n_cons {
            for i in self.con_start[c] as usize..self.con_start[c + 1] as usize {
                let m = self.members[i] as usize;
                self.flow_cons[self.stamp[m] as usize] = c as u32;
                self.stamp[m] += 1;
            }
        }

        self.residual.clear();
        self.residual
            .extend(self.con_cap.iter().map(|c| c.max(0.0)));
        self.unfrozen.clear();
        self.unfrozen
            .extend((0..n_cons).map(|c| self.con_start[c + 1] - self.con_start[c]));
        self.frozen.clear();
        self.frozen.resize(n, false);
        self.cap_order.clear();
        self.cap_order.extend(0..n as u32);
        let caps = &self.cap;
        self.cap_order.sort_unstable_by(|&a, &b| {
            caps[a as usize]
                .partial_cmp(&caps[b as usize])
                .expect("caps are not NaN")
        });

        let mut level = 0.0_f64;
        let mut remaining = n;
        let mut cap_ptr = 0usize;

        while remaining > 0 {
            // Next saturation level across constraints…
            let mut next_level = f64::INFINITY;
            for c in 0..n_cons {
                if self.unfrozen[c] > 0 {
                    let candidate = level + self.residual[c] / self.unfrozen[c] as f64;
                    if candidate < next_level {
                        next_level = candidate;
                    }
                }
            }
            // …and across per-flow caps (the folded singleton
            // constraints): the smallest unfrozen cap.
            while cap_ptr < n && self.frozen[self.cap_order[cap_ptr] as usize] {
                cap_ptr += 1;
            }
            if cap_ptr < n {
                next_level = next_level.min(self.cap[self.cap_order[cap_ptr] as usize]);
            }

            if !next_level.is_finite() {
                // Release: nothing finite applies to the remaining flows.
                for f in 0..n {
                    if !self.frozen[f] {
                        self.rate[f] = level;
                    }
                }
                break;
            }

            let delta = (next_level - level).max(0.0);
            for c in 0..n_cons {
                if self.unfrozen[c] > 0 {
                    self.residual[c] -= delta * self.unfrozen[c] as f64;
                }
            }
            level = next_level;

            self.to_freeze.clear();
            // Members of saturated constraints…
            for c in 0..n_cons {
                if self.unfrozen[c] > 0 && self.residual[c] <= EPS * self.con_cap[c].max(1.0) {
                    for i in self.con_start[c] as usize..self.con_start[c + 1] as usize {
                        let m = self.members[i];
                        if !self.frozen[m as usize] {
                            self.to_freeze.push(m);
                        }
                    }
                }
            }
            // …and flows whose cap the level just reached.
            while cap_ptr < n {
                let f = self.cap_order[cap_ptr] as usize;
                if self.frozen[f] {
                    cap_ptr += 1;
                } else if self.cap[f] <= level {
                    self.to_freeze.push(f as u32);
                    cap_ptr += 1;
                } else {
                    break;
                }
            }
            debug_assert!(
                !self.to_freeze.is_empty(),
                "progressive filling must freeze at least one flow per round"
            );
            self.to_freeze.sort_unstable();
            self.to_freeze.dedup();
            for i in 0..self.to_freeze.len() {
                let f = self.to_freeze[i] as usize;
                if self.frozen[f] {
                    continue;
                }
                self.frozen[f] = true;
                self.rate[f] = level.min(self.cap[f]);
                remaining -= 1;
                // O(deg(f)) unfreeze bookkeeping via the adjacency index —
                // this is what replaces the reference's scan over every
                // constraint's member list.
                for a in self.flow_start[f] as usize..self.flow_start[f + 1] as usize {
                    self.unfrozen[self.flow_cons[a] as usize] -= 1;
                }
            }
        }

        &self.rate
    }
}

/// Warm-start progressive-filling solver: a *persistent* constraint
/// system repaired incrementally on flow churn.
///
/// [`IndexedSolver`] rebuilds member lists, the flow→constraint CSR and
/// the cap order from scratch on every solve. In the file-system hot path
/// the constraint *structure* barely changes between solves — a single
/// stream joins or leaves — so `WarmSolver` keeps the membership alive
/// across solves and repairs it in O(degree) per join/leave:
///
/// * each constraint owns a swap-removable member list;
/// * each flow records, with a fixed stride, which constraints it belongs
///   to and *where* in each member list it sits, so removal never scans;
/// * [`WarmSolver::remove_flow_swap`] mirrors the caller's slab
///   `swap_remove`: the last flow is renamed to the removed index.
///
/// `solve` then runs the progressive-filling arithmetic of
/// [`IndexedSolver::solve`] over the repaired sets, restricted to the
/// constraints that can bind (see [`WarmSolver::solve`]). The fill is a pure
/// function of (flow count, uniform cap, constraint sets and capacities)
/// and is independent of constraint order and member order — the next
/// level is a min over order-independent per-constraint candidates, the
/// residual update is per-constraint, and the freeze set is sorted before
/// use — so warm-start results are **bit-identical** to a from-scratch
/// [`IndexedSolver`] build of the same system. [`crate::LustreSim`]
/// debug-asserts exactly that on every solve, and the property suite
/// below pins it on randomized churn sequences.
///
/// Restriction vs [`IndexedSolver`]: all flows share one uniform cap
/// (`default_cap`). That is all the file system needs (the per-stream
/// cap is one config constant) and it removes the per-solve
/// O(n log n) cap-order sort: with a uniform cap the "smallest unfrozen
/// cap" is simply the cap while any flow is unfrozen.
#[derive(Default)]
pub struct WarmSolver {
    n_flows: usize,
    /// Max constraints per flow; slot layout is `flow * stride + k`.
    stride: usize,
    /// Uniform per-flow rate clamp (≥ 0; `INFINITY` = uncapped).
    default_cap: f64,
    /// Constraint capacities (indexed by constraint id).
    con_cap: Vec<f64>,
    /// Per-constraint member lists (unique flows, maintenance order).
    members: Vec<Vec<u32>>,
    /// Flow→constraint adjacency, fixed stride. `flow_pos` is the flow's
    /// position inside the corresponding member list.
    flow_cons: Vec<u32>,
    flow_pos: Vec<u32>,
    flow_deg: Vec<u8>,
    /// Constraints with at least one member, maintained on the 0 ↔ 1
    /// member edges (`active_pos[c]` is the constraint's position in
    /// `active` plus one; 0 = inactive). The fill only ever visits
    /// constraints with unfrozen members — a subset of `active` — so
    /// iterating this list instead of `0..n_cons` makes a solve
    /// O(active constraints), not O(machine size). On a 10k-node
    /// cluster the constraint block holds every node and OST (~47k
    /// slots) while a steady-state solve touches a few hundred.
    active: Vec<u32>,
    active_pos: Vec<u32>,
    // Fill scratch, reused across solves. `residual`/`unfrozen` are
    // sized to the constraint block at `reset` and only the *active*
    // entries are refreshed per solve; inactive entries are stale and
    // unread.
    residual: Vec<f64>,
    unfrozen: Vec<u32>,
    frozen: Vec<bool>,
    rate: Vec<f64>,
    to_freeze: Vec<u32>,
    /// The active constraints that can bind this solve (not slack),
    /// collected by the init pass.
    tight: Vec<u32>,
}

impl WarmSolver {
    /// A solver with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to an empty system of `n_cons` constraints (all flows
    /// removed, capacities zeroed), each flow limited to `stride`
    /// constraint memberships, every flow clamped at `default_cap`.
    /// Member-list capacity survives the reset.
    pub fn reset(&mut self, n_cons: usize, stride: usize, default_cap: f64) {
        assert!(stride > 0 && stride <= u8::MAX as usize);
        self.n_flows = 0;
        self.stride = stride;
        self.default_cap = default_cap.max(0.0);
        self.con_cap.clear();
        self.con_cap.resize(n_cons, 0.0);
        if self.members.len() < n_cons {
            self.members.resize_with(n_cons, Vec::new);
        }
        self.members.truncate(n_cons);
        for m in self.members.iter_mut() {
            m.clear();
        }
        self.flow_cons.clear();
        self.flow_pos.clear();
        self.flow_deg.clear();
        self.active.clear();
        self.active_pos.clear();
        self.active_pos.resize(n_cons, 0);
        self.residual.clear();
        self.residual.resize(n_cons, 0.0);
        self.unfrozen.clear();
        self.unfrozen.resize(n_cons, 0);
    }

    /// Number of constraints in the system.
    pub fn con_count(&self) -> usize {
        self.con_cap.len()
    }

    /// Number of flows currently in the system.
    pub fn flow_count(&self) -> usize {
        self.n_flows
    }

    /// Set constraint `c`'s capacity (effective at the next solve).
    pub fn set_con_cap(&mut self, c: usize, capacity: f64) {
        debug_assert!(!capacity.is_nan(), "capacity must not be NaN");
        self.con_cap[c] = capacity;
    }

    /// Add a flow as member of the (distinct) constraints `cons`; returns
    /// its index, always the current [`Self::flow_count`].
    pub fn add_flow(&mut self, cons: &[u32]) -> u32 {
        debug_assert!(cons.len() <= self.stride, "flow degree exceeds stride");
        debug_assert!(
            cons.iter()
                .all(|&c| cons.iter().filter(|&&d| d == c).count() == 1),
            "constraint memberships must be distinct"
        );
        let f = self.n_flows as u32;
        self.flow_cons.resize(self.flow_cons.len() + self.stride, 0);
        self.flow_pos.resize(self.flow_pos.len() + self.stride, 0);
        for (k, &c) in cons.iter().enumerate() {
            let list = &mut self.members[c as usize];
            self.flow_cons[f as usize * self.stride + k] = c;
            self.flow_pos[f as usize * self.stride + k] = list.len() as u32;
            let first_member = list.is_empty();
            list.push(f);
            if first_member {
                self.active_pos[c as usize] = self.active.len() as u32 + 1;
                self.active.push(c);
            }
        }
        self.flow_deg.push(cons.len() as u8);
        self.n_flows += 1;
        f
    }

    /// Remove flow `f`, renaming the last flow to index `f` (mirror a
    /// caller-side slab `swap_remove`).
    pub fn remove_flow_swap(&mut self, f: u32) {
        let f = f as usize;
        debug_assert!(f < self.n_flows, "flow out of range");
        // Detach `f` from its constraints; a swap_remove on a member list
        // moves one other flow, whose recorded position must be patched.
        for k in 0..self.flow_deg[f] as usize {
            let c = self.flow_cons[f * self.stride + k] as usize;
            let p = self.flow_pos[f * self.stride + k] as usize;
            let list = &mut self.members[c];
            list.swap_remove(p);
            if p < list.len() {
                let moved = list[p] as usize;
                for j in 0..self.flow_deg[moved] as usize {
                    if self.flow_cons[moved * self.stride + j] as usize == c {
                        self.flow_pos[moved * self.stride + j] = p as u32;
                        break;
                    }
                }
            } else if list.is_empty() {
                // Last member gone: delist the constraint.
                let slot = (self.active_pos[c] - 1) as usize;
                self.active.swap_remove(slot);
                self.active_pos[c] = 0;
                if let Some(&moved_con) = self.active.get(slot) {
                    self.active_pos[moved_con as usize] = slot as u32 + 1;
                }
            }
        }
        // Rename the last flow to `f`.
        let last = self.n_flows - 1;
        if f != last {
            for k in 0..self.flow_deg[last] as usize {
                let c = self.flow_cons[last * self.stride + k] as usize;
                let p = self.flow_pos[last * self.stride + k] as usize;
                self.members[c][p] = f as u32;
                self.flow_cons[f * self.stride + k] = c as u32;
                self.flow_pos[f * self.stride + k] = p as u32;
            }
            self.flow_deg[f] = self.flow_deg[last];
        }
        self.flow_deg.pop();
        self.flow_cons.truncate(last * self.stride);
        self.flow_pos.truncate(last * self.stride);
        self.n_flows = last;
    }

    /// Run progressive filling over the current system; returns one rate
    /// per flow. Results match [`IndexedSolver::solve`] on the same sets
    /// bit for bit.
    ///
    /// Cost is O(active constraints) once, plus O(tight constraints ×
    /// fill rounds), never O(constraint block). The init pass walks the
    /// maintained `active` list (a memberless constraint has zero
    /// unfrozen members, so the reference loops skipped it anyway) and
    /// sorts it into *slack* and *tight* constraints; the per-round loops
    /// then walk only `tight`. Each round's arithmetic is
    /// order-independent (the next level is a `min` over per-constraint
    /// candidates, residual updates are per-constraint, and the freeze
    /// set is sorted before use), so visiting any subset that contains
    /// every constraint able to affect a round gives bit-identical rates.
    ///
    /// **Slack filter.** A constraint of capacity `C` over `m` members is
    /// slack when `C` is finite and exceeds `cap · m` by the margin
    /// `SLACK_REL · cap · m + SLACK_ABS` (see `is_slack`). The level
    /// never exceeds `cap` (it is `min`-ed with it every round) and no
    /// rate exceeds the level, so a slack constraint's residual stays
    /// above `C − cap · m`, i.e. above the margin, less the float
    /// rounding of the rounds, which the relative part covers. Hence its
    /// candidate level `level + residual / unfrozen` stays above `cap`,
    /// so dropping it never changes the round's `min`, and its residual
    /// stays above the saturation floor `EPS · max(C, 1)` (the absolute
    /// part covers sub-unit capacities), so it never joins a freeze set.
    /// NaN and infinite capacities, and `cap = INFINITY`, always classify
    /// as tight, so they are filled exactly as `IndexedSolver` fills them.
    /// Debug builds check that every slack constraint ends strictly below
    /// capacity.
    ///
    /// **Cap-round exit.** Once the next level reaches `cap`, every
    /// unfrozen flow, saturated constraint member or not, would freeze at
    /// `level.min(cap)` in that round. The rate is assigned directly and
    /// the fill stops, skipping that round's freeze-set build.
    pub fn solve(&mut self) -> &[f64] {
        let n = self.n_flows;
        self.rate.clear();
        self.rate.resize(n, 0.0);
        if n == 0 {
            return &self.rate;
        }

        debug_assert_eq!(
            self.active.len(),
            self.members.iter().filter(|m| !m.is_empty()).count(),
            "active-constraint list out of sync with the member lists"
        );
        let cap = self.default_cap;
        self.tight.clear();
        for k in 0..self.active.len() {
            let c = self.active[k] as usize;
            let m = self.members[c].len();
            self.residual[c] = self.con_cap[c].max(0.0);
            self.unfrozen[c] = m as u32;
            if !is_slack(self.con_cap[c], m, cap) {
                self.tight.push(c as u32);
            }
        }
        self.frozen.clear();
        self.frozen.resize(n, false);

        let mut level = 0.0_f64;
        let mut remaining = n;

        while remaining > 0 {
            // Next saturation level across constraints…
            let mut next_level = f64::INFINITY;
            for &c in &self.tight {
                let c = c as usize;
                if self.unfrozen[c] > 0 {
                    let candidate = level + self.residual[c] / self.unfrozen[c] as f64;
                    if candidate < next_level {
                        next_level = candidate;
                    }
                }
            }
            // …and the uniform cap (the smallest unfrozen cap, as long as
            // any flow is unfrozen — which `remaining > 0` guarantees).
            next_level = next_level.min(cap);

            if !next_level.is_finite() {
                // Release: nothing finite applies to the remaining flows.
                for f in 0..n {
                    if !self.frozen[f] {
                        self.rate[f] = level;
                    }
                }
                break;
            }
            if cap <= next_level {
                // Cap round: every unfrozen flow freezes at the cap.
                for f in 0..n {
                    if !self.frozen[f] {
                        self.rate[f] = next_level.min(cap);
                    }
                }
                break;
            }

            let delta = (next_level - level).max(0.0);
            for &c in &self.tight {
                let c = c as usize;
                if self.unfrozen[c] > 0 {
                    self.residual[c] -= delta * self.unfrozen[c] as f64;
                }
            }
            level = next_level;

            // Members of saturated constraints freeze at the level.
            self.to_freeze.clear();
            for &c in &self.tight {
                let c = c as usize;
                if self.unfrozen[c] > 0 && self.residual[c] <= EPS * self.con_cap[c].max(1.0) {
                    for &m in &self.members[c] {
                        if !self.frozen[m as usize] {
                            self.to_freeze.push(m);
                        }
                    }
                }
            }
            debug_assert!(
                !self.to_freeze.is_empty(),
                "progressive filling must freeze at least one flow per round"
            );
            self.to_freeze.sort_unstable();
            self.to_freeze.dedup();
            for i in 0..self.to_freeze.len() {
                let f = self.to_freeze[i] as usize;
                if self.frozen[f] {
                    continue;
                }
                self.frozen[f] = true;
                self.rate[f] = level.min(cap);
                remaining -= 1;
                for k in 0..self.flow_deg[f] as usize {
                    self.unfrozen[self.flow_cons[f * self.stride + k] as usize] -= 1;
                }
            }
        }

        #[cfg(debug_assertions)]
        for &c in &self.active {
            let c = c as usize;
            let members = &self.members[c];
            if is_slack(self.con_cap[c], members.len(), cap) {
                let used: f64 = members.iter().map(|&m| self.rate[m as usize]).sum();
                debug_assert!(
                    used < self.con_cap[c],
                    "slack constraint {c} reached its capacity: {used} of {}",
                    self.con_cap[c]
                );
            }
        }

        &self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched_simkit::{prop, prop_assert, props};

    fn c(capacity: f64, members: &[usize]) -> Constraint {
        Constraint {
            capacity,
            members: members.to_vec(),
        }
    }

    /// Solve the same system with the indexed solver, encoding singleton
    /// constraints as caps and everything else as shared constraints.
    fn solve_indexed(
        n_flows: usize,
        caps: &[(usize, f64)],
        constraints: &[Constraint],
    ) -> Vec<f64> {
        let mut s = IndexedSolver::new();
        s.begin(n_flows, f64::INFINITY);
        for &(f, cap) in caps {
            s.set_cap(f, cap);
        }
        let mut buf: Vec<u32> = Vec::new();
        for con in constraints {
            buf.clear();
            buf.extend(con.members.iter().map(|&m| m as u32));
            s.push_constraint(con.capacity, &buf);
        }
        s.solve().to_vec()
    }

    /// Solve `w` and a from-scratch [`IndexedSolver`] build of the system
    /// `mirror` describes (flow → its constraints, in warm index order)
    /// and require bit-identical rates.
    fn warm_matches_indexed(
        w: &mut WarmSolver,
        mirror: &[Vec<u32>],
        full: &mut IndexedSolver,
    ) -> Result<(), String> {
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); w.con_count()];
        for (f, cs) in mirror.iter().enumerate() {
            for &c in cs {
                members[c as usize].push(f as u32);
            }
        }
        full.begin(mirror.len(), w.default_cap);
        for (c, m) in members.iter().enumerate() {
            full.push_constraint(w.con_cap[c], m);
        }
        let expect = full.solve().to_vec();
        let got = w.solve().to_vec();
        prop_assert!(expect.len() == got.len());
        for f in 0..expect.len() {
            prop_assert!(
                expect[f].to_bits() == got[f].to_bits(),
                "flow {f}: from-scratch {} vs warm {} (caps {:?}, cap {})",
                expect[f],
                got[f],
                w.con_cap,
                w.default_cap
            );
        }
        Ok(())
    }

    /// Join a flow with 0..=3 distinct random constraints, or remove a
    /// random one, mirroring the membership in `mirror`.
    fn churn_step(
        w: &mut WarmSolver,
        mirror: &mut Vec<Vec<u32>>,
        next: &mut impl FnMut() -> usize,
    ) {
        let n_cons = w.con_count();
        if mirror.is_empty() || !next().is_multiple_of(3) {
            // Degree 0 exercises the release path under an infinite cap.
            let mut cons: Vec<u32> = Vec::new();
            let deg = next() % 4;
            while cons.len() < deg.min(n_cons) {
                let c = (next() % n_cons) as u32;
                if !cons.contains(&c) {
                    cons.push(c);
                }
            }
            let f = w.add_flow(&cons);
            assert_eq!(f as usize, mirror.len());
            mirror.push(cons);
        } else {
            let f = next() % mirror.len();
            w.remove_flow_swap(f as u32);
            mirror.swap_remove(f);
        }
    }

    #[test]
    fn single_constraint_splits_evenly() {
        let rates = max_min_fair(4, &[c(8.0, &[0, 1, 2, 3])]);
        assert_eq!(rates, vec![2.0; 4]);
        let rates = solve_indexed(4, &[], &[c(8.0, &[0, 1, 2, 3])]);
        assert_eq!(rates, vec![2.0; 4]);
    }

    #[test]
    fn per_flow_caps_respected() {
        // Flow 0 capped at 1, the shared pipe of 10 is then split so flow 0
        // gets 1 and flows 1,2 get 4.5 each.
        let rates = max_min_fair(
            3,
            &[
                c(10.0, &[0, 1, 2]),
                c(1.0, &[0]),
                c(100.0, &[1]),
                c(100.0, &[2]),
            ],
        );
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 4.5).abs() < 1e-9);
        assert!((rates[2] - 4.5).abs() < 1e-9);

        let rates = solve_indexed(
            3,
            &[(0, 1.0), (1, 100.0), (2, 100.0)],
            &[c(10.0, &[0, 1, 2])],
        );
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 4.5).abs() < 1e-9);
        assert!((rates[2] - 4.5).abs() < 1e-9);
    }

    #[test]
    fn classic_three_link_example() {
        // Textbook max-min: flows A(0) on link1+link2, B(1) on link1,
        // C(2) on link2. link1 cap 10, link2 cap 4.
        // Fair: level rises to 2 → link2 saturates, freezes A and C at 2;
        // B continues to 10-2=8.
        let constraints = [c(10.0, &[0, 1]), c(4.0, &[0, 2])];
        for rates in [
            max_min_fair(3, &constraints),
            solve_indexed(3, &[], &constraints),
        ] {
            assert!((rates[0] - 2.0).abs() < 1e-9);
            assert!((rates[2] - 2.0).abs() < 1e-9);
            assert!((rates[1] - 8.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_capacity_gives_zero_rate() {
        let rates = max_min_fair(2, &[c(0.0, &[0]), c(5.0, &[0, 1])]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 5.0).abs() < 1e-9);
        let rates = solve_indexed(2, &[(0, 0.0)], &[c(5.0, &[0, 1])]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        assert!(max_min_fair(0, &[]).is_empty());
        assert!(solve_indexed(0, &[], &[]).is_empty());
    }

    #[test]
    fn duplicate_members_count_once() {
        // Regression: a flow listed twice in one constraint used to
        // inflate `unfrozen_count` by 2 while being decremented once at
        // freeze time, skewing the residual split for the others.
        let dup = [
            Constraint {
                capacity: 9.0,
                members: vec![0, 0, 1, 2],
            },
            c(100.0, &[0]),
            c(100.0, &[1]),
            c(100.0, &[2]),
        ];
        let rates = max_min_fair(3, &dup);
        for r in &rates {
            assert!((r - 3.0).abs() < 1e-9, "even three-way split: {rates:?}");
        }
        let rates = solve_indexed(
            3,
            &[],
            &[Constraint {
                capacity: 9.0,
                members: vec![0, 0, 1, 2],
            }],
        );
        for r in &rates {
            assert!((r - 3.0).abs() < 1e-9, "even three-way split: {rates:?}");
        }
    }

    #[test]
    fn uncovered_flows_release_at_last_level() {
        // Flow 1 is covered by nothing finite: it freezes at the level
        // reached when every covered flow froze (4.0 here).
        let rates = max_min_fair(2, &[c(4.0, &[0])]);
        assert!((rates[0] - 4.0).abs() < 1e-9);
        assert!((rates[1] - 4.0).abs() < 1e-9);
        let rates = solve_indexed(2, &[], &[c(4.0, &[0])]);
        assert!((rates[0] - 4.0).abs() < 1e-9);
        assert!((rates[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn warm_solver_basic_systems_match_reference() {
        // Classic three-link example via the warm interface.
        let mut w = WarmSolver::new();
        w.reset(2, 2, f64::INFINITY);
        w.set_con_cap(0, 10.0);
        w.set_con_cap(1, 4.0);
        w.add_flow(&[0, 1]); // A on both links
        w.add_flow(&[0]); // B on link 1
        w.add_flow(&[1]); // C on link 2
        let rates = w.solve();
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9);
        assert!((rates[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn warm_solver_swap_remove_renames_last_flow() {
        let mut w = WarmSolver::new();
        w.reset(2, 2, f64::INFINITY);
        w.set_con_cap(0, 6.0);
        w.set_con_cap(1, 100.0);
        w.add_flow(&[0]); // flow 0
        w.add_flow(&[0, 1]); // flow 1
        w.add_flow(&[1]); // flow 2
                          // Remove flow 0: flow 2 is renamed to index 0.
        w.remove_flow_swap(0);
        assert_eq!(w.flow_count(), 2);
        let rates = w.solve().to_vec();
        // Remaining system: old flow 2 (con 1 only) and old flow 1
        // (cons 0+1). Con 0 has one member → that flow gets 6; the other
        // continues to 100-6=94.
        assert!((rates[1] - 6.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[0] - 94.0).abs() < 1e-9, "{rates:?}");
        // Membership repair stayed consistent: re-removing the renamed
        // flow empties the system cleanly.
        w.remove_flow_swap(0);
        w.remove_flow_swap(0);
        assert_eq!(w.flow_count(), 0);
        assert!(w.members.iter().all(|m| m.is_empty()));
        assert!(w.solve().is_empty());
    }

    #[test]
    fn indexed_solver_reuses_buffers_across_solves() {
        let mut s = IndexedSolver::new();
        for round in 0..3u32 {
            s.begin(4, 2.0 + round as f64);
            s.push_constraint(40.0, &[0, 1]);
            s.push_constraint_all(100.0);
            let rates = s.solve();
            assert_eq!(rates.len(), 4);
            for &r in rates {
                assert!((r - (2.0 + round as f64)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn warm_cap_round_gives_every_flow_the_cap_when_nothing_binds() {
        // Node caps 5.0 over two flows each, single-flow OSTs at 0.9 and a wide
        // fabric: every constraint is slack, the first round is the cap
        // round, and every flow gets exactly the cap.
        let cap = 0.45;
        let mut w = WarmSolver::new();
        w.reset(2 + 4 + 1, 3, cap);
        w.set_con_cap(0, 5.0);
        w.set_con_cap(1, 5.0);
        for o in 0..4 {
            w.set_con_cap(2 + o, 0.9);
        }
        w.set_con_cap(6, 22.0);
        let mut mirror: Vec<Vec<u32>> = Vec::new();
        for i in 0..4u32 {
            let cons = vec![i % 2, 2 + i, 6];
            w.add_flow(&cons);
            mirror.push(cons);
        }
        let rates = w.solve().to_vec();
        assert!(w.tight.is_empty(), "tight: {:?}", w.tight);
        assert!(
            rates.iter().all(|r| r.to_bits() == cap.to_bits()),
            "{rates:?}"
        );
        warm_matches_indexed(&mut w, &mirror, &mut IndexedSolver::new()).unwrap();

        // A constraint sitting exactly at `cap × members` is tight but
        // reaches its capacity only in the cap round: still the cap.
        w.set_con_cap(6, cap * 4.0);
        let rates = w.solve().to_vec();
        assert_eq!(w.tight, vec![6]);
        assert!(
            rates.iter().all(|r| r.to_bits() == cap.to_bits()),
            "{rates:?}"
        );
        warm_matches_indexed(&mut w, &mirror, &mut IndexedSolver::new()).unwrap();
    }

    #[test]
    fn warm_mixed_binding_constraint_and_cap_round() {
        // The wide-machine shape: single-flow nodes and OSTs (slack), one
        // OST shared by two flows whose interference-degraded capacity
        // binds below the cap, and a slack fabric. The doubled OST is the
        // only tight constraint; its flows freeze at half its capacity and
        // the cap round gives everyone else the cap.
        let cap = 0.45;
        let doubled = 0.9 / 1.3;
        let n = 6u32;
        let mut w = WarmSolver::new();
        let n_cons = (n + n + 1) as usize;
        w.reset(n_cons, 3, cap);
        for c in 0..n as usize {
            w.set_con_cap(c, 5.0);
            w.set_con_cap(n as usize + c, 0.9);
        }
        w.set_con_cap(n as usize, doubled);
        w.set_con_cap(n_cons - 1, 22.0);
        let mut mirror: Vec<Vec<u32>> = Vec::new();
        for i in 0..n {
            // Flows 0 and 1 share OST 0.
            let ost = n + i.saturating_sub(1);
            let cons = vec![i, ost, n_cons as u32 - 1];
            w.add_flow(&cons);
            mirror.push(cons);
        }
        let rates = w.solve().to_vec();
        assert_eq!(w.tight, vec![n]);
        assert_eq!(rates[0].to_bits(), rates[1].to_bits());
        assert!((rates[0] - doubled / 2.0).abs() < 1e-12, "{rates:?}");
        assert!(
            rates[2..].iter().all(|r| r.to_bits() == cap.to_bits()),
            "{rates:?}"
        );
        warm_matches_indexed(&mut w, &mirror, &mut IndexedSolver::new()).unwrap();
    }

    #[test]
    fn slack_classification_edge_cases() {
        assert!(is_slack(5.0, 3, 0.45));
        assert!(!is_slack(0.45 * 3.0, 3, 0.45), "exactly at demand");
        assert!(!is_slack(f64::NAN, 1, 0.45), "NaN capacity");
        assert!(!is_slack(f64::INFINITY, 1, 0.45), "infinite capacity");
        assert!(!is_slack(1e300, 1, f64::INFINITY), "uncapped flows");
        assert!(
            !is_slack(1e-7, 1, 0.0),
            "sub-unit: inside the absolute margin"
        );
        assert!(is_slack(1e-5, 1, 0.0));
    }

    props! {
        /// No constraint is ever violated, and no flow can be raised
        /// without lowering a flow with a smaller-or-equal rate
        /// (max-min optimality witness: every flow has a saturated
        /// constraint, or has the globally maximal rate).
        fn prop_feasible_and_maxmin(
            n_flows in 1usize..12,
            caps in prop::vec(0.1f64..100.0, 1..8),
            seed in 0u64..1000,
        ) {
            // Build random constraints, then one catch-all to cover flows.
            let mut constraints: Vec<Constraint> = Vec::new();
            let mut s = seed;
            let mut next = || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); (s >> 33) as usize };
            for &cap in &caps {
                let mut members: Vec<usize> = (0..n_flows).filter(|_| next() % 2 == 0).collect();
                if members.is_empty() { members.push(next() % n_flows); }
                constraints.push(Constraint { capacity: cap, members });
            }
            constraints.push(Constraint { capacity: 1000.0, members: (0..n_flows).collect() });

            let rates = max_min_fair(n_flows, &constraints);

            // Feasibility.
            for c in &constraints {
                let used: f64 = c.members.iter().map(|&m| rates[m]).sum();
                prop_assert!(used <= c.capacity + 1e-6, "constraint violated: {used} > {}", c.capacity);
            }
            // Non-negativity.
            for &r in &rates { prop_assert!(r >= 0.0); }
            // Max-min witness: every flow is in some ~saturated constraint.
            for f in 0..n_flows {
                let has_tight = constraints.iter().any(|c| {
                    c.members.contains(&f) && {
                        let used: f64 = c.members.iter().map(|&m| rates[m]).sum();
                        used >= c.capacity - 1e-6 * c.capacity.max(1.0)
                    }
                });
                prop_assert!(has_tight, "flow {f} has headroom everywhere");
            }
        }

        /// The indexed solver matches the reference oracle on randomized
        /// systems with duplicate members, zero capacities, per-flow caps
        /// and (optionally) uncovered flows.
        fn prop_indexed_matches_reference(
            n_flows in 1usize..24,
            n_cons in 0usize..8,
            seed in 0u64..4000,
        ) {
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) as usize
            };

            // Random shared constraints; members may repeat (dup case)
            // and flows may end up uncovered (release case).
            let mut constraints: Vec<Constraint> = Vec::new();
            for _ in 0..n_cons {
                let len = 1 + next() % (n_flows * 2);
                let members: Vec<usize> = (0..len).map(|_| next() % n_flows).collect();
                // Mix of zero and positive capacities.
                let capacity = match next() % 8 {
                    0 => 0.0,
                    k => (k * (1 + next() % 25)) as f64 / 4.0,
                };
                constraints.push(Constraint { capacity, members });
            }
            // Per-flow caps on a random subset of flows. Uncapped +
            // uncovered flows exercise the release path in both solvers.
            let mut caps: Vec<(usize, f64)> = Vec::new();
            for f in 0..n_flows {
                if next() % 3 != 0 {
                    caps.push((f, (next() % 400) as f64 / 10.0));
                }
            }

            // Reference encoding: caps become singleton constraints.
            let mut ref_constraints = constraints.clone();
            for &(f, cap) in &caps {
                ref_constraints.push(Constraint { capacity: cap, members: vec![f] });
            }

            let expect = max_min_fair(n_flows, &ref_constraints);
            let got = solve_indexed(n_flows, &caps, &constraints);

            for f in 0..n_flows {
                let tol = 1e-9 * expect[f].abs().max(1.0);
                prop_assert!(
                    (expect[f] - got[f]).abs() <= tol,
                    "flow {f}: reference {} vs indexed {} (tol {tol})",
                    expect[f],
                    got[f]
                );
            }
        }

        /// Warm-start repair under join/leave churn stays **bit-identical**
        /// to a from-scratch `IndexedSolver` build of the same system —
        /// the invariant `LustreSim` debug-asserts on every solve.
        fn prop_warm_churn_matches_indexed_exactly(
            n_cons in 1usize..10,
            n_ops in 1usize..50,
            cap_sel in 0usize..4,
            seed in 0u64..1500,
        ) {
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) as usize
            };
            // Uniform cap: sometimes uncapped, sometimes tight.
            let cap = if cap_sel == 0 { f64::INFINITY } else { (cap_sel * 7) as f64 / 2.0 };

            let mut w = WarmSolver::new();
            w.reset(n_cons, 3, cap);
            for c in 0..n_cons {
                let v = match next() % 6 {
                    0 => 0.0,
                    k => (k * (1 + next() % 20)) as f64 / 3.0,
                };
                w.set_con_cap(c, v);
            }

            // Mirror of each flow's memberships (in warm index order, so
            // removals replay the same swap_remove renaming).
            let mut mirror: Vec<Vec<u32>> = Vec::new();
            let mut full = IndexedSolver::new();
            for _ in 0..n_ops {
                churn_step(&mut w, &mut mirror, &mut next);
                // Occasionally refresh a capacity (epoch-style).
                if next() % 4 == 0 {
                    let c = next() % n_cons;
                    w.set_con_cap(c, (next() % 50) as f64 / 3.0);
                }
                warm_matches_indexed(&mut w, &mirror, &mut full)?;
            }
        }

        /// The slack filter at its boundary: under join/leave churn,
        /// every constraint's capacity is re-drawn before each solve at or
        /// near `cap × |members|` — exactly on it, ±1 ulp, ±k·1e-7
        /// relative, ±1 ulp around the filter's own threshold, within the
        /// absolute margin (sub-unit caps near the `EPS` floor), zero or
        /// infinite — with uncapped, zero and sub-unit uniform caps too.
        /// The warm rates must stay bit-identical to a from-scratch build
        /// (and, in debug builds, every slack constraint must end below
        /// capacity).
        fn prop_warm_slack_boundary_matches_indexed_exactly(
            n_cons in 1usize..8,
            n_ops in 1usize..40,
            cap_sel in 0usize..7,
            seed in 0u64..1_000_000,
        ) {
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) as usize
            };
            let cap = [f64::INFINITY, 0.0, 0.45, 3.5, 4.831_838_208e8, 1e-9, 2.5e-10][cap_sel];
            let mut w = WarmSolver::new();
            w.reset(n_cons, 3, cap);
            let mut mirror: Vec<Vec<u32>> = Vec::new();
            let mut full = IndexedSolver::new();
            for _ in 0..n_ops {
                churn_step(&mut w, &mut mirror, &mut next);
                for c in 0..n_cons {
                    let demand = cap * w.members[c].len() as f64;
                    let threshold = demand + demand * SLACK_REL + SLACK_ABS;
                    let k = (1 + next() % 20) as f64;
                    let v = match next() % 11 {
                        0 => demand,
                        1 => demand.next_up(),
                        2 => demand.next_down(),
                        3 => demand * (1.0 + k * 1e-7),
                        4 => demand * (1.0 - k * 1e-7),
                        5 => threshold.next_up(),
                        6 => threshold.next_down(),
                        7 => demand + (next() % 2002) as f64 * EPS / 2.0,
                        8 => 0.0,
                        9 => f64::INFINITY,
                        _ => (next() % 50) as f64 / 3.0,
                    };
                    // `INFINITY × 0 members` is NaN, which is not a
                    // capacity; such a constraint is memberless anyway.
                    w.set_con_cap(c, if v.is_nan() { 0.0 } else { v });
                }
                warm_matches_indexed(&mut w, &mirror, &mut full)?;
            }
        }
    }
}
