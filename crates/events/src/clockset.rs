//! The static clock-tick scheduler: the O(1), allocation-free fast path for
//! purely periodic event sets.
//!
//! The general [`Engine`](crate::Engine) pays a heap pop, a re-push of a
//! boxed handler and a cancellation probe on **every simulated clock edge**.
//! For the workload that dominates this repository — five free-running
//! domain clocks and nothing else — none of that machinery is needed: the
//! classic calendar-queue/timing-wheel observation is that a fixed set of
//! periodic clocks admits a constant-time scheduler with no queue at all.
//!
//! [`ClockSet`] keeps one `(next_edge, period, priority)` record per clock
//! in a fixed inline array and advances by a min-scan over at most
//! [`MAX_CLOCKS`] entries. The records are kept in **priority order** (a
//! slot↔position permutation, set up by [`ClockSet::add_clock`], maps the
//! caller's slot numbers onto them), so the scan compares one `Time` per
//! entry and the first minimum it meets is the `(time, priority)` winner.
//! There is no allocation after construction, no dynamic dispatch, and no
//! cancellation bookkeeping; the caller decides when to stop ticking.
//!
//! Edge ordering matches the engine's `(time, priority)` order. The
//! two-scheduler contract requires every clock to carry a **distinct
//! priority** (how the pipeline registers its five domains) — then the edge
//! sequence is identical to `Engine::schedule_periodic`, a property pinned
//! by a differential test in `tests/properties.rs`. Duplicate priorities
//! would silently diverge the two schedulers (slot order here, insertion
//! sequence there), so [`ClockSet::add_clock`] rejects them with a debug
//! assertion.
//!
//! ## Stretchable (pausible) clocks
//!
//! [`ClockSet::stretch`] delays a clock's next edge by a one-shot amount —
//! the simulator's model of a pausible clock whose ring oscillator is held
//! by an arbiter while an inter-domain handshake completes. The stretch
//! targets the first edge *strictly after* the current time; an edge at
//! exactly `now` that is still pending (mid-batch) fires unstretched and the
//! request is deferred to the edge after it, which is exactly the lazy
//! semantics of [`Engine::stretch`](crate::Engine::stretch) — so the
//! differential contract extends to stretched clocks.
//!
//! # Examples
//!
//! ```
//! use gals_events::{ClockSet, Time};
//!
//! // The paper's Figure 4 clocks: periods 2 ns, 3 ns, 2.5 ns.
//! let mut clocks = ClockSet::new();
//! clocks.add_clock(Time::from_ps(500), Time::from_ns(2), 0);
//! clocks.add_clock(Time::from_ns(1), Time::from_ns(3), 1);
//! clocks.add_clock(Time::ZERO, Time::from_ps(2500), 2);
//! let mut edges = 0;
//! while let Some((t, _slot)) = clocks.peek() {
//!     if t >= Time::from_ns(8) {
//!         break;
//!     }
//!     clocks.tick();
//!     edges += 1;
//! }
//! assert_eq!(edges, 11);
//! ```

use crate::engine::Priority;
use crate::time::Time;

/// Maximum number of clocks in one [`ClockSet`]. The pipeline needs five;
/// the headroom is for experiments with extra observer clocks.
pub const MAX_CLOCKS: usize = 8;

#[derive(Debug, Clone, Copy)]
struct ClockEntry {
    /// Absolute time of the next edge.
    next: Time,
    period: Time,
    priority: Priority,
}

const IDLE: ClockEntry = ClockEntry {
    // An empty position never wins the min-scan.
    next: Time::MAX,
    period: Time::MAX,
    priority: Priority::MAX,
};

/// A fixed set of free-running periodic clocks dispatched in
/// `(time, priority)` order with no per-edge allocation.
///
/// See the [crate docs](crate) for the design rationale and the ordering
/// contract relative to [`Engine`](crate::Engine).
///
/// Every per-clock array is indexed by **position** — the clock's rank in
/// ascending priority order — not by the slot number the caller sees, so
/// the min-scan needs one `Time` compare per entry: the first (lowest
/// position, hence highest-priority) minimum wins a tie. `slot_at` and
/// `pos_of` translate between the two numberings at the API boundary.
#[derive(Debug, Clone)]
pub struct ClockSet {
    entries: [ClockEntry; MAX_CLOCKS],
    /// Stretch requested while the target's edge at `now` was still
    /// pending; applied when that edge dispatches (see [`ClockSet::stretch`]).
    deferred: [Time; MAX_CLOCKS],
    /// The real next-edge time of a parked clock (its entry holds
    /// [`Time::MAX`] so the min-scan skips it); see [`ClockSet::park`].
    shadow_next: [Time; MAX_CLOCKS],
    /// Park flags per position.
    parked: [bool; MAX_CLOCKS],
    /// Uniform-period rotation fast path (see [`ClockSet::enable_uniform`]):
    /// unparked positions in dispatch order. With every clock sharing one
    /// period, the `(time, priority)` dispatch order within a cycle is a
    /// fixed rotation — no min-scan needed per edge.
    rot: [u8; MAX_CLOCKS],
    rot_len: u8,
    rot_pos: u8,
    uniform: bool,
    /// Edges of a position to silently elide in rotation mode (the
    /// caller's [`ClockSet::skip`] fast-forward); the general path advances
    /// `next` directly instead.
    skip_credit: [u64; MAX_CLOCKS],
    /// The caller's slot number of each position.
    slot_at: [u8; MAX_CLOCKS],
    /// The position of each slot.
    pos_of: [u8; MAX_CLOCKS],
    len: usize,
    now: Time,
    edges: u64,
}

impl Default for ClockSet {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockSet {
    /// An empty clock set with the timer at [`Time::ZERO`].
    pub fn new() -> Self {
        ClockSet {
            entries: [IDLE; MAX_CLOCKS],
            deferred: [Time::ZERO; MAX_CLOCKS],
            shadow_next: [Time::MAX; MAX_CLOCKS],
            parked: [false; MAX_CLOCKS],
            rot: [0; MAX_CLOCKS],
            rot_len: 0,
            rot_pos: 0,
            uniform: false,
            skip_credit: [0; MAX_CLOCKS],
            slot_at: [0; MAX_CLOCKS],
            pos_of: [0; MAX_CLOCKS],
            len: 0,
            now: Time::ZERO,
            edges: 0,
        }
    }

    /// Registers a clock whose first edge is at `phase` and which then fires
    /// every `period`. Returns the clock's slot index (reported back by
    /// [`ClockSet::tick`] and the batch dispatchers): slots number clocks
    /// in registration order, whatever their priorities.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, the set already holds [`MAX_CLOCKS`]
    /// clocks, or `priority` is already held by another clock: duplicate
    /// priorities silently diverge the ClockSet-vs-Engine ordering contract
    /// (see the module docs), so the violation is made loud — in every build
    /// profile — where it is introduced, before any simulation runs on the
    /// mis-configured set.
    pub fn add_clock(&mut self, phase: Time, period: Time, priority: Priority) -> usize {
        assert!(period > Time::ZERO, "clock period must be non-zero");
        assert!(
            self.len < MAX_CLOCKS,
            "ClockSet holds at most {MAX_CLOCKS} clocks"
        );
        assert!(
            self.entries[..self.len]
                .iter()
                .all(|e| e.priority != priority),
            "duplicate clock priority {priority}: the two-scheduler ordering \
             contract requires a distinct priority per clock"
        );
        debug_assert!(!self.uniform, "add_clock after enable_uniform");
        let slot = self.len;
        // Insert at the new clock's priority rank, moving every
        // lower-priority clock (and its state) one position down.
        let pos = self.entries[..self.len]
            .iter()
            .take_while(|e| e.priority < priority)
            .count();
        let end = self.len + 1;
        self.entries[pos..end].rotate_right(1);
        self.deferred[pos..end].rotate_right(1);
        self.shadow_next[pos..end].rotate_right(1);
        self.parked[pos..end].rotate_right(1);
        self.skip_credit[pos..end].rotate_right(1);
        self.slot_at[pos..end].rotate_right(1);
        self.entries[pos] = ClockEntry {
            next: phase,
            period,
            priority,
        };
        self.deferred[pos] = Time::ZERO;
        self.shadow_next[pos] = Time::MAX;
        self.parked[pos] = false;
        self.skip_credit[pos] = 0;
        self.slot_at[pos] = slot as u8;
        self.len = end;
        for p in 0..self.len {
            self.pos_of[self.slot_at[p] as usize] = p as u8;
        }
        slot
    }

    /// Number of registered clocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no clocks are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The timestamp of the most recently dispatched edge.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total edges dispatched so far.
    #[inline]
    pub fn edges_dispatched(&self) -> u64 {
        self.edges
    }

    /// The position of a registered slot.
    ///
    /// # Panics
    ///
    /// Panics with `what` if `slot` is not registered.
    #[inline]
    fn pos(&self, slot: usize, what: &str) -> usize {
        assert!(slot < self.len, "{what} of unregistered clock slot {slot}");
        self.pos_of[slot] as usize
    }

    /// The position winning the `(next, priority)` min-scan. Positions are
    /// in priority order, so a single `Time` compare per entry suffices:
    /// the first minimum found is the highest-priority one. A fixed-trip
    /// scan over at most [`MAX_CLOCKS`] records — no heap.
    #[inline]
    fn min_pos(&self) -> usize {
        let mut best = 0usize;
        let mut best_next = self.entries[0].next;
        for (p, e) in self.entries[..self.len].iter().enumerate().skip(1) {
            if e.next < best_next {
                best = p;
                best_next = e.next;
            }
        }
        best
    }

    /// The `(time, slot)` of the next edge without dispatching it.
    #[inline]
    pub fn peek(&self) -> Option<(Time, usize)> {
        if self.len == 0 {
            return None;
        }
        let p = self.min_pos();
        Some((self.entries[p].next, self.slot_at[p] as usize))
    }

    /// Dispatches the edge at position `p` (its time is `t`): advances the
    /// clock by one period plus any deferred stretch.
    #[inline]
    fn advance(&mut self, p: usize, t: Time) {
        self.entries[p].next = t + self.entries[p].period + std::mem::take(&mut self.deferred[p]);
        self.edges += 1;
    }

    /// Dispatches the single earliest edge, returning its `(time, slot)`.
    /// Returns `None` only for an empty set.
    #[inline]
    pub fn tick(&mut self) -> Option<(Time, usize)> {
        if self.uniform {
            return Some(self.tick_rotation());
        }
        if self.len == 0 {
            return None;
        }
        let p = self.min_pos();
        let t = self.entries[p].next;
        assert!(
            t != Time::MAX,
            "every clock is parked: the simulated system deadlocked while \
             still running (a quiescent domain was never woken)"
        );
        self.advance(p, t);
        self.now = t;
        Some((t, self.slot_at[p] as usize))
    }

    /// Requests a one-shot stretch of a clock: its first edge strictly after
    /// the current time is delayed by `extra`, and later edges follow
    /// `period` from the stretched edge. Requests accumulate. If the clock
    /// still has a pending edge at exactly the current time (mid-batch), that
    /// edge fires unstretched and the request applies to the edge after it —
    /// matching [`Engine::stretch`](crate::Engine::stretch), so the
    /// differential ordering contract holds for stretched clocks too.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a registered clock.
    pub fn stretch(&mut self, slot: usize, extra: Time) {
        let p = self.pos(slot, "stretch");
        debug_assert!(
            !self.parked[p],
            "stretch of a parked clock: every transfer that stretches a \
             domain must first wake it (see the idle-tick elision contract)"
        );
        if extra == Time::ZERO {
            return;
        }
        self.disable_uniform();
        if self.entries[p].next > self.now {
            self.entries[p].next += extra;
        } else {
            self.deferred[p] += extra;
        }
    }

    /// Advances a clock by `n` whole periods without dispatching the
    /// intervening edges. The caller guarantees the skipped edges would
    /// have been no-ops and accounts for them itself (the fetch-stall
    /// fast-forward of the pipeline driver); the clock stays on its grid.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a registered clock or is parked.
    pub fn skip(&mut self, slot: usize, n: u64) {
        let p = self.pos(slot, "skip");
        assert!(!self.parked[p], "skip of a parked clock");
        if self.uniform {
            // Rotation mode: elide the clock's next `n` rotation turns
            // lazily, keeping every clock's stored edge within one period
            // window so the rotation order stays valid.
            self.skip_credit[p] += n;
        } else {
            self.entries[p].next += self.entries[p].period * n;
        }
    }

    /// Enables the uniform-period rotation fast path if every registered
    /// clock shares one period (the synchronous and equal-frequency GALS
    /// machines): dispatch order within a cycle is then a fixed rotation
    /// sorted by `(next, priority)`, and [`ClockSet::tick`] needs no
    /// min-scan. Returns whether the fast path engaged. The set falls back
    /// to the general min-scan permanently at the first
    /// [`ClockSet::stretch`] (stretches desynchronise the rotation).
    /// Rotation mode serves the [`ClockSet::tick`] driver; the batch
    /// dispatchers and [`ClockSet::peek`] must not be mixed with it.
    pub fn enable_uniform(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        let period = self.entries[0].period;
        if self.entries[1..self.len].iter().any(|e| e.period != period) {
            return false;
        }
        self.uniform = true;
        self.rebuild_rotation();
        true
    }

    /// Leaves rotation mode, materialising pending skip credits so the
    /// general min-scan sees true next-edge times.
    fn disable_uniform(&mut self) {
        if !self.uniform {
            return;
        }
        self.uniform = false;
        for p in 0..self.len {
            let credit = std::mem::take(&mut self.skip_credit[p]);
            if credit > 0 {
                self.entries[p].next += self.entries[p].period * credit;
            }
        }
    }

    /// Rebuilds the rotation order over unparked positions, earliest
    /// `(next, priority)` first. Relative order is invariant under
    /// whole-period advances, so this only runs at park/unpark transitions.
    fn rebuild_rotation(&mut self) {
        let mut order: [u8; MAX_CLOCKS] = [0; MAX_CLOCKS];
        let mut n = 0usize;
        for p in 0..self.len {
            if !self.parked[p] {
                order[n] = p as u8;
                n += 1;
            }
        }
        // Positions are in priority order, so the position breaks ties.
        order[..n].sort_unstable_by_key(|&p| (self.entries[p as usize].next, p));
        self.rot = order;
        self.rot_len = n as u8;
        self.rot_pos = 0;
    }

    /// Rotation-mode dispatch: the next unparked clock in rotation order,
    /// consuming skip credits along the way.
    #[inline]
    fn tick_rotation(&mut self) -> (Time, usize) {
        loop {
            assert!(
                self.rot_len > 0,
                "every clock is parked: the simulated system deadlocked while \
                 still running (a quiescent domain was never woken)"
            );
            let p = self.rot[self.rot_pos as usize] as usize;
            self.rot_pos += 1;
            if self.rot_pos == self.rot_len {
                self.rot_pos = 0;
            }
            let e = &mut self.entries[p];
            let t = e.next;
            e.next = t + e.period;
            if self.skip_credit[p] > 0 {
                self.skip_credit[p] -= 1;
                continue;
            }
            self.now = t;
            self.edges += 1;
            return (t, self.slot_at[p] as usize);
        }
    }

    /// Parks a clock: its pending edges are *elided* — removed from the
    /// min-scan — until [`ClockSet::unpark`] restores them. The caller
    /// guarantees that every elided edge would have been a no-op (the
    /// domain is quiescent) and accounts for the elided edges on unpark
    /// (see the idle-tick elision contract in the [crate docs](crate)).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a registered clock, or (debug builds) if it
    /// is already parked or has a pending deferred stretch.
    pub fn park(&mut self, slot: usize) {
        let p = self.pos(slot, "park");
        debug_assert!(!self.parked[p], "clock slot {slot} is already parked");
        debug_assert_eq!(
            self.deferred[p],
            Time::ZERO,
            "parking a clock with a deferred stretch would drop the stretch"
        );
        debug_assert_eq!(
            self.skip_credit[p], 0,
            "parking a clock with pending skipped edges"
        );
        self.shadow_next[p] = self.entries[p].next;
        self.entries[p].next = Time::MAX;
        self.parked[p] = true;
        if self.uniform {
            self.rebuild_rotation();
        }
    }

    /// True while the slot is parked.
    #[inline]
    pub fn is_parked(&self, slot: usize) -> bool {
        slot < self.len && self.parked[self.pos_of[slot] as usize]
    }

    /// Re-arms the parked clock at position `p`, returning `(elided,
    /// next)`: the grid edges in `[shadow_next, now)`, plus the edge at
    /// exactly `now` when this clock's priority orders it before position
    /// `before` (that edge has conceptually fired already).
    fn rearm(&mut self, p: usize, before: usize) -> (u64, Time) {
        let start = self.shadow_next[p];
        let period = self.entries[p].period;
        let (mut elided, mut next) = if start > self.now {
            (0, start)
        } else {
            let delta = self.now.as_fs() - start.as_fs();
            let k = delta.div_ceil(period.as_fs());
            (k, start + period * k)
        };
        if next == self.now && p < before {
            elided += 1;
            next += period;
        }
        self.entries[p].next = next;
        self.shadow_next[p] = Time::MAX;
        self.parked[p] = false;
        if self.uniform {
            self.rebuild_rotation();
        }
        (elided, next)
    }

    /// Unparks a clock that slot `waker` just woke (by pushing it work at
    /// the current instant). Returns `(elided, next)`: the number of
    /// elided edges — all strictly before `now`, plus an edge at exactly
    /// `now` when the woken clock's batch position precedes the waker's
    /// (that edge had already been skipped as a no-op before the waker
    /// ran; an edge at `now` *due after* the waker is re-armed instead and
    /// dispatches normally) — and the time of the first edge that will
    /// dispatch live. The caller must replay the returned count as idle
    /// ticks before the domain's next dispatched edge.
    ///
    /// # Panics
    ///
    /// Panics if either slot is unregistered or `slot` is not parked.
    pub fn unpark(&mut self, slot: usize, waker: usize) -> (u64, Time) {
        assert!(slot < self.len && waker < self.len, "unregistered slot");
        let p = self.pos_of[slot] as usize;
        assert!(self.parked[p], "unpark of a clock that is not parked");
        self.rearm(p, self.pos_of[waker] as usize)
    }

    /// Unparks a clock at the *end of a run*, returning the edges the
    /// unelided schedule would still have dispatched: every elided edge
    /// strictly before `now`, plus an edge at exactly `now` when this
    /// clock's priority ordered it before `stop` (the slot whose dispatch
    /// ended the run — simultaneous edges after it never fire). Returns
    /// `(elided, next)` as [`ClockSet::unpark`] does; the caller replays
    /// the count as idle ticks before reading its final state.
    ///
    /// # Panics
    ///
    /// Panics if either slot is unregistered or `slot` is not parked.
    pub fn drain_parked(&mut self, slot: usize, stop: usize) -> (u64, Time) {
        assert!(slot < self.len && stop < self.len, "unregistered slot");
        let p = self.pos_of[slot] as usize;
        assert!(self.parked[p], "drain of a clock that is not parked");
        self.rearm(p, self.pos_of[stop] as usize)
    }

    /// Dispatches **all** edges sharing the earliest timestamp in ascending
    /// priority order with one callback per edge. For the fully
    /// synchronous machine (five domains, one period and phase) this
    /// coalesces every time step into a single call.
    ///
    /// `dispatch(slot, time)` returns `false` to stop mid-batch; remaining
    /// same-time edges stay pending (exactly like the general engine halting
    /// between two simultaneous events). Returns the batch timestamp, or
    /// `None` for an empty set.
    pub fn tick_batch_while(
        &mut self,
        mut dispatch: impl FnMut(usize, Time) -> bool,
    ) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let first = self.min_pos();
        let t = self.entries[first].next;
        assert!(
            t != Time::MAX,
            "every clock is parked: the simulated system deadlocked while \
             still running (a quiescent domain was never woken)"
        );
        self.now = t;
        loop {
            let p = self.min_pos();
            if self.entries[p].next != t {
                return Some(t);
            }
            self.advance(p, t);
            if !dispatch(self.slot_at[p] as usize, t) {
                return Some(t);
            }
        }
    }

    /// [`ClockSet::tick_batch_while`] without early exit.
    pub fn tick_batch(&mut self, mut dispatch: impl FnMut(usize, Time)) -> Option<Time> {
        self.tick_batch_while(|slot, time| {
            dispatch(slot, time);
            true
        })
    }

    /// Dispatches every edge with a timestamp strictly below `deadline`,
    /// batching simultaneous edges. Returns the number of edges dispatched.
    pub fn run_until(&mut self, deadline: Time, mut dispatch: impl FnMut(usize, Time)) -> u64 {
        let before = self.edges;
        while let Some((t, _)) = self.peek() {
            if t >= deadline {
                break;
            }
            self.tick_batch(&mut dispatch);
        }
        self.edges - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_edge_sequence_matches_engine_semantics() {
        // Same scenario as the engine's figure4 test, but with distinct
        // priorities (the ClockSet ordering contract).
        let mut cs = ClockSet::new();
        let c1 = cs.add_clock(Time::from_ps(500), Time::from_ns(2), 1);
        let c2 = cs.add_clock(Time::from_ns(1), Time::from_ns(3), 2);
        let c3 = cs.add_clock(Time::ZERO, Time::from_ps(2500), 3);
        let mut log = Vec::new();
        cs.run_until(Time::from_ns(8), |slot, t| log.push((slot, t.as_fs())));
        let expect = [
            (c3, 0u64),
            (c1, 500_000),
            (c2, 1_000_000),
            // Simultaneous at 2.5 ns: priority 1 (c1) precedes priority 3.
            (c1, 2_500_000),
            (c3, 2_500_000),
            (c2, 4_000_000),
            (c1, 4_500_000),
            (c3, 5_000_000),
            (c1, 6_500_000),
            (c2, 7_000_000),
            (c3, 7_500_000),
        ];
        assert_eq!(log, expect);
        assert_eq!(cs.edges_dispatched(), 11);
        assert_eq!(cs.now(), Time::from_ps(7_500));
    }

    #[test]
    fn synchronous_clocks_coalesce_into_one_batch() {
        let mut cs = ClockSet::new();
        for p in 0..5 {
            cs.add_clock(Time::ZERO, Time::from_ns(1), p);
        }
        let mut batch = Vec::new();
        let t = cs
            .tick_batch(|slot, time| batch.push((slot, time)))
            .unwrap();
        assert_eq!(t, Time::ZERO);
        // All five domains dispatched at t=0, in priority order.
        assert_eq!(batch, (0..5).map(|s| (s, Time::ZERO)).collect::<Vec<_>>());
        // Next batch is a full nanosecond later.
        assert_eq!(cs.peek(), Some((Time::from_ns(1), 0)));
    }

    #[test]
    fn batch_early_exit_leaves_remaining_edges_pending() {
        let mut cs = ClockSet::new();
        for p in 0..3 {
            cs.add_clock(Time::ZERO, Time::from_ns(1), p);
        }
        let mut seen = Vec::new();
        cs.tick_batch_while(|slot, _| {
            seen.push(slot);
            slot < 1 // stop after the second dispatch
        });
        assert_eq!(seen, vec![0, 1]);
        // Slot 2's t=0 edge is still pending.
        assert_eq!(cs.peek(), Some((Time::ZERO, 2)));
    }

    #[test]
    fn single_tick_order_breaks_ties_by_priority() {
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 5);
        cs.add_clock(Time::ZERO, Time::from_ns(1), -1);
        cs.add_clock(Time::ZERO, Time::from_ns(1), 3);
        let order: Vec<usize> = (0..3).map(|_| cs.tick().unwrap().1).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate clock priority")]
    fn duplicate_priorities_are_loud() {
        // Regression for the two-scheduler contract: duplicate priorities
        // used to be accepted silently, diverging ClockSet (slot order) from
        // Engine (insertion-sequence order).
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 7);
        cs.add_clock(Time::from_ps(500), Time::from_ns(2), 7);
    }

    #[test]
    fn stretch_delays_one_edge_then_returns_to_period() {
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        assert_eq!(cs.tick(), Some((Time::ZERO, 0)));
        // Next edge would be 1 ns; stretch it by 300 ps.
        cs.stretch(0, Time::from_ps(300));
        assert_eq!(cs.tick(), Some((Time::from_ps(1_300), 0)));
        // The period resumes from the stretched edge.
        assert_eq!(cs.tick(), Some((Time::from_ps(2_300), 0)));
    }

    #[test]
    fn stretch_requests_accumulate() {
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        cs.tick();
        cs.stretch(0, Time::from_ps(100));
        cs.stretch(0, Time::from_ps(200));
        assert_eq!(cs.tick(), Some((Time::from_ps(1_300), 0)));
    }

    #[test]
    fn stretch_of_pending_same_time_edge_defers_to_the_next() {
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        cs.add_clock(Time::ZERO, Time::from_ns(1), 1);
        // Dispatch only clock 0's t=0 edge; clock 1's t=0 edge is pending.
        assert_eq!(cs.tick(), Some((Time::ZERO, 0)));
        cs.stretch(1, Time::from_ps(400));
        // The pending edge fires unstretched...
        assert_eq!(cs.tick(), Some((Time::ZERO, 1)));
        // ...and the stretch lands on the edge after it.
        assert_eq!(cs.tick(), Some((Time::from_ns(1), 0)));
        assert_eq!(cs.tick(), Some((Time::from_ps(1_400), 1)));
    }

    #[test]
    fn parked_clock_is_elided_then_resumes_on_grid() {
        let mut cs = ClockSet::new();
        let a = cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        let b = cs.add_clock(Time::from_ps(500), Time::from_ns(1), 1);
        assert_eq!(cs.tick(), Some((Time::ZERO, a)));
        assert_eq!(cs.tick(), Some((Time::from_ps(500), b)));
        cs.park(b);
        assert!(cs.is_parked(b));
        // With b parked, only a's edges dispatch.
        assert_eq!(cs.tick(), Some((Time::from_ns(1), a)));
        assert_eq!(cs.tick(), Some((Time::from_ns(2), a)));
        assert_eq!(cs.tick(), Some((Time::from_ns(3), a)));
        // b's elided edges were 1.5 and 2.5 ns; its next live edge is 3.5.
        assert_eq!(cs.unpark(b, a), (2, Time::from_ps(3_500)));
        assert!(!cs.is_parked(b));
        assert_eq!(cs.tick(), Some((Time::from_ps(3_500), b)));
    }

    #[test]
    fn unpark_rearms_a_same_instant_edge_ordered_after_the_waker() {
        // Aligned clocks: the woken clock has an edge at exactly `now`.
        let mut cs = ClockSet::new();
        let a = cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        let b = cs.add_clock(Time::ZERO, Time::from_ns(1), 1);
        cs.tick(); // a @ 0
        cs.tick(); // b @ 0
        cs.park(b);
        cs.tick(); // a @ 1
        cs.tick(); // a @ 2
                   // b's priority (1) orders its 2 ns edge *after* a's: the edge has
                   // not conceptually fired yet, so it re-arms and dispatches live.
        assert_eq!(cs.unpark(b, a), (1, Time::from_ns(2))); // only the 1 ns edge was elided
        assert_eq!(cs.tick(), Some((Time::from_ns(2), b)));
    }

    #[test]
    fn unpark_elides_a_same_instant_edge_ordered_before_the_waker() {
        let mut cs = ClockSet::new();
        let hi = cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        let lo = cs.add_clock(Time::ZERO, Time::from_ns(1), 1);
        cs.tick(); // hi @ 0
        cs.tick(); // lo @ 0
        cs.park(hi);
        cs.tick(); // lo @ 1
                   // hi's 1 ns edge was ordered *before* lo's 1 ns dispatch, so it was
                   // already skipped as a no-op: it counts as elided and the clock
                   // resumes at 2 ns.
        assert_eq!(cs.unpark(hi, lo), (1, Time::from_ns(2)));
        assert_eq!(cs.tick(), Some((Time::from_ns(2), hi)));
    }

    #[test]
    fn drain_parked_counts_final_batch_edges_by_stop_priority() {
        let mut cs = ClockSet::new();
        let a = cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        let b = cs.add_clock(Time::ZERO, Time::from_ns(1), 1);
        let c = cs.add_clock(Time::ZERO, Time::from_ns(1), 2);
        for _ in 0..3 {
            cs.tick(); // a, b, c @ 0
        }
        cs.park(a);
        cs.park(c);
        cs.tick(); // b @ 1 — the run stops here
                   // a (priority 0) would have dispatched at 1 ns before b: elided.
        assert_eq!(cs.drain_parked(a, b), (1, Time::from_ns(2)));
        // c (priority 2) comes after the stopping edge: not dispatched.
        assert_eq!(cs.drain_parked(c, b), (0, Time::from_ns(1)));
    }

    #[test]
    #[should_panic(expected = "every clock is parked")]
    fn all_parked_is_a_loud_deadlock() {
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        cs.tick();
        cs.park(0);
        cs.tick();
    }

    #[test]
    fn zero_stretch_is_a_no_op() {
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        cs.tick();
        cs.stretch(0, Time::ZERO);
        assert_eq!(cs.peek(), Some((Time::from_ns(1), 0)));
    }

    #[test]
    #[should_panic(expected = "unregistered clock")]
    fn stretch_of_unknown_slot_panics() {
        ClockSet::new().stretch(0, Time::from_ns(1));
    }

    #[test]
    fn empty_set_is_inert() {
        let mut cs = ClockSet::new();
        assert!(cs.is_empty());
        assert_eq!(cs.peek(), None);
        assert_eq!(cs.tick(), None);
        assert_eq!(cs.tick_batch(|_, _| ()), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        ClockSet::new().add_clock(Time::ZERO, Time::ZERO, 0);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn overfull_set_rejected() {
        let mut cs = ClockSet::new();
        for p in 0..=MAX_CLOCKS {
            cs.add_clock(Time::ZERO, Time::from_ns(1), p as Priority);
        }
    }
}
