//! Inter-domain communication channels: synchronous pipeline latches and
//! mixed-clock asynchronous FIFOs.
//!
//! The paper replaces the baseline's pipeline registers with the
//! low-latency mixed-clock FIFO of Chelcea and Nowick. Its timing-relevant
//! behaviour, modelled here:
//!
//! * The **empty** flag is controlled by the producer and *synchronised to
//!   the consumer's clock*: an item enqueued at producer-edge time `t`
//!   becomes visible at the first consumer edge at least one
//!   synchronisation delay after `t`.
//! * The **full** flag is controlled by the consumer and synchronised to the
//!   producer's clock: a slot freed by a dequeue at time `t` becomes usable
//!   by the producer only one synchronisation delay later.
//!
//! With forward/backward synchronisation delays of zero the same structure
//! degenerates to an ordinary 1-cycle pipeline latch (an item written at
//! edge `t` is readable at any strictly later edge), so the synchronous
//! baseline and the GALS processor share all pipeline code and differ only
//! in channel construction — mirroring how the paper's two simulators share
//! the SimpleScalar pipeline model.
//!
//! ## Layout
//!
//! A channel is one power-of-two ring of `(item, pushed_at)` pairs (items
//! are `Copy`), so a push or pop is an index update with no per-item
//! allocation. Slots freed by pops and squashes go into a second ring of
//! full-flag expiry times, but only when the backward delay is non-zero:
//! a **zero-delay free** is visible to the producer at the very instant it
//! is made, and simulation time never runs backwards, so latches, pausible
//! latches and rendezvous ports never record one.

use gals_events::Time;

/// Statistics of one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelStats {
    /// Items enqueued.
    pub pushes: u64,
    /// Items dequeued.
    pub pops: u64,
    /// Push attempts rejected because the producer saw the FIFO full.
    pub full_stalls: u64,
    /// Total residency time (pop time minus push time) of dequeued items.
    pub residency: Time,
    /// Peak occupancy observed.
    pub peak_occupancy: usize,
    /// Items flushed by squashes.
    pub flushed: u64,
}

impl ChannelStats {
    /// Mean residency of dequeued items.
    pub fn mean_residency(&self) -> Time {
        if self.pops == 0 {
            Time::ZERO
        } else {
            self.residency / self.pops
        }
    }
}

/// A bounded point-to-point channel between two clock domains.
///
/// Use [`Channel::sync_latch`] for the synchronous baseline and
/// [`Channel::mixed_clock_fifo`] for GALS domain crossings.
///
/// # Examples
///
/// ```
/// use gals_clocks::Channel;
/// use gals_events::Time;
///
/// // A FIFO whose consumer needs 1 ns to synchronise the empty flag.
/// let mut ch: Channel<u32> = Channel::mixed_clock_fifo(4, Time::from_ns(1), Time::from_ns(1));
/// ch.try_push(7, Time::from_ns(10)).unwrap();
/// // Not yet visible half a nanosecond later...
/// assert_eq!(ch.try_pop(Time::from_fs(10_500_000)), None);
/// // ...but visible from 11 ns on.
/// assert_eq!(ch.try_pop(Time::from_ns(11)), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct Channel<T> {
    /// Ring of `(item, pushed_at)`; the live items are the `len` slots
    /// from `head` on (indices masked by `mask`). Grows by `Vec::push`
    /// up to `mask + 1` slots, then slots are overwritten in place.
    ring: Vec<(T, Time)>,
    head: usize,
    len: usize,
    mask: usize,
    /// Ring of instants at which freed slots become visible to the
    /// producer's full flag, oldest first. Allocated (and ever written)
    /// only when `bwd_delay > 0`: a zero-delay free is visible at the
    /// instant it is made, so it would expire before anyone could read it.
    frees: Vec<Time>,
    free_head: usize,
    free_len: usize,
    capacity: usize,
    /// Forward (empty-flag) synchronisation delay.
    fwd_delay: Time,
    /// Backward (full-flag) synchronisation delay.
    bwd_delay: Time,
    /// True for single-entry rendezvous ports (see [`Channel::rendezvous`]).
    rendezvous: bool,
    stats: ChannelStats,
}

impl<T: Copy> Channel<T> {
    /// A synchronous pipeline latch of the given capacity: an item pushed at
    /// edge `t` is poppable at any strictly later edge, and a freed slot is
    /// reusable immediately.
    pub fn sync_latch(capacity: usize) -> Self {
        Self::with_delays(capacity, Time::ZERO, Time::ZERO)
    }

    /// A mixed-clock FIFO with the given capacity and synchronisation
    /// delays. `fwd_delay` is the consumer-side empty-flag synchronisation
    /// time (typically one consumer clock period); `bwd_delay` the
    /// producer-side full-flag synchronisation time (typically one producer
    /// period).
    pub fn mixed_clock_fifo(capacity: usize, fwd_delay: Time, bwd_delay: Time) -> Self {
        Self::with_delays(capacity, fwd_delay, bwd_delay)
    }

    /// A single-entry **rendezvous port**: the unbuffered crossing of a
    /// pausible-clock interface (`PausibleModel::Rendezvous`).
    ///
    /// The port holds at most one item and has no synchronisation delays —
    /// the handshake cost is charged to the participating *clocks*, not to
    /// the channel. Producer-block/consumer-release semantics fall out of
    /// the occupancy rule: a push against an occupied port fails
    /// ([`Channel::try_push`] returns the item, [`Channel::can_push`] is
    /// `false`) until the consumer pops, so the producer must park or
    /// retry; the freeing pop is the release event. A stored item still
    /// obeys the strictly-after-push read rule, exactly like a latch.
    ///
    /// # Examples
    ///
    /// ```
    /// use gals_clocks::Channel;
    /// use gals_events::Time;
    ///
    /// let mut port: Channel<u32> = Channel::rendezvous();
    /// assert!(port.is_rendezvous());
    /// port.try_push(1, Time::from_ns(1)).unwrap();
    /// // Occupied: the producer blocks until the consumer pops.
    /// assert_eq!(port.try_push(2, Time::from_ns(2)), Err(2));
    /// assert_eq!(port.try_pop(Time::from_ns(2)), Some(1));
    /// port.try_push(2, Time::from_ns(2)).unwrap();
    /// ```
    pub fn rendezvous() -> Self {
        Channel {
            rendezvous: true,
            ..Self::with_delays(1, Time::ZERO, Time::ZERO)
        }
    }

    /// True for a single-entry rendezvous port ([`Channel::rendezvous`]).
    pub fn is_rendezvous(&self) -> bool {
        self.rendezvous
    }

    fn with_delays(capacity: usize, fwd_delay: Time, bwd_delay: Time) -> Self {
        assert!(capacity > 0, "channel capacity must be non-zero");
        let size = capacity.next_power_of_two();
        Channel {
            ring: Vec::with_capacity(size),
            head: 0,
            len: 0,
            mask: size - 1,
            // At most one pending full-flag synchronisation per slot: a pop
            // or flush moves a slot from `len` to `free_len`, and a push
            // needs `len + free_len < capacity`.
            frees: if bwd_delay > Time::ZERO {
                vec![Time::ZERO; size]
            } else {
                Vec::new()
            },
            free_head: 0,
            free_len: 0,
            capacity,
            fwd_delay,
            bwd_delay,
            rendezvous: false,
            stats: ChannelStats::default(),
        }
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently stored (whether or not yet visible).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// The ring index of the `k`-th live item (0 = oldest).
    #[inline]
    fn slot(&self, k: usize) -> usize {
        (self.head + k) & self.mask
    }

    /// Records a freed slot that the producer sees only after the backward
    /// delay. A zero-delay free is not recorded (see the `frees` field).
    #[inline]
    fn note_free(&mut self, now: Time) {
        if self.bwd_delay > Time::ZERO {
            let i = (self.free_head + self.free_len) & self.mask;
            self.frees[i] = now + self.bwd_delay;
            self.free_len += 1;
        }
    }

    /// Drops full-flag synchronisations that have completed by `now`.
    /// The free ring is sorted (simulation time is globally monotonic and
    /// the backward delay is a per-channel constant), so expiry only ever
    /// advances its head.
    #[inline]
    fn expire_frees(&mut self, now: Time) {
        while self.free_len > 0 && self.frees[self.free_head] <= now {
            self.free_head = (self.free_head + 1) & self.mask;
            self.free_len -= 1;
        }
    }

    /// True if the producer can push at time `now`. Takes `&mut self` to
    /// expire completed full-flag synchronisations eagerly, making the
    /// producer-visible occupancy check (stored items plus slots whose
    /// full-flag update has not yet synchronised back) O(1) — this runs for
    /// every candidate push on the simulator's hot path.
    pub fn can_push(&mut self, now: Time) -> bool {
        self.expire_frees(now);
        self.len + self.free_len < self.capacity
    }

    /// True if an item pushed at `pushed_at` may pop at `now`: visible
    /// (`now >= pushed_at + fwd_delay`) and strictly after the push.
    #[inline]
    fn poppable(&self, pushed_at: Time, now: Time) -> bool {
        pushed_at + self.fwd_delay <= now && pushed_at < now
    }

    /// Number of items a consumer edge at `now` could pop.
    pub fn visible(&self, now: Time) -> usize {
        (0..self.len)
            .take_while(|&k| self.poppable(self.ring[self.slot(k)].1, now))
            .count()
    }

    /// Pushes an item at producer-edge time `now`.
    ///
    /// # Errors
    ///
    /// Returns the item back when the producer-visible occupancy equals the
    /// capacity (the producer stalls, exactly like a full pipeline stage).
    pub fn try_push(&mut self, item: T, now: Time) -> Result<(), T> {
        self.expire_frees(now);
        if self.len + self.free_len >= self.capacity {
            self.stats.full_stalls += 1;
            return Err(item);
        }
        let i = self.slot(self.len);
        if i == self.ring.len() {
            // Still filling the ring for the first time (see `ring`).
            self.ring.push((item, now));
        } else {
            self.ring[i] = (item, now);
        }
        self.len += 1;
        self.stats.pushes += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.len);
        Ok(())
    }

    /// Pops the oldest visible item at consumer-edge time `now`.
    ///
    /// Visibility requires `now >= pushed_at + fwd_delay` **and**
    /// `now > pushed_at` (even a zero-delay latch cannot be read at the very
    /// edge that wrote it).
    pub fn try_pop(&mut self, now: Time) -> Option<T> {
        self.try_pop_timed(now).map(|(item, _)| item)
    }

    /// Like [`Channel::try_pop`], but also returns how long the item sat in
    /// the channel (pop time minus push time). The pipeline simulator uses
    /// this to attribute slip to FIFO residency (the paper's Figure 7).
    pub fn try_pop_timed(&mut self, now: Time) -> Option<(T, Time)> {
        if self.len == 0 {
            return None;
        }
        let (item, pushed_at) = self.ring[self.head];
        if !self.poppable(pushed_at, now) {
            return None;
        }
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        self.stats.pops += 1;
        let residency = now - pushed_at;
        self.stats.residency += residency;
        self.note_free(now);
        Some((item, residency))
    }

    /// The earliest edge of a *periodic consumer* (first edge at `phase`,
    /// then every `period`) at which the current front item becomes
    /// poppable — i.e. the first grid edge satisfying both visibility
    /// constraints of [`Channel::try_pop`] (`now >= pushed_at + fwd_delay`
    /// and `now > pushed_at`). Returns `None` for an empty channel.
    ///
    /// This is what lets a scheduler *elide* the consumer's idle edges:
    /// the pop an elided edge would have performed can be replayed later at
    /// exactly this timestamp (see the idle-tick elision notes in
    /// `gals_events`).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn front_pop_time(&self, phase: Time, period: Time) -> Option<Time> {
        assert!(period > Time::ZERO, "consumer grid period must be non-zero");
        let bound = self.front_pop_bound()?;
        if bound <= phase {
            return Some(phase);
        }
        let delta = bound.as_fs() - phase.as_fs();
        let k = delta.div_ceil(period.as_fs());
        Some(phase + period * k)
    }

    /// Earliest instant the current front item could legally pop on *any*
    /// consumer (visible, and strictly after the pushing edge) — a cheap
    /// lower bound on [`Channel::front_pop_time`] that needs no division,
    /// for callers that first test whether a pop could possibly be due.
    #[inline]
    pub fn front_pop_bound(&self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let pushed_at = self.ring[self.head].1;
        Some((pushed_at + self.fwd_delay).max(pushed_at + Time::from_fs(1)))
    }

    /// Peeks the oldest visible item without removing it.
    pub fn peek(&self, now: Time) -> Option<&T> {
        if self.len == 0 {
            return None;
        }
        let (item, pushed_at) = &self.ring[self.head];
        self.poppable(*pushed_at, now).then_some(item)
    }

    /// Removes items for which `keep` returns `false` (squash support);
    /// freed slots synchronise back to the producer after the backward
    /// delay, measured from `now`. Returns the number removed.
    pub fn flush_where(&mut self, now: Time, mut keep: impl FnMut(&T) -> bool) -> usize {
        // Compact the kept items towards the head in place, preserving
        // their order; nothing is allocated per squash.
        let mut kept = 0;
        for k in 0..self.len {
            let from = self.slot(k);
            if keep(&self.ring[from].0) {
                let to = self.slot(kept);
                self.ring[to] = self.ring[from];
                kept += 1;
            } else {
                self.note_free(now);
            }
        }
        let removed = self.len - kept;
        self.len = kept;
        self.stats.flushed += removed as u64;
        removed
    }

    /// Removes everything (full squash of the channel).
    pub fn clear(&mut self, now: Time) -> usize {
        self.flush_where(now, |_| false)
    }

    /// Iterates over stored items oldest-first (diagnostics; ignores
    /// visibility).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).map(|k| &self.ring[self.slot(k)].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: u64 = 1_000_000;

    #[test]
    fn sync_latch_is_one_cycle() {
        let mut ch: Channel<u32> = Channel::sync_latch(4);
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        // Same edge: not readable.
        assert_eq!(ch.try_pop(Time::from_fs(NS)), None);
        // Next edge: readable.
        assert_eq!(ch.try_pop(Time::from_fs(2 * NS)), Some(1));
    }

    #[test]
    fn fifo_forward_delay_gates_visibility() {
        let mut ch: Channel<u32> = Channel::mixed_clock_fifo(4, Time::from_fs(NS), Time::ZERO);
        ch.try_push(9, Time::from_fs(10 * NS)).unwrap();
        assert_eq!(ch.try_pop(Time::from_fs(10 * NS + NS / 2)), None);
        assert_eq!(ch.peek(Time::from_fs(11 * NS)), Some(&9));
        assert_eq!(ch.try_pop(Time::from_fs(11 * NS)), Some(9));
    }

    #[test]
    fn fifo_orders_items() {
        let mut ch: Channel<u32> = Channel::mixed_clock_fifo(4, Time::ZERO, Time::ZERO);
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        ch.try_push(2, Time::from_fs(NS)).unwrap();
        assert_eq!(ch.try_pop(Time::from_fs(2 * NS)), Some(1));
        assert_eq!(ch.try_pop(Time::from_fs(2 * NS)), Some(2));
        assert_eq!(ch.try_pop(Time::from_fs(2 * NS)), None);
    }

    #[test]
    fn capacity_blocks_and_counts_stalls() {
        let mut ch: Channel<u32> = Channel::sync_latch(2);
        let t = Time::from_fs(NS);
        ch.try_push(1, t).unwrap();
        ch.try_push(2, t).unwrap();
        assert_eq!(ch.try_push(3, t), Err(3));
        assert_eq!(ch.stats().full_stalls, 1);
    }

    #[test]
    fn backward_delay_keeps_slot_occupied() {
        // Capacity 1, full flag takes 1 ns to synchronise back.
        let mut ch: Channel<u32> = Channel::mixed_clock_fifo(1, Time::ZERO, Time::from_fs(NS));
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        assert_eq!(ch.try_pop(Time::from_fs(2 * NS)), Some(1));
        // The slot frees at 3 ns from the producer's perspective.
        assert!(!ch.can_push(Time::from_fs(2 * NS)));
        assert_eq!(ch.try_push(2, Time::from_fs(2 * NS)), Err(2));
        assert!(ch.can_push(Time::from_fs(3 * NS)));
        ch.try_push(2, Time::from_fs(3 * NS)).unwrap();
    }

    #[test]
    fn rendezvous_port_blocks_until_the_consuming_pop() {
        let mut port: Channel<u32> = Channel::rendezvous();
        assert!(port.is_rendezvous());
        assert_eq!(port.capacity(), 1);
        port.try_push(1, Time::from_fs(NS)).unwrap();
        // Same-edge reads are still forbidden (latch rule)...
        assert_eq!(port.try_pop(Time::from_fs(NS)), None);
        // ...and the occupied port rejects the producer until the pop.
        assert!(!port.can_push(Time::from_fs(2 * NS)));
        assert_eq!(port.try_push(2, Time::from_fs(2 * NS)), Err(2));
        assert_eq!(port.stats().full_stalls, 1);
        assert_eq!(port.try_pop(Time::from_fs(2 * NS)), Some(1));
        // The pop releases the port immediately (no backward delay).
        assert!(port.can_push(Time::from_fs(2 * NS)));
        port.try_push(2, Time::from_fs(2 * NS)).unwrap();
        // Latches and FIFOs are not rendezvous ports.
        assert!(!Channel::<u32>::sync_latch(1).is_rendezvous());
        assert!(!Channel::<u32>::mixed_clock_fifo(1, Time::ZERO, Time::ZERO).is_rendezvous());
    }

    #[test]
    fn residency_is_tracked() {
        let mut ch: Channel<u32> = Channel::sync_latch(4);
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        ch.try_push(2, Time::from_fs(NS)).unwrap();
        let _ = ch.try_pop(Time::from_fs(3 * NS));
        let _ = ch.try_pop(Time::from_fs(4 * NS));
        assert_eq!(ch.stats().residency, Time::from_fs(2 * NS + 3 * NS));
        assert_eq!(ch.stats().mean_residency(), Time::from_fs(5 * NS / 2));
    }

    #[test]
    fn flush_where_drops_and_frees() {
        let mut ch: Channel<u32> = Channel::sync_latch(4);
        let t = Time::from_fs(NS);
        for i in 0..4 {
            ch.try_push(i, t).unwrap();
        }
        let removed = ch.flush_where(Time::from_fs(2 * NS), |&x| x % 2 == 0);
        assert_eq!(removed, 2);
        assert_eq!(ch.len(), 2);
        assert_eq!(ch.stats().flushed, 2);
        assert!(ch.can_push(Time::from_fs(2 * NS)));
        let items: Vec<u32> = ch.iter().copied().collect();
        assert_eq!(items, vec![0, 2]);
    }

    #[test]
    fn clear_empties_channel() {
        let mut ch: Channel<u32> = Channel::sync_latch(4);
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        ch.try_push(2, Time::from_fs(NS)).unwrap();
        assert_eq!(ch.clear(Time::from_fs(NS)), 2);
        assert!(ch.is_empty());
    }

    #[test]
    fn front_pop_time_matches_try_pop_visibility() {
        // FIFO with a 1 ns forward delay; consumer edges at 0.3 ns + n ns.
        let phase = Time::from_ps(300);
        let period = Time::from_fs(NS);
        let mut ch: Channel<u32> = Channel::mixed_clock_fifo(4, Time::from_fs(NS), Time::ZERO);
        assert_eq!(ch.front_pop_time(phase, period), None);
        ch.try_push(9, Time::from_fs(10 * NS)).unwrap();
        // Visible from 11 ns; first consumer edge at or after that is 11.3.
        let e = ch.front_pop_time(phase, period).unwrap();
        assert_eq!(e, Time::from_fs(11 * NS + 300_000));
        // The computed edge is exactly the first edge at which try_pop works.
        assert_eq!(ch.clone().try_pop(e - period), None);
        assert_eq!(ch.try_pop(e), Some(9));

        // Zero-delay latch: an item pushed exactly on a grid edge must wait
        // for the *next* edge (strictly-after-push rule).
        let mut latch: Channel<u32> = Channel::sync_latch(4);
        latch.try_push(1, phase).unwrap();
        assert_eq!(
            latch.front_pop_time(phase, period),
            Some(phase + period),
            "same-edge reads are forbidden even with no sync delay"
        );
    }

    #[test]
    fn visible_counts_ready_items() {
        let mut ch: Channel<u32> = Channel::mixed_clock_fifo(4, Time::from_fs(NS), Time::ZERO);
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        ch.try_push(2, Time::from_fs(2 * NS)).unwrap();
        // First item visible from 2 ns (push + fwd delay), second from 3 ns.
        assert_eq!(ch.visible(Time::from_fs(NS + NS / 2)), 0);
        assert_eq!(ch.visible(Time::from_fs(2 * NS)), 1);
        assert_eq!(ch.visible(Time::from_fs(2 * NS + NS / 2)), 1);
        assert_eq!(ch.visible(Time::from_fs(3 * NS)), 2);
    }

    #[test]
    fn random_phase_crossing_latency_averages_1_5_periods() {
        // Statistical check of the GALS crossing cost: with equal producer
        // and consumer frequencies and a uniformly random consumer phase,
        // the mean FIFO crossing latency approaches 1.5 consumer periods
        // (against 1.0 for the synchronous latch).
        let period = NS;
        let mut total = 0u64;
        let trials = 1_000;
        for k in 0..trials {
            let phase = gals_isa::rng::hash3(7, 1, k) % period;
            let mut ch: Channel<u32> =
                Channel::mixed_clock_fifo(4, Time::from_fs(period), Time::ZERO);
            let push_t = 10 * period;
            ch.try_push(1, Time::from_fs(push_t)).unwrap();
            // Consumer edges at phase + n*period; find the first that pops.
            let mut edge = phase + ((push_t - phase) / period) * period;
            loop {
                if edge > push_t && ch.try_pop(Time::from_fs(edge)).is_some() {
                    break;
                }
                edge += period;
            }
            total += edge - push_t;
        }
        let mean = total as f64 / trials as f64 / period as f64;
        assert!(
            (1.4..1.6).contains(&mean),
            "mean crossing latency {mean} periods"
        );
    }
}
