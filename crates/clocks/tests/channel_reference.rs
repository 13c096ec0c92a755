//! Differential test of the ring-buffer [`Channel`] against a plain
//! `VecDeque` reference model of the same channel semantics.
//!
//! Both are driven by one random sequence of pushes, pops, push probes,
//! squashes and clears at non-decreasing times; after every step the
//! results and all observable state must agree.

use std::collections::VecDeque;

use gals_clocks::{Channel, ChannelStats};
use gals_events::Time;
use proptest::prelude::*;

/// The reference: stored items and the producer-visible free times as two
/// deques, every free recorded whatever the backward delay.
struct Reference {
    slots: VecDeque<(u32, Time)>,
    frees: VecDeque<Time>,
    capacity: usize,
    fwd: Time,
    bwd: Time,
    stats: ChannelStats,
}

impl Reference {
    fn new(capacity: usize, fwd: Time, bwd: Time) -> Self {
        Reference {
            slots: VecDeque::new(),
            frees: VecDeque::new(),
            capacity,
            fwd,
            bwd,
            stats: ChannelStats::default(),
        }
    }

    fn expire(&mut self, now: Time) {
        while matches!(self.frees.front(), Some(&f) if f <= now) {
            self.frees.pop_front();
        }
    }

    fn poppable(&self, pushed: Time, now: Time) -> bool {
        pushed + self.fwd <= now && pushed < now
    }

    fn can_push(&mut self, now: Time) -> bool {
        self.expire(now);
        self.slots.len() + self.frees.len() < self.capacity
    }

    fn try_push(&mut self, item: u32, now: Time) -> Result<(), u32> {
        if !self.can_push(now) {
            self.stats.full_stalls += 1;
            return Err(item);
        }
        self.slots.push_back((item, now));
        self.stats.pushes += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.slots.len());
        Ok(())
    }

    fn try_pop_timed(&mut self, now: Time) -> Option<(u32, Time)> {
        let &(item, pushed) = self.slots.front()?;
        if !self.poppable(pushed, now) {
            return None;
        }
        self.slots.pop_front();
        self.stats.pops += 1;
        self.stats.residency += now - pushed;
        self.frees.push_back(now + self.bwd);
        Some((item, now - pushed))
    }

    fn flush_where(&mut self, now: Time, keep: impl Fn(u32) -> bool) -> usize {
        let before = self.slots.len();
        self.slots.retain(|&(item, _)| keep(item));
        let removed = before - self.slots.len();
        for _ in 0..removed {
            self.frees.push_back(now + self.bwd);
        }
        self.stats.flushed += removed as u64;
        removed
    }

    fn visible(&self, now: Time) -> usize {
        self.slots
            .iter()
            .take_while(|&&(_, pushed)| self.poppable(pushed, now))
            .count()
    }

    fn front_pop_bound(&self) -> Option<Time> {
        let &(_, pushed) = self.slots.front()?;
        Some((pushed + self.fwd).max(pushed + Time::from_fs(1)))
    }
}

/// `(kind, capacity, fwd, bwd)`: kind 0 is a latch, 1 a FIFO with both
/// delays (made non-zero), 2 and 3 a FIFO with only the forward or only
/// the backward delay, 4 a rendezvous port.
fn build(kind: u8, capacity: usize, fwd: u64, bwd: u64) -> (Channel<u32>, Reference) {
    let (fwd, bwd) = (Time::from_fs(fwd + 1), Time::from_fs(bwd + 1));
    let fifo = |fwd, bwd| {
        (
            Channel::mixed_clock_fifo(capacity, fwd, bwd),
            Reference::new(capacity, fwd, bwd),
        )
    };
    match kind {
        0 => (
            Channel::sync_latch(capacity),
            Reference::new(capacity, Time::ZERO, Time::ZERO),
        ),
        1 => fifo(fwd, bwd),
        2 => fifo(fwd, Time::ZERO),
        3 => fifo(Time::ZERO, bwd),
        _ => (
            Channel::rendezvous(),
            Reference::new(1, Time::ZERO, Time::ZERO),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_channel_matches_the_deque_reference(
        kind in 0u8..5,
        capacity in 1usize..10,
        fwd in 0u64..3_000,
        bwd in 0u64..3_000,
        ops in prop::collection::vec((0u8..6, 0u8..5, 0u64..2_000, any::<u32>()), 1..300),
    ) {
        let (mut ch, mut model) = build(kind, capacity, fwd, bwd);
        let mut now = Time::ZERO;
        for &(op, step, dt, value) in &ops {
            // Steps land on the same instant, one delay later (where an
            // item turns visible or a free expires), one femtosecond later
            // or a random time later.
            now += match step {
                0 => Time::ZERO,
                1 => model.fwd,
                2 => model.bwd,
                3 => Time::from_fs(1),
                _ => Time::from_fs(dt),
            };
            match op {
                0 | 1 => prop_assert_eq!(ch.try_push(value, now), model.try_push(value, now)),
                2 => prop_assert_eq!(ch.try_pop_timed(now), model.try_pop_timed(now)),
                3 => prop_assert_eq!(ch.can_push(now), model.can_push(now)),
                4 => {
                    let modulus = value % 3 + 2;
                    let keep = |x: u32| !x.is_multiple_of(modulus);
                    prop_assert_eq!(ch.flush_where(now, |&x| keep(x)), model.flush_where(now, keep));
                }
                _ => prop_assert_eq!(ch.clear(now), model.flush_where(now, |_| false)),
            }
            let items: Vec<u32> = ch.iter().copied().collect();
            let expected: Vec<u32> = model.slots.iter().map(|&(x, _)| x).collect();
            prop_assert_eq!(&items, &expected);
            prop_assert_eq!(ch.len(), model.slots.len());
            prop_assert_eq!(ch.is_empty(), model.slots.is_empty());
            prop_assert_eq!(ch.visible(now), model.visible(now));
            prop_assert_eq!(ch.front_pop_bound(), model.front_pop_bound());
            let front = model.slots.front().filter(|&&(_, pushed)| model.poppable(pushed, now));
            prop_assert_eq!(ch.peek(now).copied(), front.map(|&(x, _)| x));
            prop_assert_eq!(ch.stats(), model.stats);
        }
    }
}
