//! Out-of-order issue queues with tag-based wakeup and oldest-first select.
//!
//! The paper's design has three queues — integer (20 entries), FP (16) and
//! memory (16) — each co-located with its functional units in one clock
//! domain so that "dependent instructions within the integer issue queue can
//! be issued back-to-back as soon as operands are available".

use crate::rename::PhysReg;

/// Token identifying an instruction waiting in a queue (opaque payload key).
pub type IqToken = u64;

/// Maximum outstanding source tags per queued instruction. Two register
/// sources is the ISA ceiling; the headroom is free (the array is inline).
const MAX_WAITING: usize = 4;

/// One waiting instruction. The outstanding-source set is an inline array —
/// inserting into the queue performs no heap allocation.
#[derive(Debug, Clone, Copy)]
struct IqEntry {
    token: IqToken,
    /// Age for oldest-first selection (dynamic sequence number works well).
    age: u64,
    /// Source operands still outstanding. Tags are destination physical
    /// registers of producer instructions.
    waiting: [PhysReg; MAX_WAITING],
    /// Live prefix length of `waiting`.
    nwait: u8,
}

impl IqEntry {
    #[inline]
    fn is_ready(&self) -> bool {
        self.nwait == 0
    }

    /// Removes every occurrence of `tag` from the outstanding set.
    /// Returns true when this made the entry ready.
    #[inline]
    fn drop_tag(&mut self, tag: PhysReg) -> bool {
        if self.nwait == 0 {
            return false;
        }
        let mut i = 0;
        while i < self.nwait as usize {
            if self.waiting[i] == tag {
                self.nwait -= 1;
                self.waiting[i] = self.waiting[self.nwait as usize];
            } else {
                i += 1;
            }
        }
        self.nwait == 0
    }
}

/// Statistics of one issue queue.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IssueQueueStats {
    /// Instructions inserted.
    pub inserted: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Occupancy integral (entries x samples) for mean occupancy.
    pub occupancy_sum: u64,
    /// Number of occupancy samples.
    pub occupancy_samples: u64,
    /// Peak occupancy.
    pub occupancy_peak: usize,
    /// Cycles in which at least one instruction was ready but the issue
    /// width was exhausted.
    pub width_stalls: u64,
}

impl IssueQueueStats {
    /// Mean occupancy per sample.
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }
}

/// A bounded issue queue: insert renamed instructions with outstanding
/// source tags, wake them as producers complete, select the oldest ready
/// ones each cycle.
///
/// Entries are kept in **age order** (dispatch inserts in program order and
/// removals preserve order), so oldest-first selection is a single forward
/// scan — no per-cycle sort. The queue also counts its ready entries, so a
/// wakeup with nothing waiting returns at once and selection stops at the
/// last ready entry instead of walking the whole queue.
///
/// # Examples
///
/// ```
/// use gals_uarch::{IssueQueue, PhysReg};
///
/// let mut iq = IssueQueue::new(4);
/// iq.insert(1, 10, vec![PhysReg(40)]).unwrap(); // waits on p40
/// iq.insert(2, 11, vec![]).unwrap();            // ready at once
/// assert_eq!(iq.select(4), vec![2]);
/// iq.wakeup(PhysReg(40));
/// assert_eq!(iq.select(4), vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct IssueQueue {
    capacity: usize,
    entries: Vec<IqEntry>,
    /// Entries with no outstanding source tag (`entries.len() - nready`
    /// entries wait on at least one).
    nready: usize,
    stats: IssueQueueStats,
    /// Selection scratch (indices picked this cycle), reused across cycles
    /// so steady-state selection allocates nothing.
    chosen_scratch: Vec<usize>,
}

impl IssueQueue {
    /// Creates a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "issue queue capacity must be non-zero");
        IssueQueue {
            capacity,
            entries: Vec::with_capacity(capacity),
            nready: 0,
            stats: IssueQueueStats::default(),
            chosen_scratch: Vec::with_capacity(capacity),
        }
    }

    /// Current number of waiting instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no instructions wait.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when another instruction can be inserted.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Statistics.
    pub fn stats(&self) -> IssueQueueStats {
        self.stats
    }

    /// Inserts an instruction.
    ///
    /// `waiting` lists the source tags not yet produced; an empty list means
    /// the instruction is immediately ready. Any iterator works — the tags
    /// are stored inline, so dispatch need not build a `Vec`.
    ///
    /// # Errors
    ///
    /// Returns `Err(token)` (the rejected token) when the queue is full —
    /// dispatch must stall.
    ///
    /// # Panics
    ///
    /// Panics if `waiting` yields more than four tags (the ISA has at most
    /// two register sources), or if `age` is not strictly greater than
    /// every age already queued — insertion must be in program order, the
    /// invariant that lets selection scan instead of sort (dispatch
    /// naturally satisfies it; see [`Rob::alloc`](crate::Rob::alloc) for
    /// the same contract).
    pub fn insert(
        &mut self,
        token: IqToken,
        age: u64,
        waiting: impl IntoIterator<Item = PhysReg>,
    ) -> Result<(), IqToken> {
        if !self.has_space() {
            return Err(token);
        }
        if let Some(tail) = self.entries.last() {
            assert!(age > tail.age, "issue queue insertion out of program order");
        }
        self.stats.inserted += 1;
        let mut entry = IqEntry {
            token,
            age,
            waiting: [PhysReg(0); MAX_WAITING],
            nwait: 0,
        };
        for tag in waiting {
            assert!(
                (entry.nwait as usize) < MAX_WAITING,
                "instruction waits on more than {MAX_WAITING} source tags"
            );
            entry.waiting[entry.nwait as usize] = tag;
            entry.nwait += 1;
        }
        self.nready += usize::from(entry.is_ready());
        self.entries.push(entry);
        Ok(())
    }

    /// Broadcasts a completed producer tag, marking dependents ready.
    pub fn wakeup(&mut self, tag: PhysReg) {
        if self.nready == self.entries.len() {
            return;
        }
        for e in &mut self.entries {
            self.nready += usize::from(e.drop_tag(tag));
        }
    }

    /// Selects up to `width` ready instructions, oldest first, removing them
    /// from the queue. Returns their tokens in selection order.
    pub fn select(&mut self, width: u32) -> Vec<IqToken> {
        self.select_with(width, |_| true)
    }

    /// Selects ready instructions for which `admit` also returns true
    /// (e.g. a functional unit is free), oldest first, up to `width`.
    pub fn select_with(&mut self, width: u32, admit: impl FnMut(IqToken) -> bool) -> Vec<IqToken> {
        let mut out = Vec::new();
        self.select_into(width, admit, &mut out);
        out
    }

    /// Allocation-free form of [`IssueQueue::select_with`]: clears `out`
    /// and fills it with the selected tokens, oldest first. With a reused
    /// `out` buffer the steady-state selection path performs no heap
    /// allocation (internal scratch is owned by the queue).
    pub fn select_into(
        &mut self,
        width: u32,
        mut admit: impl FnMut(IqToken) -> bool,
        out: &mut Vec<IqToken>,
    ) {
        out.clear();
        // The entries are age-ordered (see the type docs), so one forward
        // scan visits ready instructions oldest-first. The chosen scratch
        // is moved out so the borrow checker allows `admit` to run while
        // indices are collected.
        let mut chosen = std::mem::take(&mut self.chosen_scratch);
        chosen.clear();
        let mut unseen = self.nready;
        for (i, e) in self.entries.iter().enumerate() {
            if unseen == 0 {
                // Past the last ready entry.
                break;
            }
            if !e.is_ready() {
                continue;
            }
            unseen -= 1;
            if chosen.len() == width as usize {
                self.stats.width_stalls += 1;
                break;
            }
            if admit(e.token) {
                chosen.push(i);
            }
        }
        // `chosen` is in ascending age order; emit tokens before removal
        // invalidates indices.
        for &i in &chosen {
            out.push(self.entries[i].token);
        }
        // Remove back-to-front, preserving the age order of the rest.
        for &i in chosen.iter().rev() {
            self.entries.remove(i);
        }
        self.nready -= chosen.len();
        self.stats.issued += out.len() as u64;
        self.chosen_scratch = chosen;
    }

    /// Removes every instruction younger than `age` (squash after a
    /// mispredicted branch). Returns the removed tokens.
    ///
    /// Convenience wrapper over [`IssueQueue::squash_younger_into`]; hot
    /// callers should pass a reusable scratch buffer to the `_into` form so
    /// recovery allocates nothing even when mispredicts are frequent.
    pub fn squash_younger(&mut self, age: u64) -> Vec<IqToken> {
        let mut squashed = Vec::new();
        self.squash_younger_into(age, &mut squashed);
        squashed
    }

    /// Allocation-free form of [`IssueQueue::squash_younger`]: clears `out`
    /// and fills it with the removed tokens.
    ///
    /// # Examples
    ///
    /// ```
    /// use gals_uarch::{IssueQueue, PhysReg};
    ///
    /// let mut iq = IssueQueue::new(8);
    /// let mut scratch = Vec::new();
    /// iq.insert(1, 10, vec![PhysReg(40)]).unwrap();
    /// iq.insert(2, 20, vec![PhysReg(40)]).unwrap();
    /// iq.squash_younger_into(15, &mut scratch);
    /// assert_eq!(scratch, vec![2]);
    /// assert_eq!(iq.len(), 1);
    /// ```
    pub fn squash_younger_into(&mut self, age: u64, out: &mut Vec<IqToken>) {
        out.clear();
        let nready = &mut self.nready;
        self.entries.retain(|e| {
            if e.age > age {
                out.push(e.token);
                *nready -= usize::from(e.is_ready());
                false
            } else {
                true
            }
        });
    }

    /// Records an occupancy sample.
    pub fn sample_occupancy(&mut self) {
        self.sample_occupancy_n(1);
    }

    /// Records `n` occupancy samples at the current occupancy — exactly
    /// equivalent to `n` calls to [`IssueQueue::sample_occupancy`] while
    /// the queue is untouched (the idle-tick back-fill of a parked clock
    /// domain).
    pub fn sample_occupancy_n(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.occupancy_samples += n;
        self.stats.occupancy_sum += self.entries.len() as u64 * n;
        self.stats.occupancy_peak = self.stats.occupancy_peak.max(self.entries.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_instructions_issue_oldest_first() {
        let mut iq = IssueQueue::new(8);
        iq.insert(11, 3, vec![]).unwrap();
        iq.insert(12, 4, vec![]).unwrap();
        iq.insert(10, 5, vec![PhysReg(40)]).unwrap();
        assert_eq!(iq.select(2), vec![11, 12]);
        iq.wakeup(PhysReg(40));
        assert_eq!(iq.select(2), vec![10]);
        assert!(iq.is_empty());
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_insert_panics() {
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 5, vec![]).unwrap();
        let _ = iq.insert(2, 3, vec![]);
    }

    #[test]
    fn wakeup_enables_dependents() {
        let mut iq = IssueQueue::new(4);
        iq.insert(1, 0, vec![PhysReg(33), PhysReg(34)]).unwrap();
        assert!(iq.select(4).is_empty());
        iq.wakeup(PhysReg(33));
        assert!(iq.select(4).is_empty());
        iq.wakeup(PhysReg(34));
        assert_eq!(iq.select(4), vec![1]);
    }

    #[test]
    fn full_queue_rejects() {
        let mut iq = IssueQueue::new(2);
        iq.insert(1, 0, vec![]).unwrap();
        iq.insert(2, 1, vec![]).unwrap();
        assert_eq!(iq.insert(3, 2, vec![]), Err(3));
        assert!(!iq.has_space());
    }

    #[test]
    fn squash_removes_younger_only() {
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 10, vec![PhysReg(40)]).unwrap();
        iq.insert(2, 20, vec![PhysReg(40)]).unwrap();
        iq.insert(3, 30, vec![PhysReg(40)]).unwrap();
        let squashed = iq.squash_younger(15);
        assert_eq!(squashed, vec![2, 3]);
        assert_eq!(iq.len(), 1);
    }

    #[test]
    fn squash_younger_into_reuses_caller_buffer() {
        let mut iq = IssueQueue::new(8);
        let mut scratch = vec![77]; // stale contents must be cleared
        iq.insert(1, 10, vec![PhysReg(40)]).unwrap();
        iq.insert(2, 20, vec![PhysReg(40)]).unwrap();
        iq.insert(3, 30, vec![PhysReg(40)]).unwrap();
        iq.squash_younger_into(15, &mut scratch);
        assert_eq!(scratch, vec![2, 3]);
        assert_eq!(iq.len(), 1);
        iq.squash_younger_into(15, &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn select_with_admission_control() {
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, vec![]).unwrap();
        iq.insert(2, 1, vec![]).unwrap();
        iq.insert(3, 2, vec![]).unwrap();
        // Admit only even tokens.
        let picked = iq.select_with(4, |t| t % 2 == 0);
        assert_eq!(picked, vec![2]);
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn width_limits_issue() {
        let mut iq = IssueQueue::new(8);
        for i in 0..6 {
            iq.insert(i, i, vec![]).unwrap();
        }
        assert_eq!(iq.select(4).len(), 4);
        assert!(iq.stats().width_stalls > 0);
    }

    #[test]
    fn occupancy_sampling() {
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, vec![PhysReg(40)]).unwrap();
        iq.sample_occupancy();
        iq.insert(2, 1, vec![PhysReg(40)]).unwrap();
        iq.sample_occupancy();
        assert_eq!(iq.stats().mean_occupancy(), 1.5);
        assert_eq!(iq.stats().occupancy_peak, 2);
    }

    #[test]
    fn select_into_reuses_caller_buffer() {
        let mut iq = IssueQueue::new(8);
        let mut out = Vec::new();
        iq.insert(1, 0, std::iter::empty()).unwrap();
        iq.insert(2, 1, [PhysReg(9)]).unwrap();
        iq.select_into(4, |_| true, &mut out);
        assert_eq!(out, vec![1]);
        iq.wakeup(PhysReg(9));
        iq.select_into(4, |_| true, &mut out);
        assert_eq!(out, vec![2]);
        iq.select_into(4, |_| true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_tags_both_cleared() {
        let mut iq = IssueQueue::new(4);
        iq.insert(1, 0, vec![PhysReg(40), PhysReg(40)]).unwrap();
        iq.wakeup(PhysReg(40));
        assert_eq!(iq.select(4), vec![1]);
    }

    /// The readiness counts against a full recount, and the queue against
    /// a plain model of the uncounted algorithms (every wakeup visits every
    /// entry, every selection scans the whole queue), after each step of a
    /// random sequence of inserts, wakeups, selections and squashes.
    mod counts {
        use super::*;
        use proptest::prelude::*;

        /// `(token, age, outstanding tags)` per queued instruction.
        type Model = Vec<(IqToken, u64, Vec<PhysReg>)>;

        fn model_select(
            model: &mut Model,
            width: u32,
            admit: impl Fn(IqToken) -> bool,
        ) -> (Vec<IqToken>, bool) {
            let mut picked = Vec::new();
            let mut stalled = false;
            for (token, _, waiting) in model.iter() {
                if !waiting.is_empty() {
                    continue;
                }
                if picked.len() == width as usize {
                    stalled = true;
                    break;
                }
                if admit(*token) {
                    picked.push(*token);
                }
            }
            model.retain(|(token, _, _)| !picked.contains(token));
            (picked, stalled)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn ready_counts_match_a_full_recount(
                capacity in 1usize..12,
                ops in prop::collection::vec((0u8..4, 0u64..6, 0u64..6, 0u64..6), 1..200),
            ) {
                let mut iq = IssueQueue::new(capacity);
                let mut model: Model = Vec::new();
                let mut next_age = 0u64;
                let mut width_stalls = 0u64;
                for &(op, a, b, c) in &ops {
                    match op {
                        0 => {
                            // Up to two outstanding tags, drawn from p0..p4
                            // (5 means none).
                            let tags: Vec<PhysReg> = [a, b]
                                .into_iter()
                                .filter(|&t| t < 5)
                                .map(|t| PhysReg(t as u16))
                                .collect();
                            next_age += 1 + c;
                            let token = next_age * 10;
                            let res = iq.insert(token, next_age, tags.iter().copied());
                            if model.len() < capacity {
                                prop_assert_eq!(res, Ok(()));
                                model.push((token, next_age, tags));
                            } else {
                                prop_assert_eq!(res, Err(token));
                            }
                        }
                        1 => {
                            let tag = PhysReg(a as u16);
                            iq.wakeup(tag);
                            for (_, _, waiting) in &mut model {
                                waiting.retain(|&t| t != tag);
                            }
                        }
                        2 => {
                            let width = 1 + b as u32;
                            // Refuse tokens whose age is a multiple of `c + 2`.
                            let admit = |t: IqToken| !(t / 10).is_multiple_of(c + 2);
                            let picked = iq.select_with(width, admit);
                            let (want, stalled) = model_select(&mut model, width, admit);
                            prop_assert_eq!(picked, want);
                            width_stalls += u64::from(stalled);
                        }
                        _ => {
                            let age = next_age.saturating_sub(a * 2);
                            let squashed = iq.squash_younger(age);
                            let want: Vec<IqToken> = model
                                .iter()
                                .filter(|(_, g, _)| *g > age)
                                .map(|(t, _, _)| *t)
                                .collect();
                            model.retain(|(_, g, _)| *g <= age);
                            prop_assert_eq!(squashed, want);
                        }
                    }
                    let ready = iq.entries.iter().filter(|e| e.is_ready()).count();
                    let waiting = iq.entries.iter().filter(|e| !e.is_ready()).count();
                    prop_assert_eq!(iq.nready, ready);
                    prop_assert_eq!(iq.entries.len() - iq.nready, waiting);
                    let model_ready = model.iter().filter(|(_, _, w)| w.is_empty()).count();
                    prop_assert_eq!(ready, model_ready);
                    let tokens: Vec<IqToken> = iq.entries.iter().map(|e| e.token).collect();
                    let model_tokens: Vec<IqToken> = model.iter().map(|(t, _, _)| *t).collect();
                    prop_assert_eq!(tokens, model_tokens);
                    prop_assert_eq!(iq.stats().width_stalls, width_stalls);
                }
            }
        }
    }
}
