//! The eight-stage out-of-order pipeline over five clock domains — the
//! heart of both processor models.
//!
//! Stage-to-domain mapping (the paper's Table 2):
//!
//! | # | Stage                       | Domain      |
//! |---|-----------------------------|-------------|
//! | 1 | Fetch from I-cache          | 1 (fetch)   |
//! | 2 | Decode                      | 2 (decode)  |
//! | 3 | Rename, regfile read        | 2           |
//! | 4 | Dispatch into issue queue   | 2 → 3/4/5   |
//! | 5 | Issue to functional unit    | 3/4/5       |
//! | 6 | Execute                     | 3/4/5       |
//! | 7 | Wakeup, writeback           | 3/4/5       |
//! | 8 | Regfile write, commit       | 3/4/5 → 2   |
//!
//! Every arrow is a [`Channel`]: a 1-cycle pipeline latch in the
//! synchronous machine, a mixed-clock FIFO in the GALS machine. All other
//! behaviour is byte-identical between the two models, which is what makes
//! the paper's comparison meaningful.
//!
//! ## The handle-based instruction store
//!
//! Instruction state lives once, in the slab-backed [`InFlightTable`];
//! everything that flows between stages — the decode buffer, the ROB, the
//! issue-queue tokens, every inter-domain channel — is an 8-byte
//! [`InstrId`] handle. See `crate::inflight` for the hot/cold
//! struct-of-arrays layout and the stale-handle semantics.
//!
//! ## Quiescence and idle-tick elision
//!
//! [`Pipeline::quiescent`] reports when a domain's next tick is provably a
//! pure *idle tick* — advancing only its cycle counter, idle energy and
//! occupancy samples, all of which [`Pipeline::replay_idle`] can apply
//! later in bulk, bit-identically. The `ClockSet` driver in `crate::sim`
//! uses this to park quiescent domain clocks and fast-forward them to the
//! next wake event; [`Pipeline::take_wake_mask`] surfaces the wake edges
//! (channel pushes into the domain, a fetch-side L2 touch for the memory
//! cluster). The general-engine oracle never elides, and the differential
//! tests pin that the two reports stay bit-identical — see the idle-tick
//! elision contract in `gals_events`.
//!
//! ## Modelling notes (divergences from RTL truth)
//!
//! * Branch predictor training happens at fetch (immediate update) rather
//!   than at resolution; the misprediction *penalty* is still paid through
//!   the resolve-and-redirect loop. Identical in both machines.
//! * Wakeup tags crossing domains use generously sized channels (the bypass
//!   network is not a literal queue); a stale in-flight wakeup can in rare
//!   interleavings mark a freshly reallocated register ready a few cycles
//!   early. The effect is orders of magnitude below the FIFO latencies
//!   being measured.
//! * The store buffer drains logically at commit; the cache write is
//!   charged at issue time.

use std::collections::VecDeque;

use gals_clocks::{Channel, Domain, PausibleModel};
use gals_events::Time;
use gals_isa::{Cluster, DynStream, Inst, OpClass, Program, EXIT_PC};
use gals_power::{MacroBlock, PowerAccountant};
use gals_uarch::{BranchPredictor, Cache, FuPool, IssueQueue, RenameUnit, Rob, StoreBuffer};

use crate::config::{Clocking, ProcessorConfig, SimLimits};
use crate::error::{DeadlockReport, DeadlockTrigger, PortState};
use crate::inflight::{
    BranchInfo, FetchedInstr, InFlightTable, InstrId, Redirect, SrcTags, Tag, TAG_SPACE,
};
use crate::report::SimReport;

/// Salt mixed into wrong-path memory-address hashing so speculative loads
/// touch plausible but distinct addresses.
const WRONG_PATH_SALT: u64 = 0xD00D_F00D_5EED_0001;

/// Clock domain of each execution cluster, indexed like `Pipeline::clusters`.
const CLUSTER_DOMAINS: [Domain; 3] = [Domain::IntCluster, Domain::FpCluster, Domain::MemCluster];

/// `wakeup_interest` flag: the producer of this tag has already run its
/// writeback broadcast (bits 0..=2 hold per-cluster consumer interest).
const WAKEUP_DONE: u8 = 1 << 7;

/// A `TAG_SPACE`-wide bitset: cluster-local operand availability packed
/// 64 tags per word (two cache lines instead of a 1 KB byte array — the
/// rename stage writes one bit in every cluster's view per destination,
/// so density matters).
struct ReadyBits([u64; TAG_SPACE / 64]);

impl ReadyBits {
    fn all_ready() -> Self {
        ReadyBits([u64::MAX; TAG_SPACE / 64])
    }

    #[inline]
    fn get(&self, idx: usize) -> bool {
        self.0[idx >> 6] & (1 << (idx & 63)) != 0
    }

    #[inline]
    fn set(&mut self, idx: usize) {
        self.0[idx >> 6] |= 1 << (idx & 63);
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        self.0[idx >> 6] &= !(1 << (idx & 63));
    }
}

/// One execution cluster (domains 3, 4, 5).
struct ClusterState {
    domain: Domain,
    iq: IssueQueue,
    fus: FuPool,
    /// Cluster-local operand availability, indexed by `Tag::index`.
    ready: ReadyBits,
    /// `(done_at_local_cycle, seq, id)` of instructions in execution.
    executing: Vec<(u64, u64, InstrId)>,
    /// A lower bound on the earliest `done_at_local_cycle` in `executing`
    /// (`u64::MAX` when nothing executes): writeback scans `executing`
    /// only from this cycle on. Squashes leave it stale-low, which only
    /// costs one scan.
    next_done: u64,
    /// Local cycle counter.
    cycle: u64,
    /// Per-tick scratch: instructions finishing execution this cycle,
    /// `(seq, id)`. Hoisted out of `tick_cluster` so the steady-state path
    /// allocates nothing.
    finished_scratch: Vec<(u64, InstrId)>,
    /// Per-tick scratch: tokens picked by issue selection.
    picked_scratch: Vec<u64>,
    /// Per-tick scratch: `(token, seq, latency)` of admitted instructions.
    latency_scratch: Vec<(u64, u64, u64)>,
    /// Rendezvous mode only: finished executions whose writeback is parked
    /// on an occupied outbound port (completion, wakeup or redirect), as
    /// `(seq, id)` in program order. Retried every tick; always empty in
    /// the latched machines.
    writeback_pending: Vec<(u64, InstrId)>,
}

impl ClusterState {
    fn new(domain: Domain, iq_size: usize, fu_count: u32, rob_size: usize) -> Self {
        ClusterState {
            domain,
            iq: IssueQueue::new(iq_size),
            fus: FuPool::new(fu_count),
            ready: ReadyBits::all_ready(),
            // In-flight executions are bounded by the ROB (everything
            // executing holds a ROB entry); sizing to that bound keeps the
            // steady-state loop allocation-free even when a burst of
            // long-latency misses piles up.
            executing: Vec::with_capacity(rob_size),
            next_done: u64::MAX,
            cycle: 0,
            finished_scratch: Vec::with_capacity(rob_size),
            picked_scratch: Vec::with_capacity(2 * fu_count as usize),
            latency_scratch: Vec::with_capacity(2 * fu_count as usize),
            writeback_pending: Vec::with_capacity(rob_size),
        }
    }
}

/// The complete microarchitectural state of one simulated processor.
///
/// Driven by the event engine: each domain's periodic clock event calls
/// [`Pipeline::tick`].
pub struct Pipeline<'p> {
    program: &'p Program,
    cfg: ProcessorConfig,
    limits: SimLimits,

    // ---- front end (domain 1) ----
    stream: DynStream<'p>,
    peeked: Option<gals_isa::DynInst>,
    fetch_pc: u64,
    wrong_path: bool,
    wrong_pc: u64,
    fetch_halted: bool,
    icache: Cache,
    bpred: BranchPredictor,
    icache_stall: u32,
    /// `log2(l1i line bytes)` — the per-fetch line-boundary check is a
    /// shift, not a division.
    l1i_line_shift: u32,

    // ---- decode/rename/commit (domain 2) ----
    decode_buf: VecDeque<InstrId>,
    rename: RenameUnit,
    /// Enforces program order only: completion is tracked on the in-flight
    /// table (the `completed` hot flag), so `Rob::complete`/`RobStatus` are
    /// deliberately not driven here — the head is popped with
    /// [`Rob::pop_head`] once its in-flight entry reports complete. Do not
    /// read this ROB's per-entry status.
    rob: Rob<InstrId>,
    decode_cycle: u64,

    // ---- clusters (domains 3, 4, 5) ----
    clusters: [ClusterState; 3],
    store_buffer: StoreBuffer,
    dcache: Cache,
    l2: Cache,
    l2_touched: bool,

    // ---- channels ----
    ch_fetch_decode: Channel<InstrId>,
    ch_dispatch: [Channel<InstrId>; 3],
    ch_complete: [Channel<InstrId>; 3],
    /// Wakeup tag channels `[from][to]` (diagonal unused).
    ch_wakeup: [[Channel<Tag>; 3]; 3],
    ch_redirect: Channel<Redirect>,

    // ---- bookkeeping ----
    inflight: InFlightTable,
    next_seq: u64,
    /// The one unresolved-recovery mispredicted branch (see module docs of
    /// `inflight`): set at resolution, cleared when fetch recovers.
    pending_recovery: Option<u64>,
    committed: u64,
    fetched: u64,
    wrong_path_fetched: u64,
    /// Reusable recovery scratch for the ROB squash walk, so branch
    /// recovery allocates nothing even under branchy sweep workloads.
    rob_squash_scratch: Vec<InstrId>,
    /// Reusable recovery scratch for the IQ squash walks (opaque tokens).
    squash_scratch: Vec<u64>,
    slip_total: Time,
    slip_fifo: Time,
    store_forwards_total: u64,
    issued_total: u64,
    issued_wrong_path: u64,
    /// Pausible clocking: handshake duration charged to both endpoint
    /// clocks per inter-domain transfer; `None` in the synchronous and
    /// FIFO-GALS machines.
    stretch_handshake: Option<Time>,
    /// Rendezvous pausible mode (`PausibleModel::Rendezvous`): every
    /// inter-domain channel is a single-entry rendezvous port and the push
    /// sites park-and-retry against an occupied port. `false` everywhere
    /// else (the counters below then stay zero).
    rendezvous: bool,
    /// Cycles in which a domain's stage made *no* progress because its
    /// rendezvous port was occupied (fetch pushed nothing, decode renamed
    /// nothing, a cluster wrote back nothing — at most one per domain per
    /// tick), indexed by [`Domain::index`]. Rendezvous mode only.
    rendezvous_blocked: [u64; 5],
    /// Stretch time accumulated since the driver last drained it, indexed
    /// by [`Domain::index`].
    pending_stretch: [Time; 5],
    /// Fast-path flag: whether `pending_stretch` holds anything.
    stretch_pending: bool,
    /// Lifetime stretch-event count per domain (each transfer counts once
    /// at each endpoint).
    stretch_events: [u64; 5],
    /// Lifetime stretch time per domain.
    stretch_time: [Time; 5],
    /// Wakeup-coalescing state (pausible + `coalesce_wakeup_stretch` only):
    /// the last producer-cluster cycle in which a wakeup handshake was
    /// charged on link `[from][to]`. Further wakeup tags pushed on the same
    /// link in the same cycle ride the already-paid handshake.
    wakeup_stretch_cycle: [[u64; 3]; 3],
    /// Producer-side dependence-filter state per wakeup tag (all zero
    /// unless `cfg.cross_cluster_wakeup_filter`): bits 0..=2 record which
    /// clusters renamed a consumer of the tag's current allocation;
    /// [`WAKEUP_DONE`] records that the producer's writeback broadcast has
    /// already run.
    ///
    /// Deadlock-freedom: a consumer renamed *before* the producer's
    /// writeback registers interest here, so the wakeup is delivered to its
    /// cluster; a consumer renamed *after* sees [`WAKEUP_DONE`] and marks
    /// the operand ready in its cluster view at rename (the busy-bit table
    /// read real rename stages do — the value is in the register file by
    /// then). Either way every dependent observes the wakeup.
    wakeup_interest: Box<[u8]>,
    halted: bool,
    last_commit_time: Time,
    /// Precomputed watchdog window (`max domain period × watchdog_cycles`);
    /// `Time::MAX` disables (the per-tick check is a compare, not a scan).
    watchdog_span: Time,
    /// Set (once) when the machine is detected wedged — by the commit
    /// watchdog or by the driver's all-parked check. [`Pipeline::done`]
    /// then reports the run finished so both drivers exit their loops, and
    /// they surface the report as `SimError::Deadlock` instead of a
    /// `SimReport`.
    deadlock: Option<Box<DeadlockReport>>,
    /// The static analyzer's pre-flight verdict (worst warning's code),
    /// stamped by the drivers so a deadlock report can cross-reference
    /// it. Cold: read only when a report is built.
    static_finding: Option<String>,
    fetch_cycles: u64,
    pub(crate) accountant: PowerAccountant,
    now: Time,

    // ---- idle-tick elision (ClockSet driver only; see module docs) ----
    /// Domains whose parked clock must wake now, as a `1 << Domain::index`
    /// mask. Raised by channel pushes into the domain and by the fetch-side
    /// L2 touch; drained by the driver after every tick.
    wake_mask: u8,
    /// Domains whose tick just ended quiescent, as a `1 << Domain::index`
    /// mask: each tick re-evaluates its own cheap quiescence conditions on
    /// the way out (the activity flags are already at hand), so the driver
    /// parks on the first idle tick instead of polling
    /// [`Pipeline::quiescent`].
    quiesced_mask: u8,
    /// Driver-maintained mirror of which domain clocks are parked.
    parked: [bool; 5],
    /// Why fetch parked (see [`Pipeline::set_parked`]): `true` when it was
    /// blocked on a full fetch→decode channel, so elided ticks replay as
    /// repeated I-cache hits instead of idle cycles.
    fetch_park_blocked: bool,
    /// ROB and RAT occupancies frozen when decode parked: the elided
    /// decode ticks sample these values (a recovery squash in the very
    /// instant decode is woken mutates both, but strictly after every
    /// elided tick).
    decode_park_occ: (usize, u32),
    /// Why decode parked (rendezvous mode only): `true` when the rename
    /// head was blocked on a saturated dispatch rendezvous port, so every
    /// elided decode tick replays one `rendezvous_blocked` cycle (the live
    /// tick's rename loop would have broken at the port).
    decode_park_blocked: bool,
    /// Per-channel cursors over a *parked* cluster's virtual edge grid —
    /// `[from][to]`, the next edge at or after the channel's last replayed
    /// wakeup pop. Each channel's pops replay in time order (cross-channel
    /// interleaving is irrelevant: only the per-pop edge matters), so
    /// advancing a cursor by whole periods replaces a ceiling division
    /// per pop.
    virtual_edge: [[Time; 3]; 3],
    /// Fetch-side L2 touches charged while the memory cluster is parked:
    /// the number of distinct (elided) memory-cluster edges that would
    /// have consumed the `l2_touched` flag, and the last such edge. The
    /// accountant is count-based, so replaying these as active-L2 cycles
    /// at unpark is bit-identical to the unelided schedule (see
    /// `replay_idle`).
    parked_l2_charges: u64,
    parked_l2_last_edge: Time,
    /// Per-domain `(first edge, period)` when the clock grids are static
    /// (synchronous and FIFO-GALS machines); `None` under pausible
    /// clocking, whose stretches shift the grids. A static grid lets a
    /// *parked* cluster keep absorbing broadcast wakeup tags exactly: the
    /// elided pop times are computable, so tag pops are replayed at decode
    /// ticks (before any rename touches the ready bits) instead of waking
    /// the cluster — see [`Pipeline::catch_up_parked_wakeups`].
    static_grid: Option<[(Time, Time); 5]>,
}

impl<'p> Pipeline<'p> {
    /// Builds the pipeline for a program under a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(program: &'p Program, cfg: ProcessorConfig, limits: SimLimits) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid processor configuration: {e}"));
        let u = &cfg.uarch;
        let mk_data_channel = |from: Domain, to: Domain, cap: usize| -> Channel<InstrId> {
            Self::make_channel(&cfg, from, to, cap)
        };
        let clusters = [
            ClusterState::new(Domain::IntCluster, u.int_iq_size, u.int_alus, u.rob_size),
            ClusterState::new(Domain::FpCluster, u.fp_iq_size, u.fp_alus, u.rob_size),
            ClusterState::new(Domain::MemCluster, u.mem_iq_size, u.mem_ports, u.rob_size),
        ];
        let ch_dispatch = std::array::from_fn(|i| {
            mk_data_channel(Domain::Decode, CLUSTER_DOMAINS[i], cfg.channel_capacity)
        });
        let ch_complete = std::array::from_fn(|i| {
            mk_data_channel(
                CLUSTER_DOMAINS[i],
                Domain::Decode,
                cfg.side_channel_capacity,
            )
        });
        let ch_wakeup = std::array::from_fn(|from| {
            std::array::from_fn(|to| {
                Self::make_channel::<Tag>(
                    &cfg,
                    CLUSTER_DOMAINS[from],
                    CLUSTER_DOMAINS[to],
                    cfg.side_channel_capacity,
                )
            })
        });
        let mut accountant = PowerAccountant::new(cfg.energy.clone());
        if cfg.clocking.is_synchronous() {
            if cfg.dvfs.is_active() {
                accountant.set_global_voltage_factor(cfg.dvfs.energy_factor(Domain::Fetch));
            }
        } else {
            // GALS and pausible machines scale supplies per domain.
            for d in Domain::ALL {
                accountant.set_domain_voltage_factor(d, cfg.dvfs.energy_factor(d));
            }
        }

        let mut stream = DynStream::new(program);
        let peeked = stream.next();
        let fetch_pc = peeked.as_ref().map_or(EXIT_PC, |d| d.pc);
        let static_grid = match &cfg.clocking {
            Clocking::Pausible { .. } => None,
            _ => Some(std::array::from_fn(|i| {
                let clock = cfg.clocking.domain_clock(Domain::ALL[i]);
                (clock.phase, clock.period)
            })),
        };

        Pipeline {
            ch_fetch_decode: mk_data_channel(Domain::Fetch, Domain::Decode, cfg.channel_capacity),
            ch_redirect: Self::make_channel(
                &cfg,
                Domain::IntCluster,
                Domain::Fetch,
                cfg.side_channel_capacity,
            ),
            ch_dispatch,
            ch_complete,
            ch_wakeup,
            icache: Cache::new(u.l1i),
            bpred: BranchPredictor::new(u.bpred),
            icache_stall: 0,
            l1i_line_shift: u.l1i.line_bytes.trailing_zeros(),
            decode_buf: VecDeque::with_capacity(2 * u.decode_width as usize),
            rename: RenameUnit::new(u.int_phys_regs, u.fp_phys_regs, u.max_branches),
            rob: Rob::new(u.rob_size),
            decode_cycle: 0,
            clusters,
            store_buffer: StoreBuffer::new(u.store_buffer_size),
            dcache: Cache::new(u.l1d),
            l2: Cache::new(u.l2),
            l2_touched: false,
            inflight: InFlightTable::with_capacity(
                u.rob_size
                    + 2 * u.decode_width as usize
                    + cfg.channel_capacity
                    + u.fetch_width as usize
                    + 8,
            ),
            next_seq: 0,
            pending_recovery: None,
            committed: 0,
            fetched: 0,
            wrong_path_fetched: 0,
            rob_squash_scratch: Vec::with_capacity(u.rob_size),
            squash_scratch: Vec::with_capacity(u.int_iq_size.max(u.fp_iq_size).max(u.mem_iq_size)),
            slip_total: Time::ZERO,
            slip_fifo: Time::ZERO,
            store_forwards_total: 0,
            issued_total: 0,
            issued_wrong_path: 0,
            stretch_handshake: match &cfg.clocking {
                Clocking::Pausible { model, .. } => Some(model.handshake),
                _ => None,
            },
            rendezvous: matches!(
                &cfg.clocking,
                Clocking::Pausible {
                    transfer: PausibleModel::Rendezvous,
                    ..
                }
            ),
            rendezvous_blocked: [0; 5],
            pending_stretch: [Time::ZERO; 5],
            stretch_pending: false,
            stretch_events: [0; 5],
            stretch_time: [Time::ZERO; 5],
            wakeup_stretch_cycle: [[0; 3]; 3],
            wakeup_interest: vec![0u8; TAG_SPACE].into_boxed_slice(),
            halted: false,
            last_commit_time: Time::ZERO,
            watchdog_span: if limits.watchdog_cycles > 0 {
                cfg.clocking.max_period() * limits.watchdog_cycles
            } else {
                Time::MAX
            },
            deadlock: None,
            static_finding: None,
            fetch_cycles: 0,
            accountant,
            stream,
            peeked,
            fetch_pc,
            wrong_path: false,
            wrong_pc: EXIT_PC,
            fetch_halted: false,
            program,
            cfg,
            limits,
            now: Time::ZERO,
            wake_mask: 0,
            quiesced_mask: 0,
            parked: [false; 5],
            fetch_park_blocked: false,
            decode_park_occ: (0, 0),
            decode_park_blocked: false,
            virtual_edge: [[Time::ZERO; 3]; 3],
            parked_l2_charges: 0,
            parked_l2_last_edge: Time::MAX,
            static_grid,
        }
    }

    fn make_channel<T: Copy>(
        cfg: &ProcessorConfig,
        from: Domain,
        to: Domain,
        cap: usize,
    ) -> Channel<T> {
        match &cfg.clocking {
            Clocking::Synchronous(_) => Channel::sync_latch(cap),
            Clocking::Gals(clocks) => {
                let fwd = clocks[to.index()].period.scale(cfg.fifo_sync_periods);
                let bwd = clocks[from.index()].period.scale(cfg.fifo_sync_periods);
                Channel::mixed_clock_fifo(cap, fwd, bwd)
            }
            // Pausible clocking has no synchronisers: the transfer happens
            // with both clocks held, so the timing cost is paid as clock
            // stretch (see `note_transfer`). The latched model keeps the
            // full latch capacity (only timing is charged); the rendezvous
            // model strips every crossing to a single-entry port, so the
            // capacity cost of unbuffered handshakes is charged too.
            Clocking::Pausible { transfer, .. } => match transfer {
                PausibleModel::Latched => Channel::sync_latch(cap),
                PausibleModel::Rendezvous => Channel::rendezvous(),
            },
        }
    }

    /// Raises the wake edge of a domain. Gated on the domain actually
    /// being parked, so the steady-state (nothing parked) cost is one
    /// predictable branch and the driver's wake drain stays empty.
    #[inline]
    fn note_wake(&mut self, domain: Domain) {
        if self.parked[domain.index()] {
            self.wake_mask |= 1 << domain.index();
        }
    }

    /// Records one inter-domain transfer in pausible mode: both endpoint
    /// clocks stretch their current phase by the handshake duration while
    /// the arbiters settle and the data crosses (the paper's section-3.2
    /// objection, simulated). A transaction is charged at the *push*; the
    /// consumer-side pop reads a latch that is already local and costs
    /// nothing extra. No-op in the synchronous and FIFO-GALS machines.
    #[inline]
    fn note_transfer(&mut self, from: Domain, to: Domain) {
        let Some(handshake) = self.stretch_handshake else {
            return;
        };
        for d in [from, to] {
            let i = d.index();
            self.pending_stretch[i] += handshake;
            self.stretch_events[i] += 1;
            self.stretch_time[i] += handshake;
        }
        self.stretch_pending = true;
    }

    /// Records one cross-cluster wakeup transfer, coalescing the pausible
    /// handshake charge: with `coalesce_wakeup_stretch` on, all wakeup tags
    /// a producer cluster pushes onto one link within one local cycle share
    /// a single handshake (the arbitration is won once and the tag batch
    /// crosses together) instead of stretching both clocks once per tag.
    /// The tags themselves still travel individually. No-op difference
    /// outside pausible mode, where `note_transfer` charges nothing.
    #[inline]
    fn note_wakeup_transfer(&mut self, ci: usize, to: usize) {
        if self.stretch_handshake.is_some() && self.cfg.coalesce_wakeup_stretch {
            let cycle = self.clusters[ci].cycle;
            if self.wakeup_stretch_cycle[ci][to] == cycle {
                return;
            }
            self.wakeup_stretch_cycle[ci][to] = cycle;
        }
        self.note_transfer(CLUSTER_DOMAINS[ci], CLUSTER_DOMAINS[to]);
    }

    /// Drains the clock-stretch requests accumulated by pausible-mode
    /// transfers since the last call, indexed by [`Domain::index`]. The
    /// driver applies them to its scheduler — [`gals_events::ClockSet`]
    /// slots or [`gals_events::Engine`] periodic events — after the tick
    /// that produced them. Returns `None` when nothing is pending (always,
    /// outside pausible mode).
    pub fn take_stretch_requests(&mut self) -> Option<[Time; 5]> {
        if !self.stretch_pending {
            return None;
        }
        self.stretch_pending = false;
        Some(std::mem::take(&mut self.pending_stretch))
    }

    /// Drains the wake edges raised since the last call, as a
    /// `1 << Domain::index` mask. The `ClockSet` driver unparks (and
    /// back-fills, via [`Pipeline::replay_idle`]) any parked domain whose
    /// bit is set; bits for running domains are meaningless and ignored.
    #[inline]
    pub fn take_wake_mask(&mut self) -> u8 {
        std::mem::take(&mut self.wake_mask)
    }

    /// Drains the quiescent-tick reports raised since the last call, as a
    /// `1 << Domain::index` mask (see `quiesced_mask`). A set bit means
    /// the domain's most recent tick ended with [`Pipeline::quiescent`]
    /// true — the driver may park its clock.
    #[inline]
    pub fn take_quiesced_mask(&mut self) -> u8 {
        std::mem::take(&mut self.quiesced_mask)
    }

    /// True once the run is finished (instruction budget met, program
    /// fully drained, or a deadlock was detected — see
    /// [`Pipeline::take_deadlock`]).
    pub fn done(&self) -> bool {
        self.halted || self.committed >= self.limits.max_insts || self.deadlock.is_some()
    }

    /// Committed instructions so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    // ------------------------------------------------------------------
    // Quiescence, parking and idle-tick replay (ClockSet driver support)
    // ------------------------------------------------------------------

    /// True when `domain`'s next tick is provably a pure idle tick — and
    /// will stay one until a wake edge ([`Pipeline::take_wake_mask`])
    /// arrives from another domain. The driver may then park the domain's
    /// clock and later replay the elided ticks with
    /// [`Pipeline::replay_idle`].
    ///
    /// This is the conservative core predicate. The actual park decisions
    /// come from each tick's own quiescence report
    /// ([`Pipeline::take_quiesced_mask`]): the fetch and cluster ticks
    /// report exactly this predicate, while the decode tick reports a
    /// *wider* condition — it may also park with a non-empty ROB or
    /// decode buffer when this tick did nothing and the stalled rename
    /// head waits on a resource only another domain's (wake-raising)
    /// push or pop can release; see `decode_stall_is_external` in
    /// `tick_decode`.
    ///
    /// The conditions here are conservative by construction:
    ///
    /// * every domain: no pending (undrained) pausible stretch;
    /// * fetch: no redirect in flight, no I-cache fill counting down, and
    ///   nothing to fetch (front end halted, recovery pending, or the
    ///   cursor parked at the exit sentinel) — a fetch stalled on a *full*
    ///   output channel still probes the I-cache every cycle, so it is
    ///   never quiescent;
    /// * decode: ROB, decode buffer and every inbound channel empty;
    /// * clusters: issue queue, execution list, port-parked writeback
    ///   list (rendezvous mode) and inbound dispatch
    ///   channel empty — plus, for the memory cluster, no store-buffer
    ///   residue and no pending fetch-side L2 touch. Inbound *wakeup-tag*
    ///   channels must also be empty under pausible clocking; with static
    ///   clock grids the elided tag pops are replayed exactly instead
    ///   (see `Pipeline::catch_up_parked_wakeups`).
    pub fn quiescent(&self, domain: Domain) -> bool {
        if self.pending_stretch[domain.index()] > Time::ZERO {
            return false;
        }
        match domain {
            Domain::Fetch => {
                let pc = if self.wrong_path {
                    self.wrong_pc
                } else {
                    self.fetch_pc
                };
                self.ch_redirect.is_empty()
                    && self.icache_stall == 0
                    && (self.fetch_halted
                        || self.pending_recovery.is_some()
                        || pc == EXIT_PC
                        // Blocked on a full output channel: occupancy alone
                        // blocks the producer (no full-flag sync can clear
                        // without a pop, which wakes us), and each blocked
                        // tick is a repeated same-line I-cache hit — pure,
                        // replayable activity as long as the line is
                        // resident.
                        || (self.ch_fetch_decode.len() >= self.ch_fetch_decode.capacity()
                            && self.icache.probe(pc)))
            }
            Domain::Decode => {
                self.rob.is_empty()
                    && self.decode_buf.is_empty()
                    && self.ch_fetch_decode.is_empty()
                    && self.ch_complete.iter().all(|c| c.is_empty())
            }
            Domain::IntCluster | Domain::FpCluster | Domain::MemCluster => {
                let ci = domain.index() - 2;
                let cl = &self.clusters[ci];
                cl.iq.is_empty()
                    && cl.executing.is_empty()
                    && cl.writeback_pending.is_empty()
                    && self.ch_dispatch[ci].is_empty()
                    && (self.static_grid.is_some()
                        || (0..3).all(|from| from == ci || self.ch_wakeup[from][ci].is_empty()))
                    && (ci != 2 || (!self.l2_touched && self.store_buffer.is_empty()))
            }
        }
    }

    /// Records that the driver parked / unparked `domain`'s clock (the
    /// pipeline needs the mirror to route broadcast wakeup tags around a
    /// parked cluster — see `Pipeline::catch_up_parked_wakeups`).
    pub fn set_parked(&mut self, domain: Domain, parked: bool) {
        self.parked[domain.index()] = parked;
        if parked && domain.index() >= 2 {
            if let Some(grids) = self.static_grid {
                // First elided edge: parking happens at the cluster's own
                // tick, so its next edge is strictly after `now`.
                let (phase, period) = grids[domain.index()];
                let first = grid_ceil(phase, period, self.now + Time::from_fs(1));
                let ci = domain.index() - 2;
                for from in 0..3 {
                    self.virtual_edge[from][ci] = first;
                }
            }
        }
        if domain == Domain::Decode && parked {
            self.decode_park_occ = (
                self.rob.len(),
                self.rename.int_occupancy() + self.rename.fp_occupancy(),
            );
            // Remember whether the rename head parked on a saturated
            // dispatch rendezvous port: every elided decode tick would
            // have broken at that port and charged one blocked cycle.
            // The state this reads cannot change while the clock is
            // parked (the releasing pop raises a decode wake).
            self.decode_park_blocked = self.rendezvous && self.decode_head_blocked_on_port();
        }
        if domain == Domain::Fetch && parked {
            // Remember *why* fetch parked: a fetch blocked on a full
            // output channel replays active (repeat-hit) I-cache cycles,
            // an empty front end replays idle ones. The state this reads
            // cannot change while the clock is parked.
            let pc = if self.wrong_path {
                self.wrong_pc
            } else {
                self.fetch_pc
            };
            self.fetch_park_blocked =
                !(self.fetch_halted || self.pending_recovery.is_some() || pc == EXIT_PC);
        }
    }

    /// Number of fetch ticks that are provably pure I-cache-fill countdown
    /// — the whole remaining stall, when no redirect can arrive during it
    /// (no misprediction is outstanding, so nothing can be pushed into the
    /// redirect channel). The driver may skip that many fetch edges
    /// wholesale and apply them through [`Pipeline::replay_fetch_stall`];
    /// each skipped tick would only have decremented the stall counter and
    /// charged one active-I-cache cycle. Returns 0 when the next fetch
    /// tick does anything else.
    pub fn fetch_stall_skip(&self) -> u32 {
        if self.icache_stall > 1
            && !self.wrong_path
            && self.pending_recovery.is_none()
            && self.ch_redirect.is_empty()
            && self.pending_stretch[Domain::Fetch.index()] == Time::ZERO
        {
            // Leave the final countdown tick to run live: it is the edge
            // whose successor resumes real fetching, and running it keeps
            // the skip logic trivially off the resume path.
            self.icache_stall - 1
        } else {
            0
        }
    }

    /// Applies `ticks` skipped I-cache-stall fetch ticks in O(1): the
    /// stall counter advances and each tick charges exactly what the live
    /// countdown tick charges (domain + global grids, *active* I-cache,
    /// idle branch predictor). Exact-integer counts, so the bulk
    /// application is bit-identical to the live schedule.
    pub fn replay_fetch_stall(&mut self, ticks: u32) {
        if ticks == 0 {
            return;
        }
        debug_assert!(ticks < self.icache_stall, "skip must leave a live tick");
        self.icache_stall -= ticks;
        let n = u64::from(ticks);
        self.fetch_cycles += n;
        self.accountant.tick_domain_n(Domain::Fetch, n);
        if self.cfg.clocking.is_synchronous() {
            self.accountant.tick_global_n(n);
        }
        self.accountant.block_cycles_n(MacroBlock::ICache, true, n);
        self.accountant
            .block_cycles_n(MacroBlock::BranchPredictor, false, n);
    }

    /// Replays `ticks` elided idle ticks of a parked domain in O(1):
    /// exactly the counter, idle-energy and occupancy-sample updates the
    /// real ticks would have performed while the domain was quiescent.
    /// All of these are exact integer counts (the accountant defers the
    /// energy arithmetic to report time), so the bulk application is
    /// bit-identical to the unelided schedule.
    ///
    /// `next_edge` is the first edge that will dispatch live (from
    /// `ClockSet::unpark`/`drain_parked`): the memory cluster uses it to
    /// decide whether the last deferred fetch-side L2 charge belongs to an
    /// elided edge or to the live tick about to run.
    pub fn replay_idle(&mut self, domain: Domain, ticks: u64, next_edge: Time) {
        if domain == Domain::MemCluster {
            // Deferred fetch-side L2 touches: every deferred charge whose
            // consuming edge was elided becomes an active-L2 cycle in the
            // replay; a charge pinned to `next_edge` (or later) is handed
            // back to the live tick through the still-set `l2_touched`
            // flag. Counts, not floats — bit-identical either way.
            let mut active = self.parked_l2_charges;
            if active > 0 {
                if self.parked_l2_last_edge >= next_edge {
                    active -= 1; // consumed by the live tick via l2_touched
                } else {
                    self.l2_touched = false; // all consumed among elided
                }
            }
            self.parked_l2_charges = 0;
            self.parked_l2_last_edge = Time::MAX;
            debug_assert!(active <= ticks, "more L2 charges than elided edges");
            if ticks == 0 {
                return;
            }
            self.clusters[2].cycle += ticks;
            self.accountant.tick_domain_n(domain, ticks);
            self.clusters[2].iq.sample_occupancy_n(ticks);
            self.accountant
                .block_cycles_n(MacroBlock::MemIssueWindow, false, ticks);
            self.accountant
                .block_cycles_n(MacroBlock::DCache, false, ticks);
            self.accountant
                .block_cycles_n(MacroBlock::L2Cache, true, active);
            self.accountant
                .block_cycles_n(MacroBlock::L2Cache, false, ticks - active);
            self.store_buffer.sample_occupancy_n(ticks);
            return;
        }
        if ticks == 0 {
            return;
        }
        match domain {
            Domain::Fetch => {
                self.fetch_cycles += ticks;
                self.accountant.tick_domain_n(Domain::Fetch, ticks);
                if self.cfg.clocking.is_synchronous() {
                    self.accountant.tick_global_n(ticks);
                }
                if self.fetch_park_blocked {
                    // Blocked-on-full-channel flavour: every elided tick
                    // re-accessed the resident line and charged an active
                    // I-cache cycle — and, on a rendezvous port, counted
                    // one blocked cycle at the failed `can_push`.
                    if self.rendezvous {
                        self.rendezvous_blocked[Domain::Fetch.index()] += ticks;
                    }
                    let pc = if self.wrong_path {
                        self.wrong_pc
                    } else {
                        self.fetch_pc
                    };
                    self.icache.record_repeat_hits(pc, ticks);
                    self.accountant
                        .block_cycles_n(MacroBlock::ICache, true, ticks);
                } else {
                    self.accountant
                        .block_cycles_n(MacroBlock::ICache, false, ticks);
                }
                self.accountant
                    .block_cycles_n(MacroBlock::BranchPredictor, false, ticks);
            }
            Domain::Decode => {
                self.decode_cycle += ticks;
                // Parked on a saturated dispatch rendezvous port: each
                // elided tick's rename loop would have broken at the port
                // and counted one blocked cycle.
                if self.decode_park_blocked {
                    self.rendezvous_blocked[Domain::Decode.index()] += ticks;
                }
                self.accountant.tick_domain_n(Domain::Decode, ticks);
                self.accountant
                    .block_cycles_n(MacroBlock::RenameLogic, false, ticks);
                self.accountant
                    .block_cycles_n(MacroBlock::RegisterFile, false, ticks);
                // Occupancies frozen at park time: the live values may
                // already reflect the squash of the recovery that woke us,
                // which lands strictly after every elided tick.
                let (rob_occ, rat_occ) = self.decode_park_occ;
                self.rename.sample_occupancy_n_at(rat_occ, ticks);
                self.rob.sample_occupancy_n_at(rob_occ, ticks);
            }
            Domain::IntCluster | Domain::FpCluster => {
                let ci = domain.index() - 2;
                let (iq_block, alu_block) = if ci == 0 {
                    (MacroBlock::IntIssueWindow, MacroBlock::IntAlus)
                } else {
                    (MacroBlock::FpIssueWindow, MacroBlock::FpAlus)
                };
                self.clusters[ci].cycle += ticks;
                self.accountant.tick_domain_n(domain, ticks);
                self.clusters[ci].iq.sample_occupancy_n(ticks);
                self.accountant.block_cycles_n(iq_block, false, ticks);
                self.accountant.block_cycles_n(alu_block, false, ticks);
            }
            Domain::MemCluster => unreachable!("handled above"),
        }
    }

    /// Replays the broadcast wakeup-tag pops a parked cluster's elided
    /// ticks would have performed, at their exact unelided pop times.
    ///
    /// With static clock grids (synchronous / FIFO-GALS) a parked
    /// cluster's edge times are known, so for each pending tag the first
    /// edge at which the real tick would have popped it is computable:
    /// the channel supplies the pop-legality bound
    /// ([`Channel::front_pop_bound`]) and a per-channel cursor walks the
    /// cluster's virtual edge grid to the first edge at or past it (the
    /// single-shot closed form is [`Channel::front_pop_time`]). The pop
    /// is replayed with that timestamp, making the channel statistics and
    /// the `ready` bit interleaving bit-identical to the unelided
    /// schedule. Called at the
    /// top of every decode tick — the only other writer of the clusters'
    /// `ready` arrays — with `cutoff = now` (exclusive), and once more at
    /// the end of the run by the driver. A tag popping at an edge *at or
    /// after* the cutoff is left for the next catch-up (or the cluster's
    /// own re-armed tick, which pops it live).
    fn catch_up_parked_wakeups(&mut self, cutoff: Time) {
        if self.static_grid.is_none() {
            return; // pausible: wakeup pushes wake the cluster instead
        }
        for ci in 0..3 {
            if self.parked[ci + 2] {
                self.catch_up_cluster_wakeups(ci, cutoff, false);
            }
        }
    }

    fn catch_up_cluster_wakeups(&mut self, ci: usize, cutoff: Time, inclusive: bool) {
        let Some(grids) = self.static_grid else {
            return;
        };
        let (_, period) = grids[ci + 2];
        for from in 0..3 {
            if from == ci {
                continue;
            }
            loop {
                // Division-free pre-check: if the front tag could not pop
                // before the cutoff on *any* grid, skip the edge walk (the
                // common case on every decode tick).
                let bound = match self.ch_wakeup[from][ci].front_pop_bound() {
                    Some(bound) if bound <= cutoff => bound,
                    _ => break,
                };
                // The pop edge: the first virtual edge at or after the
                // legality bound. Pops replay in time order, so the
                // cursor only ever steps forward — typically by zero or
                // one period.
                let mut e = self.virtual_edge[from][ci];
                while e < bound {
                    e += period;
                }
                self.virtual_edge[from][ci] = e;
                if e > cutoff || (e == cutoff && !inclusive) {
                    break;
                }
                let tag = self.ch_wakeup[from][ci]
                    .try_pop(e)
                    .expect("cursor edge satisfies the pop bound");
                let cl = &mut self.clusters[ci];
                cl.ready.set(tag.index());
                cl.iq.wakeup(tag.as_iq_tag());
            }
        }
    }

    /// End-of-run flush for a still-parked cluster: replays the wakeup-tag
    /// pops of its elided edges up to the final timestamp (`inclusive`
    /// when the cluster's edge at that instant was ordered before the
    /// stopping edge). No-op for non-cluster domains.
    pub fn flush_parked_wakeups(&mut self, domain: Domain, until: Time, inclusive: bool) {
        if domain.index() >= 2 {
            self.catch_up_cluster_wakeups(domain.index() - 2, until, inclusive);
        }
    }

    /// Advances one clock edge of `domain` at absolute time `now`.
    pub fn tick(&mut self, domain: Domain, now: Time) {
        self.now = now;
        match domain {
            Domain::Fetch => self.tick_fetch(),
            Domain::Decode => self.tick_decode(),
            Domain::IntCluster => self.tick_cluster(0),
            Domain::FpCluster => self.tick_cluster(1),
            Domain::MemCluster => self.tick_cluster(2),
        }
    }

    // ------------------------------------------------------------------
    // Domain 1: fetch
    // ------------------------------------------------------------------

    fn tick_fetch(&mut self) {
        let now = self.now;
        self.check_watchdog(now);
        self.fetch_cycles += 1;
        self.accountant.tick_domain(Domain::Fetch);
        // The base machine's global grid toggles once per (shared) cycle;
        // the GALS and pausible machines have no global grid.
        if self.cfg.clocking.is_synchronous() {
            self.accountant.tick_global();
        }

        // 1. Redirect handling (branch recovery).
        while let Some((r, res)) = self.ch_redirect.try_pop_timed(now) {
            // The redirect's residency is pipeline recovery latency; it is
            // charged to the mispredicted branch for slip accounting.
            self.inflight.add_fifo_time(r.branch, res);
            self.process_redirect(r);
        }

        // 2. Fetch.
        let mut icache_active = false;
        let mut bpred_active = false;
        if self.icache_stall > 0 {
            self.icache_stall -= 1;
            icache_active = true;
        } else if !self.fetch_halted && self.pending_recovery.is_none() {
            // Once a misprediction has *resolved*, further wrong-path fetch
            // is gated (the squash broadcast reaches the front end with the
            // redirect); until resolution, fetch honestly runs down the
            // predicted path.
            let pc = if self.wrong_path {
                self.wrong_pc
            } else {
                self.fetch_pc
            };
            if pc != EXIT_PC {
                icache_active = true;
                if self.icache.access(pc) {
                    // One I-cache line per cycle: the fetch group ends at
                    // the line boundary (and at predicted-taken branches).
                    let line = pc >> self.l1i_line_shift;
                    let fetched_before = self.fetched;
                    let mut port_blocked = false;
                    for _ in 0..self.cfg.uarch.fetch_width {
                        let cur = if self.wrong_path {
                            self.wrong_pc
                        } else {
                            self.fetch_pc
                        };
                        if cur == EXIT_PC || cur >> self.l1i_line_shift != line {
                            break;
                        }
                        match self.fetch_one(&mut bpred_active, &mut port_blocked) {
                            FetchOutcome::Continue => {}
                            FetchOutcome::Stop => break,
                        }
                    }
                    // Rendezvous mode: a blocked cycle is a tick in which
                    // fetch produced *nothing* because its output port was
                    // occupied. A parked blocked fetch replays exactly
                    // these (zero-push) ticks — see `replay_idle`.
                    if self.rendezvous && port_blocked && self.fetched == fetched_before {
                        self.rendezvous_blocked[Domain::Fetch.index()] += 1;
                    }
                } else {
                    self.icache_stall = self.l2_fill_latency();
                }
            }
        }
        self.accountant
            .block_cycle(MacroBlock::ICache, icache_active);
        self.accountant
            .block_cycle(MacroBlock::BranchPredictor, bpred_active);
        if self.icache_stall == 0 && self.quiescent(Domain::Fetch) {
            self.quiesced_mask |= 1 << Domain::Fetch.index();
        }
    }

    /// Latency charged for an L1 miss: L2 hit latency, plus memory latency
    /// when L2 also misses. (Shared between I- and D-side.)
    fn l2_fill_latency_for(
        l2: &mut Cache,
        l2_touched: &mut bool,
        addr: u64,
        mem_latency: u32,
    ) -> u32 {
        *l2_touched = true;
        if l2.access(addr) {
            l2.latency()
        } else {
            l2.latency() + mem_latency
        }
    }

    fn l2_fill_latency(&mut self) -> u32 {
        let pc = if self.wrong_path {
            self.wrong_pc
        } else {
            self.fetch_pc
        };
        // A fetch-side L2 touch is consumed by the memory cluster's next
        // tick (it charges the L2 block's activity and resets the flag).
        // With a static clock grid the consuming edge of a *parked* memory
        // cluster is computable, so the charge is deferred and the cluster
        // stays parked; under pausible clocking it must wake instead.
        match self.static_grid {
            Some(grids) => {
                if self.parked[Domain::MemCluster.index()] {
                    let (phase, period) = grids[Domain::MemCluster.index()];
                    // First memory-cluster edge at or after `now`: the
                    // memory cluster's priority orders it after fetch, so
                    // a same-instant edge would consume the flag.
                    let e = grid_ceil(phase, period, self.now);
                    if e != self.parked_l2_last_edge {
                        self.parked_l2_charges += 1;
                        self.parked_l2_last_edge = e;
                    }
                }
            }
            None => self.note_wake(Domain::MemCluster),
        }
        Self::l2_fill_latency_for(
            &mut self.l2,
            &mut self.l2_touched,
            pc,
            self.cfg.uarch.mem_latency,
        )
    }

    fn fetch_one(&mut self, bpred_active: &mut bool, port_blocked: &mut bool) -> FetchOutcome {
        let now = self.now;
        if !self.ch_fetch_decode.can_push(now) {
            // The occupied output port stops the group; the caller counts
            // a rendezvous-blocked cycle only when the whole tick fetched
            // nothing (a partially fetched group made progress).
            *port_blocked = true;
            return FetchOutcome::Stop;
        }
        if self.wrong_path {
            self.fetch_one_wrong_path(bpred_active)
        } else {
            self.fetch_one_correct_path(bpred_active)
        }
    }

    fn fetch_one_correct_path(&mut self, bpred_active: &mut bool) -> FetchOutcome {
        // `take` instead of `clone`: the cursor is re-primed from the stream
        // below on every path that continues fetching.
        let Some(d) = self.peeked.take() else {
            self.fetch_halted = true;
            return FetchOutcome::Stop;
        };
        debug_assert_eq!(d.pc, self.fetch_pc, "front end desynchronised from stream");

        let mut branch_info = None;
        let mut stop_after = false;

        if d.op.is_branch() {
            *bpred_active = true;
            let fallthrough = self.program.next_sequential_pc(d.block, d.index);
            let (predicted_taken, predicted_target) = match d.op {
                OpClass::BranchCond => {
                    let p = self.bpred.predict_cond(d.pc);
                    // Immediate training (see module docs).
                    let train_target = if d.taken { d.next_pc } else { 0 };
                    self.bpred.update_cond(d.pc, d.taken, train_target, p.taken);
                    (p.taken, p.target)
                }
                OpClass::Jump | OpClass::Call => {
                    let p = self.bpred.predict_uncond(d.pc);
                    self.bpred.update_uncond(d.pc, d.next_pc);
                    if d.op == OpClass::Call {
                        self.bpred.push_return(fallthrough);
                    }
                    (true, p.target)
                }
                OpClass::Ret => {
                    let p = self.bpred.predict_return(d.pc);
                    (true, p.target)
                }
                _ => unreachable!("is_branch covers these"),
            };
            // Where fetch believes it should go next.
            let predicted_next = if predicted_taken {
                predicted_target.unwrap_or(fallthrough)
            } else {
                fallthrough
            };
            let mispredicted = predicted_next != d.next_pc;
            branch_info = Some(BranchInfo {
                predicted_taken,
                actual_taken: d.taken,
                recovery_pc: d.next_pc,
                mispredicted,
            });
            if mispredicted {
                self.wrong_path = true;
                self.wrong_pc = predicted_next;
            }
            // Taken (predicted) control transfers end the fetch group.
            stop_after = predicted_taken;
        }

        let seq = self.alloc_seq();
        let static_inst = &self.program.block(d.block).insts[d.index as usize];
        let is_exit = d.is_exit();
        self.push_fetched(Self::make_fetched(
            seq,
            d.pc,
            static_inst,
            false,
            d.mem_addr,
            branch_info,
            is_exit,
            self.now,
        ));

        // Advance the architectural cursor.
        self.fetch_pc = d.next_pc;
        self.peeked = self.stream.next();
        if d.is_exit() {
            self.fetch_halted = true;
            return FetchOutcome::Stop;
        }
        if stop_after || self.wrong_path {
            return FetchOutcome::Stop;
        }
        FetchOutcome::Continue
    }

    fn fetch_one_wrong_path(&mut self, bpred_active: &mut bool) -> FetchOutcome {
        // As in decode, copying the program reference out of self lets the
        // located instruction borrow the program directly — no clone.
        let program = self.program;
        let Some((block, index, inst)) = program.locate(self.wrong_pc) else {
            // Ran off the program on the wrong path: fetch bubbles until
            // the redirect arrives.
            return FetchOutcome::Stop;
        };
        let pc = self.wrong_pc;
        let seq = self.alloc_seq();

        let mut stop_after = false;
        if inst.op.is_branch() {
            *bpred_active = true;
            let fallthrough = self.program.next_sequential_pc(block, index);
            let taken_target = self.program.taken_target_pc(block);
            let (ptaken, ptarget) = match inst.op {
                OpClass::BranchCond => {
                    let p = self.bpred.predict_cond_nospec(pc);
                    (p.taken, p.target)
                }
                OpClass::Jump | OpClass::Call => {
                    let p = self.bpred.predict_uncond(pc);
                    if inst.op == OpClass::Call {
                        self.bpred.push_return(fallthrough);
                    }
                    // Wrong-path fetch may still know the static target.
                    (true, p.target.or(taken_target))
                }
                OpClass::Ret => {
                    let p = self.bpred.predict_return(pc);
                    (true, p.target)
                }
                _ => unreachable!(),
            };
            self.wrong_pc = if ptaken {
                ptarget.unwrap_or(fallthrough)
            } else {
                fallthrough
            };
            stop_after = ptaken;
        } else {
            self.wrong_pc = self.program.next_sequential_pc(block, index);
        }

        let mem_addr = inst.mem.map(|mid| {
            let behavior = self.program.mem_behavior(mid);
            let flat = self.program.flat_index(block, index);
            behavior.address(self.program.seed() ^ WRONG_PATH_SALT, flat, seq)
        });
        // Wrong-path branches never carry misprediction info: they have no
        // architectural outcome and are squashed before resolution matters.
        let branch_info = inst.op.is_branch().then_some(BranchInfo {
            predicted_taken: true,
            actual_taken: false,
            recovery_pc: EXIT_PC,
            mispredicted: false,
        });
        self.push_fetched(Self::make_fetched(
            seq,
            pc,
            inst,
            true,
            mem_addr,
            branch_info,
            false,
            self.now,
        ));

        if stop_after {
            FetchOutcome::Stop
        } else {
            FetchOutcome::Continue
        }
    }

    fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    #[allow(clippy::too_many_arguments)] // one field per argument, built in one place
    fn make_fetched(
        seq: u64,
        pc: u64,
        inst: &Inst,
        wrong_path: bool,
        mem_addr: Option<u64>,
        branch: Option<BranchInfo>,
        is_exit: bool,
        fetched_at: Time,
    ) -> FetchedInstr {
        FetchedInstr {
            seq,
            pc,
            op: inst.op,
            wrong_path,
            arch_dst: inst.dst,
            arch_srcs: [inst.src1, inst.src2],
            mem_addr,
            branch,
            is_exit,
            fetched_at,
        }
    }

    fn push_fetched(&mut self, f: FetchedInstr) {
        let wrong = f.wrong_path;
        let id = self.inflight.insert(f);
        self.ch_fetch_decode
            .try_push(id, self.now)
            .expect("push guarded by can_push");
        self.note_wake(Domain::Decode);
        self.note_transfer(Domain::Fetch, Domain::Decode);
        self.fetched += 1;
        if wrong {
            self.wrong_path_fetched += 1;
        }
    }

    fn process_redirect(&mut self, r: Redirect) {
        // Drop stale redirects for branches already squashed.
        if self.pending_recovery != Some(r.branch_seq) {
            return;
        }
        let now = self.now;
        let bseq = r.branch_seq;

        // Squash younger state everywhere. The walks write into reused
        // scratch buffers: recovery allocates nothing even when mispredicts
        // are frequent (sweep workloads run branchy configurations hot).
        let mut ids = std::mem::take(&mut self.rob_squash_scratch);
        self.rob.squash_younger_into(bseq, &mut ids);
        ids.clear();
        self.rob_squash_scratch = ids;
        let recovered = self.rename.recover(bseq);
        debug_assert!(recovered, "mispredicted branch must hold a checkpoint");
        let mut scratch = std::mem::take(&mut self.squash_scratch);
        for cl in &mut self.clusters {
            cl.iq.squash_younger_into(bseq, &mut scratch);
            cl.executing.retain(|&(_, s, _)| s <= bseq);
            // Rendezvous mode: port-parked writebacks of squashed
            // instructions evaporate too (the list is empty otherwise).
            cl.writeback_pending.retain(|&(s, _)| s <= bseq);
        }
        scratch.clear();
        self.squash_scratch = scratch;
        self.store_buffer.squash_younger(bseq);
        // Flush the handles of squashed instructions out of the decode
        // buffer and the data channels (their table entries are still live
        // here, so the age test reads straight through the handle; a stale
        // handle — impossible today — would flush as squashed too).
        let inflight = &self.inflight;
        let keep = |id: &InstrId| inflight.seq_of(*id).is_some_and(|s| s <= bseq);
        self.decode_buf.retain(keep);
        self.ch_fetch_decode.flush_where(now, keep);
        for ch in &mut self.ch_dispatch {
            ch.flush_where(now, keep);
        }
        for ch in &mut self.ch_complete {
            ch.flush_where(now, keep);
        }
        // Wakeup channels carry register tags, not handles; stale tags are
        // tolerated (module docs).
        self.inflight.remove_younger(bseq);

        // Recovery mutates the ROB and the rename state: a decode parked on
        // a checkpoint/register stall must wake (and back-fill its elided
        // ticks at the pre-squash occupancies it froze when parking).
        self.note_wake(Domain::Decode);

        // Resume correct-path fetch.
        self.wrong_path = false;
        self.wrong_pc = EXIT_PC;
        debug_assert_eq!(
            r.target_pc, self.fetch_pc,
            "recovery target must match the architectural cursor"
        );
        self.icache_stall = 0;
        self.pending_recovery = None;
    }

    // ------------------------------------------------------------------
    // Domain 2: decode, rename, dispatch, commit
    // ------------------------------------------------------------------

    fn tick_decode(&mut self) {
        let now = self.now;
        self.decode_cycle += 1;
        self.accountant.tick_domain(Domain::Decode);

        // 0. Replay the wakeup-tag pops of parked clusters that fall
        // strictly before this tick: the rename stage below writes the
        // clusters' ready bits, and the elided pops must land first (in
        // the unelided schedule they did).
        self.catch_up_parked_wakeups(now);

        // 1. Absorb completions.
        for ci in 0..3 {
            while let Some((id, res)) = self.ch_complete[ci].try_pop_timed(now) {
                // Stale messages for squashed instructions are no-ops.
                self.inflight.complete_with_residency(id, res);
            }
        }

        // 2. Commit. (The budget check keeps runs with different clockings
        // at exactly equal committed counts for paired comparisons.)
        let mut commits = 0;
        while commits < self.cfg.uarch.commit_width && self.committed < self.limits.max_insts {
            let Some((head_seq, _, &head_id)) = self.rob.head() else {
                break;
            };
            // Hold a mispredicted branch at the head until its recovery has
            // executed: the checkpoint must survive, and nothing younger
            // (wrong-path) may commit.
            if self.pending_recovery == Some(head_seq) {
                break;
            }
            // Completion is tracked on the in-flight entry (O(1) hot-flag
            // probe instead of a ROB search per completion message).
            if !self.inflight.is_completed(head_id) {
                break;
            }
            let (seq, id) = self.rob.pop_head().expect("head exists");
            let retired = self
                .inflight
                .remove_retired(id)
                .expect("committing unknown instruction");
            debug_assert!(!retired.wrong_path, "wrong-path instruction reached commit");
            if let Some((arch, _new_tag, old)) = retired.dst {
                self.rename.commit_release(arch, old);
            }
            if retired.op.is_branch() {
                self.rename.release_checkpoint(seq);
            }
            if retired.op == OpClass::Store {
                self.store_buffer.retire_through(seq);
            }
            self.slip_total += now - retired.fetched_at;
            self.slip_fifo += retired.fifo_time;
            self.committed += 1;
            self.last_commit_time = now;
            if retired.is_exit {
                self.halted = true;
            }
            commits += 1;
        }

        // Deadlock watchdog (development aid).
        self.check_watchdog(now);

        // 3. Rename + dispatch, in order, stalling at the first hazard.
        let mut renamed = 0;
        while renamed < self.cfg.uarch.decode_width {
            let Some(&id) = self.decode_buf.front() else {
                break;
            };
            if !self.rob.has_space() {
                break;
            }
            // One hot-column probe covers the whole rename setup; the
            // architectural operands were captured at fetch, so rename
            // needs no PC re-locate.
            let (seq, op, arch_dst, arch_srcs) = self
                .inflight
                .rename_view(id)
                .expect("decoded instruction vanished");
            let is_branch = op.is_branch();
            if is_branch && !self.rename.can_checkpoint() {
                break;
            }
            // Stores reserve their buffer slot here, in program order, so an
            // older store can never be starved by younger out-of-order
            // stores (deadlock avoidance; see gals_uarch::StoreBuffer).
            if op == OpClass::Store && !self.store_buffer.has_space() {
                break;
            }
            let ci = cluster_index(op.cluster());
            if !self.ch_dispatch[ci].can_push(now) {
                // Rendezvous mode: a blocked cycle is a tick whose rename
                // stage moved *nothing* because the head's dispatch port
                // was occupied (breaking after some renames is progress,
                // not a stall). The cluster's consuming pop wakes a parked
                // decode, whose elided — necessarily zero-rename — blocked
                // ticks replay in `replay_idle`.
                if self.rendezvous && renamed == 0 {
                    self.rendezvous_blocked[Domain::Decode.index()] += 1;
                }
                break;
            }
            // Rename sources first (RAW within the group resolves to the
            // younger mapping naturally because older group members already
            // updated the RAT this cycle).
            let mut src_tags = SrcTags::new();
            for r in arch_srcs.into_iter().flatten() {
                src_tags.push(Tag::new(self.rename.lookup(r), r.is_fp()));
            }
            let dst = if let Some(d) = arch_dst {
                match self.rename.rename_dst(d) {
                    Ok(renamed_dst) => {
                        Some((d, Tag::new(renamed_dst.new, d.is_fp()), renamed_dst.old))
                    }
                    Err(_) => break, // out of physical registers: stall
                }
            } else {
                None
            };
            if is_branch {
                self.rename.checkpoint(seq);
            }
            self.inflight.set_rename(id, src_tags, dst);
            // Producer-side wakeup filter: register this consumer's cluster
            // against each source tag, or — when the producer has already
            // broadcast — mark the operand ready in this cluster's view now
            // (the rename-time busy-bit read; see `wakeup_interest` docs).
            if self.cfg.cross_cluster_wakeup_filter {
                for t in src_tags.iter() {
                    if self.wakeup_interest[t.index()] & WAKEUP_DONE != 0 {
                        self.clusters[ci].ready.set(t.index());
                    } else {
                        self.wakeup_interest[t.index()] |= 1 << ci;
                    }
                }
            }
            // Mark the destination not-ready in every cluster view (and
            // reset the filter state of the tag's fresh allocation — the
            // interest table is only touched when the filter is active).
            if let Some((_, tag, _)) = dst {
                if self.cfg.cross_cluster_wakeup_filter {
                    self.wakeup_interest[tag.index()] = 0;
                }
                for cl in &mut self.clusters {
                    cl.ready.clear(tag.index());
                }
            }
            if op == OpClass::Store {
                self.store_buffer.reserve(seq).expect("space checked above");
            }
            self.rob.alloc(seq, id).expect("space checked above");
            self.ch_dispatch[ci]
                .try_push(id, now)
                .expect("push guarded by can_push");
            self.note_wake(CLUSTER_DOMAINS[ci]);
            self.note_transfer(Domain::Decode, CLUSTER_DOMAINS[ci]);
            self.decode_buf.pop_front();
            renamed += 1;
        }

        // 4. Decode: pull from the fetch channel into the decode buffer.
        let mut decoded = 0;
        while decoded < self.cfg.uarch.decode_width
            && self.decode_buf.len() < 2 * self.cfg.uarch.decode_width as usize
        {
            let Some((id, res)) = self.ch_fetch_decode.try_pop_timed(now) else {
                break;
            };
            // A freed slot is what un-blocks a fetch parked on the full
            // channel (see the fetch arm of `quiescent`).
            self.note_wake(Domain::Fetch);
            if self.inflight.add_fifo_time(id, res) {
                self.decode_buf.push_back(id);
            }
            // (A flushed-but-raced handle simply evaporates.)
            decoded += 1;
        }

        self.accountant
            .block_cycle(MacroBlock::RenameLogic, renamed > 0 || decoded > 0);
        self.accountant
            .block_cycle(MacroBlock::RegisterFile, renamed > 0 || commits > 0);
        self.rename.sample_occupancy();
        self.rob.sample_occupancy();
        // Quiescence: this tick did nothing, its inbound channels carry
        // nothing it could consume, and whatever stalls the rename head
        // (if any) can only be released by another domain's push or pop —
        // each of which raises a decode wake. An in-flight-but-not-yet-
        // visible fetch group (a mixed-clock FIFO synchronising) blocks
        // parking: its visibility arrives by time, not by an event.
        if commits == 0
            && renamed == 0
            && decoded == 0
            && self.ch_complete.iter().all(|c| c.is_empty())
            && (self.ch_fetch_decode.is_empty()
                || self.decode_buf.len() >= 2 * self.cfg.uarch.decode_width as usize)
            && self.pending_stretch[Domain::Decode.index()] == Time::ZERO
            && self.decode_stall_is_external()
        {
            self.quiesced_mask |= 1 << Domain::Decode.index();
        }
    }

    /// Classifies the binding stall of the rename head, testing hazards in
    /// the same order the live rename loop in `tick_decode` does (ROB
    /// space, checkpoint, store-buffer slot, dispatch port, physical
    /// registers). The loop is the semantics; this is the one shared,
    /// side-effect-free mirror of it that the park predicates below are
    /// derived from — extend both the loop and this classification
    /// together when adding a rename hazard.
    fn rename_head_stall(&self) -> RenameHeadStall {
        let Some(&id) = self.decode_buf.front() else {
            return RenameHeadStall::Empty;
        };
        if !self.rob.has_space() {
            return RenameHeadStall::RobFull;
        }
        let Some((_, op, arch_dst, _)) = self.inflight.rename_view(id) else {
            return RenameHeadStall::Vanished;
        };
        if op.is_branch() && !self.rename.can_checkpoint() {
            return RenameHeadStall::Checkpoint;
        }
        if op == OpClass::Store && !self.store_buffer.has_space() {
            return RenameHeadStall::StoreBuffer;
        }
        let ci = cluster_index(op.cluster());
        if self.ch_dispatch[ci].len() >= self.ch_dispatch[ci].capacity() {
            return RenameHeadStall::PortSaturated;
        }
        if let Some(d) = arch_dst {
            let (int_free, fp_free) = self.rename.free_counts();
            let free = if d.is_fp() { fp_free } else { int_free };
            if free == 0 {
                return RenameHeadStall::Registers;
            }
        }
        RenameHeadStall::Ready
    }

    /// True when the rename head (if any) is stalled on a resource only
    /// another domain's activity can release — a commit enabled by a
    /// completion push, a recovery, or a dispatch-channel pop, all of
    /// which wake a parked decode. Returns `false` for the one stall whose
    /// release is time-driven: a dispatch channel whose *slots* are free
    /// but whose full-flag synchronisation has not yet expired (that case
    /// classifies as `Ready` — the synchronisation is invisible to the
    /// side-effect-free classifier, and `Ready` with nothing renamed this
    /// tick is precisely it).
    fn decode_stall_is_external(&self) -> bool {
        self.rename_head_stall() != RenameHeadStall::Ready
    }

    /// Rendezvous mode: true when the live rename loop would break at the
    /// `can_push` check of the head's dispatch port, so parked-decode
    /// replay charges blocked cycles if and only if the live ticks would
    /// have. (Rendezvous ports have no backward delay, so slot-saturation
    /// is exactly `!can_push`; the loop checks the port before renaming
    /// the destination, so a saturated port binds even when registers are
    /// also scarce.)
    fn decode_head_blocked_on_port(&self) -> bool {
        self.rename_head_stall() == RenameHeadStall::PortSaturated
    }

    /// Deadlock watchdog: records a [`DeadlockReport`] when no instruction
    /// has committed for the configured window. Checked from every *live*
    /// tick path — with idle-tick elision a hung simulator may have parked
    /// some domains (their elided ticks never run this), but any hang that
    /// is not the all-parked case (caught by the driver through
    /// [`Pipeline::note_all_parked`]) keeps at least one domain ticking,
    /// so the trap still springs. Once the report is recorded,
    /// [`Pipeline::done`] is true and the check never re-fires.
    #[inline]
    fn check_watchdog(&mut self, now: Time) {
        if now.saturating_sub(self.last_commit_time) >= self.watchdog_span && !self.done() {
            self.deadlock = Some(self.build_deadlock_report(DeadlockTrigger::Watchdog, now));
        }
    }

    /// Driver hook for the elision-aware deadlock case: every domain clock
    /// is parked but the run is unfinished. Wakes only come from ticks, so
    /// no progress is possible; record the report (making
    /// [`Pipeline::done`] true) so the driver exits and surfaces it.
    pub fn note_all_parked(&mut self, now: Time) {
        if !self.done() {
            self.deadlock = Some(self.build_deadlock_report(DeadlockTrigger::AllParked, now));
        }
    }

    /// Takes the deadlock report, if the run wedged. Drivers call this
    /// after their event loop exits; `Some` means the run failed and no
    /// [`SimReport`] exists.
    pub fn take_deadlock(&mut self) -> Option<Box<DeadlockReport>> {
        self.deadlock.take()
    }

    /// Stamps the static analyzer's pre-flight verdict (see
    /// [`crate::analyze`]) so any deadlock report built later can say
    /// "this wedge was flagged at submit".
    pub fn set_static_finding(&mut self, finding: Option<String>) {
        self.static_finding = finding;
    }

    /// True when every domain clock is parked (ClockSet driver's mirror).
    pub fn all_parked(&self) -> bool {
        self.parked == [true; 5]
    }

    /// Snapshots the stuck machine. Every field is a pure function of the
    /// configuration and workload, so re-running the same point rebuilds
    /// the same report bit-for-bit.
    fn build_deadlock_report(&self, trigger: DeadlockTrigger, now: Time) -> Box<DeadlockReport> {
        let port = |ch: &Channel<InstrId>| PortState {
            len: ch.len(),
            capacity: ch.capacity(),
            rendezvous: ch.is_rendezvous(),
        };
        Box::new(DeadlockReport {
            trigger,
            now,
            last_commit_time: self.last_commit_time,
            watchdog_cycles: self.limits.watchdog_cycles,
            committed: self.committed,
            parked: self.parked,
            rob_len: self.rob.len(),
            rob_head_seq: self.rob.head().map(|(seq, _, _)| seq),
            decode_buf_len: self.decode_buf.len(),
            iq_len: std::array::from_fn(|ci| self.clusters[ci].iq.len()),
            writeback_pending_len: std::array::from_fn(|ci| {
                self.clusters[ci].writeback_pending.len()
            }),
            ch_fetch_decode: port(&self.ch_fetch_decode),
            ch_dispatch: std::array::from_fn(|ci| port(&self.ch_dispatch[ci])),
            ch_complete: std::array::from_fn(|ci| port(&self.ch_complete[ci])),
            ch_redirect: PortState {
                len: self.ch_redirect.len(),
                capacity: self.ch_redirect.capacity(),
                rendezvous: self.ch_redirect.is_rendezvous(),
            },
            ch_wakeup_total: self.ch_wakeup.iter().flatten().map(|ch| ch.len()).sum(),
            rendezvous_blocked: self.rendezvous_blocked,
            pending_recovery: self.pending_recovery,
            fetch_halted: self.fetch_halted,
            wrong_path: self.wrong_path,
            static_finding: self.static_finding.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Domains 3/4/5: the execution clusters
    // ------------------------------------------------------------------

    fn tick_cluster(&mut self, ci: usize) {
        let now = self.now;
        self.check_watchdog(now);
        self.clusters[ci].cycle += 1;
        let domain = self.clusters[ci].domain;
        self.accountant.tick_domain(domain);

        // 1. Apply cross-domain wakeups.
        for from in 0..3 {
            if from == ci {
                continue;
            }
            while let Some(tag) = self.ch_wakeup[from][ci].try_pop(now) {
                let cl = &mut self.clusters[ci];
                cl.ready.set(tag.index());
                cl.iq.wakeup(tag.as_iq_tag());
            }
        }

        // 2. Writeback of finished executions. The scratch buffer lives in
        // the cluster and is moved out for the duration of the walk so
        // `writeback(&mut self)` can run while it is held.
        let cl = &mut self.clusters[ci];
        let cycle = cl.cycle;
        let mut finished = std::mem::take(&mut cl.finished_scratch);
        finished.clear();
        if cycle >= cl.next_done {
            let mut next_done = u64::MAX;
            cl.executing.retain(|&(done, seq, id)| {
                if done <= cycle {
                    finished.push((seq, id));
                    false
                } else {
                    next_done = next_done.min(done);
                    true
                }
            });
            cl.next_done = next_done;
            finished.sort_unstable_by_key(|&(seq, _)| seq);
        }
        if self.rendezvous {
            // Rendezvous mode: a writeback pushes into single-entry ports
            // (wakeup broadcasts, the completion notice, possibly the
            // redirect), so it runs only when *every* port it needs can
            // accept — an atomic rendezvous. Blocked writebacks park in
            // program order on the pending list and retry next tick (the
            // non-empty list keeps the cluster from quiescing); one blocked
            // cycle is charged per tick that ends with the head parked.
            let mut pending = std::mem::take(&mut self.clusters[ci].writeback_pending);
            pending.extend_from_slice(&finished);
            // Seqs are unique, so the merged order is deterministic.
            pending.sort_unstable_by_key(|&(seq, _)| seq);
            let mut done = 0;
            while let Some(&(_, id)) = pending.get(done) {
                if !self.writeback_ports_free(ci, id) {
                    // A blocked cycle is a tick in which *no* writeback got
                    // through — a partially drained pending list made
                    // progress.
                    if done == 0 {
                        self.rendezvous_blocked[CLUSTER_DOMAINS[ci].index()] += 1;
                    }
                    break;
                }
                self.writeback(ci, id);
                done += 1;
            }
            pending.drain(..done);
            self.clusters[ci].writeback_pending = pending;
        } else {
            for &(_, id) in &finished {
                self.writeback(ci, id);
            }
        }
        self.clusters[ci].finished_scratch = finished;

        // 3. Select + issue.
        let issued = self.issue(ci);

        // 4. Fill the IQ from the dispatch channel. The outstanding-source
        // tags stream straight into the queue's inline storage — no
        // per-instruction `Vec`.
        let mut inserted = 0;
        while self.clusters[ci].iq.has_space() {
            let Some((id, res)) = self.ch_dispatch[ci].try_pop_timed(now) else {
                break;
            };
            // A freed dispatch slot is what un-blocks a decode parked on a
            // saturated dispatch channel (see `decode_stall_is_external`).
            self.note_wake(Domain::Decode);
            let Some((age, srcs)) = self.inflight.absorb_dispatch(id, res) else {
                continue;
            };
            let ClusterState { iq, ready, .. } = &mut self.clusters[ci];
            iq.insert(
                id.bits(),
                age,
                srcs.iter()
                    .filter(|t| !ready.get(t.index()))
                    .map(|t| t.as_iq_tag()),
            )
            .expect("space checked by has_space");
            inserted += 1;
        }

        // 5. Power activity.
        let cl = &mut self.clusters[ci];
        cl.iq.sample_occupancy();
        let iq_active = !cl.iq.is_empty() || inserted > 0;
        let alu_active = issued > 0 || !cl.executing.is_empty();
        let (iq_block, alu_block) = match ci {
            0 => (MacroBlock::IntIssueWindow, MacroBlock::IntAlus),
            1 => (MacroBlock::FpIssueWindow, MacroBlock::FpAlus),
            _ => (MacroBlock::MemIssueWindow, MacroBlock::FpAlus), // alu handled below
        };
        self.accountant.block_cycle(iq_block, iq_active);
        if ci == 2 {
            // Memory cluster: charge the caches instead of ALUs.
            self.accountant
                .block_cycle(MacroBlock::DCache, issued > 0 || !cl.executing.is_empty());
            self.accountant
                .block_cycle(MacroBlock::L2Cache, self.l2_touched);
            self.l2_touched = false;
            let _ = alu_block;
        } else {
            self.accountant.block_cycle(alu_block, alu_active);
        }
        if ci == 2 {
            self.store_buffer.sample_occupancy();
        }
        if !iq_active && !alu_active && self.quiescent(CLUSTER_DOMAINS[ci]) {
            self.quiesced_mask |= 1 << CLUSTER_DOMAINS[ci].index();
        }
    }

    fn issue(&mut self, ci: usize) -> u32 {
        let now = self.now;
        let width = self.cfg.uarch.issue_width;
        let cycle = self.clusters[ci].cycle;
        // Reused per-tick scratch, moved out so the split borrows below
        // stay disjoint. Each admitted instruction records everything the
        // post-selection loop needs — `(token, seq, latency, wrong_path)` —
        // so issue re-probes nothing.
        let mut admitted = std::mem::take(&mut self.clusters[ci].latency_scratch);
        let mut picked = std::mem::take(&mut self.clusters[ci].picked_scratch);
        admitted.clear();
        // Split borrows: the IQ needs &mut independent of the rest.
        let ClusterState { iq, fus, .. } = &mut self.clusters[ci];
        let inflight = &self.inflight;
        let store_buffer = &mut self.store_buffer;
        let dcache = &mut self.dcache;
        let l2 = &mut self.l2;
        let l2_touched = &mut self.l2_touched;
        let mem_latency = self.cfg.uarch.mem_latency;
        let mut store_forwards = 0u64;
        let mut wrong_path_issues = 0u64;

        iq.select_into(
            width,
            |token| {
                let id = InstrId::from_bits(token);
                let Some((seq, op, wrong)) = inflight.issue_view(id) else {
                    return true; /* squash race: drop */
                };
                let base_lat = op.exec_latency();
                let lat = match op {
                    OpClass::Store => {
                        if !fus.try_issue(cycle, base_lat, true) {
                            return false;
                        }
                        let addr = inflight.mem_addr_of(id).expect("stores carry addresses");
                        // Slot reserved at dispatch; fill the address now.
                        store_buffer.fill(seq, addr);
                        u64::from(base_lat)
                    }
                    OpClass::Load => {
                        if !fus.try_issue(cycle, base_lat, true) {
                            return false;
                        }
                        let addr = inflight.mem_addr_of(id).expect("loads carry addresses");
                        if store_buffer.forwards_to(addr) {
                            store_forwards += 1;
                            u64::from(dcache.latency())
                        } else if dcache.access(addr) {
                            u64::from(dcache.latency())
                        } else {
                            u64::from(dcache.latency())
                                + u64::from(Self::l2_fill_latency_for(
                                    l2,
                                    l2_touched,
                                    addr,
                                    mem_latency,
                                ))
                        }
                    }
                    op => {
                        if !fus.try_issue(cycle, op.exec_latency(), op.is_pipelined()) {
                            return false;
                        }
                        u64::from(op.exec_latency())
                    }
                };
                if wrong {
                    wrong_path_issues += 1;
                }
                admitted.push((token, seq, lat));
                true
            },
            &mut picked,
        );
        self.store_forwards_total += store_forwards;
        let issued = picked.len() as u32;
        self.issued_total += u64::from(issued);
        self.issued_wrong_path += wrong_path_issues;
        let cl = &mut self.clusters[ci];
        for &(token, seq, lat) in &admitted {
            let done = cycle + lat.max(1);
            cl.next_done = cl.next_done.min(done);
            cl.executing.push((done, seq, InstrId::from_bits(token)));
        }
        admitted.clear();
        picked.clear();
        self.clusters[ci].latency_scratch = admitted;
        self.clusters[ci].picked_scratch = picked;
        let _ = now;
        issued
    }

    /// Rendezvous mode: true when every rendezvous port this instruction's
    /// writeback will push into — the completion notice, the redirect for
    /// a mispredicted branch, and each wakeup link the broadcast (or the
    /// producer-side filter) selects — can accept an item at `now`. The
    /// check mirrors [`Pipeline::writeback`] exactly, so a `true` here
    /// guarantees the writeback's pushes all succeed.
    fn writeback_ports_free(&mut self, ci: usize, id: InstrId) -> bool {
        let now = self.now;
        let Some((_, dst, is_mispredict)) = self.inflight.writeback_view(id) else {
            return true; // squashed under us: the writeback is a no-op
        };
        if !self.ch_complete[ci].can_push(now) {
            return false;
        }
        if is_mispredict && !self.ch_redirect.can_push(now) {
            return false;
        }
        if let Some((_, tag, _)) = dst {
            let filter = self.cfg.cross_cluster_wakeup_filter;
            let interest = if filter {
                self.wakeup_interest[tag.index()]
            } else {
                0
            };
            for to in 0..3 {
                if to == ci || (filter && interest & (1 << to) == 0) {
                    continue;
                }
                if !self.ch_wakeup[ci][to].can_push(now) {
                    return false;
                }
            }
        }
        true
    }

    fn writeback(&mut self, ci: usize, id: InstrId) {
        let now = self.now;
        let Some((seq, dst, is_mispredict)) = self.inflight.writeback_view(id) else {
            return;
        };

        // Chaos mode: drop this writeback on the floor. The threshold is a
        // `>=` (not an exact match) so the wedge survives the targeted seq
        // being a squashed wrong-path instruction: the first *correct-path*
        // instruction past it never completes, commit wedges behind it,
        // and the deadlock layer must turn the hang into a structured
        // report.
        #[cfg(feature = "chaos")]
        if self
            .limits
            .chaos
            .withhold_writeback
            .is_some_and(|n| seq >= n)
        {
            return;
        }

        // Local + remote wakeup. With the producer-side filter on, remote
        // clusters receive the tag only when they registered a consumer at
        // rename; later consumers take the WAKEUP_DONE path instead.
        if let Some((_, tag, _)) = dst {
            let cl = &mut self.clusters[ci];
            cl.ready.set(tag.index());
            cl.iq.wakeup(tag.as_iq_tag());
            let filter = self.cfg.cross_cluster_wakeup_filter;
            let broadcast_wakes = self.static_grid.is_none();
            let interest = if filter {
                self.wakeup_interest[tag.index()]
            } else {
                0
            };
            for (to, &to_domain) in CLUSTER_DOMAINS.iter().enumerate() {
                if to == ci || (filter && interest & (1 << to) == 0) {
                    continue;
                }
                self.ch_wakeup[ci][to]
                    .try_push(tag, now)
                    .expect("wakeup channel sized to never fill");
                if broadcast_wakes {
                    // Pausible grids stretch, so a parked consumer cannot
                    // replay the pop later: wake it instead. With static
                    // grids the pop is replayed exactly and the consumer
                    // stays parked (see catch_up_parked_wakeups).
                    self.note_wake(to_domain);
                }
                self.note_wakeup_transfer(ci, to);
            }
            if filter {
                self.wakeup_interest[tag.index()] = WAKEUP_DONE;
            }
        }

        // Mispredicted branch: launch the redirect.
        if is_mispredict {
            debug_assert!(
                self.pending_recovery.is_none(),
                "only one correct-path misprediction can be outstanding"
            );
            let recovery_pc = self
                .inflight
                .recovery_pc_of(id)
                .expect("mispredicted instruction carries branch info");
            self.pending_recovery = Some(seq);
            self.ch_redirect
                .try_push(
                    Redirect {
                        branch: id,
                        branch_seq: seq,
                        target_pc: recovery_pc,
                    },
                    now,
                )
                .expect("redirect channel sized to never fill");
            self.note_wake(Domain::Fetch);
            self.note_transfer(CLUSTER_DOMAINS[ci], Domain::Fetch);
        }

        // Completion notice to the ROB.
        self.ch_complete[ci]
            .try_push(id, now)
            .expect("completion channel sized to never fill");
        self.note_wake(Domain::Decode);
        self.note_transfer(CLUSTER_DOMAINS[ci], Domain::Decode);
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    /// Finalises the run into a [`SimReport`]. `exec_time` is the timestamp
    /// of the last processed event.
    pub fn into_report(mut self, exec_time: Time) -> SimReport {
        // FIFO transfer energy (GALS only): every push and pop toggles the
        // FIFO's synchronisers and data latches.
        let mut channel_ops = 0u64;
        let mut add = |st: gals_clocks::ChannelStats| {
            channel_ops += st.pushes + st.pops;
        };
        add(self.ch_fetch_decode.stats());
        add(self.ch_redirect.stats());
        for ch in &self.ch_dispatch {
            add(ch.stats());
        }
        for ch in &self.ch_complete {
            add(ch.stats());
        }
        for row in &self.ch_wakeup {
            for ch in row {
                add(ch.stats());
            }
        }
        if self.cfg.clocking.is_gals() {
            self.accountant.fifo_access(channel_ops);
        }

        // Pausible clocking: the local clock trees stay driven over the
        // *effective* (stretched) period, so stretch time burns local grid
        // energy like ordinary cycles, pro-rated in nominal-cycle units.
        if let Clocking::Pausible { clocks, .. } = &self.cfg.clocking {
            for d in Domain::ALL {
                let i = d.index();
                if self.stretch_time[i] > Time::ZERO {
                    let extra_cycles =
                        self.stretch_time[i].as_fs() as f64 / clocks[i].period.as_fs() as f64;
                    self.accountant.stretched_clock(d, extra_cycles);
                }
            }
        }

        SimReport {
            committed: self.committed,
            fetched: self.fetched,
            wrong_path_fetched: self.wrong_path_fetched,
            exec_time,
            domain_cycles: [
                self.fetch_cycles,
                self.decode_cycle,
                self.clusters[0].cycle,
                self.clusters[1].cycle,
                self.clusters[2].cycle,
            ],
            slip_total: self.slip_total,
            slip_fifo: self.slip_fifo,
            bpred: self.bpred.stats(),
            icache: self.icache.stats(),
            dcache: self.dcache.stats(),
            l2: self.l2.stats(),
            iq: [
                self.clusters[0].iq.stats(),
                self.clusters[1].iq.stats(),
                self.clusters[2].iq.stats(),
            ],
            rob_mean_occupancy: self.rob.mean_occupancy(),
            rat_mean_occupancy: self.rename.mean_occupancy(),
            rat_peak_occupancy: self.rename.peak_occupancy(),
            store_forwards: self.store_forwards_total,
            issued: self.issued_total,
            issued_wrong_path: self.issued_wrong_path,
            channel_ops,
            stretches: self.stretch_events,
            stretch_time: self.stretch_time,
            rendezvous_blocked: self.rendezvous_blocked,
            energy: self.accountant.breakdown(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchOutcome {
    Continue,
    Stop,
}

/// The binding stall of the rename head, as classified by
/// `Pipeline::rename_head_stall` (hazards in the live rename loop's test
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RenameHeadStall {
    /// Decode buffer empty — nothing to rename.
    Empty,
    /// ROB full: waits on a commit (a completion push wakes decode).
    RobFull,
    /// The head vanished under the buffer (defensive squash race).
    Vanished,
    /// Branch with no free checkpoint: waits on commit or recovery.
    Checkpoint,
    /// Store with no buffer slot: waits on commit.
    StoreBuffer,
    /// Dispatch channel slot-saturated: waits on a consumer pop.
    PortSaturated,
    /// Out of physical registers: waits on commit or recovery.
    Registers,
    /// No stall visible to a side-effect-free classification: the head
    /// would rename — unless the dispatch channel's full-flag
    /// synchronisation is still pending, the one time-driven wait, which
    /// also lands here and which park decisions must treat as
    /// not-parkable.
    Ready,
}

/// First edge of the grid `(phase + k·period)` at or after `bound`.
fn grid_ceil(phase: Time, period: Time, bound: Time) -> Time {
    if bound <= phase {
        return phase;
    }
    let delta = bound.as_fs() - phase.as_fs();
    phase + period * delta.div_ceil(period.as_fs())
}

fn cluster_index(c: Cluster) -> usize {
    match c {
        Cluster::Int => 0,
        Cluster::Fp => 1,
        Cluster::Mem => 2,
    }
}
