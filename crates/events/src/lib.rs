//! # gals-events
//!
//! A general-purpose, deterministic, discrete-event simulation engine — the
//! Rust port of the engine described in section 4.2 of *"Power and
//! Performance Evaluation of Globally Asynchronous Locally Synchronous
//! Processors"* (Iyer & Marculescu, ISCA 2002).
//!
//! The engine "can be used to simulate any asynchronous system, synchronous
//! (clocked) system, or a system which contains both asynchronous and
//! synchronous components". Clock domains are periodic events with
//! independent period and phase; asynchronous completions (cache misses,
//! FIFO synchronisations) are one-shot events.
//!
//! ## Two schedulers, one ordering contract
//!
//! The crate deliberately ships **two** schedulers:
//!
//! * [`Engine`] — the faithful general-purpose port of the paper's engine.
//!   It supports arbitrary one-shot events, self-rescheduling periodic
//!   events, cancellation, and dynamic handlers. Every edge costs a binary
//!   heap pop, a re-push of a boxed handler, and cancellation bookkeeping.
//! * [`ClockSet`] — the static fast path for *purely periodic* clock sets
//!   (the pipeline's actual workload: five free-running domain clocks).
//!   One inline `(next_edge, period, priority)` record per clock, kept in
//!   priority order so that a min-scan with one time compare per clock
//!   replaces the heap, zero allocation and zero dynamic dispatch per
//!   edge, and batched dispatch of simultaneous edges.
//!
//! Both order edges by `(time, priority)`; for clocks with distinct
//! priorities the two produce identical edge sequences, which is pinned by
//! a differential property test (`tests/properties.rs`) and an end-to-end
//! report-identity test in the simulator. Distinct priorities are the
//! contract, not a convention: duplicate clock priorities would fall
//! through to scheduler-private tie-breaks (insertion sequence in the
//! engine, slot order in the clock set) and silently diverge the oracle, so
//! both registration paths reject them with an always-on assertion that
//! fires at registration time, before any simulation runs.
//!
//! ## Idle-tick elision (parked clocks)
//!
//! [`ClockSet`] extends the contract with **idle-tick elision**: a clock
//! whose domain is provably quiescent may be *parked*
//! ([`ClockSet::park`]), removing its edges from dispatch entirely. The
//! division of obligations:
//!
//! * **The caller may park a clock only when every elided edge would have
//!   been a no-op** — the domain's tick would change nothing but its own
//!   cycle counters, idle-energy charges and occupancy samples (for the
//!   pipeline: empty structures, no inbound channel traffic it would
//!   consume, no pending stretch — or a provably frozen wait whose every
//!   release path raises a wake). The pipeline is the authority on this:
//!   each of its ticks reports its own quiescence on the way out.
//! * **Whoever hands a parked domain work must wake it in the same
//!   instant.** Wake edges are raised by channel pushes into the domain
//!   and by same-cycle shared-state writes it consumes (the fetch-side L2
//!   touch); [`ClockSet::unpark`] re-arms the clock and returns how many
//!   edges were elided, which the caller must back-fill (bulk idle
//!   accounting — exact, because the counters are integers).
//! * **Same-instant ordering is preserved.** An elided edge at exactly the
//!   wake instant counts as elided when the parked clock's priority
//!   ordered it *before* the waker (it had already fired as a no-op), and
//!   is re-armed to dispatch live when ordered *after* — so the
//!   `(time, priority)` sequence of *effective* edges matches the
//!   unparked schedule exactly. The same rule, against the run's stopping
//!   edge, governs the end-of-run drain ([`ClockSet::drain_parked`]).
//! * **Stretches and parking never overlap**: a stretch request targets an
//!   awake clock (any transfer that stretches a domain also wakes it);
//!   [`ClockSet::stretch`] asserts this.
//!
//! The general [`Engine`] never elides — it remains the oracle that
//! dispatches every edge, which is precisely what makes the differential
//! report-identity tests meaningful: every elision decision the fast path
//! makes is checked against a scheduler that did the work.
//!
//! Two further fast-forward devices follow the same "caller accounts for
//! skipped edges" rule: [`ClockSet::skip`] elides a known-length run of
//! no-op edges of a *running* clock (the pipeline's I-cache-fill
//! countdown), and [`ClockSet::enable_uniform`] switches equal-period
//! clock sets (the synchronous and equal-frequency GALS machines) to a
//! fixed dispatch rotation with no per-edge min-scan.
//!
//! ## Stretchable (pausible) clocks
//!
//! Both schedulers support one-shot **clock stretching** — the timing
//! primitive behind pausible clocking, where an arbiter holds a ring
//! oscillator while an inter-domain handshake completes. A dispatched
//! handler (or the driver between events) may request that a clock's next
//! edge be delayed by some amount: [`Engine::stretch`] takes the periodic
//! event's id, [`ClockSet::stretch`] the clock's slot. Both implement the
//! same semantics — the stretch lands on the target's first edge *strictly
//! after* the request time, requests accumulate, and subsequent edges
//! follow the period from the stretched edge — so the differential
//! ClockSet-vs-Engine contract extends to stretched clocks (also pinned in
//! `tests/properties.rs`).
//!
//! ## Example: the paper's Figure 4
//!
//! Three free-running clocks with periods 2 ns, 3 ns and 2.5 ns:
//!
//! ```
//! use gals_events::{Engine, Control, Time};
//!
//! let mut engine = Engine::new();
//! for (i, (start, period)) in [(500, 2_000), (1_000, 3_000), (0, 2_500)]
//!     .into_iter()
//!     .enumerate()
//! {
//!     engine.schedule_periodic(
//!         Time::from_ps(start),
//!         Time::from_ps(period),
//!         i as i32, // distinct per-clock priorities (the contract)
//!         |edges: &mut u32, _| {
//!             *edges += 1;
//!             Control::Keep
//!         },
//!     );
//! }
//! let mut edges = 0;
//! engine.run_until(&mut edges, Time::from_ns(8));
//! assert_eq!(edges, 11);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod clockset;
mod engine;
mod time;

pub use clockset::{ClockSet, MAX_CLOCKS};
pub use engine::{Control, Engine, EventId, Priority};
pub use time::{Time, FS_PER_NS, FS_PER_PS};
