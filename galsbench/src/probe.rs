//! The traced pass: the workload's points taken through each layer's
//! public functions one call at a time, with a span around every call,
//! and the per-layer metrics computed from those spans.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use gals_clocks::Domain;
use gals_core::{analyze, simulate, ProcessorConfig, SimLimits, SimReport};
use gals_events::{ClockSet, Time};
use gals_isa::DynStream;
use gals_sweep::{
    sweep, Lookup, ModePoint, ResultCache, RunKey, RunRecord, RunSpec, SweepMatrix, SweepRequest,
    SweepResults, SCHEMA_VERSION,
};
use gals_workload::{generate_workload, Workload};

use crate::serve::WarmServer;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{fresh_dir, matrix_line, options, remove_dir, Pass};

/// The four clocking machines, by their metric-name label.
pub const MACHINES: [&str; 4] = ["sync", "gals", "pausible", "rendezvous"];

/// Requests (served and in-process) behind each warm-path median.
const WARM_REQUESTS: usize = 30;

/// Simulated time each standalone `ClockSet` runs for.
const CLOCKSET_NS: u64 = 500_000;

/// The machine a mode point simulates.
pub fn machine(mode: &ModePoint) -> &'static str {
    match mode {
        ModePoint::Synchronous => "sync",
        ModePoint::Gals { .. } => "gals",
        ModePoint::Pausible {
            rendezvous: false, ..
        } => "pausible",
        ModePoint::Pausible {
            rendezvous: true, ..
        } => "rendezvous",
    }
}

fn simulate_span(machine: &str) -> &'static str {
    match machine {
        "sync" => "core.sync.simulate",
        "gals" => "core.gals.simulate",
        "pausible" => "core.pausible.simulate",
        _ => "core.rendezvous.simulate",
    }
}

/// Simulated counts for one machine, summed over its points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    committed: u64,
    fetched: u64,
    domain_cycles: u64,
    channel_ops: u64,
    stretches: u64,
}

impl Counts {
    fn add(&mut self, r: &SimReport) {
        self.committed += r.committed;
        self.fetched += r.fetched;
        self.domain_cycles += r.domain_cycles.iter().sum::<u64>();
        self.channel_ops += r.channel_ops;
        self.stretches += r.total_stretches();
    }
}

/// One round's layer measurements.
#[derive(Debug, Clone)]
pub struct Round {
    /// Time-valued per-layer metrics, by name.
    pub times: BTreeMap<String, f64>,
    /// Exactly repeatable per-layer metrics (simulated counts and their
    /// ratios, cache hit ratio, attempts), by name.
    pub counts: BTreeMap<String, f64>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the points of `pass`'s matrix through each layer once, recording
/// spans in `tracer`. The pass's records are what the cache stores and
/// renders, and each must carry the counts `simulate` reports for its
/// point.
pub fn layer_round(tracer: &mut Tracer, pass: &Pass) -> Result<Round, String> {
    let from = tracer.len();
    let results = &pass.results;
    let matrix = &results.matrix;
    let records = &results.runs;
    let budget = matrix.budget;
    let limits = SimLimits::insts(budget);
    let specs = matrix.expand();
    let cache_dir = fresh_dir("probe-cache");
    let cache = ResultCache::open(&cache_dir, None)?;
    let mut counts: BTreeMap<&str, Counts> = BTreeMap::new();
    let mut sim_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut walked = 0u64;
    if records.len() != specs.len() {
        return Err("the pass and its matrix disagree on the point count".into());
    }
    for (spec, record) in specs.iter().zip(records) {
        let req = spec.index as u64;
        let point = tracer.begin("sweep.point", req);
        if let Workload::Kernel(k) = spec.benchmark {
            tracer
                .span("isa.parse", req, || gals_isa::parse(k.source()))
                .map_err(|e| format!("kernel {}: {e}", k.name()))?;
        }
        let program = tracer.span("workload.generate", req, || {
            generate_workload(spec.benchmark, spec.workload_seed)
        });
        walked += tracer.span("isa.stream", req, || {
            DynStream::new(&program)
                .take(budget as usize)
                .fold(0u64, |n, d| {
                    black_box(d.pc);
                    n + 1
                })
        });
        tracer.span("analysis.preflight", req, || {
            black_box(analyze(&spec.config(), &limits));
        });
        let m = machine(&spec.mode);
        let sim_span = simulate_span(m);
        let sim_from = tracer.len();
        let report = tracer
            .span(sim_span, req, || simulate(&program, spec.config(), limits))
            .map_err(|e| format!("point {}: {e}", spec.index))?;
        *sim_ns.entry(m).or_default() += tracer.total_ns(sim_span, sim_from);
        counts.entry(m).or_default().add(&report);
        check_record(spec, record, &report)?;
        let key = spec.key();
        tracer.span("sweep.cache.store", req, || cache.store(record, key))?;
        tracer.end(point);
    }

    // The warm-request path, call by call and back to back as a warm
    // request makes them: key every point, look each up, render each.
    let keys: Vec<RunKey> = specs
        .iter()
        .map(|spec| tracer.span("sweep.runkey", spec.index as u64, || RunKey::of(spec)))
        .collect();
    for (spec, (key, record)) in specs.iter().zip(keys.iter().zip(records)) {
        match tracer.span("sweep.cache.lookup", spec.index as u64, || {
            cache.lookup(*key, spec)
        }) {
            Lookup::Hit(hit) if *hit == *record => {}
            _ => {
                return Err(format!(
                    "point {}: the cache did not return its record",
                    spec.index
                ))
            }
        }
    }
    for record in records {
        black_box(tracer.span("sweep.render", record.spec.index as u64, || {
            record.to_json_object()
        }));
    }
    black_box(tracer.span("sweep.render", 0, || results.tables_json()));
    let text = matrix.to_matrix_json();
    let parsed = tracer.span("sweep.matrix_parse", 0, || {
        SweepMatrix::from_json(&text, budget)
    })?;
    if parsed != *matrix {
        return Err("matrix parse round trip changed the matrix".into());
    }

    // The warm path: in-process sweeps over the now complete cache, then
    // the same matrix served from it.
    let mut warm_ms = Vec::new();
    let (mut hits, mut lookups) = (0u64, 0u64);
    for _ in 0..WARM_REQUESTS {
        let start = Instant::now();
        let warm = tracer.span("sweep.warm_sweep", 0, || {
            sweep(&SweepRequest::new(matrix.clone()).with_options(options(Some(&cache_dir))))
        })?;
        warm_ms.push(start.elapsed().as_secs_f64() * 1e3);
        hits += warm.cache.hits;
        lookups += warm.cache.hits + warm.cache.misses;
        if warm.simulated != 0 || warm.results != *results {
            return Err("a warm in-process sweep missed the cache or changed a record".into());
        }
    }
    drop(cache);
    let server = WarmServer::start(&cache_dir, budget)?;
    let line = matrix_line(matrix);
    let expected = served_payload(results);
    let mut served_ms = Vec::new();
    let mut attempts = 0u64;
    for i in 0..WARM_REQUESTS {
        let start = Instant::now();
        let outcome = tracer.span("sweep.server.request", i as u64, || server.submit(&line))?;
        served_ms.push(start.elapsed().as_secs_f64() * 1e3);
        attempts += u64::from(outcome.attempts_used);
        hits += outcome.cache_hits;
        lookups += outcome.cache_hits + outcome.cache_misses;
        if outcome.simulated != 0 || outcome.failed_count != 0 {
            return Err("a served warm request simulated or failed".into());
        }
        if outcome.payload != expected {
            return Err("a served response differs from the sweep's rendering".into());
        }
    }
    server.teardown()?;
    remove_dir(&cache_dir)?;

    let edges_ns = clockset_probe(tracer, matrix.phase_seeds[0]);

    let total = |name: &str| tracer.total_ns(name, from) as f64;
    let mut times = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        times.insert(name.to_string(), v);
    };
    let generate = total("workload.generate");
    let parse = total("isa.parse");
    put("workload.generate_ms", generate / 1e6);
    put("isa.parse_ms", parse / 1e6);
    put("isa.execute_ms", (generate - parse).max(0.0) / 1e6);
    put(
        "isa.stream_ns_per_inst",
        total("isa.stream") / walked.max(1) as f64,
    );
    put("analysis.preflight_us", total("analysis.preflight") / 1e3);
    put("events.clockset_ns_per_edge", edges_ns);
    put("sweep.cache.store_us", total("sweep.cache.store") / 1e3);
    put("sweep.cache.lookup_us", total("sweep.cache.lookup") / 1e3);
    put("sweep.runkey_us", total("sweep.runkey") / 1e3);
    put("sweep.render_us", total("sweep.render") / 1e3);
    put("sweep.matrix_parse_us", total("sweep.matrix_parse") / 1e3);
    let warm_p50 = median(&warm_ms).unwrap_or(0.0);
    put("sweep.warm_sweep_ms", warm_p50);
    put(
        "sweep.server.framing_ms",
        median(&served_ms).unwrap_or(0.0) - warm_p50,
    );
    let mut out_counts = BTreeMap::new();
    for m in MACHINES {
        let c = counts.get(m).copied().unwrap_or_default();
        let ns = sim_ns.get(m).copied().unwrap_or(0);
        put(
            &format!("core.{m}.insts_per_s"),
            ratio(c.committed, ns) * 1e9,
        );
        put(
            &format!("core.{m}.ns_per_domain_cycle"),
            ratio(ns, c.domain_cycles),
        );
        out_counts.insert(
            format!("core.{m}.domain_cycles_per_inst"),
            ratio(c.domain_cycles, c.committed),
        );
        out_counts.insert(
            format!("core.{m}.fetched_per_committed"),
            ratio(c.fetched, c.committed),
        );
        out_counts.insert(
            format!("clocks.{m}.channel_ops_per_inst"),
            ratio(c.channel_ops, c.committed),
        );
        out_counts.insert(
            format!("clocks.{m}.stretches_per_inst"),
            ratio(c.stretches, c.committed),
        );
    }
    out_counts.insert("sweep.cache.hit_ratio".into(), ratio(hits, lookups));
    out_counts.insert(
        "submit.attempts_per_request".into(),
        ratio(attempts, WARM_REQUESTS as u64),
    );
    Ok(Round {
        times,
        counts: out_counts,
    })
}

/// The bytes a server streams for `results` (header, one `run` line per
/// record, `tables` line): what `SubmitOutcome::payload` must equal.
fn served_payload(results: &SweepResults) -> String {
    let mut out = format!(
        "{{\"response\": \"sweep\", \"schema_version\": {SCHEMA_VERSION}, \"run_count\": {}}}\n",
        results.runs.len()
    );
    for record in &results.runs {
        out.push_str(&format!("{{\"run\": {}}}\n", record.to_json_object()));
    }
    out.push_str(&format!("{{\"tables\": {}}}\n", results.tables_json()));
    out
}

/// The record the sweep delivered must carry the counts `simulate`
/// reported for the same point.
fn check_record(spec: &RunSpec, record: &RunRecord, report: &SimReport) -> Result<(), String> {
    let same = record.status.is_ok()
        && record.committed == report.committed
        && record.fetched == report.fetched
        && record.channel_ops == report.channel_ops
        && record.total_stretches == report.total_stretches();
    if same {
        Ok(())
    } else {
        Err(format!(
            "point {}: the sweep's record and simulate disagree ({})",
            spec.index,
            record.status.label()
        ))
    }
}

/// Runs the synchronous and the GALS five-domain clocks, wired as
/// `simulate` wires them, through `ClockSet::run_until`; returns host
/// nanoseconds per dispatched edge.
fn clockset_probe(tracer: &mut Tracer, phase_seed: u64) -> f64 {
    let mut ns = 0u64;
    let mut edges = 0u64;
    for config in [
        ProcessorConfig::synchronous_1ghz(),
        ProcessorConfig::gals_equal_1ghz(phase_seed),
    ] {
        let mut clocks = ClockSet::new();
        for d in Domain::ALL {
            let clock = config.clocking.domain_clock(d);
            clocks.add_clock(clock.phase, clock.period, d.index() as i32);
        }
        clocks.enable_uniform();
        let from = tracer.len();
        let mut sink = 0u64;
        edges += tracer.span("events.clockset", 0, || {
            clocks.run_until(Time::from_ns(CLOCKSET_NS), |slot, t| {
                sink = sink.wrapping_add(slot as u64 ^ t.0);
            })
        });
        black_box(sink);
        ns += tracer.total_ns("events.clockset", from);
    }
    ratio(ns, edges)
}
