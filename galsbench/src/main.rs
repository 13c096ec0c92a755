//! The repository benchmark. One run sets a workload up, measures it for
//! `--seconds`, checks its outputs, and prints every metric with its
//! unit; the last line of standard output is one JSON object:
//!
//! ```text
//! galsbench --workload <paper_sweep|prog_sweep> --seed <n>
//!           --seconds <s> --trace <0|1>
//!           [--workload-seed <n> --phase-seed <n> | --held-out]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, with times scaled to a
//! reference host speed measured in the same run; `--trace 1` makes a
//! separate traced pass over the same points and reports the per-layer
//! metrics and the tracing overhead. See `NOTES.md`.

mod calib;
mod metrics;
mod probe;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::metrics::Metric;
use crate::stats::{highest_supported_percentile, median, percentile, quartiles};
use crate::trace::Tracer;
use crate::workloads::{run_pass, set_up, Kind, Pass, Seeds, BUDGET, HELD_OUT_SEEDS, WORK_DIR};

/// Fewest passes an end-to-end run takes.
const MIN_PASSES: usize = 3;
/// Fewest rounds a traced run takes, so that counts can be compared.
const MIN_ROUNDS: usize = 2;
/// A run starts no pass or round after this long, so that it always
/// exits within three minutes.
const HARD_CAP: Duration = Duration::from_secs(120);

const USAGE: &str = "usage: galsbench --workload <paper_sweep|prog_sweep> \
                     --seed <n> --seconds <s> --trace <0|1> \
                     [--workload-seed <n> --phase-seed <n> | --held-out]";

struct Args {
    kind: Kind,
    seed: u64,
    seeds: Seeds,
    seconds: u64,
    trace: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workload_seed = None;
    let mut phase_seed = None;
    let mut held_out = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--held-out" {
            held_out = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || parse_u64(value).ok_or_else(|| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--workload-seed" => workload_seed = Some(number()?),
            "--phase-seed" => phase_seed = Some(number()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let mut seeds = if held_out {
        HELD_OUT_SEEDS
    } else {
        Seeds::from_seed(seed)
    };
    seeds.workload = workload_seed.unwrap_or(seeds.workload);
    seeds.phase = phase_seed.unwrap_or(seeds.phase);
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seeds,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Everything a run reports.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(Metric, f64)>,
    notes: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && self.attempted > 0 && self.metrics.iter().all(|(_, v)| v.is_finite()),
            self.attempted,
            self.failed
        );
        for (i, (m, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Checks that every pass produced the same payload and returns the digest.
fn same_digest<'a>(outcome: &mut Outcome, passes: impl IntoIterator<Item = &'a Pass>) -> u64 {
    let digests: Vec<u64> = passes.into_iter().map(|p| p.digest).collect();
    let first = digests.first().copied().unwrap_or(0);
    let differing = digests.iter().filter(|&&d| d != first).count();
    outcome.check(differing == 0, || {
        format!(
            "{differing} of {} repetitions produced a different payload",
            digests.len()
        )
    });
    first
}

/// The untraced run: a host-speed sample, then set-up, pass and another
/// sample, repeated while another round fits in `--seconds` (at least
/// [`MIN_PASSES`]), then the end-to-end metrics. Each pass gets its own
/// set-up, so set-up times are sampled across the whole window as pass
/// times are. Each round's set-up and pass are scaled by the host's speed
/// in the samples either side of it, and the metrics are medians over
/// rounds of the scaled times.
fn measure(args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let window = Duration::from_secs(args.seconds);
    let mut setups: Vec<f64> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut samples: Vec<Vec<f64>> = vec![calib::sample()?];
    loop {
        let round_start = Instant::now();
        let (prepared, setup_s) = set_up(args.kind, args.seeds)?;
        setups.push(setup_s);
        passes.push(run_pass(&prepared, &mut || {})?);
        samples.push(calib::sample()?);
        let last = round_start.elapsed();
        let elapsed = start.elapsed();
        let another_fits = elapsed + last <= window;
        if (passes.len() >= MIN_PASSES && !another_fits) || elapsed >= HARD_CAP {
            break;
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let mut outcome = Outcome {
        correct: true,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let digest = same_digest(&mut outcome, &passes);
    let failed = outcome.failed;
    outcome.check(failed == 0, || format!("{failed} runs failed"));
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let tail = highest_supported_percentile(latencies.len());
    let scales = calib::round_scales(&samples);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let norm_walls: Vec<f64> = walls.iter().zip(&scales).map(|(w, k)| w * k).collect();
    let norm_setups: Vec<f64> = setups.iter().zip(&scales).map(|(s, k)| s * k).collect();
    let norm_wall = median(&norm_walls).unwrap_or(0.0);
    // Every pass commits the same instructions: the digest check above
    // covers the records that carry the counts.
    let committed = passes.first().map_or(0, |p| p.committed);
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("wall_norm_s", norm_wall),
        ("sim_insts_per_norm_s", committed as f64 / norm_wall),
        ("peak_rss_mb", peak_rss_mb()?),
        ("setup_s", median(&norm_setups).unwrap_or(0.0)),
    ]);
    outcome.metrics = metrics::end_to_end()
        .into_iter()
        .map(|m| {
            let v = values[m.name.as_str()];
            (m, v)
        })
        .collect();
    let (p, beyond) = tail.unwrap_or((0.0, 0));
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let (q1, q2, q3) = quartiles(&walls).unwrap_or_default();
    outcome.notes.extend([
        format!("passes: {} in {window_s:.3} s", passes.len()),
        format!(
            "request_p50_ms: {:.6} ms, request_p{p}_ms: {:.6} ms ({} requests, {beyond} beyond it)",
            median(&latencies).unwrap_or(0.0),
            percentile(&latencies, p).unwrap_or(0.0),
            latencies.len()
        ),
        format!(
            "requests_per_s: {:.6} 1/s",
            latencies.len() as f64 / window_s
        ),
        format!(
            "failed_share: {} ({} of {} attempted)",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            outcome.failed,
            outcome.attempted
        ),
        format!("payload digest: {digest:016x}"),
        format!(
            "host pass wall quartiles: {q1:.6} {q2:.6} {q3:.6} s over {} passes",
            walls.len()
        ),
        format!("host pass walls: {} s", list(&walls)),
        format!("host set-ups: {} s", list(&setups)),
        format!(
            "reference loop sample medians: {} s (reference host {} s)",
            list(&samples.iter().filter_map(|s| median(s)).collect::<Vec<_>>()),
            calib::REFERENCE_REP_S
        ),
        format!("round scales: {}", list(&scales)),
        format!("normalised pass walls: {} s", list(&norm_walls)),
    ]);
    Ok(outcome)
}

/// The traced run: rounds of (untraced pass, the same pass with spans,
/// per-layer probe) while another one fits in `--seconds` (at least
/// [`MIN_ROUNDS`]); per-layer times are medians over rounds, per-layer
/// counts must repeat exactly.
fn measure_traced(args: &Args) -> Result<Outcome, String> {
    let (prepared, _) = set_up(args.kind, args.seeds)?;
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let window = Duration::from_secs(args.seconds);
    let mut off: Vec<Pass> = Vec::new();
    let mut on: Vec<Pass> = Vec::new();
    let mut rounds = Vec::new();
    let mut last = Duration::ZERO;
    while rounds.len() < MIN_ROUNDS
        || (start.elapsed() + last <= window && start.elapsed() < HARD_CAP)
    {
        let round_start = Instant::now();
        off.push(run_pass(&prepared, &mut || {})?);
        let pass_span = tracer.begin("pass", rounds.len() as u64);
        let mut since = tracer.now_ns();
        let mut record = 0u64;
        let tr = &mut tracer;
        let pass = run_pass(&prepared, &mut || {
            tr.interval("pass.record", record, &mut since);
            record += 1;
        })?;
        tracer.end(pass_span);
        rounds.push(probe::layer_round(&mut tracer, &pass)?);
        on.push(pass);
        last = round_start.elapsed();
    }
    let mut outcome = Outcome {
        correct: true,
        attempted: off.iter().chain(&on).map(|p| p.attempted).sum(),
        failed: off.iter().chain(&on).map(|p| p.failed).sum(),
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let digest = same_digest(&mut outcome, off.iter().chain(&on));
    let failed = outcome.failed;
    outcome.check(failed == 0, || format!("{failed} runs failed"));
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for name in rounds[0].times.keys() {
        let per_round: Vec<f64> = rounds.iter().map(|r| r.times[name]).collect();
        values.insert(name.clone(), median(&per_round).unwrap_or(0.0));
    }
    for (name, first) in &rounds[0].counts {
        let repeated = rounds
            .iter()
            .all(|r| r.counts[name].to_bits() == first.to_bits());
        outcome.check(repeated, || {
            format!("{name} did not repeat exactly across rounds")
        });
        values.insert(name.clone(), *first);
    }
    let wall = |passes: &[Pass]| median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let overhead = wall(&on).unwrap_or(0.0) - wall(&off).unwrap_or(0.0);
    values.insert("trace.overhead_s".into(), overhead);
    let mut missing = Vec::new();
    outcome.metrics = metrics::per_layer()
        .into_iter()
        .map(|m| {
            let v = values.get(m.name.as_str()).copied();
            if v.is_none() {
                missing.push(m.name.clone());
            }
            (m, v.unwrap_or(0.0))
        })
        .collect();
    outcome.check(missing.is_empty(), || {
        format!("no value for {}", missing.join(", "))
    });
    let trace_path = std::path::Path::new(WORK_DIR).join(format!(
        "trace-{}-seed{}.tsv",
        args.kind.name(),
        args.seed
    ));
    std::fs::write(&trace_path, tracer.render())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    outcome.notes.extend([
        format!("rounds: {} in {:.3} s", rounds.len(), start.elapsed().as_secs_f64()),
        format!(
            "tracing overhead: {overhead:.6} s (traced pass wall time minus untraced pass wall time, medians of {} passes each)",
            on.len()
        ),
        format!("spans: {} written to {}", tracer.len(), trace_path.display()),
        format!("payload digest: {digest:016x}"),
    ]);
    Ok(outcome)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let catalogue = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer());
    if let Some(bad) = catalogue.map(|m| m.name).find(|n| !stats::valid_name(n)) {
        return Err(format!("invalid metric name {bad}"));
    }
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("cannot create {WORK_DIR}: {e}"))?;
    if args.trace {
        measure_traced(args)
    } else {
        measure(args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == [calib::SAMPLE_FLAG] {
        calib::print_sample();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("galsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} (workload_seed {:#x}, phase_seed {}), budget {} per point, trace {}",
        args.kind.name(),
        args.seed,
        args.seeds.workload,
        args.seeds.phase,
        BUDGET,
        u8::from(args.trace)
    );
    match run(&args) {
        Ok(outcome) => {
            for (m, v) in &outcome.metrics {
                println!("{:<40} {v:>16.6} {}", m.name, m.unit);
            }
            for note in &outcome.notes {
                println!("{note}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("galsbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn seeds_come_from_the_seed_unless_overridden() {
        let a = parse_args(&argv(
            "--workload prog_sweep --seed 0 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.kind, Kind::ProgSweep);
        assert!(a.trace);
        assert_eq!(
            a.seeds,
            Seeds {
                workload: gals_sweep::WORKLOAD_SEED,
                phase: gals_sweep::PHASE_SEED
            }
        );
        let b = parse_args(&argv(
            "--workload paper_sweep --seed 7 --seconds 5 --trace 0",
        ))
        .unwrap();
        assert_eq!(b.seeds, Seeds::from_seed(7));
        assert_ne!(b.seeds, a.seeds);
        let c = parse_args(&argv(
            "--workload paper_sweep --seed 7 --seconds 5 --trace 0 --held-out --phase-seed 0x10",
        ))
        .unwrap();
        assert_eq!(c.seeds.workload, HELD_OUT_SEEDS.workload);
        assert_eq!(c.seeds.phase, 16);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload paper_sweep --seconds 5 --trace 0")).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let e2e = metrics::end_to_end();
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![(e2e[0].clone(), 1.25), (e2e[3].clone(), f64::NAN)],
            notes: Vec::new(),
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"wall_norm_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        let nothing = Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        };
        assert_eq!(
            nothing.json(),
            "{\"correct\": false, \"attempted\": 0, \"failed\": 0, \"metrics\": {}}"
        );
    }
}
