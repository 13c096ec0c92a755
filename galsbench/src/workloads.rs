//! The two workloads: what each one runs, how it is set up, and one
//! untraced pass of it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gals_sweep::stable_hash::fnv1a;
use gals_sweep::{
    sweep, sweep_streaming, SweepMatrix, SweepOptions, SweepRequest, SweepResults, PHASE_SEED,
    WORKLOAD_SEED,
};
use gals_workload::{ProgramKernel, Workload};

/// Committed-instruction budget per point of both workloads: the `sweep`
/// binary's default, so per-point fixed costs (workload generation,
/// pre-flight, cache store) weigh against the simulation loop as they do
/// in the sweeps people run.
pub const BUDGET: u64 = 60_000;

/// Seeds stay below this: a matrix file carries them as JSON numbers, and
/// `SweepMatrix::from_json` reads numbers as `f64`, exact only up to 2^53.
const SEED_SPACE: u64 = 1 << 53;

/// The workload and phase seeds never used while the benchmark was
/// tuned (`--held-out`), for confirming a claim on fresh inputs.
pub const HELD_OUT_SEEDS: Seeds = Seeds {
    workload: 0x000C_0FFE_ED15_C012,
    phase: 0x0000_0000_4A11_7E57,
};

/// The workload seed (which programs are generated) and the phase seed
/// (where the GALS local clocks start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Workload generation seed.
    pub workload: u64,
    /// Local-clock phase seed.
    pub phase: u64,
}

impl Seeds {
    /// The seeds for benchmark seed `seed`: seed 0 is the sweep's own
    /// defaults (`WORKLOAD_SEED`, `PHASE_SEED`); every other seed offsets
    /// both (modulo 2^53), so the same seed always gives the same inputs.
    pub fn from_seed(seed: u64) -> Seeds {
        Seeds {
            workload: WORKLOAD_SEED.wrapping_add(seed) % SEED_SPACE,
            phase: PHASE_SEED.wrapping_add(seed) % SEED_SPACE,
        }
    }
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SweepMatrix::paper_default` on one worker, fresh cache directory.
    PaperSweep,
    /// The same mode and DVFS axes over the three `prog:` kernels, on one
    /// worker, no cache.
    ProgSweep,
}

impl Kind {
    /// Every workload, as `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 2] = [Kind::PaperSweep, Kind::ProgSweep];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperSweep => "paper_sweep",
            Kind::ProgSweep => "prog_sweep",
        }
    }

    /// Parses a command-line workload name.
    pub fn by_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The matrix every pass of this workload runs.
    pub fn matrix(self, seeds: Seeds) -> SweepMatrix {
        let mut matrix = SweepMatrix::paper_default(BUDGET);
        if self == Kind::ProgSweep {
            matrix.benchmarks = ProgramKernel::ALL
                .iter()
                .map(|&k| Workload::Kernel(k))
                .collect();
        }
        matrix.workload_seed = seeds.workload;
        matrix.phase_seeds = vec![seeds.phase];
        matrix
    }

    /// Whether the workload's sweeps write a result cache.
    pub fn caches(self) -> bool {
        self == Kind::PaperSweep
    }
}

/// Directory, relative to the working directory, for the benchmark's
/// temporary cache directories and trace files.
pub const WORK_DIR: &str = ".bench_work";

/// A fresh, not yet existing path under [`WORK_DIR`], unique within the
/// process and across concurrent processes.
pub fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    Path::new(WORK_DIR).join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Removes a directory the benchmark created, if it exists.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", dir.display())),
    }
}

/// Matrix-file JSON flattened to the single line a request carries.
pub fn matrix_line(matrix: &SweepMatrix) -> String {
    matrix.to_matrix_json().replace('\n', " ")
}

/// Sweep options for one pass: one worker, plus `cache` if given.
pub fn options(cache: Option<&Path>) -> SweepOptions {
    let opts = SweepOptions::new().threads(1);
    match cache {
        Some(dir) => opts.cache(dir),
        None => opts,
    }
}

/// Set-up state a workload's passes need.
pub struct Prepared {
    /// The matrix each pass runs.
    pub matrix: SweepMatrix,
    /// Points per pass.
    pub points: usize,
    /// Whether each pass writes a fresh result cache.
    pub cache: bool,
}

/// Sets the workload up once, timed: build the matrix, check it survives
/// the matrix-file round trip, and run a one-point warm-up sweep. Returns
/// the set-up and its wall time in seconds.
pub fn set_up(kind: Kind, seeds: Seeds) -> Result<(Prepared, f64), String> {
    let start = Instant::now();
    let matrix = kind.matrix(seeds);
    let parsed = SweepMatrix::from_json(&matrix.to_matrix_json(), BUDGET)?;
    if parsed != matrix {
        return Err("the matrix does not survive its matrix-file round trip".into());
    }
    let points = parsed.expand().len();
    let mut one = matrix.clone();
    one.benchmarks.truncate(1);
    one.modes.truncate(1);
    one.dvfs.truncate(1);
    let warm = sweep(&SweepRequest::new(one).with_options(options(None)))?;
    if warm.results.failed_count() != 0 {
        return Err("the warm-up point failed".into());
    }
    let prepared = Prepared {
        matrix,
        points,
        cache: kind.caches(),
    };
    Ok((prepared, start.elapsed().as_secs_f64()))
}

/// What one untraced pass produced.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the pass: one complete matrix result delivered to the
    /// caller (sweep plus report rendering).
    pub wall_s: f64,
    /// Milliseconds from the previous delivered record (or the start) to
    /// each delivered record.
    pub latencies_ms: Vec<f64>,
    /// Committed instructions over the delivered records.
    pub committed: u64,
    /// Points attempted.
    pub attempted: usize,
    /// Non-`ok` points.
    pub failed: usize,
    /// FNV-1a digest of the deterministic payload, `SweepResults::to_json`.
    pub digest: u64,
    /// The records the pass delivered.
    pub results: SweepResults,
}

/// Runs one untraced pass. `on_record` is called at each delivered
/// record — the hook the traced pass records spans from.
pub fn run_pass(prepared: &Prepared, on_record: &mut dyn FnMut()) -> Result<Pass, String> {
    let points = prepared.points;
    let cache = prepared.cache.then(|| fresh_dir("sweep-cache"));
    let request =
        SweepRequest::new(prepared.matrix.clone()).with_options(options(cache.as_deref()));
    let mut latencies_ms = Vec::with_capacity(points);
    let start = Instant::now();
    let mut last = start;
    let response = sweep_streaming(&request, &mut |_| {
        let now = Instant::now();
        latencies_ms.push((now - last).as_secs_f64() * 1e3);
        last = now;
        on_record();
    })?;
    let report = response.results.to_json();
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(dir) = &cache {
        remove_dir(dir)?;
    }
    let results = response.results;
    if results.runs.len() != points {
        return Err(format!(
            "sweep returned {} records for {points} points",
            results.runs.len()
        ));
    }
    Ok(Pass {
        wall_s,
        latencies_ms,
        committed: results.runs.iter().map(|r| r.committed).sum(),
        attempted: points,
        failed: results.failed_count(),
        digest: fnv1a(report.as_bytes()),
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_survives_the_matrix_file_round_trip() {
        let seeds = [0, 1, 987_654_321, 1 << 53, u64::MAX - 1, u64::MAX]
            .map(Seeds::from_seed)
            .into_iter()
            .chain([HELD_OUT_SEEDS]);
        for s in seeds {
            for kind in Kind::ALL {
                let matrix = kind.matrix(s);
                let parsed = SweepMatrix::from_json(&matrix.to_matrix_json(), BUDGET);
                assert_eq!(parsed.as_ref(), Ok(&matrix), "{s:?}");
            }
        }
        assert_eq!(Seeds::from_seed(0).workload, WORKLOAD_SEED);
        assert_eq!(Seeds::from_seed(0).phase, PHASE_SEED);
    }
}
