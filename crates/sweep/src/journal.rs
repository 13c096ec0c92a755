//! The write-ahead sweep journal: one JSONL line per *completed* run,
//! appended atomically (a single `write` of one `\n`-terminated line on an
//! append-mode file), so a sweep killed at any instant loses at most the
//! runs that were still in flight.
//!
//! ## File format
//!
//! Line 1 is the header:
//!
//! ```text
//! {"journal": "gals-sweep", "journal_version": 1, "schema_version": 4,
//!  "matrix_hash": "<16 hex digits>", "run_count": <usize>}
//! ```
//!
//! Every further line is one run outcome, keyed by the run's content hash
//! (see [`RunKey`]):
//!
//! ```text
//! {"index": 3, "key": "...", "status": "ok", "committed": ..., <metrics>}
//! {"index": 5, "key": "...", "status": "panicked", "panic_msg": "..."}
//! {"index": 6, "key": "...", "status": "timed_out"}
//! {"index": 7, "key": "...", "status": "deadlocked"}
//! ```
//!
//! ## Resume semantics
//!
//! On `--resume`, [`load_journal`] replays the file against the expanded
//! matrix:
//!
//! * the header's `matrix_hash` must match the current matrix — resuming
//!   against a different matrix is a loud error, never a silent partial
//!   merge (the hash covers the schema version and every expanded run's
//!   content key, so any change to an axis, seed or budget is caught;
//!   execution policy like `retries` is deliberately excluded);
//! * `"ok"` entries pre-fill their slot (the metrics round-trip exactly:
//!   floats are serialised with the shortest representation that parses
//!   back bit-identically), so those points are skipped;
//! * failed entries (`panicked`/`timed_out`/`deadlocked`) are *not*
//!   skipped — a resumed sweep re-runs exactly the failed points;
//! * a torn final line (the process died mid-append) is ignored; a
//!   malformed line anywhere else is a loud error;
//! * when one index appears on several lines (a retry in a later
//!   invocation), the last line wins.
//!
//! Floats below 2^53 and the report's u64 counters round-trip through the
//! shared f64-based JSON reader exactly; sweep metrics are far below that
//! bound (simulated times are ~1e11 fs at the default budget).

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use crate::matrix_file::{u64_field, Json, Parser};
use crate::stable_hash::hex16;
use crate::{RunKey, RunRecord, RunSpec, RunStatus, SCHEMA_VERSION};

/// Journal file-format version (independent of the report schema, but the
/// header records both).
pub(crate) const JOURNAL_VERSION: u32 = 1;

/// Shortest f64 representation that parses back to the same bits (Rust's
/// `{:?}` float formatting); non-finite values — which the report layer
/// never produces — degrade to 0 rather than poisoning the JSON.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

/// Renders one journal entry line (without the trailing newline). The
/// same rendering is the result cache's blob body ([`crate::cache`]), so
/// the metric round-trip proof below covers both formats.
pub(crate) fn entry_line(record: &RunRecord, key: RunKey) -> String {
    let head = format!(
        "{{\"index\": {}, \"key\": \"{}\", \"status\": \"{}\"",
        record.spec.index,
        key.to_hex(),
        record.status.label()
    );
    match &record.status {
        RunStatus::Ok => format!(
            "{head}, \"committed\": {}, \"fetched\": {}, \"wrong_path_fetched\": {}, \
             \"exec_time_fs\": {}, \"insts_per_ns\": {}, \"mean_slip_fs\": {}, \
             \"fifo_slip_fraction\": {}, \"misspeculation_rate\": {}, \
             \"channel_ops\": {}, \"total_stretches\": {}, \"stretch_time_fs\": {}, \
             \"rendezvous_block_cycles\": {}, \"min_effective_ghz\": {}, \
             \"total_energy\": {}, \"average_power\": {}}}",
            record.committed,
            record.fetched,
            record.wrong_path_fetched,
            record.exec_time_fs,
            fmt_f64(record.insts_per_ns),
            record.mean_slip_fs,
            fmt_f64(record.fifo_slip_fraction),
            fmt_f64(record.misspeculation_rate),
            record.channel_ops,
            record.total_stretches,
            record.stretch_time_fs,
            record.rendezvous_block_cycles,
            fmt_f64(record.min_effective_ghz),
            fmt_f64(record.total_energy),
            fmt_f64(record.average_power),
        ),
        RunStatus::Panicked { msg } => {
            format!("{head}, \"panic_msg\": \"{}\"}}", crate::json_escape(msg))
        }
        RunStatus::TimedOut | RunStatus::Deadlocked { .. } => format!("{head}}}"),
    }
}

/// The append-side of the journal: create (or reopen) the file, then emit
/// one line per completed run. Shared across sweep workers through an
/// internal mutex; each line is written and flushed in a single call.
///
/// Concurrent-writer safety: the file is always held in append mode
/// (`O_APPEND`), so every `write` positions at end-of-file atomically in
/// the kernel. Within one process the mutex already serializes lines;
/// the append mode additionally keeps whole lines intact even if a
/// second writer (another handle or process, against advice) shares the
/// path — interleaved lines, never torn ones, which the replay side's
/// last-line-wins rule then resolves.
pub(crate) struct JournalWriter {
    file: Mutex<File>,
}

impl JournalWriter {
    /// Starts a fresh journal (truncating any previous file) and writes
    /// the header line.
    pub(crate) fn create(path: &Path, matrix_hash: u64, run_count: usize) -> Result<Self, String> {
        // Truncate first, then reopen in append mode: one flag set for
        // every subsequent write (see the struct docs for why O_APPEND).
        File::create(path).map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        let writer = Self::append_existing(path)?;
        let header = format!(
            "{{\"journal\": \"gals-sweep\", \"journal_version\": {JOURNAL_VERSION}, \
             \"schema_version\": {SCHEMA_VERSION}, \"matrix_hash\": \"{}\", \
             \"run_count\": {run_count}}}\n",
            hex16(matrix_hash)
        );
        {
            let mut file = writer.file.lock().unwrap_or_else(|p| p.into_inner());
            file.write_all(header.as_bytes())
                .and_then(|()| file.flush())
                .map_err(|e| format!("cannot write journal {}: {e}", path.display()))?;
        }
        Ok(writer)
    }

    /// Reopens an existing journal (validated separately by
    /// [`load_journal`]) for appending resumed outcomes.
    pub(crate) fn append_existing(path: &Path) -> Result<Self, String> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
        Ok(JournalWriter {
            file: Mutex::new(file),
        })
    }

    /// Appends one completed-run line. A poisoned lock is recovered — a
    /// journal write must never be lost to an unrelated panic.
    pub(crate) fn append(&self, record: &RunRecord, key: RunKey) -> Result<(), String> {
        let mut line = entry_line(record, key);
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot append to journal: {e}"))
    }
}

fn parse_u64(v: &Json, key: &str, line_no: usize) -> Result<u64, String> {
    u64_field(v, key)?.ok_or_else(|| format!("journal line {line_no}: missing {key:?}"))
}

fn parse_f64(v: &Json, key: &str, line_no: usize) -> Result<f64, String> {
    let value = v
        .get(key)
        .ok_or_else(|| format!("journal line {line_no}: missing {key:?}"))?;
    value.as_f64().ok_or_else(|| {
        format!(
            "journal line {line_no}: {key} must be a number, got {}",
            value.type_name()
        )
    })
}

fn parse_str<'a>(v: &'a Json, key: &str, line_no: usize) -> Result<&'a str, String> {
    match v.get(key) {
        Some(Json::Str(s)) => Ok(s),
        Some(other) => Err(format!(
            "journal line {line_no}: {key} must be a string, got {}",
            other.type_name()
        )),
        None => Err(format!("journal line {line_no}: missing {key:?}")),
    }
}

/// Replays a journal against the current matrix expansion: validates the
/// header, then returns the slot vector with every journaled-`ok` run
/// pre-filled (failed entries leave their slot empty so the resumed sweep
/// re-runs them). See the module docs for the full semantics.
pub(crate) fn load_journal(
    text: &str,
    expect_hash: u64,
    specs: &[RunSpec],
) -> Result<Vec<Option<RunRecord>>, String> {
    let mut slots: Vec<Option<RunRecord>> = vec![None; specs.len()];
    let lines: Vec<&str> = text.lines().collect();
    let Some(header_line) = lines.first() else {
        return Err("journal is empty (no header line)".into());
    };
    let header = Parser::new(header_line)
        .value()
        .map_err(|e| format!("journal header: {e}"))?;
    if parse_str(&header, "journal", 1)? != "gals-sweep" {
        return Err("journal header: not a gals-sweep journal".into());
    }
    let version = parse_u64(&header, "journal_version", 1)?;
    if version != u64::from(JOURNAL_VERSION) {
        return Err(format!(
            "journal version {version} is not the supported version {JOURNAL_VERSION}"
        ));
    }
    let schema = parse_u64(&header, "schema_version", 1)?;
    if schema != u64::from(SCHEMA_VERSION) {
        return Err(format!(
            "journal was written by schema v{schema}, this harness writes v{SCHEMA_VERSION} \
             — re-run without --resume"
        ));
    }
    let hash = parse_str(&header, "matrix_hash", 1)?;
    if hash != hex16(expect_hash) {
        return Err(format!(
            "journal matrix_hash {hash} does not match the current matrix ({}) — \
             the journal belongs to a different sweep; re-run without --resume \
             or point --journal elsewhere",
            hex16(expect_hash)
        ));
    }
    let run_count = parse_u64(&header, "run_count", 1)? as usize;
    if run_count != specs.len() {
        return Err(format!(
            "journal run_count {run_count} does not match the current matrix ({} runs)",
            specs.len()
        ));
    }

    for (i, line) in lines.iter().enumerate().skip(1) {
        let line_no = i + 1;
        let last = i + 1 == lines.len();
        let entry = match Parser::new(line).value() {
            Ok(v) => v,
            // A torn final line means the process died mid-append: that
            // run simply re-runs. Corruption anywhere else is loud.
            Err(_) if last => continue,
            Err(e) => return Err(format!("journal line {line_no}: {e}")),
        };
        let parsed = parse_entry(&entry, specs, line_no);
        match parsed {
            Ok((index, record)) => slots[index] = record,
            Err(_) if last => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(slots)
}

/// One journal entry → its slot index and (for `ok` entries) the
/// reconstructed record. Failed statuses return `None` so their slots
/// stay empty and the points re-run.
fn parse_entry(
    entry: &Json,
    specs: &[RunSpec],
    line_no: usize,
) -> Result<(usize, Option<RunRecord>), String> {
    let index = parse_u64(entry, "index", line_no)? as usize;
    let Some(spec) = specs.get(index) else {
        return Err(format!(
            "journal line {line_no}: index {index} is outside the matrix ({} runs)",
            specs.len()
        ));
    };
    let key = parse_str(entry, "key", line_no)?;
    if key != RunKey::of(spec).to_hex() {
        return Err(format!(
            "journal line {line_no}: key {key} does not match matrix point {index} — \
             the journal belongs to a different sweep"
        ));
    }
    let status = parse_str(entry, "status", line_no)?;
    if status != "ok" {
        // Failed outcomes re-run on resume; nothing to reconstruct.
        return Ok((index, None));
    }
    Ok((index, Some(parse_ok_record(entry, spec, line_no)?)))
}

/// Reconstructs the [`RunRecord`] of an `"ok"` entry from its parsed JSON
/// object. Shared by journal replay and the result cache's blob reader —
/// both store the [`entry_line`] rendering.
pub(crate) fn parse_ok_record(
    entry: &Json,
    spec: &RunSpec,
    line_no: usize,
) -> Result<RunRecord, String> {
    Ok(RunRecord {
        spec: spec.clone(),
        status: RunStatus::Ok,
        // Not journaled: a pure function of the spec, recomputed so the
        // resumed record is bit-identical to a fresh run's.
        analysis: spec.static_findings(),
        committed: parse_u64(entry, "committed", line_no)?,
        fetched: parse_u64(entry, "fetched", line_no)?,
        wrong_path_fetched: parse_u64(entry, "wrong_path_fetched", line_no)?,
        exec_time_fs: parse_u64(entry, "exec_time_fs", line_no)?,
        insts_per_ns: parse_f64(entry, "insts_per_ns", line_no)?,
        mean_slip_fs: parse_u64(entry, "mean_slip_fs", line_no)?,
        fifo_slip_fraction: parse_f64(entry, "fifo_slip_fraction", line_no)?,
        misspeculation_rate: parse_f64(entry, "misspeculation_rate", line_no)?,
        channel_ops: parse_u64(entry, "channel_ops", line_no)?,
        total_stretches: parse_u64(entry, "total_stretches", line_no)?,
        stretch_time_fs: parse_u64(entry, "stretch_time_fs", line_no)?,
        rendezvous_block_cycles: parse_u64(entry, "rendezvous_block_cycles", line_no)?,
        min_effective_ghz: parse_f64(entry, "min_effective_ghz", line_no)?,
        total_energy: parse_f64(entry, "total_energy", line_no)?,
        average_power: parse_f64(entry, "average_power", line_no)?,
    })
}

/// Parses one cache blob (a single [`entry_line`] rendering) for `spec`,
/// verifying its `key` field against the expected [`RunKey`].
///
/// Returns `Ok(Some(record))` for a well-formed `"ok"` entry,
/// `Ok(None)` for a well-formed non-ok entry (a failed run must never be
/// served from cache), and `Err` for anything malformed — the cache
/// treats every `Err` as a corrupt blob, i.e. a miss.
pub(crate) fn parse_blob(
    text: &str,
    spec: &RunSpec,
    key: RunKey,
) -> Result<Option<RunRecord>, String> {
    let line = text.lines().next().ok_or("empty blob")?;
    let entry = Parser::new(line)
        .value()
        .map_err(|e| format!("blob: {e}"))?;
    let got = parse_str(&entry, "key", 1)?;
    if got != key.to_hex() {
        return Err(format!("blob key {got} does not match {}", key.to_hex()));
    }
    if parse_str(&entry, "status", 1)? != "ok" {
        return Ok(None);
    }
    Ok(Some(parse_ok_record(&entry, spec, 1)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DvfsPoint, ModePoint, SweepMatrix, WORKLOAD_SEED};
    use gals_workload::{Benchmark, Workload};

    fn specs() -> Vec<RunSpec> {
        SweepMatrix {
            benchmarks: vec![Workload::Profile(Benchmark::Adpcm)],
            modes: vec![
                ModePoint::Synchronous,
                ModePoint::Gals {
                    wakeup_filter: false,
                },
            ],
            dvfs: vec![DvfsPoint::nominal()],
            phase_seeds: vec![1],
            workload_seed: WORKLOAD_SEED,
            budget: 500,
            retries: 0,
            run_timeout_ms: None,
        }
        .expand()
    }

    fn identity(specs: &[RunSpec]) -> u64 {
        let keys: Vec<RunKey> = specs.iter().map(RunKey::of).collect();
        crate::stable_hash::matrix_identity(&keys)
    }

    fn header(specs: &[RunSpec]) -> String {
        format!(
            "{{\"journal\": \"gals-sweep\", \"journal_version\": 1, \
             \"schema_version\": {SCHEMA_VERSION}, \"matrix_hash\": \"{}\", \
             \"run_count\": {}}}",
            hex16(identity(specs)),
            specs.len()
        )
    }

    #[test]
    fn run_keys_separate_matrix_points_and_hash_is_stable() {
        let specs = specs();
        assert_ne!(RunKey::of(&specs[0]), RunKey::of(&specs[1]));
        assert_eq!(identity(&specs), identity(&specs));
        let mut other = specs.clone();
        other[1].budget += 1;
        assert_ne!(identity(&specs), identity(&other));
    }

    #[test]
    fn ok_entries_round_trip_through_the_line_format() {
        let specs = specs();
        let record = specs[0].run();
        assert!(record.status.is_ok());
        let key = RunKey::of(&specs[0]);
        let text = format!("{}\n{}\n", header(&specs), entry_line(&record, key));
        let slots = load_journal(&text, identity(&specs), &specs).expect("valid journal");
        assert_eq!(slots[0].as_ref(), Some(&record), "exact metric round-trip");
        assert!(slots[1].is_none());
    }

    #[test]
    fn torn_final_line_is_ignored_but_inner_corruption_is_loud() {
        let specs = specs();
        let record = specs[0].run();
        let key = RunKey::of(&specs[0]);
        let full = entry_line(&record, key);
        let torn = &full[..full.len() / 2];
        let text = format!("{}\n{torn}", header(&specs));
        let slots = load_journal(&text, identity(&specs), &specs).expect("torn tail tolerated");
        assert!(slots.iter().all(Option::is_none));

        let text = format!("{}\n{torn}\n{full}\n", header(&specs));
        let err = load_journal(&text, identity(&specs), &specs).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn mismatched_matrix_is_a_loud_error() {
        let specs = specs();
        let mut other = specs.clone();
        other[0].budget += 1;
        let err =
            load_journal(&format!("{}\n", header(&specs)), identity(&other), &other).unwrap_err();
        assert!(err.contains("does not match the current matrix"), "{err}");
        assert!(load_journal("", identity(&specs), &specs).is_err());
    }

    #[test]
    fn blobs_round_trip_and_reject_mismatched_keys_and_failed_runs() {
        let specs = specs();
        let record = specs[0].run();
        let key = RunKey::of(&specs[0]);
        let blob = format!("{}\n", entry_line(&record, key));
        assert_eq!(
            parse_blob(&blob, &specs[0], key).expect("valid blob"),
            Some(record.clone())
        );
        // A blob stored under one key never deserialises for another.
        let other = RunKey::of(&specs[1]);
        assert!(parse_blob(&blob, &specs[1], other).is_err());
        // Failed outcomes are well-formed but never served from cache.
        let failed = RunRecord {
            status: RunStatus::TimedOut,
            ..record
        };
        let blob = format!("{}\n", entry_line(&failed, key));
        assert_eq!(
            parse_blob(&blob, &specs[0], key).expect("well-formed"),
            None
        );
        // Truncation is an error (which the cache treats as a miss).
        assert!(parse_blob("", &specs[0], key).is_err());
        assert!(parse_blob("{\"ind", &specs[0], key).is_err());
    }
}
