//! The user-defined matrix file: a small JSON schema describing a
//! [`SweepMatrix`](crate::SweepMatrix), loaded by `sweep --matrix FILE`
//! as an alternative to the in-code builder.
//!
//! ## File format
//!
//! ```json
//! {
//!   "benchmarks": ["gcc", "fpppp"],
//!   "modes": ["sync", "gals+filter", "pausible@300ps+coalesce"],
//!   "dvfs": [
//!     "nominal",
//!     "uniform1.5x",
//!     { "label": "fp2x", "slowdown": [1.0, 1.0, 1.0, 2.0, 1.0] }
//!   ],
//!   "phase_seeds": [2002, 7],
//!   "workload_seed": 1590088705,
//!   "budget": 60000,
//!   "retries": 1,
//!   "run_timeout_ms": 120000
//! }
//! ```
//!
//! * `benchmarks` — workload names from [`Workload::name`]: lower-case
//!   synthetic benchmark names (`"gcc"`) and/or `prog:`-prefixed program
//!   kernels (`"prog:gcc_like"`, see `docs/PROGRAM_FORMAT.md`).
//! * `modes` — [`ModePoint::label`](crate::ModePoint::label) strings:
//!   `sync`, `gals[+filter]`,
//!   `pausible@<N>ps[+rendezvous][+coalesce][+filter]` (`+rendezvous`
//!   selects the unbuffered transfer-capacity model).
//! * `dvfs` — `"nominal"`, `"uniform<F>x"`, or an object with `label` and
//!   five per-domain `slowdown` factors.
//! * `workload_seed` and `budget` are optional (defaults:
//!   [`WORKLOAD_SEED`](crate::WORKLOAD_SEED) and 60 000; the `sweep`
//!   binary's `--budget` flag overrides the file).
//! * `retries` and `run_timeout_ms` are optional execution-policy
//!   defaults (extra attempts for failed points, and the per-run
//!   wall-clock deadline): defaults 0 and unset (the harness then uses
//!   its budget-scaled deadline), overridable by the `sweep` binary's
//!   `--retries`/`--run-timeout-ms` flags. They do not change *what* is
//!   simulated, only how failures are handled, so they are excluded from
//!   the journal's matrix identity hash.
//!
//! [`SweepMatrix::to_matrix_json`](crate::SweepMatrix::to_matrix_json)
//! renders this format back, and the loader/renderer pair round-trips
//! every representable matrix (pinned by a test).
//!
//! The parser is a self-contained minimal JSON reader (the workspace
//! carries no serde); errors are human-readable strings the binary routes
//! to stderr with the uniform usage exit code.

use gals_workload::Workload;

use crate::{DvfsPoint, ModePoint, SweepMatrix, WORKLOAD_SEED};

/// A parsed JSON value (just enough of the grammar for matrix files and
/// the sweep journal, which shares this reader).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    /// A number, kept as its validated source literal so that integers
    /// read back exactly (an `f64` holds only 53 bits): read it with
    /// [`Json::as_f64`] or [`u64_value`].
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// The value of a number, rounded to the nearest `f64`; `None` for
    /// anything that is not a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(literal) => literal.parse().ok(),
            _ => None,
        }
    }

    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

pub(crate) struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("matrix JSON error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    pub(crate) fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    // The input is a &str, so unescaped content is valid
                    // UTF-8 byte-for-byte; collecting bytes (not
                    // byte-as-char, which would Latin-1-mangle multi-byte
                    // sequences) preserves it.
                    return String::from_utf8(out).map_err(|_| self.err("malformed UTF-8"));
                }
                Some(b'\\') => {
                    // Matrix files carry benchmark/mode names; the escapes
                    // that can appear are the simple ones.
                    let esc = *self
                        .bytes
                        .get(self.pos + 1)
                        .ok_or_else(|| self.err("dangling escape"))?;
                    out.push(match esc {
                        b'"' => b'"',
                        b'\\' => b'\\',
                        b'/' => b'/',
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => {
                            return Err(self.err(&format!("unsupported escape \\{}", other as char)))
                        }
                    });
                    self.pos += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .filter(|s| s.parse::<f64>().is_ok())
            .map(|s| Json::Num(s.to_string()))
            .ok_or_else(|| self.err("malformed number"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn benchmark_by_name(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        format!(
            "unknown benchmark {name:?} (expected one of: {})",
            Workload::all()
                .iter()
                .map(|w| w.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

/// Parses a [`ModePoint::label`] string back into the mode point.
pub(crate) fn mode_from_label(label: &str) -> Result<ModePoint, String> {
    let (base, features) = match label.find('+') {
        Some(i) => (&label[..i], &label[i + 1..]),
        None => (label, ""),
    };
    let mut coalesce = false;
    let mut wakeup_filter = false;
    let mut rendezvous = false;
    for feature in features.split('+').filter(|f| !f.is_empty()) {
        match feature {
            "coalesce" => coalesce = true,
            "filter" => wakeup_filter = true,
            "rendezvous" => rendezvous = true,
            other => return Err(format!("unknown mode feature {other:?} in {label:?}")),
        }
    }
    match base {
        "sync" => {
            if coalesce || wakeup_filter || rendezvous {
                return Err(format!("{label:?}: the synchronous mode takes no features"));
            }
            Ok(ModePoint::Synchronous)
        }
        "gals" => {
            if coalesce || rendezvous {
                return Err(format!(
                    "{label:?}: +coalesce/+rendezvous need pausible clocking"
                ));
            }
            Ok(ModePoint::Gals { wakeup_filter })
        }
        _ => {
            let ps = base
                .strip_prefix("pausible@")
                .and_then(|rest| rest.strip_suffix("ps"))
                .ok_or_else(|| {
                    format!(
                        "unknown mode {label:?} (expected sync, gals[+filter] or \
                         pausible@<N>ps[+rendezvous][+coalesce][+filter])"
                    )
                })?;
            let handshake_ps: u64 = ps
                .parse()
                .map_err(|_| format!("bad handshake duration in {label:?}"))?;
            Ok(ModePoint::Pausible {
                handshake_ps,
                coalesce,
                wakeup_filter,
                rendezvous,
            })
        }
    }
}

fn dvfs_from_json(v: &Json) -> Result<DvfsPoint, String> {
    match v {
        Json::Str(s) if s == "nominal" => Ok(DvfsPoint::nominal()),
        Json::Str(s) => {
            let factor = s
                .strip_prefix("uniform")
                .and_then(|rest| rest.strip_suffix('x'))
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| {
                    format!("unknown dvfs point {s:?} (expected nominal or uniform<F>x)")
                })?;
            Ok(DvfsPoint::uniform(factor))
        }
        Json::Obj(_) => {
            let label = match v.get("label") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err("dvfs object needs a string \"label\"".into()),
            };
            let Some(Json::Arr(items)) = v.get("slowdown") else {
                return Err(format!("dvfs {label:?} needs a \"slowdown\" array"));
            };
            if items.len() != 5 {
                return Err(format!(
                    "dvfs {label:?}: slowdown needs 5 per-domain factors, got {}",
                    items.len()
                ));
            }
            let mut slowdown = [0.0; 5];
            for (i, item) in items.iter().enumerate() {
                match item.as_f64() {
                    Some(f) if f >= 1.0 => slowdown[i] = f,
                    Some(f) => return Err(format!("dvfs {label:?}: slowdown {f} below 1.0")),
                    None => {
                        return Err(format!(
                            "dvfs {label:?}: slowdown entries must be numbers, got {}",
                            item.type_name()
                        ))
                    }
                }
            }
            Ok(DvfsPoint::per_domain(label, slowdown))
        }
        other => Err(format!(
            "dvfs entries must be strings or objects, got {}",
            other.type_name()
        )),
    }
}

/// Reads a JSON integer literal as an exact `u64`. `what` names the field
/// in the error, which rejects fractions, exponents, negative values,
/// values above `u64::MAX` and non-numbers alike.
pub(crate) fn u64_value(v: &Json, what: &str) -> Result<u64, String> {
    match v {
        Json::Num(literal) if literal.bytes().all(|b| b.is_ascii_digit()) => {
            literal.parse().map_err(|_| {
                format!(
                    "{what} {literal} is out of range (the largest allowed is {})",
                    u64::MAX
                )
            })
        }
        Json::Num(literal) => Err(format!(
            "{what} must be a non-negative integer, got {literal}"
        )),
        other => Err(format!(
            "{what} must be a non-negative integer, got {}",
            other.type_name()
        )),
    }
}

pub(crate) fn u64_field(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => u64_value(value, key).map(Some),
    }
}

/// Parses a matrix file (see the module docs for the format).
///
/// # Errors
///
/// A human-readable message naming the first problem — malformed JSON, an
/// unknown benchmark/mode/dvfs name, a missing axis, or an empty one.
pub(crate) fn matrix_from_json(text: &str, default_budget: u64) -> Result<SweepMatrix, String> {
    let mut parser = Parser::new(text);
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing data after the matrix object"));
    }
    matrix_from_value(&root, default_budget)
}

/// Converts an already-parsed matrix object (a file's root, or the
/// `"matrix"` member of a `sweep --serve` request) into a [`SweepMatrix`].
pub(crate) fn matrix_from_value(root: &Json, default_budget: u64) -> Result<SweepMatrix, String> {
    if !matches!(root, Json::Obj(_)) {
        return Err(format!(
            "matrix file must be a JSON object, got {}",
            root.type_name()
        ));
    }

    let list = |key: &str| -> Result<&Vec<Json>, String> {
        match root.get(key) {
            Some(Json::Arr(items)) if !items.is_empty() => Ok(items),
            Some(Json::Arr(_)) => Err(format!("{key} must not be empty")),
            Some(other) => Err(format!("{key} must be an array, got {}", other.type_name())),
            None => Err(format!("matrix file is missing the {key:?} axis")),
        }
    };

    let mut benchmarks = Vec::new();
    for item in list("benchmarks")? {
        match item {
            Json::Str(name) => benchmarks.push(benchmark_by_name(name)?),
            other => {
                return Err(format!(
                    "benchmarks entries must be strings, got {}",
                    other.type_name()
                ))
            }
        }
    }
    let mut modes = Vec::new();
    for item in list("modes")? {
        match item {
            Json::Str(label) => modes.push(mode_from_label(label)?),
            other => {
                return Err(format!(
                    "modes entries must be strings, got {}",
                    other.type_name()
                ))
            }
        }
    }
    let mut dvfs = Vec::new();
    for item in list("dvfs")? {
        dvfs.push(dvfs_from_json(item)?);
    }
    let mut phase_seeds = Vec::new();
    for item in list("phase_seeds")? {
        phase_seeds.push(u64_value(item, "phase_seeds entry")?);
    }

    let retries = match u64_field(root, "retries")? {
        None => 0,
        Some(n) => u32::try_from(n).map_err(|_| format!("retries {n} is out of range"))?,
    };

    Ok(SweepMatrix {
        benchmarks,
        modes,
        dvfs,
        phase_seeds,
        workload_seed: u64_field(root, "workload_seed")?.unwrap_or(WORKLOAD_SEED),
        budget: u64_field(root, "budget")?.unwrap_or(default_budget),
        retries,
        run_timeout_ms: u64_field(root, "run_timeout_ms")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_parse_back() {
        for mode in [
            ModePoint::Synchronous,
            ModePoint::Gals {
                wakeup_filter: false,
            },
            ModePoint::Gals {
                wakeup_filter: true,
            },
            ModePoint::Pausible {
                handshake_ps: 300,
                coalesce: true,
                wakeup_filter: true,
                rendezvous: false,
            },
            ModePoint::Pausible {
                handshake_ps: 100,
                coalesce: false,
                wakeup_filter: false,
                rendezvous: false,
            },
            ModePoint::Pausible {
                handshake_ps: 300,
                coalesce: false,
                wakeup_filter: false,
                rendezvous: true,
            },
            ModePoint::Pausible {
                handshake_ps: 600,
                coalesce: true,
                wakeup_filter: true,
                rendezvous: true,
            },
        ] {
            assert_eq!(mode_from_label(&mode.label()).unwrap(), mode);
        }
        assert!(mode_from_label("sync+filter").is_err());
        assert!(mode_from_label("gals+coalesce").is_err());
        assert!(mode_from_label("gals+rendezvous").is_err());
        assert!(mode_from_label("sync+rendezvous").is_err());
        assert!(mode_from_label("pausible@ps").is_err());
        assert!(mode_from_label("warp").is_err());
    }

    #[test]
    fn strings_preserve_utf8_and_escapes() {
        let text = r#"{
            "benchmarks": ["gcc"], "modes": ["gals"],
            "dvfs": [{"label": "2\u00d7mem \"fast\"", "slowdown": [1, 1, 1, 1, 2]}],
            "phase_seeds": [1]
        }"#
        .replace("\\u00d7", "\u{00d7}");
        let m = matrix_from_json(&text, 1).expect("valid file");
        assert_eq!(m.dvfs[0].label, "2\u{00d7}mem \"fast\"");
    }

    #[test]
    fn loader_reports_bad_axes() {
        let e = matrix_from_json("[]", 1).unwrap_err();
        assert!(e.contains("object"), "{e}");
        let e = matrix_from_json(r#"{"benchmarks": []}"#, 1).unwrap_err();
        assert!(e.contains("must not be empty"), "{e}");
        let e = matrix_from_json(
            r#"{"benchmarks": ["gcc"], "modes": ["sync"], "dvfs": ["nominal"]}"#,
            1,
        )
        .unwrap_err();
        assert!(e.contains("phase_seeds"), "{e}");
        let e = matrix_from_json(
            r#"{"benchmarks": ["notabench"], "modes": ["sync"],
                "dvfs": ["nominal"], "phase_seeds": [1]}"#,
            1,
        )
        .unwrap_err();
        assert!(e.contains("unknown benchmark"), "{e}");
        let e = matrix_from_json("{", 1).unwrap_err();
        assert!(e.contains("JSON error"), "{e}");
    }

    fn with_fields(fields: &str) -> String {
        format!(r#"{{"benchmarks": ["gcc"], "modes": ["gals"], "dvfs": ["nominal"], {fields}}}"#)
    }

    #[test]
    fn integers_are_read_exactly() {
        // 2^53 + 1 has no f64 representation: it used to come back as
        // 2^53, so two distinct seeds shared one run key and cache blob.
        let m = matrix_from_json(
            &with_fields(
                r#""phase_seeds": [9007199254740993, 9007199254740992],
                   "workload_seed": 18446744073709551615, "budget": 9007199254740993"#,
            ),
            1,
        )
        .expect("valid file");
        assert_eq!(
            m.phase_seeds,
            vec![9_007_199_254_740_993, 9_007_199_254_740_992]
        );
        assert_eq!(m.workload_seed, u64::MAX);
        assert_eq!(m.budget, 9_007_199_254_740_993);
        let specs = m.expand();
        assert_ne!(specs[0].key(), specs[1].key());
        // The rendered file reads back to the same matrix.
        assert_eq!(matrix_from_json(&m.to_matrix_json(), 1).unwrap(), m);
    }

    #[test]
    fn inexact_integers_are_rejected_by_name() {
        for (fields, field, shown) in [
            (r#""phase_seeds": [1.5]"#, "phase_seeds entry", "1.5"),
            (r#""phase_seeds": [-3]"#, "phase_seeds entry", "-3"),
            (
                r#""phase_seeds": [18446744073709551616]"#,
                "phase_seeds entry",
                "out of range",
            ),
            (r#""phase_seeds": ["7"]"#, "phase_seeds entry", "string"),
            (
                r#""phase_seeds": [1], "workload_seed": 2.5"#,
                "workload_seed",
                "2.5",
            ),
            (
                r#""phase_seeds": [1], "workload_seed": -1"#,
                "workload_seed",
                "-1",
            ),
            (
                r#""phase_seeds": [1], "workload_seed": 18446744073709551616"#,
                "workload_seed",
                "out of range",
            ),
            (r#""phase_seeds": [1], "budget": 6e4"#, "budget", "6e4"),
            (r#""phase_seeds": [1], "retries": 1.0"#, "retries", "1.0"),
        ] {
            let e = matrix_from_json(&with_fields(fields), 1).unwrap_err();
            assert!(e.starts_with(field), "{fields}: {e}");
            assert!(e.contains(shown), "{fields}: {e}");
        }
    }
}
