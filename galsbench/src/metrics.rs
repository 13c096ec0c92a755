//! The metric catalogue: every metric a run can print, with its unit and
//! which direction is better. `BENCHMARK.json` lists the same names.

use crate::probe::MACHINES;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, measured with tracing off, in report order.
/// Request latency (p50 and tail) and request rate are printed beside
/// them but not listed: see `NOTES.md` for why they carry no bound.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("wall_norm_s", "s", "lower"),
        metric("sim_insts_per_norm_s", "insts/s", "higher"),
        metric("peak_rss_mb", "MiB", "lower"),
        metric("setup_s", "s", "lower"),
    ]
}

/// The per-layer metrics of a traced run, in report order.
pub fn per_layer() -> Vec<Metric> {
    let mut out = vec![
        metric("workload.generate_ms", "ms", "lower"),
        metric("isa.parse_ms", "ms", "lower"),
        metric("isa.execute_ms", "ms", "lower"),
        metric("isa.stream_ns_per_inst", "ns/inst", "lower"),
        metric("analysis.preflight_us", "us", "lower"),
    ];
    for m in MACHINES {
        out.extend([
            metric(format!("core.{m}.insts_per_s"), "insts/s", "higher"),
            metric(format!("core.{m}.ns_per_domain_cycle"), "ns/cycle", "lower"),
            metric(
                format!("core.{m}.domain_cycles_per_inst"),
                "cycles/inst",
                "lower",
            ),
            metric(format!("core.{m}.fetched_per_committed"), "ratio", "lower"),
            metric(
                format!("clocks.{m}.channel_ops_per_inst"),
                "ops/inst",
                "lower",
            ),
            metric(
                format!("clocks.{m}.stretches_per_inst"),
                "stretches/inst",
                "lower",
            ),
        ]);
    }
    out.extend([
        metric("events.clockset_ns_per_edge", "ns/edge", "lower"),
        metric("sweep.cache.store_us", "us", "lower"),
        metric("sweep.cache.lookup_us", "us", "lower"),
        metric("sweep.cache.hit_ratio", "ratio", "higher"),
        metric("sweep.runkey_us", "us", "lower"),
        metric("sweep.render_us", "us", "lower"),
        metric("sweep.matrix_parse_us", "us", "lower"),
        metric("sweep.warm_sweep_ms", "ms", "lower"),
        metric("sweep.server.framing_ms", "ms", "lower"),
        metric("submit.attempts_per_request", "attempts/req", "lower"),
        metric("trace.overhead_s", "s", "lower"),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    /// The `BENCHMARK.json` entries of one list, as (name, unit, better).
    fn listed(section: &str) -> Vec<(String, String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..]
                .split('"')
                .next()
                .unwrap_or_default()
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    fn triples(ms: &[Metric]) -> Vec<(String, String, String)> {
        ms.iter()
            .map(|m| (m.name.clone(), m.unit.to_string(), m.better.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(listed("end_to_end"), triples(&end_to_end()));
        assert_eq!(listed("per_layer"), triples(&per_layer()));
    }

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        for m in &all {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
