//! The benchmark's declaration: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is rendered from [`spec`] (`e2ebench --write-spec`), and
//! a self-test keeps the committed file equal to it.

use meissa_testkit::json::Json;
#[cfg(test)]
use meissa_testkit::json::JsonError;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work counts).
    Lower,
    /// Larger is better (throughput, hit rates).
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[cfg(test)]
    fn parse(s: &str) -> Result<Self, JsonError> {
        match s {
            "lower" => Ok(Better::Lower),
            "higher" => Ok(Better::Higher),
            other => Err(JsonError::new(format!("unknown direction `{other}`"))),
        }
    }
}

/// One declared metric. End-to-end metrics carry a `bound`, the share of
/// the parent commit's median by which they may worsen; per-layer metrics
/// carry none.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as printed in results.
    pub name: String,
    /// Unit as printed in results.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// One declared workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadDecl {
    /// Name passed as `--workload`.
    pub name: String,
    /// Why the workload is in the benchmark, one line.
    pub why: String,
}

/// The whole declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// How to run the benchmark from the repository root.
    pub command: Vec<String>,
    /// Directories holding the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workloads.
    pub workloads: Vec<WorkloadDecl>,
    /// Metrics of the untraced run (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Metrics of the traced run (`--trace 1`).
    pub per_layer: Vec<Metric>,
}

/// Declared workloads. `gw3-wire` runs on request but is not declared: its
/// wire latency spread exceeds any allowed bound on a shared 2-vCPU host
/// (see the README).
const WORKLOADS: [(&str, &str); 2] = [
    (
        "gw4-summary",
        "gw-4/set-4 checked in-process: code summary and template instantiation dominate, top-level DFS is idle",
    ),
    (
        "acl-dfs",
        "single-pipeline ACL, four seeded draws of 96 random rules per table: summary is skipped, parallel DFS and SAT dominate",
    ),
];

/// End-to-end metrics: (name, unit, better, bound). Every bound sits at the
/// format's 0.25 maximum: on a shared 2-vCPU host the machine's speed
/// drifts by up to a quarter over minutes, which no run length averages out
/// (see the README's steadiness section).
const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("generate_s", "s", Better::Lower, 0.25),
    ("verdict_s", "s", Better::Lower, 0.25),
    ("cases_per_s", "1/s", Better::Higher, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// Per-layer metrics of the traced run: (name, unit, better). The case
/// latency percentiles are end-to-end figures of the wire workload; with
/// `gw3-wire` undeclared they are reported here, where no bound applies,
/// because in-process per-case latency on a shared host flips between two
/// speed modes from pass to pass (see the README).
const PER_LAYER: [(&str, &str, Better); 48] = [
    ("lang.parse_s", "s", Better::Lower),
    ("lang.compile_s", "s", Better::Lower),
    ("lang.cfg_nodes", "count", Better::Lower),
    ("ir.log10_paths_before", "log10", Better::Lower),
    ("ir.log10_paths_after", "log10", Better::Lower),
    ("core.summary_s", "s", Better::Lower),
    ("core.summary_smt_checks", "count", Better::Lower),
    ("core.exec_s", "s", Better::Lower),
    ("core.paths_explored", "count", Better::Lower),
    ("core.pruned", "count", Better::Higher),
    ("core.residual_s", "s", Better::Lower),
    ("core.templates", "count", Better::Higher),
    ("core.rules_hit", "count", Better::Higher),
    ("core.smt_checks", "count", Better::Lower),
    ("core.cache_probes", "count", Better::Lower),
    ("core.cache_hit_rate", "ratio", Better::Higher),
    ("core.batched_probes", "count", Better::Higher),
    ("core.arm_batches", "count", Better::Lower),
    ("core.backend_routed_bdd", "count", Better::Lower),
    ("smt.sat_engine_calls", "count", Better::Lower),
    ("smt.sat_per_check", "ratio", Better::Lower),
    ("smt.fast_path", "count", Better::Higher),
    ("smt.model_reuse", "count", Better::Higher),
    ("smt.sat_propagations", "count", Better::Lower),
    ("smt.sat_conflicts", "count", Better::Lower),
    ("smt.sat_decisions", "count", Better::Lower),
    ("template.instantiate_s", "s", Better::Lower),
    ("template.us_per_case", "us", Better::Lower),
    ("template.cases", "count", Better::Higher),
    ("template.skipped", "count", Better::Lower),
    ("driver.check_s", "s", Better::Lower),
    ("driver.us_per_case", "us", Better::Lower),
    ("driver.passed", "count", Better::Higher),
    ("driver.failed", "count", Better::Lower),
    ("case_p50_us", "us", Better::Lower),
    ("case_p99_us", "us", Better::Lower),
    ("fail_frac", "ratio", Better::Lower),
    ("dataplane.inject_s", "s", Better::Lower),
    ("dataplane.us_per_packet", "us", Better::Lower),
    ("netdriver.setup_s", "s", Better::Lower),
    ("netdriver.replay_s", "s", Better::Lower),
    ("netdriver.injected_per_case", "ratio", Better::Lower),
    ("netdriver.forwarded", "count", Better::Higher),
    ("netdriver.dropped", "count", Better::Lower),
    ("obs.unattributed_frac", "ratio", Better::Lower),
    ("obs.trace_overhead_frac", "ratio", Better::Lower),
    ("obs.layer_sum_err_frac", "ratio", Better::Lower),
    ("oracle.bugs_detected", "count", Better::Higher),
];

/// Seconds one run measures by default.
pub const RUN_SECONDS: u64 = 50;

/// The benchmark's declaration.
pub fn spec() -> Spec {
    let metric = |name: &str, unit: &str, better: Better, bound: Option<f64>| Metric {
        name: name.into(),
        unit: unit.into(),
        better,
        bound,
    };
    Spec {
        command: [
            "cargo",
            "run",
            "--quiet",
            "--release",
            "--offline",
            "--manifest-path",
            "e2ebench/Cargo.toml",
            "--",
        ]
        .map(String::from)
        .to_vec(),
        paths: vec!["e2ebench".into()],
        run_seconds: RUN_SECONDS,
        workloads: WORKLOADS
            .iter()
            .map(|&(name, why)| WorkloadDecl {
                name: name.into(),
                why: why.into(),
            })
            .collect(),
        end_to_end: END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| metric(n, u, b, Some(bound)))
            .collect(),
        per_layer: PER_LAYER
            .iter()
            .map(|&(n, u, b)| metric(n, u, b, None))
            .collect(),
    }
}

/// Looks up an end-to-end or per-layer metric's unit by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
}

/// Declared metric names for one mode, in declaration order.
pub fn metric_names(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|&(n, _, _)| n).collect()
    } else {
        END_TO_END.iter().map(|&(n, _, _, _)| n).collect()
    }
}

fn str_json(s: &str) -> String {
    Json::Str(s.into()).to_text()
}

fn float_text(v: f64) -> String {
    Json::Float(v).to_text()
}

impl Spec {
    /// Renders the declaration as `BENCHMARK.json` text: one line per
    /// workload and metric, so diffs of the file stay readable.
    pub fn to_text(&self) -> String {
        let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
        let metric = |m: &Metric| {
            let mut s = format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}",
                str_json(&m.name),
                str_json(&m.unit),
                str_json(m.better.label())
            );
            if let Some(b) = m.bound {
                s.push_str(&format!(", \"bound\": {}", float_text(b)));
            }
            s.push('}');
            s
        };
        let strings = |v: &[String]| {
            format!(
                "[{}]",
                v.iter().map(|s| str_json(s)).collect::<Vec<_>>().join(", ")
            )
        };
        format!(
            "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
            strings(&self.command),
            strings(&self.paths),
            self.run_seconds,
            list(
                self.workloads
                    .iter()
                    .map(|w| format!(
                        "{{\"name\": {}, \"why\": {}}}",
                        str_json(&w.name),
                        str_json(&w.why)
                    ))
                    .collect()
            ),
            list(self.end_to_end.iter().map(metric).collect()),
            list(self.per_layer.iter().map(metric).collect()),
        )
    }

    /// Parses `BENCHMARK.json` text.
    #[cfg(test)]
    pub fn parse(text: &str) -> Result<Spec, JsonError> {
        let v = Json::parse(text)?;
        let strings = |key: &str| -> Result<Vec<String>, JsonError> {
            v.field(key)?
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(String::from))
                .collect()
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, JsonError> {
            v.field(key)?
                .as_arr()?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: m.field("name")?.as_str()?.into(),
                        unit: m.field("unit")?.as_str()?.into(),
                        better: Better::parse(m.field("better")?.as_str()?)?,
                        bound: match bounded {
                            true => Some(m.field("bound")?.as_f64()?),
                            false => None,
                        },
                    })
                })
                .collect()
        };
        Ok(Spec {
            command: strings("command")?,
            paths: strings("paths")?,
            run_seconds: u64::try_from(v.field("run_seconds")?.as_u128()?)
                .map_err(|_| JsonError::new("run_seconds out of range"))?,
            workloads: v
                .field("workloads")?
                .as_arr()?
                .iter()
                .map(|w| {
                    Ok(WorkloadDecl {
                        name: w.field("name")?.as_str()?.into(),
                        why: w.field("why")?.as_str()?.into(),
                    })
                })
                .collect::<Result<_, JsonError>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_round_trips() {
        let s = spec();
        let text = s.to_text();
        assert_eq!(Spec::parse(&text).unwrap(), s);
        assert_eq!(Spec::parse(&text).unwrap().to_text(), text);
    }

    #[test]
    fn committed_benchmark_json_matches_the_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            spec().to_text(),
            "regenerate with `cargo run --release --manifest-path e2ebench/Cargo.toml -- --write-spec BENCHMARK.json`"
        );
    }

    #[test]
    fn declaration_keeps_the_format_limits() {
        let s = spec();
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));
        assert!((1..=60).contains(&s.run_seconds));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let max_bound = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(max_bound),
            "setup_s carries the largest bound"
        );
        let mut names: Vec<&str> = s
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .chain(s.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(s.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric and workload names are unique");
        for m in s.end_to_end.iter() {
            assert!(m.bound.unwrap() > 0.0 && m.bound.unwrap() <= 0.25);
        }
        for w in &s.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(
                crate::pipeline::Kind::parse(&w.name).is_some(),
                "{} runs",
                w.name
            );
        }
    }
}
