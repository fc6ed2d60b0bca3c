//! `e2ebench`: the source-to-verdict benchmark.
//!
//! ```text
//! e2ebench --workload <gw4-summary|acl-dfs|gw3-wire> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench --write-spec <path>      # render BENCHMARK.json from the declaration
//! e2ebench --golden --workload <w> --seed <n>   # print a golden row for goldens.rs
//! ```
//!
//! Each run sets the workload up several times (`setup_s`), then repeats
//! whole source-to-verdict passes for `--seconds` and reports medians. With
//! `--trace 1` it alternates untraced and traced passes and reports the
//! per-layer split instead. Every pass is gated on the recorded goldens and
//! a clean verdict; every run also re-runs the Table 2 bug corpus. The last
//! line of standard output is one JSON object; the exit code is non-zero
//! when any check failed. See `e2ebench/README.md`.

mod goldens;
mod pipeline;
mod spec;
mod stats;
mod trace;

use meissa_testkit::json::Json;
use pipeline::{Inputs, Iteration, Kind};
use stats::{grouped_percentile, median, relative_iqr, tail_percentile, CaseTally};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Environment knobs the engine and drivers read behind the caller's back;
/// a run refuses to start while any is set, so every result is measured
/// under the pinned configuration.
const PINNED_ENV: [&str; 8] = [
    "MEISSA_THREADS",
    "MEISSA_BACKEND",
    "MEISSA_K_PACKETS",
    "MEISSA_CLAUSE_SHARE",
    "MEISSA_WIRE_FRAMING",
    "MEISSA_TRACE",
    "MEISSA_LEDGER",
    "MEISSA_LOG",
];

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 201;

/// Minimum rounds per run, whatever `--seconds` says. A round is one
/// source-to-verdict pass over each of the workload's rule draws; traced
/// runs alternate untraced and traced rounds and run at least four.
const MIN_ROUNDS: usize = 3;

/// A tail percentile is reported only with this many samples beyond it.
const TAIL_MIN_BEYOND: usize = 10;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    traced: bool,
    write_spec: Option<String>,
    golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        traced: false,
        write_spec: None,
        golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--write-spec" => args.write_spec = Some(value()?),
            "--golden" => args.golden = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn refuse_pinned_env() -> Result<(), String> {
    let set: Vec<&str> = PINNED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    match set.is_empty() {
        true => Ok(()),
        false => Err(format!(
            "refusing to run with {} set: the benchmark pins its own configuration",
            set.join(", ")
        )),
    }
}

/// The commit under test: `git rev-parse HEAD` when run from the root of a
/// git checkout, otherwise an FNV-1a hash of the sources under `crates/`
/// (a checkout without `.git` still identifies what it measured).
fn commit_id() -> String {
    if std::path::Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output();
        if let Ok(out) = git {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => dirs.push(p),
                Ok(t) if t.is_file() => files.push(p),
                _ => {}
            }
        }
    }
    if files.is_empty() {
        return "unknown".into();
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("src-fnv:{h:016x}")
}

/// Correctness findings of a run; any entry fails it.
#[derive(Default)]
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks one pass against the golden (or, for a seed without one,
    /// against the run's first pass) and demands a clean verdict.
    fn check_pass(&mut self, it: &Iteration, expect: &goldens::Golden, pass: usize) {
        let got = goldens::Golden::of(it);
        self.require(got == *expect, || {
            format!("pass {pass}: output {got} differs from expected {expect}")
        });
        self.require(
            it.tally.attempted() > 0 && it.tally.fail_frac() == 0.0,
            || {
                format!(
                    "pass {pass}: {} of {} attempted cases did not pass on the faithful target",
                    it.tally.not_passed(),
                    it.tally.attempted()
                )
            },
        );
        self.require(!it.stats.timed_out, || {
            format!("pass {pass}: engine timed out")
        });
    }
}

/// Per-run results, name → value, in declaration order.
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|&(n, v)| {
                    (
                        n.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Float(v)),
                            ("unit".into(), Json::Str(spec::unit_of(n).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn med_of(passes: &[&Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    let v: Vec<f64> = passes.iter().map(|it| f(it)).collect();
    median(&v).unwrap_or(0.0)
}

fn spread_note(passes: &[&Iteration], f: impl Fn(&Iteration) -> f64) -> String {
    let v: Vec<f64> = passes.iter().map(|it| f(it)).collect();
    match relative_iqr(&v) {
        Some(r) => format!("n={} iqr/median={:.3}", v.len(), r),
        None => format!("n={}", v.len()),
    }
}

/// Per-case latency percentiles (p50, p99) over `passes`, each with the
/// line that states its sample count. A percentile without 10 samples
/// beyond it is a gate failure.
fn case_latency(gate: &mut Gate, passes: &[&Iteration]) -> [(&'static str, f64, String); 2] {
    let samples: Vec<&[f64]> = passes.iter().map(|it| it.latencies_us.as_slice()).collect();
    [("case_p50_us", 50), ("case_p99_us", 99)].map(|(name, p)| {
        match grouped_percentile(&samples, p, TAIL_MIN_BEYOND) {
            Some((v, groups, n)) => (
                name,
                v,
                format!("median over {groups} groups of passes of the group p{p}; {n} samples"),
            ),
            None => {
                let why = format!("fewer than {TAIL_MIN_BEYOND} samples lie beyond p{p}");
                gate.failures.push(format!("{name}: {why}"));
                (name, 0.0, format!("not reportable: {why}"))
            }
        }
    })
}

/// The untraced run's end-to-end metrics.
fn end_to_end(m: &mut Metrics, setups: &[f64], passes: &[&Iteration]) -> Vec<String> {
    let mut notes = Vec::new();
    let setup = median(setups).unwrap_or(0.0);
    m.set("setup_s", setup);
    notes.push(format!(
        "n={} iqr/median={:.3}",
        setups.len(),
        relative_iqr(setups).unwrap_or(0.0)
    ));
    let generate = |it: &Iteration| secs(it.generate);
    m.set("generate_s", med_of(passes, generate));
    notes.push(spread_note(passes, generate));
    let verdict = |it: &Iteration| secs(it.verdict);
    m.set("verdict_s", med_of(passes, verdict));
    notes.push(spread_note(passes, verdict));
    // Throughput over the whole run: every checked case over every check
    // stage's time, so passes weigh in by the work they did.
    let cases: u64 = passes.iter().map(|it| it.tally.attempted()).sum();
    let check: f64 = passes.iter().map(|it| secs(it.check + it.replay)).sum();
    m.set("cases_per_s", cases as f64 / check);
    notes.push(format!(
        "{cases} cases over {check:.3} s of check stage; per pass {}",
        spread_note(passes, |it| it.cases_per_s)
    ));
    m.set("peak_rss_mb", med_of(passes, |it| it.peak_rss_mb));
    notes.push(format!(
        "per-pass VmHWM; {}",
        spread_note(passes, |it| it.peak_rss_mb)
    ));
    notes
}

/// The traced run's per-layer metrics: medians over the traced passes,
/// with `pairs` of (traced pass, untraced pass of the same draw one round
/// earlier) as the overhead baseline. The netdriver metrics come from the
/// traced passes that ran over the wire.
fn per_layer(
    m: &mut Metrics,
    gate: &mut Gate,
    traced: &[&Iteration],
    pairs: &[(&Iteration, &Iteration)],
    wire: &[&Iteration],
    bugs: usize,
) {
    let t = traced;
    let attempted = |it: &Iteration| it.tally.attempted().max(1) as f64;
    m.set("lang.parse_s", med_of(t, |it| secs(it.parse)));
    m.set("lang.compile_s", med_of(t, |it| secs(it.compile)));
    m.set("lang.cfg_nodes", med_of(t, |it| it.cfg_nodes as f64));
    m.set(
        "ir.log10_paths_before",
        med_of(t, |it| it.stats.paths_before.log10()),
    );
    m.set(
        "ir.log10_paths_after",
        med_of(t, |it| it.stats.paths_after.log10()),
    );
    m.set(
        "core.summary_s",
        med_of(t, |it| secs(it.stats.summary_elapsed)),
    );
    m.set(
        "core.summary_smt_checks",
        med_of(t, |it| {
            it.stats.summary.as_ref().map_or(0, |s| s.smt_checks) as f64
        }),
    );
    m.set("core.exec_s", med_of(t, |it| secs(it.stats.exec_elapsed)));
    m.set(
        "core.paths_explored",
        med_of(t, |it| it.stats.paths_explored as f64),
    );
    m.set("core.pruned", med_of(t, |it| it.stats.pruned as f64));
    m.set(
        "core.residual_s",
        med_of(t, |it| {
            secs(
                it.generate
                    .saturating_sub(it.stats.summary_elapsed + it.stats.exec_elapsed),
            )
        }),
    );
    m.set(
        "core.templates",
        med_of(t, |it| it.stats.valid_paths as f64),
    );
    m.set("core.rules_hit", med_of(t, |it| it.stats.rules_hit as f64));
    m.set(
        "core.smt_checks",
        med_of(t, |it| it.stats.smt_checks as f64),
    );
    m.set(
        "core.cache_probes",
        med_of(t, |it| it.stats.cache_probes as f64),
    );
    m.set(
        "core.cache_hit_rate",
        med_of(t, |it| it.stats.cache_hit_rate()),
    );
    m.set(
        "core.batched_probes",
        med_of(t, |it| it.stats.batched_probes as f64),
    );
    m.set(
        "core.arm_batches",
        med_of(t, |it| it.stats.arm_batches as f64),
    );
    m.set(
        "core.backend_routed_bdd",
        med_of(t, |it| it.stats.backend_routed_bdd as f64),
    );
    m.set(
        "smt.sat_engine_calls",
        med_of(t, |it| it.stats.solver.sat_engine_calls as f64),
    );
    m.set(
        "smt.sat_per_check",
        med_of(t, |it| {
            it.stats.solver.sat_engine_calls as f64 / it.stats.smt_checks.max(1) as f64
        }),
    );
    m.set(
        "smt.fast_path",
        med_of(t, |it| it.stats.solver.fast_path as f64),
    );
    m.set(
        "smt.model_reuse",
        med_of(t, |it| it.stats.solver.model_reuse as f64),
    );
    m.set(
        "smt.sat_propagations",
        med_of(t, |it| it.stats.sat.propagations as f64),
    );
    m.set(
        "smt.sat_conflicts",
        med_of(t, |it| it.stats.sat.conflicts as f64),
    );
    m.set(
        "smt.sat_decisions",
        med_of(t, |it| it.stats.sat.decisions as f64),
    );
    m.set(
        "template.instantiate_s",
        med_of(t, |it| secs(it.instantiate)),
    );
    m.set(
        "template.us_per_case",
        med_of(t, |it| {
            secs(it.instantiate) * 1e6 / it.tally.total.max(1) as f64
        }),
    );
    m.set("template.cases", med_of(t, |it| it.tally.total as f64));
    m.set("template.skipped", med_of(t, |it| it.tally.skipped as f64));
    m.set("driver.check_s", med_of(t, |it| secs(it.check)));
    m.set(
        "driver.us_per_case",
        med_of(t, |it| secs(it.check) * 1e6 / attempted(it)),
    );
    m.set("driver.passed", med_of(t, |it| it.tally.passed as f64));
    m.set("driver.failed", med_of(t, |it| it.tally.failed as f64));
    for (name, value, _) in case_latency(gate, t) {
        m.set(name, value);
    }
    m.set("fail_frac", med_of(t, |it| it.tally.fail_frac()));
    let dp = |it: &Iteration| it.dataplane.unwrap_or_default();
    m.set("dataplane.inject_s", med_of(t, |it| secs(dp(it).0)));
    m.set(
        "dataplane.us_per_packet",
        med_of(t, |it| secs(dp(it).0) * 1e6 / dp(it).1.max(1) as f64),
    );
    let agent = |it: &Iteration| it.agent.unwrap_or_default();
    m.set("netdriver.setup_s", med_of(wire, |it| secs(it.net_setup)));
    m.set("netdriver.replay_s", med_of(wire, |it| secs(it.replay)));
    m.set(
        "netdriver.injected_per_case",
        med_of(wire, |it| agent(it).injected as f64 / attempted(it)),
    );
    m.set(
        "netdriver.forwarded",
        med_of(wire, |it| agent(it).forwarded as f64),
    );
    m.set(
        "netdriver.dropped",
        med_of(wire, |it| agent(it).dropped as f64),
    );

    // Each traced pass is compared with the untraced pass of the same draw
    // one round earlier: adjacent in time, so the machine's drift over a
    // run cancels out of the ratio.
    let root = |it: &Iteration| secs(it.spans[0].len);
    let root_self = |it: &Iteration| secs(trace::self_times(&it.spans)[0]);
    let ratios = |f: &dyn Fn(&Iteration) -> f64| {
        let v: Vec<f64> = pairs
            .iter()
            .map(|(tr, un)| f(tr) / secs(un.verdict))
            .collect();
        median(&v).unwrap_or(1.0)
    };
    m.set(
        "obs.unattributed_frac",
        med_of(t, |it| root_self(it) / root(it)),
    );
    m.set("obs.trace_overhead_frac", ratios(&root) - 1.0);
    m.set(
        "obs.layer_sum_err_frac",
        (ratios(&|it| root(it) - root_self(it)) - 1.0).abs(),
    );
    m.set("oracle.bugs_detected", bugs as f64);
}

/// Per-layer self time of one traced pass, summed by layer.
fn layer_split(it: &Iteration) -> Vec<(&'static str, f64)> {
    let selfs = trace::self_times(&it.spans);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, &d) in it.spans.iter().zip(&selfs).skip(1) {
        match out.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some((_, v)) => *v += secs(d),
            None => out.push((s.layer(), secs(d))),
        }
    }
    out.push(("unattributed", secs(selfs[0])));
    out
}

fn print_pass(index: usize, draw: usize, it: &Iteration) {
    let kind = match (it.spans.is_empty(), it.agent.is_some()) {
        (true, false) => "",
        (true, true) => " wire",
        (false, false) => " traced",
        (false, true) => " traced wire",
    };
    let pct = |p| tail_percentile(&it.latencies_us, p, 0).map_or(0.0, |x| x.0);
    println!(
        "pass {index:>3} draw {draw}{kind}: verdict {:.4} s = compile {:.4} + generate {:.4} + instantiate {:.4} + check {:.4} + wire {:.4}; {:.0} cases/s, p50 {:.1} us, p99 {:.1} us, peak {:.1} MB",
        secs(it.verdict),
        secs(it.parse + it.compile),
        secs(it.generate),
        secs(it.instantiate),
        secs(it.check),
        secs(it.net_setup + it.replay),
        it.cases_per_s,
        pct(50),
        pct(99),
        it.peak_rss_mb,
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let kind = args.workload.ok_or("--workload is required")?;
    refuse_pinned_env()?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "e2ebench workload={} seed={} seconds={} trace={} threads={} nproc={} commit={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        pipeline::THREADS,
        nproc,
        commit_id()
    );
    if !kind.uses_seed() {
        println!(
            "note: {} uses the fixed set-k rule ladder; the seed does not change its inputs",
            kind.name()
        );
    }
    let draws: Vec<Inputs> = kind
        .draw_seeds(args.seed)
        .into_iter()
        .map(|d| Inputs::new(kind, d))
        .collect::<Result<_, _>>()?;
    let goldens: Vec<Option<goldens::Golden>> = draws
        .iter()
        .map(|i| goldens::lookup(kind, i.draw_seed))
        .collect();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        setups.push(secs(pipeline::setup_once(&draws[rep % draws.len()])?));
    }

    // Rounds of one pass per draw until the time is up; traced runs
    // alternate untraced and traced rounds and end on a traced one.
    let mut gate = Gate::default();
    let mut passes: Vec<Iteration> = Vec::new();
    let mut expect = goldens.clone();
    let min_rounds = if args.traced {
        MIN_ROUNDS + 1
    } else {
        MIN_ROUNDS
    };
    let start = Instant::now();
    let mut round = 0;
    'rounds: while round < min_rounds
        || start.elapsed() < Duration::from_secs(args.seconds)
        || (args.traced && round % 2 == 1)
    {
        let traced = args.traced && round % 2 == 1;
        for (d, inputs) in draws.iter().enumerate() {
            let it = pipeline::run_once(inputs, traced, kind.wire())?;
            let expected = expect[d].get_or_insert_with(|| goldens::Golden::of(&it));
            gate.check_pass(&it, expected, passes.len());
            print_pass(passes.len(), d, &it);
            passes.push(it);
            if !gate.failures.is_empty() {
                break 'rounds;
            }
        }
        round += 1;
    }
    // A traced run of an in-process workload also replays its first draw
    // over loopback TCP once, so the netdriver layer is measured on every
    // workload.
    let mut wire_probe = None;
    if args.traced && !kind.wire() && gate.failures.is_empty() {
        let it = pipeline::run_once(&draws[0], true, true)?;
        if let Some(expected) = &expect[0] {
            gate.check_pass(&it, expected, passes.len());
        }
        print_pass(passes.len(), 0, &it);
        wire_probe = Some(it);
    }
    for (inputs, golden) in draws.iter().zip(&goldens) {
        if golden.is_none() {
            println!(
                "note: no golden recorded for {} draw seed {:?}; its passes were checked against each other",
                kind.name(),
                inputs.draw_seed
            );
        }
    }

    let known = pipeline::known_answers();
    gate.require(known.detected == known.total, || {
        format!(
            "known-answer check: {}/{} Table 2 bugs detected; missed {}",
            known.detected,
            known.total,
            known.missed.join(", ")
        )
    });

    let untraced: Vec<&Iteration> = passes.iter().filter(|it| it.spans.is_empty()).collect();
    let traced: Vec<&Iteration> = passes.iter().filter(|it| !it.spans.is_empty()).collect();
    let wire: Vec<&Iteration> = traced
        .iter()
        .copied()
        .chain(wire_probe.as_ref())
        .filter(|it| it.agent.is_some())
        .collect();
    let mut all = CaseTally::default();
    for it in passes.iter().chain(wire_probe.as_ref()) {
        all.add(&it.tally);
    }

    let mut m = Metrics(Vec::new());
    let notes = match args.traced {
        false => end_to_end(&mut m, &setups, &untraced),
        true => {
            let pairs: Vec<(&Iteration, &Iteration)> = (draws.len()..passes.len())
                .map(|k| (&passes[k], &passes[k - draws.len()]))
                .filter(|(tr, un)| !tr.spans.is_empty() && un.spans.is_empty())
                .collect();
            per_layer(&mut m, &mut gate, &traced, &pairs, &wire, known.detected);
            Vec::new()
        }
    };
    let names: Vec<&str> = m.0.iter().map(|&(n, _)| n).collect();
    assert_eq!(
        names,
        spec::metric_names(args.traced),
        "results follow the declaration"
    );
    for (i, (name, value)) in m.0.iter().enumerate() {
        println!(
            "{name:<28} {value:>16.6} {:<6} {}",
            spec::unit_of(name),
            notes.get(i).map_or("", String::as_str)
        );
    }
    if !args.traced {
        for (name, value, note) in case_latency(&mut Gate::default(), &untraced) {
            println!(
                "{name:<28} {value:>16.6} {:<6} {note} (per-layer metric)",
                spec::unit_of(name)
            );
        }
    }
    println!(
        "fail_frac {:.6} ratio ({} of {} attempted cases not passed; {} skipped; {} passes)",
        all.fail_frac(),
        all.not_passed(),
        all.attempted(),
        all.skipped,
        passes.len() + usize::from(wire_probe.is_some())
    );
    for (d, golden) in expect.iter().enumerate() {
        if let Some(g) = golden {
            let source = if goldens[d].is_some() {
                "recorded golden"
            } else {
                "first pass"
            };
            println!("outputs draw {d}: {g} ({source})");
        }
    }
    println!(
        "known answers: bugs_detected {}/{} in {:.3} s",
        known.detected,
        known.total,
        secs(known.elapsed)
    );
    if let Some(it) = traced.last() {
        println!("trace of the last traced pass (benchmark spans; core.summary/core.exec from RunStats):");
        print!("{}", trace::render_tree(&it.spans));
        let split: Vec<String> = layer_split(it)
            .iter()
            .map(|(l, v)| format!("{l}={:.1}%", 100.0 * v / secs(it.spans[0].len)))
            .collect();
        println!("layer self-time split: {}", split.join(" "));
    }
    for f in &gate.failures {
        println!("FAILED: {f}");
    }

    let correct = gate.failures.is_empty();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(u128::from(all.attempted()))),
        ("failed".into(), Json::UInt(u128::from(all.not_passed()))),
        ("metrics".into(), m.json()),
    ]);
    println!("{}", result.to_text());
    Ok(correct)
}

/// Prints the golden rows of every rule draw of `seed`.
fn print_goldens(kind: Kind, seed: u64) -> Result<(), String> {
    for draw in kind.draw_seeds(seed) {
        let it = pipeline::run_once(&Inputs::new(kind, draw)?, false, kind.wire())?;
        println!("{}", goldens::Golden::of(&it).row(kind, draw));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_spec {
        return match std::fs::write(path, spec::spec().to_text()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench: writing {path}: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.golden {
        let done = args
            .workload
            .ok_or_else(|| "--golden needs --workload".to_string())
            .and_then(|k| print_goldens(k, args.seed));
        if let Err(e) = done {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
