//! The workloads and one pass of each from P4lite source plus rule text to
//! the last checked verdict, driven only through the layers' public entry
//! points:
//!
//! `lang::{parse_program, parse_rules, compile}` → `core::Meissa::run` →
//! `driver::plan_cases` → `driver::TestDriver` against a faithful
//! `dataplane::SwitchTarget` (in-process), or `netdriver::WireDriver`
//! against an in-process `netdriver::Agent` over loopback TCP (wire).

use crate::stats::CaseTally;
use crate::trace::{Span, Tracer};
use meissa_core::{Meissa, RunOutput, RunStats};
use meissa_dataplane::SwitchTarget;
use meissa_driver::{plan_cases, CaseResult, CaseSpec, TestDriver, TestReport, Verdict};
use meissa_lang::{compile, parse_program, parse_rules, CompiledProgram};
use meissa_netdriver::{fetch_stats, hello, Agent, AgentHandle, Framing, WireDriver};
use meissa_suite::gw::{gw_rules, gw_source, rule_set};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Engine worker threads, pinned so results do not follow the host's core
/// count (which every result records next to it).
pub const THREADS: usize = 2;

/// Random rules per ACL table in `acl-dfs`.
pub const ACL_RULES_PER_TABLE: usize = 96;

/// Rule draws per `acl-dfs` seed. Passes rotate through them, so one run
/// measures a fixed set of four random rule sets and its medians do not
/// hinge on one draw's luck.
pub const ACL_DRAWS: u64 = 4;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// gw-4/set-4, checked in-process.
    Gw4Summary,
    /// `suite::acl(96, seed)`, checked in-process.
    AclDfs,
    /// gw-3/set-3, replayed over loopback TCP.
    Gw3Wire,
}

impl Kind {
    /// Every workload, in declaration order.
    pub const ALL: [Kind; 3] = [Kind::Gw4Summary, Kind::AclDfs, Kind::Gw3Wire];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Gw4Summary => "gw4-summary",
            Kind::AclDfs => "acl-dfs",
            Kind::Gw3Wire => "gw3-wire",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the seed changes the workload's inputs. The gw rule sets are
    /// the fixed set-k ladder; only the ACL rule draw is random.
    pub fn uses_seed(self) -> bool {
        self == Kind::AclDfs
    }

    /// The rule-draw seeds one run rotates through: `ACL_DRAWS` per seed
    /// for `acl-dfs` (disjoint between seeds), none for the gw ladder.
    pub fn draw_seeds(self, seed: u64) -> Vec<Option<u64>> {
        match self.uses_seed() {
            true => (0..ACL_DRAWS)
                .map(|j| Some(seed.wrapping_mul(ACL_DRAWS).wrapping_add(j)))
                .collect(),
            false => vec![None],
        }
    }

    /// Whether the workload's check stage runs over the wire.
    pub fn wire(self) -> bool {
        self == Kind::Gw3Wire
    }
}

/// A workload's inputs: P4lite source and rule text.
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// The rule-draw seed, for workloads with random rules.
    pub draw_seed: Option<u64>,
    /// P4lite program source.
    pub source: String,
    /// Rule-file text.
    pub rules: String,
}

impl Inputs {
    /// Builds one input set of `kind`; `draw_seed` (from
    /// [`Kind::draw_seeds`]) drives the ACL rule draw.
    pub fn new(kind: Kind, draw_seed: Option<u64>) -> Result<Inputs, String> {
        let (source, rules) = match (kind, draw_seed) {
            (Kind::Gw4Summary, _) => (gw_source(4), gw_rules(4, rule_set(4))),
            (Kind::Gw3Wire, _) => (gw_source(3), gw_rules(3, rule_set(3))),
            (Kind::AclDfs, Some(seed)) => {
                let src = meissa_suite::programs::ACL;
                let ast = parse_program(src).map_err(|e| format!("ACL source: {e}"))?;
                let rules =
                    meissa_suite::randrules::generate_rules(&ast, ACL_RULES_PER_TABLE, seed);
                (src.to_string(), rules.to_text())
            }
            (Kind::AclDfs, None) => return Err("acl-dfs needs a rule-draw seed".into()),
        };
        Ok(Inputs {
            kind,
            draw_seed,
            source,
            rules,
        })
    }
}

/// The engine every workload runs: the paper's full configuration with the
/// thread count pinned.
pub fn engine() -> Meissa {
    let mut m = Meissa::new();
    m.config.threads = THREADS;
    m
}

/// Parses and compiles source plus rule text, returning the program and
/// the parse and compile times.
fn compile_inputs(
    inputs: &Inputs,
    tr: &mut Tracer,
) -> Result<(CompiledProgram, Duration, Duration), String> {
    let span = tr.begin("lang.parse");
    let t = Instant::now();
    let ast = parse_program(&inputs.source).map_err(|e| format!("parse: {e}"))?;
    let rules = parse_rules(&inputs.rules).map_err(|e| format!("rules: {e}"))?;
    let parse = t.elapsed();
    tr.end(span);
    let span = tr.begin("lang.compile");
    let t = Instant::now();
    let program = compile(&ast, &rules).map_err(|e| format!("compile: {e}"))?;
    let compile = t.elapsed();
    tr.end(span);
    Ok((program, parse, compile))
}

/// Spawns a loopback agent hosting a faithful target for `program`.
fn spawn_agent(program: &CompiledProgram) -> Result<AgentHandle, String> {
    Agent::spawn(Some(SwitchTarget::new(program)), None).map_err(|e| format!("agent spawn: {e}"))
}

/// One set-up: source plus rules to a compiled program; for a wire
/// workload also agent spawn and the Hello negotiation. Returns its time.
pub fn setup_once(inputs: &Inputs) -> Result<Duration, String> {
    let t = Instant::now();
    let (program, _, _) = compile_inputs(inputs, &mut Tracer::new(false))?;
    if !inputs.kind.wire() {
        let took = t.elapsed();
        black_box(program);
        return Ok(took);
    }
    let agent = spawn_agent(&program)?;
    let negotiated = hello(agent.addr()).map_err(|e| format!("hello: {e}"));
    let took = t.elapsed();
    agent.shutdown();
    negotiated.map(|_| took)
}

/// Traffic counters the agent reported after a wire run.
#[derive(Clone, Copy, Debug, Default)]
pub struct AgentCounters {
    /// Packets the agent injected into its target (retransmits included).
    pub injected: u64,
    /// Packets its target forwarded.
    pub forwarded: u64,
    /// Packets its target dropped.
    pub dropped: u64,
}

/// Everything one source-to-verdict pass measured.
pub struct Iteration {
    /// Source + rules → last verdict.
    pub verdict: Duration,
    /// `parse_program` + `parse_rules`.
    pub parse: Duration,
    /// `compile`.
    pub compile: Duration,
    /// `Meissa::run`.
    pub generate: Duration,
    /// Template instantiation: `plan_cases` in-process; on the wire,
    /// `WireDriver::run`'s time before its replay clock starts (planning,
    /// serialization, Hello and connect).
    pub instantiate: Duration,
    /// In-process check loop (zero on the wire).
    pub check: Duration,
    /// Agent spawn (zero in-process).
    pub net_setup: Duration,
    /// Wire replay clock (zero in-process).
    pub replay: Duration,
    /// The engine's own statistics.
    pub stats: RunStats,
    /// Nodes of the compiled CFG.
    pub cfg_nodes: usize,
    /// Order-independent content hash of the templates.
    pub fingerprint: u64,
    /// Verdict tallies.
    pub tally: CaseTally,
    /// Cases checked per second of check-stage time.
    pub cases_per_s: f64,
    /// Per-case latency of every executed case, µs.
    pub latencies_us: Vec<f64>,
    /// Agent counters (wire only).
    pub agent: Option<AgentCounters>,
    /// Peak resident memory during the pass, MB.
    pub peak_rss_mb: f64,
    /// Reference-target inject time over this pass's planned inputs, and
    /// the packet count (traced passes only).
    pub dataplane: Option<(Duration, usize)>,
    /// The pass's spans (traced passes only).
    pub spans: Vec<Span>,
}

/// Attaches the engine's own phase timers as children of the open
/// `core.generate` span; what they leave uncovered is `Meissa::run`'s
/// residue (CFG clone, path counting, coverage measurement).
fn derive_core_spans(tr: &mut Tracer, stats: &RunStats) {
    tr.derived("core.summary", Duration::ZERO, stats.summary_elapsed);
    tr.derived("core.exec", stats.summary_elapsed, stats.exec_elapsed);
}

/// Checks every planned case in-process against `target`, exactly as
/// `TestDriver::run` does after its own planning. The report's `elapsed`
/// covers the check loop only, so throughput excludes instantiation.
pub fn check_stage(
    program: &CompiledProgram,
    cases: &[CaseSpec],
    target: &SwitchTarget,
) -> TestReport {
    let driver = TestDriver::new(program);
    let mut report = TestReport::new(target.fault().name());
    let t = Instant::now();
    for spec in cases {
        report.push(match spec {
            CaseSpec::Skip {
                template_id,
                reason,
            } => CaseResult::new(
                *template_id,
                Verdict::Skipped {
                    reason: reason.clone(),
                },
                Vec::new(),
            ),
            CaseSpec::Case {
                template_id, input, ..
            } => driver.check_input(target, *template_id, input),
        });
    }
    report.elapsed = t.elapsed();
    report
}

/// Times the reference `SwitchTarget::inject` over the planned inputs,
/// serialized up front so only injection is on the clock.
fn probe_dataplane(program: &CompiledProgram, cases: &[CaseSpec]) -> (Duration, usize) {
    let reference = SwitchTarget::new(program);
    let packets: Vec<_> = cases
        .iter()
        .filter_map(|c| match c {
            CaseSpec::Case { wire_id, input, .. } => reference
                .plan()
                .serialize_state(&program.cfg.fields, input, *wire_id)
                .ok(),
            CaseSpec::Skip { .. } => None,
        })
        .collect();
    let t = Instant::now();
    for p in &packets {
        black_box(reference.inject(black_box(p)));
    }
    (t.elapsed(), packets.len())
}

fn latencies_us(report: &TestReport) -> Vec<f64> {
    report
        .cases
        .iter()
        .filter(|c| !matches!(c.verdict, Verdict::Skipped { .. }))
        .map(|c| c.latency.as_secs_f64() * 1e6)
        .collect()
}

/// One source-to-verdict pass of the workload, checked in-process or, with
/// `wire`, over loopback TCP. With `traced`, the pass also records spans
/// and probes the dataplane after its last verdict.
pub fn run_once(inputs: &Inputs, traced: bool, wire: bool) -> Result<Iteration, String> {
    reset_peak_rss();
    let mut tr = Tracer::new(traced);
    let t0 = Instant::now();
    let root = tr.begin("verdict");
    let (program, parse, compile) = compile_inputs(inputs, &mut tr)?;

    let mut agent = None;
    let mut net_setup = Duration::ZERO;
    if wire {
        let span = tr.begin("netdriver.setup");
        let t = Instant::now();
        agent = Some(spawn_agent(&program)?);
        net_setup = t.elapsed();
        tr.end(span);
    }

    let span = tr.begin("core.generate");
    let t = Instant::now();
    let mut run = engine().run(&program);
    let generate = t.elapsed();
    derive_core_spans(&mut tr, &run.stats);
    tr.end(span);

    let checked = match &agent {
        None => in_process_check(&program, &mut run, &mut tr),
        Some(agent) => wire_check(&program, &mut run, agent, &mut tr),
    };
    let verdict = t0.elapsed();
    tr.end(root);

    let counters = agent.map(|agent| {
        let stats = fetch_stats(agent.addr());
        agent.shutdown();
        stats
    });
    let checked = checked?;
    let agent = match counters {
        Some(Ok((injected, forwarded, dropped, _))) => Some(AgentCounters {
            injected,
            forwarded,
            dropped,
        }),
        Some(Err(e)) => return Err(format!("agent stats: {e}")),
        None => None,
    };
    let peak_rss_mb = peak_rss_mb()?;
    let dataplane = traced.then(|| {
        let cases = match checked.cases {
            Some(cases) => cases,
            None => plan_cases(&program, &mut run, 1),
        };
        probe_dataplane(&program, &cases)
    });

    Ok(Iteration {
        verdict,
        parse,
        compile,
        generate,
        instantiate: checked.instantiate,
        check: checked.check,
        net_setup,
        replay: checked.replay,
        cfg_nodes: program.cfg.num_nodes(),
        fingerprint: fingerprint(&run),
        tally: CaseTally::of(&checked.report),
        cases_per_s: checked.report.cases_per_sec().unwrap_or(0.0),
        latencies_us: latencies_us(&checked.report),
        stats: run.stats,
        agent,
        peak_rss_mb,
        dataplane,
        spans: tr.take(),
    })
}

/// Resets this process's peak-RSS mark (`VmHWM`) so the next reading
/// covers one pass. Where the kernel refuses, readings fall back to the
/// process-lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) since the last reset, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What a check stage hands back to [`run_once`].
struct Checked {
    report: TestReport,
    instantiate: Duration,
    check: Duration,
    replay: Duration,
    /// The planned cases, when the stage planned them itself.
    cases: Option<Vec<CaseSpec>>,
}

fn in_process_check(
    program: &CompiledProgram,
    run: &mut RunOutput,
    tr: &mut Tracer,
) -> Result<Checked, String> {
    let span = tr.begin("template.instantiate");
    let t = Instant::now();
    let cases = plan_cases(program, run, 1);
    let instantiate = t.elapsed();
    tr.end(span);

    let span = tr.begin("driver.check");
    let report = check_stage(program, &cases, &SwitchTarget::new(program));
    tr.end(span);
    Ok(Checked {
        check: report.elapsed,
        report,
        instantiate,
        replay: Duration::ZERO,
        cases: Some(cases),
    })
}

fn wire_check(
    program: &CompiledProgram,
    run: &mut RunOutput,
    agent: &AgentHandle,
    tr: &mut Tracer,
) -> Result<Checked, String> {
    let span = tr.begin("netdriver.run");
    let t = Instant::now();
    let report = WireDriver::new(program, agent.addr())
        .with_framing(Framing::Bin)
        .with_connections(1)
        .run(run)
        .map_err(|e| format!("wire run: {e}"))?;
    let wall = t.elapsed();
    let before_replay = wall.saturating_sub(report.elapsed);
    tr.derived("template.instantiate", Duration::ZERO, before_replay);
    tr.derived("netdriver.replay", before_replay, report.elapsed);
    tr.end(span);
    Ok(Checked {
        instantiate: before_replay,
        check: Duration::ZERO,
        replay: report.elapsed,
        report,
        cases: None,
    })
}

/// FNV-1a 64 over bytes, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Order-independent content fingerprint of a run's templates: each
/// template's path, constraints and final values are hashed on their own
/// (template ids excluded), the hashes sorted, and the sorted list hashed.
pub fn fingerprint(run: &RunOutput) -> u64 {
    let mut per_template: Vec<u64> = run
        .templates
        .iter()
        .map(|t| {
            let mut h = FNV_OFFSET;
            for n in &t.path {
                h = fnv1a(h, format!("{n:?};").as_bytes());
            }
            for &c in &t.constraints {
                h = fnv1a(h, run.pool.display(c).as_bytes());
                h = fnv1a(h, b"&");
            }
            for &(f, v) in &t.final_values {
                h = fnv1a(h, format!("{f:?}=").as_bytes());
                h = fnv1a(h, run.pool.display(v).as_bytes());
                h = fnv1a(h, b",");
            }
            h
        })
        .collect();
    per_template.sort_unstable();
    per_template
        .iter()
        .fold(FNV_OFFSET, |h, t| fnv1a(h, &t.to_le_bytes()))
}

/// Outcome of the Table 2 known-answer check.
pub struct KnownAnswers {
    /// Bugs whose faulty target failed at least one case.
    pub detected: usize,
    /// Bugs in the corpus.
    pub total: usize,
    /// Names of the bugs that went undetected.
    pub missed: Vec<String>,
    /// Wall time of the whole check.
    pub elapsed: Duration,
}

/// Runs the Table 2 bug corpus through the same generate → instantiate →
/// check path as the workloads. The corpus programs are compiled by
/// `suite::bugs::all` through the same `lang` entry points.
pub fn known_answers() -> KnownAnswers {
    let t = Instant::now();
    let corpus = meissa_suite::bugs::all();
    let total = corpus.len();
    let mut missed = Vec::new();
    for case in corpus {
        let program = &case.workload.program;
        let mut run = engine().run(program);
        let cases = plan_cases(program, &mut run, 1);
        let target = SwitchTarget::with_fault(program, case.fault.clone());
        if check_stage(program, &cases, &target).failed() == 0 {
            missed.push(format!("#{} {}", case.index, case.name));
        }
    }
    KnownAnswers {
        detected: total - missed.len(),
        total,
        missed,
        elapsed: t.elapsed(),
    }
}
