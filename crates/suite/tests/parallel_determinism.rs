//! Parallel-exploration determinism: for every thread count the engine must
//! produce the *same* template sequence — same paths, in the same order,
//! with the same constraints and output values — the same headline
//! statistics as the sequential engine, and byte-identical planned test
//! cases (instantiation is sequential, so planned inputs depend only on
//! the template order). The comparison renders terms two
//! ways: via [`meissa_smt::TermPool::canonical_key`] (pool-independent
//! structural identity — worker pools intern in schedule-dependent order,
//! so raw `TermId`s are not comparable across runs) *and* via the pretty
//! `display` rendering, which follows stored operand order and therefore
//! catches operand-order flips that canonical keys normalize away.

use meissa_core::{Meissa, MeissaConfig};
use meissa_driver::{plan_cases, CaseSpec};
use meissa_suite as suite;
use meissa_testkit::obs::ledger::content_hash;

/// A pool-independent fingerprint of one engine run: per template the node
/// path, canonically-rendered constraints, and canonically-rendered final
/// values, plus the path-counting statistics the figures report and a hash
/// of the planned test cases (template id, wire id and every input value),
/// so the thread count may not move a single planned packet either.
fn fingerprint(
    program: &meissa_lang::CompiledProgram,
    run: &mut meissa_core::engine::RunOutput,
) -> (Vec<String>, String) {
    let templates = run
        .templates
        .iter()
        .map(|t| {
            let path: Vec<String> = t.path.iter().map(|n| format!("{n:?}")).collect();
            let cs: Vec<String> = t
                .constraints
                .iter()
                .map(|&c| format!("{}|{}", run.pool.canonical_key(c), run.pool.display(c)))
                .collect();
            let fv: Vec<String> = t
                .final_values
                .iter()
                .map(|&(f, v)| {
                    format!(
                        "{f:?}={}|{}",
                        run.pool.canonical_key(v),
                        run.pool.display(v)
                    )
                })
                .collect();
            format!("path={path:?} constraints={cs:?} finals={fv:?}")
        })
        .collect();
    let plan: String = plan_cases(program, run, 2)
        .iter()
        .map(|spec| match spec {
            CaseSpec::Skip { template_id, .. } => format!("skip {template_id};"),
            CaseSpec::Case {
                template_id,
                wire_id,
                input,
            } => format!("{template_id}/{wire_id}={:?};", input.iter().collect::<Vec<_>>()),
        })
        .collect();
    let stats = format!(
        "valid={} before={} after={} checks={} probes={} plan={:016x}",
        run.stats.valid_paths,
        run.stats.paths_before,
        run.stats.paths_after,
        // Probe-level counters are part of the invariant: a probe is issued
        // per arm per path visit regardless of which worker owns the
        // subtree, so `smt_checks`/`cache_probes` must not move with the
        // thread count. Solver-*internal* counters (the cache-hit /
        // fast-path / model-reuse / SAT-engine split) are deliberately
        // excluded here: work stealing donates subtrees to workers with
        // cold verdict caches, so which probes short-circuit before the
        // engine depends on the (timing-dependent) partition. The summary
        // engine's job-level counters, which *are* partition-independent,
        // get their own assertion below.
        run.stats.smt_checks,
        run.stats.cache_probes,
        content_hash(plan.as_bytes()),
    );
    (templates, stats)
}

fn assert_thread_invariant(name: &str, config_for: impl Fn(usize) -> MeissaConfig) {
    let baseline = Meissa {
        config: config_for(1),
    }
    .run_output(name);
    for threads in [2usize, 4, 8] {
        let got = Meissa {
            config: config_for(threads),
        }
        .run_output(name);
        assert_eq!(
            baseline.1, got.1,
            "{name}: stats diverge at {threads} threads"
        );
        assert_eq!(
            baseline.0.len(),
            got.0.len(),
            "{name}: template count diverges at {threads} threads"
        );
        for (i, (a, b)) in baseline.0.iter().zip(&got.0).enumerate() {
            assert_eq!(a, b, "{name}: template {i} diverges at {threads} threads");
        }
    }
}

/// Helper so the closure-driven test reads naturally: run the named corpus
/// workload under this engine and fingerprint the output.
trait RunByName {
    fn run_output(&self, name: &str) -> (Vec<String>, String);
}

impl RunByName for Meissa {
    fn run_output(&self, name: &str) -> (Vec<String>, String) {
        let w = workload(name);
        let mut run = self.run(&w.program);
        fingerprint(&w.program, &mut run)
    }
}

fn workload(name: &str) -> suite::Workload {
    match name {
        "router" => suite::router(6, 3),
        "mtag" => suite::mtag(4, 5),
        "acl" => suite::acl(4, 7),
        "switch_lite" => suite::switch_lite(3, 9),
        "gw2" => suite::gw::gw(2, suite::gw::GwScale { eips: 4 }),
        other => panic!("unknown workload {other}"),
    }
}

#[test]
fn corpus_summary_engine_is_thread_count_invariant() {
    for name in ["router", "mtag", "acl", "switch_lite"] {
        assert_thread_invariant(name, |threads| MeissaConfig {
            threads,
            // Disable worker right-sizing: these workloads are small, and
            // the point here is to exercise the parallel machinery itself.
            min_paths_per_worker: 0,
            ..MeissaConfig::default()
        });
    }
}

#[test]
fn corpus_plain_dfs_is_thread_count_invariant() {
    // code_summary off: the work-stealing DFS itself carries the whole
    // search, so this exercises donation + deterministic merge directly.
    for name in ["router", "mtag"] {
        assert_thread_invariant(name, |threads| MeissaConfig {
            code_summary: false,
            threads,
            min_paths_per_worker: 0,
            ..MeissaConfig::default()
        });
    }
}

#[test]
fn multi_pipeline_gateway_is_thread_count_invariant() {
    // gw level 2 has multiple chained pipelines: exercises the batched
    // summary path (level planning, group-search batch, extension batch).
    assert_thread_invariant("gw2", |threads| MeissaConfig {
        threads,
        min_paths_per_worker: 0,
        ..MeissaConfig::default()
    });
}

#[test]
fn summary_solver_counters_are_thread_count_invariant() {
    // Regression test for the sat_engine_calls drift the scaling trace
    // surfaced (5121 sequential vs 5217 at t≥2 on gw-3-r8/summary): the
    // sequential summary loop let pipeline N+1 warm-start from pipeline N's
    // verdict discoveries via the shared main cache, while batched workers
    // started cold. The summary engine now routes through the batched path
    // at every thread count, with workers layered over a read-only snapshot
    // of the main cache and their discoveries merged back in job order — so
    // per-pipeline solver effort is a function of (job, snapshot) alone.
    // Default `min_paths_per_worker` on purpose: this is the production
    // configuration, worker right-sizing included.
    let w = workload("gw2");
    let base = Meissa {
        config: MeissaConfig {
            threads: 1,
            ..MeissaConfig::default()
        },
    }
    .run(&w.program);
    for threads in [2usize, 4, 8] {
        let got = Meissa {
            config: MeissaConfig {
                threads,
                ..MeissaConfig::default()
            },
        }
        .run(&w.program);
        assert_eq!(
            base.stats.smt_checks, got.stats.smt_checks,
            "smt_checks drifts at {threads} threads"
        );
        assert_eq!(
            base.stats.solver.sat_engine_calls, got.stats.solver.sat_engine_calls,
            "sat_engine_calls drifts at {threads} threads"
        );
        assert_eq!(
            base.stats.cache_probes, got.stats.cache_probes,
            "cache_probes drifts at {threads} threads"
        );
    }
}
