//! Path-witness oracle for planned cases: every concrete input that
//! `driver::plan_cases` produces must actually drive its template's path,
//! and the template's symbolic final state must predict what replaying that
//! path concretely computes.
//!
//! For each `CaseSpec::Case` — distinct instantiations and intent-`given`
//! instantiations alike — the oracle replays the template's path with
//! `meissa_ir::eval_path` (every guard on the path must hold under the
//! input) and evaluates each `final_values` term under the input, comparing
//! it with the replayed field. Hash stand-in variables are not packet
//! input; they evaluate to the real hash of their keys, which is what the
//! §4 post-step guarantees the planned input agrees with.

use meissa_core::{Meissa, RunOutput, TestTemplate};
use meissa_driver::{plan_cases, CaseSpec};
use meissa_ir::ConcreteState;
use meissa_num::Bv;
use meissa_smt::term::EvalValue;
use meissa_smt::{TermId, TermNode, VarId};
use meissa_suite as suite;
use meissa_suite::gw::{gw, GwScale};
use std::collections::HashMap;

/// Evaluates a bitvector term under a planned input, with the hash
/// stand-ins in `hashes` bound to their values.
fn eval_bv(
    run: &RunOutput,
    input: &ConcreteState,
    hashes: &HashMap<VarId, Bv>,
    term: TermId,
) -> Option<Bv> {
    let fields = &run.cfg.fields;
    let env = |v: VarId| {
        hashes
            .get(&v)
            .copied()
            .or_else(|| Some(input.get(fields, fields.get(run.pool.var_name(v))?)))
    };
    match run.pool.eval(term, &env)? {
        EvalValue::Bv(b) => Some(b),
        EvalValue::Bool(_) => None,
    }
}

/// Evaluates a bitvector term under a planned input, resolving hash
/// stand-ins through the template's obligations.
fn eval_under(
    run: &RunOutput,
    t: &TestTemplate,
    input: &ConcreteState,
    term: TermId,
) -> Option<Bv> {
    let mut hashes: HashMap<VarId, Bv> = HashMap::new();
    // Obligations may key on each other's outputs: resolve to a fixpoint.
    for _ in 0..=t.hash_obligations.len() {
        for ob in &t.hash_obligations {
            let TermNode::BvVar(out) = *run.pool.node(ob.out) else {
                panic!("hash stand-in is not a variable");
            };
            let keys: Option<Vec<Bv>> = ob
                .keys
                .iter()
                .map(|&k| eval_bv(run, input, &hashes, k))
                .collect();
            if let Some(keys) = keys {
                hashes.insert(out, ob.alg.compute(ob.width, &keys));
            }
        }
    }
    eval_bv(run, input, &hashes, term)
}

/// Plans `run` and checks every case against its template's path. Returns
/// (cases checked, cases beyond the distinct instantiations — the intent
/// `given` ones).
fn assert_planned_cases_witness_paths(
    name: &str,
    program: &meissa_lang::CompiledProgram,
    packets_per_template: usize,
) -> (usize, usize) {
    let mut run = Meissa::new().run(program);
    let plan = plan_cases(program, &mut run, packets_per_template);
    let by_id: HashMap<usize, &TestTemplate> = run.templates.iter().map(|t| (t.id, t)).collect();
    let mut per_template: HashMap<usize, usize> = HashMap::new();
    let mut checked = 0;
    for spec in &plan {
        let CaseSpec::Case {
            template_id,
            wire_id,
            input,
        } = spec
        else {
            continue;
        };
        let t = by_id[template_id];
        let out = meissa_ir::eval_path(&run.cfg, &t.path, input).unwrap_or_else(|e| {
            panic!("{name}: case {wire_id} does not drive template {template_id}'s path: {e:?}")
        });
        for &(f, term) in &t.final_values {
            let predicted = eval_under(&run, t, input, term).unwrap_or_else(|| {
                panic!(
                    "{name}: case {wire_id}: final value of {} does not evaluate: {}",
                    run.cfg.fields.name(f),
                    run.pool.display(term)
                )
            });
            assert_eq!(
                predicted,
                out.get(&run.cfg.fields, f),
                "{name}: case {wire_id} (template {template_id}): field {} disagrees with replay",
                run.cfg.fields.name(f)
            );
        }
        *per_template.entry(*template_id).or_default() += 1;
        checked += 1;
    }
    let given = per_template
        .values()
        .map(|&n| n.saturating_sub(packets_per_template))
        .sum();
    (checked, given)
}

#[test]
fn gateway_cases_witness_their_paths() {
    for level in 1..=3u8 {
        let w = gw(level, GwScale { eips: 4 });
        let name = format!("gw-{level}");
        let (checked, given) = assert_planned_cases_witness_paths(&name, &w.program, 2);
        assert!(checked > 0, "{name}: no cases planned");
        assert!(given > 0, "{name}: no intent-given case was planned");
    }
}

#[test]
fn random_acl_cases_witness_their_paths() {
    for seed in 0..4u64 {
        let w = suite::acl(12, 100 + seed);
        let name = format!("acl seed {}", 100 + seed);
        let (checked, given) = assert_planned_cases_witness_paths(&name, &w.program, 2);
        assert!(checked > 0, "{name}: no cases planned");
        assert!(given > 0, "{name}: no intent-given case was planned");
    }
}
