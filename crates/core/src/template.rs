//! Test case templates (§3.2) and their instantiation.
//!
//! A template captures one valid path: the conjunction of guard constraints
//! that steers a packet down the path, the final symbolic state, and any
//! hash obligations (§4). Instantiation asks the solver for a model of the
//! constraints, turning the template into a concrete input state; the §4
//! hash post-step then pins the model's key values, computes the real hash,
//! and re-solves so that generated packets have *correct* hash fields (or
//! rejects the packet when that is impossible).
//!
//! Every instantiation goes through an [`Instantiator`]: one long-lived
//! solver that answers each request under assumption literals, so a
//! constraint many templates share is bit-blasted once per planning call
//! rather than once per case.

use crate::symstate::HashDef;
use meissa_ir::{ConcreteState, FieldId, FieldTable, NodeId};
use meissa_num::Bv;
use meissa_smt::term::EvalValue;
use meissa_smt::{CheckResult, Solver, SolverStats, TermId, TermPool, VarId};

/// A deferred hash check attached to a template (§4).
#[derive(Clone, Debug)]
pub struct HashObligation {
    /// The algorithm.
    pub alg: meissa_ir::HashAlg,
    /// Output width.
    pub width: u16,
    /// Key terms over input variables.
    pub keys: Vec<TermId>,
    /// The stand-in variable for the hash output.
    pub out: TermId,
}

impl From<&HashDef> for HashObligation {
    fn from(d: &HashDef) -> Self {
        HashObligation {
            alg: d.alg,
            width: d.width,
            keys: d.keys.clone(),
            out: d.out,
        }
    }
}

/// A test case template for one valid path (§3.2).
#[derive(Clone, Debug)]
pub struct TestTemplate {
    /// Sequential template id.
    pub id: usize,
    /// The CFG nodes of the covered path, in order.
    pub path: Vec<NodeId>,
    /// Guard constraints over input variables; their conjunction is the
    /// path condition `C`.
    pub constraints: Vec<TermId>,
    /// Final symbolic state: (field, value term) pairs for assigned fields.
    pub final_values: Vec<(FieldId, TermId)>,
    /// Hash obligations to enforce at instantiation time.
    pub hash_obligations: Vec<HashObligation>,
}

impl TestTemplate {
    /// Instantiates the template into a concrete input state with a
    /// one-shot [`Instantiator`]. Planning many cases should share one
    /// instead (see [`Instantiator::instantiate`]).
    pub fn instantiate(
        &self,
        pool: &mut TermPool,
        fields: &FieldTable,
        extra: &[TermId],
    ) -> Option<ConcreteState> {
        Instantiator::new().instantiate(self, pool, fields, extra)
    }
}

/// Turns templates into concrete input states with one long-lived solver.
///
/// Each request — a template's constraints plus an extra clause (an intent
/// `given`), its distinctness clauses, or its §4 hash pins — is one
/// [`Solver::check_assuming`] call: no frames, nothing asserted, so every
/// learned clause stays sound for later requests and the blaster's
/// term → literal cache lives across templates. When the last model already
/// satisfies a request it is the answer and no SAT call is made.
///
/// One `Instantiator` serves one pool and field table. Given the same
/// sequence of requests it returns the same inputs: the planned inputs are
/// a pure function of template order.
pub struct Instantiator {
    solver: Solver,
    /// Every non-auxiliary field that has a solver variable, with that
    /// variable: the fields a planned input carries.
    inputs: Vec<(FieldId, VarId)>,
    /// (pool variables, fields) counts `inputs` was resolved against.
    resolved: Option<(usize, usize)>,
}

impl Default for Instantiator {
    fn default() -> Self {
        Self::new()
    }
}

impl Instantiator {
    /// An instantiator with a fresh solver.
    pub fn new() -> Self {
        Instantiator {
            solver: Solver::new(),
            inputs: Vec::new(),
            resolved: None,
        }
    }

    /// Solver work done so far (`sat_engine_calls`, `model_reuse`, …).
    pub fn stats(&self) -> SolverStats {
        self.solver.stats
    }

    /// Instantiates `t` into a concrete input state under the extra
    /// constraints `extra` (e.g. an intent's `given` clause).
    ///
    /// Returns `None` when the constraints are unsatisfiable (which
    /// Algorithm 1 prevents for freshly-generated templates, but callers may
    /// add intent `given` clauses that rule a path out) or when the hash
    /// post-filter rejects every candidate (§4).
    pub fn instantiate(
        &mut self,
        t: &TestTemplate,
        pool: &mut TermPool,
        fields: &FieldTable,
        extra: &[TermId],
    ) -> Option<ConcreteState> {
        let mut request: Vec<TermId> = t.constraints.iter().chain(extra).copied().collect();
        if self.solver.check_assuming(pool, &request) != CheckResult::Sat {
            return None;
        }
        if !t.hash_obligations.is_empty() {
            // §4 hash repair: pin every hash key to its model value, compute
            // the true hash, and require the stand-in to equal it. One
            // round suffices because pinned keys make each hash concrete.
            for ob in &t.hash_obligations {
                let mut key_vals = Vec::with_capacity(ob.keys.len());
                for &k in &ob.keys {
                    let v = self.model_bv(pool, k)?;
                    let kc = pool.bv_const(v);
                    request.push(pool.eq(k, kc));
                    key_vals.push(v);
                }
                let hc = pool.bv_const(ob.alg.compute(ob.width, &key_vals));
                request.push(pool.eq(ob.out, hc));
            }
            if self.solver.check_assuming(pool, &request) != CheckResult::Sat {
                // The path constrained the hash output incompatibly with the
                // pinned keys: reject, as §4 prescribes.
                return None;
            }
        }
        Some(self.read_input(pool, fields))
    }

    /// Generates up to `n` *distinct* concrete inputs for `t` — "One or
    /// more input-output test cases can be generated based on the template
    /// for a path" (§2.1). Each round adds a disequality against the
    /// previous model's non-auxiliary input fields, so successive packets
    /// differ in at least one field while still driving the same path.
    pub fn instantiate_distinct(
        &mut self,
        t: &TestTemplate,
        pool: &mut TermPool,
        fields: &FieldTable,
        n: usize,
    ) -> Vec<ConcreteState> {
        let mut out: Vec<ConcreteState> = Vec::new();
        let mut extra: Vec<TermId> = Vec::new();
        let mut own: Option<Vec<(FieldId, TermId)>> = None;
        while out.len() < n {
            let Some(state) = self.instantiate(t, pool, fields, &extra) else {
                break; // the remaining input space is exhausted
            };
            out.push(state);
            if out.len() == n {
                break;
            }
            // Exclude this exact assignment of the template's own input
            // fields from later rounds.
            let own = own.get_or_insert_with(|| own_input_vars(t, pool, fields));
            if own.is_empty() {
                break; // fully-constrained path: only one packet exists
            }
            let last = &out[out.len() - 1];
            let differs: Vec<TermId> = own
                .iter()
                .map(|&(f, var)| {
                    let val = pool.bv_const(last.get(fields, f));
                    pool.ne(var, val)
                })
                .collect();
            extra.push(pool.or_many(&differs));
        }
        out
    }

    /// Evaluates a bitvector term under the last model.
    fn model_bv(&self, pool: &TermPool, t: TermId) -> Option<Bv> {
        let env = |v: VarId| Some(self.solver.model_value(pool, v));
        match pool.eval(t, &env)? {
            EvalValue::Bv(b) => Some(b),
            EvalValue::Bool(_) => None,
        }
    }

    /// Reads the last model back as an input state: every non-auxiliary
    /// field that has a solver variable (summary scratch variables are not
    /// packet input).
    fn read_input(&mut self, pool: &TermPool, fields: &FieldTable) -> ConcreteState {
        let sizes = (pool.all_vars().len(), fields.len());
        if self.resolved != Some(sizes) {
            self.inputs = fields
                .iter()
                .filter(|&f| !fields.is_auxiliary(f))
                .filter_map(|f| Some((f, pool.find_var(fields.name(f))?)))
                .collect();
            self.resolved = Some(sizes);
        }
        ConcreteState::from_pairs(
            self.inputs
                .iter()
                .map(|&(f, v)| (f, self.solver.model_value(pool, v))),
        )
    }
}

/// The non-auxiliary input fields a template's constraints mention, in
/// field order, each with its variable term.
fn own_input_vars(
    t: &TestTemplate,
    pool: &mut TermPool,
    fields: &FieldTable,
) -> Vec<(FieldId, TermId)> {
    let mut used: Vec<FieldId> = Vec::new();
    for &c in &t.constraints {
        collect_fields_of(pool, fields, c, &mut used);
    }
    used.sort();
    used.dedup();
    used.into_iter()
        .filter(|&f| !fields.is_auxiliary(f))
        .map(|f| (f, pool.var(fields.name(f), fields.width(f))))
        .collect()
}

/// Collects the fields whose input variables appear in a term.
fn collect_fields_of(
    pool: &TermPool,
    fields: &FieldTable,
    t: TermId,
    out: &mut Vec<meissa_ir::FieldId>,
) {
    use meissa_smt::TermNode::*;
    match *pool.node(t) {
        BvVar(v) => {
            if let Some(f) = fields.get(pool.var_name(v)) {
                out.push(f);
            }
        }
        BvConst(_) | BoolConst(_) => {}
        BvBin(_, a, b) | BvConcat(a, b) | Cmp(_, a, b) | BoolAnd(a, b) | BoolOr(a, b) => {
            collect_fields_of(pool, fields, a, out);
            collect_fields_of(pool, fields, b, out);
        }
        BvNot(a) | BvShl(a, _) | BvShr(a, _) | BvExtract(a, _, _) | BoolNot(a) => {
            collect_fields_of(pool, fields, a, out)
        }
        BvIte(c, a, b) => {
            collect_fields_of(pool, fields, c, out);
            collect_fields_of(pool, fields, a, out);
            collect_fields_of(pool, fields, b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meissa_ir::HashAlg;

    #[test]
    fn instantiate_simple_constraint() {
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        let f = fields.intern("hdr.ip.dst", 32);
        let x = pool.var("hdr.ip.dst", 32);
        let k = pool.bv_const(Bv::new(32, 0x0a000001));
        let c = pool.eq(x, k);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c],
            final_values: vec![],
            hash_obligations: vec![],
        };
        let state = t.instantiate(&mut pool, &fields, &[]).expect("sat");
        assert_eq!(state.get(&fields, f), Bv::new(32, 0x0a000001));
    }

    #[test]
    fn unsat_template_returns_none() {
        let mut pool = TermPool::new();
        let fields = FieldTable::new();
        let x = pool.var("x", 8);
        let k1 = pool.bv_const(Bv::new(8, 1));
        let k2 = pool.bv_const(Bv::new(8, 2));
        let c1 = pool.eq(x, k1);
        let c2 = pool.eq(x, k2);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c1, c2],
            final_values: vec![],
            hash_obligations: vec![],
        };
        assert!(t.instantiate(&mut pool, &fields, &[]).is_none());
    }

    #[test]
    fn extra_constraints_narrow_the_model() {
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        let f = fields.intern("meta.port", 9);
        let x = pool.var("meta.port", 9);
        let lo = pool.bv_const(Bv::new(9, 100));
        let c = pool.ugt(x, lo);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c],
            final_values: vec![],
            hash_obligations: vec![],
        };
        let hi = pool.bv_const(Bv::new(9, 102));
        let extra = pool.ult(x, hi);
        let state = t.instantiate(&mut pool, &fields, &[extra]).expect("sat");
        assert_eq!(state.get(&fields, f), Bv::new(9, 101));
    }

    #[test]
    fn hash_obligation_fixes_output() {
        // dst is free; $hash0 must equal crc16(dst) in the final packet.
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        let fdst = fields.intern("hdr.ip.dst", 32);
        let fh = fields.intern("meta.h", 16);
        let _ = fh;
        let dst = pool.var("hdr.ip.dst", 32);
        let hout = pool.var("meta.h", 16);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![],
            final_values: vec![],
            hash_obligations: vec![HashObligation {
                alg: HashAlg::Crc16,
                width: 16,
                keys: vec![dst],
                out: hout,
            }],
        };
        let state = t.instantiate(&mut pool, &fields, &[]).expect("sat");
        let dst_v = state.get(&fields, fdst);
        let h_v = state.get(&fields, fh);
        assert_eq!(h_v, HashAlg::Crc16.compute(16, &[dst_v]));
    }

    #[test]
    fn contradictory_hash_constraint_rejected() {
        // Path demands $hash == 0xffff while keys are pinned to a value
        // whose hash differs: the §4 filter must reject.
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        fields.intern("hdr.ip.dst", 32);
        fields.intern("meta.h", 16);
        let dst = pool.var("hdr.ip.dst", 32);
        let hout = pool.var("meta.h", 16);
        let key = pool.bv_const(Bv::new(32, 42));
        let pin_key = pool.eq(dst, key);
        let real = HashAlg::Crc16.compute(16, &[Bv::new(32, 42)]);
        let wrong = pool.bv_const(Bv::new(16, real.val() ^ 1));
        let pin_out = pool.eq(hout, wrong);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![pin_key, pin_out],
            final_values: vec![],
            hash_obligations: vec![HashObligation {
                alg: HashAlg::Crc16,
                width: 16,
                keys: vec![dst],
                out: hout,
            }],
        };
        assert!(t.instantiate(&mut pool, &fields, &[]).is_none());
    }

    #[test]
    fn instantiate_distinct_produces_different_packets_on_one_path() {
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        let f = fields.intern("hdr.ip.dst", 32);
        let x = pool.var("hdr.ip.dst", 32);
        let mask = pool.bv_const(Bv::new(32, 0xff00_0000));
        let masked = pool.bv_and(x, mask);
        let net = pool.bv_const(Bv::new(32, 0x0a00_0000));
        let c = pool.eq(masked, net); // dst ∈ 10/8: many packets, one path
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c],
            final_values: vec![],
            hash_obligations: vec![],
        };
        let states = Instantiator::new().instantiate_distinct(&t, &mut pool, &fields, 5);
        assert_eq!(states.len(), 5);
        let mut seen = std::collections::HashSet::new();
        for s in &states {
            let v = s.get(&fields, f);
            assert_eq!(v.val() >> 24, 0x0a, "all in 10/8");
            assert!(seen.insert(v), "distinct packets");
        }
    }

    #[test]
    fn instantiate_distinct_stops_when_space_is_exhausted() {
        // A 1-bit field constrained nontrivially admits ≤2 packets.
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        fields.intern("meta.flag", 1);
        let x = pool.var("meta.flag", 1);
        let one = pool.bv_const(Bv::new(1, 1));
        let c = pool.eq(x, one);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c],
            final_values: vec![],
            hash_obligations: vec![],
        };
        let states = Instantiator::new().instantiate_distinct(&t, &mut pool, &fields, 10);
        assert_eq!(states.len(), 1, "only flag=1 satisfies the path");
    }

    fn template(constraints: Vec<TermId>) -> TestTemplate {
        TestTemplate {
            id: 0,
            path: vec![],
            constraints,
            final_values: vec![],
            hash_obligations: vec![],
        }
    }

    #[test]
    fn shared_instantiator_serves_many_templates_and_reuses_models() {
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        let fd = fields.intern("hdr.ip.dst", 32);
        let fp = fields.intern("meta.port", 9);
        let dst = pool.var("hdr.ip.dst", 32);
        let port = pool.var("meta.port", 9);
        let mask = pool.bv_const(Bv::new(32, 0xff00_0000));
        let masked = pool.bv_and(dst, mask);
        let net = pool.bv_const(Bv::new(32, 0x0a00_0000));
        let shared = pool.eq(masked, net);
        let k1 = pool.bv_const(Bv::new(9, 1));
        let k2 = pool.bv_const(Bv::new(9, 2));
        let p1 = pool.eq(port, k1);
        let p2 = pool.eq(port, k2);
        let (t1, t2) = (template(vec![shared, p1]), template(vec![shared, p2]));

        let mut inst = Instantiator::new();
        let s1 = inst.instantiate(&t1, &mut pool, &fields, &[]).expect("sat");
        let s2 = inst.instantiate(&t2, &mut pool, &fields, &[]).expect("sat");
        assert_eq!(s1.get(&fields, fp), Bv::new(9, 1));
        assert_eq!(s2.get(&fields, fp), Bv::new(9, 2));
        for s in [&s1, &s2] {
            assert_eq!(s.get(&fields, fd).val() >> 24, 0x0a);
        }
        // An unsatisfiable request leaves the solver usable.
        assert!(inst.instantiate(&t1, &mut pool, &fields, &[p2]).is_none());
        // t2's model is still the last one and certifies t2: no SAT call.
        let calls = inst.stats().sat_engine_calls;
        let again = inst.instantiate(&t2, &mut pool, &fields, &[]).expect("sat");
        assert_eq!(inst.stats().sat_engine_calls, calls);
        assert_eq!(inst.stats().model_reuse, 1);
        assert_eq!(again, s2);
    }

    #[test]
    fn distinct_single_round_builds_no_disequality() {
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        fields.intern("meta.port", 9);
        let x = pool.var("meta.port", 9);
        let lo = pool.bv_const(Bv::new(9, 100));
        let t = template(vec![pool.ugt(x, lo)]);
        let terms = pool.len();
        let states = Instantiator::new().instantiate_distinct(&t, &mut pool, &fields, 1);
        assert_eq!(states.len(), 1);
        assert_eq!(pool.len(), terms, "no term is built after the last round");
    }

    #[test]
    fn auxiliary_fields_are_excluded_from_inputs() {
        let mut pool = TermPool::new();
        let mut fields = FieldTable::new();
        let aux = fields.intern("@ppl1.hdr.ip.dst", 32);
        let real = fields.intern("hdr.ip.dst", 32);
        let x = pool.var("hdr.ip.dst", 32);
        let a = pool.var("@ppl1.hdr.ip.dst", 32);
        let k = pool.bv_const(Bv::new(32, 9));
        let c1 = pool.eq(x, k);
        let c2 = pool.eq(a, k);
        let t = TestTemplate {
            id: 0,
            path: vec![],
            constraints: vec![c1, c2],
            final_values: vec![],
            hash_obligations: vec![],
        };
        let state = t.instantiate(&mut pool, &fields, &[]).expect("sat");
        assert_eq!(state.get(&fields, real), Bv::new(32, 9));
        // Aux fields read as zero because they were never added as input.
        assert_eq!(state.get(&fields, aux), Bv::zero(32));
    }
}
