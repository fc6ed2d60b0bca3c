//! The incremental SMT façade: push / assert / check / model / pop.
//!
//! Frames use *activation literals*: every assertion in frame `i` is added
//! as the clause `¬act_i ∨ assertion`, and `check` solves under the
//! assumptions `{act_1, …, act_k}`. `pop` permanently falsifies the frame's
//! activation literal, disabling its clauses while keeping everything the
//! SAT engine learned about the rest — the incremental reuse the paper's
//! early-termination optimization depends on (§3.2).
//!
//! [`Solver::check_under`] extends the same machinery to *batched sibling
//! probes*: each assumption term is blasted once to a literal (cached in the
//! [`Blaster`], so sibling arms share the prefix's clauses and each other's
//! cones) and checked with one assumption-based SAT call per arm — no frame
//! push/pop, no per-probe guard clause, and every clause the engine learns
//! while refuting one arm stays available to its siblings.
//!
//! [`Solver::check_assuming`] is the conjunctive form of the same idea: a
//! whole conjunction of terms goes in as assumption literals, so one
//! frameless solver can answer a long sequence of unrelated queries (test
//! instantiation asks one per case) while blasting every distinct term only
//! once; [`Solver::model_value`] reads the answer back one variable at a
//! time.

use crate::blast::Blaster;
use crate::sat::{Lit, PortableLit, SatResult, SatSolver, SharedClause};
use crate::term::{EvalValue, TermId, TermPool, VarId};
use meissa_num::Bv;
use meissa_testkit::obs;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Live observability counters (`meissa_smt_*` in the Prometheus
/// exposition). Updated only when [`obs::active`], so the disabled path
/// costs one relaxed atomic load per solver interaction.
struct ObsCounters {
    checks: Arc<obs::Counter>,
    fast_path: Arc<obs::Counter>,
    sat_engine_calls: Arc<obs::Counter>,
    model_reuse: Arc<obs::Counter>,
    sat_propagations: Arc<obs::Counter>,
    sat_conflicts: Arc<obs::Counter>,
    sat_learned: Arc<obs::Gauge>,
}

fn obs_counters() -> &'static ObsCounters {
    static C: OnceLock<ObsCounters> = OnceLock::new();
    C.get_or_init(|| ObsCounters {
        checks: obs::counter("smt.checks"),
        fast_path: obs::counter("smt.fast_path"),
        sat_engine_calls: obs::counter("smt.sat_engine_calls"),
        model_reuse: obs::counter("smt.model_reuse"),
        sat_propagations: obs::counter("sat.propagations"),
        sat_conflicts: obs::counter("sat.conflicts"),
        sat_learned: obs::gauge("sat.learned_clauses"),
    })
}

/// Result of an SMT check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckResult {
    /// The asserted conjunction is satisfiable; a model is available.
    Sat,
    /// The asserted conjunction is unsatisfiable.
    Unsat,
}

/// Counters describing solver work. The "number of SMT calls" series in the
/// paper's Fig. 11b/12b is [`SolverStats::checks`].
#[derive(Clone, Copy, Default, Debug)]
pub struct SolverStats {
    /// Total `check` invocations (every one counts, including those answered
    /// by the constant-folding fast path).
    pub checks: u64,
    /// Checks answered without invoking the SAT engine (a frame asserted the
    /// literal `false`, detected syntactically).
    pub fast_path: u64,
    /// Checks that reached the SAT engine.
    pub sat_engine_calls: u64,
    /// Batched probes answered Sat by evaluating the arm under the last
    /// model instead of calling the SAT engine (see [`Solver::check_under`]).
    pub model_reuse: u64,
    /// Sat answers.
    pub sat: u64,
    /// Unsat answers.
    pub unsat: u64,
    /// Current frame depth.
    pub depth: u64,
    /// Peak frame depth.
    pub max_depth: u64,
}

struct Frame {
    activation: Lit,
    /// True if some assertion in this frame folded to the constant `false`.
    poisoned: bool,
    /// Order-independent fold (wrapping sum of mixed term hashes) of every
    /// assertion that reached the clause database in this frame, plus the
    /// count. Together they give the frame's *content key*, which lends the
    /// activation literal portable identity: two solvers whose open frames
    /// guard the same assertion set agree on what `¬act ∨ …` means, so
    /// learned clauses mentioning the activation stay exportable.
    content: u64,
    content_len: u64,
}

/// Namespace tag for one asserted term inside a frame-content fold.
const ASSERT_TAG: u64 = 0x6173;
/// Namespace tag for frame-activation atoms in the portable-atom keyspace.
const FRAME_TAG: u64 = 0x6672;

fn frame_key(f: &Frame) -> u64 {
    crate::blast::portable_key(f.content, FRAME_TAG, f.content_len)
}

/// An incremental bitvector SMT solver.
pub struct Solver {
    sat: SatSolver,
    blaster: Option<Blaster>, // lazily created so `Solver::new` needs no pool
    frames: Vec<Frame>,
    /// Model cache from the last Sat answer.
    last_model: HashMap<VarId, Bv>,
    /// How many leading frames `last_model` is known to satisfy (every
    /// asserted term in `frames[..model_depth]` evaluates to true under the
    /// model, extended by zero for variables it does not mention). When
    /// `model_depth == frames.len()`, a batched probe whose arm also
    /// evaluates to true is Sat without touching the SAT engine.
    model_depth: usize,
    /// Statistics.
    pub stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates a solver with an empty assertion stack.
    pub fn new() -> Self {
        Solver {
            sat: SatSolver::new(),
            blaster: None,
            frames: Vec::new(),
            last_model: HashMap::new(),
            model_depth: 0,
            stats: SolverStats::default(),
        }
    }

    fn blaster_mut(&mut self) -> (&mut Blaster, &mut SatSolver) {
        if self.blaster.is_none() {
            self.blaster = Some(Blaster::new(&mut self.sat));
        }
        (self.blaster.as_mut().unwrap(), &mut self.sat)
    }

    /// Opens a new assertion frame.
    pub fn push(&mut self) {
        // An empty frame is vacuously satisfied: a model certifying every
        // frame so far still certifies the stack after the push.
        let extend_model = self.model_depth == self.frames.len();
        let (_, sat) = self.blaster_mut();
        let act = Lit::new(sat.new_var(), true);
        self.frames.push(Frame {
            activation: act,
            poisoned: false,
            content: 0,
            content_len: 0,
        });
        if extend_model {
            self.model_depth = self.frames.len();
        }
        self.stats.depth = self.frames.len() as u64;
        self.stats.max_depth = self.stats.max_depth.max(self.stats.depth);
    }

    /// Discards the most recent frame and all its assertions.
    ///
    /// # Panics
    /// Panics if no frame is open.
    pub fn pop(&mut self) {
        let frame = self.frames.pop().expect("pop without matching push");
        // Permanently disable this frame's guarded clauses.
        self.sat.add_clause(&[frame.activation.neg()]);
        self.model_depth = self.model_depth.min(self.frames.len());
        self.stats.depth = self.frames.len() as u64;
    }

    /// Current frame depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Asserts a boolean term in the current frame.
    ///
    /// # Panics
    /// Panics if no frame is open (assert into frame 0 is intentionally
    /// unsupported: Meissa's executor always brackets assertions).
    pub fn assert_term(&mut self, pool: &mut TermPool, t: TermId) {
        assert!(
            !self.frames.is_empty(),
            "assert_term without an open frame; call push() first"
        );
        if let Some(b) = pool.as_bool_const(t) {
            if !b {
                self.frames.last_mut().unwrap().poisoned = true;
                self.model_depth = self.model_depth.min(self.frames.len() - 1);
            }
            return;
        }
        // Model validity: the last model keeps certifying the full stack
        // only if it also satisfies the new assertion.
        if self.model_depth == self.frames.len() && !self.model_certifies(pool, t) {
            self.model_depth = self.frames.len() - 1;
        }
        let frame = self.frames.last_mut().unwrap();
        frame.content = frame
            .content
            .wrapping_add(crate::blast::portable_key(pool.term_hash(t), ASSERT_TAG, 0));
        frame.content_len += 1;
        let act = frame.activation;
        let (blaster, sat) = self.blaster_mut();
        let lit = blaster.bool_lit(pool, sat, t);
        sat.add_clause(&[act.neg(), lit]);
    }

    /// Does the last captured model (zero-extended over variables it does
    /// not assign) evaluate `t` to true? Evaluation is on the *term*, so it
    /// is sound regardless of what has been bit-blasted since the capture.
    fn model_certifies(&self, pool: &TermPool, t: TermId) -> bool {
        let model = &self.last_model;
        let env = move |v: VarId| {
            Some(
                model
                    .get(&v)
                    .copied()
                    .unwrap_or_else(|| Bv::zero(pool.var_width(v))),
            )
        };
        matches!(pool.eval(t, &env), Some(EvalValue::Bool(true)))
    }

    /// Checks satisfiability of the conjunction of all live assertions.
    pub fn check(&mut self, pool: &mut TermPool) -> CheckResult {
        if !obs::active() {
            return self.check_inner(pool);
        }
        let (before, sat_before) = (self.stats, self.sat.stats);
        let out = self.check_inner(pool);
        self.publish_obs(before, sat_before);
        out
    }

    /// Publishes the counter deltas of one solver interaction to the
    /// observability registry. Only called when obs is enabled.
    fn publish_obs(&self, before: SolverStats, sat_before: crate::sat::SatStats) {
        let c = obs_counters();
        c.checks.add(self.stats.checks - before.checks);
        c.fast_path.add(self.stats.fast_path - before.fast_path);
        c.sat_engine_calls.add(self.stats.sat_engine_calls - before.sat_engine_calls);
        c.model_reuse.add(self.stats.model_reuse - before.model_reuse);
        let sat = self.sat.stats;
        c.sat_propagations.add(sat.propagations - sat_before.propagations);
        c.sat_conflicts.add(sat.conflicts - sat_before.conflicts);
        c.sat_learned.set(sat.learned);
    }

    fn check_inner(&mut self, pool: &mut TermPool) -> CheckResult {
        self.stats.checks += 1;
        if self.frames.iter().any(|f| f.poisoned) {
            self.stats.fast_path += 1;
            self.stats.unsat += 1;
            return CheckResult::Unsat;
        }
        let assumptions: Vec<Lit> = self.frames.iter().map(|f| f.activation).collect();
        self.stats.sat_engine_calls += 1;
        match self.sat.solve(&assumptions) {
            SatResult::Sat => {
                self.stats.sat += 1;
                self.capture_model(pool);
                CheckResult::Sat
            }
            SatResult::Unsat => {
                self.stats.unsat += 1;
                CheckResult::Unsat
            }
        }
    }

    fn capture_model(&mut self, pool: &TermPool) {
        self.last_model.clear();
        if let Some(blaster) = &self.blaster {
            for v in pool.all_vars() {
                let w = pool.var_width(v);
                if let Some(bv) = blaster.read_var(&self.sat, v, w) {
                    self.last_model.insert(v, bv);
                }
            }
        }
        // A freshly captured model satisfies every open frame by
        // construction (the engine solved under all frame activations).
        self.model_depth = self.frames.len();
    }

    /// Checks the live assertion stack extended by each assumption term
    /// *independently* — one verdict per term, as if each were probed with
    /// its own `push / assert_term / check / pop` cycle, but in a single
    /// batched solver interaction:
    ///
    /// * each arm is blasted once to a literal (cached in the [`Blaster`],
    ///   so sibling arms share the prefix's clauses and each other's cones)
    ///   and solved under `{frame activations} ∪ {arm literal}` — no frame
    ///   churn, no per-probe guard clause, and no dead pop unit clauses;
    /// * clauses the engine learns refuting one arm stay active for its
    ///   siblings (a `pop` would have kept them too, but attached to a
    ///   now-falsified activation var the engine still has to track);
    /// * when the most recent model already satisfies every open frame, an
    ///   arm the model also satisfies is answered `Sat` by term evaluation
    ///   alone (`model_reuse` in the stats), skipping the engine entirely.
    ///
    /// Every arm counts one `checks`, exactly like an individual `check`,
    /// so batch-shape changes never move the Fig. 11b metric.
    pub fn check_under(&mut self, pool: &mut TermPool, assumptions: &[TermId]) -> Vec<CheckResult> {
        if !obs::active() {
            return self.check_under_inner(pool, assumptions);
        }
        let (before, sat_before) = (self.stats, self.sat.stats);
        let out = self.check_under_inner(pool, assumptions);
        self.publish_obs(before, sat_before);
        out
    }

    fn check_under_inner(
        &mut self,
        pool: &mut TermPool,
        assumptions: &[TermId],
    ) -> Vec<CheckResult> {
        assumptions
            .iter()
            .map(|&t| self.check_assuming_inner(pool, &[t]))
            .collect()
    }

    /// Checks the live assertion stack extended by the *conjunction* of
    /// `terms`, as one `check`: every term is blasted to a literal (cached
    /// in the [`Blaster`], so a term shared across calls is encoded once
    /// per solver lifetime) and the engine solves under `{frame
    /// activations} ∪ {term literals}`. Nothing is added to the clause
    /// database except gate definitions, so a solver can answer an
    /// unbounded sequence of unrelated conjunctions without push/pop and
    /// keep every learned clause sound for all of them.
    ///
    /// When the last model certifies every open frame and every term, the
    /// answer is `Sat` by term evaluation alone (`model_reuse`), exactly as
    /// in [`Solver::check_under`]. Counts one `checks`.
    pub fn check_assuming(&mut self, pool: &mut TermPool, terms: &[TermId]) -> CheckResult {
        if !obs::active() {
            return self.check_assuming_inner(pool, terms);
        }
        let (before, sat_before) = (self.stats, self.sat.stats);
        let out = self.check_assuming_inner(pool, terms);
        self.publish_obs(before, sat_before);
        out
    }

    fn check_assuming_inner(&mut self, pool: &mut TermPool, terms: &[TermId]) -> CheckResult {
        self.stats.checks += 1;
        let poisoned = self.frames.iter().any(|f| f.poisoned);
        if poisoned || terms.iter().any(|&t| pool.as_bool_const(t) == Some(false)) {
            return self.fast_unsat();
        }
        if self.model_depth == self.frames.len()
            && terms.iter().all(|&t| self.model_certifies(pool, t))
        {
            self.stats.model_reuse += 1;
            self.stats.sat += 1;
            return CheckResult::Sat;
        }
        let mut assume: Vec<Lit> = self.frames.iter().map(|f| f.activation).collect();
        for &t in terms {
            if pool.as_bool_const(t) == Some(true) {
                continue;
            }
            let (blaster, sat) = self.blaster_mut();
            let lit = blaster.bool_lit(pool, sat, t);
            if lit == blaster.false_lit() {
                // The blasted cone folded to constant false.
                return self.fast_unsat();
            }
            if lit != blaster.true_lit() {
                assume.push(lit);
            }
        }
        self.stats.sat_engine_calls += 1;
        match self.sat.solve(&assume) {
            SatResult::Sat => {
                self.stats.sat += 1;
                self.capture_model(pool);
                CheckResult::Sat
            }
            SatResult::Unsat => {
                self.stats.unsat += 1;
                CheckResult::Unsat
            }
        }
    }

    fn fast_unsat(&mut self) -> CheckResult {
        self.stats.fast_path += 1;
        self.stats.unsat += 1;
        CheckResult::Unsat
    }

    /// One variable's value in the most recent `Sat` answer. A variable the
    /// model does not assign reads as zero, the same convention the
    /// model-reuse rule evaluates terms under.
    pub fn model_value(&self, pool: &TermPool, v: VarId) -> Bv {
        self.last_model
            .get(&v)
            .copied()
            .unwrap_or_else(|| Bv::zero(pool.var_width(v)))
    }

    /// The model from the most recent `Sat` answer.
    ///
    /// Variables that never appeared in any asserted constraint are
    /// unconstrained and default to zero.
    pub fn model(&self, pool: &TermPool) -> Model {
        let mut values = HashMap::new();
        for v in pool.all_vars() {
            values.insert(pool.var_name(v).to_string(), self.model_value(pool, v));
        }
        Model { values }
    }

    /// Underlying SAT statistics (propagations, conflicts, learned clauses).
    pub fn sat_stats(&self) -> crate::sat::SatStats {
        self.sat.stats
    }

    /// Exports this solver's learned clauses in solver-portable form for
    /// the clause exchange (see [`crate::sat::ClauseExchange`]).
    ///
    /// Only clauses of at most `max_lits` literals whose *every* variable
    /// has a portable identity ([`Blaster::portable_atoms`]) are exported.
    /// That filter is the soundness argument: activation literals and
    /// anonymous Tseitin gates are excluded, so a surviving clause is a
    /// consequence of gate definitions plus permanent units alone — a
    /// theory lemma over shared term content, valid in any solver that
    /// blasts the same (content-hashed) terms. Literals are sorted by key,
    /// making equal lemmas byte-equal for cheap dedup at the publish site.
    pub fn export_portable(&self, max_lits: usize) -> Vec<Vec<PortableLit>> {
        let Some(blaster) = &self.blaster else {
            return Vec::new();
        };
        // One SAT var can carry several portable identities (shared cones);
        // keep the smallest key so the choice is deterministic. Open frames'
        // activation vars are keyed by frame content: a learned clause is
        // monotone in the database, so keying with the frame's content *at
        // export time* (a superset of what the clause actually used) keeps
        // the exported implication valid for any matching importer frame.
        let mut map: HashMap<crate::sat::Var, (u64, bool)> = HashMap::new();
        let frames = self
            .frames
            .iter()
            .map(|f| (f.activation.var(), frame_key(f), f.activation.positive()));
        for (v, key, pol) in blaster.portable_atoms().chain(frames) {
            match map.get(&v) {
                Some(&(k, _)) if k <= key => {}
                _ => {
                    map.insert(v, (key, pol));
                }
            }
        }
        let units = self.sat.learned_unit_facts().iter().map(std::slice::from_ref);
        let mut out = Vec::new();
        for clause in units.chain(self.sat.learned_clauses()) {
            if clause.len() > max_lits {
                continue;
            }
            let mut plits = Vec::with_capacity(clause.len());
            let mut portable = true;
            for l in clause {
                match map.get(&l.var()) {
                    Some(&(key, pol)) => plits.push((key, l.positive() == pol)),
                    None => {
                        portable = false;
                        break;
                    }
                }
            }
            if portable {
                plits.sort_unstable();
                plits.dedup();
                out.push(plits);
            }
        }
        out
    }

    /// Translates portable clauses into this solver's own encoding and adds
    /// them to the clause database. Returns `(imported, deferred)`: clauses
    /// referencing an atom this solver has not blasted yet cannot be
    /// translated and are handed back for a later retry (the atom map only
    /// grows). Imported clauses are theory lemmas, so they never change a
    /// verdict — they only let the engine skip re-deriving a conflict.
    pub fn import_portable(&mut self, clauses: Vec<SharedClause>) -> (usize, Vec<SharedClause>) {
        if clauses.is_empty() {
            return (0, clauses);
        }
        let Some(blaster) = &self.blaster else {
            return (0, clauses);
        };
        let mut map: HashMap<u64, Lit> = HashMap::new();
        let frames = self
            .frames
            .iter()
            .map(|f| (f.activation.var(), frame_key(f), f.activation.positive()));
        for (v, key, pol) in blaster.portable_atoms().chain(frames) {
            map.entry(key).or_insert_with(|| Lit::new(v, pol));
        }
        let mut imported = 0usize;
        let mut deferred = Vec::new();
        for c in clauses {
            let lits: Option<Vec<Lit>> = c
                .lits
                .iter()
                .map(|&(key, val)| map.get(&key).map(|&l| if val { l } else { l.neg() }))
                .collect();
            match lits {
                Some(ls) => {
                    let ok = self.sat.add_clause(&ls);
                    debug_assert!(ok, "imported theory lemma contradicted the clause database");
                    imported += 1;
                }
                None => deferred.push(c),
            }
        }
        (imported, deferred)
    }
}

/// A satisfying assignment, keyed by variable name.
#[derive(Clone, Debug, Default)]
pub struct Model {
    values: HashMap<String, Bv>,
}

impl Model {
    /// The value assigned to a variable, if the variable exists.
    pub fn value_of(&self, name: &str) -> Option<Bv> {
        self.values.get(name).copied()
    }

    /// Iterates over all (name, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Bv)> + '_ {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of variables in the model.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the model is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Builds a model directly from (name, value) pairs (used by tests and
    /// by the concrete-replay path of the test driver).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (String, Bv)>) -> Model {
        Model {
            values: pairs.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assert_check_pop_cycle() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.var("x", 8);
        let k1 = pool.bv_const(Bv::new(8, 10));
        let k2 = pool.bv_const(Bv::new(8, 20));

        s.push();
        let e1 = pool.eq(x, k1);
        s.assert_term(&mut pool, e1);
        assert_eq!(s.check(&mut pool), CheckResult::Sat);
        assert_eq!(s.model(&pool).value_of("x"), Some(Bv::new(8, 10)));

        // Nested frame contradicting the outer one.
        s.push();
        let e2 = pool.eq(x, k2);
        s.assert_term(&mut pool, e2);
        assert_eq!(s.check(&mut pool), CheckResult::Unsat);
        s.pop();

        // Outer frame is intact after the pop.
        assert_eq!(s.check(&mut pool), CheckResult::Sat);
        s.pop();
    }

    #[test]
    fn popped_constraints_do_not_leak() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.var("x", 8);
        let k = pool.bv_const(Bv::new(8, 1));

        s.push();
        let e = pool.eq(x, k);
        s.assert_term(&mut pool, e);
        assert_eq!(s.check(&mut pool), CheckResult::Sat);
        s.pop();

        s.push();
        let ne = pool.ne(x, k);
        s.assert_term(&mut pool, ne);
        assert_eq!(s.check(&mut pool), CheckResult::Sat);
        assert_ne!(s.model(&pool).value_of("x"), Some(Bv::new(8, 1)));
        s.pop();
    }

    #[test]
    fn fast_path_on_constant_false() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        s.push();
        let f = pool.bool_false();
        s.assert_term(&mut pool, f);
        assert_eq!(s.check(&mut pool), CheckResult::Unsat);
        assert_eq!(s.stats.fast_path, 1);
        assert_eq!(s.stats.sat_engine_calls, 0);
        s.pop();
        assert_eq!(s.check_empty_sat(&mut pool), CheckResult::Sat);
    }

    impl Solver {
        fn check_empty_sat(&mut self, pool: &mut TermPool) -> CheckResult {
            self.check(pool)
        }
    }

    #[test]
    fn deep_incremental_stack() {
        // Mimics DFS early termination: a deep push/pop walk with checks at
        // every level, like Alg. 1 exploring a branchy CFG.
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.var("x", 16);
        for round in 0..3 {
            let mut depth = 0;
            for i in 0..20u16 {
                s.push();
                depth += 1;
                // Constrain one nibble-slice per level; all consistent.
                let lo = (i % 4) * 4;
                let slice = pool.extract(x, lo, 4);
                let k = pool.bv_const(Bv::new(4, (i % 16) as u128));
                let e = pool.eq(slice, k);
                s.assert_term(&mut pool, e);
                let r = s.check(&mut pool);
                // Conflicting nibble constraints appear when i and i+4 map
                // to the same slice with different values.
                if i >= 4 {
                    assert_eq!(r, CheckResult::Unsat, "round {round} level {i}");
                    break;
                } else {
                    assert_eq!(r, CheckResult::Sat);
                }
            }
            for _ in 0..depth {
                s.pop();
            }
        }
        assert!(s.stats.checks >= 15);
    }

    #[test]
    fn model_defaults_unconstrained_vars_to_zero() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.var("x", 8);
        let _y = pool.var("unused", 32);
        let k = pool.bv_const(Bv::new(8, 3));
        s.push();
        let e = pool.eq(x, k);
        s.assert_term(&mut pool, e);
        assert_eq!(s.check(&mut pool), CheckResult::Sat);
        let m = s.model(&pool);
        assert_eq!(m.value_of("unused"), Some(Bv::zero(32)));
        assert_eq!(m.value_of("x"), Some(Bv::new(8, 3)));
        assert_eq!(m.value_of("missing"), None);
    }

    #[test]
    fn stats_track_checks() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.var("x", 8);
        let k = pool.bv_const(Bv::new(8, 7));
        s.push();
        let e = pool.eq(x, k);
        s.assert_term(&mut pool, e);
        for _ in 0..5 {
            s.check(&mut pool);
        }
        s.pop();
        assert_eq!(s.stats.checks, 5);
        assert_eq!(s.stats.sat, 5);
        assert_eq!(s.stats.max_depth, 1);
    }

    #[test]
    #[should_panic(expected = "without an open frame")]
    fn assert_without_push_panics() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let t = pool.bool_true();
        s.assert_term(&mut pool, t);
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn unbalanced_pop_panics() {
        let mut s = Solver::new();
        s.pop();
    }

    #[test]
    fn check_assuming_answers_unrelated_conjunctions_on_one_solver() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let k1 = pool.bv_const(Bv::new(8, 1));
        let k2 = pool.bv_const(Bv::new(8, 2));
        let x1 = pool.eq(x, k1);
        let x2 = pool.eq(x, k2);
        let sum = pool.add(x, y);
        let shared = pool.eq(sum, k2);
        let (vx, vy) = (pool.find_var("x").unwrap(), pool.find_var("y").unwrap());

        // A contradictory request leaves nothing behind for later ones.
        assert_eq!(s.check_assuming(&mut pool, &[x1, x2]), CheckResult::Unsat);
        assert_eq!(s.check_assuming(&mut pool, &[shared, x2]), CheckResult::Sat);
        assert_eq!(s.model_value(&pool, vx), Bv::new(8, 2));
        assert_eq!(s.model_value(&pool, vy), Bv::zero(8));
        assert_eq!(s.check_assuming(&mut pool, &[shared, x1]), CheckResult::Sat);
        assert_eq!(s.model_value(&pool, vy), Bv::new(8, 1));

        // Every term is blasted already: re-asking allocates no SAT var.
        let vars = s.sat.num_vars();
        assert_eq!(s.check_assuming(&mut pool, &[shared, x2]), CheckResult::Sat);
        assert_eq!(s.sat.num_vars(), vars);
        assert_eq!(s.depth(), 0, "no frames are used");
    }

    #[test]
    fn check_assuming_reuses_a_certifying_model() {
        let mut pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.var("x", 8);
        let k5 = pool.bv_const(Bv::new(8, 5));
        let k3 = pool.bv_const(Bv::new(8, 3));
        let gt5 = pool.ugt(x, k5);
        let gt3 = pool.ugt(x, k3);
        let vx = pool.find_var("x").unwrap();
        assert_eq!(s.check_assuming(&mut pool, &[gt5]), CheckResult::Sat);
        let calls = s.stats.sat_engine_calls;
        let v = s.model_value(&pool, vx);
        // x > 5 implies x > 3: the last model answers without the engine.
        assert_eq!(s.check_assuming(&mut pool, &[gt3, gt5]), CheckResult::Sat);
        assert_eq!(s.stats.sat_engine_calls, calls);
        assert_eq!(s.stats.model_reuse, 1);
        assert_eq!(s.model_value(&pool, vx), v);
        // A constant-false term is refuted syntactically.
        let f = pool.bool_false();
        assert_eq!(s.check_assuming(&mut pool, &[gt3, f]), CheckResult::Unsat);
        assert_eq!(s.stats.fast_path, 1);
        assert_eq!(s.stats.checks, 3);
    }

    #[test]
    fn portable_clauses_roundtrip_and_preserve_verdicts() {
        // Solver A probes sibling arms under a carry-chain bound, learning
        // conflict clauses (refuting `x^y != 255` under `x+y == 255` needs
        // real search, not just assumption propagation); B blasts the same
        // terms, imports A's portable lemmas, and must answer every probe
        // exactly like a fresh solver.
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let c255 = pool.bv_const(Bv::new(8, 255));
        let sum = pool.add(x, y);
        let bound = pool.eq(sum, c255);
        let xor = pool.bv_xor(x, y);
        let mut arms: Vec<TermId> = vec![pool.ne(xor, c255)];
        for k in 0..8u128 {
            let kk = pool.bv_const(Bv::new(8, 17 * k));
            arms.push(pool.eq(x, kk));
        }

        let mut a = Solver::new();
        a.push();
        a.assert_term(&mut pool, bound);
        let va = a.check_under(&mut pool, &arms);
        let exported = a.export_portable(8);
        assert!(
            !exported.is_empty(),
            "refuting the carry-chain arm must yield portable lemmas"
        );

        let mut b = Solver::new();
        b.push();
        b.assert_term(&mut pool, bound);
        let _ = b.check_under(&mut pool, &arms[1..4]);
        let shared: Vec<SharedClause> = exported
            .iter()
            .map(|lits| SharedClause {
                source: 0,
                lits: lits.clone(),
            })
            .collect();
        let (imported, _deferred) = b.import_portable(shared);
        assert!(imported > 0, "identically blasted terms must translate");
        let vb = b.check_under(&mut pool, &arms);

        let mut fresh = Solver::new();
        fresh.push();
        fresh.assert_term(&mut pool, bound);
        let vf = fresh.check_under(&mut pool, &arms);
        assert_eq!(vb, vf, "imported lemmas must never change a verdict");
        assert_eq!(va, vf);
    }
}
