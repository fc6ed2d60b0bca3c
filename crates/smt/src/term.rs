//! Hash-consed terms over fixed-width bitvectors and booleans.
//!
//! Terms are interned in a [`TermPool`]: structurally equal terms share one
//! [`TermId`], so the bit-blaster encodes each shared subterm exactly once
//! and equality of ids is equality of terms. Smart constructors perform
//! constant folding and cheap local rewrites — this is what lets the
//! symbolic executor detect trivially-unsatisfiable branch prefixes without
//! touching the SAT engine at all.

use meissa_num::Bv;
use std::collections::HashMap;
use std::fmt;

/// An interned term handle. Cheap to copy; meaningful only with its pool.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Dense index of the term within its pool (for side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A solver variable handle (a named bitvector input).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub(crate) u32);

/// Binary bitvector operators with bitvector result.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BvBinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
}

/// Binary bitvector comparators with boolean result.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Unsigned less-than.
    Ult,
}

/// The term node structure. `TermId` operands refer back into the pool.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermNode {
    /// A bitvector constant.
    BvConst(Bv),
    /// A named input variable.
    BvVar(VarId),
    /// A binary bitvector operation (both operands same width).
    BvBin(BvBinOp, TermId, TermId),
    /// Bitwise NOT.
    BvNot(TermId),
    /// Logical shift left by a constant.
    BvShl(TermId, u16),
    /// Logical shift right by a constant.
    BvShr(TermId, u16),
    /// Bit extraction `[lo, lo+len)`.
    BvExtract(TermId, u16, u16),
    /// Concatenation (first operand is the high bits).
    BvConcat(TermId, TermId),
    /// `if cond { then } else { els }` over bitvectors.
    BvIte(TermId, TermId, TermId),
    /// A comparison producing a boolean.
    Cmp(CmpOp, TermId, TermId),
    /// A boolean constant.
    BoolConst(bool),
    /// Boolean conjunction.
    BoolAnd(TermId, TermId),
    /// Boolean disjunction.
    BoolOr(TermId, TermId),
    /// Boolean negation.
    BoolNot(TermId),
}

/// Sort of a term: boolean or bitvector of a width.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sort {
    /// Boolean sort.
    Bool,
    /// Bitvector sort with width in bits.
    Bv(u16),
}

#[derive(Clone)]
struct VarInfo {
    name: String,
    width: u16,
}

/// The interning pool for terms and variables.
///
/// `Clone` is cheap relative to re-interning and lets a parallel-task donor
/// snapshot a prefix pool once and hand each sibling subtree its own copy.
#[derive(Clone, Default)]
pub struct TermPool {
    nodes: Vec<TermNode>,
    sorts: Vec<Sort>,
    intern: HashMap<TermNode, TermId>,
    vars: Vec<VarInfo>,
    var_by_name: HashMap<String, VarId>,
    /// Pool-independent content hash per term (variables hash by *name*,
    /// children by their content hashes), computed once at intern time.
    /// This is what the commutative constructors order operands by, so a
    /// term's stored shape — and everything derived from it (rendering,
    /// bit-blasting, models) — does not depend on the pool's interning
    /// history. Two pools that interned the same structure in different
    /// orders still store operand-identical terms, which is what makes
    /// parallel-worker output byte-identical to a sequential run's.
    hashes: Vec<u64>,
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks at a term's node.
    pub fn node(&self, t: TermId) -> &TermNode {
        &self.nodes[t.0 as usize]
    }

    /// A term's sort.
    pub fn sort(&self, t: TermId) -> Sort {
        self.sorts[t.0 as usize]
    }

    /// A term's bitvector width.
    ///
    /// # Panics
    /// Panics if the term is boolean.
    pub fn width(&self, t: TermId) -> u16 {
        match self.sort(t) {
            Sort::Bv(w) => w,
            Sort::Bool => panic!("width() on boolean term"),
        }
    }

    /// The name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.0 as usize].name
    }

    /// The declared width of a variable.
    pub fn var_width(&self, v: VarId) -> u16 {
        self.vars[v.0 as usize].width
    }

    /// All declared variables.
    pub fn all_vars(&self) -> impl ExactSizeIterator<Item = VarId> + '_ {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// Looks up a variable by name.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.var_by_name.get(name).copied()
    }

    fn mk(&mut self, node: TermNode, sort: Sort) -> TermId {
        if let Some(&id) = self.intern.get(&node) {
            return id;
        }
        let id = TermId(self.nodes.len() as u32);
        let h = self.node_hash(&node);
        self.nodes.push(node.clone());
        self.sorts.push(sort);
        self.hashes.push(h);
        self.intern.insert(node, id);
        id
    }

    /// A term's pool-independent content hash (see the `hashes` field).
    pub fn term_hash(&self, t: TermId) -> u64 {
        self.hashes[t.0 as usize]
    }

    fn node_hash(&self, node: &TermNode) -> u64 {
        // splitmix64-style mixing; fixed constants, no per-process seeding,
        // so the hash is stable across runs and across pools.
        fn mix(mut h: u64, v: u64) -> u64 {
            h = h.wrapping_add(0x9e3779b97f4a7c15).wrapping_add(v);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
            h ^ (h >> 31)
        }
        let child = |t: &TermId| self.hashes[t.0 as usize];
        match node {
            TermNode::BvConst(v) => mix(mix(1, u64::from(v.width())), (v.val() >> 64) as u64)
                .wrapping_add(mix(2, v.val() as u64)),
            TermNode::BvVar(v) => {
                let info = &self.vars[v.0 as usize];
                let mut h = mix(3, u64::from(info.width));
                for b in info.name.as_bytes() {
                    h = mix(h, u64::from(*b));
                }
                h
            }
            TermNode::BoolConst(b) => mix(4, u64::from(*b)),
            TermNode::BvBin(op, a, b) => mix(mix(mix(5, *op as u64), child(a)), child(b)),
            TermNode::BvNot(a) => mix(6, child(a)),
            TermNode::BvShl(a, n) => mix(mix(7, child(a)), u64::from(*n)),
            TermNode::BvShr(a, n) => mix(mix(8, child(a)), u64::from(*n)),
            TermNode::BvExtract(a, lo, len) => {
                mix(mix(mix(9, child(a)), u64::from(*lo)), u64::from(*len))
            }
            TermNode::BvConcat(a, b) => mix(mix(10, child(a)), child(b)),
            TermNode::BvIte(c, a, b) => mix(mix(mix(11, child(c)), child(a)), child(b)),
            TermNode::Cmp(op, a, b) => mix(mix(mix(12, *op as u64), child(a)), child(b)),
            TermNode::BoolAnd(a, b) => mix(mix(13, child(a)), child(b)),
            TermNode::BoolOr(a, b) => mix(mix(14, child(a)), child(b)),
            TermNode::BoolNot(a) => mix(15, child(a)),
        }
    }

    /// Orders a commutative pair by content hash (ties broken by the full
    /// canonical rendering — hash collisions between distinct terms are
    /// possible, and the order must still be pool-independent).
    fn canon_pair(&self, a: TermId, b: TermId) -> (TermId, TermId) {
        let (ha, hb) = (self.term_hash(a), self.term_hash(b));
        match ha.cmp(&hb) {
            std::cmp::Ordering::Less => (a, b),
            std::cmp::Ordering::Greater => (b, a),
            std::cmp::Ordering::Equal => {
                if self.canonical_key(a) <= self.canonical_key(b) {
                    (a, b)
                } else {
                    (b, a)
                }
            }
        }
    }

    /// Declares (or retrieves) a named variable term of the given width.
    ///
    /// # Panics
    /// Panics if the name was previously declared with a different width.
    pub fn var(&mut self, name: &str, width: u16) -> TermId {
        let vid = if let Some(&v) = self.var_by_name.get(name) {
            assert_eq!(
                self.vars[v.0 as usize].width, width,
                "variable {name} redeclared with different width"
            );
            v
        } else {
            let v = VarId(self.vars.len() as u32);
            self.vars.push(VarInfo {
                name: name.to_string(),
                width,
            });
            self.var_by_name.insert(name.to_string(), v);
            v
        };
        self.mk(TermNode::BvVar(vid), Sort::Bv(width))
    }

    /// A bitvector constant term.
    pub fn bv_const(&mut self, v: Bv) -> TermId {
        let w = v.width();
        self.mk(TermNode::BvConst(v), Sort::Bv(w))
    }

    /// The boolean constant `true`.
    pub fn bool_true(&mut self) -> TermId {
        self.mk(TermNode::BoolConst(true), Sort::Bool)
    }

    /// The boolean constant `false`.
    pub fn bool_false(&mut self) -> TermId {
        self.mk(TermNode::BoolConst(false), Sort::Bool)
    }

    /// A boolean constant of the given value.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.mk(TermNode::BoolConst(b), Sort::Bool)
    }

    /// If the term is a constant bitvector, its value.
    pub fn as_const(&self, t: TermId) -> Option<Bv> {
        match self.node(t) {
            TermNode::BvConst(v) => Some(*v),
            _ => None,
        }
    }

    /// If the term is a constant boolean, its value.
    pub fn as_bool_const(&self, t: TermId) -> Option<bool> {
        match self.node(t) {
            TermNode::BoolConst(b) => Some(*b),
            _ => None,
        }
    }

    fn bin(&mut self, op: BvBinOp, a: TermId, b: TermId) -> TermId {
        let w = self.width(a);
        assert_eq!(w, self.width(b), "width mismatch in {op:?}");
        // Constant folding.
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let r = match op {
                BvBinOp::Add => x.add(&y),
                BvBinOp::Sub => x.sub(&y),
                BvBinOp::And => x.and(&y),
                BvBinOp::Or => x.or(&y),
                BvBinOp::Xor => x.xor(&y),
            };
            return self.bv_const(r);
        }
        // Identity rewrites.
        match op {
            BvBinOp::Add => {
                if self.is_zero_const(a) {
                    return b;
                }
                if self.is_zero_const(b) {
                    return a;
                }
            }
            BvBinOp::Sub => {
                if self.is_zero_const(b) {
                    return a;
                }
                if a == b {
                    return self.bv_const(Bv::zero(w));
                }
            }
            BvBinOp::And => {
                if self.is_zero_const(a) || self.is_zero_const(b) {
                    return self.bv_const(Bv::zero(w));
                }
                if self.is_ones_const(a) {
                    return b;
                }
                if self.is_ones_const(b) {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
            BvBinOp::Or => {
                if self.is_zero_const(a) {
                    return b;
                }
                if self.is_zero_const(b) {
                    return a;
                }
                if self.is_ones_const(a) || self.is_ones_const(b) {
                    return self.bv_const(Bv::ones(w));
                }
                if a == b {
                    return a;
                }
            }
            BvBinOp::Xor => {
                if self.is_zero_const(a) {
                    return b;
                }
                if self.is_zero_const(b) {
                    return a;
                }
                if a == b {
                    return self.bv_const(Bv::zero(w));
                }
            }
        }
        self.mk(TermNode::BvBin(op, a, b), Sort::Bv(w))
    }

    fn is_zero_const(&self, t: TermId) -> bool {
        matches!(self.node(t), TermNode::BvConst(v) if v.is_zero())
    }

    fn is_ones_const(&self, t: TermId) -> bool {
        matches!(self.node(t), TermNode::BvConst(v) if *v == Bv::ones(v.width()))
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin(BvBinOp::Add, a, b)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin(BvBinOp::Sub, a, b)
    }

    /// Bitwise AND.
    pub fn bv_and(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin(BvBinOp::And, a, b)
    }

    /// Bitwise OR.
    pub fn bv_or(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin(BvBinOp::Or, a, b)
    }

    /// Bitwise XOR.
    pub fn bv_xor(&mut self, a: TermId, b: TermId) -> TermId {
        self.bin(BvBinOp::Xor, a, b)
    }

    /// Bitwise NOT.
    pub fn bv_not(&mut self, a: TermId) -> TermId {
        if let Some(v) = self.as_const(a) {
            return self.bv_const(v.not());
        }
        if let TermNode::BvNot(inner) = *self.node(a) {
            return inner;
        }
        let w = self.width(a);
        self.mk(TermNode::BvNot(a), Sort::Bv(w))
    }

    /// Logical shift left by a constant.
    pub fn shl(&mut self, a: TermId, amount: u16) -> TermId {
        if amount == 0 {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.bv_const(v.shl(amount as u32));
        }
        let w = self.width(a);
        if amount >= w {
            return self.bv_const(Bv::zero(w));
        }
        self.mk(TermNode::BvShl(a, amount), Sort::Bv(w))
    }

    /// Logical shift right by a constant.
    pub fn shr(&mut self, a: TermId, amount: u16) -> TermId {
        if amount == 0 {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.bv_const(v.shr(amount as u32));
        }
        let w = self.width(a);
        if amount >= w {
            return self.bv_const(Bv::zero(w));
        }
        self.mk(TermNode::BvShr(a, amount), Sort::Bv(w))
    }

    /// Bit extraction `[lo, lo+len)`.
    pub fn extract(&mut self, a: TermId, lo: u16, len: u16) -> TermId {
        let w = self.width(a);
        assert!(lo + len <= w, "extract out of range");
        if lo == 0 && len == w {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.bv_const(v.extract(lo, len));
        }
        self.mk(TermNode::BvExtract(a, lo, len), Sort::Bv(len))
    }

    /// Concatenation (`hi` supplies the high bits).
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let w = self.width(hi) + self.width(lo);
        assert!(w <= Bv::MAX_WIDTH, "concat width exceeds 128");
        if let (Some(a), Some(b)) = (self.as_const(hi), self.as_const(lo)) {
            return self.bv_const(a.concat(&b));
        }
        self.mk(TermNode::BvConcat(hi, lo), Sort::Bv(w))
    }

    /// Zero-extends or truncates `a` to `width`.
    pub fn resize(&mut self, a: TermId, width: u16) -> TermId {
        let w = self.width(a);
        if width == w {
            a
        } else if width < w {
            self.extract(a, 0, width)
        } else {
            let zero = self.bv_const(Bv::zero(width - w));
            self.concat(zero, a)
        }
    }

    /// Bitvector if-then-else.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        assert_eq!(self.sort(cond), Sort::Bool, "ite condition must be boolean");
        let w = self.width(then);
        assert_eq!(w, self.width(els), "ite arm width mismatch");
        if let Some(b) = self.as_bool_const(cond) {
            return if b { then } else { els };
        }
        if then == els {
            return then;
        }
        self.mk(TermNode::BvIte(cond, then, els), Sort::Bv(w))
    }

    /// Equality comparison.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.width(a), self.width(b), "width mismatch in eq");
        if a == b {
            return self.bool_true();
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bool_const(x == y);
        }
        // Canonical operand order so `eq(a, b)` and `eq(b, a)` intern equal
        // — by content hash, so the order is pool-independent.
        let (a, b) = self.canon_pair(a, b);
        self.mk(TermNode::Cmp(CmpOp::Eq, a, b), Sort::Bool)
    }

    /// Disequality (sugar for `not(eq)`).
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.width(a), self.width(b), "width mismatch in ult");
        if a == b {
            return self.bool_false();
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bool_const(x.ult(&y));
        }
        if self.is_zero_const(b) {
            return self.bool_false(); // nothing is < 0
        }
        self.mk(TermNode::Cmp(CmpOp::Ult, a, b), Sort::Bool)
    }

    /// Unsigned greater-than (sugar).
    pub fn ugt(&mut self, a: TermId, b: TermId) -> TermId {
        self.ult(b, a)
    }

    /// Unsigned less-or-equal (sugar for `not(b < a)`).
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        let gt = self.ult(b, a);
        self.not(gt)
    }

    /// Unsigned greater-or-equal (sugar).
    pub fn uge(&mut self, a: TermId, b: TermId) -> TermId {
        self.ule(b, a)
    }

    /// Boolean conjunction.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(false), _) | (_, Some(false)) => return self.bool_false(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        // x ∧ ¬x = false
        if self.is_negation_of(a, b) {
            return self.bool_false();
        }
        let (a, b) = self.canon_pair(a, b);
        self.mk(TermNode::BoolAnd(a, b), Sort::Bool)
    }

    /// Boolean disjunction.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(true), _) | (_, Some(true)) => return self.bool_true(),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if self.is_negation_of(a, b) {
            return self.bool_true();
        }
        let (a, b) = self.canon_pair(a, b);
        self.mk(TermNode::BoolOr(a, b), Sort::Bool)
    }

    /// Boolean negation.
    pub fn not(&mut self, a: TermId) -> TermId {
        if let Some(b) = self.as_bool_const(a) {
            return self.bool_const(!b);
        }
        if let TermNode::BoolNot(inner) = *self.node(a) {
            return inner;
        }
        self.mk(TermNode::BoolNot(a), Sort::Bool)
    }

    fn is_negation_of(&self, a: TermId, b: TermId) -> bool {
        matches!(self.node(a), TermNode::BoolNot(x) if *x == b)
            || matches!(self.node(b), TermNode::BoolNot(x) if *x == a)
    }

    /// Conjunction over a slice (true for an empty slice).
    pub fn and_many(&mut self, terms: &[TermId]) -> TermId {
        let mut acc = self.bool_true();
        for &t in terms {
            acc = self.and(acc, t);
        }
        acc
    }

    /// Disjunction over a slice (false for an empty slice).
    pub fn or_many(&mut self, terms: &[TermId]) -> TermId {
        let mut acc = self.bool_false();
        for &t in terms {
            acc = self.or(acc, t);
        }
        acc
    }

    /// Imports a term from another pool into this one, returning the
    /// equivalent term here. Variables are matched **by name** (and width);
    /// structure is rebuilt through the smart constructors (operand order
    /// of commutative nodes is content-hash canonical in every pool, so
    /// the rebuilt term has the same shape it had in `src`) — importing a
    /// term whose structure already exists here returns the existing id. `cache` maps source ids to destination ids and may be
    /// reused across calls as long as both pools only grow (pools are
    /// append-only, so a per-(src, dst) cache never goes stale).
    ///
    /// This is the translation step at a parallel-worker boundary: the
    /// main thread interns a path prefix into a worker's pool, and the
    /// worker's discovered constraints translate back into the main pool.
    pub fn import(
        &mut self,
        src: &TermPool,
        t: TermId,
        cache: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        self.import_from(src, t, 0, cache)
    }

    /// [`TermPool::import`] for a `src` pool that was *forked* from this one
    /// (cloned when this pool held `shared` terms, with both pools only
    /// appended to since): the first `shared` ids are identical in both
    /// pools, so they translate to themselves and only fork-local terms are
    /// rebuilt. With `shared == 0` this is exactly `import`.
    ///
    /// This is what makes forked worker sessions cheap: a worker clones the
    /// main pool once, explores (prefix term ids stay valid verbatim), and
    /// only the terms the exploration *created* pay translation cost on the
    /// way back.
    pub fn import_from(
        &mut self,
        src: &TermPool,
        t: TermId,
        shared: u32,
        cache: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if t.0 < shared {
            return t;
        }
        if let Some(&d) = cache.get(&t) {
            return d;
        }
        // Explicit post-order worklist: constraint conjunctions and parser
        // concat chains can nest deeply enough to threaten the stack.
        let mut order: Vec<TermId> = Vec::new();
        let mut seen: std::collections::HashSet<TermId> = std::collections::HashSet::new();
        let mut visit: Vec<(TermId, bool)> = vec![(t, false)];
        while let Some((n, expanded)) = visit.pop() {
            if cache.contains_key(&n) {
                continue;
            }
            if n.0 < shared {
                cache.insert(n, n);
                continue;
            }
            if expanded {
                order.push(n);
                continue;
            }
            if !seen.insert(n) {
                continue;
            }
            visit.push((n, true));
            match *src.node(n) {
                TermNode::BvConst(_) | TermNode::BvVar(_) | TermNode::BoolConst(_) => {}
                TermNode::BvBin(_, a, b) | TermNode::BvConcat(a, b) => {
                    visit.push((a, false));
                    visit.push((b, false));
                }
                TermNode::Cmp(_, a, b) | TermNode::BoolAnd(a, b) | TermNode::BoolOr(a, b) => {
                    // Operand order needs no care here: the commutative
                    // constructors re-canonicalize by content hash, which is
                    // pool-independent.
                    visit.push((a, false));
                    visit.push((b, false));
                }
                TermNode::BvNot(a)
                | TermNode::BvShl(a, _)
                | TermNode::BvShr(a, _)
                | TermNode::BvExtract(a, _, _)
                | TermNode::BoolNot(a) => visit.push((a, false)),
                TermNode::BvIte(c, a, b) => {
                    visit.push((c, false));
                    visit.push((a, false));
                    visit.push((b, false));
                }
            }
        }
        for n in order {
            if cache.contains_key(&n) {
                continue;
            }
            let d = match *src.node(n) {
                TermNode::BvConst(v) => self.bv_const(v),
                TermNode::BvVar(v) => self.var(src.var_name(v), src.var_width(v)),
                TermNode::BoolConst(b) => self.bool_const(b),
                TermNode::BvBin(op, a, b) => {
                    let (a, b) = (cache[&a], cache[&b]);
                    self.bin(op, a, b)
                }
                TermNode::BvNot(a) => {
                    let a = cache[&a];
                    self.bv_not(a)
                }
                TermNode::BvShl(a, k) => {
                    let a = cache[&a];
                    self.shl(a, k)
                }
                TermNode::BvShr(a, k) => {
                    let a = cache[&a];
                    self.shr(a, k)
                }
                TermNode::BvExtract(a, lo, len) => {
                    let a = cache[&a];
                    self.extract(a, lo, len)
                }
                TermNode::BvConcat(a, b) => {
                    let (a, b) = (cache[&a], cache[&b]);
                    self.concat(a, b)
                }
                TermNode::BvIte(c, a, b) => {
                    let (c, a, b) = (cache[&c], cache[&a], cache[&b]);
                    self.ite(c, a, b)
                }
                TermNode::Cmp(CmpOp::Eq, a, b) => {
                    let (a, b) = (cache[&a], cache[&b]);
                    self.eq(a, b)
                }
                TermNode::Cmp(CmpOp::Ult, a, b) => {
                    let (a, b) = (cache[&a], cache[&b]);
                    self.ult(a, b)
                }
                TermNode::BoolAnd(a, b) => {
                    let (a, b) = (cache[&a], cache[&b]);
                    self.and(a, b)
                }
                TermNode::BoolOr(a, b) => {
                    let (a, b) = (cache[&a], cache[&b]);
                    self.or(a, b)
                }
                TermNode::BoolNot(a) => {
                    let a = cache[&a];
                    self.not(a)
                }
            };
            cache.insert(n, d);
        }
        cache[&t]
    }

    /// A pool-independent canonical rendering of a term, suitable as a
    /// content key across pools. Variables render as `name:width`, constants
    /// carry their width, and the operands of the canonically-ordered
    /// commutative nodes (`eq`, `and`, `or` sort by pool-local [`TermId`])
    /// are re-sorted **lexicographically by rendering**, so two pools that
    /// interned the same structure in different orders produce the same
    /// string. Non-canonicalized operators (`+`, `^`, …) keep construction
    /// order, which is already determined by the source expression.
    pub fn canonical_key(&self, t: TermId) -> String {
        let mut s = String::new();
        self.fmt_canonical(t, &mut s);
        s
    }

    fn fmt_canonical(&self, t: TermId, out: &mut String) {
        use fmt::Write;
        match self.node(t) {
            TermNode::BvConst(v) => {
                let _ = write!(out, "#{v}w{}", v.width());
            }
            TermNode::BvVar(v) => {
                let _ = write!(out, "{}:{}", self.var_name(*v), self.var_width(*v));
            }
            TermNode::BvBin(op, a, b) => {
                let _ = write!(out, "({op:?} ");
                self.fmt_canonical(*a, out);
                out.push(' ');
                self.fmt_canonical(*b, out);
                out.push(')');
            }
            TermNode::BvNot(a) => {
                out.push_str("(BvNot ");
                self.fmt_canonical(*a, out);
                out.push(')');
            }
            TermNode::BvShl(a, n) => {
                let _ = write!(out, "(Shl{n} ");
                self.fmt_canonical(*a, out);
                out.push(')');
            }
            TermNode::BvShr(a, n) => {
                let _ = write!(out, "(Shr{n} ");
                self.fmt_canonical(*a, out);
                out.push(')');
            }
            TermNode::BvExtract(a, lo, len) => {
                let _ = write!(out, "(Ext{lo}+{len} ");
                self.fmt_canonical(*a, out);
                out.push(')');
            }
            TermNode::BvConcat(a, b) => {
                out.push_str("(Concat ");
                self.fmt_canonical(*a, out);
                out.push(' ');
                self.fmt_canonical(*b, out);
                out.push(')');
            }
            TermNode::BvIte(c, a, b) => {
                out.push_str("(Ite ");
                self.fmt_canonical(*c, out);
                out.push(' ');
                self.fmt_canonical(*a, out);
                out.push(' ');
                self.fmt_canonical(*b, out);
                out.push(')');
            }
            TermNode::Cmp(CmpOp::Ult, a, b) => {
                out.push_str("(Ult ");
                self.fmt_canonical(*a, out);
                out.push(' ');
                self.fmt_canonical(*b, out);
                out.push(')');
            }
            // Operand order of these three is pool-local (sorted by TermId
            // at construction): re-sort by rendering so the key is stable.
            TermNode::Cmp(CmpOp::Eq, a, b) => self.fmt_sorted("Eq", *a, *b, out),
            TermNode::BoolAnd(a, b) => self.fmt_sorted("And", *a, *b, out),
            TermNode::BoolOr(a, b) => self.fmt_sorted("Or", *a, *b, out),
            TermNode::BoolConst(b) => {
                let _ = write!(out, "{b}");
            }
            TermNode::BoolNot(a) => {
                out.push_str("(Not ");
                self.fmt_canonical(*a, out);
                out.push(')');
            }
        }
    }

    fn fmt_sorted(&self, tag: &str, a: TermId, b: TermId, out: &mut String) {
        let mut ra = String::new();
        self.fmt_canonical(a, &mut ra);
        let mut rb = String::new();
        self.fmt_canonical(b, &mut rb);
        if ra > rb {
            std::mem::swap(&mut ra, &mut rb);
        }
        out.push('(');
        out.push_str(tag);
        out.push(' ');
        out.push_str(&ra);
        out.push(' ');
        out.push_str(&rb);
        out.push(')');
    }

    /// Evaluates a term under a full assignment of variables to values.
    /// Used by tests and by the template instantiation hash post-filter.
    ///
    /// Returns `None` if a variable required by the term has no assignment.
    pub fn eval(&self, t: TermId, env: &dyn Fn(VarId) -> Option<Bv>) -> Option<EvalValue> {
        match self.node(t) {
            TermNode::BvConst(v) => Some(EvalValue::Bv(*v)),
            TermNode::BvVar(v) => env(*v).map(EvalValue::Bv),
            TermNode::BvBin(op, a, b) => {
                let x = self.eval(*a, env)?.bv();
                let y = self.eval(*b, env)?.bv();
                Some(EvalValue::Bv(match op {
                    BvBinOp::Add => x.add(&y),
                    BvBinOp::Sub => x.sub(&y),
                    BvBinOp::And => x.and(&y),
                    BvBinOp::Or => x.or(&y),
                    BvBinOp::Xor => x.xor(&y),
                }))
            }
            TermNode::BvNot(a) => Some(EvalValue::Bv(self.eval(*a, env)?.bv().not())),
            TermNode::BvShl(a, n) => Some(EvalValue::Bv(self.eval(*a, env)?.bv().shl(*n as u32))),
            TermNode::BvShr(a, n) => Some(EvalValue::Bv(self.eval(*a, env)?.bv().shr(*n as u32))),
            TermNode::BvExtract(a, lo, len) => {
                Some(EvalValue::Bv(self.eval(*a, env)?.bv().extract(*lo, *len)))
            }
            TermNode::BvConcat(a, b) => {
                let x = self.eval(*a, env)?.bv();
                let y = self.eval(*b, env)?.bv();
                Some(EvalValue::Bv(x.concat(&y)))
            }
            TermNode::BvIte(c, a, b) => {
                if self.eval(*c, env)?.bool() {
                    self.eval(*a, env)
                } else {
                    self.eval(*b, env)
                }
            }
            TermNode::Cmp(op, a, b) => {
                let x = self.eval(*a, env)?.bv();
                let y = self.eval(*b, env)?.bv();
                Some(EvalValue::Bool(match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ult => x.ult(&y),
                }))
            }
            TermNode::BoolConst(b) => Some(EvalValue::Bool(*b)),
            TermNode::BoolAnd(a, b) => Some(EvalValue::Bool(
                self.eval(*a, env)?.bool() && self.eval(*b, env)?.bool(),
            )),
            TermNode::BoolOr(a, b) => Some(EvalValue::Bool(
                self.eval(*a, env)?.bool() || self.eval(*b, env)?.bool(),
            )),
            TermNode::BoolNot(a) => Some(EvalValue::Bool(!self.eval(*a, env)?.bool())),
        }
    }

    /// Pretty-prints a term for diagnostics.
    pub fn display(&self, t: TermId) -> String {
        let mut s = String::new();
        self.fmt_term(t, &mut s);
        s
    }

    fn fmt_term(&self, t: TermId, out: &mut String) {
        use fmt::Write;
        match self.node(t) {
            TermNode::BvConst(v) => {
                let _ = write!(out, "{v}");
            }
            TermNode::BvVar(v) => out.push_str(self.var_name(*v)),
            TermNode::BvBin(op, a, b) => {
                let sym = match op {
                    BvBinOp::Add => "+",
                    BvBinOp::Sub => "-",
                    BvBinOp::And => "&",
                    BvBinOp::Or => "|",
                    BvBinOp::Xor => "^",
                };
                out.push('(');
                self.fmt_term(*a, out);
                let _ = write!(out, " {sym} ");
                self.fmt_term(*b, out);
                out.push(')');
            }
            TermNode::BvNot(a) => {
                out.push('~');
                self.fmt_term(*a, out);
            }
            TermNode::BvShl(a, n) => {
                out.push('(');
                self.fmt_term(*a, out);
                let _ = write!(out, " << {n})");
            }
            TermNode::BvShr(a, n) => {
                out.push('(');
                self.fmt_term(*a, out);
                let _ = write!(out, " >> {n})");
            }
            TermNode::BvExtract(a, lo, len) => {
                self.fmt_term(*a, out);
                let _ = write!(out, "[{}:{}]", lo + len - 1, lo);
            }
            TermNode::BvConcat(a, b) => {
                out.push('(');
                self.fmt_term(*a, out);
                out.push_str(" ++ ");
                self.fmt_term(*b, out);
                out.push(')');
            }
            TermNode::BvIte(c, a, b) => {
                out.push_str("ite(");
                self.fmt_term(*c, out);
                out.push_str(", ");
                self.fmt_term(*a, out);
                out.push_str(", ");
                self.fmt_term(*b, out);
                out.push(')');
            }
            TermNode::Cmp(op, a, b) => {
                let sym = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ult => "<",
                };
                out.push('(');
                self.fmt_term(*a, out);
                let _ = write!(out, " {sym} ");
                self.fmt_term(*b, out);
                out.push(')');
            }
            TermNode::BoolConst(b) => {
                let _ = write!(out, "{b}");
            }
            TermNode::BoolAnd(a, b) => {
                out.push('(');
                self.fmt_term(*a, out);
                out.push_str(" && ");
                self.fmt_term(*b, out);
                out.push(')');
            }
            TermNode::BoolOr(a, b) => {
                out.push('(');
                self.fmt_term(*a, out);
                out.push_str(" || ");
                self.fmt_term(*b, out);
                out.push(')');
            }
            TermNode::BoolNot(a) => {
                out.push('!');
                self.fmt_term(*a, out);
            }
        }
    }
}

/// Result of concrete term evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalValue {
    /// A bitvector result.
    Bv(Bv),
    /// A boolean result.
    Bool(bool),
}

impl EvalValue {
    /// Unwraps the bitvector value.
    pub fn bv(self) -> Bv {
        match self {
            EvalValue::Bv(v) => v,
            EvalValue::Bool(_) => panic!("expected bitvector, got bool"),
        }
    }

    /// Unwraps the boolean value.
    pub fn bool(self) -> bool {
        match self {
            EvalValue::Bool(b) => b,
            EvalValue::Bv(_) => panic!("expected bool, got bitvector"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> TermPool {
        TermPool::new()
    }

    #[test]
    fn interning_shares_structure() {
        let mut p = pool();
        let x = p.var("x", 8);
        let c1 = p.bv_const(Bv::new(8, 5));
        let c2 = p.bv_const(Bv::new(8, 5));
        assert_eq!(c1, c2);
        let a1 = p.add(x, c1);
        let a2 = p.add(x, c2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn constant_folding_arith() {
        let mut p = pool();
        let a = p.bv_const(Bv::new(8, 250));
        let b = p.bv_const(Bv::new(8, 10));
        let s = p.add(a, b);
        assert_eq!(p.as_const(s), Some(Bv::new(8, 4)));
    }

    #[test]
    fn identity_rewrites() {
        let mut p = pool();
        let x = p.var("x", 16);
        let zero = p.bv_const(Bv::zero(16));
        let ones = p.bv_const(Bv::ones(16));
        let a1 = p.add(x, zero);
        assert_eq!(a1, x);
        let a2 = p.bv_or(x, zero);
        assert_eq!(a2, x);
        let a3 = p.bv_and(x, ones);
        assert_eq!(a3, x);
        let and0 = p.bv_and(x, zero);
        assert_eq!(p.as_const(and0), Some(Bv::zero(16)));
        let subxx = p.sub(x, x);
        assert_eq!(p.as_const(subxx), Some(Bv::zero(16)));
        let xorxx = p.bv_xor(x, x);
        assert_eq!(p.as_const(xorxx), Some(Bv::zero(16)));
    }

    #[test]
    fn bool_simplification() {
        let mut p = pool();
        let x = p.var("x", 8);
        let y = p.var("y", 8);
        let e = p.eq(x, y);
        let t = p.bool_true();
        let f = p.bool_false();
        let r1 = p.and(e, t);
        assert_eq!(r1, e);
        let r2 = p.and(e, f);
        assert_eq!(r2, f);
        let r3 = p.or(e, f);
        assert_eq!(r3, e);
        let r4 = p.or(e, t);
        assert_eq!(r4, t);
        let ne = p.not(e);
        let r5 = p.and(e, ne);
        assert_eq!(r5, f);
        let r6 = p.or(e, ne);
        assert_eq!(r6, t);
        let r7 = p.not(ne);
        assert_eq!(r7, e);
    }

    #[test]
    fn eq_is_canonicalized() {
        let mut p = pool();
        let x = p.var("x", 8);
        let y = p.var("y", 8);
        let e1 = p.eq(x, y);
        let e2 = p.eq(y, x);
        assert_eq!(e1, e2);
    }

    #[test]
    fn eq_on_same_term_is_true() {
        let mut p = pool();
        let x = p.var("x", 8);
        let k = p.bv_const(Bv::new(8, 1));
        let e = p.add(x, k);
        let e2 = p.add(x, k);
        let same = p.eq(e, e2);
        assert_eq!(p.as_bool_const(same), Some(true));
    }

    #[test]
    fn ult_folds() {
        let mut p = pool();
        let a = p.bv_const(Bv::new(8, 3));
        let b = p.bv_const(Bv::new(8, 9));
        let lt = p.ult(a, b);
        assert_eq!(p.as_bool_const(lt), Some(true));
        let gt = p.ult(b, a);
        assert_eq!(p.as_bool_const(gt), Some(false));
        let x = p.var("x", 8);
        let zero = p.bv_const(Bv::zero(8));
        let ltz = p.ult(x, zero);
        assert_eq!(p.as_bool_const(ltz), Some(false));
    }

    #[test]
    fn resize_extends_and_truncates() {
        let mut p = pool();
        let a = p.bv_const(Bv::new(8, 0xab));
        let wide = p.resize(a, 16);
        assert_eq!(p.as_const(wide), Some(Bv::new(16, 0xab)));
        let narrow = p.resize(a, 4);
        assert_eq!(p.as_const(narrow), Some(Bv::new(4, 0xb)));
    }

    #[test]
    fn ite_folds_on_const_condition() {
        let mut p = pool();
        let x = p.var("x", 8);
        let y = p.var("y", 8);
        let t = p.bool_true();
        let f = p.bool_false();
        let i1 = p.ite(t, x, y);
        assert_eq!(i1, x);
        let i2 = p.ite(f, x, y);
        assert_eq!(i2, y);
        let c = p.eq(x, y);
        let i3 = p.ite(c, x, x);
        assert_eq!(i3, x);
    }

    #[test]
    fn eval_matches_construction() {
        let mut p = pool();
        let x = p.var("x", 8);
        let k = p.bv_const(Bv::new(8, 100));
        let sum = p.add(x, k);
        let cond = p.ugt(sum, k);
        let env = |v: VarId| {
            if p.var_name(v) == "x" {
                Some(Bv::new(8, 1))
            } else {
                None
            }
        };
        assert_eq!(p.eval(sum, &env), Some(EvalValue::Bv(Bv::new(8, 101))));
        assert_eq!(p.eval(cond, &env), Some(EvalValue::Bool(true)));
    }

    #[test]
    fn display_is_readable() {
        let mut p = pool();
        let x = p.var("dstIP", 32);
        let k = p.bv_const(Bv::new(32, 0x0a000001));
        let e = p.eq(x, k);
        let s = p.display(e);
        assert!(s.contains("dstIP"), "{s}");
        assert!(s.contains("=="), "{s}");
    }

    #[test]
    #[should_panic(expected = "redeclared")]
    fn var_width_conflict_panics() {
        let mut p = pool();
        p.var("x", 8);
        p.var("x", 16);
    }

    #[test]
    fn import_rebuilds_structure_across_pools() {
        let mut main = pool();
        let x = main.var("x", 8);
        let y = main.var("y", 8);
        let k = main.bv_const(Bv::new(8, 3));
        let sum = main.add(x, k);
        let e = main.eq(sum, y);
        let lt = main.ult(x, y);
        let top = main.or(e, lt);

        // Worker pool with different id numbering.
        let mut worker = pool();
        worker.var("unrelated", 4);
        let mut cache = HashMap::new();
        let w = worker.import(&main, top, &mut cache);
        // Worker-local operand order of `or` may differ (TermId-sorted),
        // but the pool-independent canonical key must agree.
        assert_eq!(worker.canonical_key(w), main.canonical_key(top));
        // Variables matched by name, not id.
        assert_eq!(worker.var_width(worker.find_var("x").unwrap()), 8);
    }

    #[test]
    fn import_roundtrip_is_identity() {
        // main → worker → main lands on the original TermId: interning is
        // structural and the smart constructors re-canonicalize on the way
        // back. This is what makes parallel output byte-identical.
        let mut main = pool();
        let x = main.var("x", 16);
        let y = main.var("y", 16);
        let k = main.bv_const(Bv::new(16, 0xff));
        let m = main.bv_and(x, k);
        let e1 = main.eq(m, y);
        let e2 = main.ult(y, k);
        let top = main.and(e1, e2);

        let mut worker = pool();
        // Skew the worker's numbering so ids cannot accidentally line up.
        worker.var("z9", 16);
        worker.var("z8", 16);
        let mut fwd = HashMap::new();
        let w = worker.import(&main, top, &mut fwd);
        let mut back = HashMap::new();
        let r = main.import(&worker, w, &mut back);
        assert_eq!(r, top);
    }

    #[test]
    fn import_existing_structure_returns_existing_id() {
        let mut a = pool();
        let x = a.var("x", 8);
        let k = a.bv_const(Bv::new(8, 1));
        let s = a.add(x, k);

        let mut b = pool();
        let bx = b.var("x", 8);
        let bk = b.bv_const(Bv::new(8, 1));
        let bs = b.add(bx, bk);
        let mut cache = HashMap::new();
        assert_eq!(b.import(&a, s, &mut cache), bs);
    }

    #[test]
    fn import_shares_subterms_in_cache() {
        // A deep chain with heavy sharing must not blow up: 40 doublings of
        // a shared subterm is ~2^40 paths if sharing is lost.
        let mut a = pool();
        let mut t = a.var("x", 32);
        for _ in 0..40 {
            t = a.add(t, t); // folds x+x? no: add(t,t) has no a==b rewrite
        }
        let mut b = pool();
        let mut cache = HashMap::new();
        let r = b.import(&a, t, &mut cache);
        assert_eq!(b.width(r), 32);
        assert!(cache.len() <= 42, "sharing preserved, cache={}", cache.len());
    }

    #[test]
    fn canonical_key_is_pool_independent() {
        // Build the same equation with opposite interning orders, so the
        // canonically-sorted (by TermId) operand order differs between
        // pools; the canonical key must not.
        let mut p1 = pool();
        let a1 = p1.var("a", 8);
        let b1 = p1.var("b", 8);
        let e1 = p1.eq(a1, b1);

        let mut p2 = pool();
        let b2 = p2.var("b", 8);
        let a2 = p2.var("a", 8);
        let e2 = p2.eq(a2, b2);

        assert_eq!(p1.canonical_key(e1), p2.canonical_key(e2));

        let f1 = p1.ult(a1, b1);
        let c1 = p1.and(e1, f1);
        let f2 = p2.ult(a2, b2);
        let c2 = p2.and(e2, f2);
        assert_eq!(p1.canonical_key(c1), p2.canonical_key(c2));
    }

    #[test]
    fn stored_shape_is_pool_independent() {
        // Commutative operands are ordered by content hash, not TermId, so
        // the *stored* node — and hence the pretty rendering a parallel
        // merge ends up displaying — is identical no matter the interning
        // order or argument order. (canonical_key would hide a flip here;
        // display follows stored order and would not.)
        let mut p1 = pool();
        let x1 = p1.var("x", 16);
        let k1 = p1.bv_const(Bv::new(16, 0x0800));
        let e1 = p1.eq(x1, k1);

        let mut p2 = pool();
        let k2 = p2.bv_const(Bv::new(16, 0x0800));
        let x2 = p2.var("x", 16);
        let e2 = p2.eq(k2, x2);

        assert_eq!(p1.display(e1), p2.display(e2));

        let y1 = p1.var("y", 16);
        let f1 = p1.eq(y1, k1);
        let c1 = p1.and(e1, f1);
        let y2 = p2.var("y", 16);
        let f2 = p2.eq(y2, k2);
        let c2 = p2.and(f2, e2);
        assert_eq!(p1.display(c1), p2.display(c2));
    }
}
