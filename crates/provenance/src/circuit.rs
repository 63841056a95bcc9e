//! Decision-DNNF circuits and cardinality-resolved model counting.
//!
//! A *decision-DNNF* is a Boolean circuit whose `∧`-nodes are decomposable
//! (children mention disjoint variable sets) and whose `∨`-nodes are decision
//! nodes `(x ∧ hi) ∨ (¬x ∧ lo)` — deterministic by construction. On such
//! circuits, counting satisfying assignments *by the number of true
//! variables* takes polynomial time: polynomial convolution at `∧`-nodes and
//! disjoint sums at decision nodes. That counting primitive is exactly what
//! exact Shapley computation needs (the `k!(n-k-1)!/n!` weights are indexed
//! by coalition size).

use crate::bigint::BigNat;
use ls_relational::FactId;
use std::collections::HashMap;

/// Index of a node in a [`Circuit`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A circuit node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// A positive literal (monotone provenance never needs bare negative
    /// literals; negation only occurs implicitly in decision nodes).
    Leaf(FactId),
    /// Decomposable conjunction: children have pairwise disjoint supports.
    And(Vec<NodeId>),
    /// Decision on `var`: `(var ∧ hi) ∨ (¬var ∧ lo)`.
    Decision {
        /// Decision variable.
        var: FactId,
        /// Branch taken when `var` is true.
        hi: NodeId,
        /// Branch taken when `var` is false.
        lo: NodeId,
    },
    /// Disjunction of children over pairwise-disjoint variable sets.
    ///
    /// Not syntactically deterministic, but exactly countable by
    /// inclusion–exclusion on complements: the *non*-models of the
    /// disjunction are the product of the children's non-models
    /// (`NonSat(z) = Π_j ((1+z)^{n_j} − Sat_j(z))`). This is the standard
    /// closure of d-DNNFs under disjoint `∨` and is what keeps circuits
    /// polynomial on hub-free provenance components.
    DisjointOr(Vec<NodeId>),
}

/// An arena-allocated decision-DNNF with hash-consing and per-node supports.
#[derive(Debug, Default)]
pub struct Circuit {
    nodes: Vec<Node>,
    /// Sorted variable support of each node (vars mentioned at or below it).
    supports: Vec<Vec<FactId>>,
    cons: HashMap<Node, NodeId>,
}

impl Circuit {
    /// An empty circuit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node stored at `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The sorted support of the node at `id`.
    pub fn support(&self, id: NodeId) -> &[FactId] {
        &self.supports[id.index()]
    }

    /// The full arena in allocation order — `NodeId(i)` is `nodes()[i]`.
    /// This is the serialization view: writing nodes in this order and
    /// rebuilding with [`Circuit::from_nodes`] round-trips every `NodeId`.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Rebuild a circuit from an arena-ordered node list, recomputing
    /// supports and the hash-cons table. Unlike the `mk_*` constructors this
    /// performs **no simplification**, so `NodeId`s are preserved exactly —
    /// the property the on-disk circuit format relies on.
    ///
    /// Fails (typed, never panics) on malformed input: forward or
    /// self-referencing child indices, non-decomposable `And`/`DisjointOr`
    /// nodes, or a decision variable occurring in one of its branches.
    pub fn from_nodes(nodes: Vec<Node>) -> Result<Circuit, String> {
        let mut supports: Vec<Vec<FactId>> = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let child_support = |c: NodeId| -> Result<&[FactId], String> {
                if c.index() >= i {
                    return Err(format!("node {i}: child {:?} is not a prior node", c));
                }
                Ok(&supports[c.index()])
            };
            let support = match node {
                Node::True | Node::False => Vec::new(),
                Node::Leaf(v) => vec![*v],
                Node::And(ch) | Node::DisjointOr(ch) => {
                    let mut union: Vec<FactId> = Vec::new();
                    for &c in ch {
                        union.extend_from_slice(child_support(c)?);
                    }
                    let before = union.len();
                    union.sort_unstable();
                    union.dedup();
                    if union.len() != before {
                        return Err(format!("node {i}: children share variables"));
                    }
                    union
                }
                Node::Decision { var, hi, lo } => {
                    let mut union = vec![*var];
                    let hi_s = child_support(*hi)?;
                    if hi_s.contains(var) {
                        return Err(format!("node {i}: decision variable in hi branch"));
                    }
                    union.extend_from_slice(hi_s);
                    let lo_s = child_support(*lo)?;
                    if lo_s.contains(var) {
                        return Err(format!("node {i}: decision variable in lo branch"));
                    }
                    union.extend_from_slice(lo_s);
                    union.sort_unstable();
                    union.dedup();
                    union
                }
            };
            supports.push(support);
        }
        let cons = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), NodeId(i as u32)))
            .collect();
        Ok(Circuit {
            nodes,
            supports,
            cons,
        })
    }

    fn intern(&mut self, node: Node, support: Vec<FactId>) -> NodeId {
        if let Some(&id) = self.cons.get(&node) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.cons.insert(node.clone(), id);
        self.nodes.push(node);
        self.supports.push(support);
        id
    }

    /// The constant-true node.
    pub fn mk_true(&mut self) -> NodeId {
        self.intern(Node::True, Vec::new())
    }

    /// The constant-false node.
    pub fn mk_false(&mut self) -> NodeId {
        self.intern(Node::False, Vec::new())
    }

    /// A positive literal node.
    pub fn mk_leaf(&mut self, var: FactId) -> NodeId {
        self.intern(Node::Leaf(var), vec![var])
    }

    /// A decomposable conjunction. Constant children are simplified away.
    ///
    /// # Panics
    /// Panics (debug builds) if child supports overlap — that would break the
    /// decomposability invariant counting relies on.
    pub fn mk_and(&mut self, children: Vec<NodeId>) -> NodeId {
        let mut kept = Vec::with_capacity(children.len());
        for c in children {
            match self.node(c) {
                Node::True => {}
                Node::False => return self.mk_false(),
                _ => kept.push(c),
            }
        }
        match kept.len() {
            0 => return self.mk_true(),
            1 => return kept[0],
            _ => {}
        }
        kept.sort_unstable();
        kept.dedup();
        if kept.len() == 1 {
            return kept[0];
        }
        let mut support: Vec<FactId> = Vec::new();
        for &c in &kept {
            support.extend_from_slice(self.support(c));
        }
        let before = support.len();
        support.sort_unstable();
        support.dedup();
        debug_assert_eq!(
            before,
            support.len(),
            "non-decomposable And: children share variables"
        );
        self.intern(Node::And(kept), support)
    }

    /// A decision node `(var ∧ hi) ∨ (¬var ∧ lo)`. If both branches are the
    /// same node the decision is redundant only when `var` does not matter —
    /// we still keep the node (the counting pass accounts for `var` as a free
    /// choice only through the decision), except for the `hi == lo == const`
    /// shortcut.
    ///
    /// # Panics
    /// Panics (debug builds) if either branch already mentions `var`.
    pub fn mk_decision(&mut self, var: FactId, hi: NodeId, lo: NodeId) -> NodeId {
        debug_assert!(
            !self.support(hi).contains(&var) && !self.support(lo).contains(&var),
            "decision variable occurs in a branch"
        );
        if hi == lo {
            if matches!(self.node(hi), Node::True | Node::False) {
                return hi;
            }
            // `var` is irrelevant: both assignments lead to the same
            // sub-function, so the node equals that sub-function.
            return hi;
        }
        let mut support = vec![var];
        support.extend_from_slice(self.support(hi));
        support.extend_from_slice(self.support(lo));
        support.sort_unstable();
        support.dedup();
        self.intern(Node::Decision { var, hi, lo }, support)
    }

    /// A disjunction of sub-functions over pairwise-disjoint variable sets.
    /// Constant children are simplified away.
    ///
    /// # Panics
    /// Panics (debug builds) if child supports overlap.
    pub fn mk_disjoint_or(&mut self, children: Vec<NodeId>) -> NodeId {
        let mut kept = Vec::with_capacity(children.len());
        for c in children {
            match self.node(c) {
                Node::False => {}
                Node::True => return self.mk_true(),
                _ => kept.push(c),
            }
        }
        match kept.len() {
            0 => return self.mk_false(),
            1 => return kept[0],
            _ => {}
        }
        kept.sort_unstable();
        kept.dedup();
        if kept.len() == 1 {
            return kept[0];
        }
        let mut support: Vec<FactId> = Vec::new();
        for &c in &kept {
            support.extend_from_slice(self.support(c));
        }
        let before = support.len();
        support.sort_unstable();
        support.dedup();
        debug_assert_eq!(
            before,
            support.len(),
            "non-disjoint Or: children share variables"
        );
        self.intern(Node::DisjointOr(kept), support)
    }

    /// Evaluate the function at `root` under the assignment given as a sorted
    /// slice of true variables.
    pub fn eval_sorted(&self, root: NodeId, true_vars: &[FactId]) -> bool {
        match self.node(root) {
            Node::True => true,
            Node::False => false,
            Node::Leaf(v) => true_vars.binary_search(v).is_ok(),
            Node::And(ch) => ch.iter().all(|&c| self.eval_sorted(c, true_vars)),
            Node::DisjointOr(ch) => ch.iter().any(|&c| self.eval_sorted(c, true_vars)),
            Node::Decision { var, hi, lo } => {
                if true_vars.binary_search(var).is_ok() {
                    self.eval_sorted(*hi, true_vars)
                } else {
                    self.eval_sorted(*lo, true_vars)
                }
            }
        }
    }

    /// Structural invariant check: every `And` has pairwise disjoint child
    /// supports and every decision variable is absent from its branches.
    pub fn check_invariants(&self, root: NodeId) -> Result<(), String> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            match self.node(id) {
                Node::True | Node::False | Node::Leaf(_) => {}
                Node::And(ch) | Node::DisjointOr(ch) => {
                    let kind = if matches!(self.node(id), Node::And(_)) {
                        "And"
                    } else {
                        "DisjointOr"
                    };
                    let mut union: Vec<FactId> = Vec::new();
                    for &c in ch {
                        union.extend_from_slice(self.support(c));
                        stack.push(c);
                    }
                    let before = union.len();
                    union.sort_unstable();
                    union.dedup();
                    if union.len() != before {
                        return Err(format!("{kind} node {id:?} is not decomposable"));
                    }
                }
                Node::Decision { var, hi, lo } => {
                    if self.support(*hi).contains(var) || self.support(*lo).contains(var) {
                        return Err(format!(
                            "decision node {id:?} repeats its variable in a branch"
                        ));
                    }
                    stack.push(*hi);
                    stack.push(*lo);
                }
            }
        }
        Ok(())
    }

    /// Count satisfying assignments by cardinality over `universe`.
    ///
    /// Returns `counts` with `counts[k]` = number of assignments setting
    /// exactly `k` variables of `universe` to true that satisfy the function
    /// at `root`.
    ///
    /// # Panics
    /// Panics if the root's support is not contained in `universe`.
    pub fn count_by_size(&self, root: NodeId, universe: &[FactId]) -> Vec<BigNat> {
        for v in self.support(root) {
            assert!(
                universe.binary_search(v).is_ok(),
                "support variable {v} missing from universe"
            );
        }
        self.count_base(root, universe.len())
            .counts(self, root, universe.len(), None)
    }

    /// The unconditioned counting pass over the circuit at `root`, for
    /// universes of up to `universe_size` variables: the shared state of
    /// [`Self::count_by_size_based`]. It counts in `u128` up to
    /// [`U128_UNIVERSE_LIMIT`] variables and in [`BigNat`] beyond.
    pub fn count_base(&self, root: NodeId, universe_size: usize) -> CountBase {
        CountBase(if universe_size <= U128_UNIVERSE_LIMIT {
            Regime::U128(self.pass(root, universe_size))
        } else {
            Regime::Big(self.pass(root, universe_size))
        })
    }

    /// [`Self::count_by_size`] of the function conditioned on `var := val`,
    /// over a `universe` that excludes the conditioned variable. Only nodes
    /// whose support mentions that variable are recounted; every other node
    /// reads its count from `base`, which must come from
    /// [`Self::count_base`] on the same root.
    pub fn count_by_size_based(
        &self,
        root: NodeId,
        universe: &[FactId],
        condition: (FactId, bool),
        base: &CountBase,
    ) -> Vec<BigNat> {
        debug_assert!(universe.binary_search(&condition.0).is_err());
        base.counts(self, root, universe.len(), Some(condition))
    }

    /// Total model count over `universe` (sum of the cardinality counts).
    pub fn count_models(&self, root: NodeId, universe: &[FactId]) -> BigNat {
        self.count_by_size(root, universe)
            .into_iter()
            .fold(BigNat::zero(), |acc, c| acc.add(&c))
    }

    fn pass<T: Coeff>(&self, root: NodeId, universe_size: usize) -> Pass<T> {
        let pascal = Pascal::up_to(universe_size + 1);
        let mut memo = HashMap::new();
        self.count_rec(root, None, &mut memo, &pascal, None);
        Pass { memo, pascal }
    }

    /// Counts by cardinality over a universe of `universe_len` variables,
    /// optionally conditioned, reading unconditioned node counts from `pass`.
    fn counts_from<T: Coeff>(
        &self,
        root: NodeId,
        universe_len: usize,
        condition: Option<(FactId, bool)>,
        pass: &Pass<T>,
    ) -> Vec<BigNat> {
        let mut memo = HashMap::new();
        let poly = self.count_rec(root, condition, &mut memo, &pass.pascal, Some(&pass.memo));
        let free = universe_len - self.effective_support_len(root, condition.map(|(v, _)| v));
        let mut out: Vec<BigNat> = mul_fill(&poly, free, &pass.pascal)
            .into_iter()
            .map(Coeff::into_big)
            .collect();
        out.resize(universe_len + 1, BigNat::zero());
        out
    }

    /// The counting recursion: the polynomial `Σ_k count_k · z^k` of the
    /// node's function over its own support (minus a conditioned variable).
    /// With a `base`, nodes whose support does not mention the conditioned
    /// variable (every node, when unconditioned) take their count from it —
    /// the key optimization when counting the same circuit conditioned on
    /// every fact in turn (exact Shapley).
    fn count_rec<T: Coeff>(
        &self,
        id: NodeId,
        condition: Option<(FactId, bool)>,
        memo: &mut HashMap<NodeId, Vec<T>>,
        pascal: &Pascal<T>,
        base: Option<&HashMap<NodeId, Vec<T>>>,
    ) -> Vec<T> {
        if let Some(b) = base {
            if condition.is_none_or(|(cv, _)| self.support(id).binary_search(&cv).is_err()) {
                if let Some(p) = b.get(&id) {
                    return p.clone();
                }
            }
        }
        if let Some(p) = memo.get(&id) {
            return p.clone();
        }
        let cond_var = condition.map(|(v, _)| v);
        let poly = match self.node(id) {
            Node::True => vec![T::one()],
            Node::False => Vec::new(),
            Node::Leaf(v) => match condition {
                Some((cv, val)) if cv == *v => {
                    if val {
                        vec![T::one()]
                    } else {
                        Vec::new()
                    }
                }
                _ => vec![T::zero(), T::one()],
            },
            Node::And(children) => {
                let mut acc = vec![T::one()];
                for &c in children {
                    let p = self.count_rec(c, condition, memo, pascal, base);
                    acc = poly_mul(&acc, &p);
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            Node::DisjointOr(children) => {
                // NonSat(z) = Π_j ((1+z)^{t_j} − Sat_j(z));
                // Sat(z) = (1+z)^{t_self} − NonSat(z).
                let mut non = vec![T::one()];
                for &c in children {
                    let p = self.count_rec(c, condition, memo, pascal, base);
                    let t_c = self.effective_support_len(c, cond_var);
                    non = poly_mul(&non, &complement(&p, pascal.row(t_c)));
                }
                let t_self = self.effective_support_len(id, cond_var);
                complement(&non, pascal.row(t_self))
            }
            Node::Decision { var, hi, lo } => {
                let t_self = self.effective_support_len(id, cond_var);
                match condition {
                    Some((cv, val)) if cv == *var => {
                        let b = if val { *hi } else { *lo };
                        let p = self.count_rec(b, condition, memo, pascal, base);
                        let missing = t_self - self.effective_support_len(b, cond_var);
                        mul_fill(&p, missing, pascal)
                    }
                    _ => {
                        let p_hi = self.count_rec(*hi, condition, memo, pascal, base);
                        let p_lo = self.count_rec(*lo, condition, memo, pascal, base);
                        let miss_hi = t_self - 1 - self.effective_support_len(*hi, cond_var);
                        let miss_lo = t_self - 1 - self.effective_support_len(*lo, cond_var);
                        let mut hi_part = mul_fill(&p_hi, miss_hi, pascal);
                        hi_part.insert(0, T::zero()); // × z for var = true
                        let mut sum = mul_fill(&p_lo, miss_lo, pascal);
                        if sum.len() < hi_part.len() {
                            sum.resize(hi_part.len(), T::zero());
                        }
                        for (s, h) in sum.iter_mut().zip(&hi_part) {
                            s.plus(h);
                        }
                        sum
                    }
                }
            }
        };
        memo.insert(id, poly.clone());
        poly
    }

    /// |support(node) \ {cond var}|.
    fn effective_support_len(&self, id: NodeId, cond_var: Option<FactId>) -> usize {
        let s = self.support(id);
        match cond_var {
            Some(v) if s.binary_search(&v).is_ok() => s.len() - 1,
            _ => s.len(),
        }
    }
}

/// Universe-size cutoff up to which counting runs in exact `u128`
/// arithmetic (all counts ≤ 2^n and all convolution intermediates stay
/// counts, so n ≤ 120 cannot overflow).
pub const U128_UNIVERSE_LIMIT: usize = 120;

/// A coefficient of the counting polynomials. Both instances count exactly;
/// `u128` is the fast one and holds every count of a universe of at most
/// [`U128_UNIVERSE_LIMIT`] variables.
trait Coeff: Clone {
    fn zero() -> Self;
    fn one() -> Self;
    fn is_zero(&self) -> bool;
    /// `self += other`.
    fn plus(&mut self, other: &Self);
    /// `self += a · b`.
    fn plus_product(&mut self, a: &Self, b: &Self);
    /// `self − other`; never negative on a well-formed circuit.
    fn minus(&self, other: &Self) -> Self;
    fn into_big(self) -> BigNat;
}

impl Coeff for u128 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    #[inline]
    fn is_zero(&self) -> bool {
        *self == 0
    }
    #[inline]
    fn plus(&mut self, other: &Self) {
        *self += other;
    }
    #[inline]
    fn plus_product(&mut self, a: &Self, b: &Self) {
        *self += a * b;
    }
    #[inline]
    fn minus(&self, other: &Self) -> Self {
        self - other
    }
    fn into_big(self) -> BigNat {
        BigNat::from_u128(self)
    }
}

impl Coeff for BigNat {
    fn zero() -> Self {
        BigNat::zero()
    }
    fn one() -> Self {
        BigNat::one()
    }
    fn is_zero(&self) -> bool {
        BigNat::is_zero(self)
    }
    fn plus(&mut self, other: &Self) {
        *self = BigNat::add(self, other);
    }
    fn plus_product(&mut self, a: &Self, b: &Self) {
        if !b.is_zero() {
            *self = BigNat::add(self, &a.mul(b));
        }
    }
    fn minus(&self, other: &Self) -> Self {
        self.sub(other)
    }
    fn into_big(self) -> BigNat {
        self
    }
}

/// Polynomial product (coefficients by cardinality). Empty vec = zero.
fn poly_mul<T: Coeff>(a: &[T], b: &[T]) -> Vec<T> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![T::zero(); a.len() + b.len() - 1];
    for (i, ca) in a.iter().enumerate() {
        if ca.is_zero() {
            continue;
        }
        for (j, cb) in b.iter().enumerate() {
            out[i + j].plus_product(ca, cb);
        }
    }
    out
}

/// Multiply by `(1+z)^k` — fills `k` unconstrained variables.
fn mul_fill<T: Coeff>(p: &[T], k: usize, pascal: &Pascal<T>) -> Vec<T> {
    if k == 0 || p.is_empty() {
        return p.to_vec();
    }
    poly_mul(p, pascal.row(k))
}

/// `row(z) − p(z)`: the non-models of `p` given the models `row` of all
/// assignments over the same support.
fn complement<T: Coeff>(p: &[T], row: &[T]) -> Vec<T> {
    let zero = T::zero();
    row.iter()
        .enumerate()
        .map(|(i, r)| r.minus(p.get(i).unwrap_or(&zero)))
        .collect()
}

/// Shared unconditioned counting state for repeated conditioned counts over
/// one circuit (see [`Circuit::count_base`]).
#[derive(Debug)]
pub struct CountBase(Regime);

#[derive(Debug)]
enum Regime {
    U128(Pass<u128>),
    Big(Pass<BigNat>),
}

impl CountBase {
    fn counts(
        &self,
        circuit: &Circuit,
        root: NodeId,
        universe_len: usize,
        condition: Option<(FactId, bool)>,
    ) -> Vec<BigNat> {
        match &self.0 {
            Regime::U128(pass) => circuit.counts_from(root, universe_len, condition, pass),
            Regime::Big(pass) => circuit.counts_from(root, universe_len, condition, pass),
        }
    }
}

/// One unconditioned pass: every visited node's counts, and the Pascal rows
/// it used.
#[derive(Debug)]
struct Pass<T> {
    memo: HashMap<NodeId, Vec<T>>,
    pascal: Pascal<T>,
}

/// Pascal-triangle rows `C(0,·) .. C(n,·)`, by the addition-only recurrence.
#[derive(Debug)]
struct Pascal<T> {
    rows: Vec<Vec<T>>,
}

impl<T: Coeff> Pascal<T> {
    fn up_to(n: usize) -> Self {
        let mut rows: Vec<Vec<T>> = Vec::with_capacity(n + 1);
        rows.push(vec![T::one()]);
        for k in 1..=n {
            let prev = &rows[k - 1];
            let mut row = Vec::with_capacity(k + 1);
            row.push(T::one());
            for i in 1..k {
                let mut c = prev[i - 1].clone();
                c.plus(&prev[i]);
                row.push(c);
            }
            row.push(T::one());
            rows.push(row);
        }
        Pascal { rows }
    }

    /// Row `k`: `[C(k,0), …, C(k,k)]`.
    fn row(&self, k: usize) -> &[T] {
        &self.rows[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn f(i: u32) -> FactId {
        FactId(i)
    }

    /// Build the circuit for x0 ∧ x1 by hand.
    #[test]
    fn and_of_leaves_counts() {
        let mut c = Circuit::new();
        let l0 = c.mk_leaf(f(0));
        let l1 = c.mk_leaf(f(1));
        let root = c.mk_and(vec![l0, l1]);
        let counts = c.count_by_size(root, &[f(0), f(1)]);
        // Only {x0, x1} satisfies: one model of size 2.
        assert_eq!(
            counts.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 0.0, 1.0]
        );
        assert_eq!(c.count_models(root, &[f(0), f(1)]).to_f64(), 1.0);
    }

    /// Decision node for x0 ∨ x1 : decide x0; hi=True, lo=Leaf(x1).
    #[test]
    fn or_via_decision_counts() {
        let mut c = Circuit::new();
        let t = c.mk_true();
        let l1 = c.mk_leaf(f(1));
        let root = c.mk_decision(f(0), t, l1);
        let counts = c.count_by_size(root, &[f(0), f(1)]);
        // Satisfying: {x0}, {x1}, {x0,x1} → sizes 1,1,2.
        assert_eq!(
            counts.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 2.0, 1.0]
        );
    }

    #[test]
    fn universe_fill_counts_free_variables() {
        let mut c = Circuit::new();
        let root = c.mk_leaf(f(0));
        // Universe has an extra free variable x1.
        let counts = c.count_by_size(root, &[f(0), f(1)]);
        // Models: {x0} (size 1), {x0,x1} (size 2).
        assert_eq!(
            counts.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 1.0, 1.0]
        );
    }

    #[test]
    fn conditioning_on_leaf() {
        let mut c = Circuit::new();
        let l0 = c.mk_leaf(f(0));
        let l1 = c.mk_leaf(f(1));
        let root = c.mk_and(vec![l0, l1]);
        let base = c.count_base(root, 2);
        let on = c.count_by_size_based(root, &[f(1)], (f(0), true), &base);
        assert_eq!(
            on.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 1.0]
        );
        let off = c.count_by_size_based(root, &[f(1)], (f(0), false), &base);
        assert_eq!(
            off.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 0.0]
        );
    }

    #[test]
    fn conditioning_on_decision_var() {
        let mut c = Circuit::new();
        let t = c.mk_true();
        let l1 = c.mk_leaf(f(1));
        let root = c.mk_decision(f(0), t, l1); // x0 ∨ x1
        let base = c.count_base(root, 2);
        let on = c.count_by_size_based(root, &[f(1)], (f(0), true), &base);
        // x0=1 → formula true: models over {x1} = {}, {x1}.
        assert_eq!(
            on.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![1.0, 1.0]
        );
        let off = c.count_by_size_based(root, &[f(1)], (f(0), false), &base);
        // x0=0 → formula = x1.
        assert_eq!(
            off.iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![0.0, 1.0]
        );
    }

    #[test]
    fn constants_and_simplification() {
        let mut c = Circuit::new();
        let t = c.mk_true();
        let fls = c.mk_false();
        let l = c.mk_leaf(f(3));
        assert_eq!(c.mk_and(vec![t, l]), l);
        assert_eq!(c.mk_and(vec![fls, l]), fls);
        assert_eq!(c.mk_and(vec![]), t);
        assert_eq!(c.mk_decision(f(9), l, l), l);
        assert_eq!(c.mk_decision(f(9), t, t), t);
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut c = Circuit::new();
        let a = c.mk_leaf(f(1));
        let b = c.mk_leaf(f(1));
        assert_eq!(a, b);
        let l2 = c.mk_leaf(f(2));
        let n1 = c.mk_and(vec![a, l2]);
        let n2 = c.mk_and(vec![l2, b]);
        assert_eq!(n1, n2);
        assert_eq!(c.len(), 3); // two leaves + one And
    }

    #[test]
    fn eval_matches_semantics() {
        let mut c = Circuit::new();
        let t = c.mk_true();
        let l1 = c.mk_leaf(f(1));
        let l2 = c.mk_leaf(f(2));
        let and12 = c.mk_and(vec![l1, l2]);
        let root = c.mk_decision(f(0), t, and12); // x0 ∨ (x1 ∧ x2)
        assert!(c.eval_sorted(root, &[f(0)]));
        assert!(c.eval_sorted(root, &[f(1), f(2)]));
        assert!(!c.eval_sorted(root, &[f(1)]));
        assert!(!c.eval_sorted(root, &[]));
    }

    #[test]
    fn invariants_hold_for_wellformed() {
        let mut c = Circuit::new();
        let t = c.mk_true();
        let l1 = c.mk_leaf(f(1));
        let l2 = c.mk_leaf(f(2));
        let and12 = c.mk_and(vec![l1, l2]);
        let root = c.mk_decision(f(0), t, and12);
        assert!(c.check_invariants(root).is_ok());
    }

    #[test]
    fn binomial_fill_is_exact_for_large_k() {
        // (1+z)^64 total = 2^64, exceeding u64.
        let p = vec![BigNat::one()];
        let pascal = Pascal::up_to(64);
        let filled = mul_fill(&p, 64, &pascal);
        let total = filled.iter().fold(BigNat::zero(), |a, c| a.add(c));
        assert_eq!(total, BigNat::pow2(64));
        // Middle coefficient C(64,32) is correct.
        assert_eq!(filled[32].to_string(), "1832624140942590534");
    }

    #[test]
    fn bignat_slow_path_agrees_beyond_u128_limit() {
        // Universe of 125 free variables + one constrained leaf exceeds the
        // u128 fast-path limit; totals must still be exact powers of two.
        let mut c = Circuit::new();
        let root = c.mk_leaf(f(0));
        let mut universe: Vec<FactId> = vec![f(0)];
        universe.extend((1..126).map(f));
        let total = c.count_models(root, &universe);
        assert_eq!(total, BigNat::pow2(125));
        // And the small-universe fast path gives the same shape.
        let small: Vec<FactId> = (0..10).map(f).collect();
        let total_small = c.count_models(root, &small);
        assert_eq!(total_small, BigNat::pow2(9));
    }

    #[test]
    fn pascal_rows_match_known_values() {
        let b = Pascal::<BigNat>::up_to(10);
        assert_eq!(b.row(10)[5].to_f64(), 252.0);
        assert_eq!(b.row(10)[0].to_f64(), 1.0);
        assert_eq!(b.row(10)[10].to_f64(), 1.0);
        assert_eq!(
            b.row(3).iter().map(BigNat::to_f64).collect::<Vec<_>>(),
            vec![1.0, 3.0, 3.0, 1.0]
        );
    }

    /// A random monotone DNF over `0..n_vars` whose compiled circuit the
    /// two coefficient instances both count.
    fn random_dnf() -> impl Strategy<Value = crate::Dnf> {
        (
            1u32..=120,
            proptest::collection::vec(proptest::collection::vec(any::<u32>(), 1..5), 1..24),
        )
            .prop_map(|(n_vars, clauses)| {
                crate::Dnf::from_monomials(
                    clauses
                        .into_iter()
                        .map(|ids| {
                            ls_relational::Monomial::from_facts(
                                ids.into_iter().map(|i| FactId(i % n_vars)).collect(),
                            )
                        })
                        .collect(),
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The `u128` and `BigNat` instances of the one recursion give the
        /// same counts, unconditioned and conditioned each way, on universes
        /// up to the `u128` limit (padded with free variables to reach it).
        #[test]
        fn u128_and_bignat_instances_agree(d in random_dnf(), pad in 0usize..=120, pick in any::<usize>()) {
            let compiled = crate::compile(&d, crate::CompileOptions::default());
            let (c, root) = (&compiled.circuit, compiled.root);
            let mut universe = d.variables();
            let top = universe.last().map_or(0, |v| v.0 + 1);
            let n = (universe.len() + pad).min(U128_UNIVERSE_LIMIT);
            universe.extend((top..).take(n - universe.len()).map(FactId));
            let small: Pass<u128> = c.pass(root, universe.len());
            let big: Pass<BigNat> = c.pass(root, universe.len());
            prop_assert_eq!(
                c.counts_from(root, universe.len(), None, &small),
                c.counts_from(root, universe.len(), None, &big)
            );
            let var = universe[pick % universe.len()];
            let others = universe.len() - 1;
            for val in [true, false] {
                prop_assert_eq!(
                    c.counts_from(root, others, Some((var, val)), &small),
                    c.counts_from(root, others, Some((var, val)), &big)
                );
            }
        }
    }
}
