//! Provenance semirings: the pluggable tag algebra of the evaluator.
//!
//! The evaluator ([`crate::eval::evaluate_with`]) is written once against the
//! [`Provenance`] trait and threads an opaque `Tag` through scans, joins,
//! selections, unions and the final group-by. An instance decides what a tag
//! *is*: a hash-consed monotone-DNF clause set ([`MonotoneDnf`], the default),
//! a natural-number multiplicity ([`Counting`]), or a width-bounded clause
//! set ([`TopKClauses`]). Adding a semiring requires zero changes to the
//! evaluator — implement the trait and instantiate `evaluate_with`.
//!
//! The shape follows Scallop's provenance framework (see the
//! `top_bottom_k_clauses` provenance in SNIPPETS.md): `tagging_fn` lifts an
//! input fact into a tag, `mult`/`add` combine tags along joins and unions,
//! `saturate` is the absorption/normalization hook (monotone-DNF minimization
//! lives here, not in the evaluator), and `recover_fn` lowers a tag into the
//! instance's output domain at the result boundary.

use crate::arena::{LineageArena, MonoRef};
use crate::fact::FactId;

/// A provenance semiring: the algebra the evaluator threads through a query.
///
/// Laws (checked by `tests/semiring_props.rs` up to observational equality —
/// two tags are equivalent when `recover_fn(saturate(·))` agrees):
///
/// * `add` and `mult` are associative; `add` is commutative,
/// * `zero` is the identity of `add` and annihilates under `mult`,
/// * `one` is the identity of `mult`,
/// * `saturate` is idempotent and preserves the recovered value.
///
/// `mult` for the clause-based instances is commutative only up to clause
/// *order*; absorption (`a + a·b = a`) holds for the clause instances
/// (`MonotoneDnf`, `TopKClauses`) but deliberately **not** for
/// [`Counting`], which tracks multiplicity rather than possibility.
///
/// Methods take `&mut self` because instances may own interning state (the
/// [`LineageArena`] behind the clause instances).
pub trait Provenance {
    /// The annotation threaded through evaluation.
    type Tag: Clone + std::fmt::Debug;
    /// What `recover_fn` lowers a tag into at the result boundary.
    type Output;

    /// Instance name for telemetry and bench labels.
    fn name(&self) -> &'static str;

    /// The additive identity (provenance of "no derivation").
    fn zero(&mut self) -> Self::Tag;

    /// The multiplicative identity (provenance of "derived from nothing").
    fn one(&mut self) -> Self::Tag;

    /// Lift an input fact into a tag (Scallop's `tagging_fn`).
    fn tagging_fn(&mut self, f: FactId) -> Self::Tag;

    /// Combine tags of joined rows (alternative use of the same facts).
    fn mult(&mut self, a: &Self::Tag, b: &Self::Tag) -> Self::Tag;

    /// Combine tags of alternative derivations of the same output tuple.
    fn add(&mut self, a: Self::Tag, b: Self::Tag) -> Self::Tag;

    /// Normalize a tag at the result boundary: absorption for DNF instances,
    /// truncation for bounded instances. Default: identity.
    fn saturate(&mut self, t: Self::Tag) -> Self::Tag {
        t
    }

    /// Lower a tag into the output domain.
    fn recover_fn(&self, t: &Self::Tag) -> Self::Output;

    /// Size of a tag for telemetry (clauses in a DNF; 1 for scalar tags).
    fn tag_size(&self, _t: &Self::Tag) -> usize {
        1
    }

    /// Publish instance-level metrics (arena occupancy, truncation counts)
    /// once per evaluation. Called by the evaluator when telemetry is on.
    fn report_metrics(&self) {}
}

/// A monotone-DNF tag: one clause, or a sum of clauses, as refs into the
/// owning instance's [`LineageArena`].
///
/// The single-clause case — the overwhelmingly common one-derivation-per-row
/// path through scans and joins — stays allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnfTag {
    /// A single conjunctive clause.
    Clause(MonoRef),
    /// A disjunction of clauses, in accumulation order until saturated.
    Sum(Vec<MonoRef>),
}

impl DnfTag {
    /// The clauses of this tag, by value.
    fn into_clauses(self) -> Vec<MonoRef> {
        match self {
            DnfTag::Clause(m) => vec![m],
            DnfTag::Sum(v) => v,
        }
    }

    /// The clauses of this tag, as a slice.
    pub fn clauses(&self) -> &[MonoRef] {
        match self {
            DnfTag::Clause(m) => std::slice::from_ref(m),
            DnfTag::Sum(v) => v,
        }
    }
}

/// The default instance: hash-consed monotone-DNF Boolean provenance,
/// bit-identical to the pre-semiring evaluator.
///
/// `mult` is the arena's memoized sorted-merge conjunction, `add` concatenates
/// clause lists in derivation order, and `saturate` runs the arena's
/// absorption minimizer — exactly the `minimize` call the old evaluator made
/// per multi-derivation tuple, now an instance method.
#[derive(Debug, Default)]
pub struct MonotoneDnf {
    arena: LineageArena,
}

impl MonotoneDnf {
    /// A fresh instance with an empty arena.
    pub fn new() -> Self {
        MonotoneDnf {
            arena: LineageArena::new(),
        }
    }

    /// The underlying arena (for decoding clauses of recovered tags).
    pub fn arena(&self) -> &LineageArena {
        &self.arena
    }

    /// Mutable access to the arena (for memoized decoding).
    pub fn arena_mut(&mut self) -> &mut LineageArena {
        &mut self.arena
    }

    /// Consume the instance, yielding its arena.
    pub fn into_arena(self) -> LineageArena {
        self.arena
    }
}

impl Provenance for MonotoneDnf {
    type Tag = DnfTag;
    type Output = Vec<MonoRef>;

    fn name(&self) -> &'static str {
        "monotone-dnf"
    }

    fn zero(&mut self) -> DnfTag {
        DnfTag::Sum(Vec::new())
    }

    fn one(&mut self) -> DnfTag {
        DnfTag::Clause(self.arena.empty())
    }

    fn tagging_fn(&mut self, f: FactId) -> DnfTag {
        DnfTag::Clause(self.arena.singleton(f))
    }

    fn mult(&mut self, a: &DnfTag, b: &DnfTag) -> DnfTag {
        match (a, b) {
            // The evaluator's join path: clause × clause.
            (DnfTag::Clause(x), DnfTag::Clause(y)) => DnfTag::Clause(self.arena.and(*x, *y)),
            // General distribution (a₁+…)·(b₁+…) = Σ aᵢ·bⱼ.
            _ => {
                let mut out = Vec::with_capacity(a.clauses().len() * b.clauses().len());
                for i in 0..a.clauses().len() {
                    for j in 0..b.clauses().len() {
                        let (x, y) = (a.clauses()[i], b.clauses()[j]);
                        out.push(self.arena.and(x, y));
                    }
                }
                DnfTag::Sum(out)
            }
        }
    }

    fn add(&mut self, a: DnfTag, b: DnfTag) -> DnfTag {
        let mut v = a.into_clauses();
        v.extend(b.into_clauses());
        DnfTag::Sum(v)
    }

    fn saturate(&mut self, t: DnfTag) -> DnfTag {
        match t {
            // A lone clause is already minimal — same fast path the old
            // evaluator took for one-derivation tuples.
            DnfTag::Clause(m) => DnfTag::Clause(m),
            DnfTag::Sum(v) => DnfTag::Sum(self.arena.minimize(v)),
        }
    }

    fn recover_fn(&self, t: &DnfTag) -> Vec<MonoRef> {
        t.clauses().to_vec()
    }

    fn tag_size(&self, t: &DnfTag) -> usize {
        t.clauses().len()
    }

    fn report_metrics(&self) {
        ls_obs::counter("provenance.arena.nodes").add(self.arena.interned_count() as u64);
        ls_obs::counter("provenance.arena.fact_slots").add(self.arena.fact_slots() as u64);
    }
}

/// The counting semiring (ℕ, +, ×): each tag is the number of distinct
/// derivations, i.e. bag-semantics multiplicity.
///
/// Arithmetic saturates at `u64::MAX` instead of wrapping, so adversarial
/// joins degrade to a ceiling rather than a wrong small number. This is the
/// one shipped instance where absorption does **not** hold — `a + a·b ≠ a` —
/// because multiplicities are quantities, not possibilities.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counting;

impl Counting {
    /// A fresh instance (stateless).
    pub fn new() -> Self {
        Counting
    }
}

impl Provenance for Counting {
    type Tag = u64;
    type Output = u64;

    fn name(&self) -> &'static str {
        "counting"
    }

    fn zero(&mut self) -> u64 {
        0
    }

    fn one(&mut self) -> u64 {
        1
    }

    fn tagging_fn(&mut self, _f: FactId) -> u64 {
        1
    }

    fn mult(&mut self, a: &u64, b: &u64) -> u64 {
        a.saturating_mul(*b)
    }

    fn add(&mut self, a: u64, b: u64) -> u64 {
        a.saturating_add(b)
    }

    fn recover_fn(&self, t: &u64) -> u64 {
        *t
    }
}

/// Scallop-style bounded clause set: monotone DNF capped at `k` clauses.
///
/// `add` and `saturate` minimize and keep the `k` smallest clauses in the
/// arena's `(length, content)` order, so lineage width — and with it exact
/// Shapley compilation cost and serve tail latency — is bounded on
/// adversarially wide joins. Truncation is confluent: an absorber sorts at
/// or before its absorbee, so minimization work is never lost to truncation,
/// and a truncated clause is preceded by `k` strictly smaller survivors that
/// would outrank it in any later combination.
#[derive(Debug)]
pub struct TopKClauses {
    dnf: MonotoneDnf,
    k: usize,
    truncations: u64,
    truncated_clauses: u64,
}

impl TopKClauses {
    /// An instance keeping at most `k ≥ 1` clauses per tag.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "TopKClauses requires k >= 1");
        TopKClauses {
            dnf: MonotoneDnf::new(),
            k,
            truncations: 0,
            truncated_clauses: 0,
        }
    }

    /// The clause bound.
    pub fn k(&self) -> usize {
        self.k
    }

    /// How many tags have been truncated so far.
    pub fn truncations(&self) -> u64 {
        self.truncations
    }

    /// How many clauses truncation has dropped so far.
    pub fn truncated_clauses(&self) -> u64 {
        self.truncated_clauses
    }

    /// The underlying arena.
    pub fn arena(&self) -> &LineageArena {
        self.dnf.arena()
    }

    /// Mutable access to the arena (for memoized decoding).
    pub fn arena_mut(&mut self) -> &mut LineageArena {
        self.dnf.arena_mut()
    }

    /// Minimize, then keep the `k` smallest clauses.
    fn prune(&mut self, v: Vec<MonoRef>) -> Vec<MonoRef> {
        let mut v = self.dnf.arena().minimize(v);
        if v.len() > self.k {
            self.truncations += 1;
            self.truncated_clauses += (v.len() - self.k) as u64;
            v.truncate(self.k);
        }
        v
    }
}

impl Provenance for TopKClauses {
    type Tag = DnfTag;
    type Output = Vec<MonoRef>;

    fn name(&self) -> &'static str {
        "top-k-clauses"
    }

    fn zero(&mut self) -> DnfTag {
        self.dnf.zero()
    }

    fn one(&mut self) -> DnfTag {
        self.dnf.one()
    }

    fn tagging_fn(&mut self, f: FactId) -> DnfTag {
        self.dnf.tagging_fn(f)
    }

    fn mult(&mut self, a: &DnfTag, b: &DnfTag) -> DnfTag {
        self.dnf.mult(a, b)
    }

    fn add(&mut self, a: DnfTag, b: DnfTag) -> DnfTag {
        let t = self.dnf.add(a, b);
        // Prune eagerly so accumulation over a wide group-by holds O(k)
        // clauses instead of materializing the full disjunction.
        match t {
            DnfTag::Sum(v) if v.len() > self.k => DnfTag::Sum(self.prune(v)),
            t => t,
        }
    }

    fn saturate(&mut self, t: DnfTag) -> DnfTag {
        match t {
            DnfTag::Clause(m) => DnfTag::Clause(m),
            DnfTag::Sum(v) => DnfTag::Sum(self.prune(v)),
        }
    }

    fn recover_fn(&self, t: &DnfTag) -> Vec<MonoRef> {
        t.clauses().to_vec()
    }

    fn tag_size(&self, t: &DnfTag) -> usize {
        self.dnf.tag_size(t)
    }

    fn report_metrics(&self) {
        self.dnf.report_metrics();
        ls_obs::counter("provenance.topk.truncations").add(self.truncations);
        ls_obs::counter("provenance.topk.truncated_clauses").add(self.truncated_clauses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(ids: &[u32]) -> Vec<FactId> {
        ids.iter().copied().map(FactId).collect()
    }

    #[test]
    fn monotone_dnf_matches_arena_semantics() {
        let mut p = MonotoneDnf::new();
        let a = p.tagging_fn(FactId(1));
        let b = p.tagging_fn(FactId(2));
        let c = p.tagging_fn(FactId(3));
        let ab = p.mult(&a, &b);
        match &ab {
            DnfTag::Clause(r) => assert_eq!(p.arena().facts(*r), fid(&[1, 2]).as_slice()),
            _ => panic!("clause × clause must stay a clause"),
        }
        // (ab + c) saturated: two incomparable clauses survive.
        let sum = p.add(ab.clone(), c.clone());
        let sat = p.saturate(sum);
        let rec = p.recover_fn(&sat);
        let got: Vec<Vec<FactId>> = rec.iter().map(|&r| p.arena().facts(r).to_vec()).collect();
        assert_eq!(got, vec![fid(&[3]), fid(&[1, 2])]);
        // Absorption: ab + a = a.
        let sum2 = p.add(ab, a.clone());
        let sat2 = p.saturate(sum2);
        let rec2 = p.recover_fn(&sat2);
        let got2: Vec<Vec<FactId>> = rec2.iter().map(|&r| p.arena().facts(r).to_vec()).collect();
        assert_eq!(got2, vec![fid(&[1])]);
    }

    #[test]
    fn monotone_dnf_distributes_sums() {
        let mut p = MonotoneDnf::new();
        let a = p.tagging_fn(FactId(1));
        let b = p.tagging_fn(FactId(2));
        let c = p.tagging_fn(FactId(3));
        let ab = p.add(a.clone(), b.clone()); // a + b
        let prod = p.mult(&ab, &c); // (a+b)·c = ac + bc
        let sat = p.saturate(prod);
        let got: Vec<Vec<FactId>> = p
            .recover_fn(&sat)
            .iter()
            .map(|&r| p.arena().facts(r).to_vec())
            .collect();
        assert_eq!(got, vec![fid(&[1, 3]), fid(&[2, 3])]);
    }

    #[test]
    fn monotone_dnf_identities() {
        let mut p = MonotoneDnf::new();
        let a = p.tagging_fn(FactId(7));
        let one = p.one();
        let zero = p.zero();
        // a · 1 = a (same clause ref).
        let a1 = p.mult(&a, &one);
        assert_eq!(a1, a);
        // a + 0 saturates to just a.
        let a0 = p.add(a.clone(), zero);
        let sat = p.saturate(a0);
        assert_eq!(p.recover_fn(&sat), p.recover_fn(&a));
    }

    #[test]
    fn counting_is_bag_arithmetic() {
        let mut c = Counting::new();
        let (a, b) = (c.tagging_fn(FactId(0)), c.tagging_fn(FactId(1)));
        let two = c.add(a, b);
        let six = {
            let three = c.add(two, 1);
            c.mult(&three, &2)
        };
        assert_eq!(six, 6);
        assert_eq!(c.recover_fn(&six), 6);
        // Saturating, not wrapping.
        assert_eq!(c.mult(&u64::MAX, &2), u64::MAX);
        assert_eq!(c.add(u64::MAX, 1), u64::MAX);
        assert_eq!(c.zero(), 0);
        assert_eq!(c.one(), 1);
    }

    #[test]
    fn topk_bounds_clause_count() {
        let mut p = TopKClauses::new(2);
        // Five incomparable clauses; only the two smallest survive.
        let mut acc = p.zero();
        for i in 0..5u32 {
            let t = {
                let a = p.tagging_fn(FactId(2 * i));
                let b = p.tagging_fn(FactId(2 * i + 1));
                p.mult(&a, &b)
            };
            acc = p.add(acc, t);
        }
        let sat = p.saturate(acc);
        let rec = p.recover_fn(&sat);
        assert_eq!(rec.len(), 2);
        let got: Vec<Vec<FactId>> = rec.iter().map(|&r| p.arena().facts(r).to_vec()).collect();
        assert_eq!(got, vec![fid(&[0, 1]), fid(&[2, 3])]);
        assert!(p.truncations() >= 1);
        assert!(p.truncated_clauses() >= 3);
    }

    #[test]
    fn topk_never_truncates_an_absorber() {
        let mut p = TopKClauses::new(1);
        // a + a·b + a·c: the absorber `a` is the shortest clause, so k=1
        // keeps exactly the minimal form.
        let a = p.tagging_fn(FactId(1));
        let b = p.tagging_fn(FactId(2));
        let c = p.tagging_fn(FactId(3));
        let ab = p.mult(&a, &b);
        let ac = p.mult(&a, &c);
        let s1 = p.add(ab, ac);
        let s2 = p.add(s1, a.clone());
        let sat = p.saturate(s2);
        let got: Vec<Vec<FactId>> = p
            .recover_fn(&sat)
            .iter()
            .map(|&r| p.arena().facts(r).to_vec())
            .collect();
        assert_eq!(got, vec![fid(&[1])]);
    }

    #[test]
    fn topk_saturate_is_idempotent() {
        let mut p = TopKClauses::new(2);
        let mut acc = p.zero();
        for i in 0..6u32 {
            let t = p.tagging_fn(FactId(i));
            acc = p.add(acc, t);
        }
        let s1 = p.saturate(acc);
        let s2 = p.saturate(s1.clone());
        assert_eq!(p.recover_fn(&s1), p.recover_fn(&s2));
    }
}
