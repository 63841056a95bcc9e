//! Property tests for the provenance semirings.
//!
//! Two layers of assurance:
//!
//! 1. **Algebraic laws.** Commutativity/associativity of `add`, associativity
//!    and commutativity of `mult`, the identity elements, annihilation by
//!    zero, and absorption (`a + a·b = a`) are checked *observationally*: two
//!    tags are equal iff `recover_fn(saturate(tag))` agrees. Raw tags may
//!    differ (e.g. `Sum` clause order before minimization) — only the
//!    recovered output is the semantics. Absorption is checked for the two
//!    clause-backed instances; `Counting` is bag arithmetic where
//!    `a + a·b ≠ a` by design, and its documented non-law is pinned here too.
//! 2. **Differential multiplicity.** `Counting` is pinned against a
//!    brute-force odometer evaluator: on every random database and SPJ query,
//!    the tag of each output tuple must equal the number of satisfying base
//!    row combinations.

// The law macro expands one body against every instance; the `.clone()`s are
// required for the `DnfTag`-tagged instances and merely redundant for
// `Counting`'s `u64` tags.
#![allow(clippy::clone_on_copy)]

use ls_relational::{
    evaluate_with, ColRef, ColType, Counting, Database, DnfTag, FactId, JoinCond, MonotoneDnf,
    Provenance, Query, Row, SpjBlock, TableRef, TableSchema, TopKClauses, Value,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Observational equality helpers
// ---------------------------------------------------------------------------

/// Clause sets over a tiny fact domain — the random "programs" the laws are
/// exercised on.
type Clauses = Vec<Vec<u32>>;

fn clauses() -> impl Strategy<Value = Clauses> {
    proptest::collection::vec(proptest::collection::vec(0u32..6, 0..4), 0..4)
}

/// Build a tag from a clause set using only the semiring operations:
/// `Σᵢ Πⱼ tagging_fn(fᵢⱼ)`.
fn tag_from<P: Provenance>(p: &mut P, cs: &Clauses) -> P::Tag {
    let mut sum = p.zero();
    for c in cs {
        let mut prod = p.one();
        for &f in c {
            let lit = p.tagging_fn(FactId(f));
            prod = p.mult(&prod, &lit);
        }
        sum = p.add(sum, prod);
    }
    sum
}

/// The observable value of a clause-backed tag: the recovered clause refs
/// lowered to sorted fact vectors (already canonically ordered by
/// minimization).
fn obs_clauses(arena: &ls_relational::LineageArena, refs: &[ls_relational::MonoRef]) -> Clauses {
    refs.iter()
        .map(|&r| arena.facts(r).iter().map(|f| f.0).collect())
        .collect()
}

fn obs_dnf(p: &mut MonotoneDnf, t: DnfTag) -> Clauses {
    let t = p.saturate(t);
    let refs = p.recover_fn(&t);
    obs_clauses(p.arena(), &refs)
}

fn obs_topk(p: &mut TopKClauses, t: DnfTag) -> Clauses {
    let t = p.saturate(t);
    let refs = p.recover_fn(&t);
    obs_clauses(p.arena(), &refs)
}

/// Run `law` on the two clause-backed instances plus `Counting`, asserting
/// the observable outputs of both sides agree. `law` builds both sides from
/// the same instance so arena refs stay comparable.
macro_rules! law_all_instances {
    ($p:ident => $body:block) => {{
        {
            let mut inst = MonotoneDnf::new();
            let (l, r) = {
                let $p = &mut inst;
                $body
            };
            let (l, r) = (obs_dnf(&mut inst, l), obs_dnf(&mut inst, r));
            prop_assert_eq!(l, r, "MonotoneDnf");
        }
        {
            let mut inst = Counting;
            let (l, r) = {
                let $p = &mut inst;
                $body
            };
            prop_assert_eq!(inst.recover_fn(&l), inst.recover_fn(&r), "Counting");
        }
        for k in [1usize, 2, 8] {
            let mut inst = TopKClauses::new(k);
            let (l, r) = {
                let $p = &mut inst;
                $body
            };
            let (l, r) = (obs_topk(&mut inst, l), obs_topk(&mut inst, r));
            prop_assert_eq!(l, r, "TopKClauses(k={})", k);
        }
    }};
}

proptest! {
    /// `a + b = b + a` in every instance.
    #[test]
    fn add_is_commutative(a in clauses(), b in clauses()) {
        law_all_instances!(p => {
            let (ta, tb) = (tag_from(p, &a), tag_from(p, &b));
            let l = Provenance::add(p, ta.clone(), tb.clone());
            let r = Provenance::add(p, tb, ta);
            (l, r)
        });
    }

    /// `(a + b) + c = a + (b + c)` in every instance.
    #[test]
    fn add_is_associative(a in clauses(), b in clauses(), c in clauses()) {
        law_all_instances!(p => {
            let (ta, tb, tc) = (tag_from(p, &a), tag_from(p, &b), tag_from(p, &c));
            let ab = Provenance::add(p, ta.clone(), tb.clone());
            let l = Provenance::add(p, ab, tc.clone());
            let bc = Provenance::add(p, tb, tc);
            let r = Provenance::add(p, ta, bc);
            (l, r)
        });
    }

    /// `a · b = b · a` in every instance.
    #[test]
    fn mult_is_commutative(a in clauses(), b in clauses()) {
        law_all_instances!(p => {
            let (ta, tb) = (tag_from(p, &a), tag_from(p, &b));
            let l = Provenance::mult(p, &ta, &tb);
            let r = Provenance::mult(p, &tb, &ta);
            (l, r)
        });
    }

    /// `(a · b) · c = a · (b · c)` in every instance.
    #[test]
    fn mult_is_associative(a in clauses(), b in clauses(), c in clauses()) {
        law_all_instances!(p => {
            let (ta, tb, tc) = (tag_from(p, &a), tag_from(p, &b), tag_from(p, &c));
            let ab = Provenance::mult(p, &ta, &tb);
            let l = Provenance::mult(p, &ab, &tc);
            let bc = Provenance::mult(p, &tb, &tc);
            let r = Provenance::mult(p, &ta, &bc);
            (l, r)
        });
    }

    /// `a + 0 = a`, `0 + a = a`, `a · 1 = a`, `1 · a = a`, `0 · a = 0`.
    #[test]
    fn identities_and_annihilation(a in clauses()) {
        law_all_instances!(p => {
            let ta = tag_from(p, &a);
            let zero = Provenance::zero(p);
            let l = Provenance::add(p, ta.clone(), zero);
            (l, ta)
        });
        law_all_instances!(p => {
            let ta = tag_from(p, &a);
            let zero = Provenance::zero(p);
            let l = Provenance::add(p, zero, ta.clone());
            (l, ta)
        });
        law_all_instances!(p => {
            let ta = tag_from(p, &a);
            let one = Provenance::one(p);
            let l = Provenance::mult(p, &ta, &one);
            (l, ta)
        });
        law_all_instances!(p => {
            let ta = tag_from(p, &a);
            let one = Provenance::one(p);
            let l = Provenance::mult(p, &one, &ta);
            (l, ta)
        });
        law_all_instances!(p => {
            let ta = tag_from(p, &a);
            let zero = Provenance::zero(p);
            let l = Provenance::mult(p, &zero, &ta);
            let r = Provenance::zero(p);
            (l, r)
        });
    }

    /// Absorption `a + a·b = a` holds in the two clause-backed instances
    /// (their saturation is DNF minimization, which drops subsumed clauses).
    #[test]
    fn absorption_in_clause_instances(a in clauses(), b in clauses()) {
        // Absorption only makes sense for a non-trivial absorber: an empty
        // clause set is zero and the law degenerates to the zero identity.
        {
            let mut p = MonotoneDnf::new();
            let (ta, tb) = (tag_from(&mut p, &a), tag_from(&mut p, &b));
            let ab = p.mult(&ta, &tb);
            let l = p.add(ta.clone(), ab);
            prop_assert_eq!(obs_dnf(&mut p, l), obs_dnf(&mut p, ta));
        }
        for k in [2usize, 8] {
            let mut p = TopKClauses::new(k);
            let (ta, tb) = (tag_from(&mut p, &a), tag_from(&mut p, &b));
            let ab = p.mult(&ta, &tb);
            let l = p.add(ta.clone(), ab);
            prop_assert_eq!(obs_topk(&mut p, l), obs_topk(&mut p, ta), "k={}", k);
        }
    }

    /// Saturation is idempotent in every instance: a second pass is a no-op.
    #[test]
    fn saturate_is_idempotent(a in clauses()) {
        law_all_instances!(p => {
            let ta = tag_from(p, &a);
            let once = Provenance::saturate(p, ta);
            let twice = Provenance::saturate(p, once.clone());
            (once, twice)
        });
    }
}

/// `Counting` deliberately breaks absorption — it is bag arithmetic, not
/// clause algebra. Pin the non-law so a future "optimization" can't silently
/// start absorbing counts.
#[test]
fn counting_documents_absorption_non_law() {
    let mut c = Counting;
    let (a, b) = (2u64, 3u64);
    let ab = c.mult(&a, &b);
    assert_eq!(c.add(a, ab), 8, "2 + 2·3 must stay 8 in bag semantics");
}

// ---------------------------------------------------------------------------
// Differential multiplicity: Counting vs brute-force odometer
// ---------------------------------------------------------------------------

/// Brute-force bag semantics: for each output tuple, the number of base row
/// combinations (per block, summed over blocks) that produce it.
fn naive_multiplicity(db: &Database, q: &Query) -> BTreeMap<Vec<Value>, u64> {
    let mut counts: BTreeMap<Vec<Value>, u64> = BTreeMap::new();
    for block in &q.blocks {
        let alias_rows: Vec<(&str, Vec<Row>)> = block
            .tables
            .iter()
            .map(|t| (t.alias.as_str(), db.decoded_rows(&t.table).collect()))
            .collect();
        if alias_rows.iter().any(|(_, rows)| rows.is_empty()) {
            continue;
        }
        let cell = |combo: &[usize], c: &ColRef| -> Value {
            let (pos, (_, rows)) = alias_rows
                .iter()
                .enumerate()
                .find(|(_, (a, _))| *a == c.table)
                .expect("alias in scope");
            let table = block.table_of_alias(&c.table).expect("alias resolves");
            let ci = db
                .table(table)
                .and_then(|t| t.schema.col_index(&c.column))
                .expect("column exists");
            rows[combo[pos]].values[ci].clone()
        };
        let mut combo = vec![0usize; alias_rows.len()];
        'product: loop {
            let joins_ok = block
                .joins
                .iter()
                .all(|j| cell(&combo, &j.left) == cell(&combo, &j.right));
            let sels_ok = block
                .selections
                .iter()
                .all(|s| s.matches(&cell(&combo, s.col())));
            if joins_ok && sels_ok {
                let values: Vec<Value> = block.projection.iter().map(|c| cell(&combo, c)).collect();
                *counts.entry(values).or_insert(0) += 1;
            }
            let mut pos = 0;
            loop {
                combo[pos] += 1;
                if combo[pos] < alias_rows[pos].1.len() {
                    break;
                }
                combo[pos] = 0;
                pos += 1;
                if pos == combo.len() {
                    break 'product;
                }
            }
        }
    }
    counts
}

type DbRows = Vec<Vec<(i64, String)>>;

fn small_str() -> impl Strategy<Value = String> {
    prop_oneof![Just("a"), Just("b"), Just("ab")].prop_map(str::to_owned)
}

fn db_rows() -> impl Strategy<Value = DbRows> {
    proptest::collection::vec(
        proptest::collection::vec((0i64..3, small_str()), 0..5),
        2..=2,
    )
}

fn build_db(rows: &DbRows) -> Database {
    let mut db = Database::new();
    for (ti, trows) in rows.iter().enumerate() {
        let name = format!("t{ti}");
        db.create_table(TableSchema::new(
            &name,
            &[("k", ColType::Int), ("s", ColType::Str)],
        ));
        for (k, s) in trows {
            db.insert(&name, vec![Value::Int(*k), Value::Str(s.clone())]);
        }
    }
    db
}

fn col_name() -> impl Strategy<Value = String> {
    prop_oneof![Just("k"), Just("s")].prop_map(str::to_owned)
}

/// A random SPJ block over the fixed two-table schema — joins, selections,
/// and possibly a duplicate-preserving projection (no DISTINCT: multiplicity
/// is the point).
fn spj_block() -> impl Strategy<Value = SpjBlock> {
    (proptest::collection::vec(0usize..2, 1..3), any::<bool>()).prop_flat_map(
        |(mut tids, distinct)| {
            tids.sort_unstable();
            tids.dedup();
            let tables: Vec<String> = tids.iter().map(|i| format!("t{i}")).collect();
            let n = tables.len();
            let trefs: Vec<TableRef> = tables.iter().map(TableRef::plain).collect();
            let t2 = tables.clone();
            let t3 = tables.clone();
            let proj = (0..n, col_name()).prop_map(move |(t, c)| ColRef::new(t2[t].clone(), c));
            let joins = if n < 2 {
                Just(Vec::new()).boxed()
            } else {
                proptest::collection::vec(
                    (col_name(), col_name()).prop_map(move |(ca, cb)| {
                        JoinCond::new(
                            ColRef::new(t3[0].clone(), ca),
                            ColRef::new(t3[1].clone(), cb),
                        )
                    }),
                    0..2,
                )
                .boxed()
            };
            (proj, joins).prop_map(move |(projection, joins)| SpjBlock {
                tables: trefs.clone(),
                joins,
                selections: Vec::new(),
                projection: vec![projection],
                distinct,
            })
        },
    )
}

proptest! {
    /// The `Counting` semiring computes exactly the brute-force multiplicity
    /// of every output tuple, on every random database and query.
    #[test]
    fn counting_matches_bruteforce_multiplicity(rows in db_rows(), block in spj_block()) {
        let q = Query::single(block);
        let db = build_db(&rows);
        let mut prov = Counting;
        let result = evaluate_with(&db, &q, &mut prov).expect("well-formed query");
        let reference = naive_multiplicity(&db, &q);
        prop_assert_eq!(result.len(), reference.len(), "tuple counts differ");
        let dict = db.dict();
        for (row, count) in &result {
            let values = dict.decode_row(row.as_slice());
            prop_assert_eq!(reference.get(&values), Some(count),
                "multiplicity mismatch for {:?}", values);
        }
    }
}
