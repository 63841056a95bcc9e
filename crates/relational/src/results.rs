//! Monotone-DNF query results: the decoded and interned views.
//!
//! [`evaluate`] / [`evaluate_interned`] are thin instantiations of the
//! semiring-generic evaluator ([`crate::eval::evaluate_with`]) at the default
//! [`MonotoneDnf`] instance. The evaluator computes, for every output tuple,
//! its monotone-DNF Boolean provenance: one [`Monomial`] per derivation,
//! minimized by absorption. The lineage (the paper's `Lineage(D, q, t)`) is
//! the set of facts appearing in at least one derivation.
//!
//! [`evaluate`] decodes the interned result once at the boundary into the
//! classic [`OutputTuple`] view; [`evaluate_interned`] exposes the raw
//! interned form for consumers (Shapley, similarity) that never need decoded
//! values.

use crate::algebra::Query;
use crate::arena::{LineageArena, MonoRef};
use crate::database::Database;
use crate::eval::{evaluate_with, EvalError};
use crate::fact::{FactId, Monomial};
use crate::row::IdRow;
use crate::semiring::{MonotoneDnf, Provenance};
use crate::value::Value;

/// An output tuple with its provenance, decoded to owned [`Value`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputTuple {
    /// Projected values.
    pub values: Vec<Value>,
    /// Minimal DNF provenance: every monomial is one derivation, none is
    /// subsumed by another.
    pub derivations: Vec<Monomial>,
}

impl OutputTuple {
    /// The lineage: all facts appearing in at least one derivation, sorted.
    pub fn lineage(&self) -> Vec<FactId> {
        let mut facts: Vec<FactId> = self
            .derivations
            .iter()
            .flat_map(|m| m.facts().iter().copied())
            .collect();
        facts.sort_unstable();
        facts.dedup();
        facts
    }

    /// Render the projected values as `(v1, v2, …)`.
    pub fn value_string(&self) -> String {
        let parts: Vec<String> = self.values.iter().map(ToString::to_string).collect();
        format!("({})", parts.join(", "))
    }
}

/// An output tuple in interned form: projected value ids plus arena refs to
/// its minimal-DNF derivations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedTuple {
    /// Projected value ids (decode via the database dictionary).
    pub values: IdRow,
    /// Minimal DNF provenance as refs into the result's [`LineageArena`].
    pub derivations: Vec<MonoRef>,
}

/// The interned half of a query result: tuples as [`IdRow`]s with
/// arena-backed provenance.
///
/// Tuples are in the same (decoded-value-sorted) order as
/// [`QueryResult::tuples`]; `tuples[i]` is the interned form of the `i`-th
/// decoded tuple.
#[derive(Debug, Clone)]
pub struct InternedResult {
    /// The hash-consed fact-set arena all `derivations` refs point into.
    pub arena: LineageArena,
    /// Output tuples in decoded-value-sorted order.
    pub tuples: Vec<InternedTuple>,
}

impl InternedResult {
    /// An empty result with a fresh arena.
    pub fn empty() -> Self {
        InternedResult {
            arena: LineageArena::new(),
            tuples: Vec::new(),
        }
    }

    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The interned witness rows (output values only), in result order.
    pub fn witness_ids(&self) -> impl Iterator<Item = &IdRow> {
        self.tuples.iter().map(|t| &t.values)
    }
}

/// The result of evaluating a query: output tuples in deterministic
/// (value-sorted) order, in both decoded and interned form.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output tuples with provenance, sorted by value.
    pub tuples: Vec<OutputTuple>,
    /// The interned form: same tuples as [`IdRow`]s with arena-backed
    /// provenance, for consumers that stay in id space.
    pub interned: InternedResult,
}

/// Results compare by their decoded tuples: the interned side is a cache of
/// the same information (relative to one database) and arenas built by
/// different evaluations may intern in different orders.
impl PartialEq for QueryResult {
    fn eq(&self, other: &Self) -> bool {
        self.tuples == other.tuples
    }
}

impl Eq for QueryResult {}

impl Default for QueryResult {
    fn default() -> Self {
        QueryResult {
            tuples: Vec::new(),
            interned: InternedResult::empty(),
        }
    }
}

impl QueryResult {
    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Find the tuple with the given values.
    ///
    /// Tuples are value-sorted, so this is a binary search rather than a
    /// linear scan.
    pub fn tuple(&self, values: &[Value]) -> Option<&OutputTuple> {
        self.tuples
            .binary_search_by(|t| t.values.as_slice().cmp(values))
            .ok()
            .map(|i| &self.tuples[i])
    }
}

/// Evaluate an SPJU query with provenance tracking, decoding the interned
/// result into owned [`Value`]s and `Arc`-shared [`Monomial`]s.
pub fn evaluate(db: &Database, q: &Query) -> Result<QueryResult, EvalError> {
    let InternedResult {
        mut arena,
        tuples: interned_tuples,
    } = evaluate_interned(db, q)?;
    let dict = db.dict();
    let tuples: Vec<OutputTuple> = interned_tuples
        .iter()
        .map(|t| OutputTuple {
            values: dict.decode_row(t.values.as_slice()),
            derivations: t.derivations.iter().map(|&r| arena.decode(r)).collect(),
        })
        .collect();
    Ok(QueryResult {
        tuples,
        interned: InternedResult {
            arena,
            tuples: interned_tuples,
        },
    })
}

/// Evaluate an SPJU query entirely in interned space, under the default
/// [`MonotoneDnf`] semiring.
///
/// Output tuples are sorted by their *decoded* values (the same deterministic
/// order [`evaluate`] produces), but values stay as [`IdRow`]s and
/// derivations as arena refs — nothing is decoded.
pub fn evaluate_interned(db: &Database, q: &Query) -> Result<InternedResult, EvalError> {
    let mut prov = MonotoneDnf::new();
    let rows = evaluate_with(db, q, &mut prov)?;
    let tuples: Vec<InternedTuple> = rows
        .into_iter()
        .map(|(values, tag)| InternedTuple {
            derivations: prov.recover_fn(&tag),
            values,
        })
        .collect();
    Ok(InternedResult {
        arena: prov.into_arena(),
        tuples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::semiring::{Counting, TopKClauses};
    use crate::sql::parser::parse_query;
    use crate::value::ColType;

    /// The running-example movie database from Figure 1 of the paper
    /// (restricted to the columns the examples use).
    pub(crate) fn figure1_db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "movies",
            &[
                ("title", ColType::Str),
                ("year", ColType::Int),
                ("company", ColType::Str),
            ],
        ));
        db.create_table(TableSchema::new(
            "actors",
            &[("name", ColType::Str), ("age", ColType::Int)],
        ));
        db.create_table(TableSchema::new(
            "companies",
            &[("name", ColType::Str), ("country", ColType::Str)],
        ));
        db.create_table(TableSchema::new(
            "roles",
            &[("actor", ColType::Str), ("movie", ColType::Str)],
        ));
        // movies: m1..m5
        db.insert(
            "movies",
            vec!["Superman".into(), 2007.into(), "Universal".into()],
        );
        db.insert(
            "movies",
            vec!["Batman".into(), 2007.into(), "Universal".into()],
        );
        db.insert(
            "movies",
            vec!["Spiderman".into(), 2007.into(), "Warner".into()],
        );
        db.insert(
            "movies",
            vec!["Aquaman".into(), 2006.into(), "Warner".into()],
        );
        db.insert("movies", vec!["Iceman".into(), 2007.into(), "Sony".into()]);
        // actors: a1..a4
        db.insert("actors", vec!["Alice".into(), 45.into()]);
        db.insert("actors", vec!["Bob".into(), 30.into()]);
        db.insert("actors", vec!["Carol".into(), 38.into()]);
        db.insert("actors", vec!["David".into(), 23.into()]);
        // companies: c1..c3
        db.insert("companies", vec!["Universal".into(), "USA".into()]);
        db.insert("companies", vec!["Warner".into(), "USA".into()]);
        db.insert("companies", vec!["Sony".into(), "Japan".into()]);
        // roles: r1..r7
        db.insert("roles", vec!["Alice".into(), "Superman".into()]);
        db.insert("roles", vec!["Alice".into(), "Batman".into()]);
        db.insert("roles", vec!["Alice".into(), "Spiderman".into()]);
        db.insert("roles", vec!["Bob".into(), "Batman".into()]);
        db.insert("roles", vec!["Carol".into(), "Aquaman".into()]);
        db.insert("roles", vec!["David".into(), "Spiderman".into()]);
        db.insert("roles", vec!["Carol".into(), "Iceman".into()]);
        db
    }

    const Q_INF: &str = "SELECT DISTINCT actors.name \
        FROM movies, actors, companies, roles \
        WHERE movies.title = roles.movie AND actors.name = roles.actor AND \
        movies.company = companies.name AND companies.country = 'USA' AND \
        movies.year = 2007";

    #[test]
    fn running_example_output() {
        let db = figure1_db();
        let q = parse_query(Q_INF).unwrap();
        let res = evaluate(&db, &q).unwrap();
        let names: Vec<String> = res.tuples.iter().map(|t| t.values[0].to_string()).collect();
        assert_eq!(names, vec!["Alice", "Bob", "David"]);
    }

    #[test]
    fn alice_provenance_has_three_derivations() {
        let db = figure1_db();
        let q = parse_query(Q_INF).unwrap();
        let res = evaluate(&db, &q).unwrap();
        let alice = res.tuple(&[Value::from("Alice")]).unwrap();
        // Alice appears via Superman/Universal, Batman/Universal,
        // Spiderman/Warner — three derivations of four facts each.
        assert_eq!(alice.derivations.len(), 3);
        for d in &alice.derivations {
            assert_eq!(d.len(), 4);
        }
        // Lineage: a1, 3 movies, 2 companies, 3 roles = 9 facts.
        assert_eq!(alice.lineage().len(), 9);
    }

    #[test]
    fn interned_result_mirrors_decoded_result() {
        let db = figure1_db();
        let q = parse_query(Q_INF).unwrap();
        let res = evaluate(&db, &q).unwrap();
        let interned = evaluate_interned(&db, &q).unwrap();
        assert_eq!(res.interned.len(), res.len());
        assert_eq!(interned.len(), res.len());
        for (it, t) in interned.tuples.iter().zip(&res.tuples) {
            assert_eq!(db.dict().decode_row(it.values.as_slice()), t.values);
            assert_eq!(it.derivations.len(), t.derivations.len());
            for (&r, m) in it.derivations.iter().zip(&t.derivations) {
                assert_eq!(interned.arena.facts(r), m.facts());
            }
        }
        let wits: Vec<&IdRow> = interned.witness_ids().collect();
        assert_eq!(wits.len(), 3);
    }

    #[test]
    fn counting_semiring_counts_derivations() {
        let db = figure1_db();
        let q = parse_query(Q_INF).unwrap();
        let res = evaluate(&db, &q).unwrap();
        let mut counting = Counting::new();
        let counts = evaluate_with(&db, &q, &mut counting).unwrap();
        // Same tuples in the same order as the DNF evaluation.
        assert_eq!(counts.len(), res.len());
        for ((values, n), t) in counts.iter().zip(&res.tuples) {
            assert_eq!(db.dict().decode_row(values.as_slice()), t.values);
            // Q_INF produces no duplicate-collapsing joins, so multiplicity
            // equals the number of minimal derivations here.
            assert_eq!(*n, t.derivations.len() as u64);
        }
    }

    #[test]
    fn topk_semiring_bounds_derivations() {
        let db = figure1_db();
        let q = parse_query(Q_INF).unwrap();
        let res = evaluate(&db, &q).unwrap();
        let mut topk = TopKClauses::new(2);
        let rows = evaluate_with(&db, &q, &mut topk).unwrap();
        assert_eq!(rows.len(), res.len());
        for ((values, tag), t) in rows.iter().zip(&res.tuples) {
            assert_eq!(db.dict().decode_row(values.as_slice()), t.values);
            let clauses = topk.recover_fn(tag);
            assert!(clauses.len() <= 2);
            assert_eq!(clauses.len(), t.derivations.len().min(2));
        }
        // Alice has three derivations; k = 2 must have truncated.
        assert!(topk.truncations() >= 1);
    }

    #[test]
    fn selection_only_query() {
        let db = figure1_db();
        let q = parse_query("SELECT movies.title FROM movies WHERE movies.year = 2007").unwrap();
        let res = evaluate(&db, &q).unwrap();
        assert_eq!(res.len(), 4);
        for t in &res.tuples {
            assert_eq!(t.derivations.len(), 1);
            assert_eq!(t.derivations[0].len(), 1);
        }
    }

    #[test]
    fn selection_on_absent_literal() {
        let db = figure1_db();
        // 'Nolan' is interned nowhere: `=` short-circuits to empty, `<>`
        // passes every row.
        let q =
            parse_query("SELECT movies.title FROM movies WHERE movies.title = 'Nolan'").unwrap();
        assert!(evaluate(&db, &q).unwrap().is_empty());
        let q2 =
            parse_query("SELECT movies.title FROM movies WHERE movies.title <> 'Nolan'").unwrap();
        assert_eq!(evaluate(&db, &q2).unwrap().len(), 5);
    }

    #[test]
    fn union_merges_provenance() {
        let db = figure1_db();
        let q = parse_query(
            "SELECT movies.title FROM movies WHERE movies.year = 2007 \
             UNION SELECT movies.title FROM movies WHERE movies.company = 'Universal'",
        )
        .unwrap();
        let res = evaluate(&db, &q).unwrap();
        // Superman is in both branches, via the same fact — one derivation.
        let superman = res.tuple(&[Value::from("Superman")]).unwrap();
        assert_eq!(superman.derivations.len(), 1);
        // Aquaman only matches the second branch... no — Aquaman is Warner
        // 2006, so it matches neither. Iceman matches only the first branch.
        assert!(res.tuple(&[Value::from("Iceman")]).is_some());
        assert!(res.tuple(&[Value::from("Aquaman")]).is_none());
    }

    #[test]
    fn union_counts_duplicate_branches() {
        let db = figure1_db();
        // Superman matches both branches: bag multiplicity 2 under Counting,
        // while the DNF view absorbs the duplicate derivation.
        let q = parse_query(
            "SELECT movies.title FROM movies WHERE movies.year = 2007 \
             UNION SELECT movies.title FROM movies WHERE movies.company = 'Universal'",
        )
        .unwrap();
        let mut counting = Counting::new();
        let counts = evaluate_with(&db, &q, &mut counting).unwrap();
        let dict = db.dict();
        let superman = counts
            .iter()
            .find(|(v, _)| dict.decode_row(v.as_slice()) == vec![Value::from("Superman")])
            .unwrap();
        assert_eq!(superman.1, 2);
        let iceman = counts
            .iter()
            .find(|(v, _)| dict.decode_row(v.as_slice()) == vec![Value::from("Iceman")])
            .unwrap();
        assert_eq!(iceman.1, 1);
    }

    #[test]
    fn cross_product_fallback() {
        let db = figure1_db();
        let q = parse_query(
            "SELECT companies.name, actors.name FROM companies, actors \
             WHERE companies.country = 'Japan' AND actors.age > 40",
        )
        .unwrap();
        let res = evaluate(&db, &q).unwrap();
        assert_eq!(res.len(), 1); // Sony × Alice
        assert_eq!(res.tuples[0].derivations[0].len(), 2);
    }

    #[test]
    fn self_join_with_aliases() {
        let db = figure1_db();
        // Pairs of distinct actors playing in the same movie.
        let q = parse_query(
            "SELECT r1.actor, r2.actor FROM roles r1, roles r2 \
             WHERE r1.movie = r2.movie AND r1.actor < 'Bob' AND r2.actor >= 'Bob'",
        )
        .unwrap();
        let res = evaluate(&db, &q).unwrap();
        let pairs: Vec<String> = res.tuples.iter().map(|t| t.value_string()).collect();
        assert_eq!(pairs, vec!["(Alice, Bob)", "(Alice, David)"]);
    }

    #[test]
    fn cyclic_join_conditions_are_applied() {
        let db = figure1_db();
        // Triangle: movies-roles join plus a redundant condition closing a
        // cycle through companies.
        let q = parse_query(
            "SELECT movies.title FROM movies, companies, roles \
             WHERE movies.company = companies.name AND movies.title = roles.movie \
             AND companies.country = 'USA' AND roles.actor = 'Alice' \
             AND companies.name = movies.company",
        )
        .unwrap();
        let res = evaluate(&db, &q).unwrap();
        assert_eq!(res.len(), 3);
    }

    #[test]
    fn empty_result() {
        let db = figure1_db();
        let q = parse_query("SELECT movies.title FROM movies WHERE movies.year = 1999").unwrap();
        let res = evaluate(&db, &q).unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn missing_table_is_error() {
        let db = figure1_db();
        let q = parse_query("SELECT directors.name FROM directors").unwrap();
        assert!(evaluate(&db, &q).is_err());
    }

    #[test]
    fn missing_column_is_error() {
        let db = figure1_db();
        let q = parse_query("SELECT movies.budget FROM movies").unwrap();
        let err = evaluate(&db, &q).unwrap_err();
        assert!(err.message.contains("budget"));
        let q2 = parse_query("SELECT movies.title FROM movies WHERE movies.budget > 3").unwrap();
        assert!(evaluate(&db, &q2).is_err());
    }

    #[test]
    fn query_over_empty_table() {
        let mut db = Database::new();
        db.create_table(crate::schema::TableSchema::new(
            "empty",
            &[("x", crate::value::ColType::Int)],
        ));
        let q = parse_query("SELECT empty.x FROM empty").unwrap();
        let res = evaluate(&db, &q).unwrap();
        assert!(res.is_empty());
        // Joining a non-empty table with an empty one is also empty.
        let db2 = figure1_db();
        let mut db3 = db2.clone();
        db3.create_table(crate::schema::TableSchema::new(
            "nothing",
            &[("title", crate::value::ColType::Str)],
        ));
        let q = parse_query(
            "SELECT movies.title FROM movies, nothing WHERE movies.title = nothing.title",
        )
        .unwrap();
        assert!(evaluate(&db3, &q).unwrap().is_empty());
    }

    #[test]
    fn duplicate_projection_column() {
        let db = figure1_db();
        let q = parse_query("SELECT actors.name, actors.name FROM actors WHERE actors.age > 40")
            .unwrap();
        let res = evaluate(&db, &q).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res.tuples[0].values[0], res.tuples[0].values[1]);
    }

    #[test]
    fn selection_on_join_column() {
        let db = figure1_db();
        // The join column also carries a selection predicate.
        let q = parse_query(
            "SELECT roles.actor FROM movies, roles \
             WHERE movies.title = roles.movie AND movies.title = 'Batman'",
        )
        .unwrap();
        let res = evaluate(&db, &q).unwrap();
        let actors: Vec<String> = res.tuples.iter().map(|t| t.values[0].to_string()).collect();
        assert_eq!(actors, vec!["Alice", "Bob"]);
    }

    #[test]
    fn union_of_three_blocks() {
        let db = figure1_db();
        let q = parse_query(
            "SELECT movies.title FROM movies WHERE movies.year = 2006 \
             UNION SELECT movies.title FROM movies WHERE movies.year = 2007 \
             UNION SELECT movies.title FROM movies WHERE movies.company = 'Sony'",
        )
        .unwrap();
        let res = evaluate(&db, &q).unwrap();
        assert_eq!(res.len(), 5); // all five movies
    }

    #[test]
    fn results_are_value_sorted_and_deterministic() {
        let db = figure1_db();
        let q = parse_query(Q_INF).unwrap();
        let r1 = evaluate(&db, &q).unwrap();
        let r2 = evaluate(&db, &q).unwrap();
        assert_eq!(r1, r2);
        let mut sorted = r1.tuples.clone();
        sorted.sort_by(|a, b| a.values.cmp(&b.values));
        assert_eq!(r1.tuples, sorted);
    }

    #[test]
    fn tuple_lookup_uses_sorted_order() {
        let db = figure1_db();
        let q = parse_query("SELECT movies.title FROM movies").unwrap();
        let res = evaluate(&db, &q).unwrap();
        assert_eq!(res.len(), 5);
        for t in &res.tuples {
            assert_eq!(res.tuple(&t.values).unwrap(), t);
        }
        assert!(res.tuple(&[Value::from("Nolan")]).is_none());
        assert!(res.tuple(&[Value::from("")]).is_none());
    }
}
