//! SPJU query-log generation.
//!
//! DBShap's value comes from a log with *structure*: families of
//! near-duplicate queries (the paper's `q_inf`/`q1`/`q2`/`q3` differ in one
//! projection or one predicate), join widths from 1 to the full schema, and
//! a mix of selective predicates. The generator produces base queries by
//! random walks on the schema join graph and then emits mutated family
//! members, validating every query to be non-empty on the database.
//!
//! Validation is the only evaluation a query gets: each candidate is
//! evaluated once, and an accepted one leaves the generator together with
//! that result. [`generate_query_log`] drops the results as it goes; the
//! dataset builder ([`crate::Dataset::build_with_store`]) keeps them for
//! its records and runs only the Shapley ground truth afterwards.

use ls_relational::{
    evaluate, to_sql, CmpOp, ColRef, Database, JoinCond, Query, QueryResult, Selection, SpjBlock,
    TableRef, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Schema description driving the generator.
#[derive(Debug, Clone)]
pub struct SchemaSpec {
    /// Human-readable database name ("IMDB", "Academic").
    pub name: &'static str,
    /// Joinable column pairs `(t1, c1, t2, c2)`.
    pub joins: Vec<(&'static str, &'static str, &'static str, &'static str)>,
    /// Columns eligible for projection.
    pub projectable: Vec<(&'static str, &'static str)>,
    /// String columns eligible for `=` / `LIKE 'p%'` selections.
    pub selectable_str: Vec<(&'static str, &'static str)>,
    /// Integer columns eligible for comparison selections.
    pub selectable_int: Vec<(&'static str, &'static str)>,
}

/// The IMDB-like schema graph.
pub fn imdb_spec() -> SchemaSpec {
    SchemaSpec {
        name: "IMDB",
        joins: vec![
            ("movies", "title", "roles", "movie"),
            ("actors", "name", "roles", "actor"),
            ("movies", "company", "companies", "name"),
        ],
        projectable: vec![
            ("movies", "title"),
            ("movies", "year"),
            ("actors", "name"),
            ("actors", "age"),
            ("companies", "name"),
            ("companies", "country"),
        ],
        selectable_str: vec![
            ("companies", "country"),
            ("actors", "name"),
            ("movies", "company"),
        ],
        selectable_int: vec![("movies", "year"), ("actors", "age")],
    }
}

/// The Academic-like schema graph.
pub fn academic_spec() -> SchemaSpec {
    SchemaSpec {
        name: "Academic",
        joins: vec![
            ("author", "name", "writes", "author"),
            ("writes", "pub", "publication", "title"),
            ("publication", "conf", "conference", "name"),
            ("conference", "name", "domain_conference", "conf"),
            ("domain_conference", "domain", "domain", "name"),
            ("author", "org", "organization", "name"),
        ],
        projectable: vec![
            ("author", "name"),
            ("organization", "name"),
            ("publication", "title"),
            ("publication", "year"),
            ("conference", "name"),
            ("domain", "name"),
        ],
        selectable_str: vec![
            ("author", "org"),
            ("author", "name"),
            ("domain", "name"),
            ("publication", "conf"),
        ],
        selectable_int: vec![
            ("publication", "year"),
            ("author", "paper_count"),
            ("author", "citation_count"),
        ],
    }
}

/// Generator knobs.
#[derive(Debug, Clone, Copy)]
pub struct QueryGenConfig {
    /// Total queries to emit.
    pub num_queries: usize,
    /// Maximum join width of any block.
    pub max_join_width: usize,
    /// Probability that a base query is a UNION of two blocks.
    pub union_prob: f64,
    /// Family members derived from each base query by mutation.
    pub mutations_per_base: usize,
    /// Adversarially wide fanout queries seeded at the head of the log (the
    /// `--wide-joins` knob). Each one multi-joins a fanout table against
    /// itself with the arms partitioned into *disjoint* value ranges, so the
    /// clauses of one output tuple are pairwise incomparable and absorption
    /// cannot collapse the lineage — derivation counts grow as the product of
    /// the per-arm fanouts.
    pub wide_joins: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            num_queries: 40,
            max_join_width: 5,
            union_prob: 0.12,
            mutations_per_base: 3,
            wide_joins: 0,
            seed: 7,
        }
    }
}

/// Generate a validated (non-empty-result, deduplicated) query log.
pub fn generate_query_log(db: &Database, spec: &SchemaSpec, cfg: &QueryGenConfig) -> Vec<Query> {
    let mut log = Vec::new();
    generate_log(db, spec, cfg, |q, _| log.push(q));
    log
}

/// The generator behind [`generate_query_log`]: every candidate is
/// evaluated once, and each accepted query goes to `sink` together with the
/// result it was validated with, in log order. The dataset builder keeps
/// those results; [`generate_query_log`] drops each at once.
pub(crate) fn generate_log(
    db: &Database,
    spec: &SchemaSpec,
    cfg: &QueryGenConfig,
    sink: impl FnMut(Query, QueryResult),
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut log = Accept {
        cap: cfg.num_queries,
        len: 0,
        seen: HashSet::new(),
        seen_semantics: HashSet::new(),
        sink,
    };
    if cfg.wide_joins > 0 {
        for (q, result) in wide_joins(db, spec, cfg.wide_joins, cfg.seed, |r| r) {
            log.offer(q, result);
        }
    }
    let mut attempts = 0usize;
    let attempt_budget = cfg.num_queries * 300;
    while log.len < cfg.num_queries && attempts < attempt_budget {
        attempts += 1;
        let Some((base, result)) = try_base_query(db, spec, cfg, &mut rng) else {
            continue;
        };
        log.offer(base.clone(), result);
        for _ in 0..cfg.mutations_per_base {
            if log.len >= cfg.num_queries {
                break;
            }
            if let Some((mutant, result)) = try_mutate(db, spec, &base, &mut rng) {
                log.offer(mutant, result);
            }
        }
    }
    assert!(
        log.len >= cfg.num_queries.min(4),
        "query generation starved: only {} of {} (db too small?)",
        log.len,
        cfg.num_queries
    );
}

/// The log's acceptance rule: below the cap, SQL not seen before, and a
/// result no earlier query had.
struct Accept<F> {
    cap: usize,
    len: usize,
    seen: HashSet<String>,
    seen_semantics: HashSet<String>,
    sink: F,
}

impl<F: FnMut(Query, QueryResult)> Accept<F> {
    fn offer(&mut self, q: Query, result: QueryResult) {
        if self.len >= self.cap || !self.seen.insert(to_sql(&q)) {
            return;
        }
        // Semantic signature: output tuples plus their provenance. Two
        // queries with identical signatures are indistinguishable to every
        // downstream consumer (same witnesses, same lineages, same Shapley
        // values) — a mutation that only toggles DISTINCT or adds a vacuous
        // predicate would otherwise let log-lookup baselines memorize the
        // test set.
        let mut sig = String::new();
        for t in &result.tuples {
            sig.push_str(&t.value_string());
            for m in &t.derivations {
                sig.push_str(&m.to_string());
            }
            sig.push(';');
        }
        if self.seen_semantics.insert(sig) {
            self.len += 1;
            (self.sink)(q, result);
        }
    }
}

/// `q` with its result, if it evaluates to a non-empty one.
fn validated(db: &Database, q: Query) -> Option<(Query, QueryResult)> {
    match evaluate(db, &q) {
        Ok(result) if !result.is_empty() => Some((q, result)),
        _ => None,
    }
}

/// One random base query with its result, or `None` if the draw produced
/// an empty result.
fn try_base_query(
    db: &Database,
    spec: &SchemaSpec,
    cfg: &QueryGenConfig,
    rng: &mut StdRng,
) -> Option<(Query, QueryResult)> {
    let block = random_block(db, spec, cfg, rng)?;
    let query = if rng.gen_bool(cfg.union_prob) {
        // Union with a predicate-mutated sibling of the same projection.
        let mut sibling = block.clone();
        mutate_selections(db, spec, &mut sibling, rng);
        if sibling == block {
            Query::single(block)
        } else {
            Query {
                blocks: vec![block, sibling],
            }
        }
    } else {
        Query::single(block)
    };
    validated(db, query)
}

/// Random connected SPJ block via a walk on the join graph.
fn random_block(
    db: &Database,
    spec: &SchemaSpec,
    cfg: &QueryGenConfig,
    rng: &mut StdRng,
) -> Option<SpjBlock> {
    let width = 1 + rng.gen_range(0..cfg.max_join_width);
    let mut tables: Vec<&str> = Vec::new();
    let mut joins: Vec<JoinCond> = Vec::new();
    // Seed with a random join edge (or a single table when width == 1).
    if width == 1 {
        let (t, _) = spec.projectable[rng.gen_range(0..spec.projectable.len())];
        tables.push(t);
    } else {
        let mut guard = 0;
        while tables.len() < width && guard < 40 {
            guard += 1;
            let candidates: Vec<&(&str, &str, &str, &str)> = spec
                .joins
                .iter()
                .filter(|(t1, _, t2, _)| {
                    tables.is_empty()
                        || (tables.contains(t1) && !tables.contains(t2))
                        || (tables.contains(t2) && !tables.contains(t1))
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            let (t1, c1, t2, c2) = *candidates[rng.gen_range(0..candidates.len())];
            for t in [t1, t2] {
                if !tables.contains(&t) {
                    tables.push(t);
                }
            }
            let cond = JoinCond::new(ColRef::new(t1, c1), ColRef::new(t2, c2));
            if !joins.contains(&cond) {
                joins.push(cond);
            }
        }
    }
    if tables.is_empty() {
        return None;
    }

    // Projection over a chosen table.
    let proj_candidates: Vec<&(&str, &str)> = spec
        .projectable
        .iter()
        .filter(|(t, _)| tables.contains(t))
        .collect();
    let (pt, pc) = *proj_candidates[rng.gen_range(0..proj_candidates.len())];

    // 0..=2 selections on the chosen tables.
    let mut selections = Vec::new();
    let n_sel = rng.gen_range(0..=2);
    for _ in 0..n_sel {
        if let Some(s) = random_selection(db, spec, &tables, rng) {
            if !selections.contains(&s) {
                selections.push(s);
            }
        }
    }

    Some(SpjBlock {
        tables: tables.iter().map(|t| TableRef::plain(*t)).collect(),
        joins,
        selections,
        projection: vec![ColRef::new(pt, pc)],
        distinct: rng.gen_bool(0.6),
    })
}

/// A selection predicate with a literal sampled from actual data (so it is
/// satisfiable by construction).
fn random_selection(
    db: &Database,
    spec: &SchemaSpec,
    tables: &[&str],
    rng: &mut StdRng,
) -> Option<Selection> {
    let use_int = rng.gen_bool(0.5);
    let pool: Vec<&(&str, &str)> = if use_int {
        spec.selectable_int
            .iter()
            .filter(|(t, _)| tables.contains(t))
            .collect()
    } else {
        spec.selectable_str
            .iter()
            .filter(|(t, _)| tables.contains(t))
            .collect()
    };
    if pool.is_empty() {
        return None;
    }
    let (t, c) = *pool[rng.gen_range(0..pool.len())];
    let v = sample_value(db, t, c, rng)?;
    let col = ColRef::new(t, c);
    Some(match v {
        Value::Int(i) => {
            let op =
                [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.gen_range(0..5usize)];
            Selection::Cmp {
                col,
                op,
                lit: Value::Int(i),
            }
        }
        Value::Str(s) => {
            if rng.gen_bool(0.25) {
                let prefix: String = s.chars().take(1).collect();
                Selection::StartsWith { col, prefix }
            } else {
                Selection::Cmp {
                    col,
                    op: CmpOp::Eq,
                    lit: Value::Str(s),
                }
            }
        }
    })
}

/// A value drawn uniformly from the actual rows of `table.col`.
fn sample_value(db: &Database, table: &str, col: &str, rng: &mut StdRng) -> Option<Value> {
    let t = db.table(table)?;
    if t.is_empty() {
        return None;
    }
    let idx = t.schema.col_index(col)?;
    let row = rng.gen_range(0..t.len());
    db.cell(table, row, idx).cloned()
}

/// Mutate a base query into a near-duplicate family member, returned with
/// its result if that is non-empty.
fn try_mutate(
    db: &Database,
    spec: &SchemaSpec,
    base: &Query,
    rng: &mut StdRng,
) -> Option<(Query, QueryResult)> {
    let mut q = base.clone();
    let choice = rng.gen_range(0..3u8);
    match choice {
        // Swap the projection column (the q_inf ↔ q3 mutation).
        0 => {
            for block in &mut q.blocks {
                let tables: Vec<&str> = block.tables.iter().map(|t| t.table.as_str()).collect();
                let candidates: Vec<&(&str, &str)> = spec
                    .projectable
                    .iter()
                    .filter(|(t, _)| tables.contains(t))
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let (pt, pc) = *candidates[rng.gen_range(0..candidates.len())];
                block.projection = vec![ColRef::new(pt, pc)];
            }
        }
        // Perturb the selections (the q_inf ↔ q1 mutation).
        1 => {
            let block = &mut q.blocks[0];
            mutate_selections_inner(db, spec, block, rng);
        }
        // Toggle DISTINCT / flip an integer literal.
        _ => {
            let block = &mut q.blocks[0];
            if block.selections.is_empty() || rng.gen_bool(0.3) {
                block.distinct = !block.distinct;
            } else {
                let i = rng.gen_range(0..block.selections.len());
                if let Selection::Cmp {
                    col,
                    op,
                    lit: Value::Int(v),
                } = block.selections[i].clone()
                {
                    let delta = rng.gen_range(1..5i64);
                    block.selections[i] = Selection::Cmp {
                        col,
                        op,
                        lit: Value::Int(if rng.gen_bool(0.5) {
                            v + delta
                        } else {
                            v - delta
                        }),
                    };
                } else {
                    block.distinct = !block.distinct;
                }
            }
        }
    }
    validated(db, q)
}

fn mutate_selections(db: &Database, spec: &SchemaSpec, block: &mut SpjBlock, rng: &mut StdRng) {
    mutate_selections_inner(db, spec, block, rng);
}

fn mutate_selections_inner(
    db: &Database,
    spec: &SchemaSpec,
    block: &mut SpjBlock,
    rng: &mut StdRng,
) {
    let tables: Vec<&str> = block.tables.iter().map(|t| t.table.as_str()).collect();
    if !block.selections.is_empty() && rng.gen_bool(0.4) {
        let i = rng.gen_range(0..block.selections.len());
        block.selections.remove(i);
    } else if let Some(s) = random_selection(db, spec, &tables, rng) {
        if !block.selections.contains(&s) {
            block.selections.push(s);
        }
    }
}

/// Generate adversarially wide fanout queries, widest lineage first.
///
/// For every join edge `(anchor.ac = fan.fc)` of the schema, the generator
/// builds self-join queries `FROM anchor, fan w1, ..., fan wk` where each arm
/// `wi` joins back to the anchor and is restricted to a *disjoint* range of a
/// partition column (a fanout-table column other than the join column), with
/// range pivots drawn from the sorted distinct data values. Disjointness is
/// what makes the queries adversarial: a naive unpartitioned self-join emits
/// the diagonal row `w1 = w2`, whose short clause absorbs every wider one and
/// the lineage minimizes back to the single-arm shape. With disjoint pools no
/// clause contains another, so each output tuple keeps `∏ᵢ |poolᵢ|`
/// derivations of `k + 1` facts each.
///
/// Candidates are scored by the widest lineage they actually produce on `db`
/// and returned in descending order (SQL text breaks ties), so the result is
/// deterministic for a given `(db, spec, seed)`.
pub fn generate_wide_join_log(
    db: &Database,
    spec: &SchemaSpec,
    num_queries: usize,
    seed: u64,
) -> Vec<Query> {
    wide_joins(db, spec, num_queries, seed, drop)
        .into_iter()
        .map(|(q, ())| q)
        .collect()
}

/// The `num_queries` widest candidates of [`generate_wide_join_log`], in its
/// order, each with what `keep` makes of the result it was scored on. Only
/// the kept candidates' results are held.
fn wide_joins<T>(
    db: &Database,
    spec: &SchemaSpec,
    num_queries: usize,
    seed: u64,
    keep: impl Fn(QueryResult) -> T,
) -> Vec<(Query, T)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x71de_3014);
    let mut seen: HashSet<String> = HashSet::new();
    // Widest first, SQL text breaking ties; SQL is unique, so the order is
    // total and keeping the best `num_queries` as they come is a top-n.
    let mut best: Vec<(usize, String, Query, T)> = Vec::new();
    for &(t1, c1, t2, c2) in &spec.joins {
        // Either side of the edge may be the fanout side; the width score
        // filters out the unique-key orientation.
        for (anchor, ac, fan, fc) in [(t1, c1, t2, c2), (t2, c2, t1, c1)] {
            for arms in 2..=3usize {
                for _ in 0..2 {
                    let Some(q) = wide_join_query(db, spec, anchor, ac, fan, fc, arms, &mut rng)
                    else {
                        continue;
                    };
                    let sql = to_sql(&q);
                    if !seen.insert(sql.clone()) {
                        continue;
                    }
                    let Ok(result) = evaluate(db, &q) else {
                        continue;
                    };
                    let width = result
                        .tuples
                        .iter()
                        .map(|t| t.derivations.len())
                        .max()
                        .unwrap_or(0);
                    if width >= 2 {
                        let at = best
                            .partition_point(|(w, s, ..)| *w > width || (*w == width && *s < sql));
                        if at < num_queries {
                            best.insert(at, (width, sql, q, keep(result)));
                            best.truncate(num_queries);
                        }
                    }
                }
            }
        }
    }
    best.into_iter().map(|(_, _, q, kept)| (q, kept)).collect()
}

/// One wide-join candidate: `arms` aliased copies of `fan`, each joined to
/// `anchor` on the edge and confined to its own partition-column range.
#[allow(clippy::too_many_arguments)]
fn wide_join_query(
    db: &Database,
    spec: &SchemaSpec,
    anchor: &str,
    ac: &str,
    fan: &str,
    fc: &str,
    arms: usize,
    rng: &mut StdRng,
) -> Option<Query> {
    let fan_table = db.table(fan)?;
    // Partition on any fanout-table column that is not the join column — the
    // algebra only compares columns against literals, so disjointness has to
    // come from ranges over data values, not `w1.x <> w2.x`.
    let pcol = fan_table
        .schema
        .columns
        .iter()
        .map(|c| c.name.as_str())
        .find(|&n| n != fc)?;
    let pidx = fan_table.schema.col_index(pcol)?;
    let mut vals: Vec<Value> = (0..fan_table.len())
        .filter_map(|r| db.cell(fan, r, pidx).cloned())
        .collect();
    vals.sort();
    vals.dedup();
    if vals.len() < arms * 2 {
        return None;
    }
    // Quantile pivots with a little seed jitter so repeated calls explore
    // different cut points; arms then cover [.., p1), [p1, p2), ..., [pk, ..].
    let stride = vals.len() / arms;
    let mut pivots: Vec<Value> = Vec::with_capacity(arms - 1);
    for i in 1..arms {
        let jitter = rng.gen_range(0..=(stride / 2).max(1)) as i64 - (stride / 4) as i64;
        let idx = ((i * stride) as i64 + jitter).clamp(1, vals.len() as i64 - 1) as usize;
        pivots.push(vals[idx].clone());
    }
    if pivots.windows(2).any(|w| w[0] >= w[1]) {
        return None;
    }

    let mut tables = vec![TableRef::plain(anchor)];
    let mut joins = Vec::new();
    let mut selections = Vec::new();
    for i in 0..arms {
        let alias = format!("w{}", i + 1);
        tables.push(TableRef::aliased(fan, alias.clone()));
        joins.push(JoinCond::new(
            ColRef::new(anchor, ac),
            ColRef::new(alias.clone(), fc),
        ));
        if i > 0 {
            selections.push(Selection::Cmp {
                col: ColRef::new(alias.clone(), pcol),
                op: CmpOp::Ge,
                lit: pivots[i - 1].clone(),
            });
        }
        if i < arms - 1 {
            selections.push(Selection::Cmp {
                col: ColRef::new(alias, pcol),
                op: CmpOp::Lt,
                lit: pivots[i].clone(),
            });
        }
    }
    let projection = spec
        .projectable
        .iter()
        .find(|(t, _)| *t == anchor)
        .map(|&(t, c)| ColRef::new(t, c))
        .unwrap_or_else(|| ColRef::new(anchor, ac));
    Some(Query::single(SpjBlock {
        tables,
        joins,
        selections,
        projection: vec![projection],
        distinct: true,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::academic::{generate_academic, AcademicConfig};
    use crate::imdb::{generate_imdb, ImdbConfig};

    fn small_log(n: usize) -> (Database, Vec<Query>) {
        let db = generate_imdb(&ImdbConfig::default());
        let cfg = QueryGenConfig {
            num_queries: n,
            ..Default::default()
        };
        let log = generate_query_log(&db, &imdb_spec(), &cfg);
        (db, log)
    }

    #[test]
    fn generates_requested_count() {
        let (_, log) = small_log(20);
        assert_eq!(log.len(), 20);
    }

    #[test]
    fn all_queries_nonempty_and_unique() {
        let (db, log) = small_log(20);
        let mut sqls = HashSet::new();
        for q in &log {
            assert!(sqls.insert(to_sql(q)), "duplicate query");
            let res = evaluate(&db, q).unwrap();
            assert!(!res.is_empty());
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let (_, a) = small_log(10);
        let (_, b) = small_log(10);
        assert_eq!(
            a.iter().map(to_sql).collect::<Vec<_>>(),
            b.iter().map(to_sql).collect::<Vec<_>>()
        );
    }

    #[test]
    fn join_widths_vary() {
        let (_, log) = small_log(30);
        let widths: HashSet<usize> = log.iter().map(Query::join_width).collect();
        assert!(widths.len() >= 2, "only widths {widths:?}");
        assert!(widths.iter().all(|&w| (1..=5).contains(&w)));
    }

    #[test]
    fn families_are_syntactically_close() {
        let (_, log) = small_log(24);
        // At least one pair of queries in the log should share most
        // operations (the mutation families).
        let mut best = 0.0f64;
        for i in 0..log.len() {
            for j in (i + 1)..log.len() {
                let s = ls_similarity::syntax_similarity(&log[i], &log[j]);
                if s > best {
                    best = s;
                }
            }
        }
        assert!(best > 0.4, "no near-duplicate family found, best = {best}");
    }

    #[test]
    fn academic_spec_also_generates() {
        let db = generate_academic(&AcademicConfig::default());
        let cfg = QueryGenConfig {
            num_queries: 12,
            seed: 3,
            ..Default::default()
        };
        let log = generate_query_log(&db, &academic_spec(), &cfg);
        assert_eq!(log.len(), 12);
        let max_width = log.iter().map(Query::join_width).max().unwrap();
        assert!(max_width >= 3, "academic joins too shallow: {max_width}");
    }

    /// A cast-heavy IMDB so each movie joins many roles per fanout arm.
    fn fat_cast_db() -> Database {
        generate_imdb(&ImdbConfig {
            movies: 40,
            actors: 30,
            roles_per_movie: 8,
            ..Default::default()
        })
    }

    fn max_derivations(db: &Database, log: &[Query]) -> usize {
        log.iter()
            .map(|q| {
                let r = evaluate(db, q).unwrap();
                r.tuples
                    .iter()
                    .map(|t| t.derivations.len())
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn wide_joins_produce_wide_minimized_lineages() {
        let db = fat_cast_db();
        let wide = generate_wide_join_log(&db, &imdb_spec(), 4, 7);
        assert!(!wide.is_empty(), "no wide-join candidates survived");
        // Disjoint-range arms survive minimization: some output tuple keeps a
        // product-of-fanouts derivation count, well past any single-arm join.
        let width = max_derivations(&db, &wide);
        assert!(width >= 8, "wide-join lineage only {width} clauses");
    }

    #[test]
    fn wide_joins_deterministic_by_seed() {
        let db = fat_cast_db();
        let a = generate_wide_join_log(&db, &imdb_spec(), 4, 7);
        let b = generate_wide_join_log(&db, &imdb_spec(), 4, 7);
        assert_eq!(
            a.iter().map(to_sql).collect::<Vec<_>>(),
            b.iter().map(to_sql).collect::<Vec<_>>()
        );
    }

    #[test]
    fn wide_joins_knob_seeds_the_log() {
        let db = fat_cast_db();
        let cfg = QueryGenConfig {
            num_queries: 10,
            wide_joins: 3,
            ..Default::default()
        };
        let log = generate_query_log(&db, &imdb_spec(), &cfg);
        assert_eq!(log.len(), 10);
        // The seeded queries self-join through aliased fanout arms.
        assert!(
            log.iter().any(|q| to_sql(q).contains(" w1")),
            "no wide-join query in the log"
        );
        // And they are strictly wider than anything the base generator emits.
        let base = generate_query_log(
            &db,
            &imdb_spec(),
            &QueryGenConfig {
                num_queries: 10,
                ..Default::default()
            },
        );
        assert!(max_derivations(&db, &log) >= max_derivations(&db, &base));
    }

    #[test]
    fn unions_appear_with_high_probability_config() {
        let db = generate_imdb(&ImdbConfig::default());
        let cfg = QueryGenConfig {
            num_queries: 20,
            union_prob: 0.9,
            mutations_per_base: 0,
            ..Default::default()
        };
        let log = generate_query_log(&db, &imdb_spec(), &cfg);
        assert!(log.iter().any(Query::is_union), "no unions generated");
    }
}
