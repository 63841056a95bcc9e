//! Seeded inputs. Everything the program receives is a pure function of the
//! benchmark seed; the program itself never sees the seed.
//!
//! The *shape* of each workload's work (lineage sizes, class mix, tier
//! bands) is fixed, and the seed only chooses which queries, tuples and
//! facts fill it. That keeps a run's cost the same at every seed, so runs at
//! different seeds measure the same thing.

use ls_circuit::{CanonicalShape, ShapeKey, SloPolicy};
use ls_core::{
    render_tuple_and_fact_featured, save_model, EncoderKind, FeedbackRecord, LearnShapleyModel,
    Tokenizer,
};
use ls_dbshap::{
    academic_spec, generate_academic, generate_imdb, generate_query_log, generate_wide_join_log,
    imdb_spec, AcademicConfig, ImdbConfig, QueryGenConfig,
};
use ls_provenance::Dnf;
use ls_relational::{evaluate, to_sql, Database, FactId, OutputTuple};
use ls_serve::{ModelBundle, RankRequest};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Sequence-length budget of every model in the benchmark.
pub const MAX_LEN: usize = 64;

/// SplitMix64: the benchmark's only randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A seed for generator `stream` of the run seeded with `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed, stream).next()
}

/// One (query, tuple) pair with its lineage, as evaluation produced it.
pub struct Candidate {
    pub sql: String,
    pub tuple: OutputTuple,
    pub lineage: Vec<FactId>,
    /// Index of the candidate's query in the log (candidates of one query
    /// are contiguous).
    pub query: usize,
}

/// Evaluate `log` and keep, per query, the output tuples the offline
/// dataset would record: an even stride of at most `max_tuples`, lineage
/// between 1 and `max_lineage` facts.
pub fn candidates(
    db: &Database,
    log: &[ls_relational::Query],
    max_tuples: usize,
    max_lineage: usize,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (qi, q) in log.iter().enumerate() {
        let result = evaluate(db, q).expect("generated query evaluates");
        let n = result.tuples.len();
        if n == 0 {
            continue;
        }
        let sql = to_sql(q);
        for t in result.tuples.iter().step_by(n.div_ceil(max_tuples).max(1)) {
            let lineage = t.lineage();
            if !lineage.is_empty() && lineage.len() <= max_lineage {
                out.push(Candidate {
                    sql: sql.clone(),
                    tuple: t.clone(),
                    lineage,
                    query: qi,
                });
            }
        }
    }
    out
}

/// The full-scale Academic database and query log of the offline dataset.
pub fn academic(seed: u64) -> (Database, Vec<Candidate>) {
    let db = generate_academic(&AcademicConfig::default());
    let log = generate_query_log(&db, &academic_spec(), &academic_log(sub_seed(seed, 2), 48));
    let cands = candidates(&db, &log, 10, 60);
    (db, cands)
}

/// The query-log generator settings of the full-scale dataset.
pub fn academic_log(seed: u64, queries: usize) -> QueryGenConfig {
    QueryGenConfig {
        num_queries: queries,
        max_join_width: 5,
        union_prob: 0.12,
        mutations_per_base: 3,
        wide_joins: 0,
        seed,
    }
}

/// The shape of one rank request: its lineage size in facts, and the length
/// in words of the query its (query, tuple) pair is taken from.
///
/// Both set the request's cost: every fact is scored as one sequence of the
/// query's words and the fact's rendering, up to [`MAX_LEN`] tokens (a query
/// of 61 words or more fills every sequence), and the query is most of the
/// bytes a request carries over the wire. Fixing the shapes keeps a run's
/// work the same at every seed.
pub type Shape = (usize, usize);

/// Query lengths, in words, that the request shapes cycle through.
const QUERY_WORDS: [usize; 5] = [12, 24, 36, 48, 61];

/// Requests take output tuples whose rendering is at most this long. A few
/// tuples hold long text values; left in, they would make the bytes and
/// tokens of a request set depend on whether the seed happened to pick them.
const TUPLE_CHARS: usize = 40;

/// Rank requests of exactly the given shapes. Request `i` takes a seeded
/// candidate among those with a short tuple whose query is nearest
/// `shapes[i].1` words long, its (query, tuple), and `shapes[i].0` facts: a seeded subset of its
/// lineage, topped up from the lineages of the same query's other tuples and
/// then from the whole database when the lineage is shorter. Tuples carry no
/// provenance, so these are plain learned-tier requests.
pub fn rank_requests(
    db: &Database,
    cands: &[Candidate],
    shapes: &[Shape],
    rng: &mut Rng,
) -> Vec<RankRequest> {
    let n_facts = db.fact_count() as u32;
    let words: Vec<usize> = cands
        .iter()
        .map(|c| ls_core::split_words(&c.sql).len())
        .collect();
    let mut short: Vec<usize> = (0..cands.len())
        .filter(|&k| ls_core::render_tuple(&cands[k].tuple).len() <= TUPLE_CHARS)
        .collect();
    if short.is_empty() {
        short = (0..cands.len()).collect();
    }
    shapes
        .iter()
        .map(|&(size, target)| {
            let dist = |k: &usize| words[*k].abs_diff(target);
            let best = short.iter().map(dist).min().expect("candidates");
            let near: Vec<usize> = short.iter().copied().filter(|k| dist(k) == best).collect();
            let c = &cands[near[rng.below(near.len())]];
            let mut facts = c.lineage.clone();
            rng.shuffle(&mut facts);
            let mut pool: Vec<FactId> = cands
                .iter()
                .filter(|o| o.query == c.query)
                .flat_map(|o| o.lineage.iter().copied())
                .collect();
            pool.sort_unstable();
            pool.dedup();
            rng.shuffle(&mut pool);
            for f in pool {
                if facts.len() >= size {
                    break;
                }
                if !facts.contains(&f) {
                    facts.push(f);
                }
            }
            while facts.len() < size.min(n_facts as usize) {
                let f = FactId((rng.next() % u64::from(n_facts)) as u32);
                if !facts.contains(&f) {
                    facts.push(f);
                }
            }
            facts.truncate(size);
            facts.sort_unstable();
            RankRequest {
                query_sql: c.sql.clone(),
                tuple: OutputTuple {
                    values: c.tuple.values.clone(),
                    derivations: Vec::new(),
                },
                lineage: facts,
                deadline: None,
                slo: None,
            }
        })
        .collect()
}

/// `n` shapes of `facts` facts each, over every query length in turn.
pub fn even_shapes(n: usize, facts: usize) -> Vec<Shape> {
    (0..n)
        .map(|i| (facts, QUERY_WORDS[i % QUERY_WORDS.len()]))
        .collect()
}

/// `n` ragged shapes in a fixed order: lineage sizes from 1 to 60
/// log-uniformly spread (many small lineages, a long tail of large ones, as
/// in the dataset), each with a query long enough to fill every fact's
/// sequence.
///
/// A request's cost is then set by its lineage size alone, and the order
/// in which large and small requests arrive — which decides how long small
/// ones queue behind large ones — is the same at every seed. With seeded
/// orders and query lengths the median open-loop latency spread twice as
/// much across seeds (0.16) as across runs of one seed (0.08).
pub fn ragged_shapes(n: usize) -> Vec<Shape> {
    let full = QUERY_WORDS[QUERY_WORDS.len() - 1];
    let mut shapes: Vec<Shape> = (0..n)
        .map(|i| {
            let size = (60f64.powf((i as f64 + 0.5) / n as f64).round() as usize).clamp(1, 60);
            (size, full)
        })
        .collect();
    Rng::new(0, 10).shuffle(&mut shapes);
    shapes
}

/// A vocabulary over the requests' query text and rendered facts, built the
/// way the training pipeline builds it.
pub fn tokenizer(db: &Database, requests: &[RankRequest]) -> Tokenizer {
    let mut corpus: Vec<String> = Vec::new();
    for r in requests {
        corpus.push(r.query_sql.clone());
        for &f in &r.lineage {
            corpus.push(render_tuple_and_fact_featured(
                db,
                &r.query_sql,
                &r.tuple,
                f,
            ));
        }
    }
    corpus.push("ovt0 ovt1 ovt2 ovt3 ovq0 ovq1 ovq2 ovq3".into());
    Tokenizer::build(corpus.iter().map(String::as_str), 2400)
}

/// A freshly initialised LS-base model (inference cost does not depend on
/// the weights), with its initialisation seeded.
pub fn fresh_model(vocab: usize, seed: u64) -> LearnShapleyModel {
    let mut cfg = EncoderKind::Base.config(vocab, MAX_LEN);
    cfg.seed = seed;
    LearnShapleyModel::new(cfg)
}

/// Persist a fresh LS-base model and load it back through the serving path.
pub fn model_bundle(
    db: Database,
    tokenizer: &Tokenizer,
    seed: u64,
    dir: &Path,
) -> std::io::Result<Arc<ModelBundle>> {
    let path = dir.join("model.lsmd");
    let mut model = fresh_model(tokenizer.vocab_size(), seed);
    save_model(&mut model, tokenizer, &path)?;
    Ok(Arc::new(ModelBundle::load(&path, db, MAX_LEN)?))
}

/// Budgets that make the default tier policy pick exact, learned and
/// sampled answers.
pub const BUDGETS: [Duration; 3] = [
    Duration::from_millis(100),
    Duration::from_millis(1),
    Duration::from_micros(100),
];

/// The wide-join database (a cast-heavy IMDB) and its fanout queries'
/// output tuples, provenance attached.
pub fn wide_join(seed: u64) -> (Database, Vec<Candidate>) {
    let db = generate_imdb(&ImdbConfig {
        movies: 60,
        actors: 40,
        roles_per_movie: 30,
        ..Default::default()
    });
    let log = generate_wide_join_log(&db, &imdb_spec(), 6, sub_seed(seed, 5));
    let cands = candidates(&db, &log, usize::MAX, usize::MAX);
    (db, cands)
}

/// Split the wide-join tuples into three request groups, one per budget (in
/// tier order exact, learned, sampled), of `per_group` distinct lineage
/// shapes each. No shape is in two groups: an exact answer attaches
/// canonical scores to the store, after which that shape is exact under any
/// budget.
///
/// Each group takes the shapes whose cost is nearest a fixed target, so a
/// run's heavy work is the same at every seed: exact — compile work
/// `clauses · players²` near 1e5 (a few ms, once per shape); learned —
/// `players` near 20 (one forward pass each); sampled — `players · clauses`
/// near 15 000 (the work of one permutation). Only shapes within a factor
/// of 2 of the target, for which the default policy picks the group's tier
/// on a cold store, qualify. The learned group answers each tuple under 8
/// lineage rotations, which are distinct keys for the response cache.
pub fn slo_sets(cands: &[Candidate], per_group: usize, rng: &mut Rng) -> [Vec<RankRequest>; 3] {
    let policy = SloPolicy::default();
    let cold = ls_circuit::CacheState {
        circuit_cached: false,
        scores_cached: false,
        model_available: true,
    };
    let mut order: Vec<usize> = (0..cands.len()).collect();
    rng.shuffle(&mut order);
    // (candidate, players, clauses, shape key) in seeded order.
    let shaped: Vec<(usize, f64, f64, ShapeKey)> = order
        .into_iter()
        .map(|i| {
            let dnf = Dnf::from_monomials(cands[i].tuple.derivations.clone());
            let (p, c) = (dnf.variables().len(), dnf.len());
            (i, p as f64, c as f64, CanonicalShape::of(&dnf).key)
        })
        .collect();
    let mut taken: Vec<ShapeKey> = Vec::new();
    let mut groups: [Vec<RankRequest>; 3] = Default::default();
    // Sampled first: its band is the narrowest.
    for g in [2, 0, 1] {
        let (target, cost): (f64, fn(f64, f64) -> f64) = match g {
            0 => (1e5, |p, c| c * p * p),
            1 => (20.0, |p, _| p),
            _ => (15000.0, |p, c| p * c),
        };
        let mut fit: Vec<&(usize, f64, f64, ShapeKey)> = shaped
            .iter()
            .filter(|&&(_, p, c, key)| {
                (cost(p, c) / target).ln().abs() <= 2f64.ln()
                    && policy.choose(p as usize, c as usize, BUDGETS[g], cold).tier == TIERS[g]
                    && !taken.contains(&key)
            })
            .collect();
        fit.sort_by(|a, b| {
            let d = |x: &(usize, f64, f64, ShapeKey)| (cost(x.1, x.2) / target).ln().abs();
            d(a).total_cmp(&d(b))
        });
        for &&(i, _, _, key) in &fit {
            if groups[g].len() == per_group {
                break;
            }
            if taken.contains(&key) {
                continue;
            }
            taken.push(key);
            let c = &cands[i];
            let request = RankRequest {
                query_sql: c.sql.clone(),
                tuple: c.tuple.clone(),
                lineage: c.lineage.clone(),
                deadline: None,
                slo: Some(BUDGETS[g]),
            };
            groups[g].push(request);
        }
    }
    let learned = std::mem::take(&mut groups[1]);
    groups[1] = learned
        .iter()
        .flat_map(|r| {
            let n = r.lineage.len();
            (0..8.min(n)).map(move |k| {
                let mut r = r.clone();
                r.lineage.rotate_left(k * n / 8.min(n));
                r
            })
        })
        .collect();
    rng.shuffle(&mut groups[1]);
    groups
}

pub const TIERS: [ls_serve::Tier; 3] = [
    ls_serve::Tier::Exact,
    ls_serve::Tier::Learned,
    ls_serve::Tier::Sampled,
];

/// Feedback records over the requests' own text, with seeded targets.
pub fn feedback(
    db: &Database,
    requests: &[RankRequest],
    n: usize,
    rng: &mut Rng,
) -> Vec<FeedbackRecord> {
    (0..n)
        .map(|_| {
            let r = &requests[rng.below(requests.len())];
            let f = r.lineage[rng.below(r.lineage.len())];
            FeedbackRecord {
                query_sql: r.query_sql.clone(),
                tuple_fact: render_tuple_and_fact_featured(db, &r.query_sql, &r.tuple, f),
                target: (rng.next() % 1000) as f32 / 1000.0,
            }
        })
        .collect()
}
