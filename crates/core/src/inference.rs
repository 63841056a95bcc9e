//! Inference: rank the facts of a lineage by predicted contribution.
//!
//! This is the deployment path of Figure 4(b): given a new query, an output
//! tuple of interest, and its lineage (no provenance needed), predict each
//! fact's Shapley value with one forward pass and rank descending.
//!
//! The module is built for serving: the model is taken *immutably* (weights
//! can be `Arc`-shared across worker threads), the query- and tuple-side
//! work (SQL tokenization, word splits, tuple rendering) is hoisted into a
//! per-request [`ScoreContext`] computed once instead of once per fact, and
//! a [`LineageScorer`] owns the forward-pass scratch so the facts it scores
//! back-to-back reuse one embedding buffer.
//! `ls-serve` drives exactly these types from its worker pool; the serial
//! [`predict_scores`] below is the same code path, which is what makes the
//! serving layer's bit-identical differential guarantee hold.

use crate::encoding::{render_featured_hoisted, render_tuple};
use crate::model::LearnShapleyModel;
use crate::tokenizer::{split_words, Tokenizer};
use ls_nn::InferScratch;
use ls_relational::{Database, FactId, OutputTuple};
use ls_shapley::FactScores;

/// Per-request precomputation: everything about the (query, tuple) pair that
/// is invariant across the facts of its lineage.
#[derive(Debug, Clone)]
pub struct ScoreContext {
    /// The query half of the BERT pair, tokenized once.
    query_tokens: Vec<u32>,
    /// Query word split (for the `ovq` overlap feature).
    query_words: Vec<String>,
    /// Rendered output tuple.
    tuple_text: String,
    /// Tuple word split (for the `ovt` overlap feature).
    tuple_words: Vec<String>,
}

impl ScoreContext {
    /// Precompute the query/tuple halves of the scoring input.
    pub fn new(tokenizer: &Tokenizer, query_sql: &str, tuple: &OutputTuple) -> Self {
        let tuple_text = render_tuple(tuple);
        ScoreContext {
            query_tokens: tokenizer.tokenize(query_sql),
            query_words: split_words(query_sql),
            tuple_words: split_words(&tuple_text),
            tuple_text,
        }
    }
}

/// A reusable per-thread fact scorer: borrows the (read-only) model,
/// tokenizer and database, owns the mutable forward-pass scratch.
///
/// Serving workers build one per chunk of work; the serial
/// [`predict_scores`] constructs one per call. Both therefore perform the
/// same floating-point work in the same order, and scores are bit-identical
/// regardless of which thread (or how many threads) computed them.
pub struct LineageScorer<'a> {
    model: &'a LearnShapleyModel,
    tokenizer: &'a Tokenizer,
    db: &'a Database,
    max_len: usize,
    scratch: InferScratch,
}

impl<'a> LineageScorer<'a> {
    /// A fresh scorer with its own scratch.
    pub fn new(
        model: &'a LearnShapleyModel,
        tokenizer: &'a Tokenizer,
        db: &'a Database,
        max_len: usize,
    ) -> Self {
        LineageScorer {
            model,
            tokenizer,
            db,
            max_len,
            scratch: InferScratch::new(),
        }
    }

    /// Predicted contribution of one fact under a precomputed context.
    pub fn score_fact(&mut self, ctx: &ScoreContext, f: FactId) -> f64 {
        let b = render_featured_hoisted(
            self.db,
            &ctx.query_words,
            &ctx.tuple_text,
            &ctx.tuple_words,
            f,
        );
        let (tokens, segs) =
            self.tokenizer
                .encode_pair_pretokenized(&ctx.query_tokens, &b, self.max_len);
        self.model.infer_value(&tokens, &segs, &mut self.scratch) as f64
    }

    /// Score every fact of a lineage (insertion order = lineage order).
    pub fn score_lineage(&mut self, ctx: &ScoreContext, lineage: &[FactId]) -> FactScores {
        let t0 = ls_obs::enabled().then(std::time::Instant::now);
        let mut out = FactScores::new();
        for &f in lineage {
            out.insert(f, self.score_fact(ctx, f));
        }
        if let Some(t0) = t0 {
            // Trace-aware: under an attached TraceContext the batch sample
            // carries the request's trace id as an exemplar.
            ls_obs::histogram("core.inference.batch")
                .record_traced(t0.elapsed().as_secs_f64(), ls_obs::current_trace_id());
            ls_obs::counter("core.inference.facts_scored").add(lineage.len() as u64);
        }
        out
    }
}

/// Predict per-fact contribution scores for a lineage.
pub fn predict_scores(
    model: &LearnShapleyModel,
    tokenizer: &Tokenizer,
    db: &Database,
    query_sql: &str,
    tuple: &OutputTuple,
    lineage: &[FactId],
    max_len: usize,
) -> FactScores {
    let ctx = ScoreContext::new(tokenizer, query_sql, tuple);
    LineageScorer::new(model, tokenizer, db, max_len).score_lineage(&ctx, lineage)
}

/// Rank a lineage by predicted contribution (descending).
pub fn rank_lineage(
    model: &LearnShapleyModel,
    tokenizer: &Tokenizer,
    db: &Database,
    query_sql: &str,
    tuple: &OutputTuple,
    lineage: &[FactId],
    max_len: usize,
) -> Vec<FactId> {
    let scores = predict_scores(model, tokenizer, db, query_sql, tuple, lineage, max_len);
    ls_shapley::rank_descending(&scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::render_tuple_and_fact_featured;
    use ls_nn::EncoderConfig;
    use ls_relational::{ColType, Database, Monomial, TableSchema, Value};

    fn setup() -> (LearnShapleyModel, Tokenizer, Database) {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "movies",
            &[("title", ColType::Str), ("year", ColType::Int)],
        ));
        db.insert("movies", vec!["Superman".into(), 2007.into()]);
        db.insert("movies", vec!["Aquaman".into(), 2006.into()]);
        let tok = Tokenizer::build(
            ["select movies title from where year 2007 superman aquaman"].into_iter(),
            64,
        );
        let model = LearnShapleyModel::new(EncoderConfig {
            vocab: tok.vocab_size(),
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_dim: 16,
            max_len: 48,
            seed: 6,
        });
        (model, tok, db)
    }

    fn tuple() -> OutputTuple {
        OutputTuple {
            values: vec![Value::from("Superman")],
            derivations: vec![Monomial::from_facts(vec![FactId(0)])],
        }
    }

    #[test]
    fn scores_cover_lineage() {
        let (model, tok, db) = setup();
        let lineage = vec![FactId(0), FactId(1)];
        let scores = predict_scores(
            &model,
            &tok,
            &db,
            "SELECT movies.title FROM movies",
            &tuple(),
            &lineage,
            48,
        );
        assert_eq!(scores.len(), 2);
        assert!(scores.values().all(|v| v.is_finite()));
    }

    #[test]
    fn ranking_is_a_permutation_of_lineage() {
        let (model, tok, db) = setup();
        let lineage = vec![FactId(0), FactId(1)];
        let ranking = rank_lineage(
            &model,
            &tok,
            &db,
            "SELECT movies.title FROM movies",
            &tuple(),
            &lineage,
            48,
        );
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, lineage);
    }

    #[test]
    fn deterministic() {
        let (model, tok, db) = setup();
        let lineage = vec![FactId(0), FactId(1)];
        let a = predict_scores(
            &model,
            &tok,
            &db,
            "SELECT movies.title FROM movies",
            &tuple(),
            &lineage,
            48,
        );
        let b = predict_scores(
            &model,
            &tok,
            &db,
            "SELECT movies.title FROM movies",
            &tuple(),
            &lineage,
            48,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn hoisted_context_matches_per_fact_rendering() {
        // The hoisted path must reproduce the training-time encoding exactly:
        // same segment-B text, same packed token ids.
        let (model, tok, db) = setup();
        let sql = "SELECT movies.title FROM movies WHERE movies.year = 2007";
        let t = tuple();
        let ctx = ScoreContext::new(&tok, sql, &t);
        let mut scorer = LineageScorer::new(&model, &tok, &db, 48);
        for f in [FactId(0), FactId(1)] {
            let hoisted = render_featured_hoisted(
                &db,
                &ctx.query_words,
                &ctx.tuple_text,
                &ctx.tuple_words,
                f,
            );
            let plain = render_tuple_and_fact_featured(&db, sql, &t, f);
            assert_eq!(hoisted, plain);
            let pretok = tok.encode_pair_pretokenized(&ctx.query_tokens, &hoisted, 48);
            assert_eq!(pretok, tok.encode_pair(sql, &plain, 48));
            // And the end-to-end per-fact score agrees with predict_scores.
            let s = scorer.score_fact(&ctx, f);
            let all = predict_scores(&model, &tok, &db, sql, &t, &[f], 48);
            assert_eq!(s.to_bits(), all[&f].to_bits());
        }
    }

    #[test]
    fn scorer_reuse_across_requests_is_bit_stable() {
        let (model, tok, db) = setup();
        let sql = "SELECT movies.title FROM movies";
        let t = tuple();
        let lineage = [FactId(0), FactId(1)];
        let ctx = ScoreContext::new(&tok, sql, &t);
        let mut scorer = LineageScorer::new(&model, &tok, &db, 48);
        let first = scorer.score_lineage(&ctx, &lineage);
        // Interleave an unrelated scoring pass, then repeat.
        let other_ctx = ScoreContext::new(&tok, "SELECT movies.year FROM movies", &t);
        scorer.score_lineage(&other_ctx, &lineage);
        let second = scorer.score_lineage(&ctx, &lineage);
        assert_eq!(first, second);
    }

    #[test]
    fn empty_lineage_gives_empty_scores() {
        let (model, tok, db) = setup();
        let scores = predict_scores(
            &model,
            &tok,
            &db,
            "SELECT movies.title FROM movies",
            &tuple(),
            &[],
            48,
        );
        assert!(scores.is_empty());
    }
}
