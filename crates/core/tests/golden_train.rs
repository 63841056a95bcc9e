//! Golden bits of training.
//!
//! `checkpoint_resume`, `parallel_determinism` and `online_replay` compare
//! runs with each other, so a change that moves every run's weights the same
//! way passes all three. This test pins absolute values instead: FNV-1a
//! digests of `Snapshot::write_to` after pretraining, after fine-tuning and
//! after an online trainer, plus the fine-tuning and gold feedback records
//! and the reports' metric bits, best epochs and sample counts. It runs the
//! whole chain at one and at two threads; both must give the pinned bits.
//!
//! That chain trains a one-block model, so it never backpropagates from the
//! last block into an inner one. A second case does, on the hashed LS-base
//! model (two blocks, 64 positions) that `golden_infer` pins: digests of
//! every parameter gradient after one value step and one similarity step
//! on each of four 64-token sequences, and of the weights after three Adam
//! steps over all four.

use ls_core::{
    build_finetune_samples_with_negatives, build_pretrain_pairs, feedback_from_gold, finetune,
    pretrain, LearnShapleyModel, OnlineConfig, OnlineTrainer, PretrainObjectives, Tokenizer,
    TrainConfig,
};
use ls_dbshap::{
    drift_feedback_events, generate_imdb, imdb_spec, similarity_matrices, Dataset, DatasetConfig,
    DriftConfig, ImdbConfig, QueryGenConfig, Split,
};
use ls_fault::Put;
use ls_nn::{Adam, AdamConfig, EncoderConfig, Snapshot, Visit};
use ls_similarity::RankSimOptions;

mod common;

fn tiny_dataset() -> Dataset {
    let db = generate_imdb(&ImdbConfig {
        companies: 8,
        actors: 30,
        movies: 40,
        roles_per_movie: 2,
        seed: 11,
    });
    let cfg = DatasetConfig {
        query_gen: QueryGenConfig {
            num_queries: 8,
            ..Default::default()
        },
        max_tuples_per_query: 3,
        max_lineage: 20,
        ..Default::default()
    };
    Dataset::build(db, &imdb_spec(), &cfg)
}

fn model_and_tokenizer(ds: &Dataset) -> (LearnShapleyModel, Tokenizer) {
    let tok = Tokenizer::build(ds.queries.iter().map(|q| q.sql.as_str()), 512);
    let model = LearnShapleyModel::new(EncoderConfig {
        vocab: tok.vocab_size(),
        d_model: 8,
        heads: 2,
        layers: 1,
        ff_dim: 16,
        max_len: 48,
        seed: 7,
    });
    (model, tok)
}

const PRETRAIN: TrainConfig = TrainConfig {
    epochs: 3,
    lr: 1e-3,
    max_len: 48,
    max_samples_per_epoch: 24,
    batch: 4,
    negatives: 0,
    seed: 42,
};

const FINETUNE: TrainConfig = TrainConfig {
    epochs: 1,
    max_samples_per_epoch: 0,
    negatives: 2,
    ..PRETRAIN
};

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn weights(model: &mut LearnShapleyModel) -> u64 {
    let mut bytes = Vec::new();
    Snapshot::capture(model).write_to(&mut bytes);
    fnv(&bytes)
}

/// Count and FNV-1a digest of `(query_sql, tuple_fact, target)` records in
/// the feedback WAL payload layout.
fn records<'a>(recs: impl Iterator<Item = (&'a str, &'a str, f32)>) -> (usize, u64) {
    let mut bytes = Vec::new();
    let mut n = 0;
    for (query_sql, tuple_fact, target) in recs {
        bytes.put_str(query_sql);
        bytes.put_str(tuple_fact);
        bytes.put_f32(target);
        n += 1;
    }
    (n, fnv(&bytes))
}

/// Everything the chain pins, in the order it is produced.
#[derive(Debug, PartialEq)]
struct Golden {
    /// `(best_dev_mse bits, best_epoch, samples)` and the weights digest.
    pretrain: (u64, usize, usize, u64),
    /// The fine-tuning records: count and digest.
    finetune_records: (usize, u64),
    /// `(best_dev_ndcg bits, best_epoch, samples)` and the weights digest.
    finetune: (u64, usize, usize, u64),
    /// The gold feedback records: count and digest.
    gold_records: (usize, u64),
    /// `(steps, consumed)` and the weights digest.
    online: (u64, u64, u64),
}

fn run_chain(ds: &Dataset) -> Golden {
    let ms = similarity_matrices(ds, &RankSimOptions::default());
    let (train_pairs, dev_pairs) = build_pretrain_pairs(ds, &ms);
    let (mut model, tok) = model_and_tokenizer(ds);
    let pre = pretrain(
        &mut model,
        &tok,
        &train_pairs,
        &dev_pairs,
        PretrainObjectives::default(),
        &PRETRAIN,
    );
    let pretrain = (
        pre.best_dev_mse.to_bits(),
        pre.best_epoch,
        pre.samples,
        weights(&mut model),
    );

    let train = ds.split_indices(Split::Train);
    let samples =
        build_finetune_samples_with_negatives(ds, &train, FINETUNE.negatives, FINETUNE.seed);
    let finetune_records = records(
        samples
            .iter()
            .map(|s| (s.query_sql.as_str(), s.tuple_fact.as_str(), s.target)),
    );
    let fine = finetune(&mut model, &tok, ds, &train, &FINETUNE);
    let finetune = (
        fine.best_dev_ndcg.to_bits(),
        fine.best_epoch,
        fine.samples,
        weights(&mut model),
    );

    let events = drift_feedback_events(
        ds,
        Split::Train,
        &DriftConfig {
            events: 12,
            drift_per_mille: 300,
            seed: 5,
        },
    );
    let gold = feedback_from_gold(ds, &events);
    let gold_records = records(
        gold.iter()
            .map(|r| (r.query_sql.as_str(), r.tuple_fact.as_str(), r.target)),
    );
    let mut trainer = OnlineTrainer::new(
        model,
        tok,
        OnlineConfig {
            batch: 3,
            lr: 1e-3,
            max_len: 48,
            seed: 42,
        },
    );
    for (lsn, rec) in gold.into_iter().enumerate() {
        trainer.ingest(lsn as u64, rec);
        trainer.train_pending();
    }
    trainer.flush();
    let online = (
        trainer.steps(),
        trainer.consumed(),
        weights(&mut trainer.model().clone()),
    );

    Golden {
        pretrain,
        finetune_records,
        finetune,
        gold_records,
        online,
    }
}

const GOLDEN: Golden = Golden {
    pretrain: (0x4001_5e71_819b_a20c, 3, 45, 0x422c_299a_8ab4_59e9),
    finetune_records: (78, 0x5553_5319_f7e2_1cd3),
    finetune: (0x3ff0_0000_0000_0000, 1, 78, 0xfaa0_b41c_8bea_52c9),
    gold_records: (46, 0x4448_1ed7_a001_3def),
    online: (16, 46, 0xc813_54b9_52eb_6220),
};

#[test]
fn training_chain_reproduces_pinned_bits() {
    let ds = tiny_dataset();
    for threads in [1, 2] {
        let got = ls_par::with_threads(threads, || run_chain(&ds));
        assert_eq!(got, GOLDEN, "training bits moved at {threads} thread(s)");
    }
}

/// FNV-1a digest of every parameter gradient, in `Visit` order.
fn grads(model: &mut LearnShapleyModel) -> u64 {
    let mut bytes = Vec::new();
    model.visit(&mut |p| bytes.put_f32s(&p.g.data));
    fnv(&bytes)
}

/// `(sequence seed, segment split)` of the four LS-base sequences.
const LS_BASE_SEQUENCES: [(u64, usize); 4] = [(1, 20), (2, 33), (3, 48), (4, 61)];

/// What the LS-base case pins.
#[derive(Debug, PartialEq)]
struct LsBaseGolden {
    /// Gradient digest after `forward_value`/`backward_value`, per sequence.
    value: [u64; 4],
    /// Gradient digest after `forward_sims`/`backward_sims`, per sequence.
    sims: [u64; 4],
    /// Weights digest after three Adam steps over all four sequences.
    adam: u64,
}

/// Squared-error gradients toward fixed targets, accumulated into the
/// model: the value head's in `value_step`, the similarity heads' in
/// `sims_step`.
fn value_step(model: &mut LearnShapleyModel, tokens: &[u32], segments: &[u8]) {
    let v = model.forward_value(tokens, segments);
    model.backward_value(2.0 * (v - 0.25));
}

fn sims_step(model: &mut LearnShapleyModel, tokens: &[u32], segments: &[u8]) {
    let p = model.forward_sims(tokens, segments);
    model.backward_sims([2.0 * (p[0] - 0.5), 2.0 * (p[1] - 0.25), 2.0 * (p[2] - 0.75)]);
}

fn run_ls_base() -> LsBaseGolden {
    let mut model = common::hashed_model();
    let seqs: Vec<_> = LS_BASE_SEQUENCES
        .iter()
        .map(|&(s, split)| common::sequence(s, split))
        .collect();
    let (mut value, mut sims) = ([0; 4], [0; 4]);
    for (i, (tokens, segments)) in seqs.iter().enumerate() {
        model.zero_grads();
        value_step(&mut model, tokens, segments);
        value[i] = grads(&mut model);
        model.zero_grads();
        sims_step(&mut model, tokens, segments);
        sims[i] = grads(&mut model);
    }
    model.zero_grads();
    let mut opt = Adam::new(&mut model, AdamConfig::default());
    for _ in 0..3 {
        for (tokens, segments) in &seqs {
            value_step(&mut model, tokens, segments);
            sims_step(&mut model, tokens, segments);
        }
        opt.step(&mut model, 1.0 / seqs.len() as f32);
    }
    LsBaseGolden {
        value,
        sims,
        adam: weights(&mut model),
    }
}

const LS_BASE_GOLDEN: LsBaseGolden = LsBaseGolden {
    value: [
        0x3cd8_2fad_fd81_13d2,
        0x2aa1_a679_e42c_a81a,
        0x2139_d2b7_2b1f_da48,
        0xcb14_9447_e4fd_441a,
    ],
    sims: [
        0xf008_3913_a718_4022,
        0xa599_5ede_6dac_7235,
        0xce20_d545_dbe8_c1c6,
        0x08dd_47e7_d9d9_9242,
    ],
    adam: 0x430d_f73b_c491_9f07,
};

#[test]
fn ls_base_training_step_reproduces_pinned_bits() {
    for threads in [1, 2] {
        let got = ls_par::with_threads(threads, run_ls_base);
        assert_eq!(
            got, LS_BASE_GOLDEN,
            "LS-base training bits moved at {threads} thread(s); got {got:#x?}"
        );
    }
}
