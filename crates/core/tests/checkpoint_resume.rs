//! Resume contract: a training run interrupted mid-way and resumed from its
//! checkpoint must finish with weights *bit-identical* to an uninterrupted
//! run — optimizer moments, step count, shuffle order, best-checkpoint
//! selection and sample counters all included.

use ls_core::{
    build_pretrain_pairs, finetune, finetune_resumable, pretrain, pretrain_resumable,
    CheckpointConfig, LearnShapleyModel, PretrainObjectives, Tokenizer, TrainConfig,
};
use ls_dbshap::{
    generate_imdb, imdb_spec, similarity_matrices, Dataset, DatasetConfig, ImdbConfig,
    QueryGenConfig, Split,
};
use ls_nn::{EncoderConfig, Snapshot};
use ls_similarity::RankSimOptions;
use std::path::PathBuf;

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

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 1e-3,
        max_len: 48,
        max_samples_per_epoch: 24,
        batch: 4,
        negatives: 0,
        seed: 42,
    }
}

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(name);
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn pretrain_resume_is_bit_identical() {
    let ds = tiny_dataset();
    let ms = similarity_matrices(&ds, &RankSimOptions::default());
    let (train_pairs, dev_pairs) = build_pretrain_pairs(&ds, &ms);
    let obj = PretrainObjectives::default();

    // Uninterrupted run: 4 epochs straight through.
    let (mut base_model, tok) = model_and_tokenizer(&ds);
    let base_report = pretrain(
        &mut base_model,
        &tok,
        &train_pairs,
        &dev_pairs,
        obj,
        &train_cfg(4),
    );
    let base = Snapshot::capture(&mut base_model);

    // Interrupted run: 2 epochs with checkpointing, then "crash", then
    // resume to 4 epochs from the checkpoint file.
    let path = tmp("ls_resume_pretrain.ck");
    let ck = CheckpointConfig::new(&path);
    let (mut resumed_model, _) = model_and_tokenizer(&ds);
    pretrain_resumable(
        &mut resumed_model,
        &tok,
        &train_pairs,
        &dev_pairs,
        obj,
        &train_cfg(2),
        &ck,
    )
    .unwrap();
    // Fresh model object simulates a restarted process.
    let (mut resumed_model, _) = model_and_tokenizer(&ds);
    let resumed_report = pretrain_resumable(
        &mut resumed_model,
        &tok,
        &train_pairs,
        &dev_pairs,
        obj,
        &train_cfg(4),
        &ck,
    )
    .unwrap();
    let resumed = Snapshot::capture(&mut resumed_model);

    assert_eq!(base, resumed, "resumed weights must match bit-for-bit");
    assert_eq!(
        base_report.best_dev_mse.to_bits(),
        resumed_report.best_dev_mse.to_bits()
    );
    assert_eq!(base_report.best_epoch, resumed_report.best_epoch);
    assert_eq!(base_report.samples, resumed_report.samples);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn finetune_resume_is_bit_identical() {
    let ds = tiny_dataset();
    let train = ds.split_indices(Split::Train);

    let (mut base_model, tok) = model_and_tokenizer(&ds);
    let base_report = finetune(&mut base_model, &tok, &ds, &train, &train_cfg(4));
    let base = Snapshot::capture(&mut base_model);

    let path = tmp("ls_resume_finetune.ck");
    let ck = CheckpointConfig::new(&path);
    let (mut resumed_model, _) = model_and_tokenizer(&ds);
    finetune_resumable(&mut resumed_model, &tok, &ds, &train, &train_cfg(2), &ck).unwrap();
    let (mut resumed_model, _) = model_and_tokenizer(&ds);
    let resumed_report =
        finetune_resumable(&mut resumed_model, &tok, &ds, &train, &train_cfg(4), &ck).unwrap();
    let resumed = Snapshot::capture(&mut resumed_model);

    assert_eq!(base, resumed, "resumed weights must match bit-for-bit");
    assert_eq!(
        base_report.best_dev_ndcg.to_bits(),
        resumed_report.best_dev_ndcg.to_bits()
    );
    assert_eq!(base_report.best_epoch, resumed_report.best_epoch);
    assert_eq!(base_report.samples, resumed_report.samples);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn completed_run_resumes_to_a_no_op() {
    let ds = tiny_dataset();
    let ms = similarity_matrices(&ds, &RankSimOptions::default());
    let (train_pairs, dev_pairs) = build_pretrain_pairs(&ds, &ms);
    let obj = PretrainObjectives::default();
    let path = tmp("ls_resume_noop.ck");
    let ck = CheckpointConfig::new(&path);

    let (mut model, tok) = model_and_tokenizer(&ds);
    let first = pretrain_resumable(
        &mut model,
        &tok,
        &train_pairs,
        &dev_pairs,
        obj,
        &train_cfg(2),
        &ck,
    )
    .unwrap();
    let weights = Snapshot::capture(&mut model);

    // Same epoch budget again: the checkpoint already covers it, so the loop
    // body never runs and the stored best is restored unchanged.
    let (mut model2, _) = model_and_tokenizer(&ds);
    let second = pretrain_resumable(
        &mut model2,
        &tok,
        &train_pairs,
        &dev_pairs,
        obj,
        &train_cfg(2),
        &ck,
    )
    .unwrap();
    assert_eq!(weights, Snapshot::capture(&mut model2));
    assert_eq!(first.best_epoch, second.best_epoch);
    assert_eq!(first.samples, second.samples);
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint written for one model and resumed into a model of another
/// shape is an `InvalidData` error, not a panic inside the restore.
#[test]
fn finetune_refuses_a_checkpoint_written_for_another_model() {
    let ds = tiny_dataset();
    let train = ds.split_indices(Split::Train);
    let path = tmp("ls_resume_finetune_other_model.ck");
    let ck = CheckpointConfig::new(&path);
    let (mut model, tok) = model_and_tokenizer(&ds);
    finetune_resumable(&mut model, &tok, &ds, &train, &train_cfg(1), &ck).unwrap();
    let mut wider = LearnShapleyModel::new(EncoderConfig {
        d_model: 16,
        ..model.encoder.config
    });
    let before = Snapshot::capture(&mut wider);
    let err = finetune_resumable(&mut wider, &tok, &ds, &train, &train_cfg(2), &ck).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(
        Snapshot::capture(&mut wider),
        before,
        "model left untouched"
    );
    let _ = std::fs::remove_file(&path);
}
