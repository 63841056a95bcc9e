//! Deterministic replay contract of the online trainer: the same feedback
//! WAL and the same seed produce **bit-identical** published model bytes —
//! at any thread count, and across checkpoint/restart boundaries.

use ls_core::{
    feedback_from_gold, load_current, replay_train, FeedbackRecord, LearnShapleyModel,
    OnlineConfig, OnlineTrainer, Tokenizer,
};
use ls_dbshap::{
    drift_feedback_events, generate_imdb, imdb_spec, Dataset, DatasetConfig, DriftConfig,
    ImdbConfig, QueryGenConfig, Split,
};
use ls_nn::EncoderConfig;
use std::path::{Path, PathBuf};

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

fn online_cfg() -> OnlineConfig {
    OnlineConfig {
        batch: 8,
        lr: 1e-3,
        max_len: 48,
        seed: 42,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ls-online-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn feedback_records(ds: &Dataset) -> Vec<FeedbackRecord> {
    let events = drift_feedback_events(
        ds,
        Split::Train,
        &DriftConfig {
            events: 12,
            drift_per_mille: 300,
            seed: 5,
        },
    );
    feedback_from_gold(ds, &events)
}

fn write_wal(dir: &Path, records: &[FeedbackRecord]) {
    let mut wal = ls_wal::Wal::open(dir).unwrap();
    for rec in records {
        wal.append(&rec.encode()).unwrap();
    }
}

/// Published snapshot bytes after replaying the whole WAL at `threads`.
fn replayed_bytes(ds: &Dataset, wal_dir: &Path, threads: usize, tag: &str) -> Vec<u8> {
    ls_par::with_threads(threads, || {
        let (model, tok) = model_and_tokenizer(ds);
        let mut trainer = replay_train(wal_dir, model, tok, online_cfg()).unwrap();
        let snap_dir = tmp_dir(tag);
        let path = trainer.publish(&snap_dir, 1).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let (gen, current) = load_current(&snap_dir).unwrap().unwrap();
        assert_eq!(gen, 1);
        assert_eq!(current, path);
        let _ = std::fs::remove_dir_all(&snap_dir);
        bytes
    })
}

#[test]
fn same_wal_same_seed_is_bit_identical_at_any_thread_count() {
    let ds = tiny_dataset();
    let records = feedback_records(&ds);
    assert!(records.len() > 20, "fixture too small to be interesting");
    let wal_dir = tmp_dir("wal-threads");
    write_wal(&wal_dir, &records);

    let t1 = replayed_bytes(&ds, &wal_dir, 1, "t1");
    let t2 = replayed_bytes(&ds, &wal_dir, 2, "t2");
    let t4 = replayed_bytes(&ds, &wal_dir, 4, "t4");
    assert_eq!(t1, t2, "LS_THREADS=1 vs 2 must be bit-identical");
    assert_eq!(t1, t4, "LS_THREADS=1 vs 4 must be bit-identical");
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn checkpoint_restart_matches_uninterrupted_replay() {
    let ds = tiny_dataset();
    let records = feedback_records(&ds);
    let wal_dir = tmp_dir("wal-ckpt");
    write_wal(&wal_dir, &records);

    // Uninterrupted replay.
    let (model, tok) = model_and_tokenizer(&ds);
    let mut straight = replay_train(&wal_dir, model, tok, online_cfg()).unwrap();
    let straight_dir = tmp_dir("snap-straight");
    let straight_path = straight.publish(&straight_dir, 1).unwrap();
    let want = std::fs::read(&straight_path).unwrap();

    // Interrupted run: consume roughly half the stream, checkpoint, "crash",
    // resume in a fresh trainer, and finish from the WAL watermark.
    let (wal_records, _) = ls_wal::replay(&wal_dir, 0).unwrap();
    let half = wal_records.len() / 2;
    let ck_path = std::env::temp_dir().join(format!("ls-online-ck-{}.lstc", std::process::id()));
    let _ = std::fs::remove_file(&ck_path);
    {
        let (model, tok) = model_and_tokenizer(&ds);
        let mut trainer = OnlineTrainer::new(model, tok, online_cfg());
        for (lsn, payload) in &wal_records[..half] {
            trainer.ingest(*lsn, FeedbackRecord::decode(payload).unwrap());
        }
        trainer.train_pending(); // full batches only — no terminal flush
        trainer.checkpoint(&ck_path).unwrap();
    }
    let (model, tok) = model_and_tokenizer(&ds);
    let mut resumed = OnlineTrainer::new(model, tok, online_cfg());
    assert!(resumed.resume(&ck_path).unwrap());
    assert!(resumed.consumed() > 0);
    for (lsn, payload) in &wal_records {
        // Replay overlap below the watermark is ignored by ingest.
        resumed.ingest(*lsn, FeedbackRecord::decode(payload).unwrap());
    }
    resumed.train_pending();
    resumed.flush();
    let resumed_dir = tmp_dir("snap-resumed");
    let resumed_path = resumed.publish(&resumed_dir, 1).unwrap();
    let got = std::fs::read(&resumed_path).unwrap();

    assert_eq!(want, got, "restart must not change the replayed weights");
    let _ = std::fs::remove_file(&ck_path);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&straight_dir);
    let _ = std::fs::remove_dir_all(&resumed_dir);
}

#[test]
fn publish_under_injected_faults_never_exposes_a_torn_snapshot() {
    let ds = tiny_dataset();
    let (model, tok) = model_and_tokenizer(&ds);
    let mut trainer = OnlineTrainer::new(model, tok, online_cfg());
    let dir = tmp_dir("snap-faulty");

    // Generation 1 publishes cleanly.
    let p1 = trainer.publish(&dir, 1).unwrap();
    let bytes1 = std::fs::read(&p1).unwrap();

    // Simulate a crash mid-publication of generation 2: the snapshot file
    // lands but the CURRENT repoint is interrupted (we model it by writing
    // the snapshot and then tearing a hand-rolled CURRENT.tmp — the real
    // writer goes through write_atomic, whose temp never shadows CURRENT).
    let p2 = dir.join(ls_core::snapshot_name(2));
    {
        // Tear the snapshot itself: half its bytes.
        std::fs::write(&p2, &bytes1[..bytes1.len() / 2]).unwrap();
    }
    // CURRENT still names generation 1; the torn gen-2 file is invisible.
    let (gen, path) = load_current(&dir).unwrap().unwrap();
    assert_eq!(gen, 1);
    assert_eq!(path, p1);
    let (loaded_model, _tok) = ls_core::load_model(&path).unwrap();
    drop(loaded_model);

    // A torn CURRENT pointer is a typed error, not a wrong answer.
    std::fs::write(dir.join("CURRENT"), b"LSWL-not-a-sealed-pointer").unwrap();
    assert!(load_current(&dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming an online checkpoint written for another model is an
/// `InvalidData` error from `resume`, not a panic inside the restore.
#[test]
fn resume_refuses_a_checkpoint_written_for_another_model() {
    let ds = tiny_dataset();
    let (model, tok) = model_and_tokenizer(&ds);
    let dir = tmp_dir("other-model");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("online.ck");
    let mut trainer = OnlineTrainer::new(model, tok.clone(), online_cfg());
    for (lsn, rec) in feedback_records(&ds).into_iter().take(8).enumerate() {
        trainer.ingest(lsn as u64, rec);
    }
    trainer.train_pending();
    trainer.checkpoint(&path).unwrap();

    let wider = LearnShapleyModel::new(EncoderConfig {
        d_model: 16,
        ..trainer.model().encoder.config
    });
    let mut resumed = OnlineTrainer::new(wider, tok, online_cfg());
    let err = resumed.resume(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!((resumed.steps(), resumed.consumed()), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
