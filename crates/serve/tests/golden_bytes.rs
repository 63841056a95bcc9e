//! Golden bytes of every persisted and wire format.
//!
//! Each test encodes a fixed input through a public entry point and pins
//! the exact bytes it produces: small outputs as hex literals, large ones
//! (model weights, training checkpoints) as `(length, crc32)`. The formats
//! covered are the `LSBP` wire frames, the feedback record, an `LSWL` WAL
//! segment, the online `CURRENT` pointer and its `LSMD` model file, an
//! `LSTC` training checkpoint (which embeds `LSAD` and two `LSCK`
//! snapshots), an `LSCS` circuit-store entry and the `LSFT` seal.
//!
//! A change to any byte layout fails here. The `LSTC` pin is also a
//! determinism check: the workspace suite runs at `LS_THREADS=1` and `2`,
//! and the trained weights must not depend on the thread count.

use ls_circuit::{format, EntryData};
use ls_core::{
    publish_snapshot, FeedbackRecord, LearnShapleyModel, OnlineConfig, OnlineTrainer, Tokenizer,
};
use ls_fault::{crc32, seal};
use ls_nn::EncoderConfig;
use ls_obs::TraceContext;
use ls_provenance::{BigNat, Circuit, Node, NodeId};
use ls_relational::{FactId, Monomial, OutputTuple, Value};
use ls_serve::{proto, AdminCommand, RankRequest, RankResponse, ServeError, StageBreakdown, Tier};
use std::path::PathBuf;
use std::time::Duration;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[track_caller]
fn assert_hex(what: &str, bytes: &[u8], want: &str) {
    assert_eq!(hex(bytes), want, "{what}: bytes changed");
}

#[track_caller]
fn assert_digest(what: &str, bytes: &[u8], want: (usize, u32)) {
    let got = (bytes.len(), crc32(bytes));
    assert_eq!(
        got, want,
        "{what}: bytes changed (got len {}, crc {:#010x})",
        got.0, got.1
    );
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ls-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn record() -> FeedbackRecord {
    FeedbackRecord {
        query_sql: "SELECT title FROM movies".into(),
        tuple_fact: "(Memento) ; movies(0)".into(),
        target: 0.75,
    }
}

fn tokenizer() -> Tokenizer {
    let corpus = [
        "SELECT title FROM movies WHERE year > 1990",
        "movies Memento Dune Arrival Heat",
    ];
    Tokenizer::build(corpus.iter().copied(), 64)
}

fn model(tokenizer: &Tokenizer) -> LearnShapleyModel {
    LearnShapleyModel::new(EncoderConfig {
        vocab: tokenizer.vocab_size(),
        d_model: 8,
        heads: 2,
        layers: 1,
        ff_dim: 16,
        max_len: 16,
        seed: 5,
    })
}

#[test]
fn hello() {
    assert_hex(
        "hello",
        &proto::encode_hello(proto::BINARY_VERSION),
        "4c5342500100",
    );
}

#[test]
fn rank_request_with_every_optional_field() {
    let req = RankRequest {
        query_sql: "SELECT title FROM movies".into(),
        tuple: OutputTuple {
            values: vec![Value::Str("Memento".into()), Value::Int(-3)],
            derivations: vec![
                Monomial::from_facts(vec![FactId(5), FactId(7)]),
                Monomial::from_facts(vec![FactId(2)]),
            ],
        },
        lineage: vec![FactId(5), FactId(2), FactId(7)],
        deadline: Some(Duration::from_millis(250)),
        slo: Some(Duration::from_micros(750)),
    };
    let trace = TraceContext {
        trace_id: 0x0123_4567_89ab_cdef,
        span_id: 0xfedc_ba98_7654_3210,
        parent: 0,
    };
    assert_hex(
        "rank request",
        &proto::encode_binary_request(42, &req, Some(&trace)),
        concat!(
            "85000000",                                         // frame length 133
            "01",                                               // kind: rank request
            "2a00000000000000",                                 // id 42
            "07",                                               // flags: trace, deadline, slo
            "efcdab8967452301",                                 // trace id
            "1032547698badcfe",                                 // span id
            "90d0030000000000",                                 // deadline 250000 µs
            "ee02000000000000",                                 // slo 750 µs
            "18000000",                                         // query length 24
            "53454c454354207469746c652046524f4d206d6f76696573", // "SELECT title FROM movies"
            "0200",                                             // 2 values (u16)
            "01",
            "07000000",
            "4d656d656e746f", // Str "Memento"
            "00",
            "fdffffffffffffff", // Int -3
            "03000000",
            "05000000",
            "02000000",
            "07000000", // lineage [5, 2, 7]
            "02000000", // 2 derivations
            "02000000",
            "05000000",
            "07000000", // {5, 7}
            "01000000",
            "02000000", // {2}
        ),
    );
}

#[test]
fn rank_responses() {
    let ok = RankResponse {
        scores: vec![0.5, -0.0, 1.0 / 3.0],
        ranking: vec![FactId(2), FactId(0), FactId(1)],
        cached: true,
        degraded: false,
        stages: Some(StageBreakdown {
            probe_us: 3,
            queue_us: 120,
            batch_us: 40,
            score_us: 900,
            other_us: 7,
            total_us: 1070,
        }),
        tier: Some(Tier::Sampled),
    };
    assert_hex(
        "rank response ok",
        &proto::encode_binary_response(9, &Ok(ok)),
        concat!(
            "67000000",         // frame length 103
            "02",               // kind: rank ok
            "0900000000000000", // id 9
            "0d",               // flags: cached, stages, tier
            "03000000",         // 3 scores, f64 bits
            "000000000000e03f", // 0.5
            "0000000000000080", // -0.0
            "555555555555d53f", // 1/3
            "03000000",
            "02000000",
            "00000000",
            "01000000",         // ranking [2, 0, 1]
            "0300000000000000", // probe µs
            "7800000000000000", // queue µs
            "2800000000000000", // batch µs
            "8403000000000000", // score µs
            "0700000000000000", // other µs
            "2e04000000000000", // total µs
            "02",               // tier: sampled
        ),
    );
    let err = Err(ServeError::BadRequest("unknown fact id 9".into()));
    assert_hex(
        "rank response error",
        &proto::encode_binary_response(10, &err),
        concat!(
            "1f000000",                           // frame length 31
            "03",                                 // kind: rank error
            "0a00000000000000",                   // id 10
            "04",                                 // code: bad request
            "11000000",                           // detail length 17
            "756e6b6e6f776e20666163742069642039", // "unknown fact id 9"
        ),
    );
}

#[test]
fn feedback_frames() {
    assert_hex(
        "feedback request",
        &proto::encode_binary_feedback_request(11, &record()),
        concat!(
            "42000000",                                                 // frame length 66
            "04",                                                       // kind: feedback request
            "0b00000000000000",                                         // id 11
            "1800000053454c454354207469746c652046524f4d206d6f76696573", // query
            "15000000284d656d656e746f29203b206d6f76696573283029",       // tuple ; fact
            "0000403f",                                                 // target 0.75, f32 bits
        ),
    );
    assert_hex(
        "feedback response ok",
        &proto::encode_binary_feedback_response(11, &Ok(42)),
        concat!(
            "11000000",         // frame length 17
            "05",               // kind: feedback ok
            "0b00000000000000", // id 11
            "2a00000000000000", // lsn 42
        ),
    );
    assert_hex(
        "feedback response error",
        &proto::encode_binary_feedback_response(12, &Err(ServeError::ShuttingDown)),
        concat!(
            "0e000000",         // frame length 14
            "06",               // kind: feedback error
            "0c00000000000000", // id 12
            "03",               // code: shutting down
            "00000000",         // empty detail
        ),
    );
}

#[test]
fn admin_frames() {
    assert_hex(
        "admin request",
        &proto::encode_binary_admin_request(9, AdminCommand::Traces),
        concat!(
            "0a000000",         // frame length 10
            "07",               // kind: admin request
            "0900000000000000", // id 9
            "02",               // command: traces
        ),
    );
    assert_hex(
        "admin response",
        &proto::encode_binary_admin_response(9, r#"{"inflight":3}"#),
        concat!(
            "1b000000",                     // frame length 27
            "08",                           // kind: admin ok
            "0900000000000000",             // id 9
            "0e000000",                     // data length 14
            "7b22696e666c69676874223a337d", // {"inflight":3}
        ),
    );
}

#[test]
fn feedback_record() {
    assert_hex(
        "feedback record",
        &record().encode(),
        concat!(
            "18000000",                                         // query length 24
            "53454c454354207469746c652046524f4d206d6f76696573", // "SELECT title FROM movies"
            "15000000",                                         // tuple ; fact length 21
            "284d656d656e746f29203b206d6f76696573283029",       // "(Memento) ; movies(0)"
            "0000403f",                                         // target 0.75, f32 bits
        ),
    );
}

#[test]
fn wal_segment_after_two_appends() {
    let dir = tmp_dir("wal");
    {
        let mut wal = ls_wal::Wal::open(&dir).expect("open");
        assert_eq!(wal.append(b"alpha").expect("append"), 0);
        assert_eq!(wal.append(&record().encode()).expect("append"), 1);
    }
    let bytes = std::fs::read(dir.join("wal-0000000000000000.lsw.open")).expect("segment");
    assert_hex(
        "wal segment",
        &bytes,
        concat!(
            "4c53574c",                                                 // magic "LSWL"
            "01000000",                                                 // version 1
            "0000000000000000",                                         // first lsn 0
            "05000000",                                                 // frame length 5
            "6a39e0d0",                                                 // crc32
            "616c706861",                                               // "alpha"
            "39000000",                                                 // frame length 57
            "eb749f60",                                                 // crc32
            "1800000053454c454354207469746c652046524f4d206d6f76696573", // the feedback record
            "15000000284d656d656e746f29203b206d6f76696573283029",
            "0000403f",
        ),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn current_pointer_and_model_file() {
    let dir = tmp_dir("publish");
    let tok = tokenizer();
    let mut model = model(&tok);
    let path = publish_snapshot(&dir, 7, &mut model, &tok).expect("publish");
    let current = std::fs::read(dir.join("CURRENT")).expect("CURRENT");
    assert_hex(
        "CURRENT",
        &current,
        concat!(
            "0700000000000000",                                     // generation 7
            "1a000000",                                             // name length 26
            "736e61702d303030303030303030303030303030372e6c736d64", // snap-0000000000000007.lsmd
            "4c534654",                                             // footer magic "LSFT"
            "2600000000000000",                                     // body length 38
            "13bab981",                                             // crc32 of the body
        ),
    );
    assert_digest(
        "LSMD",
        &std::fs::read(path).expect("model"),
        (4069, 0x8046_0cf6),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn training_checkpoint_after_online_steps() {
    let dir = tmp_dir("lstc");
    let tok = tokenizer();
    let cfg = OnlineConfig {
        batch: 2,
        lr: 1e-3,
        max_len: 16,
        seed: 99,
    };
    let mut trainer = OnlineTrainer::new(model(&tok), tok, cfg);
    for i in 0..6u32 {
        let rec = FeedbackRecord {
            query_sql: format!("SELECT title FROM movies WHERE year > {}", 1990 + i),
            tuple_fact: format!("(Memento) ; movies({i})"),
            target: i as f32 * 0.25,
        };
        trainer.ingest(u64::from(i), rec);
    }
    trainer.train_pending();
    assert_eq!(trainer.steps(), 3);
    let path = dir.join("online.lstc");
    trainer.checkpoint(&path).expect("checkpoint");
    assert_digest(
        "LSTC",
        &std::fs::read(&path).expect("read"),
        (15193, 0xc4ab_ea5f),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn circuit_store_entry_with_scores() {
    // (x0 ∧ x1) ∨ x2, once as a disjoint or and once as a decision on x2,
    // so every node tag appears in the arena.
    let nodes = vec![
        Node::True,
        Node::False,
        Node::Leaf(FactId(0)),
        Node::Leaf(FactId(1)),
        Node::And(vec![NodeId(2), NodeId(3)]),
        Node::Leaf(FactId(2)),
        Node::DisjointOr(vec![NodeId(4), NodeId(5)]),
        Node::Decision {
            var: FactId(2),
            hi: NodeId(0),
            lo: NodeId(4),
        },
    ];
    let entry = EntryData {
        n_players: 3,
        clauses: vec![vec![2], vec![0, 1]],
        root: NodeId(7),
        circuit: Circuit::from_nodes(nodes).expect("valid arena"),
        model_count: BigNat::from_u64(5),
        scores: Some(vec![1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]),
    };
    assert_hex(
        "LSCS entry",
        &format::encode(&entry),
        concat!(
            "4c534353",
            "01000000", // magic "LSCS", version 1
            "03000000", // 3 players
            "02000000", // 2 clauses
            "01000000",
            "02000000", // {2}
            "02000000",
            "00000000",
            "01000000", // {0, 1}
            "07000000", // root 7
            "08000000", // 8 nodes
            "00",       // 0: true
            "01",       // 1: false
            "02",
            "00000000", // 2: leaf 0
            "02",
            "01000000", // 3: leaf 1
            "03",
            "02000000",
            "02000000",
            "03000000", // 4: and [2, 3]
            "02",
            "02000000", // 5: leaf 2
            "05",
            "02000000",
            "04000000",
            "05000000", // 6: disjoint or [4, 5]
            "04",
            "02000000",
            "00000000",
            "04000000", // 7: decision 2 ? 0 : 4
            "01000000",
            "0500000000000000", // model count 5, one limb
            "01",               // scores present
            "555555555555c53f",
            "555555555555c53f",
            "555555555555e53f", // 1/6, 1/6, 2/3
        ),
    );
}

#[test]
fn checksum_seal() {
    assert_hex(
        "LSFT seal",
        &seal(b"sealed body".to_vec()),
        concat!(
            "7365616c656420626f6479", // body "sealed body"
            "4c534654",               // footer magic "LSFT"
            "0b00000000000000",       // body length 11
            "9dbf1386",               // crc32 of the body
        ),
    );
}
