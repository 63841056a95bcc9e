//! Integration tests for the serving subsystem.
//!
//! The heart is the **differential test**: for any worker count, batching
//! boundary, and cache state, a served response must be bit-identical to
//! what the serial `rank_lineage`/`predict_scores` path produces from the
//! same snapshot. The rest pins the operational contract: overload rejects
//! instead of blocking, deadlines shed, shutdown drains, TCP round-trips.

use ls_core::{save_model, LearnShapleyModel, Tokenizer};
use ls_nn::EncoderConfig;
use ls_relational::{ColType, Database, FactId, OutputTuple, TableSchema, Value};
use ls_serve::{
    ModelBundle, RankRequest, RankResponse, ServeConfig, ServeError, Server, TcpRankClient,
    TcpServer, Tier,
};
use std::sync::Arc;
use std::time::Duration;

const MAX_LEN: usize = 48;

fn fixture_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "movies",
        &[("title", ColType::Str), ("year", ColType::Int)],
    ));
    db.create_table(TableSchema::new(
        "actors",
        &[("name", ColType::Str), ("movie", ColType::Str)],
    ));
    let titles = [
        "Memento", "Dune", "Arrival", "Heat", "Alien", "Solaris", "Gattaca", "Brazil", "Akira",
        "Contact", "Moon", "Primer",
    ];
    for (i, t) in titles.iter().enumerate() {
        db.insert(
            "movies",
            vec![Value::Str(t.to_string()), Value::Int(1980 + i as i64 * 3)],
        );
    }
    for (i, t) in titles.iter().enumerate().take(6) {
        db.insert(
            "actors",
            vec![Value::Str(format!("Actor {i}")), Value::Str(t.to_string())],
        );
    }
    db
}

/// Persist a small model and load it into a serving bundle, exactly like a
/// deployment would.
fn fixture_bundle() -> Arc<ModelBundle> {
    let db = fixture_db();
    let corpus = [
        "SELECT title FROM movies WHERE year > 1990",
        "SELECT name FROM actors WHERE movie = Dune",
        "movies Memento Dune Arrival Heat Alien Solaris Gattaca Brazil Akira Contact Moon Primer",
        "actors Actor 0 1 2 3 4 5 1980 1995 2010",
    ];
    let tokenizer = Tokenizer::build(corpus.iter().copied(), 600);
    let mut model = LearnShapleyModel::new(EncoderConfig::small_ablation(
        tokenizer.vocab_size(),
        MAX_LEN,
    ));
    let dir = std::env::temp_dir().join(format!(
        "ls-serve-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.lsmd");
    save_model(&mut model, &tokenizer, &path).expect("save");
    let bundle = ModelBundle::load(&path, db, MAX_LEN).expect("load");
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(bundle)
}

fn requests(bundle: &ModelBundle) -> Vec<RankRequest> {
    let n = bundle.db.fact_count() as u32;
    (0..8u32)
        .map(|i| RankRequest {
            query_sql: format!("SELECT title FROM movies WHERE year > {}", 1980 + i),
            tuple: OutputTuple {
                values: vec![Value::Str(format!("Title {i}")), Value::Int(i as i64)],
                derivations: Vec::new(),
            },
            lineage: (0..6).map(|j| FactId((i * 5 + j * 3) % n)).collect(),
            deadline: None,
            slo: None,
        })
        .collect()
}

fn serial_answer(bundle: &ModelBundle, req: &RankRequest) -> RankResponse {
    let scores = ls_core::predict_scores(
        &bundle.model,
        &bundle.tokenizer,
        &bundle.db,
        &req.query_sql,
        &req.tuple,
        &req.lineage,
        bundle.max_len,
    );
    RankResponse {
        scores: req.lineage.iter().map(|f| scores[f]).collect(),
        ranking: ls_shapley::rank_descending(&scores),
        cached: false,
        degraded: false,
        stages: None,
        tier: Some(Tier::Learned),
    }
}

fn assert_bit_identical(served: &RankResponse, serial: &RankResponse) {
    assert_eq!(served.ranking, serial.ranking, "ranking differs");
    assert_eq!(served.scores.len(), serial.scores.len());
    for (i, (a, b)) in served.scores.iter().zip(&serial.scores).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "score {i} not bit-identical: {a} vs {b}"
        );
    }
}

/// The determinism invariant: served == serial, bit for bit, for any worker
/// count; and a cache hit replays the identical response.
#[test]
fn differential_vs_serial_rank_lineage() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();

    for workers in [1usize, 4] {
        let server = Server::start(
            bundle.clone(),
            ServeConfig {
                workers,
                cache_capacity: 64,
                ..Default::default()
            },
        );
        let handle = server.handle();
        // Submit concurrently so batching actually coalesces requests.
        let cold: Vec<RankResponse> = std::thread::scope(|scope| {
            let joins: Vec<_> = reqs
                .iter()
                .map(|r| {
                    let handle = handle.clone();
                    let r = r.clone();
                    scope.spawn(move || handle.rank(r).expect("cold rank"))
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for (served, serial) in cold.iter().zip(&serial) {
            assert!(!served.cached, "first pass must miss the cache");
            assert_bit_identical(served, serial);
        }
        // Second pass: every request hits the cache and replays bit-identically.
        for (req, serial) in reqs.iter().zip(&serial) {
            let warm = handle.rank(req.clone()).expect("warm rank");
            assert!(warm.cached, "second pass must hit the cache");
            assert_bit_identical(&warm, serial);
        }
        server.shutdown();
    }
}

/// With the batcher paused, submissions beyond the queue bound are rejected
/// immediately (Overloaded), not blocked; resuming serves the admitted ones.
#[test]
fn overload_rejects_instead_of_blocking() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let server = Server::start(
        bundle.clone(),
        ServeConfig {
            workers: 1,
            queue_depth: 3,
            cache_capacity: 0, // cache off so every submission consumes depth
            ..Default::default()
        },
    );
    let handle = server.handle();
    server.pause();

    // Fill the queue from background threads (rank() blocks until served).
    let waiters: Vec<_> = (0..3)
        .map(|i| {
            let handle = handle.clone();
            let req = reqs[i].clone();
            std::thread::spawn(move || handle.rank(req))
        })
        .collect();
    // Wait until all three are admitted.
    while handle.inflight() < 3 {
        std::thread::yield_now();
    }
    // The fourth must be rejected *now*, while the batcher is still paused —
    // admission control sheds rather than queueing unboundedly.
    assert_eq!(handle.rank(reqs[3].clone()), Err(ServeError::Overloaded));

    server.resume();
    for w in waiters {
        let resp = w.join().unwrap().expect("admitted request served");
        assert_eq!(resp.scores.len(), 6);
    }
    server.shutdown();
}

/// A request whose deadline passes while it is queued is shed with
/// DeadlineExceeded, not scored late.
#[test]
fn expired_deadline_is_shed() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let server = Server::start(
        bundle.clone(),
        ServeConfig {
            workers: 1,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let handle = server.handle();
    server.pause();
    let doomed = {
        let handle = handle.clone();
        let mut req = reqs[0].clone();
        req.deadline = Some(Duration::ZERO);
        std::thread::spawn(move || handle.rank(req))
    };
    while handle.inflight() < 1 {
        std::thread::yield_now();
    }
    // Paused long enough for Duration::ZERO to be over before dispatch.
    std::thread::sleep(Duration::from_millis(5));
    server.resume();
    assert_eq!(doomed.join().unwrap(), Err(ServeError::DeadlineExceeded));
    server.shutdown();
}

/// Shutdown drains: everything admitted before shutdown gets a real answer,
/// everything submitted after is refused.
#[test]
fn shutdown_drains_admitted_work() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();
    let server = Server::start(
        bundle.clone(),
        ServeConfig {
            workers: 2,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let handle = server.handle();
    server.pause(); // hold everything in the queue until shutdown
    let waiters: Vec<_> = reqs
        .iter()
        .map(|r| {
            let handle = handle.clone();
            let r = r.clone();
            std::thread::spawn(move || handle.rank(r))
        })
        .collect();
    while handle.inflight() < reqs.len() {
        std::thread::yield_now();
    }
    server.resume();
    server.shutdown(); // must block until every admitted request is answered
    for (w, serial) in waiters.into_iter().zip(&serial) {
        let resp = w.join().unwrap().expect("drained request served");
        assert_bit_identical(&resp, serial);
    }
    // The server is gone; a fresh handle submission is refused.
    assert_eq!(handle.rank(reqs[0].clone()), Err(ServeError::ShuttingDown));
}

/// Full TCP round-trip: the binary wire protocol preserves bit-identity.
#[test]
fn tcp_round_trip_is_bit_identical() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();
    let server = Server::start(bundle.clone(), ServeConfig::default());
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");
    let mut client = TcpRankClient::connect(tcp.local_addr()).expect("connect");
    for (req, serial) in reqs.iter().zip(&serial) {
        let resp = client.rank(req).expect("tcp rank");
        assert_bit_identical(&resp, serial);
    }
    // Errors cross the wire typed, not as transport failures.
    let bad = RankRequest {
        query_sql: "SELECT 1".into(),
        tuple: OutputTuple {
            values: vec![Value::Int(1)],
            derivations: Vec::new(),
        },
        lineage: vec![FactId(u32::MAX - 1)],
        deadline: None,
        slo: None,
    };
    match client.rank(&bad) {
        Err(ServeError::BadRequest(msg)) => assert!(msg.contains("unknown fact")),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    tcp.stop();
    server.shutdown();
}

/// Empty lineages and malformed requests answer immediately without
/// consuming queue depth.
#[test]
fn edge_requests_answer_inline() {
    let bundle = fixture_bundle();
    let server = Server::start(bundle.clone(), ServeConfig::default());
    let handle = server.handle();
    let empty = handle
        .rank(RankRequest {
            query_sql: "SELECT title FROM movies".into(),
            tuple: OutputTuple {
                values: vec![Value::Str("x".into())],
                derivations: Vec::new(),
            },
            lineage: Vec::new(),
            deadline: None,
            slo: None,
        })
        .expect("empty lineage is fine");
    assert!(empty.scores.is_empty() && empty.ranking.is_empty());
    assert_eq!(handle.inflight(), 0);

    let err = handle.rank(RankRequest {
        query_sql: String::new(),
        tuple: OutputTuple {
            values: Vec::new(),
            derivations: Vec::new(),
        },
        lineage: vec![FactId(0)],
        deadline: None,
        slo: None,
    });
    assert!(matches!(err, Err(ServeError::BadRequest(_))));
    server.shutdown();
}
