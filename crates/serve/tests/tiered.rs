//! SLO-tiered answer path: the acceptance tests for tier selection.
//!
//! A wide-join workload (60 facts, 30 derivations) is served under three
//! latency budgets and must land on three different tiers, each recorded in
//! the response: loose → exact (circuit store), medium → learned (model
//! pipeline), tight → sampled (stratified estimator). Exact-tier scores are
//! pinned bit-identical to the plain Shapley engine; sampled responses are
//! reproducible (shape-seeded); a warm store flips a tight budget back to
//! exact; and the tier tag survives the TCP wire.

use ls_circuit::CircuitStore;
use ls_core::{save_model, LearnShapleyModel, Tokenizer};
use ls_nn::EncoderConfig;
use ls_provenance::Dnf;
use ls_relational::{ColType, Database, FactId, Monomial, OutputTuple, TableSchema, Value};
use ls_serve::{
    ModelBundle, RankRequest, RankResponse, ServeConfig, Server, TcpRankClient, TcpServer, Tier,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const MAX_LEN: usize = 48;

/// Budgets calibrated against `SloPolicy::default()` for the wide shape
/// below (60 players, 30 clauses): exact ≈ 3.2 ms, learned ≈ 0.53 ms.
const LOOSE: Duration = Duration::from_millis(100);
const MEDIUM: Duration = Duration::from_millis(1);
const TIGHT: Duration = Duration::from_micros(100);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ls-tiered-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Two tables of 32 facts each: enough for a 60-player wide-join lineage
/// and a non-trivial relation stratification for the sampled tier.
fn wide_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "orders",
        &[("id", ColType::Int), ("item", ColType::Str)],
    ));
    db.create_table(TableSchema::new(
        "parts",
        &[("id", ColType::Int), ("name", ColType::Str)],
    ));
    for i in 0..32i64 {
        db.insert(
            "orders",
            vec![Value::Int(i), Value::Str(format!("item {i}"))],
        );
    }
    for i in 0..32i64 {
        db.insert(
            "parts",
            vec![Value::Int(i), Value::Str(format!("part {i}"))],
        );
    }
    db
}

fn fixture_bundle() -> Arc<ModelBundle> {
    let db = wide_db();
    let corpus = [
        "SELECT item FROM orders JOIN parts ON orders.id = parts.id",
        "orders parts item part id 0 1 2 3 4 5 6 7",
    ];
    let tokenizer = Tokenizer::build(corpus.iter().copied(), 600);
    let mut model = LearnShapleyModel::new(EncoderConfig::small_ablation(
        tokenizer.vocab_size(),
        MAX_LEN,
    ));
    let dir = tmp_dir("model");
    let path = dir.join("model.lsmd");
    save_model(&mut model, &tokenizer, &path).expect("save");
    let bundle = ModelBundle::load(&path, db, MAX_LEN).expect("load");
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(bundle)
}

/// A wide-join request: 30 two-fact derivations pairing order i with part
/// i (facts 0..30 and 32..62), 60 distinct players total.
fn wide_request(slo: Option<Duration>) -> RankRequest {
    let derivations: Vec<Monomial> = (0..30u32)
        .map(|i| Monomial::from_facts(vec![FactId(i), FactId(32 + i)]))
        .collect();
    let lineage: Vec<FactId> = derivations
        .iter()
        .flat_map(|m| m.facts().to_vec())
        .collect();
    RankRequest {
        query_sql: "SELECT item FROM orders JOIN parts ON orders.id = parts.id".into(),
        tuple: OutputTuple {
            values: vec![Value::Str("item 0".into())],
            derivations,
        },
        lineage,
        deadline: None,
        slo,
    }
}

/// A structurally different lineage shape (a 31-fact chain: clause i =
/// {i, i+1}) that no pairing request warms: canonicalization maps every
/// disjoint pairing to one shared shape, so a *cold* tight-budget probe
/// needs a genuinely different clause structure, not just renamed facts.
fn chain_request(slo: Option<Duration>) -> RankRequest {
    let derivations: Vec<Monomial> = (0..30u32)
        .map(|i| Monomial::from_facts(vec![FactId(i), FactId(i + 1)]))
        .collect();
    RankRequest {
        query_sql: "SELECT item FROM orders JOIN parts ON orders.id = parts.id".into(),
        tuple: OutputTuple {
            values: vec![Value::Str("item 1".into())],
            derivations,
        },
        lineage: (0..31).map(FactId).collect(),
        deadline: None,
        slo,
    }
}

fn store_server(bundle: Arc<ModelBundle>, tag: &str) -> (Server, PathBuf) {
    let dir = tmp_dir(tag);
    let store = Arc::new(CircuitStore::open(&dir, 32).expect("store"));
    let server = Server::start_with_store(
        bundle,
        ServeConfig {
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        },
        store,
    );
    (server, dir)
}

/// The acceptance criterion: on the same wide-join request, tight vs loose
/// budgets demonstrably pick different tiers and each response records the
/// tier that answered it.
#[test]
fn budgets_select_three_distinct_tiers() {
    let bundle = fixture_bundle();
    let (server, dir) = store_server(bundle, "three-tiers");
    let handle = server.handle();

    // Medium goes first: once the loose request compiles and scores this
    // shape, cached scores make exact fit *any* budget (tested below).
    let medium = handle.rank(wide_request(Some(MEDIUM))).expect("medium");
    assert_eq!(
        medium.tier,
        Some(Tier::Learned),
        "medium budget must ride the model pipeline"
    );

    let loose = handle.rank(wide_request(Some(LOOSE))).expect("loose");
    assert_eq!(loose.tier, Some(Tier::Exact), "loose budget must go exact");

    let tight = handle.rank(wide_request(Some(TIGHT))).expect("tight");
    // The store is warm after the loose request compiled + scored this
    // shape, so re-probe flips even the tight budget to exact; use a fresh
    // shape (different pairing) to exercise the cold tight path.
    assert_eq!(tight.tier, Some(Tier::Exact), "warm store upgrades tight");

    let sampled = handle.rank(chain_request(Some(TIGHT))).expect("sampled");
    assert_eq!(
        sampled.tier,
        Some(Tier::Sampled),
        "cold tight budget must sample"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exact-tier responses are the ground truth: bit-identical to the plain
/// Shapley engine evaluated on the request's provenance.
#[test]
fn exact_tier_matches_plain_shapley_bitwise() {
    let bundle = fixture_bundle();
    let (server, dir) = store_server(bundle, "exact-bits");
    let handle = server.handle();

    let req = wide_request(Some(LOOSE));
    let dnf = Dnf::from_monomials(req.tuple.derivations.clone());
    let expected = ls_shapley::shapley_values(&dnf);

    let resp = handle.rank(req.clone()).expect("exact");
    assert_eq!(resp.tier, Some(Tier::Exact));
    assert_eq!(resp.scores.len(), req.lineage.len());
    for (f, got) in req.lineage.iter().zip(&resp.scores) {
        let want = expected.get(f).copied().unwrap_or(0.0);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "fact {f:?} diverges from the exact engine"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sampled responses are reproducible: the estimator is seeded by the
/// canonical lineage shape, so identical requests answer identically.
#[test]
fn sampled_tier_is_deterministic_per_request() {
    let bundle = fixture_bundle();
    let (server, dir) = store_server(bundle, "sampled-det");
    let handle = server.handle();

    let a = handle.rank(wide_request(Some(TIGHT))).expect("first");
    let b = handle.rank(wide_request(Some(TIGHT))).expect("second");
    assert_eq!(a.tier, Some(Tier::Sampled));
    assert_eq!(b.tier, Some(Tier::Sampled));
    assert_eq!(a.ranking, b.ranking);
    for (x, y) in a.scores.iter().zip(&b.scores) {
        assert_eq!(x.to_bits(), y.to_bits(), "sampled replay not bit-identical");
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Requests with no SLO (and servers with no store) keep the legacy path:
/// the model pipeline answers and tags itself as the learned tier.
#[test]
fn no_slo_or_no_store_rides_the_learned_pipeline() {
    let bundle = fixture_bundle();

    let (server, dir) = store_server(bundle.clone(), "no-slo");
    let resp = server.handle().rank(wide_request(None)).expect("no slo");
    assert_eq!(resp.tier, Some(Tier::Learned));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let server = Server::start(bundle, ServeConfig::default());
    let resp = server
        .handle()
        .rank(wide_request(Some(TIGHT)))
        .expect("no store");
    assert_eq!(
        resp.tier,
        Some(Tier::Learned),
        "storeless servers ignore slo"
    );
    server.shutdown();
}

/// The tier tag, SLO budget, and derivations all survive the binary wire:
/// a TCP client gets the same tiers the in-process path picks.
#[test]
fn tier_survives_the_tcp_wire() {
    let bundle = fixture_bundle();
    let (server, dir) = store_server(bundle, "tcp");
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("tcp server");
    let mut client = TcpRankClient::connect(tcp.local_addr()).expect("connect");

    let loose: RankResponse = client.rank(&wide_request(Some(LOOSE))).expect("loose");
    assert_eq!(loose.tier, Some(Tier::Exact));

    // A fresh clause structure so the warm store doesn't upgrade the tight
    // budget (renamed facts alone share the canonical shape).
    let sampled: RankResponse = client.rank(&chain_request(Some(TIGHT))).expect("tight");
    assert_eq!(sampled.tier, Some(Tier::Sampled));

    let learned: RankResponse = client.rank(&wide_request(None)).expect("legacy");
    assert_eq!(learned.tier, Some(Tier::Learned));

    tcp.stop();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
