//! Observability integration tests: end-to-end trace propagation over TCP,
//! per-stage latency attribution, tracing bit-identity, admin introspection
//! frames on the live rank port, and the flight recorder under fault
//! injection.
//!
//! The obs level, JSONL sink, and flight recorder are process-global, so
//! every test here serializes on one mutex and restores `Level::Off` when
//! it leaves.

use ls_core::{save_model, LearnShapleyModel, Tokenizer};
use ls_fault::{FaultKind, FaultPlan, FaultRule, FaultSpec};
use ls_nn::EncoderConfig;
use ls_obs::{Json, Level};
use ls_relational::{ColType, Database, FactId, OutputTuple, TableSchema, Value};
use ls_serve::{
    AdminCommand, ModelBundle, RankRequest, RankResponse, ServeConfig, ServeError, Server,
    TcpRankClient, TcpServer,
};
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};

const MAX_LEN: usize = 48;

/// One lock for the whole file: obs state is process-global.
fn env_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn lock_env() -> std::sync::MutexGuard<'static, ()> {
    env_lock().lock().unwrap_or_else(|e| e.into_inner())
}

/// In-memory JSONL sink whose bytes stay readable after the sink takes the
/// boxed writer (same idiom as crates/obs/tests/obs.rs).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn fixture_bundle() -> Arc<ModelBundle> {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "movies",
        &[("title", ColType::Str), ("year", ColType::Int)],
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
    let corpus = [
        "SELECT title FROM movies WHERE year > 1990",
        "movies Memento Dune Arrival Heat Alien Solaris Gattaca Brazil Akira Contact Moon Primer",
    ];
    let tokenizer = Tokenizer::build(corpus.iter().copied(), 600);
    let mut model = LearnShapleyModel::new(EncoderConfig::small_ablation(
        tokenizer.vocab_size(),
        MAX_LEN,
    ));
    let dir = std::env::temp_dir().join(format!(
        "ls-serve-trace-test-{}-{:?}",
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
    (0..6u32)
        .map(|i| RankRequest {
            query_sql: format!("SELECT title FROM movies WHERE year > {}", 1980 + i),
            tuple: OutputTuple {
                values: vec![Value::Str(format!("Title {i}")), Value::Int(i as i64)],
                derivations: Vec::new(),
            },
            // Stride 2 over 12 facts: 5 distinct ids for any offset `i`.
            lineage: (0..5).map(|j| FactId((i + j * 2) % n)).collect(),
            deadline: None,
            slo: None,
        })
        .collect()
}

/// The trace id a client mints must cross the wire and tag the server-side
/// span records — including spans closed on worker-pool threads, which is
/// exactly the cross-thread parenting the explicit `TraceContext` handoff
/// exists to fix.
#[test]
fn client_trace_id_reaches_server_side_jsonl_over_tcp() {
    let _guard = lock_env();
    ls_obs::set_level(Level::Summary);
    let buf = SharedBuf::default();
    ls_obs::init_jsonl_writer(Box::new(buf.clone()));

    let bundle = fixture_bundle();
    let mut reqs = requests(&bundle);
    let server = Server::start(
        bundle,
        ServeConfig {
            workers: 2,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");
    let mut client = TcpRankClient::connect(tcp.local_addr()).expect("connect");

    let ctx = ls_obs::TraceContext::root();
    let hex = format!("{:016x}", ctx.trace_id);
    {
        let _attached = ctx.attach();
        let req = reqs.remove(0);
        let resp = client.rank(&req).expect("rank over tcp");
        assert_eq!(resp.ranking.len(), req.lineage.len());
        let stages = resp.stages.expect("traced response carries stages");
        assert!(stages.total_us > 0, "server-side latency is measured");
    }

    tcp.stop();
    server.shutdown();
    ls_obs::flush();
    drop(ls_obs::take_jsonl_writer());
    ls_obs::set_level(Level::Off);

    let text = buf.contents();
    let spans_with_trace: Vec<&str> = text
        .lines()
        .filter(|l| {
            let Ok(r) = ls_obs::parse_json(l) else {
                return false;
            };
            r.get("t").and_then(Json::as_str) == Some("span")
                && r.get("trace").and_then(Json::as_str) == Some(hex.as_str())
        })
        .collect();
    let has = |name: &str| {
        spans_with_trace.iter().any(|l| {
            ls_obs::parse_json(l)
                .ok()
                .and_then(|r| r.get("name").and_then(Json::as_str).map(String::from))
                .as_deref()
                == Some(name)
        })
    };
    assert!(
        has("serve.tcp.request"),
        "connection-thread span tagged with the client trace: {text}"
    );
    assert!(
        has("serve.worker.chunk"),
        "worker-pool span tagged with the client trace: {text}"
    );
}

/// The stage breakdown is a partition of the server-side latency: the five
/// stages sum exactly to `total_us`, in-process and after a wire round trip.
/// Every answer the front-end encodes, queued or answered on the shard, is
/// timed in `serve.stage.serialize`.
#[test]
fn stage_breakdown_partitions_total_latency() {
    let _guard = lock_env();
    ls_obs::set_level(Level::Summary);
    let bundle = fixture_bundle();
    let server = Server::start(
        bundle.clone(),
        ServeConfig {
            workers: 2,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let handle = server.handle();
    let check = |resp: &RankResponse| {
        let b = resp.stages.expect("traced response has stages");
        assert_eq!(
            b.probe_us + b.queue_us + b.batch_us + b.score_us + b.other_us,
            b.total_us,
            "stages must partition the total: {b:?}"
        );
    };
    for req in requests(&bundle) {
        let ctx = ls_obs::TraceContext::root();
        let _attached = ctx.attach();
        check(&handle.rank(req).expect("rank"));
    }

    // Same invariant after encode/decode over a live TCP connection (the
    // client mints its own trace because the obs level is on).
    let serialized = || ls_obs::histogram("serve.stage.serialize").stats().count;
    let before = serialized();
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");
    let mut client = TcpRankClient::connect(tcp.local_addr()).expect("connect");
    let reqs = requests(&bundle);
    for req in &reqs {
        check(&client.rank(req).expect("rank over tcp"));
    }
    // An empty lineage is answered at admission, on the shard thread.
    let empty = RankRequest {
        lineage: Vec::new(),
        ..reqs[0].clone()
    };
    let inline = client.rank(&empty).expect("inline answer");
    assert!(inline.scores.is_empty());
    assert_eq!(
        serialized() - before,
        reqs.len() as u64 + 1,
        "every encoded answer is timed, the inline one included"
    );
    tcp.stop();
    server.shutdown();
    ls_obs::set_level(Level::Off);
}

/// Tracing is observation, not participation: with the cache off, responses
/// with tracing attached are bit-identical to untraced ones.
#[test]
fn tracing_does_not_perturb_scores() {
    let _guard = lock_env();
    let bundle = fixture_bundle();
    let server = Server::start(
        bundle.clone(),
        ServeConfig {
            workers: 2,
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let handle = server.handle();
    let reqs = requests(&bundle);

    ls_obs::set_level(Level::Off);
    let plain: Vec<RankResponse> = reqs
        .iter()
        .map(|r| handle.rank(r.clone()).expect("untraced rank"))
        .collect();
    assert!(plain.iter().all(|r| r.stages.is_none()));

    ls_obs::set_level(Level::Summary);
    let traced: Vec<RankResponse> = reqs
        .iter()
        .map(|r| {
            let ctx = ls_obs::TraceContext::root();
            let _attached = ctx.attach();
            handle.rank(r.clone()).expect("traced rank")
        })
        .collect();
    server.shutdown();
    ls_obs::set_level(Level::Off);

    for (a, b) in plain.iter().zip(&traced) {
        assert!(b.stages.is_some(), "traced responses carry stages");
        assert_eq!(a.ranking, b.ranking, "ranking unchanged by tracing");
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert_eq!(x.to_bits(), y.to_bits(), "scores bit-identical");
        }
    }
}

/// The rank port answers admin frames: metrics (with stage histograms),
/// operational state, active traces, and the flight-recorder ring.
#[test]
fn admin_frames_introspect_a_live_server() {
    let _guard = lock_env();
    ls_obs::set_level(Level::Summary);
    let bundle = fixture_bundle();
    let server = Server::start(
        bundle.clone(),
        ServeConfig {
            workers: 2,
            cache_capacity: 8,
            ..Default::default()
        },
    );
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");
    let mut client = TcpRankClient::connect(tcp.local_addr()).expect("connect");
    for req in requests(&bundle) {
        client.rank(&req).expect("rank");
    }

    let metrics = client.admin(AdminCommand::Metrics).expect("metrics");
    let hists = metrics.get("histograms").expect("histograms key");
    for h in ["serve.latency", "serve.stage.queue", "serve.stage.score"] {
        let st = hists.get(h).unwrap_or_else(|| panic!("{h} in snapshot"));
        assert!(
            st.get("count").and_then(Json::as_u64).unwrap_or(0) > 0,
            "{h} recorded"
        );
    }
    // Traced requests leave exemplars on the latency histogram.
    let exemplars = hists
        .get("serve.latency")
        .and_then(|h| h.get("exemplars"))
        .expect("latency histogram carries exemplars");
    match exemplars {
        Json::Arr(items) => assert!(!items.is_empty(), "at least one exemplar"),
        other => panic!("exemplars is an array, got {other:?}"),
    }

    let state = client.admin(AdminCommand::State).expect("state");
    assert_eq!(state.get("workers").and_then(Json::as_u64), Some(2));
    assert_eq!(
        state.get("breaker").and_then(Json::as_str),
        Some("closed"),
        "healthy server reports a closed breaker"
    );
    assert!(state.get("cache").and_then(|c| c.get("capacity")).is_some());

    let traces = client.admin(AdminCommand::Traces).expect("traces");
    assert!(
        matches!(traces, Json::Arr(_)),
        "traces listing is an array (drained after completion)"
    );

    let recorder = client.admin(AdminCommand::Recorder).expect("recorder");
    assert!(
        matches!(recorder, Json::Arr(_)),
        "recorder dump is an array"
    );

    tcp.stop();
    server.shutdown();
    ls_obs::set_level(Level::Off);
}

/// A panic injected by ls-fault must leave a black-box recording: the dump
/// is non-empty JSONL and contains the injected-fault event (site, rule
/// index, kind) recorded by the injector before the panic fired.
#[test]
fn injected_fault_lands_in_flight_recorder_dump() {
    let _guard = lock_env();
    ls_obs::recorder::enable(1024);
    let dir = std::env::temp_dir().join(format!(
        "ls-serve-trace-recorder-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("flight.jsonl");
    ls_obs::recorder::set_dump_path(dump.to_str().unwrap());
    ls_obs::recorder::install_panic_hook();

    let bundle = fixture_bundle();
    let spec = FaultSpec::new().rule(FaultRule::at("serve.worker.score", FaultKind::Panic, &[0]));
    let plan = Arc::new(FaultPlan::compile(7, &spec));
    let server = Server::start_with(
        bundle.clone(),
        ServeConfig {
            workers: 1,
            cache_capacity: 0,
            ..Default::default()
        },
        plan.clone(),
        None,
    );
    let handle = server.handle();
    let mut failed = 0usize;
    for req in requests(&bundle) {
        match handle.rank(req) {
            Ok(_) => {}
            Err(ServeError::Internal(msg)) => {
                failed += 1;
                assert!(msg.contains("panicked"), "unexpected message {msg:?}");
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    server.shutdown();
    assert_eq!(failed, 1, "the injected panic fails exactly one request");
    assert_eq!(plan.fired(), 1);

    // The worker's panic (although caught) ran the hook, which dumped the
    // ring to the configured path.
    let text = std::fs::read_to_string(&dump).expect("panic hook wrote the dump");
    assert!(!text.trim().is_empty(), "flight-recorder dump is non-empty");
    let fault = text
        .lines()
        .filter_map(|l| ls_obs::parse_json(l).ok())
        .find(|r| {
            r.get("kind").and_then(Json::as_str) == Some("fault")
                && r.get("name").and_then(Json::as_str) == Some("serve.worker.score")
        })
        .expect("injected-fault event present in the dump");
    // b packs (rule index << 8) | kind code; Panic is code 2, rule 0.
    assert_eq!(fault.get("b").and_then(Json::as_u64), Some(2));
    assert_eq!(
        fault.get("a").and_then(Json::as_u64),
        Some(0),
        "first hit at the site"
    );

    ls_obs::recorder::disable();
    let _ = std::fs::remove_dir_all(&dir);
}
