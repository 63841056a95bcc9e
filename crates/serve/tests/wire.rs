//! Wire-protocol tests: binary decoder robustness, the mandatory hello,
//! and bit-identity over the wire.
//!
//! Four contracts are pinned here:
//!
//! 1. **The binary decoder never panics.** Arbitrary byte soups and every
//!    truncation of a valid frame must come back as a typed [`FrameError`],
//!    not a panic or a bogus decode — the server feeds it bytes straight
//!    off the network.
//! 2. **Every connection opens with the hello.** A peer that skips it is
//!    torn unanswered without disturbing anyone else, and the client never
//!    sends a frame the server would have to tear.
//! 3. **The wire is invisible in the answers.** Served responses are
//!    bit-identical to the serial oracle on the epoll and poll backends,
//!    with one shard or several, pipelined or not.
//! 4. **Coalesced writes lose nothing.** Answers buffered together and
//!    written once per readiness event all arrive — to a half-closed client
//!    before its clean EOF, and to a client whose unread backlog pauses
//!    reading past the backpressure watermarks — on both poller backends.

use ls_core::{save_model, LearnShapleyModel, Tokenizer};
use ls_fault::NoFaults;
use ls_nn::EncoderConfig;
use ls_relational::{ColType, Database, FactId, OutputTuple, TableSchema, Value};
use ls_serve::{
    proto, Backend, FrameError, ModelBundle, RankRequest, RankResponse, ServeConfig, ServeError,
    Server, TcpOptions, TcpRankClient, TcpServer, Tier,
};
use proptest::prelude::*;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const MAX_LEN: usize = 48;

// ---------------------------------------------------------------------------
// Fixture (mirrors tests/serve.rs: persist a small model, load a bundle)
// ---------------------------------------------------------------------------

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
        "ls-wire-test-{}-{:?}",
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

// ---------------------------------------------------------------------------
// 1. Decoder robustness: typed errors, never panics
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes through every binary decode entry point: the only
    /// acceptable outcomes are a successful decode or a typed [`FrameError`].
    /// (Calling them at all is the assertion — a panic fails the test.)
    #[test]
    fn binary_decoders_never_panic_on_byte_soup(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let _ = proto::decode_binary_frame(&bytes);
        let _ = proto::decode_binary_response(&bytes);
        let _ = proto::decode_binary_feedback_response(&bytes);
        let _ = proto::decode_binary_admin_response(&bytes);
    }

    /// Valid request frames truncated at every prefix length must decode to
    /// a typed error, never a panic and never a bogus success.
    #[test]
    fn truncated_request_frames_yield_typed_errors(seed in 0u32..64) {
        let req = RankRequest {
            query_sql: format!("SELECT x FROM t WHERE y > {seed}"),
            tuple: OutputTuple {
                values: vec![Value::Str(format!("v{seed}")), Value::Int(seed as i64)],
                derivations: Vec::new(),
            },
            lineage: (0..(seed % 7)).map(FactId).collect(),
            deadline: None,
            slo: None,
        };
        let frame = proto::encode_binary_request(seed as u64, &req, None);
        let payload = &frame[4..]; // strip the length prefix
        prop_assert!(proto::decode_binary_frame(payload).is_ok());
        for cut in 0..payload.len() {
            // The Err type IS FrameError — any Err is a typed rejection.
            prop_assert!(
                proto::decode_binary_frame(&payload[..cut]).is_err(),
                "cut {cut}: truncated frame decoded",
            );
        }
    }

    /// Same for response frames, through the client-side decoder.
    #[test]
    fn truncated_response_frames_yield_typed_errors(seed in 0u32..64) {
        let resp = RankResponse {
            scores: (0..(seed % 5) as usize).map(|i| (i as f64) * 0.25 - 0.5).collect(),
            ranking: (0..(seed % 5)).map(FactId).collect(),
            cached: seed % 2 == 0,
            degraded: false,
            stages: None,
            tier: None,
        };
        let frame = proto::encode_binary_response(seed as u64, &Ok(resp));
        let payload = &frame[4..];
        prop_assert!(proto::decode_binary_response(payload).is_ok());
        for cut in 0..payload.len() {
            prop_assert!(
                proto::decode_binary_response(&payload[..cut]).is_err(),
                "cut {cut}: truncated frame decoded",
            );
        }
    }
}

#[test]
fn hello_rejects_wrong_magic_and_version_mismatch_is_visible() {
    // Round trip at the current version.
    let hello = proto::encode_hello(proto::BINARY_VERSION);
    assert_eq!(proto::decode_hello(&hello), Ok(proto::BINARY_VERSION));
    // A future version decodes (the caller decides compatibility).
    assert_eq!(proto::decode_hello(&proto::encode_hello(7)), Ok(7));
    // Wrong magic is a typed error.
    let mut bad = hello;
    bad[0] ^= 0xFF;
    assert!(matches!(
        proto::decode_hello(&bad),
        Err(FrameError::BadMagic(_))
    ));
}

// ---------------------------------------------------------------------------
// 2. The mandatory hello, and frames the server would have to tear
// ---------------------------------------------------------------------------

/// A connection that opens with an old-style JSON frame (a length prefix
/// where the magic belongs) gets no reply and is torn; the tear is counted
/// and another client on the same server keeps being served.
#[test]
fn connection_without_hello_is_torn_and_others_keep_serving() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial = serial_answer(&bundle, &reqs[0]);
    let server = Server::start(bundle, ServeConfig::default());
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");
    let torn = ls_obs::counter("serve.tcp.torn_connections");
    let before = torn.get();

    let mut stream = TcpStream::connect(tcp.local_addr()).expect("connect");
    let json = br#"{"id":1,"query":"SELECT title FROM movies","tuple":[],"lineage":[0]}"#;
    stream
        .write_all(&(json.len() as u32).to_le_bytes())
        .expect("prefix");
    stream.write_all(json).expect("payload");
    // Closed without a byte back — not even a hello ack. A reset counts as
    // closed too; the timeout turns a server that keeps waiting into a
    // failure, not a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = [0u8; 8];
    let closed = match stream.read(&mut buf) {
        Ok(n) => n == 0,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    };
    assert!(
        closed,
        "a connection without the hello must be torn unanswered"
    );
    assert_eq!(torn.get() - before, 1, "the tear must be counted once");

    let mut client = TcpRankClient::connect(tcp.local_addr()).expect("fresh connection");
    assert_bit_identical(&client.rank(&reqs[0]).expect("still serving"), &serial);
    tcp.stop();
    server.shutdown();
}

/// A request whose frame would exceed `MAX_FRAME` fails typed on the
/// client, and not one byte of it reaches the socket: the stub server
/// acks the hello and then sees only the client's hang-up.
#[test]
fn client_refuses_oversized_frame_before_writing() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("addr");
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut hello = [0u8; proto::HELLO_LEN];
        stream.read_exact(&mut hello).expect("hello");
        assert_eq!(proto::decode_hello(&hello), Ok(proto::BINARY_VERSION));
        stream
            .write_all(&proto::encode_hello(proto::BINARY_VERSION))
            .expect("ack");
        // Read until the client hangs up; the timeout turns a client that
        // wrote the frame and now waits for a reply into a failure, not a
        // hang.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        rest.len()
    });

    let mut client = TcpRankClient::connect(addr).expect("connect");
    let huge = RankRequest {
        query_sql: "x".repeat(proto::MAX_FRAME as usize + 1),
        tuple: OutputTuple {
            values: Vec::new(),
            derivations: Vec::new(),
        },
        lineage: vec![FactId(0)],
        deadline: None,
        slo: None,
    };
    match client.rank(&huge) {
        Err(ServeError::BadRequest(msg)) => assert!(msg.contains("exceeds cap"), "{msg}"),
        other => panic!("expected a typed BadRequest, got {other:?}"),
    }
    drop(client);
    assert_eq!(stub.join().expect("stub"), 0, "nothing may hit the wire");
}

// ---------------------------------------------------------------------------
// 3. Bit-identity over the wire: backends, shards, pipelining
// ---------------------------------------------------------------------------

/// The poll(2) backend with two shards serves the same answers — the
/// fallback path gets real coverage, not just the platform default.
#[test]
fn poll_backend_two_shards_round_trip() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();

    let server = Server::start(bundle, ServeConfig::default());
    let tcp = TcpServer::start_opts(
        server.handle(),
        "127.0.0.1:0",
        Arc::new(NoFaults),
        TcpOptions {
            shards: 2,
            backend: Some(Backend::Poll),
            ..TcpOptions::default()
        },
    )
    .expect("bind poll backend");
    let addr = tcp.local_addr();

    // Several clients so both shards see connections (round-robin accept).
    let mut clients: Vec<TcpRankClient> = (0..4)
        .map(|_| TcpRankClient::connect(addr).expect("client"))
        .collect();
    for (i, (req, oracle)) in reqs.iter().zip(&serial).enumerate() {
        let client = &mut clients[i % 4];
        assert_bit_identical(&client.rank(req).expect("rank"), oracle);
    }
    tcp.stop();
    server.shutdown();
}

/// Read one answer per entry of `expected`, in any order: the answer with
/// id `base + i` must be bit-identical to `expected[i]`, and no id may come
/// twice or fall outside the range.
fn read_answers(reader: &mut impl Read, base: u64, expected: &[&RankResponse]) {
    let mut seen = vec![false; expected.len()];
    for _ in 0..expected.len() {
        let payload = proto::read_frame(reader)
            .expect("read")
            .expect("eof before all answers");
        let (id, result) = proto::decode_binary_response(&payload).expect("decode");
        let i = id.checked_sub(base).expect("id below the burst") as usize;
        assert!(i < expected.len(), "unknown answer id {id}");
        assert!(!seen[i], "duplicate answer for id {id}");
        seen[i] = true;
        assert_bit_identical(&result.expect("rank ok"), expected[i]);
    }
}

/// Pipelining: many requests written back-to-back on one raw binary
/// connection, responses read afterward. Every response id must map to a
/// request and carry that request's answer — no mixing, no reordering of
/// payloads across ids.
#[test]
fn pipelined_binary_requests_never_mix() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();

    let server = Server::start(bundle, ServeConfig::default());
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");

    let mut stream = TcpStream::connect(tcp.local_addr()).expect("connect");
    proto::negotiate(&mut stream).expect("hello");

    // Burst: ids 10..10+n, two rounds through the request set, all written
    // before any response is read.
    let n = reqs.len() * 2;
    for i in 0..n {
        let id = 10 + i as u64;
        let frame = proto::encode_binary_request(id, &reqs[i % reqs.len()], None);
        stream.write_all(&frame).expect("write");
    }
    let expected: Vec<&RankResponse> = (0..n).map(|i| &serial[i % reqs.len()]).collect();
    read_answers(&mut BufReader::new(stream), 10, &expected);
    tcp.stop();
    server.shutdown();
}

/// Garbage inside a well-formed binary frame gets a typed id-0 error reply
/// and the connection keeps serving — only torn framing poisons it.
#[test]
fn binary_garbage_frame_gets_typed_reply_connection_survives() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial = serial_answer(&bundle, &reqs[0]);

    let server = Server::start(bundle, ServeConfig::default());
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind");

    let mut stream = TcpStream::connect(tcp.local_addr()).expect("connect");
    proto::negotiate(&mut stream).expect("hello");

    // A correctly length-prefixed frame whose payload is junk.
    let junk = [0xEEu8; 13];
    stream
        .write_all(&(junk.len() as u32).to_le_bytes())
        .expect("prefix");
    stream.write_all(&junk).expect("junk");

    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let payload = proto::read_frame(&mut reader)
        .expect("read reply")
        .expect("server must reply, not hang up");
    let (id, result) = proto::decode_binary_response(&payload).expect("typed reply");
    assert_eq!(id, 0, "garbage frames are answered under the sentinel id");
    assert!(
        matches!(result, Err(ServeError::BadRequest(_))),
        "expected BadRequest, got {result:?}"
    );

    // The same connection still serves a real request afterward.
    stream
        .write_all(&proto::encode_binary_request(42, &reqs[0], None))
        .expect("write real request");
    let payload = proto::read_frame(&mut reader)
        .expect("read")
        .expect("connection should have survived the garbage frame");
    let (id, result) = proto::decode_binary_response(&payload).expect("decode");
    assert_eq!(id, 42);
    assert_bit_identical(&result.expect("rank ok"), &serial);
    tcp.stop();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// 4. The coalesced write path: half-close and backpressure
// ---------------------------------------------------------------------------

fn backends() -> Vec<Backend> {
    #[cfg(target_os = "linux")]
    {
        vec![Backend::Epoll, Backend::Poll]
    }
    #[cfg(not(target_os = "linux"))]
    {
        vec![Backend::Poll]
    }
}

/// Open a raw binary connection (hello done) with a read timeout, so a
/// server that stops answering fails the test instead of hanging it.
fn raw_connection(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    proto::negotiate(&mut stream).expect("hello");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
}

/// A client pipelines cache hits and one learned miss, then shuts its
/// write half: it still reads every answer — the hits answered on the
/// shard, the miss later from the worker pool — and then a clean EOF once
/// nothing is in flight.
#[test]
fn half_closed_client_reads_every_answer_then_clean_eof() {
    let bundle = fixture_bundle();
    let reqs = requests(&bundle);
    let serial: Vec<RankResponse> = reqs.iter().map(|r| serial_answer(&bundle, r)).collect();
    let miss = reqs.len() - 1;
    for backend in backends() {
        let server = Server::start(bundle.clone(), ServeConfig::default());
        let handle = server.handle();
        for req in &reqs[..miss] {
            handle.rank(req.clone()).expect("warm the cache");
        }
        let tcp = TcpServer::start_opts(
            server.handle(),
            "127.0.0.1:0",
            Arc::new(NoFaults),
            TcpOptions {
                backend: Some(backend),
                ..TcpOptions::default()
            },
        )
        .expect("bind");
        let mut stream = raw_connection(tcp.local_addr());

        // Two rounds of the hits, with the miss between them.
        let order: Vec<usize> = (0..miss).chain([miss]).chain(0..miss).collect();
        let mut burst = Vec::new();
        for (i, &r) in order.iter().enumerate() {
            burst.extend(proto::encode_binary_request(100 + i as u64, &reqs[r], None));
        }
        stream.write_all(&burst).expect("write burst");
        stream.shutdown(Shutdown::Write).expect("half-close");

        let expected: Vec<&RankResponse> = order.iter().map(|&r| &serial[r]).collect();
        let mut reader = BufReader::new(stream);
        read_answers(&mut reader, 100, &expected);
        assert!(
            proto::read_frame(&mut reader)
                .expect("clean close")
                .is_none(),
            "{backend:?}: the server must close cleanly after the last answer"
        );
        tcp.stop();
        server.shutdown();
    }
}

/// A client writes a burst whose answers outgrow the kernel's socket
/// buffers before it reads anything, against a server with small
/// `high_water`/`low_water` marks: the shard pauses reading that
/// connection (`serve.tcp.paused` counts it), resumes as the client
/// drains, and every answer arrives bit-identical on a connection that
/// keeps serving afterwards. The counter is process-wide, but the other
/// tests here keep the default 1 MiB high-water mark and never buffer that
/// much unsent.
#[test]
fn backpressured_burst_gets_every_answer_and_keeps_the_connection() {
    let bundle = fixture_bundle();
    let n_facts = bundle.db.fact_count() as u32;
    // A long lineage (facts repeat; each entry is scored) makes each answer
    // ~1.7 KB from a ~0.9 KB request, so the burst's ~7 MB of answers
    // outgrow what loopback socket buffers hold (~4 MB with Linux
    // autotuning) and the shard must pause.
    let wide = RankRequest {
        lineage: (0..200).map(|j| FactId(j % n_facts)).collect(),
        ..requests(&bundle)[0].clone()
    };
    let oracle = serial_answer(&bundle, &wide);
    let server = Server::start(bundle.clone(), ServeConfig::default());
    server.handle().rank(wide.clone()).expect("warm the cache");
    let n = 4000;
    let paused = ls_obs::counter("serve.tcp.paused");
    for backend in backends() {
        let pauses_before = paused.get();
        let tcp = TcpServer::start_opts(
            server.handle(),
            "127.0.0.1:0",
            Arc::new(NoFaults),
            TcpOptions {
                shards: 1,
                backend: Some(backend),
                high_water: 16 << 10,
                low_water: 4 << 10,
            },
        )
        .expect("bind");
        let mut stream = raw_connection(tcp.local_addr());
        let burst: Vec<u8> = (0..n)
            .flat_map(|i| proto::encode_binary_request(i, &wide, None))
            .collect();
        // A thread of its own: once the shard pauses, the burst's tail
        // waits in the socket until the client reads.
        let mut writer = stream.try_clone().expect("clone");
        let write = std::thread::spawn(move || writer.write_all(&burst).expect("write burst"));
        // Read nothing until the shard has had the passes to take the whole
        // burst: each answer on a second connection to the one shard is a
        // further pass, and every pass reads the burst's connection unless
        // it is paused.
        let mut ping = TcpRankClient::connect(tcp.local_addr()).expect("ping connection");
        for _ in 0..200 {
            assert_bit_identical(&ping.rank(&wide).expect("ping"), &oracle);
        }
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        read_answers(&mut reader, 0, &vec![&oracle; n as usize]);
        write.join().expect("writer");
        assert!(
            paused.get() > pauses_before,
            "{backend:?}: the burst's backlog must pause reading its connection"
        );

        // The connection survived the pause and still serves.
        stream
            .write_all(&proto::encode_binary_request(n, &wide, None))
            .expect("write after the burst");
        read_answers(&mut reader, n, &[&oracle]);
        tcp.stop();
    }
    server.shutdown();
}
