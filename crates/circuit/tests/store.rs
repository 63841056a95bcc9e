//! Store persistence and corruption-hardening tests.
//!
//! Contract under test: every way a persisted entry can go bad — truncation,
//! bit rot under the CRC, wrong magic, wrong version, injected mid-read
//! faults — yields a typed error internally, is counted in
//! `StoreStats::load_errors`, and the store transparently falls back to a
//! fresh compilation (whose scores re-persist a good entry). No panics,
//! ever. A new shape reaches disk only when its scores are attached, so the
//! tests that read a file attach scores first.

use ls_circuit::{CanonicalShape, CircuitEntry, CircuitStore, ShapeKey};
use ls_fault::{FaultKind, FaultPlan, FaultRule, FaultSpec};
use ls_provenance::Dnf;
use ls_relational::{FactId, Monomial};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn dnf(clauses: &[&[u32]]) -> Dnf {
    Dnf::from_monomials(
        clauses
            .iter()
            .map(|c| Monomial::from_facts(c.iter().map(|&i| FactId(i)).collect()))
            .collect(),
    )
}

fn wide_dnf() -> Dnf {
    dnf(&[&[0, 1], &[1, 2], &[2, 3, 4], &[5]])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ls_circuit_store_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Look `shape` up and attach placeholder scores: the write that persists a
/// freshly compiled shape.
fn scored(store: &CircuitStore, shape: &CanonicalShape) -> Arc<CircuitEntry> {
    let entry = store.get_or_compile_shape(shape);
    let scores = (0..entry.n_players).map(|i| f64::from(i) / 8.0).collect();
    store.put_scores(&entry, scores).unwrap();
    entry
}

/// Corrupt the persisted entry for `key` by rewriting its bytes with `f`.
fn mangle(dir: &Path, key: ShapeKey, f: impl FnOnce(Vec<u8>) -> Vec<u8>) {
    let path = dir.join(format!("{}.lsc", key.to_hex()));
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, f(bytes)).unwrap();
}

#[test]
fn cold_compile_then_warm_reload_round_trips() {
    let dir = temp_dir("roundtrip");
    let d = wide_dnf();

    let cold = CircuitStore::open(&dir, 8).unwrap();
    let shape = CanonicalShape::of(&d);
    let entry = scored(&cold, &shape);
    assert_eq!(cold.stats().misses, 1);
    assert!(cold.entry_path(shape.key).exists());

    // Second lookup in the same store: memory hit.
    let again = cold.get_or_compile_shape(&CanonicalShape::of(&d));
    assert_eq!(cold.stats().mem_hits, 1);
    assert!(Arc::ptr_eq(&entry, &again));

    // A brand-new store over the same directory loads from disk.
    let warm = CircuitStore::open(&dir, 8).unwrap();
    let loaded = warm.get_or_compile_shape(&CanonicalShape::of(&d));
    let stats = warm.stats();
    assert_eq!(
        (stats.disk_hits, stats.misses, stats.load_errors),
        (1, 0, 0)
    );
    assert_eq!(loaded.circuit.nodes(), entry.circuit.nodes());
    assert_eq!(loaded.root, entry.root);
    assert_eq!(loaded.model_count, entry.model_count);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn scores_persist_and_reload_bit_identically() {
    let dir = temp_dir("scores");
    let d = wide_dnf();
    let scores: Vec<f64> = vec![0.1, 1.0 / 3.0, 0.25, 0.5f64.sqrt(), 1e-300, 0.0];

    let a = CircuitStore::open(&dir, 8).unwrap();
    let entry = a.get_or_compile_shape(&CanonicalShape::of(&d));
    assert!(entry.scores().is_none());
    a.put_scores(&entry, scores.clone()).unwrap();
    assert_eq!(entry.scores().unwrap(), &scores[..]);

    let b = CircuitStore::open(&dir, 8).unwrap();
    let loaded = b.get_or_compile_shape(&CanonicalShape::of(&d));
    let got = loaded.scores().expect("scores round-trip through the file");
    assert_eq!(got.len(), scores.len());
    for (x, y) in scores.iter().zip(got) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_file_falls_back_to_fresh_compile() {
    let dir = temp_dir("trunc");
    let d = wide_dnf();
    let a = CircuitStore::open(&dir, 8).unwrap();
    let shape = CanonicalShape::of(&d);
    let original = scored(&a, &shape);
    mangle(&dir, shape.key, |bytes| bytes[..bytes.len() / 2].to_vec());

    let b = CircuitStore::open(&dir, 8).unwrap();
    let recovered = scored(&b, &CanonicalShape::of(&d));
    let stats = b.stats();
    assert_eq!(
        (stats.load_errors, stats.misses, stats.disk_hits),
        (1, 1, 0)
    );
    assert_eq!(recovered.circuit.nodes(), original.circuit.nodes());

    // The fallback's scores re-persisted a good entry: a third store
    // disk-hits.
    let c = CircuitStore::open(&dir, 8).unwrap();
    let _ = c.get_or_compile_shape(&CanonicalShape::of(&d));
    assert_eq!(c.stats().disk_hits, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_crc_byte_is_detected() {
    let dir = temp_dir("bitrot");
    let d = wide_dnf();
    let a = CircuitStore::open(&dir, 8).unwrap();
    let shape = CanonicalShape::of(&d);
    let _ = scored(&a, &shape);
    mangle(&dir, shape.key, |mut bytes| {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        bytes
    });

    let b = CircuitStore::open(&dir, 8).unwrap();
    let entry = b.get_or_compile_shape(&CanonicalShape::of(&d));
    assert_eq!(b.stats().load_errors, 1);
    assert!(entry.circuit.check_invariants(entry.root).is_ok());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wrong_magic_and_wrong_version_are_typed_rejections() {
    for (tag, patch) in [
        ("magic", 0usize), // first body byte: 'L' of "LSCS"
        ("version", 4),    // first version byte
    ] {
        let dir = temp_dir(tag);
        let d = wide_dnf();
        let a = CircuitStore::open(&dir, 8).unwrap();
        let shape = CanonicalShape::of(&d);
        let _ = scored(&a, &shape);
        // Patch inside the body, then re-seal so the CRC is valid — this
        // exercises the magic/version checks, not the checksum.
        mangle(&dir, shape.key, |bytes| {
            let body_len = bytes.len() - 16;
            let mut body = bytes[..body_len].to_vec();
            body[patch] ^= 0x01;
            ls_fault::seal(body)
        });

        let b = CircuitStore::open(&dir, 8).unwrap();
        let entry = b.get_or_compile_shape(&CanonicalShape::of(&d));
        assert_eq!(b.stats().load_errors, 1, "case {tag}");
        assert_eq!(b.stats().misses, 1, "case {tag}");
        assert!(!entry.circuit.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn shape_collision_guard_rejects_misfiled_entries() {
    let dir = temp_dir("misfile");
    let d1 = wide_dnf();
    let d2 = dnf(&[&[0], &[1, 2]]);
    let a = CircuitStore::open(&dir, 8).unwrap();
    let s1 = CanonicalShape::of(&d1);
    let _ = scored(&a, &s1);
    let s2 = CanonicalShape::of(&d2);
    let _ = scored(&a, &s2);
    // Copy d2's entry over d1's path: valid file, wrong shape.
    let bytes = fs::read(a.entry_path(s2.key)).unwrap();
    fs::write(a.entry_path(s1.key), bytes).unwrap();

    let b = CircuitStore::open(&dir, 8).unwrap();
    let entry = b.get_or_compile_shape(&CanonicalShape::of(&d1));
    assert_eq!(b.stats().load_errors, 1);
    // The recovered entry answers for d1's shape, not the misfiled d2.
    assert_eq!(entry.n_players as usize, d1.variables().len());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn faulty_read_mid_load_falls_back_without_panicking() {
    for kind in [FaultKind::Error, FaultKind::Corrupt, FaultKind::Truncate] {
        let dir = temp_dir(match kind {
            FaultKind::Error => "inj_err",
            FaultKind::Corrupt => "inj_corrupt",
            _ => "inj_trunc",
        });
        let d = wide_dnf();
        let seed_store = CircuitStore::open(&dir, 8).unwrap();
        let original = scored(&seed_store, &CanonicalShape::of(&d));

        // Fault every read at the store's injection site.
        let spec = FaultSpec::new().rule(FaultRule::every("circuit.store.read", kind, 1, 0));
        let injector = Arc::new(FaultPlan::compile(7, &spec));
        let chaotic = CircuitStore::open_with(&dir, 8, injector).unwrap();
        let entry = chaotic.get_or_compile_shape(&CanonicalShape::of(&d));
        let stats = chaotic.stats();
        assert_eq!(stats.load_errors, 1, "kind {kind:?}");
        assert_eq!(stats.misses, 1, "kind {kind:?}");
        assert_eq!(
            entry.circuit.nodes(),
            original.circuit.nodes(),
            "fallback compile must agree with the original"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn lru_evicts_but_disk_still_answers() {
    let dir = temp_dir("lru");
    let store = CircuitStore::open(&dir, 2).unwrap();
    // Four structurally distinct shapes (growing clause widths).
    let shapes: Vec<Dnf> = (0..4u32)
        .map(|i| {
            let clause: Vec<u32> = (0..=i).collect();
            dnf(&[&clause, &[10]])
        })
        .collect();
    for d in &shapes {
        let _ = scored(&store, &CanonicalShape::of(d));
    }
    assert!(store.stats().evictions >= 2);
    // Every shape still answers: evicted ones reload from disk.
    for d in &shapes {
        let e = store.get_or_compile_shape(&CanonicalShape::of(d));
        assert!(!e.circuit.is_empty());
    }
    assert!(store.stats().disk_hits >= 2);
    let _ = fs::remove_dir_all(&dir);
}

/// A write torn mid-stream by an injected fault — not hand-truncation —
/// leaves a partial `.lsc` on disk; the next store detects it, counts it,
/// falls back, and heals the file when the fresh entry's scores persist it.
#[test]
fn torn_write_via_injection_is_detected_and_healed() {
    use std::io::Write;

    let dir = temp_dir("torn_write");
    let d = wide_dnf();
    let seed_store = CircuitStore::open(&dir, 8).unwrap();
    let shape = CanonicalShape::of(&d);
    let original = scored(&seed_store, &shape);
    let path = seed_store.entry_path(shape.key);
    let good = fs::read(&path).unwrap();

    // Replay the persist through a FaultyWrite that tears the stream:
    // half the bytes land, then the writer goes dead mid-frame.
    let spec = FaultSpec::new().rule(FaultRule::at(
        "circuit.persist.write",
        FaultKind::Truncate,
        &[0],
    ));
    let injector = Arc::new(FaultPlan::compile(11, &spec));
    let file = fs::File::create(&path).unwrap();
    let mut writer = ls_fault::FaultyWrite::new(file, injector, "circuit.persist");
    writer
        .write_all(&good)
        .expect_err("the torn write must surface as an error");
    let torn = fs::read(&path).unwrap();
    assert!(
        torn.len() < good.len(),
        "fault injection must leave a short file ({} vs {})",
        torn.len(),
        good.len()
    );

    let healed = CircuitStore::open(&dir, 8).unwrap();
    let entry = scored(&healed, &CanonicalShape::of(&d));
    let stats = healed.stats();
    assert_eq!(stats.load_errors, 1, "torn file must be counted");
    assert_eq!(stats.misses, 1, "torn file must force a fresh compile");
    assert_eq!(
        entry.circuit.nodes(),
        original.circuit.nodes(),
        "fallback compile must agree with the original"
    );

    // The fallback's scores re-persisted it: a third store loads cleanly
    // from disk.
    let reread = CircuitStore::open(&dir, 8).unwrap();
    let _ = reread.get_or_compile_shape(&CanonicalShape::of(&d));
    let stats = reread.stats();
    assert_eq!(
        (stats.disk_hits, stats.load_errors),
        (1, 0),
        "the healed file must load without error"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Satellite pin: the `.lsc` footer checksum is the ONE `ls_fault::crc32`
/// (cross-checked against the WAL-side pin in `ls-wal` via the shared
/// published vector). If either side ever grows a private CRC, the footer
/// re-computation here diverges and this test fails.
#[test]
fn persisted_entry_footer_uses_the_shared_ls_fault_crc32() {
    assert_eq!(ls_fault::crc32(b"123456789"), 0xCBF4_3926);

    let dir = temp_dir("crc_pin");
    let d = wide_dnf();
    let store = CircuitStore::open(&dir, 8).unwrap();
    let shape = CanonicalShape::of(&d);
    let _ = scored(&store, &shape);
    let bytes = fs::read(store.entry_path(shape.key)).unwrap();

    // Footer layout: magic (4) + body length u64 + crc32 u32, all LE.
    assert!(bytes.len() > 16, "entry must carry a footer");
    let (body, footer) = bytes.split_at(bytes.len() - 16);
    assert_eq!(&footer[..4], b"LSFT");
    assert_eq!(
        u64::from_le_bytes(footer[4..12].try_into().unwrap()),
        body.len() as u64
    );
    let stored = u32::from_le_bytes(footer[12..16].try_into().unwrap());
    assert_eq!(
        stored,
        ls_fault::crc32(body),
        "footer crc must be ls_fault::crc32 of the body"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A new shape is written once: a compile alone leaves the directory empty
/// (the entry is resident, so `probe` still reports a cached circuit), the
/// first `put_scores` writes one sealed file carrying circuit and scores,
/// and a second `put_scores` on the same entry writes nothing.
#[test]
fn a_new_shape_is_written_once_by_put_scores() {
    let dir = temp_dir("write_once");
    let d = wide_dnf();
    let store = CircuitStore::open(&dir, 8).unwrap();
    let shape = CanonicalShape::of(&d);
    let files = || fs::read_dir(&dir).unwrap().count();

    let entry = store.get_or_compile_shape(&shape);
    assert_eq!(files(), 0, "a compile alone must not write");
    assert_eq!(store.probe(&shape), (true, false));

    let scores: Vec<f64> = (0..entry.n_players)
        .map(|i| 1.0 / f64::from(i + 3))
        .collect();
    store.put_scores(&entry, scores.clone()).unwrap();
    assert_eq!(files(), 1, "put_scores writes exactly one file");
    assert_eq!(store.probe(&shape), (true, true));
    let path = store.entry_path(shape.key);
    let bytes = fs::read(&path).unwrap();
    let data = ls_circuit::format::decode(ls_fault::unseal(&bytes).unwrap()).unwrap();
    assert_eq!(data.circuit.nodes(), entry.circuit.nodes());
    assert_eq!(data.model_count, entry.model_count);
    let stored = data.scores.expect("the one write carries the scores");
    assert_eq!(stored.len(), scores.len());
    for (x, y) in scores.iter().zip(&stored) {
        assert_eq!(x.to_bits(), y.to_bits());
    }

    // Remove the file: a second attach would have to write it again.
    fs::remove_file(&path).unwrap();
    store.put_scores(&entry, vec![0.5; scores.len()]).unwrap();
    assert_eq!(files(), 0, "a second put_scores must not write");
    assert_eq!(entry.scores().unwrap(), &scores[..], "first writer wins");
    let _ = fs::remove_dir_all(&dir);
}

/// With telemetry off, lookups count in `stats()` only: the
/// `circuit.store.*` obs counters stay put, so a traced run's counters
/// cover its traced windows alone. The obs level is process-global, and
/// nothing in this test binary turns telemetry on.
#[test]
fn lookups_reach_obs_counters_only_while_telemetry_is_on() {
    ls_obs::set_level(ls_obs::Level::Off);
    assert!(!ls_obs::enabled(), "run without LS_OBS_JSONL");
    let counters = || {
        [
            "circuit.store.misses",
            "circuit.store.mem_hits",
            "circuit.store.disk_hits",
        ]
        .map(|name| ls_obs::counter(name).get())
    };
    let before = counters();
    let dir = temp_dir("obs_gate");
    let shape = CanonicalShape::of(&wide_dnf());
    let cold = CircuitStore::open(&dir, 8).unwrap();
    scored(&cold, &shape);
    cold.get_or_compile_shape(&shape);
    let warm = CircuitStore::open(&dir, 8).unwrap();
    warm.get_or_compile_shape(&shape);
    assert_eq!(
        (
            cold.stats().misses,
            cold.stats().mem_hits,
            warm.stats().disk_hits
        ),
        (1, 1, 1)
    );
    assert_eq!(counters(), before, "obs counters moved with telemetry off");
    let _ = fs::remove_dir_all(&dir);
}
