//! The keyed, persisted compiled-circuit store.
//!
//! Circuits are indexed by their [`ShapeKey`]: recurring lineage *shapes* —
//! across output tuples, dataset builds, and serving — compile once and
//! load thereafter. An in-process LRU keeps hot entries resident. A fresh
//! compile stays resident only; attaching its canonical Shapley scores
//! ([`CircuitStore::put_scores`]) is the one write of a new shape: circuit,
//! model count and scores in one `ls_fault::persist` file (crash-atomic
//! `write_atomic`, CRC-sealed footer), so a warm hit is a pure lookup.
//!
//! Loads are hardened: every corruption mode (truncation, bit rot, wrong
//! magic/version, injected mid-read faults via [`ls_fault::FaultyRead`])
//! yields a typed [`StoreError`], bumps `circuit.store.load_errors`, and
//! falls back to a fresh compilation, whose scores then replace the bad
//! file. The store never panics on bad bytes and never serves a circuit
//! whose recorded canonical clauses or universe size disagree with the
//! requested shape, or whose variables leave that universe.

use crate::format::{self, EntryData, StoreError};
use crate::shape::{CanonicalShape, ShapeKey};
use ls_fault::{persist, FaultyRead, Injector, NoFaults};
use ls_provenance::{compile, BigNat, Circuit, CompileOptions, NodeId};
use std::collections::HashMap;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A resident store entry: the compiled canonical circuit plus cached
/// canonical Shapley scores once some consumer has computed them.
#[derive(Debug)]
pub struct CircuitEntry {
    /// The shape this entry answers for.
    pub key: ShapeKey,
    /// Canonical universe size.
    pub n_players: u32,
    /// Canonical clause list (the collision guard stored in the file).
    pub clauses: Vec<Vec<u32>>,
    /// Root of the compiled circuit.
    pub root: NodeId,
    /// Compiled decision-DNNF over canonical facts `0..n_players`.
    pub circuit: Circuit,
    /// Exact model count over the canonical universe.
    pub model_count: BigNat,
    scores: OnceLock<Vec<f64>>,
}

impl CircuitEntry {
    /// Cached canonical Shapley scores, if computed (`scores()[i]` belongs
    /// to canonical fact `i`).
    pub fn scores(&self) -> Option<&[f64]> {
        self.scores.get().map(Vec::as_slice)
    }

    fn from_data(key: ShapeKey, data: EntryData) -> CircuitEntry {
        let scores_lock = OnceLock::new();
        if let Some(s) = data.scores {
            let _ = scores_lock.set(s);
        }
        CircuitEntry {
            key,
            n_players: data.n_players,
            clauses: data.clauses,
            root: data.root,
            circuit: data.circuit,
            model_count: data.model_count,
            scores: scores_lock,
        }
    }
}

/// Monotonic store statistics (process-local; the lookup counts are
/// mirrored to `circuit.store.*` obs counters while telemetry is on).
/// `disk_hits + mem_hits` over total lookups is the warm hit rate CI
/// asserts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered from the in-process LRU.
    pub mem_hits: u64,
    /// Lookups answered by loading + verifying a persisted entry.
    pub disk_hits: u64,
    /// Lookups that compiled fresh (no usable persisted entry).
    pub misses: u64,
    /// Persisted entries that failed to load (typed error, fell back).
    pub load_errors: u64,
    /// Entries dropped from the LRU.
    pub evictions: u64,
}

struct Lru {
    map: HashMap<ShapeKey, (Arc<CircuitEntry>, u64)>,
    tick: u64,
}

/// The store. Cheap to share behind an `Arc`; all methods take `&self`.
pub struct CircuitStore {
    dir: PathBuf,
    capacity: usize,
    injector: Arc<dyn Injector>,
    lru: Mutex<Lru>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    load_errors: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for CircuitStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitStore")
            .field("dir", &self.dir)
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Count one lookup outcome: always in `stat`, which
/// [`CircuitStore::stats`] reports (the offline rebuild check reads it), and
/// in the `ls_obs` counter `name` only while telemetry is on, so a traced
/// run's counter covers its traced windows alone.
fn count_lookup(stat: &AtomicU64, name: &'static str) {
    stat.fetch_add(1, Ordering::Relaxed);
    if ls_obs::enabled() {
        ls_obs::counter(name).incr();
    }
}

impl CircuitStore {
    /// Open (creating if needed) a store rooted at `dir`, keeping up to
    /// `capacity` circuits resident in memory.
    pub fn open(dir: impl Into<PathBuf>, capacity: usize) -> io::Result<CircuitStore> {
        Self::open_with(dir, capacity, Arc::new(NoFaults))
    }

    /// [`CircuitStore::open`] with a fault injector interposed on entry
    /// reads (site `circuit.store.read`), for chaos testing the load path.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        capacity: usize,
        injector: Arc<dyn Injector>,
    ) -> io::Result<CircuitStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CircuitStore {
            dir,
            capacity: capacity.max(1),
            injector,
            lru: Mutex::new(Lru {
                map: HashMap::new(),
                tick: 0,
            }),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            load_errors: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            load_errors: self.load_errors.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Path of the persisted entry for `key`.
    pub fn entry_path(&self, key: ShapeKey) -> PathBuf {
        self.dir.join(format!("{}.lsc", key.to_hex()))
    }

    /// The compiled circuit of `shape` — from memory, from disk, or by
    /// compiling fresh (in that order). Always succeeds: every load failure
    /// is typed, counted, and recovered by compilation. A fresh compile is
    /// kept resident but not written: [`CircuitStore::put_scores`] persists
    /// it.
    pub fn get_or_compile_shape(&self, shape: &CanonicalShape) -> Arc<CircuitEntry> {
        if let Some(entry) = self.probe_memory(shape.key) {
            count_lookup(&self.mem_hits, "circuit.store.mem_hits");
            return entry;
        }
        match self.load(shape) {
            Ok(Some(entry)) => {
                count_lookup(&self.disk_hits, "circuit.store.disk_hits");
                let entry = Arc::new(entry);
                self.insert(Arc::clone(&entry));
                return entry;
            }
            Ok(None) => {} // no persisted entry — plain miss
            Err(e) => self.count_load_error(match e {
                StoreError::Io(_) => "circuit.store.load_errors.io",
                StoreError::BadMagic => "circuit.store.load_errors.magic",
                StoreError::VersionMismatch(_) => "circuit.store.load_errors.version",
                StoreError::Corrupt(_) => "circuit.store.load_errors.corrupt",
                StoreError::ShapeMismatch => "circuit.store.load_errors.shape",
            }),
        }
        count_lookup(&self.misses, "circuit.store.misses");
        self.compile_resident(shape)
    }

    /// Replace the entry for `shape` after its circuit failed a check only
    /// scoring makes — a negative marginal count, which no compilation of a
    /// monotone lineage has: count a load error and compile afresh. The
    /// fresh entry's [`CircuitStore::put_scores`] writes over the bad file.
    pub fn recompile(&self, shape: &CanonicalShape) -> Arc<CircuitEntry> {
        self.count_load_error("circuit.store.load_errors.marginal");
        self.compile_resident(shape)
    }

    fn count_load_error(&self, kind: &'static str) {
        self.load_errors.fetch_add(1, Ordering::Relaxed);
        ls_obs::counter("circuit.store.load_errors").incr();
        ls_obs::counter(kind).incr();
    }

    fn compile_resident(&self, shape: &CanonicalShape) -> Arc<CircuitEntry> {
        let entry = Arc::new(self.compile_fresh(shape));
        self.insert(Arc::clone(&entry));
        entry
    }

    /// Attach canonical Shapley scores to an entry and persist the entry —
    /// circuit, model count and scores in one sealed write — so future
    /// loads of this shape skip compiling and counting entirely. This is
    /// the only write of a freshly compiled shape. First writer wins; later
    /// calls with the same entry write nothing.
    pub fn put_scores(&self, entry: &Arc<CircuitEntry>, scores: Vec<f64>) -> io::Result<()> {
        debug_assert_eq!(scores.len(), entry.n_players as usize);
        if entry.scores.set(scores).is_err() {
            return Ok(()); // already attached (and persisted) by another caller
        }
        self.persist(entry)
    }

    /// Cheap cache probe for tier selection: `(circuit_cached,
    /// scores_cached)` for `shape`. Resident entries answer both questions;
    /// a persisted-but-not-loaded file counts as a cached circuit with
    /// unknown (reported `false`) scores. Never loads, compiles, or bumps
    /// the hit/miss statistics.
    pub fn probe(&self, shape: &CanonicalShape) -> (bool, bool) {
        let resident = {
            let lru = ls_fault::lock_safe(&self.lru);
            lru.map.get(&shape.key).map(|(e, _)| e.scores().is_some())
        };
        match resident {
            Some(has_scores) => (true, has_scores),
            None => (self.entry_path(shape.key).exists(), false),
        }
    }

    fn probe_memory(&self, key: ShapeKey) -> Option<Arc<CircuitEntry>> {
        let mut lru = ls_fault::lock_safe(&self.lru);
        lru.tick += 1;
        let tick = lru.tick;
        let (entry, last_use) = lru.map.get_mut(&key)?;
        *last_use = tick;
        Some(Arc::clone(entry))
    }

    fn insert(&self, entry: Arc<CircuitEntry>) {
        let mut lru = ls_fault::lock_safe(&self.lru);
        lru.tick += 1;
        let tick = lru.tick;
        lru.map.insert(entry.key, (entry, tick));
        while lru.map.len() > self.capacity {
            // Counter-scan eviction: O(n) on overflow, fine at the small
            // resident capacities the store runs with.
            let Some(&coldest) = lru.map.iter().min_by_key(|(_, (_, t))| *t).map(|(k, _)| k) else {
                break;
            };
            lru.map.remove(&coldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            ls_obs::counter("circuit.store.evictions").incr();
        }
    }

    /// Try to load + verify the persisted entry for `shape`.
    /// `Ok(None)` = no file; `Err` = file exists but is unusable.
    fn load(&self, shape: &CanonicalShape) -> Result<Option<CircuitEntry>, StoreError> {
        let path = self.entry_path(shape.key);
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let start = Instant::now();
        let mut reader = FaultyRead::new(file, Arc::clone(&self.injector), "circuit.store");
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let body = persist::unseal(&bytes)?;
        let data = format::decode(body)?;
        if data.n_players as usize != shape.n_players() || data.clauses != shape.clauses {
            return Err(StoreError::ShapeMismatch);
        }
        ls_obs::histogram("circuit.load_us").record(start.elapsed().as_secs_f64() * 1e6);
        ls_obs::counter("circuit.store.bytes_read").add(bytes.len() as u64);
        Ok(Some(CircuitEntry::from_data(shape.key, data)))
    }

    fn compile_fresh(&self, shape: &CanonicalShape) -> CircuitEntry {
        let start = Instant::now();
        let mut span = ls_obs::span("circuit.compile");
        let dnf = shape.canonical_dnf();
        let compiled = compile(&dnf, CompileOptions::default());
        let universe: Vec<ls_relational::FactId> = (0..shape.n_players() as u32)
            .map(ls_relational::FactId)
            .collect();
        let model_count = compiled.circuit.count_models(compiled.root, &universe);
        span.record("nodes", compiled.stats.nodes as u64);
        ls_obs::histogram("circuit.compile_us").record(start.elapsed().as_secs_f64() * 1e6);
        CircuitEntry {
            key: shape.key,
            n_players: shape.n_players() as u32,
            clauses: shape.clauses.clone(),
            root: compiled.root,
            circuit: compiled.circuit,
            model_count,
            scores: OnceLock::new(),
        }
    }

    fn persist(&self, entry: &CircuitEntry) -> io::Result<()> {
        let body = format::encode_parts(
            entry.n_players,
            &entry.clauses,
            entry.root,
            &entry.circuit,
            &entry.model_count,
            entry.scores(),
        );
        let sealed = persist::seal(body);
        ls_obs::counter("circuit.store.bytes_written").add(sealed.len() as u64);
        persist::write_atomic(&self.entry_path(entry.key), &sealed)
    }
}
