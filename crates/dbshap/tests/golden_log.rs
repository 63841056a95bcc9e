//! Golden bits of the query log and the dataset builder.
//!
//! The generator's near-duplicate families, the order it accepts queries in
//! and the builder's records are all seeded, so a refactor of either that
//! changes one accepted query, one result tuple, one derivation or one
//! Shapley bit changes a digest here. The test pins FNV-1a digests of:
//!
//! - the SQL text of every `generate_query_log` query;
//! - every `Dataset::build` record: SQL, result tuples with their
//!   derivations, the sampled tuples' Shapley bits and the splits.
//!
//! Each configuration also builds through a cold circuit store and again
//! through the persisted one; both must give the storeless digest, and the
//! rebuild must compile nothing. The configurations cover IMDB and Academic
//! over three seeds each, plus one log seeded with wide fanout joins.

use ls_circuit::CircuitStore;
use ls_dbshap::{
    academic_spec, generate_academic, generate_imdb, generate_query_log, imdb_spec, AcademicConfig,
    Dataset, DatasetConfig, ImdbConfig, QueryGenConfig, SchemaSpec, Split,
};
use ls_relational::{to_sql, Database};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed string, so adjacent strings cannot trade bytes.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn log_digest(db: &Database, spec: &SchemaSpec, cfg: &QueryGenConfig) -> u64 {
    let mut h = Fnv::new();
    let log = generate_query_log(db, spec, cfg);
    h.u64(log.len() as u64);
    for q in &log {
        h.str(&to_sql(q));
    }
    h.0
}

fn dataset_digest(ds: &Dataset) -> u64 {
    let mut h = Fnv::new();
    h.str(&ds.db_name);
    h.u64(ds.queries.len() as u64);
    for q in &ds.queries {
        h.u64(q.id as u64);
        h.str(&q.sql);
        h.u64(q.result.tuples.len() as u64);
        for t in &q.result.tuples {
            h.str(&t.value_string());
            h.u64(t.derivations.len() as u64);
            for m in &t.derivations {
                h.u64(m.len() as u64);
                for f in m.facts() {
                    h.u64(u64::from(f.0));
                }
            }
        }
        h.u64(q.tuples.len() as u64);
        for t in &q.tuples {
            h.u64(t.tuple_idx as u64);
            h.u64(t.shapley.len() as u64);
            for (f, v) in &t.shapley {
                h.u64(u64::from(f.0));
                h.u64(v.to_bits());
            }
        }
    }
    for s in &ds.splits {
        h.u64(match s {
            Split::Train => 0,
            Split::Dev => 1,
            Split::Test => 2,
        });
    }
    h.0
}

struct Case {
    name: &'static str,
    db: fn() -> Database,
    spec: fn() -> SchemaSpec,
    cfg: DatasetConfig,
    /// Digest of the generated log's SQL.
    log: u64,
    /// Digest of the built dataset.
    dataset: u64,
}

fn imdb() -> Database {
    generate_imdb(&ImdbConfig::default())
}

fn academic() -> Database {
    generate_academic(&AcademicConfig::default())
}

/// A cast-heavy IMDB, so that the wide fanout joins have wide lineages.
fn fat_cast_imdb() -> Database {
    generate_imdb(&ImdbConfig {
        movies: 40,
        actors: 30,
        roles_per_movie: 8,
        ..Default::default()
    })
}

fn config(seed: u64, num_queries: usize, wide_joins: usize) -> DatasetConfig {
    DatasetConfig {
        seed: seed ^ 0x5117,
        query_gen: QueryGenConfig {
            num_queries,
            wide_joins,
            seed,
            ..Default::default()
        },
        max_tuples_per_query: 4,
        max_lineage: 25,
    }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "imdb seed 3",
            db: imdb,
            spec: imdb_spec,
            cfg: config(3, 12, 0),
            log: 0x84af_b701_40ee_b125,
            dataset: 0xffd0_3bcc_48d7_b948,
        },
        Case {
            name: "imdb seed 17",
            db: imdb,
            spec: imdb_spec,
            cfg: config(17, 12, 0),
            log: 0x5ce2_adca_e7c7_c908,
            dataset: 0x9618_763a_32da_4f21,
        },
        Case {
            name: "imdb seed 401",
            db: imdb,
            spec: imdb_spec,
            cfg: config(401, 12, 0),
            log: 0x398f_55bc_64aa_3884,
            dataset: 0x1e2b_87d4_647c_a55d,
        },
        Case {
            name: "academic seed 3",
            db: academic,
            spec: academic_spec,
            cfg: config(3, 12, 0),
            log: 0x3062_d761_d0d1_b9a7,
            dataset: 0x61e1_e239_abc7_d1b4,
        },
        Case {
            name: "academic seed 17",
            db: academic,
            spec: academic_spec,
            cfg: config(17, 12, 0),
            log: 0xf11b_a381_f885_0fec,
            dataset: 0x2206_c48b_3aa3_12dc,
        },
        Case {
            name: "academic seed 401",
            db: academic,
            spec: academic_spec,
            cfg: config(401, 12, 0),
            log: 0xca59_193c_6a50_e5f1,
            dataset: 0x258d_a0df_14cb_038d,
        },
        Case {
            name: "imdb wide joins",
            db: fat_cast_imdb,
            spec: imdb_spec,
            cfg: config(7, 10, 3),
            log: 0x9d4f_e553_151c_71a4,
            dataset: 0xad6e_6dd7_9561_9a30,
        },
    ]
}

#[test]
fn query_logs_match_their_golden_digests() {
    for case in cases() {
        let digest = log_digest(&(case.db)(), &(case.spec)(), &case.cfg.query_gen);
        assert_eq!(digest, case.log, "{}: log {digest:#018x}", case.name);
    }
}

#[test]
fn datasets_match_their_golden_digests_with_and_without_a_store() {
    for (i, case) in cases().into_iter().enumerate() {
        let spec = (case.spec)();
        let plain = dataset_digest(&Dataset::build((case.db)(), &spec, &case.cfg));
        assert_eq!(plain, case.dataset, "{}: dataset {plain:#018x}", case.name);

        let dir =
            std::env::temp_dir().join(format!("ls_dbshap_golden_log_{i}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = CircuitStore::open(&dir, 4096).unwrap();
        let stored = Dataset::build_with_store((case.db)(), &spec, &case.cfg, Some(&cold));
        assert_eq!(dataset_digest(&stored), plain, "{}: cold store", case.name);
        let warm = CircuitStore::open(&dir, 4096).unwrap();
        let rebuilt = Dataset::build_with_store((case.db)(), &spec, &case.cfg, Some(&warm));
        assert_eq!(dataset_digest(&rebuilt), plain, "{}: rebuild", case.name);
        assert_eq!(warm.stats().misses, 0, "{}: rebuild compiled", case.name);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
