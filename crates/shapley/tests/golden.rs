//! Golden digest of exact-Shapley bits.
//!
//! Hashes every `f64` bit pattern [`shapley_values`] returns, and every limb
//! of the circuit model count, over a fixed family of lineages. The family
//! covers both integer regimes of the cardinality counter: 406 lineages of
//! at most 49 facts (counted in `u128`) and two lineages past the 120-fact
//! limit (counted in big integers). The constants were recorded from the
//! implementation this test was written against; any change to a single
//! Shapley bit or count limb changes a digest.

use ls_provenance::{compile, CompileOptions, Dnf};
use ls_relational::{FactId, Monomial};
use ls_shapley::shapley_values;

/// Digest of the 408 lineages of at most 120 facts.
const SMALL_DIGEST: u64 = 0x4dad_4856_ec99_e2bf;
/// Digest of the three lineages past 120 facts.
const WIDE_DIGEST: u64 = 0x9b6a_3007_fff2_cb29;

/// SplitMix64: a fixed, self-contained stream for the random family.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn dnf(clauses: Vec<Vec<u32>>) -> Dnf {
    Dnf::from_monomials(
        clauses
            .into_iter()
            .map(|ids| Monomial::from_facts(ids.into_iter().map(FactId).collect()))
            .collect(),
    )
}

/// 400 random lineages of up to 30 facts, stars and chains of 8, 24 and 48
/// clauses, a 96-clause chain and 60 disjoint pairs (120 facts).
fn small_family() -> Vec<Dnf> {
    let mut rng = Stream(0x5EED_0F5A_4B1E);
    let mut out = Vec::new();
    for _ in 0..400 {
        let n_facts = 1 + rng.below(30);
        let n_clauses = 1 + rng.below(8);
        let clauses = (0..n_clauses)
            .map(|_| {
                let len = 1 + rng.below(4);
                (0..len)
                    .map(|_| rng.below(n_facts) as u32 * 3 + 7)
                    .collect()
            })
            .collect();
        out.push(dnf(clauses));
    }
    for k in [8u32, 24, 48] {
        out.push(dnf((1..=k).map(|i| vec![0, i]).collect()));
        out.push(dnf((0..k).map(|i| vec![i, i + 1]).collect()));
    }
    // Counts past 64 bits, up to the last universe counted in `u128`.
    out.push(dnf((0..96).map(|i| vec![i, i + 1]).collect()));
    out.push(dnf((0..60).map(|i| vec![2 * i, 2 * i + 1]).collect()));
    out
}

/// A 125-fact conjunction, 62 disjoint pairs (124 facts) and a 121-clause
/// star (122 facts).
fn wide_family() -> Vec<Dnf> {
    vec![
        dnf(vec![(0..125).collect()]),
        dnf((0..62).map(|i| vec![2 * i, 2 * i + 1]).collect()),
        dnf((1..=121).map(|i| vec![0, i]).collect()),
    ]
}

/// FNV-1a over the Shapley bits and the model count of every lineage.
fn digest(family: &[Dnf]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for d in family {
        let scores = shapley_values(d);
        eat(scores.len() as u64);
        for (f, v) in &scores {
            eat(u64::from(f.0));
            eat(v.to_bits());
        }
        let compiled = compile(d, CompileOptions::default());
        let count = compiled.circuit.count_models(compiled.root, &d.variables());
        eat(count.limbs().len() as u64);
        count.limbs().iter().for_each(|&l| eat(l));
    }
    h
}

#[test]
fn small_lineages_match_golden_digest() {
    let family = small_family();
    assert_eq!(family.len(), 408);
    assert!(family.iter().all(|d| d.variables().len() <= 120));
    let got = digest(&family);
    assert_eq!(got, SMALL_DIGEST, "small-family digest {got:#018x}");
}

#[test]
fn lineages_past_the_u128_limit_match_golden_digest() {
    let family = wide_family();
    assert!(family.iter().all(|d| d.variables().len() > 120));
    let got = digest(&family);
    assert_eq!(got, WIDE_DIGEST, "wide-family digest {got:#018x}");
}
