//! Model persistence: save a trained LearnShapley model (encoder config,
//! head shapes, tokenizer vocabulary, and all weights) to one binary file
//! and load it back for deployment — the "once the model is deployed, it
//! constitutes a fast solution for real-time ranking" workflow of §1.
//!
//! Format (little-endian), version 2:
//!
//! ```text
//! magic "LSMD" | version u32
//! encoder config: vocab, d_model, heads, layers, ff_dim, max_len (u32 each), seed u64
//! vocab entries u32, then per entry: id u32, len u32, utf-8 bytes
//! parameter snapshot (ls_nn::Snapshot binary format)
//! footer: "LSFT" | body_len u64 | crc32 u32        (crc over everything above)
//! ```
//!
//! ## Crash atomicity and corruption detection
//!
//! Writes go through [`write_atomic`]: the payload lands in a temporary
//! sibling file, is fsync'd, and is atomically renamed over the
//! destination (the directory is fsync'd too on Unix) — a crash mid-save
//! leaves either the old snapshot or the new one, never a torn hybrid.
//! Every file carries a CRC32 footer ([`ls_fault::crc32`]); loads verify
//! length and checksum before parsing a single field, so silent truncation
//! or bit rot surfaces as a typed `InvalidData` error instead of a model
//! that ranks garbage.

use crate::model::LearnShapleyModel;
use crate::tokenizer::{Tokenizer, SPECIALS};
use ls_nn::{EncoderConfig, Snapshot};
use std::io::{self, Read};
use std::path::Path;

// The generic crash-atomic/CRC-sealed helpers live in `ls_fault::persist`
// so crates below `ls-core` (the circuit store) can share them; re-exported
// here to keep historical call sites (`ls_core::persist::write_atomic` etc.)
// working.
pub use ls_fault::persist::{read_verified, seal, unseal, write_atomic, write_sealed};

const MAGIC: &[u8; 4] = b"LSMD";
const VERSION: u32 = 2;

/// Save a model + tokenizer to `path` (atomic, checksummed).
pub fn save_model(
    model: &mut LearnShapleyModel,
    tokenizer: &Tokenizer,
    path: &Path,
) -> io::Result<()> {
    let cfg = model.encoder.config;
    let body = encode(cfg, &tokenizer.entries(), &Snapshot::capture(model))?;
    write_sealed(path, body)
}

/// The model file's body, before the CRC seal.
fn encode(cfg: EncoderConfig, entries: &[(String, u32)], snap: &Snapshot) -> io::Result<Vec<u8>> {
    let mut w = Vec::new();
    w.extend_from_slice(MAGIC);
    w.extend_from_slice(&VERSION.to_le_bytes());
    for v in [
        cfg.vocab,
        cfg.d_model,
        cfg.heads,
        cfg.layers,
        cfg.ff_dim,
        cfg.max_len,
    ] {
        w.extend_from_slice(&(v as u32).to_le_bytes());
    }
    w.extend_from_slice(&cfg.seed.to_le_bytes());

    w.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (word, id) in entries {
        w.extend_from_slice(&id.to_le_bytes());
        w.extend_from_slice(&(word.len() as u32).to_le_bytes());
        w.extend_from_slice(word.as_bytes());
    }

    snap.write_to(&mut w)?;
    Ok(w)
}

/// Load a model + tokenizer from `path`, verifying the checksum footer
/// before parsing.
///
/// A sealed file is still outside input: a header the encoder cannot be
/// built from, a vocabulary id the tokenizer or encoder would reject, a
/// snapshot that does not fit the header, or a count larger than the bytes
/// left is an `InvalidData` error, found before the model is allocated.
pub fn load_model(path: &Path) -> io::Result<(LearnShapleyModel, Tokenizer)> {
    let body = read_verified(path)?;
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut r: &[u8] = &body;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad model magic".into()));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(bad(format!("unsupported model version {version}")));
    }
    let vocab = read_u32(&mut r)? as usize;
    let d_model = read_u32(&mut r)? as usize;
    let heads = read_u32(&mut r)? as usize;
    let layers = read_u32(&mut r)? as usize;
    let ff_dim = read_u32(&mut r)? as usize;
    let max_len = read_u32(&mut r)? as usize;
    let mut seed_buf = [0u8; 8];
    r.read_exact(&mut seed_buf)?;
    let seed = u64::from_le_bytes(seed_buf);
    let cfg = EncoderConfig {
        vocab,
        d_model,
        heads,
        layers,
        ff_dim,
        max_len,
        seed,
    };
    if heads == 0 || !d_model.is_multiple_of(heads) {
        return Err(bad(format!(
            "{heads} attention heads do not divide d_model {d_model}"
        )));
    }

    let n_entries = read_u32(&mut r)? as usize;
    // Every entry takes at least its 8-byte id and length.
    if n_entries > r.len() / 8 {
        return Err(bad(format!(
            "{n_entries} vocabulary entries exceed the bytes left"
        )));
    }
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let id = read_u32(&mut r)?;
        let len = read_u32(&mut r)? as usize;
        if len > r.len() {
            return Err(bad(format!(
                "vocabulary word of {len} bytes exceeds the bytes left"
            )));
        }
        if id < SPECIALS || id as usize >= vocab {
            return Err(bad(format!(
                "vocabulary id {id} outside {SPECIALS}..{vocab}"
            )));
        }
        let (word, rest) = r.split_at(len);
        r = rest;
        let word = String::from_utf8(word.to_vec()).map_err(|e| bad(e.to_string()))?;
        entries.push((word, id));
    }

    let snap = Snapshot::read_from(&mut r)?;
    if !snap.shapes().eq(LearnShapleyModel::param_shapes(&cfg)) {
        return Err(bad(
            "parameter snapshot does not match the encoder config".into()
        ));
    }
    let tokenizer = Tokenizer::from_entries(entries);
    let mut model = LearnShapleyModel::new(cfg);
    snap.restore(&mut model);
    Ok((model, tokenizer))
}

fn read_u32(r: &mut dyn Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::Tokenizer;
    use std::fs;

    fn setup() -> (LearnShapleyModel, Tokenizer) {
        let tok = Tokenizer::build(
            ["select movies title from where year 2007 ovt1 ovq0"].into_iter(),
            128,
        );
        let model = LearnShapleyModel::new(EncoderConfig {
            vocab: tok.vocab_size(),
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_dim: 16,
            max_len: 32,
            seed: 9,
        });
        (model, tok)
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let (mut model, tok) = setup();
        let tokens = [1u32, 5, 2, 6, 2];
        let segs = [0u8, 0, 0, 1, 1];
        let before = model.forward_value(&tokens, &segs);

        let path = std::env::temp_dir().join("ls_model_roundtrip.bin");
        save_model(&mut model, &tok, &path).unwrap();
        let (mut loaded, loaded_tok) = load_model(&path).unwrap();
        let after = loaded.forward_value(&tokens, &segs);
        assert_eq!(before, after, "weights must round-trip exactly");
        assert_eq!(
            tok.tokenize("select movies year 2007"),
            loaded_tok.tokenize("select movies year 2007"),
            "vocabulary must round-trip"
        );
        assert_eq!(loaded.encoder.config.d_model, 8);
    }

    #[test]
    fn corrupt_file_rejected() {
        let path = std::env::temp_dir().join("ls_model_corrupt.bin");
        fs::write(&path, b"not a model").unwrap();
        assert!(load_model(&path).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let (mut model, tok) = setup();
        let path = std::env::temp_dir().join("ls_model_trunc.bin");
        save_model(&mut model, &tok, &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_model(&path).is_err());
    }

    #[test]
    fn single_flipped_bit_is_detected() {
        let (mut model, tok) = setup();
        let path = std::env::temp_dir().join("ls_model_bitrot.bin");
        save_model(&mut model, &tok, &path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit in the middle of the weight payload — the kind of
        // corruption magic/version checks cannot see.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(
            err.to_string().contains("checksum"),
            "want checksum error, got: {err}"
        );
    }

    #[test]
    fn footer_length_mismatch_is_detected() {
        let (mut model, tok) = setup();
        let path = std::env::temp_dir().join("ls_model_extend.bin");
        save_model(&mut model, &tok, &path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Append garbage after the footer: the footer is no longer at the
        // end, so the magic check fails.
        bytes.extend_from_slice(b"trailing");
        fs::write(&path, &bytes).unwrap();
        assert!(load_model(&path).is_err());
    }

    /// Seal `body` as a model file (valid CRC) and load it; the load must
    /// fail with `InvalidData`.
    fn assert_invalid(name: &str, body: Vec<u8>) {
        let path = std::env::temp_dir().join(format!("ls_model_invalid_{name}.bin"));
        write_sealed(&path, body).unwrap();
        let err = load_model(&path).expect_err(name);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
        let _ = fs::remove_file(&path);
    }

    /// A consistent (config, vocabulary, snapshot) triple to corrupt.
    fn parts() -> (EncoderConfig, Vec<(String, u32)>, Snapshot) {
        let (mut model, tok) = setup();
        let snap = Snapshot::capture(&mut model);
        (model.encoder.config, tok.entries(), snap)
    }

    /// Byte offset of the vocabulary entry count in a model body.
    const ENTRIES_AT: usize = 4 + 4 + 6 * 4 + 8;

    #[test]
    fn zero_heads_is_invalid_data() {
        let (cfg, entries, snap) = parts();
        let cfg = EncoderConfig { heads: 0, ..cfg };
        assert_invalid("zero_heads", encode(cfg, &entries, &snap).unwrap());
    }

    #[test]
    fn heads_not_dividing_d_model_is_invalid_data() {
        let (cfg, entries, snap) = parts();
        let cfg = EncoderConfig { heads: 3, ..cfg };
        assert_invalid("heads_3", encode(cfg, &entries, &snap).unwrap());
    }

    #[test]
    fn reserved_vocabulary_id_is_invalid_data() {
        let (cfg, mut entries, snap) = parts();
        entries[0].1 = SPECIALS - 1;
        assert_invalid("reserved_id", encode(cfg, &entries, &snap).unwrap());
    }

    #[test]
    fn vocabulary_id_past_the_encoder_is_invalid_data() {
        let (cfg, mut entries, snap) = parts();
        entries[0].1 = cfg.vocab as u32;
        assert_invalid("id_past_vocab", encode(cfg, &entries, &snap).unwrap());
    }

    #[test]
    fn header_disagreeing_with_snapshot_is_invalid_data() {
        let (cfg, entries, snap) = parts();
        for (name, cfg) in [
            ("layers", EncoderConfig { layers: 2, ..cfg }),
            ("d_model", EncoderConfig { d_model: 16, ..cfg }),
            ("ff_dim", EncoderConfig { ff_dim: 8, ..cfg }),
            ("max_len", EncoderConfig { max_len: 64, ..cfg }),
            // A header this size would ask for terabytes; the shape check
            // refuses it before anything is allocated.
            (
                "huge",
                EncoderConfig {
                    vocab: u32::MAX as usize,
                    d_model: 1 << 20,
                    layers: u32::MAX as usize,
                    ..cfg
                },
            ),
        ] {
            assert_invalid(name, encode(cfg, &entries, &snap).unwrap());
        }
    }

    #[test]
    fn vocabulary_count_past_the_bytes_is_invalid_data() {
        let (cfg, entries, snap) = parts();
        let mut body = encode(cfg, &entries, &snap).unwrap();
        body[ENTRIES_AT..ENTRIES_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_invalid("n_entries", body);
    }

    #[test]
    fn word_length_past_the_bytes_is_invalid_data() {
        let (cfg, entries, snap) = parts();
        let mut body = encode(cfg, &entries, &snap).unwrap();
        let len_at = ENTRIES_AT + 4 + 4; // first entry: id, then len
        body[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_invalid("word_len", body);
    }

    #[test]
    fn snapshot_counts_past_the_bytes_are_invalid_data() {
        let (cfg, entries, snap) = parts();
        let mut snap_bytes = Vec::new();
        snap.write_to(&mut snap_bytes).unwrap();
        let body = encode(cfg, &entries, &snap).unwrap();
        let head = &body[..body.len() - snap_bytes.len()];
        let with_snapshot = |fields: &[u32]| {
            let mut b = head.to_vec();
            b.extend_from_slice(b"LSCK");
            for v in fields {
                b.extend_from_slice(&v.to_le_bytes());
            }
            b
        };
        assert_invalid("tensor_count", with_snapshot(&[u32::MAX]));
        assert_invalid("rows_cols", with_snapshot(&[1, u32::MAX, u32::MAX]));
    }

    #[test]
    fn atomic_write_replaces_existing_snapshot() {
        let path = std::env::temp_dir().join("ls_model_replace.bin");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        // No temp droppings left behind.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        assert!(!tmp.exists());
    }
}
