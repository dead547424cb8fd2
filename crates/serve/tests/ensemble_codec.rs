//! Property tests of the codec's ensemble support:
//!
//! * an ensemble round-trips **bitwise** — including every shard's HSS
//!   form and ULV factors,
//! * corruption *inside any shard section* (truncation, bit flip, a wrong
//!   nested format version) surfaces as a typed [`CodecError`], never a
//!   panic.
//!
//! `info_lines` is pinned in `info_lines_versions.rs`.

use hkrr_core::{KrrConfig, SolverKind};
use hkrr_datasets::registry::LETTER;
use hkrr_ensemble::{EnsembleConfig, EnsembleKrr, ShardStrategy};
use hkrr_serve::codec::{
    self, crc32, decode_any, decode_model, encode_ensemble, CodecError, LoadedModel,
};
use proptest::prelude::*;

const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 24;

fn base_config(solver: SolverKind) -> KrrConfig {
    KrrConfig {
        h: LETTER.default_h,
        lambda: LETTER.default_lambda,
        solver,
        ..KrrConfig::default()
    }
}

fn trained_ensemble(
    k: usize,
    n: usize,
    seed: u64,
    solver: SolverKind,
) -> (EnsembleKrr, hkrr_datasets::Dataset) {
    let ds = hkrr_datasets::generate(&LETTER, n, 24, seed);
    let cfg = EnsembleConfig {
        shards: k,
        route_nearest: 2.min(k),
        strategy: ShardStrategy::Cluster,
        base: base_config(solver),
    };
    let ens = EnsembleKrr::fit(&ds.train, &ds.train_labels, &cfg).expect("ensemble training");
    (ens, ds)
}

/// Finds `(payload_start, payload_len, crc_field_pos)` of the section with
/// the given tag in an encoded file.
fn section_span(bytes: &[u8], tag: &[u8; 4]) -> Option<(usize, usize, usize)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    for i in 0..count {
        let entry = HEADER_LEN + TABLE_ENTRY_LEN * i;
        if &bytes[entry..entry + 4] == tag {
            let start = u64::from_le_bytes(bytes[entry + 4..entry + 12].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[entry + 12..entry + 20].try_into().unwrap());
            return Some((start as usize, len as usize, entry + 20));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Ensemble save → load is bitwise: decision values, per-shard
    /// weights, and — through `solve_new_labels` on every shard — the ULV
    /// factors themselves.
    #[test]
    fn ensemble_roundtrip_is_bitwise_including_every_shards_ulv(
        k in 2..5usize,
        n in 140..260usize,
        seed in 0..1_000u64,
    ) {
        let (ens, ds) = trained_ensemble(k, n, seed, SolverKind::Hss);
        let loaded = match decode_any(&encode_ensemble(&ens)).expect("roundtrip decode") {
            LoadedModel::Ensemble(e) => e,
            LoadedModel::Single(_) => panic!("ensemble file decoded as single"),
        };
        prop_assert_eq!(loaded.num_shards(), k);
        prop_assert_eq!(loaded.decision_values(&ds.test), ens.decision_values(&ds.test));
        for (orig, back) in ens.models().iter().zip(loaded.models().iter()) {
            prop_assert_eq!(back.weights(), orig.weights());
            prop_assert!(back.factors().is_some(), "shard lost its factors");
            // The restored ULV performs the identical arithmetic: a fresh
            // solve through the loaded factors matches the original
            // factors' solve bitwise.
            let labels: Vec<f64> =
                (0..orig.num_train()).map(|i| if i % 3 == 0 { -1.0 } else { 1.0 }).collect();
            prop_assert_eq!(
                back.solve_new_labels(&labels).unwrap(),
                orig.solve_new_labels(&labels).unwrap()
            );
        }
        // Router config survives too.
        prop_assert_eq!(
            loaded.router().route_nearest(),
            ens.router().route_nearest()
        );
        prop_assert_eq!(loaded.strategy(), ens.strategy());
    }

    /// Truncating an ensemble encoding anywhere is a typed error, never a
    /// panic — including cuts landing inside a shard section.
    #[test]
    fn ensemble_truncation_never_panics(
        cut_frac in 0.0..1.0f64,
        seed in 0..1_000u64,
    ) {
        let (ens, _) = trained_ensemble(3, 150, seed, SolverKind::Hss);
        let bytes = encode_ensemble(&ens);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(decode_any(&bytes[..cut]).is_err(), "truncated decode succeeded");
    }

    /// Flipping any single bit in an ensemble file either fails typed or
    /// leaves predictions bitwise identical (flips in dead table padding
    /// cannot exist — every payload byte is checksummed).
    #[test]
    fn ensemble_single_bit_corruption_is_detected(
        pos_frac in 0.0..1.0f64,
        bit in 0..8usize,
        seed in 0..1_000u64,
    ) {
        let (ens, ds) = trained_ensemble(2, 150, seed, SolverKind::Hss);
        let reference = ens.decision_values(&ds.test);
        let mut bytes = encode_ensemble(&ens);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        match decode_any(&bytes) {
            Err(_) => {}
            Ok(loaded) => prop_assert_eq!(loaded.decision_values(&ds.test), reference.clone()),
        }
    }
}

/// A wrong format version *inside* a shard's nested encoding is caught as
/// a typed `UnsupportedVersion` — the nested decode re-runs the full
/// header validation per shard.
#[test]
fn wrong_version_inside_a_shard_section_is_typed() {
    let (ens, _) = trained_ensemble(2, 140, 9, SolverKind::Hss);
    let mut bytes = encode_ensemble(&ens);
    let (start, len, crc_pos) = section_span(&bytes, b"SH01").expect("shard section");
    // The nested file's version field sits 8 bytes into the shard payload.
    bytes[start + 8..start + 12].copy_from_slice(&99u32.to_le_bytes());
    // Recompute the outer CRC so only the nested header check can object.
    let crc = crc32(&bytes[start..start + len]);
    bytes[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        decode_any(&bytes),
        Err(CodecError::UnsupportedVersion(99))
    ));

    // Same treatment for a corrupted nested magic: typed BadMagic.
    let mut bytes = encode_ensemble(&ens);
    let (start, len, crc_pos) = section_span(&bytes, b"SH00").expect("shard section");
    bytes[start] = b'X';
    let crc = crc32(&bytes[start..start + len]);
    bytes[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(decode_any(&bytes), Err(CodecError::BadMagic)));
}

/// A crafted file whose shard section holds a *nested ensemble* is
/// refused typed — the decoder never recurses into ensembles-of-ensembles,
/// so a malicious file cannot drive unbounded recursion.
#[test]
fn nested_ensemble_inside_a_shard_is_typed_not_recursive() {
    let (inner, _) = trained_ensemble(2, 130, 13, SolverKind::Hss);
    let inner_bytes = encode_ensemble(&inner);
    let dim = inner.dim();

    // Hand-assemble an outer ensemble file: an ENSH header declaring
    // one shard, whose SH00 payload is the complete inner *ensemble* file.
    let mut ensh = Vec::new();
    ensh.push(0u8); // strategy: cluster
    ensh.extend_from_slice(&1u64.to_le_bytes()); // shards
    ensh.extend_from_slice(&1u64.to_le_bytes()); // route_nearest
    ensh.extend_from_slice(&1u64.to_le_bytes()); // centroids rows
    ensh.extend_from_slice(&(dim as u64).to_le_bytes()); // centroids cols
    for _ in 0..dim {
        ensh.extend_from_slice(&0.0f64.to_le_bytes());
    }
    ensh.extend_from_slice(&0.0f64.to_le_bytes()); // fit_wall_seconds
    ensh.extend_from_slice(&1u64.to_le_bytes()); // shard_wall_seconds len
    ensh.extend_from_slice(&0.0f64.to_le_bytes());

    let sections: Vec<([u8; 4], &[u8])> = vec![(*b"ENSH", &ensh), (*b"SH00", &inner_bytes)];
    let mut outer = Vec::new();
    outer.extend_from_slice(b"HKRRMDL1");
    outer.extend_from_slice(&codec::VERSION.to_le_bytes());
    outer.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = HEADER_LEN + TABLE_ENTRY_LEN * sections.len();
    for (tag, body) in &sections {
        outer.extend_from_slice(&tag[..]);
        outer.extend_from_slice(&(offset as u64).to_le_bytes());
        outer.extend_from_slice(&(body.len() as u64).to_le_bytes());
        outer.extend_from_slice(&crc32(body).to_le_bytes());
        offset += body.len();
    }
    for (_, body) in &sections {
        outer.extend_from_slice(body);
    }

    match decode_any(&outer) {
        Err(CodecError::Malformed(m)) => assert!(m.contains("ensemble"), "{m}"),
        other => panic!("nested ensemble must be typed Malformed, got {other:?}"),
    }
}

/// The decoder tells a cut-off file from a foreign one: correct magic but
/// no version word is `Truncated`, a foreign header is `BadMagic`.
#[test]
fn decode_any_distinguishes_truncation_from_foreign_files() {
    let (ens, _) = trained_ensemble(2, 130, 3, SolverKind::Hss);
    let bytes = encode_ensemble(&ens);
    assert_eq!(bytes[8..12], codec::VERSION.to_le_bytes());
    assert!(matches!(
        decode_any(&bytes[..10]),
        Err(CodecError::Truncated)
    ));
    assert!(matches!(
        decode_any(b"PK\x03\x04"),
        Err(CodecError::BadMagic)
    ));
}

#[test]
fn missing_shard_section_is_typed() {
    let (ens, _) = trained_ensemble(3, 150, 11, SolverKind::Hss);
    let mut bytes = encode_ensemble(&ens);
    let (_, _, crc_pos) = section_span(&bytes, b"SH02").expect("shard section");
    // Rename the tag in the table; the payload stays checksummed, so the
    // decoder reaches the missing-shard check.
    let entry = crc_pos - 20;
    bytes[entry..entry + 4].copy_from_slice(b"XXXX");
    match decode_any(&bytes) {
        Err(CodecError::Malformed(m)) => assert!(m.contains("shard"), "{m}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn single_model_decoder_refuses_ensemble_files() {
    let (ens, _) = trained_ensemble(2, 130, 3, SolverKind::Hss);
    match decode_model(&encode_ensemble(&ens)) {
        Err(CodecError::Malformed(m)) => assert!(m.contains("ensemble"), "{m}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}
