//! The f32 factor store persists at less than half the f64 `ULVF` size.
//!
//! The test needs a genuine f64 `hss-pcg` model, but
//! `HKRR_FACTOR_PRECISION=f32` (the CI f32 leg) turns every `hss-pcg` fit
//! in the process into f32. It therefore lives in a test binary of its own
//! and unsets the variable first: in a shared binary that would race with
//! the other `hss-pcg` tests, which the leg is meant to run on f32 factors.

use hkrr_core::{FactorPrecision, KrrConfig, KrrModel, SolverKind};
use hkrr_datasets::registry::LETTER;
use hkrr_serve::codec::encode_model;

const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 24;

/// A LETTER `hss-pcg` model with its ULV factors stored at `precision`.
fn hss_pcg_model(precision: FactorPrecision) -> KrrModel {
    let ds = hkrr_datasets::generate(&LETTER, 180, 32, 7);
    let cfg = KrrConfig {
        h: LETTER.default_h,
        lambda: LETTER.default_lambda,
        solver: SolverKind::HssPcg,
        factor_precision: precision,
        ..KrrConfig::default()
    };
    KrrModel::fit(&ds.train, &ds.train_labels, &cfg).unwrap()
}

/// The payload length of the section with the given tag, read from the
/// section table of an encoded file.
fn section_len(bytes: &[u8], tag: &[u8; 4]) -> usize {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let entry = (0..count)
        .map(|i| HEADER_LEN + TABLE_ENTRY_LEN * i)
        .find(|&entry| &bytes[entry..entry + 4] == tag)
        .unwrap_or_else(|| panic!("no {} section", String::from_utf8_lossy(tag)));
    u64::from_le_bytes(bytes[entry + 12..entry + 20].try_into().unwrap()) as usize
}

#[test]
fn f32_ulv_section_is_less_than_half_the_f64_one() {
    std::env::remove_var("HKRR_FACTOR_PRECISION");
    let f32_bytes = encode_model(&hss_pcg_model(FactorPrecision::F32));
    let f64_bytes = encode_model(&hss_pcg_model(FactorPrecision::F64));
    let f32_len = section_len(&f32_bytes, b"ULVF");
    let f64_len = section_len(&f64_bytes, b"ULVF");
    assert!(
        f32_len * 2 < f64_len,
        "f32 ULVF {f32_len}B vs f64 ULVF {f64_len}B"
    );
}
