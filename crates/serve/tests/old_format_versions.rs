//! Backward compatibility of the single-model codec: files written with
//! every readable format version still load, bitwise.
//!
//! The test needs a genuine f64 `hss-pcg` model, but
//! `HKRR_FACTOR_PRECISION=f32` (the CI f32 leg) turns every `hss-pcg` fit
//! in the process into f32, and codec versions below 4 refuse f32
//! factors. It therefore lives in a test binary of its own and unsets the
//! variable first: in a shared binary that would race with the other
//! `hss-pcg` tests, which the leg is meant to run on f32 factors.

use hkrr_core::{KrrConfig, KrrModel, SolverKind};
use hkrr_datasets::registry::{LETTER, SUSY};
use hkrr_serve::codec::{self, decode_model, encode_model_as_version, CodecError};

fn base_config(solver: SolverKind) -> KrrConfig {
    KrrConfig {
        h: LETTER.default_h,
        lambda: LETTER.default_lambda,
        solver,
        ..KrrConfig::default()
    }
}

/// v1 and v2 single-model files — produced with the real old layouts —
/// still load, bitwise.
#[test]
fn old_format_versions_still_load_bitwise() {
    std::env::remove_var("HKRR_FACTOR_PRECISION");
    let ds = hkrr_datasets::generate(&SUSY, 160, 24, 7);
    let model = KrrModel::fit(&ds.train, &ds.train_labels, &base_config(SolverKind::Hss)).unwrap();
    let reference = model.decision_values(&ds.test);
    for version in [1u32, 2, 3, 4] {
        let bytes = encode_model_as_version(&model, version)
            .unwrap_or_else(|e| panic!("encoding v{version}: {e}"));
        assert_eq!(codec::encoded_version(&bytes).unwrap(), version);
        let loaded = decode_model(&bytes).unwrap_or_else(|e| panic!("decoding v{version}: {e}"));
        assert_eq!(
            loaded.decision_values(&ds.test),
            reference,
            "v{version} reload is not bitwise"
        );
        assert!(loaded.factors().is_some(), "v{version} lost the factors");
    }
    // v1 predates hss-pcg: encoding such a model at v1 is refused…
    let pcg = KrrModel::fit(
        &ds.train,
        &ds.train_labels,
        &base_config(SolverKind::HssPcg),
    )
    .unwrap();
    assert!(matches!(
        encode_model_as_version(&pcg, 1),
        Err(CodecError::Malformed(_))
    ));
    // …and v2 carries it fine.
    let v2 = encode_model_as_version(&pcg, 2).unwrap();
    let loaded = decode_model(&v2).unwrap();
    assert_eq!(
        loaded.decision_values(&ds.test),
        pcg.decision_values(&ds.test)
    );
    assert_eq!(loaded.report().pcg_iterations, pcg.report().pcg_iterations);
    // Unknown versions are refused typed, on both paths.
    assert!(matches!(
        encode_model_as_version(&model, 99),
        Err(CodecError::UnsupportedVersion(99))
    ));
}
