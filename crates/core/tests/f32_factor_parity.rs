//! `hss-pcg` with f32 ULV factors against the genuine f64 run on the same
//! data.
//!
//! The test needs a real f64 baseline, but `HKRR_FACTOR_PRECISION=f32`
//! (the CI f32 leg) turns every `hss-pcg` fit in the process into f32. It
//! therefore lives in a test binary of its own and unsets the variable
//! first: in a shared binary that would race with the other `hss-pcg`
//! tests, which the leg is meant to run on f32 factors.

use hkrr_core::{FactorPrecision, KrrConfig, KrrModel, SolverKind};
use hkrr_datasets::generate;
use hkrr_datasets::registry::LETTER;

fn quick_config(solver: SolverKind) -> KrrConfig {
    KrrConfig {
        h: LETTER.default_h,
        lambda: LETTER.default_lambda,
        solver,
        ..KrrConfig::default()
    }
}

#[test]
fn hss_pcg_with_f32_factors_matches_the_f64_run() {
    std::env::remove_var("HKRR_FACTOR_PRECISION");
    let ds = generate(&LETTER, 400, 100, 9);
    let f64_model = KrrModel::fit(
        &ds.train,
        &ds.train_labels,
        &quick_config(SolverKind::HssPcg),
    )
    .unwrap();
    let f32_model = KrrModel::fit(
        &ds.train,
        &ds.train_labels,
        &quick_config(SolverKind::HssPcg).with_factor_precision(FactorPrecision::F32),
    )
    .unwrap();
    // The stored factorization really is single precision, at well
    // under half the f64 footprint.
    let ulv = &f32_model.factors().unwrap().ulv;
    assert_eq!(ulv.precision(), FactorPrecision::F32);
    assert_eq!(f32_model.config().factor_precision, FactorPrecision::F32);
    let f64_bytes = f64_model.report().factor_bytes;
    let f32_bytes = f32_model.report().factor_bytes;
    assert!(f64_bytes > 0 && f32_bytes > 0);
    assert!(
        f32_bytes * 2 <= f64_bytes,
        "f32 factors {f32_bytes}B vs f64 {f64_bytes}B"
    );
    // Both iterations converged on the same exact operator to the same
    // tolerance, so predictions agree to solver precision.
    let dv64 = f64_model.decision_values(&ds.test);
    let dv32 = f32_model.decision_values(&ds.test);
    let rmse = dv64
        .iter()
        .zip(dv32.iter())
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt()
        / (dv64.len() as f64).sqrt();
    assert!(rmse < 1e-6, "f32 vs f64 factor prediction RMSE {rmse}");
    assert!(
        f32_model.report().pcg_iterations
            <= f64_model.report().pcg_iterations + f64_model.report().pcg_iterations / 2 + 2,
        "f32 {} vs f64 {} iterations",
        f32_model.report().pcg_iterations,
        f64_model.report().pcg_iterations
    );
    // Re-solving with the retained f32 preconditioner reproduces the
    // training weights bitwise, like the f64 path.
    let w = f32_model.solve_new_labels(&ds.train_labels).unwrap();
    assert_eq!(w, f32_model.weights());
}
