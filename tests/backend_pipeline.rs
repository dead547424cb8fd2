//! Pipeline-level cross-backend contract: the full train/predict pipeline
//! must produce models of equivalent quality under every dense backend.
//!
//! This lives in its own integration binary because it switches the
//! process-global dense backend; keeping the sweep inside a single `#[test]`
//! serializes the switches away from every other test binary.

use hkrr::linalg::backend::{self, BackendKind};
use hkrr::prelude::*;

/// Trains the medium workload under each available backend in turn and
/// bounds the drift of the decision values and the accuracy against the
/// scalar reference run.
///
/// The backends are only accuracy-equivalent, not bitwise-equivalent: the
/// cache-blocked AVX2 substrate reassociates reductions, and the drift is
/// then filtered through rank decisions inside the HSS compression. The
/// bounds below are therefore set at the compression tolerance scale, far
/// above ulp noise but far below anything that would move a prediction.
#[test]
fn pipeline_quality_is_backend_independent() {
    let spec = spec_by_name("SUSY").unwrap();
    let ds = generate(&spec, 800, 200, 17);
    let cfg = KrrConfig {
        h: spec.default_h,
        lambda: spec.default_lambda,
        clustering: ClusteringMethod::TwoMeans { seed: 5 },
        solver: SolverKind::Hss,
        ..KrrConfig::default()
    };

    let initial = backend::active_kind();
    let mut reference: Option<(f64, Vec<f64>)> = None;
    for kind in backend::available_backends() {
        backend::set_active(kind).unwrap();
        let model = KrrModel::fit(&ds.train, &ds.train_labels, &cfg)
            .unwrap_or_else(|e| panic!("{kind} backend: training failed: {e}"));
        let acc = accuracy(&model.predict(&ds.test), &ds.test_labels);
        let dv = model.decision_values(&ds.test);
        match &reference {
            None => {
                // Scalar heads the availability list: it is the reference.
                assert_eq!(kind, BackendKind::Scalar);
                assert!(acc > 0.7, "scalar accuracy {acc}");
                reference = Some((acc, dv));
            }
            Some((scalar_acc, scalar_dv)) => {
                assert!(
                    (acc - scalar_acc).abs() <= 0.02,
                    "{kind}: accuracy drifted {acc} vs scalar {scalar_acc}"
                );
                let rmse = (dv
                    .iter()
                    .zip(scalar_dv.iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    / dv.len() as f64)
                    .sqrt();
                let scale = (scalar_dv.iter().map(|v| v * v).sum::<f64>() / scalar_dv.len() as f64)
                    .sqrt()
                    .max(1e-300);
                assert!(
                    rmse / scale <= 1e-2,
                    "{kind}: decision-value RMSE {rmse:e} exceeds 1% of scale {scale:e}"
                );
            }
        }
    }
    backend::set_active(initial).unwrap();
}

/// Re-training under the *same* backend is bitwise deterministic — the
/// cross-backend tolerance above is not an excuse for run-to-run noise.
#[test]
fn retraining_is_bitwise_deterministic_per_backend() {
    let spec = spec_by_name("LETTER").unwrap();
    let ds = generate(&spec, 300, 60, 23);
    let cfg = KrrConfig {
        h: spec.default_h,
        lambda: spec.default_lambda,
        clustering: ClusteringMethod::TwoMeans { seed: 9 },
        solver: SolverKind::Hss,
        ..KrrConfig::default()
    };
    let a = KrrModel::fit(&ds.train, &ds.train_labels, &cfg).unwrap();
    let b = KrrModel::fit(&ds.train, &ds.train_labels, &cfg).unwrap();
    assert_eq!(
        a.decision_values(&ds.test),
        b.decision_values(&ds.test),
        "same backend, same seed: decision values must be bitwise identical"
    );
}
