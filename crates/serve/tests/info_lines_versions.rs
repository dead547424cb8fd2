//! `info_lines`, the `hkrr-serve info` output, for every codec version:
//! stable `key: value` lines that parse.
//!
//! The test needs a genuine f64 `hss-pcg` model, but
//! `HKRR_FACTOR_PRECISION=f32` (the CI f32 leg) turns every `hss-pcg` fit
//! in the process into f32, and codec versions below 4 refuse f32
//! factors. It therefore lives in a test binary of its own and unsets the
//! variable first: in a shared binary that would race with the other
//! `hss-pcg` tests, which the leg is meant to run on f32 factors.

use hkrr_core::{KrrConfig, KrrModel, SolverKind};
use hkrr_datasets::registry::LETTER;
use hkrr_ensemble::{EnsembleConfig, EnsembleKrr, ShardStrategy};
use hkrr_serve::codec::{decode_any, encode_ensemble, encode_model_as_version, info_lines};
use std::collections::HashMap;

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

/// The `hkrr-serve info` output is stable `key: value` lines with the
/// solver kind, the PCG configuration, and the shard layout, for every
/// codec version.
#[test]
fn info_lines_are_parseable_for_every_version() {
    std::env::remove_var("HKRR_FACTOR_PRECISION");
    let ds = hkrr_datasets::generate(&LETTER, 150, 20, 5);
    let model = KrrModel::fit(
        &ds.train,
        &ds.train_labels,
        &base_config(SolverKind::HssPcg),
    )
    .unwrap();

    let parse = |lines: &[String]| -> HashMap<String, String> {
        lines
            .iter()
            .map(|line| {
                let (key, value) = line
                    .split_once(": ")
                    .unwrap_or_else(|| panic!("unparseable info line {line:?}"));
                (key.to_string(), value.to_string())
            })
            .collect()
    };

    // Single models, at every readable version (v1 via an hss model —
    // hss-pcg cannot be a v1 fixture).
    let hss_model =
        KrrModel::fit(&ds.train, &ds.train_labels, &base_config(SolverKind::Hss)).unwrap();
    for version in [1u32, 2, 3, 4] {
        let source = if version == 1 { &hss_model } else { &model };
        let bytes = encode_model_as_version(source, version).unwrap();
        let loaded = decode_any(&bytes).unwrap();
        let map = parse(&info_lines(version, &loaded));
        assert_eq!(map["schema"], "hkrr-model/1");
        assert_eq!(map["version"], version.to_string());
        assert_eq!(map["kind"], "single");
        assert_eq!(map["shards"], "1");
        assert_eq!(map["solver"], if version == 1 { "hss" } else { "hss-pcg" });
        // The PCG config is printed for every version (v1 surfaces the
        // defaults its era implied).
        assert!(map.contains_key("pcg_tolerance"), "{map:?}");
        assert_eq!(map["pcg_max_iterations"], "500");
        assert!(map.contains_key("pcg_loosening"));
        // Pre-v4 files surface the f64 default their era implied.
        assert_eq!(map["factor_precision"], "f64");
        assert_eq!(map["n_train"], "150");
    }

    // Ensembles: the shard layout appears, one line per shard.
    let (ens, _) = trained_ensemble(3, 150, 5, SolverKind::Hss);
    let loaded = decode_any(&encode_ensemble(&ens)).unwrap();
    let lines = info_lines(3, &loaded);
    let map = parse(&lines);
    assert_eq!(map["kind"], "ensemble");
    assert_eq!(map["shards"], "3");
    assert_eq!(map["route_nearest"], "2");
    assert_eq!(map["strategy"], "cluster");
    assert_eq!(map["solver"], "hss");
    for i in 0..3 {
        let value = &map[&format!("shard {i}")];
        assert!(
            value.contains("solver=hss") && value.contains("n="),
            "shard line {value:?}"
        );
    }
}
