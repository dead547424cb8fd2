//! `info_lines`, the `hkrr-serve info` output: stable `key: value` lines
//! that parse.

use hkrr_core::{KrrConfig, KrrModel, SolverKind};
use hkrr_datasets::registry::LETTER;
use hkrr_ensemble::{EnsembleConfig, EnsembleKrr, ShardStrategy};
use hkrr_serve::codec::{decode_any, encode_ensemble, encode_model, info_lines};
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
/// format version, the solver kind, the PCG configuration, and the shard
/// layout.
#[test]
fn info_lines_are_parseable() {
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

    let map = parse(&info_lines(&decode_any(&encode_model(&model)).unwrap()));
    assert_eq!(map["schema"], "hkrr-model/1");
    assert_eq!(map["version"], "4");
    assert_eq!(map["kind"], "single");
    assert_eq!(map["shards"], "1");
    assert_eq!(map["solver"], "hss-pcg");
    assert!(map.contains_key("pcg_tolerance"), "{map:?}");
    assert_eq!(map["pcg_max_iterations"], "500");
    assert!(map.contains_key("pcg_loosening"));
    assert_eq!(
        map["factor_precision"],
        model.config().factor_precision.to_string()
    );
    assert_eq!(map["n_train"], "150");

    // Ensembles: the shard layout appears, one line per shard.
    let (ens, _) = trained_ensemble(3, 150, 5, SolverKind::Hss);
    let loaded = decode_any(&encode_ensemble(&ens)).unwrap();
    let lines = info_lines(&loaded);
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
