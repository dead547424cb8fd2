//! Figure 5: HSS memory versus the Gaussian bandwidth h on the GAS10K
//! dataset (here a GAS-like synthetic of configurable size), for the four
//! orderings Natural / Kd / PCA / 2 Means, at λ = 4.

use hkrr_bench::{config_for, dataset, print_series, scaled};
use hkrr_clustering::ClusteringMethod;
use hkrr_core::{KrrModel, SolverKind};
use hkrr_datasets::registry::GAS;

fn main() {
    let n_train = scaled(2000);
    let ds = dataset(&GAS, n_train, 64, 23);
    let bandwidths = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
    let methods = [
        ("Natural", ClusteringMethod::Natural),
        ("Kd", ClusteringMethod::KdTree),
        ("PCA", ClusteringMethod::PcaTree),
        ("2 Means", ClusteringMethod::TwoMeans { seed: 5 }),
    ];

    let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
    for (label, method) in methods {
        let mut mems = Vec::new();
        for &h in &bandwidths {
            let cfg = config_for(&GAS, method, SolverKind::Hss)
                .with_h(h)
                .with_lambda(4.0);
            let model = KrrModel::fit(&ds.train, &ds.train_labels, &cfg).expect("training failed");
            mems.push(model.report().matrix_memory_mb());
        }
        columns.push((label.to_string(), mems));
    }

    let xs: Vec<f64> = bandwidths.to_vec();
    let cols: Vec<(&str, &[f64])> = columns
        .iter()
        .map(|(name, vals)| (name.as_str(), vals.as_slice()))
        .collect();
    print_series(
        &format!("Figure 5: GAS-like dataset, n={n_train}, lambda=4 — HSS memory (MB) vs h"),
        "h",
        &cols,
        &xs,
    );
    println!("\nExpected shape (paper): memory peaks at intermediate h; 2 Means uses the least memory for every h, Natural the most.");
}
