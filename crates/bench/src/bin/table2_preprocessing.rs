//! Table 2: HSS memory (MB) under the four orderings (N/P, KD, PCA, 2MN)
//! plus classification accuracy, for the seven datasets of the paper.
//!
//! The paper uses 10k training / 1k test points; the default here is a
//! laptop-scale fraction of that (scale with HKRR_BENCH_SCALE).

use hkrr_bench::{config_for, dataset, print_table, scaled, test_accuracy};
use hkrr_clustering::ClusteringMethod;
use hkrr_core::{KrrModel, SolverKind};
use hkrr_datasets::all_table2_specs;

fn main() {
    let n_train = scaled(1500);
    let n_test = scaled(300);
    let methods = ClusteringMethod::table2_methods(11);

    let mut rows = Vec::new();
    for spec in all_table2_specs() {
        // MNIST's 784 dimensions make dense kernel evaluation the bottleneck;
        // keep its stand-in smaller so the whole table stays quick.
        let (nt, ns) = if spec.dim >= 512 {
            (n_train / 3, n_test / 3)
        } else {
            (n_train, n_test)
        };
        let ds = dataset(&spec, nt, ns, 17);
        let mut row = vec![
            format!("{} ({})", spec.name, spec.dim),
            format!("h={} l={}", spec.default_h, spec.default_lambda),
        ];
        let mut last_accuracy = 0.0;
        for &method in &methods {
            let cfg = config_for(&spec, method, SolverKind::Hss);
            let model = KrrModel::fit(&ds.train, &ds.train_labels, &cfg).expect("training failed");
            row.push(format!("{:.1}", model.report().matrix_memory_mb()));
            last_accuracy = test_accuracy(&model, &ds);
        }
        row.push(format!("{:.1}%", 100.0 * last_accuracy));
        row.push(format!("{:.1}%", 100.0 * spec.paper_accuracy));
        rows.push(row);
    }

    print_table(
        &format!(
            "Table 2: HSS memory (MB) per ordering + accuracy ({n_train} train / {n_test} test)"
        ),
        &[
            "Dataset (dim)",
            "params",
            "N/P",
            "KD",
            "PCA",
            "2MN",
            "Acc",
            "Acc (paper)",
        ],
        &rows,
    );
    println!("\nExpected shape (paper): memory decreases from N/P to KD to PCA to 2MN (up to ~10x), while accuracy is insensitive to the ordering.");
}
