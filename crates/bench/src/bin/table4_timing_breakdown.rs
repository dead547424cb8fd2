//! Table 4: timing breakdown of the main algorithmic steps (H construction,
//! HSS construction split into sampling and other, ULV factorization,
//! solve) on SUSY-like and COVTYPE-like data, at a low and a high thread
//! count ("cores" in the paper).

use hkrr_bench::{config_for, dataset, print_table, scaled, with_threads};
use hkrr_clustering::ClusteringMethod;
use hkrr_core::{KrrModel, SolverKind};
use hkrr_datasets::spec_by_name;

fn main() {
    let max_threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4);
    let thread_counts = [2usize.min(max_threads), max_threads];
    let n_train = scaled(2500);

    let mut rows: Vec<Vec<String>> = vec![
        vec!["H construction".to_string()],
        vec!["HSS construction".to_string()],
        vec!["  -> Sampling".to_string()],
        vec!["  -> Other".to_string()],
        vec!["Factorization".to_string()],
        vec!["Solve".to_string()],
    ];
    let mut header = vec!["step".to_string()];

    for name in ["SUSY", "COVTYPE"] {
        let spec = spec_by_name(name).unwrap();
        let ds = dataset(&spec, n_train, 64, 77);
        for &threads in &thread_counts {
            header.push(format!("{name}/{threads}t"));
            let cfg = config_for(
                &spec,
                ClusteringMethod::TwoMeans { seed: 13 },
                SolverKind::HssWithHSampling,
            );
            let report = with_threads(threads, || {
                let model =
                    KrrModel::fit(&ds.train, &ds.train_labels, &cfg).expect("training failed");
                model.report().clone()
            });
            rows[0].push(format!("{:.3}", report.h_construction_seconds));
            rows[1].push(format!("{:.3}", report.hss_construction_seconds()));
            rows[2].push(format!("{:.3}", report.hss_sampling_seconds));
            rows[3].push(format!("{:.3}", report.hss_other_seconds));
            rows[4].push(format!("{:.3}", report.factorization_seconds));
            rows[5].push(format!("{:.3}", report.solve_seconds));
        }
    }

    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(
        &format!("Table 4: timing breakdown in seconds (n={n_train}, threads = simulated cores)"),
        &header_refs,
        &rows,
    );
    println!("\nExpected shape (paper): HSS construction dominates and is itself dominated by sampling; factorization and solve are comparatively tiny; more threads shrink the sampling-dominated steps.");
}
