//! Seeded workload inputs.
//!
//! The training set is fixed per workload; `--seed` draws the held-out
//! points and their order, which is the query stream. A fit's cost is
//! chaotic in its training points: the adaptive HSS sampler doubles its
//! sample count whenever a node's rank crosses the current budget, and
//! 2-means seeds its splits by point index. On LETTER with n = 4000 a
//! fresh draw per seed moves the max rank from 173 (seed 7) to 355
//! (seed 42) and the fit from about 5 s to about 9.5 s; even a seeded
//! jitter of 0.02 (3 % of the within-cluster noise) moved it from 219 to
//! 659, and one of 0.005 flipped ensemble shards between 168 and 336
//! samples, moving the ensemble fit from 2.4 s to 3.8 s. Runs with
//! different seeds would compare different problems.

use hkrr_datasets::{generate, DatasetSpec};
use hkrr_linalg::{Matrix, Pcg64};

/// Standard deviation of the seeded jitter on held-out points, in raw
/// feature units (2–3 % of the within-cluster noise of the specs used).
const JITTER: f64 = 0.02;

pub struct Inputs {
    pub train: Matrix,
    pub labels: Vec<f64>,
    /// Held-out points in query order.
    pub queries: Matrix,
    pub query_labels: Vec<f64>,
}

pub fn generate_inputs(
    spec: &DatasetSpec,
    dataset_seed: u64,
    n_train: usize,
    n_queries: usize,
    seed: u64,
) -> Inputs {
    let base = generate(spec, n_train, n_queries, dataset_seed);
    let mut rng = Pcg64::seed_from_u64(seed ^ 0x6265_6e63_685f_7365);
    let mut order: Vec<usize> = (0..n_queries).collect();
    rng.shuffle(&mut order);
    let mut queries = base.test.select_rows(&order);
    for v in queries.data_mut() {
        *v += JITTER * rng.next_gaussian();
    }
    let query_labels = order.iter().map(|&i| base.test_labels[i]).collect();
    Inputs {
        train: base.train,
        labels: base.train_labels,
        queries,
        query_labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hkrr_datasets::registry::LETTER;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate_inputs(&LETTER, 11, 50, 30, 7);
        let b = generate_inputs(&LETTER, 11, 50, 30, 7);
        let c = generate_inputs(&LETTER, 11, 50, 30, 8);
        assert_eq!(a.train.data(), b.train.data());
        assert_eq!(a.queries.data(), b.queries.data());
        assert_eq!(a.query_labels, b.query_labels);
        assert_ne!(a.queries.data(), c.queries.data());
        assert_ne!(a.query_labels, c.query_labels);
        // The training set is the workload's, whatever the seed.
        assert_eq!(a.train.data(), c.train.data());
        assert_eq!(a.labels, c.labels);
    }
}
