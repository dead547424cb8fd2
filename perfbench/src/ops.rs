//! Tracing wrappers for the operators and the preconditioner the training
//! pipeline passes between layers. Each wrapper forwards every trait
//! method to the wrapped value, so the library runs its own code paths and
//! arithmetic; it only records a span around each call and counts the
//! kernel evaluations the call shape implies.

use crate::spans::Recorder;
use hkrr_linalg::iterative::Preconditioner;
use hkrr_linalg::{LinalgResult, LinearOperator, Matrix};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

const STRIPES: usize = 16;

#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

/// A counter that many threads bump at once, striped by thread so the
/// per-entry increments of the H-matrix build do not contend on one cache
/// line.
#[derive(Default)]
pub struct EvalCounter {
    stripes: [Stripe; STRIPES],
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

impl EvalCounter {
    pub fn add(&self, n: u64) {
        STRIPE.with(|&s| self.stripes[s].0.fetch_add(n, Ordering::Relaxed));
    }

    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Which layer a wrapped operator belongs to: it names the spans, and only
/// kernel operators evaluate kernel entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Layer {
    Kernel,
    HMatrix,
}

impl Layer {
    fn names(self) -> [&'static str; 5] {
        match self {
            Layer::Kernel => [
                "kernel.matvec",
                "kernel.rmatvec",
                "kernel.matmat",
                "kernel.rmatmat",
                "kernel.sub_block",
            ],
            Layer::HMatrix => [
                "hmatrix.matvec",
                "hmatrix.rmatvec",
                "hmatrix.matmat",
                "hmatrix.rmatmat",
                "hmatrix.sub_block",
            ],
        }
    }
}

pub struct TracedOp<'a, T: LinearOperator> {
    inner: &'a T,
    layer: Layer,
    rec: &'a Recorder,
    parent: Option<u64>,
    evals: &'a EvalCounter,
    /// Column count of every `matmat` call, in call order.
    matmat_cols: Mutex<Vec<usize>>,
}

impl<'a, T: LinearOperator> TracedOp<'a, T> {
    pub fn new(
        inner: &'a T,
        layer: Layer,
        rec: &'a Recorder,
        parent: Option<u64>,
        evals: &'a EvalCounter,
    ) -> Self {
        TracedOp {
            inner,
            layer,
            rec,
            parent,
            evals,
            matmat_cols: Mutex::new(Vec::new()),
        }
    }

    pub fn matmat_cols(&self) -> Vec<usize> {
        self.matmat_cols
            .lock()
            .expect("matmat log poisoned")
            .clone()
    }

    fn count(&self, n: usize) {
        if self.layer == Layer::Kernel {
            self.evals.add(n as u64);
        }
    }
}

impl<T: LinearOperator> LinearOperator for TracedOp<'_, T> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        self.count(1);
        self.inner.entry(i, j)
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        let _s = self.rec.span(self.layer.names()[0], self.parent, 0);
        self.count(self.nrows() * self.ncols());
        self.inner.matvec(x, y)
    }

    fn rmatvec(&self, x: &[f64], y: &mut [f64]) {
        let _s = self.rec.span(self.layer.names()[1], self.parent, 0);
        self.count(self.nrows() * self.ncols());
        self.inner.rmatvec(x, y)
    }

    fn matmat(&self, x: &Matrix) -> Matrix {
        let _s = self
            .rec
            .span(self.layer.names()[2], self.parent, x.ncols() as u64);
        self.matmat_cols
            .lock()
            .expect("matmat log poisoned")
            .push(x.ncols());
        self.count(self.nrows() * self.ncols() * x.ncols());
        self.inner.matmat(x)
    }

    fn rmatmat(&self, x: &Matrix) -> Matrix {
        let _s = self
            .rec
            .span(self.layer.names()[3], self.parent, x.ncols() as u64);
        self.count(self.nrows() * self.ncols() * x.ncols());
        self.inner.rmatmat(x)
    }

    fn sub_block(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        let _s = self.rec.span(self.layer.names()[4], self.parent, 0);
        self.count(rows.len() * cols.len());
        self.inner.sub_block(rows, cols)
    }

    fn to_dense(&self) -> Matrix {
        self.count(self.nrows() * self.ncols());
        self.inner.to_dense()
    }
}

/// The ULV preconditioner as PCG sees it, with a span per application.
pub struct TracedPrecond<'a, P: Preconditioner> {
    inner: &'a P,
    rec: &'a Recorder,
    parent: Option<u64>,
}

impl<'a, P: Preconditioner> TracedPrecond<'a, P> {
    pub fn new(inner: &'a P, rec: &'a Recorder, parent: Option<u64>) -> Self {
        TracedPrecond { inner, rec, parent }
    }
}

impl<P: Preconditioner> Preconditioner for TracedPrecond<'_, P> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) -> LinalgResult<()> {
        let _s = self.rec.span("ulv.apply", self.parent, 0);
        self.inner.apply(r, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hkrr_kernel::{KernelFunction, KernelMatrix};
    use hkrr_linalg::Pcg64;

    fn kernel(n: usize) -> KernelMatrix {
        let mut rng = Pcg64::seed_from_u64(3);
        let pts = Matrix::from_fn(n, 4, |_, _| rng.next_gaussian());
        KernelMatrix::new(pts, KernelFunction::gaussian(1.0))
    }

    #[test]
    fn kernel_evals_follow_the_call_shapes() {
        let n = 20;
        let km = kernel(n);
        let rec = Recorder::new(true);
        let evals = EvalCounter::default();
        let op = TracedOp::new(&km, Layer::Kernel, &rec, None, &evals);

        let mut expected = 0u64;
        for (i, j) in [(0, 1), (3, 3), (19, 0)] {
            assert_eq!(op.entry(i, j).to_bits(), km.entry(i, j).to_bits());
            expected += 1;
        }
        let rows = [1, 2, 3, 4, 5];
        let cols = [0, 2, 4, 6, 8, 10, 12];
        let b = op.sub_block(&rows, &cols);
        assert_eq!(b.data(), km.sub_block(&rows, &cols).data());
        expected += 5 * 7;

        let x: Vec<f64> = (0..n).map(|i| i as f64 - 3.5).collect();
        let (mut y1, mut y2) = (vec![0.0; n], vec![0.0; n]);
        op.matvec(&x, &mut y1);
        km.matvec(&x, &mut y2);
        assert_eq!(y1, y2);
        expected += (n * n) as u64;

        let xm = Matrix::from_fn(n, 3, |i, j| (i * 3 + j) as f64 * 0.1);
        assert_eq!(op.matmat(&xm).data(), km.matmat(&xm).data());
        expected += (n * n * 3) as u64;

        assert_eq!(evals.get(), expected);
        assert_eq!(op.matmat_cols(), vec![3]);
        // Entry calls are counted but not spanned.
        assert_eq!(rec.snapshot().len(), 3);
    }

    #[test]
    fn hmatrix_calls_evaluate_no_kernel_entries() {
        let km = kernel(8);
        let rec = Recorder::new(false);
        let evals = EvalCounter::default();
        let op = TracedOp::new(&km, Layer::HMatrix, &rec, None, &evals);
        let _ = op.matmat(&Matrix::zeros(8, 2));
        assert_eq!(evals.get(), 0);
    }

    #[test]
    fn striped_counter_sums_across_threads() {
        let c = EvalCounter::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(2);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
