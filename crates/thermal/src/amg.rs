//! Aggregation-based algebraic multigrid preconditioner.
//!
//! A single preconditioner application is one symmetric V(1,1) cycle:
//!
//! 1. pre-smooth with damped Jacobi (from a zero initial guess, so the
//!    smoother reduces to `z = omega * D^-1 r`),
//! 2. restrict the residual onto pairwise aggregates and recurse,
//! 3. solve the coarsest level exactly with a dense Cholesky factor,
//! 4. prolong the coarse correction back (with a fixed over-correction
//!    factor, which for piecewise-constant aggregation amounts to the
//!    usual "smoothed aggregation lite" scaling and preserves symmetric
//!    positive definiteness of the implied operator `M^-1`),
//! 5. post-smooth with the same damped Jacobi sweep.
//!
//! Coarsening is double-pairwise: two rounds of greedy matching along
//! the strongest negative off-diagonal couplings per level, giving
//! roughly 4x node reduction per level. The coarse operators are
//! Galerkin products `A_c = P^T A P`; with piecewise-constant 0/1
//! prolongation these are computed in a single pass over the fine
//! matrix by summing entries per aggregate pair.
//!
//! The cycle is symmetric (identical pre/post smoothing, symmetric
//! coarse solves), so it is a valid preconditioner for conjugate
//! gradients. On the thermal grids produced by
//! [`crate::model::ThermalModel`] it cuts CG iteration counts by
//! roughly an order of magnitude relative to Jacobi at an apply cost
//! of a few fine-grid matvecs.
//!
//! The hierarchy is immutable after [`AmgHierarchy::build`]: every
//! per-level vector a cycle writes lives in a caller-owned
//! [`CycleScratch`] (held by [`crate::SolverWorkspace`]), so any number
//! of threads may apply one shared hierarchy at once without locking,
//! and a panic mid-cycle leaves nothing behind for the next caller.

use crate::csr::CsrMatrix;

/// Damping factor for the Jacobi smoother. 2/3 is the classic choice
/// for M-matrices; slightly lower is more robust on the strongly
/// anisotropic vertical/lateral coupling ratios seen in 3D stacks.
const SMOOTH_OMEGA: f64 = 0.9;

/// Scaling applied to the prolonged coarse-grid correction.
/// Plain (unsmoothed) aggregation systematically under-corrects; a
/// fixed scalar > 1 recovers most of the lost convergence speed while
/// keeping `M^-1` symmetric positive definite.
const OVER_CORRECTION: f64 = 1.2;

/// Stop coarsening once a level has at most this many nodes and solve
/// it with a dense Cholesky factorization instead.
const COARSE_MAX: usize = 200;

/// Hard cap on hierarchy depth (also the bail-out when pairwise
/// matching stalls on a pathological matrix).
const MAX_LEVELS: usize = 25;

/// Minimum per-level shrink factor; if a coarsening round does worse
/// than this the hierarchy stops growing and the current level becomes
/// the (dense-solved) coarsest one.
const MIN_SHRINK: f64 = 0.9;

/// Dense Cholesky factorization of the coarsest-level operator.
/// Shared with the geometric hierarchy in [`crate::gmg`].
#[derive(Debug, Clone)]
pub(crate) struct DenseChol {
    n: usize,
    /// Lower-triangular factor, row-major, full `n x n` storage.
    l: Vec<f64>,
}

impl DenseChol {
    pub(crate) fn factor(a: &CsrMatrix) -> Self {
        let n = a.n();
        let mut m = vec![0.0f64; n * n];
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                m[i * n + j as usize] = v;
            }
        }
        // In-place left-looking Cholesky on the lower triangle.
        for i in 0..n {
            for j in 0..=i {
                let mut sum = m[i * n + j];
                for k in 0..j {
                    sum -= m[i * n + k] * m[j * n + k];
                }
                if i == j {
                    m[i * n + j] = sum.max(f64::MIN_POSITIVE).sqrt();
                } else {
                    m[i * n + j] = sum / m[j * n + j];
                }
            }
        }
        DenseChol { n, l: m }
    }

    /// Solves `L L^T x = b` in place.
    pub(crate) fn solve(&self, x: &mut [f64]) {
        let n = self.n;
        for i in 0..n {
            let row = &self.l[i * n..i * n + i];
            let mut sum = x[i];
            for (lik, xk) in row.iter().zip(&*x) {
                sum -= lik * xk;
            }
            x[i] = sum / self.l[i * n + i];
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for (k, xk) in x.iter().enumerate().take(n).skip(i + 1) {
                sum -= self.l[k * n + i] * xk;
            }
            x[i] = sum / self.l[i * n + i];
        }
    }
}

/// One level of the hierarchy: the fine operator's inverse diagonal
/// (for smoothing), the aggregate map onto the next-coarser level, and
/// the coarse operator itself.
#[derive(Debug, Clone)]
struct AmgLevel {
    /// `agg[i]` is the coarse index of fine node `i`.
    agg: Vec<u32>,
    /// `1 / A[i][i]` on this (fine) level.
    inv_diag: Vec<f64>,
    /// Galerkin coarse operator `P^T A P`.
    coarse_a: CsrMatrix,
}

/// One level's V-cycle vectors. Every entry is overwritten before it is
/// read, so only the lengths carry over from one cycle to the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct LevelScratch {
    /// Residual workspace (fine-level sized).
    pub(crate) tmp: Vec<f64>,
    /// Smoother output (fine-level sized; geometric cycle only).
    pub(crate) cor: Vec<f64>,
    /// Restricted right-hand side (coarse-level sized).
    pub(crate) rhs: Vec<f64>,
    /// Coarse-grid correction (coarse-level sized).
    pub(crate) sol: Vec<f64>,
}

/// Caller-owned V-cycle scratch for [`AmgHierarchy`] and
/// [`crate::gmg::GmgHierarchy`], one `LevelScratch` per level above
/// the dense coarsest one. It fits itself to whichever hierarchy applies
/// it, so one scratch may serve several hierarchies in turn (a fallback
/// rung, a transient operator) at the cost of a resize on each switch.
#[derive(Debug, Clone, Default)]
pub struct CycleScratch {
    levels: Vec<LevelScratch>,
}

impl CycleScratch {
    /// An empty scratch; sized on first apply.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the scratch for a hierarchy whose levels have the given
    /// `(fine, coarse)` node counts (`cor` only when `smoother_out`), and
    /// returns the per-level slots. Lengths that already match cost one
    /// comparison each.
    pub(crate) fn fit(
        &mut self,
        dims: impl ExactSizeIterator<Item = (usize, usize)>,
        smoother_out: bool,
    ) -> &mut [LevelScratch] {
        self.levels.resize_with(dims.len(), LevelScratch::default);
        for (s, (n, nc)) in self.levels.iter_mut().zip(dims) {
            s.tmp.resize(n, 0.0);
            if smoother_out {
                s.cor.resize(n, 0.0);
            }
            s.rhs.resize(nc, 0.0);
            s.sol.resize(nc, 0.0);
        }
        &mut self.levels
    }
}

/// Aggregation AMG hierarchy built from a fine-level [`CsrMatrix`].
#[derive(Debug, Clone)]
pub struct AmgHierarchy {
    levels: Vec<AmgLevel>,
    coarse: DenseChol,
}

/// Greedy pairwise matching along the strongest negative off-diagonal
/// coupling. Returns `(agg, n_coarse)` where `agg[i]` is the aggregate
/// index of node `i`. Unmatched nodes become singleton aggregates.
fn pairwise_aggregate(a: &CsrMatrix) -> (Vec<u32>, usize) {
    let n = a.n();
    const UNSET: u32 = u32::MAX;
    let mut agg = vec![UNSET; n];
    let mut next = 0u32;
    for i in 0..n {
        if agg[i] != UNSET {
            continue;
        }
        // Strongest (most negative) unaggregated neighbour.
        let (cols, vals) = a.row(i);
        let mut best: Option<(usize, f64)> = None;
        for (&j, &v) in cols.iter().zip(vals) {
            let j = j as usize;
            if j == i || agg[j] != UNSET || v >= 0.0 {
                continue;
            }
            if best.is_none_or(|(_, bv)| v < bv) {
                best = Some((j, v));
            }
        }
        agg[i] = next;
        if let Some((j, _)) = best {
            agg[j] = next;
        }
        next += 1;
    }
    (agg, next as usize)
}

/// Galerkin product `P^T A P` for piecewise-constant `P` given by the
/// aggregate map: sums fine entries per (coarse row, coarse col) pair.
/// For a 0/1 restriction this is identical to rediscretizing the
/// conductance network on the aggregated cells, which is how
/// [`crate::gmg`] reuses it for its geometric coarse operators.
pub(crate) fn galerkin(a: &CsrMatrix, agg: &[u32], n_coarse: usize) -> CsrMatrix {
    let mut triplets = Vec::with_capacity(a.nnz());
    for i in 0..a.n() {
        let ci = agg[i];
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            triplets.push((ci, agg[j as usize], v));
        }
    }
    CsrMatrix::from_triplets_summed(n_coarse, &triplets)
}

/// Composes two aggregate maps (fine -> mid, mid -> coarse).
fn compose(first: &[u32], second: &[u32]) -> Vec<u32> {
    first.iter().map(|&m| second[m as usize]).collect()
}

impl AmgHierarchy {
    /// Builds the full hierarchy from the fine operator.
    #[must_use]
    pub fn build(a: &CsrMatrix) -> Self {
        let mut levels: Vec<AmgLevel> = Vec::new();
        loop {
            // The fine matrix is borrowed; each pushed level owns its
            // coarse operator, which becomes the next round's input.
            let (agg, inv_diag, coarse_a) = {
                let cur = levels.last().map_or(a, |l| &l.coarse_a);
                if cur.n() <= COARSE_MAX || levels.len() >= MAX_LEVELS {
                    break;
                }
                // Double-pairwise coarsening: match once, form the
                // intermediate operator, match again, then compose.
                let (agg1, n1) = pairwise_aggregate(cur);
                let mid = galerkin(cur, &agg1, n1);
                let (agg2, n2) = pairwise_aggregate(&mid);
                if (n2 as f64) > MIN_SHRINK * (cur.n() as f64) {
                    break; // coarsening stalled
                }
                let agg = compose(&agg1, &agg2);
                let coarse_a = galerkin(&mid, &agg2, n2);
                let inv_diag: Vec<f64> = cur.diagonal().iter().map(|&d| 1.0 / d).collect();
                (agg, inv_diag, coarse_a)
            };
            levels.push(AmgLevel {
                agg,
                inv_diag,
                coarse_a,
            });
        }
        let coarse = DenseChol::factor(levels.last().map_or(a, |l| &l.coarse_a));
        AmgHierarchy { levels, coarse }
    }

    /// Applies one symmetric V(1,1) cycle: `z ≈ A^-1 r`, with every
    /// intermediate vector in `scratch`.
    pub fn apply(&self, a: &CsrMatrix, r: &[f64], z: &mut [f64], scratch: &mut CycleScratch) {
        let s = self.fit_scratch(a, scratch);
        self.cycle(0, a, r, z, s);
    }

    /// Sizes `scratch` for a cycle on `a` (the finest operator).
    pub(crate) fn fit_scratch<'s>(
        &self,
        a: &CsrMatrix,
        scratch: &'s mut CycleScratch,
    ) -> &'s mut [LevelScratch] {
        let mut n = a.n();
        let dims = self.levels.iter().map(|lvl| {
            let fine = n;
            n = lvl.coarse_a.n();
            (fine, n)
        });
        scratch.fit(dims, false)
    }

    /// Recursive V-cycle on level `lvl`; `a` is that level's operator
    /// and `scratch` holds the slots of `lvl` and every level below it.
    fn cycle(
        &self,
        lvl: usize,
        a: &CsrMatrix,
        r: &[f64],
        z: &mut [f64],
        scratch: &mut [LevelScratch],
    ) {
        let Some((s, below)) = scratch.split_first_mut() else {
            z.copy_from_slice(r);
            self.coarse.solve(z);
            return;
        };
        let level = &self.levels[lvl];
        let n = a.n();
        let LevelScratch { tmp, rhs, sol, .. } = s;

        // Pre-smooth from zero: z = omega * D^-1 r.
        for i in 0..n {
            z[i] = SMOOTH_OMEGA * level.inv_diag[i] * r[i];
        }

        // Residual tmp = r - A z, restricted onto aggregates.
        a.matvec_serial(z, tmp);
        rhs.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..n {
            rhs[level.agg[i] as usize] += r[i] - tmp[i];
        }

        self.cycle(lvl + 1, &level.coarse_a, rhs, sol, below);

        // Prolong with over-correction.
        for i in 0..n {
            z[i] += OVER_CORRECTION * sol[level.agg[i] as usize];
        }

        // Post-smooth: z += omega * D^-1 (r - A z).
        a.matvec_serial(z, tmp);
        for i in 0..n {
            z[i] += SMOOTH_OMEGA * level.inv_diag[i] * (r[i] - tmp[i]);
        }
    }

    /// Number of levels including the dense-solved coarsest one.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1D Poisson-like SPD matrix with an ambient leak on the diagonal.
    fn tridiag(n: usize) -> CsrMatrix {
        let mut adjacency: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut diagonal = vec![0.1; n];
        for i in 0..n {
            if i + 1 < n {
                adjacency[i].push((i as u32 + 1, 1.0));
                adjacency[i + 1].push((i as u32, 1.0));
            }
        }
        for (i, row) in adjacency.iter().enumerate() {
            diagonal[i] += row.iter().map(|&(_, g)| g).sum::<f64>();
        }
        CsrMatrix::from_adjacency(&adjacency, &diagonal)
    }

    #[test]
    fn dense_cholesky_solves_exactly() {
        let a = tridiag(12);
        let chol = DenseChol::factor(&a);
        let x_true: Vec<f64> = (0..12).map(|i| (i as f64).sin() + 2.0).collect();
        let mut b = vec![0.0; 12];
        a.matvec_serial(&x_true, &mut b);
        chol.solve(&mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn pairwise_matching_covers_all_nodes() {
        let a = tridiag(101);
        let (agg, nc) = pairwise_aggregate(&a);
        assert!(nc < 101);
        assert!(nc >= 51); // pairs at best
        let mut seen = vec![false; nc];
        for &g in &agg {
            seen[g as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn galerkin_preserves_symmetry_and_spd_diagonal() {
        let a = tridiag(64);
        let (agg, nc) = pairwise_aggregate(&a);
        let c = galerkin(&a, &agg, nc);
        assert_eq!(c.n(), nc);
        for i in 0..nc {
            let (cols, vals) = c.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                // Symmetric: find (j, i).
                let (jc, jv) = c.row(j as usize);
                let pos = jc.iter().position(|&k| k == i as u32).expect("symmetric");
                assert!((jv[pos] - v).abs() < 1e-12);
            }
            assert!(c.row(i).1[c.diag_pos(i)] > 0.0);
        }
    }

    #[test]
    fn small_matrix_builds_single_dense_level() {
        let a = tridiag(10);
        let h = AmgHierarchy::build(&a);
        assert_eq!(h.num_levels(), 1);
        let b: Vec<f64> = (0..10).map(|i| (i as f64) * 0.3 + 1.0).collect();
        let mut z = vec![0.0; 10];
        h.apply(&a, &b, &mut z, &mut CycleScratch::new());
        // Single-level hierarchy = exact solve.
        let mut az = vec![0.0; 10];
        a.matvec_serial(&z, &mut az);
        for (got, want) in az.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn reused_scratch_applies_like_a_fresh_one() {
        // The cycle overwrites every scratch slot before reading it, so
        // a scratch left dirty by a different residual changes nothing.
        let n = 2000;
        let a = tridiag(n);
        let h = AmgHierarchy::build(&a);
        assert!(h.num_levels() > 2);
        let r1: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let r2: Vec<f64> = (0..n).map(|i| 1.0 + (i % 9) as f64).collect();
        let mut scratch = CycleScratch::new();
        let mut z = vec![0.0; n];
        h.apply(&a, &r1, &mut z, &mut scratch);
        h.apply(&a, &r2, &mut z, &mut scratch);
        let mut z_fresh = vec![0.0; n];
        h.apply(&a, &r2, &mut z_fresh, &mut CycleScratch::new());
        assert!(z
            .iter()
            .zip(&z_fresh)
            .all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn scratch_refits_when_the_hierarchy_changes() {
        // One scratch serving a large hierarchy, then a smaller one,
        // then the large one again: each apply matches a fresh scratch.
        let (big, small) = (tridiag(3000), tridiag(500));
        let (hb, hs) = (AmgHierarchy::build(&big), AmgHierarchy::build(&small));
        assert_ne!(hb.num_levels(), hs.num_levels());
        let rb: Vec<f64> = (0..3000).map(|i| ((i as f64) * 0.01).cos()).collect();
        let rs: Vec<f64> = (0..500).map(|i| 2.0 - (i % 5) as f64 * 0.3).collect();
        let fresh = |h: &AmgHierarchy, a: &CsrMatrix, r: &[f64]| {
            let mut z = vec![0.0; r.len()];
            h.apply(a, r, &mut z, &mut CycleScratch::new());
            z
        };
        let mut scratch = CycleScratch::new();
        for (h, a, r) in [(&hb, &big, &rb), (&hs, &small, &rs), (&hb, &big, &rb)] {
            let mut z = vec![0.0; r.len()];
            h.apply(a, r, &mut z, &mut scratch);
            assert_eq!(scratch.levels.len(), h.num_levels() - 1);
            let want = fresh(h, a, r);
            assert!(z.iter().zip(&want).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    #[test]
    fn v_cycle_contracts_the_error() {
        // Richardson iteration with the V-cycle as the preconditioner
        // must contract on a large 1D problem.
        let n = 5000;
        let a = tridiag(n);
        let h = AmgHierarchy::build(&a);
        assert!(h.num_levels() > 1);
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.01).cos()).collect();
        let mut b = vec![0.0; n];
        a.matvec_serial(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let norm0: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut z = vec![0.0; n];
        let mut ax = vec![0.0; n];
        let mut scratch = CycleScratch::new();
        for _ in 0..30 {
            h.apply(&a, &r, &mut z, &mut scratch);
            for i in 0..n {
                x[i] += z[i];
            }
            a.matvec_serial(&x, &mut ax);
            for i in 0..n {
                r[i] = b[i] - ax[i];
            }
        }
        let norm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            norm < 1e-6 * norm0,
            "V-cycle Richardson failed to contract: {norm:.3e} vs {norm0:.3e}"
        );
    }
}
