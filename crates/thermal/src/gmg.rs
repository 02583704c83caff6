//! Geometric multigrid preconditioner for the structured stack grid.
//!
//! Where [`crate::amg`] discovers its coarse spaces by pairwise matching
//! on matrix entries, this hierarchy exploits the geometry a
//! [`crate::model::ThermalModel`] matrix is known to have: `nl` layers
//! of `nx x ny` cells plus a handful of irregular package tail nodes.
//!
//! * **Coarsening is in-plane only** (`nx`, `ny` halve per level, each
//!   cell aggregating a 2x2 in-plane patch); the heterogeneous z-stack —
//!   thin D2D interfaces next to thick silicon dies, orders of magnitude
//!   apart in vertical conductance — stays fully resolved on every
//!   level, so no level ever mixes materials across layer boundaries.
//!   Tail nodes are carried through unaggregated.
//! * **Every level is a matrix-free [`StencilOperator`].** The finest
//!   level shares the caller's stencil (an `Arc`, never a copy). Each
//!   coarse operator is formed at build time by [`crate::amg::galerkin`]
//!   with the geometric 0/1 aggregate map — for piecewise-constant
//!   restriction that *is* the rediscretized conductance network on the
//!   coarsened cells (parallel conductances sum) — and its coefficient
//!   planes are extracted at once; the coarse CSR lives only until the
//!   next level's product is taken. Both residual matvecs of a cycle
//!   run on the stencil sweep, bit-identical to the CSR kernel, and a
//!   hierarchy with any level that does not extract as a stencil is not
//!   built at all (the caller falls back to AMG), so the cycle has a
//!   single code path.
//! * **Smoothing is damped z-line block Jacobi**: each in-plane cell
//!   column owns a tridiagonal block (the vertical couplings through
//!   the stack), factored once as `L D L^T` at build time from the
//!   stencil's `diag` and `down` planes and solved per sweep. Point
//!   smoothers degrade badly under pure in-plane coarsening because the
//!   vertical coupling dominates; solving whole z-lines exactly is the
//!   standard semicoarsening companion and keeps each sweep a fixed,
//!   deterministic sequence of plane-local operations (no cross-node
//!   reductions, so thread count can never reorder a sum).
//! * **The cycle is a symmetric V(1,1)** — identical pre/post smoothing
//!   around an over-corrected coarse-grid correction, dense Cholesky on
//!   the coarsest level — so `M^-1` is symmetric positive definite and
//!   valid for conjugate gradients, exactly like the AMG cycle it
//!   plugs in beside (see [`crate::solve`]).
//!
//! Compared to AMG on the same matrix the setup does no matching, no
//! triple products beyond one summed pass per level, and the z-line
//! factorization is O(n); apply trades the point-Jacobi sweeps for
//! tridiagonal solves, and its residuals for stencil sweeps. At 64x64
//! and 128x128 both setup and apply beat AMG (BENCH_thermal.json,
//! `preconditioner` rows).
//!
//! Like [`crate::amg`], the hierarchy is immutable once built: a cycle
//! writes only `z` and the caller-owned [`CycleScratch`], so concurrent
//! solves on one shared model apply it without locking.

use std::sync::Arc;

use crate::amg::{galerkin, CycleScratch, DenseChol, LevelScratch};
use crate::csr::CsrMatrix;
use crate::stencil::StencilOperator;

/// Damping for the z-line block-Jacobi smoother. Block smoothers
/// tolerate less damping than point Jacobi; 0.9 matches the AMG choice
/// and is safe for the M-matrices the model produces.
const SMOOTH_OMEGA: f64 = 0.9;

/// Scaling applied to the prolonged coarse-grid correction; see
/// [`crate::amg`] — piecewise-constant aggregation under-corrects and a
/// fixed scalar > 1 recovers most of it while preserving SPD.
const OVER_CORRECTION: f64 = 1.2;

/// Stop coarsening once a level has at most this many in-plane cells;
/// the remaining `nl * cells + tails` system goes to dense Cholesky.
const COARSE_CELLS_MAX: usize = 16;

/// Hard cap on hierarchy depth.
const MAX_LEVELS: usize = 16;

/// One level: its operator, the smoother factors, and the geometric
/// aggregate map onto the next-coarser level.
#[derive(Debug, Clone)]
struct GmgLevel {
    /// This level's operator (the finest level's is shared with the
    /// caller).
    op: Arc<StencilOperator>,
    /// `1 / D_l` of each cell column's `L D L^T` factor, indexed by
    /// node (`l * cells + c`) — same plane layout as the operator.
    inv_d: Vec<f64>,
    /// Sub-diagonal multipliers `L`: `sub[l * cells + c]` couples layer
    /// `l` to `l + 1` in column `c`; length `(nl - 1) * cells`.
    sub: Vec<f64>,
    /// `1 / diag` of the tail rows (smoothed pointwise).
    tail_inv_diag: Vec<f64>,
    /// `agg[i]` is the coarse node of fine node `i`.
    agg: Vec<u32>,
    /// Node count of the next-coarser level.
    coarse_n: usize,
}

/// Geometric multigrid hierarchy over the structured stack grid.
#[derive(Debug, Clone)]
pub struct GmgHierarchy {
    /// Number of z-layers, constant across levels.
    nl: usize,
    levels: Vec<GmgLevel>,
    coarse: DenseChol,
}

/// Factors every z-line tridiagonal block of `s` as `L D L^T` from its
/// `diag` and `down` planes, plus inverse diagonals for the tail rows.
fn zline_factors(s: &StencilOperator) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let cells = s.nx() * s.ny();
    let nl = s.layers();
    let (diag, down) = (s.diag_plane(), s.down_plane());
    let mut inv_d = vec![0.0; nl * cells];
    let mut sub = vec![0.0; cells * nl.saturating_sub(1)];
    for c in 0..cells {
        let mut prev_d = 1.0;
        let mut prev_b = 0.0;
        for l in 0..nl {
            let i = l * cells + c;
            let d = diag[i];
            let dl = if l == 0 {
                d
            } else {
                let m = prev_b / prev_d;
                sub[(l - 1) * cells + c] = m;
                d - m * prev_b
            };
            // SPD tridiagonal blocks of an M-matrix keep D > 0; the
            // clamp only guards degenerate hand-built matrices.
            let dl = dl.max(f64::MIN_POSITIVE);
            inv_d[i] = 1.0 / dl;
            prev_d = dl;
            prev_b = down[i];
        }
    }
    let tail_inv_diag = s
        .tail_diagonal()
        .map(|d| 1.0 / d.max(f64::MIN_POSITIVE))
        .collect();
    (inv_d, sub, tail_inv_diag)
}

impl GmgLevel {
    /// `z = M^-1 r` for the block-Jacobi matrix `M` (z-line tridiagonal
    /// blocks + tail diagonals). Plane-by-plane sweeps: forward
    /// substitution down the stack, diagonal scale, back substitution
    /// up — every operation is node-local within its plane, so the
    /// order is fixed and thread-count independent.
    fn block_solve(&self, nl: usize, r: &[f64], z: &mut [f64]) {
        let cells = self.op.nx() * self.op.ny();
        let grid_nodes = self.op.grid_nodes();
        z[..cells].copy_from_slice(&r[..cells]);
        for l in 1..nl {
            let base = l * cells;
            for c in 0..cells {
                z[base + c] = r[base + c] - self.sub[base - cells + c] * z[base - cells + c];
            }
        }
        for (zi, di) in z[..grid_nodes].iter_mut().zip(&self.inv_d) {
            *zi *= di;
        }
        for l in (0..nl.saturating_sub(1)).rev() {
            let base = l * cells;
            for c in 0..cells {
                z[base + c] -= self.sub[base + c] * z[base + cells + c];
            }
        }
        for (t, di) in self.tail_inv_diag.iter().enumerate() {
            z[grid_nodes + t] = r[grid_nodes + t] * di;
        }
    }
}

impl GmgHierarchy {
    /// Builds the hierarchy for `a`, whose stencil view `fine` (from
    /// [`StencilOperator::from_csr`] on `a`) becomes the finest level
    /// as is — shared, not copied.
    ///
    /// Returns `None` when `fine` and `a` differ in dimension, or when
    /// a coarse Galerkin operator does not extract as a stencil.
    #[must_use]
    pub fn build(a: &CsrMatrix, fine: Arc<StencilOperator>) -> Option<Self> {
        if fine.n() != a.n() {
            return None;
        }
        let nl = fine.layers();
        let n_tail = a.n() - fine.grid_nodes();

        let mut levels: Vec<GmgLevel> = Vec::new();
        let mut op = fine;
        // The current level's CSR, the input of the next Galerkin
        // product: `a` itself on the finest level (`None`), then each
        // coarse product, dropped once the next one is taken.
        let mut csr: Option<CsrMatrix> = None;
        loop {
            let (lnx, lny) = (op.nx(), op.ny());
            if lnx * lny <= COARSE_CELLS_MAX || levels.len() >= MAX_LEVELS {
                break;
            }
            let cnx = lnx.div_ceil(2);
            let cny = lny.div_ceil(2);
            if cnx == lnx && cny == lny {
                break;
            }
            let ccells = cnx * cny;
            let cgrid = nl * ccells;
            let mut agg = Vec::with_capacity(op.n());
            for l in 0..nl {
                for iy in 0..lny {
                    for ix in 0..lnx {
                        agg.push((l * ccells + (iy / 2) * cnx + ix / 2) as u32);
                    }
                }
            }
            for t in 0..n_tail {
                agg.push((cgrid + t) as u32);
            }
            let coarse_a = galerkin(csr.as_ref().unwrap_or(a), &agg, cgrid + n_tail);
            let coarse_op = StencilOperator::from_csr(&coarse_a, cnx, cny, nl)?;
            let (inv_d, sub, tail_inv_diag) = zline_factors(&op);
            levels.push(GmgLevel {
                op,
                inv_d,
                sub,
                tail_inv_diag,
                agg,
                coarse_n: coarse_a.n(),
            });
            op = Arc::new(coarse_op);
            csr = Some(coarse_a);
        }
        let coarse = DenseChol::factor(csr.as_ref().unwrap_or(a));
        Some(GmgHierarchy { nl, levels, coarse })
    }

    /// Applies one symmetric V(1,1) cycle: `z ≈ A^-1 r` for the matrix
    /// the hierarchy was built from, with every intermediate vector in
    /// `scratch`.
    pub fn apply(&self, r: &[f64], z: &mut [f64], scratch: &mut CycleScratch) {
        let s = self.fit_scratch(scratch);
        self.cycle(0, r, z, s);
    }

    /// Sizes `scratch` for a cycle of this hierarchy.
    pub(crate) fn fit_scratch<'s>(&self, scratch: &'s mut CycleScratch) -> &'s mut [LevelScratch] {
        let dims = self.levels.iter().map(|lvl| (lvl.op.n(), lvl.coarse_n));
        scratch.fit(dims, true)
    }

    /// Recursive V-cycle on level `lvl`; `scratch` holds the slots of
    /// `lvl` and every level below it.
    fn cycle(&self, lvl: usize, r: &[f64], z: &mut [f64], scratch: &mut [LevelScratch]) {
        let Some((s, below)) = scratch.split_first_mut() else {
            z.copy_from_slice(r);
            self.coarse.solve(z);
            return;
        };
        let level = &self.levels[lvl];
        let a = &*level.op;
        let n = a.n();
        let LevelScratch { tmp, cor, rhs, sol } = s;

        // Pre-smooth from zero: z = omega * M^-1 r.
        level.block_solve(self.nl, r, z);
        for zi in z.iter_mut() {
            *zi *= SMOOTH_OMEGA;
        }

        // Residual, restricted onto the geometric aggregates. `matvec`
        // parallelizes on the finest level when large enough; it is
        // bitwise identical to the serial sweep, and the restriction
        // itself runs in fixed fine-node order.
        a.matvec(z, tmp);
        rhs.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..n {
            rhs[level.agg[i] as usize] += r[i] - tmp[i];
        }

        self.cycle(lvl + 1, rhs, sol, below);

        // Prolong with over-correction.
        for i in 0..n {
            z[i] += OVER_CORRECTION * sol[level.agg[i] as usize];
        }

        // Post-smooth: z += omega * M^-1 (r - A z).
        a.matvec(z, tmp);
        for i in 0..n {
            tmp[i] = r[i] - tmp[i];
        }
        level.block_solve(self.nl, tmp, cor);
        for i in 0..n {
            z[i] += SMOOTH_OMEGA * cor[i];
        }
    }

    /// Number of levels including the dense-solved coarsest one.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// In-plane dimensions `(nx, ny)` of the finest coarsened level, or
    /// `None` when the whole system went straight to the dense solve.
    #[must_use]
    pub fn fine_dims(&self) -> Option<(usize, usize)> {
        self.levels.first().map(|l| (l.op.nx(), l.op.ny()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structured stack matrix with strongly anisotropic coupling
    /// (vertical conductance ~100x lateral, like a thin-layer stack)
    /// and an ambient leak on the top layer.
    fn stack_matrix(nx: usize, ny: usize, nl: usize) -> CsrMatrix {
        stack_matrix_with_rim(nx, ny, nl, 0)
    }

    /// [`stack_matrix`] plus `n_tail` package-style tail nodes: edge
    /// cells of the top layer couple to tail `(ix + iy) % n_tail`, the
    /// tails form a chain, and each leaks to ambient.
    fn stack_matrix_with_rim(nx: usize, ny: usize, nl: usize, n_tail: usize) -> CsrMatrix {
        let cells = nx * ny;
        let grid_nodes = nl * cells;
        let n = grid_nodes + n_tail;
        let mut nbrs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let link = |nbrs: &mut Vec<Vec<(u32, f64)>>, i: usize, j: usize, g: f64| {
            nbrs[i].push((j as u32, g));
            nbrs[j].push((i as u32, g));
        };
        for l in 0..nl {
            // Alternate "thick" and "thin" layers for heterogeneity.
            let gv = if l % 2 == 0 { 120.0 } else { 900.0 };
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = l * cells + iy * nx + ix;
                    if ix + 1 < nx {
                        link(&mut nbrs, i, i + 1, 1.0 + 0.1 * (l as f64));
                    }
                    if iy + 1 < ny {
                        link(&mut nbrs, i, i + nx, 1.3);
                    }
                    if l + 1 < nl {
                        link(&mut nbrs, i, i + cells, gv);
                    }
                }
            }
        }
        if n_tail > 0 {
            for iy in 0..ny {
                for ix in 0..nx {
                    if ix == 0 || iy == 0 || ix + 1 == nx || iy + 1 == ny {
                        let t = grid_nodes + (ix + iy) % n_tail;
                        link(&mut nbrs, iy * nx + ix, t, 0.7 + 0.01 * (ix as f64));
                    }
                }
            }
            for t in grid_nodes..n - 1 {
                link(&mut nbrs, t, t + 1, 2.5);
            }
        }
        let mut diagonal = vec![0.0; n];
        for (i, row) in nbrs.iter().enumerate() {
            let leak = if i < cells || i >= grid_nodes {
                2.0
            } else {
                0.0
            };
            let mut s = leak;
            for &(_, g) in row {
                s += g;
            }
            diagonal[i] = s;
        }
        CsrMatrix::from_adjacency(&nbrs, &diagonal)
    }

    /// The hierarchy for `a` read as `nl` layers of `nx x ny` cells,
    /// with the fine stencil extracted from `a` itself.
    fn build(a: &CsrMatrix, nx: usize, ny: usize, nl: usize) -> Option<GmgHierarchy> {
        let fine = StencilOperator::from_csr(a, nx, ny, nl)?;
        GmgHierarchy::build(a, Arc::new(fine))
    }

    /// Z-line factors read off the CSR rows, the way the hierarchy
    /// computed them before every level held a stencil.
    fn csr_zline_factors(
        a: &CsrMatrix,
        nx: usize,
        ny: usize,
        nl: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let cells = nx * ny;
        let grid_nodes = nl * cells;
        let mut inv_d = vec![0.0; grid_nodes];
        let mut sub = vec![0.0; cells * nl.saturating_sub(1)];
        for c in 0..cells {
            let mut prev_d = 1.0;
            let mut prev_b = 0.0;
            for l in 0..nl {
                let i = l * cells + c;
                let (cols, vals) = a.row(i);
                let d = vals[a.diag_pos(i)];
                let dl = if l == 0 {
                    d
                } else {
                    let m = prev_b / prev_d;
                    sub[(l - 1) * cells + c] = m;
                    d - m * prev_b
                };
                let dl = dl.max(f64::MIN_POSITIVE);
                inv_d[i] = 1.0 / dl;
                prev_d = dl;
                if l + 1 < nl {
                    let below = (i + cells) as u32;
                    prev_b = cols
                        .iter()
                        .position(|&cc| cc == below)
                        .map_or(0.0, |p| vals[p]);
                }
            }
        }
        let tail_inv_diag = (grid_nodes..a.n())
            .map(|i| 1.0 / a.row(i).1[a.diag_pos(i)].max(f64::MIN_POSITIVE))
            .collect();
        (inv_d, sub, tail_inv_diag)
    }

    /// Reference V-cycle on CSR operators: `a`, then the Galerkin
    /// products rebuilt from the hierarchy's aggregate maps, with CSR
    /// residual matvecs and CSR-derived smoother factors. The oracle
    /// `GmgHierarchy::apply` must match bit for bit.
    fn csr_reference_apply(h: &GmgHierarchy, a: &CsrMatrix, r: &[f64]) -> Vec<f64> {
        let mut ops = vec![a.clone()];
        for lvl in &h.levels {
            let next = galerkin(&ops[ops.len() - 1], &lvl.agg, lvl.coarse_n);
            ops.push(next);
        }
        let mut z = vec![0.0; r.len()];
        csr_reference_cycle(h, &ops, 0, r, &mut z);
        z
    }

    fn csr_reference_cycle(
        h: &GmgHierarchy,
        ops: &[CsrMatrix],
        lvl: usize,
        r: &[f64],
        z: &mut [f64],
    ) {
        let Some(level) = h.levels.get(lvl) else {
            z.copy_from_slice(r);
            h.coarse.solve(z);
            return;
        };
        let a = &ops[lvl];
        let n = a.n();
        let (inv_d, sub, tail_inv_diag) = csr_zline_factors(a, level.op.nx(), level.op.ny(), h.nl);
        let smoother = GmgLevel {
            inv_d,
            sub,
            tail_inv_diag,
            ..level.clone()
        };
        let mut tmp = vec![0.0; n];
        let mut cor = vec![0.0; n];
        let mut rhs = vec![0.0; level.coarse_n];
        let mut sol = vec![0.0; level.coarse_n];

        smoother.block_solve(h.nl, r, z);
        for zi in z.iter_mut() {
            *zi *= SMOOTH_OMEGA;
        }
        a.matvec_serial(z, &mut tmp);
        for i in 0..n {
            rhs[level.agg[i] as usize] += r[i] - tmp[i];
        }
        csr_reference_cycle(h, ops, lvl + 1, &rhs, &mut sol);
        for i in 0..n {
            z[i] += OVER_CORRECTION * sol[level.agg[i] as usize];
        }
        a.matvec_serial(z, &mut tmp);
        for i in 0..n {
            tmp[i] = r[i] - tmp[i];
        }
        smoother.block_solve(h.nl, &tmp, &mut cor);
        for i in 0..n {
            z[i] += SMOOTH_OMEGA * cor[i];
        }
    }

    #[test]
    fn small_grid_is_a_single_dense_level() {
        let a = stack_matrix(4, 4, 3);
        let h = build(&a, 4, 4, 3).expect("build");
        assert_eq!(h.num_levels(), 1);
        let b: Vec<f64> = (0..a.n()).map(|i| (i as f64) * 0.1 + 1.0).collect();
        let mut z = vec![0.0; a.n()];
        h.apply(&b, &mut z, &mut CycleScratch::new());
        let mut az = vec![0.0; a.n()];
        a.matvec_serial(&z, &mut az);
        for (got, want) in az.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8 * want.abs().max(1.0));
        }
    }

    #[test]
    fn coarsening_keeps_every_z_layer() {
        let a = stack_matrix(32, 32, 5);
        let h = build(&a, 32, 32, 5).expect("build");
        assert!(h.num_levels() >= 3, "expected real coarsening");
        for lvl in &h.levels {
            assert_eq!(lvl.op.layers(), 5);
            assert_eq!(lvl.op.grid_nodes(), lvl.op.n());
            assert_eq!(lvl.coarse_n % 5, 0, "coarse level lost a layer");
        }
    }

    #[test]
    fn finest_level_shares_the_callers_stencil() {
        let a = stack_matrix(24, 24, 3);
        let fine = Arc::new(StencilOperator::from_csr(&a, 24, 24, 3).expect("structured"));
        let h = GmgHierarchy::build(&a, Arc::clone(&fine)).expect("build");
        assert!(Arc::ptr_eq(&h.levels[0].op, &fine));
    }

    #[test]
    fn zline_solve_inverts_the_block_matrix() {
        let (nx, ny, nl) = (3, 2, 6);
        let a = stack_matrix(nx, ny, nl);
        let op = Arc::new(StencilOperator::from_csr(&a, nx, ny, nl).expect("structured"));
        let (inv_d, sub, tail_inv_diag) = zline_factors(&op);
        let lvl = GmgLevel {
            op,
            inv_d,
            sub,
            tail_inv_diag,
            agg: Vec::new(),
            coarse_n: 0,
        };
        // M z = r where M keeps only diagonal + vertical couplings.
        let r: Vec<f64> = (0..a.n()).map(|i| ((i as f64) * 0.4).cos() + 2.0).collect();
        let mut z = vec![0.0; a.n()];
        lvl.block_solve(nl, &r, &mut z);
        let cells = nx * ny;
        for i in 0..a.n() {
            let (cols, vals) = a.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                let j = j as usize;
                let vertical = j == i || j + cells == i || i + cells == j;
                if vertical {
                    acc += v * z[j];
                }
            }
            assert!(
                (acc - r[i]).abs() < 1e-10 * r[i].abs().max(1.0),
                "row {i}: {acc} vs {}",
                r[i]
            );
        }
    }

    #[test]
    fn v_cycle_contracts_on_an_anisotropic_stack() {
        let (nx, ny, nl) = (24, 24, 7);
        let a = stack_matrix(nx, ny, nl);
        let h = build(&a, nx, ny, nl).expect("build");
        assert!(h.num_levels() > 2);
        let n = a.n();
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.013).sin()).collect();
        let mut b = vec![0.0; n];
        a.matvec_serial(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let mut r = b.clone();
        let norm0: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut z = vec![0.0; n];
        let mut ax = vec![0.0; n];
        let mut scratch = CycleScratch::new();
        for _ in 0..40 {
            h.apply(&r, &mut z, &mut scratch);
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
            norm < 1e-8 * norm0,
            "V-cycle Richardson failed to contract: {norm:.3e} vs {norm0:.3e}"
        );
    }

    fn apply_bits(h: &GmgHierarchy, r: &[f64], scratch: &mut CycleScratch) -> Vec<u64> {
        let mut z = vec![0.0; r.len()];
        h.apply(r, &mut z, scratch);
        z.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn apply_matches_the_csr_reference_cycle_bitwise() {
        // Rim rows exercise the stencil's rim pass and the tail rows on
        // every level; odd dimensions give uneven aggregates.
        for &(nx, ny, nl, tail) in &[(24, 24, 5, 12), (33, 19, 4, 12), (20, 20, 3, 0)] {
            let a = stack_matrix_with_rim(nx, ny, nl, tail);
            let h = build(&a, nx, ny, nl).expect("build");
            assert!(h.num_levels() > 2, "({nx}x{ny}x{nl}) expected coarsening");
            let r: Vec<f64> = (0..a.n())
                .map(|i| 1.0 + ((i as f64) * 0.37).sin())
                .collect();
            let want: Vec<u64> = csr_reference_apply(&h, &a, &r)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert!(
                apply_bits(&h, &r, &mut CycleScratch::new()) == want,
                "({nx}x{ny}x{nl}+{tail}) stencil cycle differs from the CSR reference"
            );
        }
    }

    #[test]
    fn reused_scratch_applies_like_a_fresh_one() {
        // Every slot, the post-smoother's correction included, is
        // overwritten before it is read.
        let (nx, ny, nl) = (24, 24, 5);
        let a = stack_matrix(nx, ny, nl);
        let h = build(&a, nx, ny, nl).expect("build");
        assert!(h.num_levels() > 2);
        let n = a.n();
        let r1: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.21).cos() * 3.0).collect();
        let r2: Vec<f64> = (0..n).map(|i| 0.5 + (i % 11) as f64 * 0.2).collect();
        let mut scratch = CycleScratch::new();
        apply_bits(&h, &r1, &mut scratch);
        let reused = apply_bits(&h, &r2, &mut scratch);
        assert_eq!(reused, apply_bits(&h, &r2, &mut CycleScratch::new()));
    }

    #[test]
    fn scratch_shared_with_amg_applies_like_a_fresh_one() {
        // A fallback rung may hand the same workspace from an AMG
        // hierarchy (no correction slot) to a GMG one and back.
        let (nx, ny, nl) = (24, 24, 5);
        let a = stack_matrix(nx, ny, nl);
        let gmg = build(&a, nx, ny, nl).expect("build");
        let amg = crate::amg::AmgHierarchy::build(&a);
        let n = a.n();
        let r: Vec<f64> = (0..n).map(|i| 1.0 + ((i as f64) * 0.05).sin()).collect();
        let mut scratch = CycleScratch::new();
        let mut z = vec![0.0; n];
        amg.apply(&a, &r, &mut z, &mut scratch);
        let shared = apply_bits(&gmg, &r, &mut scratch);
        assert_eq!(shared, apply_bits(&gmg, &r, &mut CycleScratch::new()));
        let mut z_shared = vec![0.0; n];
        amg.apply(&a, &r, &mut z_shared, &mut scratch);
        let mut z_fresh = vec![0.0; n];
        amg.apply(&a, &r, &mut z_fresh, &mut CycleScratch::new());
        assert!(z_shared
            .iter()
            .zip(&z_fresh)
            .all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn mismatched_geometry_is_rejected() {
        let a = stack_matrix(4, 4, 2);
        assert!(build(&a, 8, 8, 2).is_none());
        assert!(build(&a, 4, 0, 2).is_none());
        // A fine stencil of another size than the matrix.
        let other = StencilOperator::from_csr(&stack_matrix(4, 4, 3), 4, 4, 3).expect("structured");
        assert!(GmgHierarchy::build(&a, Arc::new(other)).is_none());
    }

    #[test]
    fn non_stencil_coarse_level_is_rejected() {
        // `build` takes the caller's fine stencil as given but extracts
        // every coarse level itself. Here the matrix carries a diagonal
        // coupling between cells (1,1) and (2,2) that the fine stencil
        // does not: the two cells fall in diagonally adjacent 2x2
        // aggregates, so the first Galerkin product is not 7-point.
        let (nx, ny, nl) = (8, 8, 2);
        let clean = stack_matrix(nx, ny, nl);
        let fine = Arc::new(StencilOperator::from_csr(&clean, nx, ny, nl).expect("structured"));
        assert!(GmgHierarchy::build(&clean, Arc::clone(&fine)).is_some());
        let (p, q) = (nx + 1, 2 * nx + 2);
        let mut triplets = Vec::new();
        for i in 0..clean.n() {
            let (cols, vals) = clean.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                triplets.push((i as u32, j, v));
            }
        }
        triplets.extend([(p as u32, q as u32, -0.5), (q as u32, p as u32, -0.5)]);
        let skewed = CsrMatrix::from_triplets_summed(clean.n(), &triplets);
        assert!(StencilOperator::from_csr(&skewed, nx, ny, nl).is_none());
        assert!(GmgHierarchy::build(&skewed, fine).is_none());
    }
}
