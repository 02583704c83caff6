//! Per-block unit thermal responses (discrete Green's functions).
//!
//! The RC network is linear, so the temperature field is an affine
//! function of block powers:
//!
//! ```text
//! T(cell) = T_ambient_field(cell) + sum_b P_b * R_b(cell)
//! ```
//!
//! [`ThermalResponse::compute`] solves one steady-state problem per power
//! source (83 processor blocks + one uniform source per DRAM die) and
//! stores the responses at the two sensor layers the experiments read:
//! the processor metal layer and the bottom-most DRAM metal layer. Every
//! subsequent evaluation is then a dense dot product instead of a solve —
//! this is what makes sweeping 17 applications x 5 schemes x 12
//! frequencies practical.
//!
//! The unit solves run as `CHAINS` contiguous warm-start chains: each
//! chain solves its sources in order, seeding every solve with the
//! previous source's field. The chains run on the thread pool over one
//! shared model (the model is read-only during a solve; all mutable
//! solver state lives in the workspace), one workspace and warm-start
//! field per running chain, and write their rows into slots
//! preallocated by source index. The partition is a constant, not the
//! thread count, so every warm start — and with it every response bit —
//! is the same on any pool size.
//!
//! Responses are cached on disk (JSON under a caller-supplied directory)
//! keyed by a hash of the full stack configuration.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use xylem_stack::builder::BuiltStack;
use xylem_thermal::error::ThermalError;
use xylem_thermal::grid::GridSpec;
use xylem_thermal::power::PowerMap;
use xylem_thermal::units::{Celsius, Watts};
use xylem_thermal::{DeadlineGuard, SolverWorkspace, TemperatureField};

use crate::Result;

/// Number of warm-start chains the unit sources are split into. Fixed
/// (not a knob, not the pool size) because the partition decides which
/// field seeds each solve: changing it changes response bits within the
/// solver tolerance, and needs a [`ThermalResponse`] cache-version bump.
/// Eight chains keep two to eight threads busy while each chain stays
/// long enough (11-12 sources) for warm starts to pay off.
const CHAINS: usize = 8;

/// The sources chain `k` of [`CHAINS`] solves, out of `n`: contiguous,
/// in order, covering `0..n` once, with lengths that differ by at most
/// one.
fn chain_bounds(k: usize, n: usize) -> std::ops::Range<usize> {
    k * n / CHAINS..(k + 1) * n / CHAINS
}

/// A task's solver state, reused by each chain it runs: workspace,
/// warm-start field and unit power map.
type Kit = (SolverWorkspace, TemperatureField, PowerMap);

/// One unit power source.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    /// 1 W spread over a processor block.
    Block(&'a str),
    /// 1 W spread uniformly over a DRAM die's metal layer.
    Die(usize),
}

/// Sensor-layer responses to unit power in each source.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalResponse {
    grid_nx: usize,
    grid_ny: usize,
    ambient_c: f64,
    /// Processor-block names, in source order.
    proc_blocks: Vec<String>,
    /// `proc_response[source][cell]`: K/W at the processor metal layer.
    /// Sources: processor blocks first, then one per DRAM die (top
    /// first).
    proc_response: Vec<Vec<f64>>,
    /// Same sources, sensed at the bottom DRAM metal layer.
    dram_response: Vec<Vec<f64>>,
    /// Number of DRAM-die sources.
    n_dram_dies: usize,
    /// Cells of each core's 9 blocks at the processor metal layer
    /// (core id 1..=8 -> index 0..8).
    core_cells: Vec<Vec<usize>>,
}

impl ThermalResponse {
    /// Solves the unit problems for `built` on `grid`.
    ///
    /// # Errors
    ///
    /// Propagates discretization/solver errors.
    pub fn compute(built: &BuiltStack, grid: GridSpec) -> Result<Self> {
        let model = built.stack().discretize(grid)?;
        let pm_layer = built.proc_metal_layer();
        let bd_layer = built.bottom_dram_metal_layer();

        let proc_blocks: Vec<String> = model.block_names(pm_layer).to_vec();
        let n_dram = built.dram_metal_layers().len();
        let sources: Vec<Source<'_>> = proc_blocks
            .iter()
            .map(|b| Source::Block(b))
            .chain(built.dram_metal_layers().iter().map(|&l| Source::Die(l)))
            .collect();

        // Ambient field: zero power everywhere -> everything at ambient.
        // (The affine term is just the ambient constant for this package.)
        let ambient_c = model.ambient().get();
        let n = sources.len();
        // Every row is allocated here, up front, so no long-lived row
        // lands between the chains' short-lived solver buffers in a
        // worker thread's allocator arena (which would keep the arena
        // from returning those buffers' pages).
        let mut proc_response = vec![vec![0.0; grid.cells()]; n];
        let mut dram_response = vec![vec![0.0; grid.cells()]; n];
        // Per chain: the residual of its last solve, or its first error.
        let mut outcomes: Vec<Result<Option<f64>>> = (0..CHAINS).map(|_| Ok(None)).collect();

        // One chain: its sources in order, each solve warm-started from
        // the previous source's field (neighbouring blocks produce similar
        // unit responses, so a chain converges in a fraction of the cold
        // per-solve iteration count); the first source starts cold.
        let run_chain = |(ws, field, p): &mut Kit,
                         sources: &[Source<'_>],
                         proc_rows: &mut [Vec<f64>],
                         dram_rows: &mut [Vec<f64>]|
         -> Result<Option<f64>> {
            field.fill(model.ambient());
            for ((src, pr), dr) in sources.iter().zip(proc_rows).zip(dram_rows) {
                p.clear();
                match *src {
                    Source::Block(b) => p.add_block_power(&model, pm_layer, b, Watts::new(1.0))?,
                    Source::Die(l) => p.add_uniform_layer_power(l, Watts::new(1.0)),
                }
                model.steady_state_in_place(p, field, ws)?;
                for (row, layer) in [(pr, pm_layer), (dr, bd_layer)] {
                    for (r, x) in row.iter_mut().zip(field.layer_slice(layer)) {
                        *r = x - ambient_c;
                    }
                }
            }
            Ok((!sources.is_empty()).then(|| field.stats().residual))
        };

        // Chain k goes to task k mod tasks. A task runs its chains one
        // after another through one kit (presized workspace, warm-start
        // field, power map) allocated here on the calling thread, so the
        // solves allocate nothing on the pool threads.
        let tasks = CHAINS.min(rayon::current_num_threads());
        let mut kits: Vec<Kit> = (0..tasks)
            .map(|_| {
                let field = TemperatureField::uniform(&model, model.ambient());
                (model.workspace(), field, PowerMap::zeros(&model))
            })
            .collect();
        let mut task_chains: Vec<Vec<_>> = (0..tasks).map(|_| Vec::new()).collect();
        let (mut srcs, mut procs, mut drams) =
            (&sources[..], &mut proc_response[..], &mut dram_response[..]);
        for (k, outcome) in outcomes.iter_mut().enumerate() {
            let len = chain_bounds(k, n).len();
            let (src_k, src_rest) = srcs.split_at(len);
            let (proc_k, proc_rest) = std::mem::take(&mut procs).split_at_mut(len);
            let (dram_k, dram_rest) = std::mem::take(&mut drams).split_at_mut(len);
            (srcs, procs, drams) = (src_rest, proc_rest, dram_rest);
            task_chains[k % tasks].push((src_k, proc_k, dram_k, outcome));
        }
        // The solve deadline is thread-local; each task re-installs the
        // caller's on the pool thread it runs on.
        let deadline = DeadlineGuard::current();
        rayon::scope(|s| {
            for (kit, chains) in kits.iter_mut().zip(task_chains) {
                let run_chain = &run_chain;
                s.spawn(move |_| {
                    let _deadline = deadline.map(DeadlineGuard::install);
                    for (sources, proc_rows, dram_rows, outcome) in chains {
                        *outcome = run_chain(kit, sources, proc_rows, dram_rows);
                    }
                });
            }
        });
        // First failure in chain order, so the error does not depend on
        // which chain finished first.
        let mut last_residual = None;
        for outcome in outcomes {
            last_residual = outcome?.or(last_residual);
        }
        // Each solve publishes its residual as it finishes, so after the
        // join the gauge holds whichever chain ended last; re-publish the
        // last source's, which is what a serial build leaves behind.
        if let Some(r) = last_residual {
            xylem_obs::set_gauge(xylem_obs::Gauge::LastResidual, r);
        }

        // Core cell sets for per-core hotspot queries.
        let mut core_cells = Vec::with_capacity(8);
        for core in 1..=8usize {
            let mut cells = Vec::new();
            for sub in xylem_stack::proc_die::CORE_BLOCKS {
                let name = xylem_stack::proc_die::ProcDieGeometry::core_block_name(core, sub);
                if let Ok(w) = model.block_weights(pm_layer, &name) {
                    cells.extend(w.iter().map(|&(c, _)| c));
                }
            }
            cells.sort_unstable();
            cells.dedup();
            core_cells.push(cells);
        }

        Ok(ThermalResponse {
            grid_nx: grid.nx(),
            grid_ny: grid.ny(),
            ambient_c,
            proc_blocks,
            proc_response,
            dram_response,
            n_dram_dies: n_dram,
            core_cells,
        })
    }

    /// Loads a cached response for `built`+`grid` from `cache_dir`, or
    /// computes and stores it. Pass a directory like
    /// `target/xylem-cache`; it is created if missing.
    ///
    /// # Errors
    ///
    /// Propagates computation errors. Cache I/O failures fall back to
    /// recomputation (and are reported only if recomputation also fails).
    pub fn load_or_compute(
        cache_dir: impl AsRef<Path>,
        built: &BuiltStack,
        grid: GridSpec,
    ) -> Result<Self> {
        let path = Self::cache_path(cache_dir.as_ref(), built, grid);
        if let Ok(bytes) = std::fs::read(&path) {
            if let Ok(r) = serde_json::from_slice::<ThermalResponse>(&bytes) {
                if r.grid_nx == grid.nx() && r.grid_ny == grid.ny() {
                    return Ok(r);
                }
            }
        }
        let r = Self::compute(built, grid)?;
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Ok(bytes) = serde_json::to_vec(&r) {
            let _ = std::fs::write(&path, bytes);
        }
        Ok(r)
    }

    /// Bump when solver numerics or derived geometry (anything not
    /// captured by the config serialization, e.g. scheme site-placement
    /// logic) change, so stale caches are never served.
    // v3: CSR solver core with AMG preconditioning and warm-started
    // unit solves — numerically equivalent within tolerance, but not
    // bit-identical to v2 fields.
    // v4: unit solves split into `CHAINS` fixed contiguous warm-start
    // chains (each chain's first source cold-starts) — equivalent
    // within tolerance, not bit-identical to the single v3 chain.
    const CACHE_VERSION: u32 = 4;

    fn cache_path(dir: &Path, built: &BuiltStack, grid: GridSpec) -> PathBuf {
        let mut h = DefaultHasher::new();
        Self::CACHE_VERSION.hash(&mut h);
        // Hash the full configuration (geometry, scheme, package) via its
        // JSON serialization, the *derived* TTSV site list (placement
        // logic lives outside the config), and the grid.
        let cfg = serde_json::to_string(built.config()).unwrap_or_default();
        cfg.hash(&mut h);
        let sites = serde_json::to_string(built.sites()).unwrap_or_default();
        sites.hash(&mut h);
        grid.nx().hash(&mut h);
        grid.ny().hash(&mut h);
        dir.join(format!("response-{:016x}.json", h.finish()))
    }

    /// Whether two responses have identical processor-side unit
    /// responses (used by cache tests).
    pub fn proc_response_eq(&self, other: &ThermalResponse) -> bool {
        self.proc_response == other.proc_response
    }

    /// Ambient temperature.
    pub fn ambient(&self) -> Celsius {
        Celsius::new(self.ambient_c)
    }

    /// The processor-block source names.
    pub fn proc_blocks(&self) -> &[String] {
        &self.proc_blocks
    }

    /// Number of DRAM-die sources.
    pub fn n_dram_dies(&self) -> usize {
        self.n_dram_dies
    }

    /// Index of a processor block source.
    pub fn proc_block_index(&self, name: &str) -> Option<usize> {
        self.proc_blocks.iter().position(|b| b == name)
    }

    /// Temperature fields at the two sensor layers for the given powers:
    /// `(processor metal cells, bottom DRAM metal cells)`, deg C.
    ///
    /// `proc_powers[i]` matches [`ThermalResponse::proc_blocks`]`[i]`;
    /// `dram_powers[d]` is the total power of DRAM die `d` (top first).
    ///
    /// # Errors
    ///
    /// [`ThermalError::PowerMapMismatch`] if the vectors have the wrong
    /// lengths.
    pub fn temperatures(
        &self,
        proc_powers: &[f64],
        dram_powers: &[f64],
    ) -> Result<(Vec<f64>, Vec<f64>)> {
        if proc_powers.len() != self.proc_blocks.len() || dram_powers.len() != self.n_dram_dies {
            return Err(ThermalError::PowerMapMismatch {
                map_nodes: proc_powers.len() + dram_powers.len(),
                model_nodes: self.proc_blocks.len() + self.n_dram_dies,
            }
            .into());
        }
        let cells = self.grid_nx * self.grid_ny;
        let mut proc = vec![self.ambient_c; cells];
        let mut dram = vec![self.ambient_c; cells];
        for (s, &p) in proc_powers.iter().chain(dram_powers.iter()).enumerate() {
            if p == 0.0 {
                continue;
            }
            let rp = &self.proc_response[s];
            let rd = &self.dram_response[s];
            for c in 0..cells {
                proc[c] += p * rp[c];
                dram[c] += p * rd[c];
            }
        }
        Ok((proc, dram))
    }

    /// Maximum of a cell field.
    pub fn hotspot(field: &[f64]) -> f64 {
        field.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Maximum temperature over core `id`'s cells (1..=8).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `1..=8`.
    pub fn core_hotspot(&self, proc_field: &[f64], id: usize) -> f64 {
        assert!((1..=8).contains(&id), "core {id} out of range");
        self.core_cells[id - 1]
            .iter()
            .map(|&c| proc_field[c])
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xylem_stack::{StackConfig, XylemScheme};

    fn small_response(scheme: XylemScheme) -> ThermalResponse {
        let built = StackConfig::paper_default(scheme).build().unwrap();
        ThermalResponse::compute(&built, GridSpec::new(16, 16)).unwrap()
    }

    #[test]
    fn source_count_is_blocks_plus_dies() {
        let r = small_response(XylemScheme::Base);
        assert_eq!(r.proc_blocks().len(), 83);
        assert_eq!(r.n_dram_dies(), 8);
        assert_eq!(r.proc_response.len(), 91);
    }

    #[test]
    fn superposition_matches_direct_solve() {
        let built = StackConfig::paper_default(XylemScheme::BankSurround)
            .build()
            .unwrap();
        let grid = GridSpec::new(16, 16);
        let r = ThermalResponse::compute(&built, grid).unwrap();

        // Direct solve with a mixed power map.
        let model = built.stack().discretize(grid).unwrap();
        let pm = built.proc_metal_layer();
        let mut p = PowerMap::zeros(&model);
        p.add_block_power(&model, pm, "core1_fpu", Watts::new(2.0))
            .unwrap();
        p.add_block_power(&model, pm, "llc_top", Watts::new(1.5))
            .unwrap();
        p.add_uniform_layer_power(built.dram_metal_layers()[7], Watts::new(0.4));
        let direct = model.steady_state(&p).unwrap();

        // Superposed.
        let mut proc_powers = vec![0.0; r.proc_blocks().len()];
        proc_powers[r.proc_block_index("core1_fpu").unwrap()] = 2.0;
        proc_powers[r.proc_block_index("llc_top").unwrap()] = 1.5;
        let mut dram_powers = vec![0.0; 8];
        dram_powers[7] = 0.4;
        let (proc, dram) = r.temperatures(&proc_powers, &dram_powers).unwrap();

        let direct_proc = direct.layer_slice(pm);
        for c in 0..proc.len() {
            assert!(
                (proc[c] - direct_proc[c]).abs() < 1e-4,
                "cell {c}: {} vs {}",
                proc[c],
                direct_proc[c]
            );
        }
        let direct_dram = direct.layer_slice(built.bottom_dram_metal_layer());
        for c in 0..dram.len() {
            assert!((dram[c] - direct_dram[c]).abs() < 1e-4);
        }
    }

    #[test]
    fn chains_cover_every_source_once_in_order() {
        for n in [0, 1, 7, 8, 9, 16, 91, 1000] {
            let mut next = 0;
            for k in 0..CHAINS {
                let r = chain_bounds(k, n);
                assert_eq!(r.start, next, "n={n}: chain {k} is not contiguous");
                next = r.end;
            }
            assert_eq!(next, n, "n={n}: chains miss the tail");
        }
    }

    #[test]
    fn chain_lengths_differ_by_at_most_one() {
        for n in [5, 8, 13, 91, 92, 999] {
            let lens: Vec<usize> = (0..CHAINS).map(|k| chain_bounds(k, n).len()).collect();
            let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(hi - lo <= 1, "n={n}: {lens:?}");
        }
        // The paper stack's 83 blocks + 8 dies: 11-12 sources per chain.
        assert!((0..CHAINS).all(|k| (11..=12).contains(&chain_bounds(k, 91).len())));
    }

    #[test]
    fn fewer_sources_than_chains_leave_some_chains_empty() {
        let lens: Vec<usize> = (0..CHAINS).map(|k| chain_bounds(k, 3).len()).collect();
        assert_eq!(lens.iter().sum::<usize>(), 3);
        assert!(lens.iter().all(|&l| l <= 1));
        assert_eq!(lens.iter().filter(|&&l| l == 0).count(), CHAINS - 3);
    }

    #[test]
    fn rows_at_every_chain_seam_match_direct_solves() {
        // Each chain writes into slots by source index; the first and
        // last source of every chain must hold that source's own
        // response, not a neighbouring chain's.
        let built = StackConfig::paper_default(XylemScheme::BankEnhanced)
            .build()
            .unwrap();
        let grid = GridSpec::new(16, 16);
        let r = ThermalResponse::compute(&built, grid).unwrap();
        let model = built.stack().discretize(grid).unwrap();
        let pm = built.proc_metal_layer();
        let n_blocks = r.proc_blocks().len();
        let n = n_blocks + r.n_dram_dies();
        let ambient = model.ambient().get();
        let seams = (0..CHAINS).flat_map(|k| {
            let b = chain_bounds(k, n);
            [b.start, b.end - 1]
        });
        for src in seams {
            let mut p = PowerMap::zeros(&model);
            if src < n_blocks {
                p.add_block_power(&model, pm, &r.proc_blocks()[src], Watts::new(1.0))
                    .unwrap();
            } else {
                p.add_uniform_layer_power(
                    built.dram_metal_layers()[src - n_blocks],
                    Watts::new(1.0),
                );
            }
            let direct = model.steady_state(&p).unwrap();
            for (row, layer) in [
                (&r.proc_response[src], pm),
                (&r.dram_response[src], built.bottom_dram_metal_layer()),
            ] {
                for (got, want) in row.iter().zip(direct.layer_slice(layer)) {
                    assert!(
                        (got - (want - ambient)).abs() < 1e-4,
                        "source {src}: {got} vs {}",
                        want - ambient
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_builds_are_bit_identical() {
        // Chains finish in whatever order the pool runs them; the table
        // must not depend on it.
        let built = StackConfig::paper_default(XylemScheme::Base)
            .build()
            .unwrap();
        let grid = GridSpec::new(12, 12);
        let bits = |r: &ThermalResponse| -> Vec<u64> {
            r.proc_response
                .iter()
                .chain(&r.dram_response)
                .flatten()
                .map(|v| v.to_bits())
                .collect()
        };
        let first = bits(&ThermalResponse::compute(&built, grid).unwrap());
        let second = bits(&ThermalResponse::compute(&built, grid).unwrap());
        assert!(first == second, "two builds of one stack differ");
    }

    #[test]
    fn build_inside_a_pool_task_matches_a_direct_build() {
        // Opened from a pool worker, the build's chain tasks (and their
        // kernels) run inline there: it must complete, with the same
        // bits as a build from the calling thread.
        let built = StackConfig::paper_default(XylemScheme::Base)
            .build()
            .unwrap();
        let grid = GridSpec::new(12, 12);
        let direct = ThermalResponse::compute(&built, grid).unwrap();
        let mut nested = None;
        rayon::scope(|s| {
            s.spawn(|_| nested = Some(ThermalResponse::compute(&built, grid).unwrap()));
        });
        let nested = nested.expect("the pool task ran");
        assert!(nested.proc_response == direct.proc_response);
        assert!(nested.dram_response == direct.dram_response);
    }

    #[test]
    fn zero_power_is_ambient() {
        let r = small_response(XylemScheme::Base);
        let (proc, dram) = r.temperatures(&vec![0.0; 83], &vec![0.0; 8]).unwrap();
        assert!(proc.iter().all(|&t| (t - r.ambient().get()).abs() < 1e-12));
        assert!(dram.iter().all(|&t| (t - r.ambient().get()).abs() < 1e-12));
    }

    #[test]
    fn core_hotspot_tracks_its_own_power() {
        let r = small_response(XylemScheme::Base);
        let mut proc_powers = vec![0.0; 83];
        proc_powers[r.proc_block_index("core5_fpu").unwrap()] = 3.0;
        let (proc, _) = r.temperatures(&proc_powers, &vec![0.0; 8]).unwrap();
        let hot5 = r.core_hotspot(&proc, 5);
        let hot4 = r.core_hotspot(&proc, 4); // diagonal corner
        assert!(hot5 > hot4 + 1.0, "{hot5} vs {hot4}");
        assert!((ThermalResponse::hotspot(&proc) - hot5).abs() < 1e-9);
    }

    #[test]
    fn wrong_power_vector_length_rejected() {
        let r = small_response(XylemScheme::Base);
        assert!(r.temperatures(&vec![0.0; 3], &vec![0.0; 8]).is_err());
        assert!(r.temperatures(&vec![0.0; 83], &vec![0.0; 2]).is_err());
    }

    #[test]
    fn disk_cache_roundtrip() {
        let dir = std::env::temp_dir().join("xylem-response-test");
        let _ = std::fs::remove_dir_all(&dir);
        let built = StackConfig::paper_default(XylemScheme::Base)
            .build()
            .unwrap();
        let grid = GridSpec::new(8, 8);
        let a = ThermalResponse::load_or_compute(&dir, &built, grid).unwrap();
        let b = ThermalResponse::load_or_compute(&dir, &built, grid).unwrap();
        assert_eq!(a.proc_response, b.proc_response);
        // A different scheme hashes to a different file.
        let built2 = StackConfig::paper_default(XylemScheme::BankEnhanced)
            .build()
            .unwrap();
        let c = ThermalResponse::load_or_compute(&dir, &built2, grid).unwrap();
        assert_ne!(a.proc_response, c.proc_response);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 2);
    }
}

impl ThermalResponse {
    /// Debug helper: first difference between two responses.
    #[doc(hidden)]
    pub fn debug_diff(&self, other: &ThermalResponse) -> String {
        if self.proc_response.len() != other.proc_response.len() {
            return format!(
                "len {} vs {}",
                self.proc_response.len(),
                other.proc_response.len()
            );
        }
        for (s, (x, y)) in self
            .proc_response
            .iter()
            .zip(&other.proc_response)
            .enumerate()
        {
            if x.len() != y.len() {
                return format!("src {s}: len {} vs {}", x.len(), y.len());
            }
            for (c, (p, q)) in x.iter().zip(y).enumerate() {
                if p.to_bits() != q.to_bits() {
                    return format!(
                        "src {s} cell {c}: {p} vs {q} (bits {:x} vs {:x})",
                        p.to_bits(),
                        q.to_bits()
                    );
                }
            }
        }
        "identical".into()
    }
}
