//! The unified result of one flow run.

use crate::error::Error;
use slpwlo_codegen::{emit_fixed_c, emit_intrinsics_header, emit_simd_c};
use slpwlo_core::{MachineProgram, SelectStats};
use slpwlo_fixedpoint::FixedPointSpec;
use slpwlo_ir::Kernel;
use slpwlo_sim::speedup;
use slpwlo_targets::{SchedKind, TargetModel};
use std::path::{Path, PathBuf};

/// Everything one [`Optimizer::run`](crate::Optimizer::run) produces:
/// the specification, both machine programs, cycle counts under the
/// target's VLIW model, and the predicted noise.
#[derive(Debug)]
pub struct Report {
    /// Kernel name.
    pub kernel_name: String,
    /// Name ([`FlowKind::name`](crate::FlowKind::name)) of the flow that
    /// produced this report.
    pub flow: String,
    /// The target compiled for (owned copy, so the report is
    /// self-contained for export and later inspection).
    pub target: TargetModel,
    /// The kernel compiled (owned copy, for export).
    pub kernel: Kernel,
    /// The noise constraint this point ran at; `None` for the float flow.
    pub constraint_db: Option<f64>,
    /// Final fixed-point specification; `None` for the float flow.
    pub spec: Option<FixedPointSpec>,
    /// The optimized (possibly SIMD) machine program.
    pub simd: MachineProgram,
    /// All-scalar program under the same specification.
    pub scalar: MachineProgram,
    /// SIMD groups realised in [`Report::simd`].
    pub group_count: usize,
    /// Predicted output noise power (dB); `None` for the float flow.
    pub noise_db: Option<f64>,
    /// Activations used for the cycle counts below.
    pub activations: u64,
    /// Scheduler kind the cycle counts were priced under.
    pub sched: SchedKind,
    /// Cycles of the optimized program over `activations`, under
    /// [`Report::sched`].
    pub cycles_simd: u64,
    /// Cycles of the scalar program over `activations`, under
    /// [`Report::sched`].
    pub cycles_scalar: u64,
    /// Cycles of the optimized program under flat list scheduling.
    /// Equal to [`Report::cycles_simd`] when `sched` is
    /// [`SchedKind::List`]; under [`SchedKind::Modulo`] the gap is what
    /// software pipelining bought.
    pub cycles_simd_list: u64,
    /// Cycles of the scalar program under flat list scheduling.
    pub cycles_scalar_list: u64,
    /// Exact-selector search statistics: rounds searched, rounds where
    /// the search improved on the greedy incumbent, and every fallback
    /// taken (budget exhaustion, accuracy veto on replay, portfolio
    /// arbitration). All zeros under the greedy benefit kinds.
    pub select: SelectStats,
}

/// Paths written by [`Report::export_c`].
#[derive(Debug, Clone)]
pub struct ExportedC {
    /// Scalar fixed-point C file.
    pub fixed_c: PathBuf,
    /// SIMD C file over the abstract macro API.
    pub simd_c: PathBuf,
    /// Per-target macro-implementation header.
    pub intrinsics_h: PathBuf,
}

impl Report {
    /// Speedup of the optimized program over its own scalar lowering.
    ///
    /// Total even for degenerate programs: a kernel whose lowering has
    /// no operations (zero cycles) reports a speedup of `1.0` rather
    /// than tripping the cycle model's positivity assertion.
    pub fn speedup(&self) -> f64 {
        self.guarded_speedup(self.cycles_scalar)
    }

    /// Speedup of the optimized program over an external baseline cycle
    /// count (e.g. another report's scalar program — equation (2) of the
    /// paper uses `WLO-First`'s scalar code as denominator).
    pub fn speedup_over(&self, baseline_cycles: u64) -> f64 {
        self.guarded_speedup(baseline_cycles)
    }

    fn guarded_speedup(&self, baseline_cycles: u64) -> f64 {
        if self.cycles_simd == 0 {
            return if baseline_cycles == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        speedup(baseline_cycles, self.cycles_simd)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let noise = match self.noise_db {
            Some(db) => format!("{db:.1} dB"),
            None => "exact".to_string(),
        };
        let pipelined = match self.sched {
            SchedKind::List => String::new(),
            SchedKind::Modulo { .. } => format!(" pipelined (list {})", self.cycles_simd_list),
        };
        format!(
            "{} [{}] on {}: {} cycles{} ({} scalar, speedup {:.2}), {} groups, noise {}",
            self.kernel_name,
            self.flow,
            self.target.name,
            self.cycles_simd,
            pipelined,
            self.cycles_scalar,
            self.speedup(),
            self.group_count,
            noise,
        )
    }

    /// Exports the paper's three C artifacts — scalar fixed-point C,
    /// SIMD C over the abstract macro API, and the target's macro
    /// implementations — into `dir` (created if missing).
    ///
    /// Returns [`Error::Config`] when the report has no fixed-point
    /// specification (float flow) and [`Error::Export`] on I/O failure.
    pub fn export_c(&self, dir: impl AsRef<Path>) -> Result<ExportedC, Error> {
        let dir = dir.as_ref();
        if self.spec.is_none() {
            return Err(Error::Config {
                field: "flow",
                message: "the float flow has no fixed-point specification to export".into(),
            });
        }
        let write = |path: PathBuf, contents: String| -> Result<PathBuf, Error> {
            std::fs::write(&path, contents).map_err(|source| Error::Export {
                path: path.clone(),
                source,
            })?;
            Ok(path)
        };
        std::fs::create_dir_all(dir).map_err(|source| Error::Export {
            path: dir.to_path_buf(),
            source,
        })?;
        let stem = self.kernel_name.to_lowercase();
        let target_tag = self.target.name.to_lowercase().replace('-', "_");
        Ok(ExportedC {
            fixed_c: write(
                dir.join(format!("{stem}_fixed.c")),
                emit_fixed_c(&self.scalar)?,
            )?,
            simd_c: write(
                dir.join(format!("{stem}_simd.c")),
                emit_simd_c(&self.simd, &self.target.name)?,
            )?,
            intrinsics_h: write(
                dir.join(format!("slpwlo_simd_{target_tag}.h")),
                emit_intrinsics_header(&self.target),
            )?,
        })
    }
}
