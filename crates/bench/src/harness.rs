//! Experiment execution over the unified `Optimizer` driver.
//!
//! One [`ExperimentPoint`] corresponds to one (benchmark, target,
//! accuracy-constraint) cell of the paper's figures. All three flows run
//! through [`slpwlo_driver::Optimizer`]; the per-kernel analyses are
//! amortized across every constraint point of a sweep.

use slpwlo_driver::{Error, FlowKind, Optimizer};
use slpwlo_kernels::Benchmark;
use slpwlo_sim::speedup;
use slpwlo_targets::TargetModel;

/// One (benchmark, target, constraint) measurement.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Benchmark name ("FIR", "IIR", "CONV").
    pub bench: String,
    /// Target name ("XENTIUM", "ST240", "VEX-4", "VEX-1").
    pub target: String,
    /// Accuracy constraint in dB.
    pub constraint_db: f64,
    /// Workload activations.
    pub activations: u64,
    /// Cycles of the scalar fixed-point `WLO-First` code — the paper's
    /// baseline denominator.
    pub cycles_baseline: u64,
    /// Cycles of the `WLO-First` SIMD code.
    pub cycles_first: u64,
    /// Cycles of the `WLO-SLP` SIMD code.
    pub cycles_slp: u64,
    /// Cycles of the original floating-point code.
    pub cycles_float: u64,
    /// SIMD groups selected by each flow.
    pub groups_first: usize,
    /// SIMD groups selected by the joint flow.
    pub groups_slp: usize,
    /// Final predicted noise of each flow (dB).
    pub noise_first_db: f64,
    /// Final predicted noise of the joint flow (dB).
    pub noise_slp_db: f64,
}

impl ExperimentPoint {
    /// Speedup of the `WLO-First` SIMD code over the baseline.
    pub fn speedup_first(&self) -> f64 {
        speedup(self.cycles_baseline, self.cycles_first)
    }

    /// Speedup of the `WLO-SLP` SIMD code over the baseline.
    pub fn speedup_slp(&self) -> f64 {
        speedup(self.cycles_baseline, self.cycles_slp)
    }

    /// Speedup of the `WLO-SLP` SIMD code over the floating-point code
    /// (figure 6).
    pub fn speedup_vs_float(&self) -> f64 {
        speedup(self.cycles_float, self.cycles_slp)
    }
}

/// Builds the driver for one benchmark (kernel validation + the
/// once-per-kernel analyses).
pub fn optimizer_for(bench: &Benchmark) -> Result<Optimizer, Error> {
    Ok(Optimizer::for_kernel(bench.kernel.clone())?.activations(bench.activations))
}

/// Builds one grid cell from the three flow reports of a point.
fn point_from(
    bench: &Benchmark,
    target: &TargetModel,
    first: &slpwlo_driver::Report,
    slp: &slpwlo_driver::Report,
    float: &slpwlo_driver::Report,
) -> ExperimentPoint {
    ExperimentPoint {
        bench: bench.name.to_string(),
        target: target.name.clone(),
        constraint_db: first
            .constraint_db
            .expect("fixed-point flows carry the constraint"),
        activations: bench.activations,
        cycles_baseline: first.cycles_scalar,
        cycles_first: first.cycles_simd,
        cycles_slp: slp.cycles_simd,
        cycles_float: float.cycles_simd,
        groups_first: first.group_count,
        groups_slp: slp.group_count,
        noise_first_db: first.noise_db.expect("fixed-point flow predicts noise"),
        noise_slp_db: slp.noise_db.expect("fixed-point flow predicts noise"),
    }
}

/// Runs both fixed-point flows plus the float reference for one point.
///
/// Unlike [`sweep`], an infeasible constraint propagates as the driver's
/// typed [`Error::Unsatisfiable`] (with the floor it missed) rather than
/// being skipped.
pub fn run_point(
    bench: &Benchmark,
    target: &TargetModel,
    constraint_db: f64,
) -> Result<ExperimentPoint, Error> {
    let opt = optimizer_for(bench)?
        .target(target.clone())
        .constraint_db(constraint_db);
    let first = opt.run_with(FlowKind::WloFirst)?;
    let slp = opt.run_with(FlowKind::WloSlp)?;
    let float = opt.run_with(FlowKind::Float)?;
    Ok(point_from(bench, target, &first, &slp, &float))
}

/// Sweeps one benchmark over targets and constraints, reusing the
/// per-kernel analyses for every cell.
///
/// Constraint points below a target's noise floor (reachable when a
/// grid deliberately extends past the precision transition, as the
/// paper's Fig. 4 axis does) are skipped with a note on stderr rather
/// than failing the whole grid; all other errors propagate.
pub fn sweep(
    bench: &Benchmark,
    targets: &[TargetModel],
    constraints_db: &[f64],
) -> Result<Vec<ExperimentPoint>, Error> {
    let mut opt = optimizer_for(bench)?;
    let mut out = Vec::new();
    for target in targets {
        opt = opt.target(target.clone());
        let floor = opt.noise_floor_db();
        let feasible: Vec<f64> = constraints_db
            .iter()
            .copied()
            .filter(|&db| db >= floor)
            .collect();
        if feasible.len() < constraints_db.len() {
            eprintln!(
                "harness: {} on {}: skipping {} constraint point(s) below the {:.1} dB floor",
                bench.name,
                target.name,
                constraints_db.len() - feasible.len(),
                floor,
            );
        }
        opt = opt.flow(FlowKind::Float);
        let float = opt.run()?;
        opt = opt.flow(FlowKind::WloFirst);
        let firsts = opt.sweep(&feasible)?;
        opt = opt.flow(FlowKind::WloSlp);
        let slps = opt.sweep(&feasible)?;
        for (first, slp) in firsts.iter().zip(&slps) {
            out.push(point_from(bench, target, first, slp, &float));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_kernels::paper_benchmarks;
    use slpwlo_targets::xentium;

    #[test]
    fn run_point_fills_every_field() {
        let bench = &paper_benchmarks()[0];
        let p = run_point(bench, &xentium(), -30.0).unwrap();
        assert_eq!(p.bench, "FIR");
        assert_eq!(p.target, "XENTIUM");
        assert!(p.cycles_baseline > 0 && p.cycles_first > 0 && p.cycles_slp > 0);
        assert!(p.cycles_float > p.cycles_slp, "soft float must be slower");
        assert!(p.noise_slp_db <= -30.0);
        assert!(p.speedup_slp() > 0.0);
    }

    #[test]
    fn run_point_surfaces_unsatisfiable_points() {
        let bench = &paper_benchmarks()[0];
        let err = run_point(bench, &xentium(), -500.0).unwrap_err();
        assert!(matches!(err, Error::Unsatisfiable { .. }), "{err}");
    }

    #[test]
    fn sweep_skips_infeasible_points_instead_of_failing() {
        let bench = &paper_benchmarks()[0];
        // -500 dB is below any floor; the grid must shrink, not error.
        let pts = sweep(bench, &[xentium()], &[-20.0, -500.0]).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].constraint_db, -20.0);
    }
}
