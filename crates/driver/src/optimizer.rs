//! The builder-pattern driver.

use crate::error::Error;
use crate::flow::FlowKind;
use crate::report::Report;
use slpwlo_accuracy::AccuracyEvaluator;
use slpwlo_core::{
    cycles_per_activation, lower_float, prepare, wlo_first_flow_checked, wlo_slp_flow_checked,
    BenefitKind, MachineProgram, PassArtifact, Prepared, ProgramRole, SelectStats, TabuOptions,
};
use slpwlo_fixedpoint::FixedPointSpec;
use slpwlo_ir::parser::parse_kernel;
use slpwlo_ir::Kernel;
use slpwlo_targets::{xentium, CycleCache, SchedKind, TargetModel};
use slpwlo_verify::{verify_boundary, VerifyLevel};

/// Default activations for cycle reporting (the paper's FIR/IIR workload
/// size).
const DEFAULT_ACTIVATIONS: u64 = 2048;

/// The unified driver: one kernel, one target, one flow, any number of
/// constraint points.
///
/// Construction runs the expensive once-per-kernel analyses (range
/// analysis, noise-gain measurement); [`Optimizer::run`] and
/// [`Optimizer::sweep`] reuse them across constraint points, which is
/// what makes Fig. 4/6-style experiments affordable.
///
/// ```
/// use slpwlo_driver::{FlowKind, Optimizer};
/// use slpwlo_targets::xentium;
///
/// let report = Optimizer::for_source(
///     "kernel k { input x range [-1, 1]; output y; var t; t = 0.5 * x; y = t; }",
/// )?
/// .target(xentium())
/// .constraint_db(-50.0)
/// .flow(FlowKind::WloSlp)
/// .run()?;
/// assert!(report.noise_db.unwrap() <= -50.0);
/// # Ok::<(), slpwlo_driver::Error>(())
/// ```
pub struct Optimizer {
    prep: Prepared,
    target: TargetModel,
    constraint_db: Option<f64>,
    flow: FlowKind,
    benefit: BenefitKind,
    sched: SchedKind,
    verify: VerifyLevel,
    activations: u64,
    /// Worker-thread override for [`Optimizer::sweep`]; `None` follows
    /// the machine's available parallelism.
    sweep_threads: Option<usize>,
    /// Memoized [`Optimizer::noise_floor_db`] for the current target
    /// (one widest-spec noise evaluation); reset by `target()`.
    /// `OnceLock` rather than `Cell` keeps the `Optimizer` `Sync` so
    /// grids can be parallelized over one shared instance.
    floor_db: std::sync::OnceLock<f64>,
}

impl std::fmt::Debug for Optimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Optimizer")
            .field("kernel", &self.prep.kernel.name())
            .field("target", &self.target.name)
            .field("constraint_db", &self.constraint_db)
            .field("flow", &self.flow.name())
            .field("activations", &self.activations)
            .finish_non_exhaustive()
    }
}

/// The "quantizing flow without a constraint" error.
fn missing_constraint(kind: FlowKind) -> Error {
    Error::Config {
        field: "constraint_db",
        message: format!("flow `{kind}` quantizes and needs a noise constraint"),
    }
}

/// The error for `run_at`/`sweep` on the float flow.
fn constraint_free_flow_error(kind: FlowKind) -> Error {
    Error::Config {
        field: "flow",
        message: format!("flow `{kind}` ignores constraints; use run() instead of sweep()"),
    }
}

impl Optimizer {
    /// Parses, validates and prepares a kernel written in the textual
    /// DSL.
    pub fn for_source(src: &str) -> Result<Self, Error> {
        let kernel = parse_kernel(src).map_err(Error::Parse)?;
        Self::for_kernel(kernel)
    }

    /// Validates and prepares an already-built kernel.
    pub fn for_kernel(kernel: Kernel) -> Result<Self, Error> {
        // `Kernel::validate` holds the single copy of the range-validity
        // predicate; its range failure is lifted to the richer
        // `Error::Range` here.
        if let Err(e) = kernel.validate() {
            if let slpwlo_ir::IrError::InvalidRange { ref input, .. } = e {
                if let Some(i) = kernel.inputs().iter().find(|i| &i.name == input) {
                    return Err(Error::Range {
                        input: input.clone(),
                        lo: i.lo,
                        hi: i.hi,
                    });
                }
            }
            return Err(Error::InvalidKernel(e));
        }
        Ok(Optimizer {
            prep: prepare(kernel),
            target: xentium(),
            constraint_db: None,
            flow: FlowKind::WloSlp,
            benefit: BenefitKind::default(),
            sched: SchedKind::default(),
            verify: VerifyLevel::default(),
            activations: DEFAULT_ACTIVATIONS,
            sweep_threads: None,
            floor_db: std::sync::OnceLock::new(),
        })
    }

    /// Sets the processor model to compile for (default: XENTIUM).
    pub fn target(mut self, target: TargetModel) -> Self {
        self.target = target;
        self.floor_db = std::sync::OnceLock::new();
        self
    }

    /// Sets the output-noise constraint in dB (required by quantizing
    /// flows; validated at [`Optimizer::run`]).
    pub fn constraint_db(mut self, db: f64) -> Self {
        self.constraint_db = Some(db);
        self
    }

    /// Selects the flow (default: [`FlowKind::WloSlp`]).
    pub fn flow(mut self, kind: FlowKind) -> Self {
        self.flow = kind;
        self
    }

    /// Selects the SLP candidate-pricing strategy (default:
    /// [`BenefitKind::Cycles`], which prices every candidate through
    /// `TargetModel::cost` at its current word lengths;
    /// [`BenefitKind::Slots`] keeps the historical target-blind
    /// slot-counting model for ablations; [`BenefitKind::Optimal`]
    /// replaces the greedy per-round selection with an exact
    /// branch-and-bound over the same cycle prices — never worse than
    /// greedy, with search statistics and fallbacks reported in
    /// [`Report::select`](crate::Report)).
    pub fn benefit_kind(mut self, benefit: BenefitKind) -> Self {
        self.benefit = benefit;
        self
    }

    /// Selects the block-scheduling strategy (default:
    /// [`SchedKind::List`], the paper's flat in-order model).
    /// [`SchedKind::Modulo`] software-pipelines profitable in-loop
    /// blocks: cycle reports price them at `prologue + II·(trip−1) +
    /// epilogue`, candidate pricing drops its latency hedge, and blocks
    /// the exact search cannot improve (or that exhaust the search
    /// budget) keep their list schedules.
    pub fn sched_kind(mut self, sched: SchedKind) -> Self {
        self.sched = sched;
        self
    }

    /// Sets how much pass-boundary static verification the flows run
    /// (default: [`VerifyLevel::Boundaries`] in debug builds,
    /// [`VerifyLevel::Off`] in release builds). At
    /// [`VerifyLevel::Paranoid`] every intermediate artifact — seed
    /// specs, pre-prune groupings, candidate lowerings — is checked too.
    pub fn verify_level(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// Sets the workload size used for reported cycle counts. A workload
    /// whose cycle count overflows `u64` is a [`Error::Config`] at run
    /// time.
    pub fn activations(mut self, n: u64) -> Self {
        self.activations = n;
        self
    }

    /// Caps (or forces) the number of worker threads [`Optimizer::sweep`]
    /// uses. Defaults to the machine's available parallelism; `1` makes
    /// sweeps fully serial.
    pub fn sweep_threads(mut self, n: usize) -> Self {
        self.sweep_threads = Some(n.max(1));
        self
    }

    /// The kernel under optimization.
    pub fn kernel(&self) -> &Kernel {
        &self.prep.kernel
    }

    /// The shared per-kernel analyses (ranges + accuracy model).
    pub fn prepared(&self) -> &Prepared {
        &self.prep
    }

    /// The configured target model.
    pub fn target_model(&self) -> &TargetModel {
        &self.target
    }

    /// The lowest output noise (dB) any fixed-point specification can
    /// reach on the configured target: every node at maximum word
    /// length. Constraints below this are unsatisfiable. Memoized per
    /// target, so repeated `run()` calls pay it once.
    pub fn noise_floor_db(&self) -> f64 {
        *self.floor_db.get_or_init(|| {
            let widest = FixedPointSpec::from_ranges(
                &self.prep.kernel,
                &self.prep.ranges,
                self.target.max_wl(),
            );
            self.prep.eval.noise_db(&widest)
        })
    }

    /// One constraint point checked against finiteness and the target's
    /// noise floor — the single copy of this validation.
    fn check_point(&self, kind: FlowKind, db: f64) -> Result<(), Error> {
        if !db.is_finite() {
            return Err(Error::Config {
                field: "constraint_db",
                message: format!("must be finite, got {db}"),
            });
        }
        let floor = self.noise_floor_db();
        // A NaN floor means the kernel's float arithmetic overflows, so no
        // specification has a meaningful noise figure.
        if floor.is_nan() || db < floor {
            return Err(Error::Unsatisfiable {
                flow: kind.name().to_string(),
                constraint_db: db,
                floor_db: floor,
            });
        }
        Ok(())
    }

    /// Runs `kind` at a constraint already checked by
    /// [`Optimizer::check_point`] (`None` for the float flow) and prices
    /// the result into a [`Report`].
    fn run_checked(&self, kind: FlowKind, constraint_db: Option<f64>) -> Result<Report, Error> {
        if self.activations == 0 {
            return Err(Error::Config {
                field: "activations",
                message: "cycle reporting needs at least one activation".into(),
            });
        }
        let mut verify = |artifact: PassArtifact<'_>| {
            verify_boundary(self.verify, &artifact).map_err(Error::Verify)
        };
        let (prep, target) = (&self.prep, &self.target);
        let res = match (kind, constraint_db) {
            (FlowKind::WloSlp, Some(db)) => Some(wlo_slp_flow_checked(
                prep,
                target,
                db,
                self.benefit,
                self.sched,
                &mut verify,
            )?),
            (FlowKind::WloFirst, Some(db)) => Some(wlo_first_flow_checked(
                prep,
                target,
                db,
                &TabuOptions::default(),
                self.benefit,
                self.sched,
                &mut verify,
            )?),
            (FlowKind::Float, _) => None,
            (_, None) => return Err(missing_constraint(kind)),
        };
        let (spec, simd, scalar, group_count, noise_db, select) = match res {
            Some(res) => (
                Some(res.spec),
                res.simd,
                res.scalar,
                res.group_count,
                Some(res.noise_db),
                res.select,
            ),
            None => {
                verify(PassArtifact::Kernel {
                    kernel: &prep.kernel,
                })?;
                let program = lower_float(&prep.kernel);
                verify(PassArtifact::Program {
                    program: &program,
                    target,
                    role: ProgramRole::Simd,
                    sched: self.sched,
                })?;
                (
                    None,
                    program.clone(),
                    program,
                    0,
                    None,
                    SelectStats::default(),
                )
            }
        };
        // One shared price cache for all four cycle counts; the list
        // counts ride along so pipelined reports can show what software
        // pipelining bought without a second run.
        let costs = CycleCache::new(target);
        let total = |program: &MachineProgram, sched: SchedKind| {
            cycles_per_activation(&costs, program, sched)
                .checked_mul(self.activations)
                .ok_or_else(|| Error::Config {
                    field: "activations",
                    message: format!(
                        "{} activations overflow the 64-bit cycle count",
                        self.activations
                    ),
                })
        };
        Ok(Report {
            kernel_name: prep.kernel.name().to_string(),
            flow: kind.name().to_string(),
            target: target.clone(),
            kernel: prep.kernel.clone(),
            constraint_db,
            spec,
            sched: self.sched,
            cycles_simd: total(&simd, self.sched)?,
            cycles_scalar: total(&scalar, self.sched)?,
            cycles_simd_list: total(&simd, SchedKind::List)?,
            cycles_scalar_list: total(&scalar, SchedKind::List)?,
            simd,
            scalar,
            group_count,
            noise_db,
            activations: self.activations,
            select,
        })
    }

    /// Runs the configured flow at the configured constraint point.
    pub fn run(&self) -> Result<Report, Error> {
        self.run_with(self.flow)
    }

    /// Runs `kind` at the configured constraint point without changing
    /// the configured flow — the cheap way to compare flows on one
    /// prepared kernel (the paper's whole evaluation does this).
    pub fn run_with(&self, kind: FlowKind) -> Result<Report, Error> {
        let constraint = self.constraint_db.filter(|_| kind != FlowKind::Float);
        if let Some(db) = constraint {
            self.check_point(kind, db)?;
        }
        self.run_checked(kind, constraint)
    }

    /// Runs the configured flow at one explicit constraint point, leaving
    /// the builder-configured constraint untouched. This is the serial
    /// unit [`Optimizer::sweep`] parallelizes over.
    pub fn run_at(&self, db: f64) -> Result<Report, Error> {
        let kind = self.flow;
        if kind == FlowKind::Float {
            return Err(constraint_free_flow_error(kind));
        }
        self.check_point(kind, db)?;
        self.run_checked(kind, Some(db))
    }

    /// Runs the configured flow once per constraint point, reusing the
    /// per-kernel analyses (Fig. 4/6-style experiments). The feasibility
    /// of every point is checked up front, so either all points run or
    /// none do.
    ///
    /// Points are independent and every flow is deterministic, so they
    /// run **in parallel** across OS threads, sharing the once-per-kernel
    /// [`Prepared`] analyses immutably; reports come back in constraint
    /// order, identical to running each point serially with
    /// [`Optimizer::run_at`]. On any per-point error the first failing
    /// point (in constraint order) is returned.
    pub fn sweep(&self, constraints_db: &[f64]) -> Result<Vec<Report>, Error> {
        let kind = self.flow;
        if kind == FlowKind::Float {
            return Err(constraint_free_flow_error(kind));
        }
        for &db in constraints_db {
            self.check_point(kind, db)?;
        }
        let n = constraints_db.len();
        let workers = self
            .sweep_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .min(n);
        if workers <= 1 {
            return constraints_db
                .iter()
                .map(|&db| self.run_checked(kind, Some(db)))
                .collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<Report, Error>>> = Vec::new();
        slots.resize_with(n, || None);
        std::thread::scope(|scope| {
            let next = &next;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= n {
                                return done;
                            }
                            done.push((i, self.run_checked(kind, Some(constraints_db[i]))));
                        }
                    })
                })
                .collect();
            for handle in handles {
                for (i, report) in handle.join().expect("sweep worker panicked") {
                    slots[i] = Some(report);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every sweep point was claimed by a worker"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"
kernel tiny {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.25, -0.5, 0.125, 0.0625 };
    array dl[4];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..4 unroll 4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

    #[test]
    fn builder_happy_path() {
        let report = Optimizer::for_source(TINY)
            .unwrap()
            .constraint_db(-40.0)
            .flow(FlowKind::WloSlp)
            .run()
            .unwrap();
        assert_eq!(report.flow, "wlo-slp");
        assert_eq!(report.kernel_name, "tiny");
        assert!(report.noise_db.unwrap() <= -40.0);
        assert!(report.cycles_simd > 0);
        assert!(report.summary().contains("tiny"));
    }

    #[test]
    fn parse_errors_are_typed() {
        match Optimizer::for_source("kernel { nope") {
            Err(Error::Parse(_)) => {}
            other => panic!("expected Parse error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn missing_constraint_is_a_config_error() {
        let err = Optimizer::for_source(TINY).unwrap().run().unwrap_err();
        match err {
            Error::Config { field, .. } => assert_eq!(field, "constraint_db"),
            other => panic!("expected Config, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_constraint_is_a_config_error() {
        let err = Optimizer::for_source(TINY)
            .unwrap()
            .constraint_db(f64::NAN)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Config {
                field: "constraint_db",
                ..
            }
        ));
    }

    #[test]
    fn unsatisfiable_constraint_is_typed() {
        let opt = Optimizer::for_source(TINY).unwrap();
        let floor = opt.noise_floor_db();
        let err = opt.constraint_db(floor - 30.0).run().unwrap_err();
        match err {
            Error::Unsatisfiable {
                constraint_db,
                floor_db,
                ..
            } => {
                assert!(constraint_db < floor_db);
            }
            other => panic!("expected Unsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn float_flow_needs_no_constraint() {
        let report = Optimizer::for_source(TINY)
            .unwrap()
            .flow(FlowKind::Float)
            .run()
            .unwrap();
        assert!(report.spec.is_none());
        assert!(report.noise_db.is_none());
        assert_eq!(report.group_count, 0);
    }

    #[test]
    fn sweep_amortizes_and_orders() {
        let opt = Optimizer::for_source(TINY).unwrap().flow(FlowKind::WloSlp);
        let reports = opt.sweep(&[-20.0, -40.0, -60.0]).unwrap();
        assert_eq!(reports.len(), 3);
        for (r, db) in reports.iter().zip([-20.0, -40.0, -60.0]) {
            assert_eq!(r.constraint_db, Some(db));
            assert!(r.noise_db.unwrap() <= db);
        }
    }

    #[test]
    fn run_with_matches_the_configured_flow() {
        let opt = Optimizer::for_source(TINY).unwrap().constraint_db(-40.0);
        // `run_with` must agree with running the same flow configured
        // through the builder, without changing the configured flow.
        let via_builder = Optimizer::for_source(TINY)
            .unwrap()
            .constraint_db(-40.0)
            .flow(FlowKind::WloFirst)
            .run()
            .unwrap();
        let via_run_with = opt.run_with(FlowKind::WloFirst).unwrap();
        assert_eq!(via_run_with.flow, via_builder.flow);
        assert_eq!(via_run_with.cycles_simd, via_builder.cycles_simd);
        assert_eq!(via_run_with.noise_db, via_builder.noise_db);
        // The configured flow (default wlo-slp) is untouched.
        assert_eq!(opt.run().unwrap().flow, "wlo-slp");
    }

    #[test]
    fn sweep_parallel_matches_serial_run_at() {
        // The parallel sweep must return reports in constraint order,
        // indistinguishable from running each point serially. Forcing
        // three workers exercises the threaded path even on one CPU.
        let opt = Optimizer::for_source(TINY)
            .unwrap()
            .flow(FlowKind::WloSlp)
            .sweep_threads(3);
        let grid = [-20.0, -30.0, -40.0, -50.0, -60.0];
        let swept = opt.sweep(&grid).unwrap();
        assert_eq!(swept.len(), grid.len());
        for (parallel, &db) in swept.iter().zip(&grid) {
            assert_eq!(parallel.constraint_db, Some(db), "constraint order");
            let serial = opt.run_at(db).unwrap();
            assert_eq!(parallel.cycles_simd, serial.cycles_simd);
            assert_eq!(parallel.cycles_scalar, serial.cycles_scalar);
            assert_eq!(parallel.group_count, serial.group_count);
            assert_eq!(
                parallel.noise_db.unwrap().to_bits(),
                serial.noise_db.unwrap().to_bits(),
                "noise must be bit-identical at {db} dB"
            );
            // The full spec and both lowered programs must match exactly.
            assert_eq!(format!("{:?}", parallel.spec), format!("{:?}", serial.spec));
            assert_eq!(format!("{:?}", parallel.simd), format!("{:?}", serial.simd));
            assert_eq!(
                format!("{:?}", parallel.scalar),
                format!("{:?}", serial.scalar)
            );
        }
    }

    #[test]
    fn run_at_leaves_the_configured_constraint_alone() {
        let opt = Optimizer::for_source(TINY)
            .unwrap()
            .constraint_db(-40.0)
            .flow(FlowKind::WloSlp);
        let at = opt.run_at(-60.0).unwrap();
        assert_eq!(at.constraint_db, Some(-60.0));
        assert_eq!(opt.run().unwrap().constraint_db, Some(-40.0));
    }

    #[test]
    fn run_at_rejects_the_float_flow() {
        let err = Optimizer::for_source(TINY)
            .unwrap()
            .flow(FlowKind::Float)
            .run_at(-20.0)
            .unwrap_err();
        assert!(matches!(err, Error::Config { field: "flow", .. }));
    }

    #[test]
    fn sweep_rejects_the_float_flow() {
        let err = Optimizer::for_source(TINY)
            .unwrap()
            .flow(FlowKind::Float)
            .sweep(&[-20.0])
            .unwrap_err();
        assert!(matches!(err, Error::Config { field: "flow", .. }));
    }

    #[test]
    fn zero_activations_rejected() {
        let err = Optimizer::for_source(TINY)
            .unwrap()
            .constraint_db(-30.0)
            .activations(0)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Config {
                field: "activations",
                ..
            }
        ));
    }

    #[test]
    fn empty_kernels_report_without_panicking() {
        // A kernel that lowers to zero operations used to trip the cycle
        // model's `cycles > 0` assertion inside `Report::speedup`.
        let report = Optimizer::for_source("kernel empty { }")
            .unwrap()
            .constraint_db(-20.0)
            .run()
            .unwrap();
        assert_eq!(report.cycles_simd, 0);
        assert_eq!(report.speedup(), 1.0);
        assert!(report.summary().contains("empty"));
    }

    #[test]
    fn verification_is_configurable_and_clean_at_paranoid() {
        use slpwlo_verify::VerifyLevel;
        for level in [
            VerifyLevel::Off,
            VerifyLevel::Boundaries,
            VerifyLevel::Paranoid,
        ] {
            for kind in [FlowKind::WloSlp, FlowKind::WloFirst] {
                let report = Optimizer::for_source(TINY)
                    .unwrap()
                    .constraint_db(-40.0)
                    .flow(kind)
                    .verify_level(level)
                    .run()
                    .unwrap();
                assert!(report.cycles_simd > 0);
            }
        }
    }
}
