//! The traced run's instruments: an in-memory span recorder, a
//! hand-assembled `Prepared`, a callback-driven flow whose pass
//! boundaries become spans, and a counting accuracy evaluator for the
//! search replay. Everything here calls the compiler's public API only;
//! spans are taken in this file, around and between those calls.

use slpwlo_accuracy::{AccuracyEvaluator, AnalyticalEvaluator, EvalOptions, IncrementalEvaluator};
use slpwlo_core::{
    tabu_wlo, total_cycles_cached, wlo_first_flow_checked, wlo_slp_flow_checked, wlo_slp_sched,
    BenefitKind, PassArtifact, Prepared, ProgramRole, TabuOptions,
};
use slpwlo_driver::{FlowKind, Report};
use slpwlo_fixedpoint::range::RangeOptions;
use slpwlo_fixedpoint::{FixedPointSpec, RangeAnalysis};
use slpwlo_ir::{ConeIndex, Kernel};
use slpwlo_targets::{CycleCache, SchedKind, TargetModel};
use slpwlo_verify::{verify_boundary, VerifyLevel};
use std::cell::Cell;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// The op (or set-up step) the span belongs to.
    pub op: u32,
    /// Index of the span in the recorder.
    pub id: usize,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `core.tabu`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Keeps spans in memory until the run writes them out.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        ns_since(self.origin)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, op: u32, parent: Option<usize>, name: &'static str) -> usize {
        let now = self.now();
        self.add(op, parent, name, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn add(
        &mut self,
        op: u32,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }
}

fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Builds a kernel's `Prepared` from its parts, exactly as `prepare`
/// composes them, with one span per part.
pub fn assemble(tr: &mut Tracer, op: u32, parent: Option<usize>, kernel: Kernel) -> Prepared {
    let s = tr.open(op, parent, "ir.cone_build");
    let cone = ConeIndex::build(&kernel);
    tr.close(s);
    let s = tr.open(op, parent, "fixedpoint.range");
    let range_analysis = RangeAnalysis::new(&kernel, &RangeOptions::default());
    let ranges = range_analysis.ranges().clone();
    tr.close(s);
    let s = tr.open(op, parent, "accuracy.gains");
    let eval = AnalyticalEvaluator::new_with_cone(&kernel, &EvalOptions::default(), Some(&cone));
    tr.close(s);
    Prepared {
        kernel,
        ranges,
        eval,
        cone,
        range_analysis,
    }
}

/// The lowest reachable noise on `target`: every node at the widest word
/// length (what `Optimizer::noise_floor_db` computes).
pub fn noise_floor_db(prep: &Prepared, target: &TargetModel) -> f64 {
    let widest = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
    prep.eval.noise_db(&widest)
}

/// What one traced op compiles.
pub struct OpArgs<'a> {
    /// The kernel's target.
    pub target: &'a TargetModel,
    /// The flow.
    pub flow: FlowKind,
    /// The noise constraint (dB).
    pub db: f64,
    /// SLP pricing strategy.
    pub benefit: BenefitKind,
    /// Scheduling strategy.
    pub sched: SchedKind,
    /// Activations of the reported cycles.
    pub activations: u64,
}

/// A cold traced op: validation, a hand-assembled `Prepared`, the
/// feasibility check, then [`traced_flow`] — the path
/// `Optimizer::for_kernel(..).run()` takes, with spans.
pub fn traced_cold(tr: &mut Tracer, op: u32, kernel: Kernel, a: &OpArgs) -> Result<Report, String> {
    let root = tr.open(op, None, "driver.run");
    let out = (|| {
        kernel.validate().map_err(|e| e.to_string())?;
        let prep = assemble(tr, op, Some(root), kernel);
        check_point(a.db, noise_floor_db(&prep, a.target))?;
        traced_flow(tr, op, root, &prep, a)
    })();
    tr.close(root);
    out
}

/// A warm traced op on an already assembled `Prepared` whose noise floor
/// on the target is `floor` — the path `Optimizer::run_at` takes.
pub fn traced_warm(
    tr: &mut Tracer,
    op: u32,
    prep: &Prepared,
    floor: f64,
    a: &OpArgs,
) -> Result<Report, String> {
    let root = tr.open(op, None, "driver.run");
    let out = check_point(a.db, floor).and_then(|()| traced_flow(tr, op, root, prep, a));
    tr.close(root);
    out
}

fn check_point(db: f64, floor: f64) -> Result<(), String> {
    if !db.is_finite() || db < floor {
        return Err(format!(
            "constraint {db} dB is infeasible (floor {floor} dB)"
        ));
    }
    Ok(())
}

/// Which pass boundary an artifact marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Kernel,
    SeedSpec,
    FinalSpec,
    Groups { is_final: bool },
    Program(ProgramRole),
}

fn mark(a: &PassArtifact<'_>) -> Mark {
    match a {
        PassArtifact::Kernel { .. } => Mark::Kernel,
        PassArtifact::Spec { is_final, .. } => {
            if *is_final {
                Mark::FinalSpec
            } else {
                Mark::SeedSpec
            }
        }
        PassArtifact::Groups { is_final, .. } => Mark::Groups {
            is_final: *is_final,
        },
        PassArtifact::Program { role, .. } => Mark::Program(*role),
    }
}

/// Runs the flow through its checked core entry point with a boundary
/// callback that timestamps every artifact (and verifies it at the
/// driver's default level, as the `Optimizer` does), prices the result
/// the way the driver does, and returns the same `Report` the driver
/// builds.
fn traced_flow(
    tr: &mut Tracer,
    op: u32,
    root: usize,
    prep: &Prepared,
    a: &OpArgs,
) -> Result<Report, String> {
    let flow_span = tr.open(op, Some(root), "core.flow");
    let origin = tr.origin;
    let mut events: Vec<(Mark, u64)> = Vec::new();
    let mut cb = |art: PassArtifact<'_>| {
        events.push((mark(&art), ns_since(origin)));
        verify_boundary(VerifyLevel::default(), &art)
    };
    let res = match a.flow {
        FlowKind::WloSlp => wlo_slp_flow_checked(prep, a.target, a.db, a.benefit, a.sched, &mut cb),
        FlowKind::WloFirst => wlo_first_flow_checked(
            prep,
            a.target,
            a.db,
            &TabuOptions::default(),
            a.benefit,
            a.sched,
            &mut cb,
        ),
        other => return Err(format!("flow {other} is not traced")),
    };
    tr.close(flow_span);
    let end = tr.spans[flow_span].end_ns;
    leg_spans(tr, op, flow_span, a.flow, &events, end);
    let res = res.map_err(|e| e.to_string())?;

    let price = tr.open(op, Some(root), "driver.price");
    let costs = CycleCache::new(a.target);
    let cycles_simd = total_cycles_cached(&costs, &res.simd, a.activations, a.sched);
    let cycles_scalar = total_cycles_cached(&costs, &res.scalar, a.activations, a.sched);
    let cycles_simd_list = total_cycles_cached(&costs, &res.simd, a.activations, SchedKind::List);
    let cycles_scalar_list =
        total_cycles_cached(&costs, &res.scalar, a.activations, SchedKind::List);
    tr.close(price);
    Ok(Report {
        kernel_name: prep.kernel.name().to_string(),
        flow: a.flow.name().to_string(),
        target: a.target.clone(),
        kernel: prep.kernel.clone(),
        constraint_db: Some(a.db),
        spec: Some(res.spec),
        sched: a.sched,
        cycles_simd,
        cycles_scalar,
        cycles_simd_list,
        cycles_scalar_list,
        simd: res.simd,
        scalar: res.scalar,
        group_count: res.group_count,
        noise_db: Some(res.noise_db),
        activations: a.activations,
        select: res.select,
    })
}

/// Turns one flow call's boundary timestamps into layer spans. Each
/// `Kernel` artifact starts a leg; a second leg (the greedy leg of the
/// exact-selection portfolio) nests under a `core.portfolio` span that
/// runs to the end of the flow.
fn leg_spans(
    tr: &mut Tracer,
    op: u32,
    flow_span: usize,
    flow: FlowKind,
    events: &[(Mark, u64)],
    flow_end: u64,
) {
    let starts: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].0 == Mark::Kernel)
        .collect();
    for (leg, &from) in starts.iter().enumerate() {
        let to = starts.get(leg + 1).copied().unwrap_or(events.len());
        let ev = &events[from..to];
        let leg_start = ev[0].1;
        let parent = if leg == 0 {
            flow_span
        } else {
            tr.add(op, Some(flow_span), "core.portfolio", leg_start, flow_end)
        };
        let first = |m: Mark| ev.iter().find(|e| e.0 == m).map(|e| e.1);
        let pre_groups: Vec<u64> = ev
            .iter()
            .filter(|e| e.0 == Mark::Groups { is_final: false })
            .map(|e| e.1)
            .collect();
        let Some(spec) = first(Mark::FinalSpec) else {
            continue;
        };
        match flow {
            FlowKind::WloFirst => {
                if let Some(seed) = first(Mark::SeedSpec) {
                    tr.add(op, Some(parent), "core.tabu", seed, spec);
                }
            }
            _ => {
                tr.add(op, Some(parent), "core.wlo_slp_search", leg_start, spec);
            }
        }
        if let Some(&g0) = pre_groups.first() {
            tr.add(op, Some(parent), "slp.extract", spec, g0);
        }
        let guard_from = pre_groups.last().copied().unwrap_or(spec);
        if let Some(simd) = first(Mark::Program(ProgramRole::Simd)) {
            tr.add(op, Some(parent), "core.sched_guard", guard_from, simd);
            if let Some(scalar) = first(Mark::Program(ProgramRole::Scalar)) {
                tr.add(op, Some(parent), "core.lower_scalar", simd, scalar);
            }
        }
    }
}

/// Forwards every [`AccuracyEvaluator`] method to an incremental
/// evaluator, counting and timing the trials. Forwarding all of them
/// (not leaning on the trait's defaults) keeps the wrapped search
/// bit-for-bit the search the flow runs.
pub struct Counting<'a> {
    inner: IncrementalEvaluator<'a>,
    trials: Cell<u64>,
    trial_ns: Cell<u64>,
}

impl<'a> Counting<'a> {
    /// Wraps a fresh incremental evaluator over `base`, as each flow leg
    /// creates one.
    pub fn new(base: &'a AnalyticalEvaluator) -> Self {
        Counting {
            inner: IncrementalEvaluator::new(base),
            trials: Cell::new(0),
            trial_ns: Cell::new(0),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.trials.set(self.trials.get() + 1);
        self.trial_ns.set(self.trial_ns.get() + ns_since(t0));
        out
    }
}

impl AccuracyEvaluator for Counting<'_> {
    fn noise_db(&self, spec: &FixedPointSpec) -> f64 {
        self.inner.noise_db(spec)
    }
    fn meets(&self, spec: &FixedPointSpec, a_db: f64) -> bool {
        self.inner.meets(spec, a_db)
    }
    fn begin(&self, spec: &FixedPointSpec) {
        self.inner.begin(spec);
    }
    fn trial_noise_db(&self, spec: &FixedPointSpec, mark: usize) -> f64 {
        self.timed(|| self.inner.trial_noise_db(spec, mark))
    }
    fn trial_meets(&self, spec: &FixedPointSpec, mark: usize, a_db: f64) -> bool {
        self.timed(|| self.inner.trial_meets(spec, mark, a_db))
    }
    fn commit_trial(&self) {
        self.inner.commit_trial();
    }
    fn rollback_trial(&self) {
        self.inner.rollback_trial();
    }
    fn observe(&self, spec: &FixedPointSpec, mark: usize) {
        self.inner.observe(spec, mark);
    }
}

/// Accuracy work of one point's search, replayed outside the timed flow.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    /// Accuracy trials issued by the search (all legs).
    pub trials: u64,
    /// Time inside those trials, in nanoseconds.
    pub trial_ns: u64,
    /// `true` when the replayed spec is bitwise the flow's spec.
    pub spec_matches: bool,
}

/// Replays the point's word-length search — `wlo_slp_sched` for
/// WLO-SLP, seed spec plus `tabu_wlo` for WLO-First, once per flow leg —
/// over [`Counting`] evaluators, and checks the spec of the leg the flow
/// returned against `report`'s.
pub fn replay(prep: &Prepared, a: &OpArgs, report: &Report) -> Replay {
    let mut legs = vec![a.benefit];
    if matches!(a.benefit, BenefitKind::Optimal { .. }) {
        legs.push(BenefitKind::Cycles);
    }
    // Portfolio arbitration returns the greedy leg when it schedules
    // faster, and says so in the selector statistics.
    let returned = usize::from(report.select.portfolio_fallbacks > 0);
    let mut out = Replay::default();
    for (leg, &benefit) in legs.iter().enumerate() {
        let eval = Counting::new(&prep.eval);
        let spec = match a.flow {
            FlowKind::WloFirst => {
                let mut spec =
                    FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, a.target.max_wl());
                tabu_wlo(
                    &prep.kernel,
                    &mut spec,
                    &eval,
                    a.db,
                    &a.target.scalar_wls,
                    &TabuOptions::default(),
                );
                spec
            }
            _ => {
                wlo_slp_sched(
                    &prep.kernel,
                    a.target,
                    &eval,
                    a.db,
                    &prep.ranges,
                    benefit,
                    a.sched,
                )
                .spec
            }
        };
        out.trials += eval.trials.get();
        out.trial_ns += eval.trial_ns.get();
        if leg == returned {
            out.spec_matches = report
                .spec
                .as_ref()
                .is_some_and(|s| format!("{s:?}") == format!("{spec:?}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_core::prepare;
    use slpwlo_targets::{st240, xentium};

    fn args(target: &TargetModel, flow: FlowKind, benefit: BenefitKind) -> OpArgs<'_> {
        OpArgs {
            target,
            flow,
            db: -40.0,
            benefit,
            sched: SchedKind::default(),
            activations: 2048,
        }
    }

    #[test]
    fn traced_path_and_replay_reproduce_the_optimizer() {
        let kernel = slpwlo_kernels::iir10();
        let (x, st) = (xentium(), st240());
        let cases = [
            args(&x, FlowKind::WloSlp, BenefitKind::default()),
            args(&x, FlowKind::WloFirst, BenefitKind::default()),
            args(&st, FlowKind::WloSlp, BenefitKind::optimal()),
        ];
        for a in &cases {
            let plain = slpwlo_driver::Optimizer::for_kernel(kernel.clone())
                .and_then(|o| {
                    o.target(a.target.clone())
                        .flow(a.flow)
                        .benefit_kind(a.benefit)
                        .activations(a.activations)
                        .constraint_db(a.db)
                        .run()
                })
                .expect("suite kernel compiles");
            let mut tr = Tracer::new();
            let traced = traced_cold(&mut tr, 0, kernel.clone(), a).expect("traced op");
            assert_eq!(
                crate::grid::fingerprint(&traced),
                crate::grid::fingerprint(&plain),
                "{} {}",
                a.flow,
                a.benefit.name()
            );
            let r = replay(&prepare(kernel.clone()), a, &plain);
            assert!(r.spec_matches, "{} {}", a.flow, a.benefit.name());
            assert!(r.trials > 0);
            // Layer spans nest inside the op and never outlast it.
            let root = &tr.spans[0];
            assert_eq!(root.name, "driver.run");
            for s in &tr.spans[1..] {
                assert!(
                    s.start_ns >= root.start_ns && s.end_ns <= root.end_ns,
                    "{}",
                    s.name
                );
                assert!(s.start_ns <= s.end_ns, "{}", s.name);
            }
        }
    }

    #[test]
    fn boundary_marks_become_layer_spans() {
        let g = |is_final| Mark::Groups { is_final };
        let events = [
            (Mark::Kernel, 0),
            (Mark::SeedSpec, 1),
            (Mark::FinalSpec, 5),
            (g(false), 6),
            (g(false), 7),
            (Mark::Program(ProgramRole::Candidate), 8),
            (g(true), 9),
            (Mark::Program(ProgramRole::Simd), 10),
            (Mark::Program(ProgramRole::Scalar), 12),
            (Mark::Kernel, 13),
            (Mark::SeedSpec, 13),
            (Mark::FinalSpec, 15),
            (Mark::Program(ProgramRole::Simd), 16),
            (Mark::Program(ProgramRole::Scalar), 17),
        ];
        let mut tr = Tracer::new();
        let flow = tr.add(0, None, "core.flow", 0, 20);
        leg_spans(&mut tr, 0, flow, FlowKind::WloFirst, &events, 20);
        let got: Vec<(&str, Option<usize>, u64, u64)> = tr.spans[1..]
            .iter()
            .map(|s| (s.name, s.parent, s.start_ns, s.end_ns))
            .collect();
        assert_eq!(
            got,
            [
                ("core.tabu", Some(0), 1, 5),
                ("slp.extract", Some(0), 5, 6),
                ("core.sched_guard", Some(0), 7, 10),
                ("core.lower_scalar", Some(0), 10, 12),
                ("core.portfolio", Some(0), 13, 20),
                ("core.tabu", Some(5), 13, 15),
                ("core.sched_guard", Some(5), 15, 16),
                ("core.lower_scalar", Some(5), 16, 17),
            ]
        );
    }
}
