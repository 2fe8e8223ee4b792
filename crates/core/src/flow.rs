//! End-to-end compilation flows: `WLO-SLP` (fig. 3) vs `WLO-First`
//! (fig. 5).
//!
//! Both flows share the front half of the paper's tool-chain — range
//! analysis, IWL determination, the analytical accuracy model — and the
//! back half — scaling insertion, lowering. They differ exactly where the
//! paper differs:
//!
//! * **`WLO-SLP`** (this paper): joint accuracy-aware SLP extraction and
//!   word-length optimization plus scaling optimization;
//! * **`WLO-First`** (baseline): Tabu-search WLO under the optimistic
//!   word-length-proportional cost model, followed by plain
//!   accuracy-unaware SLP extraction on the frozen specification.

use crate::lower::{lower_fixed, lower_scalar, MachineProgram};
use crate::nodes::{value_format, value_wl};
use crate::sched::{block_activation_cycles_cached, cycles_per_activation};
use crate::tabu::{tabu_wlo, TabuOptions};
use crate::wlo_slp::wlo_slp_sched;
use slpwlo_accuracy::{AccuracyEvaluator, AnalyticalEvaluator, EvalOptions, IncrementalEvaluator};
use slpwlo_fixedpoint::range::{RangeAnalysis, RangeOptions, Ranges};
use slpwlo_fixedpoint::FixedPointSpec;
use slpwlo_ir::blocks::{collect_blocks, Block};
use slpwlo_ir::dfg::{Dfg, NodeId};
use slpwlo_ir::{ConeIndex, Kernel};
use slpwlo_slp::{extract_rounds, BenefitKind, CandidateView, SelectHooks, SelectStats, SimdGroup};
use slpwlo_targets::{CycleCache, SchedKind, TargetModel};

/// A kernel with its once-per-kernel analyses (ranges, noise gains).
///
/// Constraint sweeps reuse one `Prepared` so the expensive gain
/// measurement runs once.
#[derive(Debug)]
pub struct Prepared {
    /// The kernel under optimization.
    pub kernel: Kernel,
    /// Value ranges of every node.
    pub ranges: Ranges,
    /// The analytical accuracy evaluator (`EVALACC`).
    pub eval: AnalyticalEvaluator,
    /// Deviation-lifetime index of the kernel, built once and handed to
    /// the gain measurement.
    pub cone: ConeIndex,
    /// The range analysis [`Self::ranges`] was copied from: it holds the
    /// same ranges. Kept so callers that assemble a `Prepared` field by
    /// field keep compiling.
    pub range_analysis: RangeAnalysis,
}

/// Runs the shared front end: range analysis plus accuracy-model
/// construction.
pub fn prepare(kernel: Kernel) -> Prepared {
    prepare_with(kernel, &EvalOptions::default())
}

/// [`prepare`] with explicit accuracy-model options (gain-measurement
/// batching/threading).
pub fn prepare_with(kernel: Kernel, opts: &EvalOptions) -> Prepared {
    let cone = ConeIndex::build(&kernel);
    let range_analysis = RangeAnalysis::new(&kernel, &RangeOptions::default());
    let ranges = range_analysis.ranges().clone();
    let eval = AnalyticalEvaluator::new_with_cone(&kernel, opts, Some(&cone));
    Prepared {
        kernel,
        ranges,
        eval,
        cone,
        range_analysis,
    }
}

/// Plain (accuracy-unaware) SLP extraction over a frozen specification,
/// block by block — the `WLO-First` back half's extraction. The spec
/// supplies word lengths for candidate validation *and* the full format
/// context (`current_wl`/`current_fwl`) the cycle-priced benefit model
/// reads; no scaling equalization follows, so mismatched scalings keep
/// their fig. 2 price. `sched` is the scheduler the flow will run (the
/// benefit model relaxes its latency hedge when iterations will
/// overlap); the exact selector's search statistics accumulate into
/// `stats` (untouched under the greedy kinds).
pub fn extract_on_spec(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    target: &TargetModel,
    benefit: BenefitKind,
    sched: SchedKind,
    stats: &mut SelectStats,
) -> Vec<(Block, Dfg, Vec<SimdGroup>)> {
    struct FrozenSpecHooks<'a> {
        target: &'a TargetModel,
        spec: &'a FixedPointSpec,
        dfg: &'a Dfg,
        sched: SchedKind,
    }
    impl SelectHooks for FrozenSpecHooks<'_> {
        fn validate(&mut self, view: &CandidateView) -> bool {
            view.group.elems.iter().all(|&e| {
                match self.target.container_wl(value_wl(self.spec, self.dfg, e)) {
                    Some(c) => c <= view.elem_wl,
                    None => false,
                }
            })
        }
        fn current_wl(&self, node: NodeId) -> Option<i32> {
            Some(value_wl(self.spec, self.dfg, node))
        }
        fn current_fwl(&self, node: NodeId) -> Option<i32> {
            Some(value_format(self.spec, self.dfg, node).fwl)
        }
        fn sched_kind(&self) -> SchedKind {
            self.sched
        }
    }
    collect_blocks(kernel)
        .into_iter()
        .map(|b| {
            let dfg = Dfg::from_block(kernel, &b);
            let groups = {
                let mut hooks = FrozenSpecHooks {
                    target,
                    spec,
                    dfg: &dfg,
                    sched,
                };
                extract_rounds(&dfg, target, &mut hooks, benefit, stats)
            };
            (b, dfg, groups)
        })
        .collect()
}

/// Why one pass handed this program to the boundary callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramRole {
    /// The final vectorized program of the flow.
    Simd,
    /// The final all-scalar program under the same specification.
    Scalar,
    /// An intermediate lowering the scheduler guard only prices
    /// (verified only at paranoid levels).
    Candidate,
}

/// One artifact crossing a pass boundary inside a flow.
///
/// The flows hand *every* artifact they produce to the boundary
/// callback of [`wlo_slp_flow_checked`] / [`wlo_first_flow_checked`];
/// the callback (typically `slpwlo-verify`'s `verify_boundary`) decides
/// what to do with each. `is_final` distinguishes the artifact a pass
/// commits to from intermediate states worth checking only under
/// paranoid verification.
#[derive(Debug)]
pub enum PassArtifact<'a> {
    /// The kernel entering the flow.
    Kernel {
        /// The kernel.
        kernel: &'a Kernel,
    },
    /// A fixed-point specification with the ranges it must cover.
    Spec {
        /// The kernel the spec formats.
        kernel: &'a Kernel,
        /// The value ranges the spec was derived from.
        ranges: &'a Ranges,
        /// The specification.
        spec: &'a FixedPointSpec,
        /// `false` for the pre-optimization seed spec.
        is_final: bool,
    },
    /// An SLP grouping for one block.
    Groups {
        /// The block's data-flow graph.
        dfg: &'a Dfg,
        /// The selected groups.
        groups: &'a [SimdGroup],
        /// The target the grouping must be realisable on.
        target: &'a TargetModel,
        /// Which block the grouping belongs to.
        block: slpwlo_ir::BlockId,
        /// `false` before the scheduler guard prunes losing packs.
        is_final: bool,
    },
    /// A lowered machine program.
    Program {
        /// The program.
        program: &'a MachineProgram,
        /// The target it is scheduled against.
        target: &'a TargetModel,
        /// Why the flow produced it.
        role: ProgramRole,
        /// The scheduler the flow prices (and will run) the program
        /// under — the verifier audits the matching schedule kind.
        sched: SchedKind,
    },
}

/// The scheduler guard: the benefit model is a per-candidate estimate;
/// the configured scheduler (`sched`) is the arbiter. Every block's
/// selected groups are kept only if the block's vectorized form
/// actually schedules faster than dropping them under the final
/// specification — otherwise the word-length decisions stand (the spec
/// is untouched) but the packs are discarded. Blocks schedule
/// independently, so the per-block greedy is exact; the returned
/// program is the cheapest keep/drop assignment and never slower than
/// the all-scalar lowering of the same spec.
fn prune_unprofitable_groups<E>(
    kernel: &Kernel,
    spec: &FixedPointSpec,
    target: &TargetModel,
    sched: SchedKind,
    blocks: &mut [(Block, Dfg, Vec<SimdGroup>)],
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
) -> Result<MachineProgram, E> {
    fn candidate<'a>(
        p: &'a MachineProgram,
        target: &'a TargetModel,
        sched: SchedKind,
    ) -> PassArtifact<'a> {
        PassArtifact::Program {
            program: p,
            target,
            role: ProgramRole::Candidate,
            sched,
        }
    }
    // Sorting into document order aligns this list positionally with
    // the lowered program's blocks (lowering emits document order
    // regardless of the input's visit order), so the vectorized and
    // group-free lowerings can be compared block by block — three
    // whole-program lowerings in total, not one per block.
    blocks.sort_by_key(|(b, _, _)| b.id.0);
    let full = lower_fixed(kernel, spec, target, blocks);
    assert_eq!(
        full.blocks.len(),
        blocks.len(),
        "lowering must emit one machine block per source block"
    );
    check(candidate(&full, target, sched))?;
    if blocks.iter().all(|(_, _, g)| g.is_empty()) {
        return Ok(full);
    }
    let bare: Vec<_> = blocks
        .iter()
        .map(|(b, dfg, _)| (b.clone(), dfg.clone(), Vec::new()))
        .collect();
    let none = lower_fixed(kernel, spec, target, &bare);
    check(candidate(&none, target, sched))?;
    // One price cache for every keep/drop comparison: both lowerings of
    // every block draw from the same small set of op queries.
    let costs = CycleCache::new(target);
    let mut pruned = false;
    for (i, (_, _, groups)) in blocks.iter_mut().enumerate() {
        if groups.is_empty() {
            continue;
        }
        // Drop the block's groups only when doing so strictly improves
        // its schedule (ties keep the vector form). Trip-weighted
        // activation cycles, so pipelined steady states are compared on
        // the same footing as sequential iteration costs.
        if block_activation_cycles_cached(&costs, &none.blocks[i], sched)
            < block_activation_cycles_cached(&costs, &full.blocks[i], sched)
        {
            groups.clear();
            pruned = true;
        }
    }
    if !pruned {
        return Ok(full);
    }
    if blocks.iter().all(|(_, _, g)| g.is_empty()) {
        return Ok(none);
    }
    Ok(lower_fixed(kernel, spec, target, blocks))
}

/// Outcome of one flow on one kernel/target/constraint point.
#[derive(Debug)]
pub struct FlowResult {
    /// The final fixed-point specification.
    pub spec: FixedPointSpec,
    /// Lowered SIMD program.
    pub simd: MachineProgram,
    /// Lowered all-scalar program under the same specification.
    pub scalar: MachineProgram,
    /// Number of SIMD groups selected.
    pub group_count: usize,
    /// Predicted output noise power of the final spec (dB).
    pub noise_db: f64,
    /// Exact-selector search statistics (all zeros under the greedy
    /// kinds). Under [`BenefitKind::Optimal`] these always describe the
    /// exact leg's search, even when portfolio arbitration returns the
    /// greedy leg's program.
    pub select: SelectStats,
}

/// The paper's joint flow (`WLO-SLP`, fig. 3).
///
/// The search runs over an [`IncrementalEvaluator`] layered on the
/// prepared analytical model, so each accuracy trial re-walks only the
/// touched noise sources; final reporting still uses the full evaluator.
///
/// Every artifact the flow produces — the kernel, the optimized spec,
/// each block's grouping before and after the scheduler guard, candidate
/// lowerings and the final SIMD/scalar programs — is handed to `check`
/// before the flow proceeds. An `Err` aborts the flow and surfaces
/// unchanged; instantiate `E` as [`std::convert::Infallible`] for a free
/// no-op. `sched` governs both the benefit model's admission hedge and
/// the scheduler-guard pricing.
///
/// Under [`BenefitKind::Optimal`] the flow runs twice — the exact leg
/// and the greedy cycle-priced leg — and the faster-scheduling program
/// wins (ties to the exact leg), so the exact kind never returns a
/// program slower than greedy's; `check` sees both legs' artifacts.
pub fn wlo_slp_flow_checked<E>(
    prep: &Prepared,
    target: &TargetModel,
    constraint_db: f64,
    benefit: BenefitKind,
    sched: SchedKind,
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
) -> Result<FlowResult, E> {
    run_flow(
        prep,
        target,
        benefit,
        sched,
        check,
        &|eval, benefit, check| {
            let res = wlo_slp_sched(
                &prep.kernel,
                target,
                eval,
                constraint_db,
                &prep.ranges,
                benefit,
                sched,
            );
            check(spec_artifact(prep, &res.spec, true))?;
            let blocks = res
                .blocks
                .into_iter()
                .map(|b| (b.block, b.dfg, b.groups))
                .collect();
            Ok((res.spec, blocks, res.select))
        },
    )
}

/// The baseline flow (`WLO-First`, fig. 5): Tabu WLO first, SLP second,
/// no accuracy awareness in the extraction and no scaling optimization;
/// the frozen Tabu specification is the word-length context of the
/// cycle-priced benefit model. See [`wlo_slp_flow_checked`] for the
/// `check` contract (including the two-leg portfolio under
/// [`BenefitKind::Optimal`]). The pre-Tabu seed specification is
/// reported with `is_final: false`.
pub fn wlo_first_flow_checked<E>(
    prep: &Prepared,
    target: &TargetModel,
    constraint_db: f64,
    tabu: &TabuOptions,
    benefit: BenefitKind,
    sched: SchedKind,
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
) -> Result<FlowResult, E> {
    run_flow(
        prep,
        target,
        benefit,
        sched,
        check,
        &|eval, benefit, check| {
            let mut spec = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
            check(spec_artifact(prep, &spec, false))?;
            tabu_wlo(
                &prep.kernel,
                &mut spec,
                eval,
                constraint_db,
                &target.scalar_wls,
                tabu,
            );
            check(spec_artifact(prep, &spec, true))?;
            let mut select = SelectStats::default();
            let blocks = extract_on_spec(&prep.kernel, &spec, target, benefit, sched, &mut select);
            Ok((spec, blocks, select))
        },
    )
}

fn check_groups<E>(
    blocks: &[(Block, Dfg, Vec<SimdGroup>)],
    target: &TargetModel,
    is_final: bool,
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
) -> Result<(), E> {
    for (b, dfg, groups) in blocks {
        check(PassArtifact::Groups {
            dfg,
            groups,
            target,
            block: b.id,
            is_final,
        })?;
    }
    Ok(())
}

fn spec_artifact<'a>(
    prep: &'a Prepared,
    spec: &'a FixedPointSpec,
    is_final: bool,
) -> PassArtifact<'a> {
    PassArtifact::Spec {
        kernel: &prep.kernel,
        ranges: &prep.ranges,
        spec,
        is_final,
    }
}

/// A flow's WLO step: given the leg's incremental evaluator and SLP
/// benefit kind, produces the final specification (handing every spec it
/// derives to `check`), each block's grouping and the exact selector's
/// search statistics.
type WloStep<'s, E> = dyn Fn(
        &dyn AccuracyEvaluator,
        BenefitKind,
        &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
    ) -> Result<
        (
            FixedPointSpec,
            Vec<(Block, Dfg, Vec<SimdGroup>)>,
            SelectStats,
        ),
        E,
    > + 's;

/// The pass sequence both flows share, around their WLO step, plus the
/// portfolio arbitration for [`BenefitKind::Optimal`]: per-round
/// model-value optimality does not by itself bound the *final* scheduled
/// cycle count (rounds interact through `SETMAXWL`, and the scheduler
/// guard re-prices whole blocks), so the flow also runs the greedy
/// cycle-priced leg end to end and returns whichever program schedules
/// faster — ties go to the exact leg, keeping budget-0 runs bitwise
/// identical to greedy. A greedy win bumps `select.portfolio_fallbacks`;
/// the exact leg's search statistics are carried either way.
fn run_flow<E>(
    prep: &Prepared,
    target: &TargetModel,
    benefit: BenefitKind,
    sched: SchedKind,
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
    wlo: &WloStep<'_, E>,
) -> Result<FlowResult, E> {
    let exact = flow_leg(prep, target, benefit, sched, check, wlo)?;
    if !matches!(benefit, BenefitKind::Optimal { .. }) {
        return Ok(exact);
    }
    let greedy = flow_leg(prep, target, BenefitKind::Cycles, sched, check, wlo)?;
    let costs = CycleCache::new(target);
    if cycles_per_activation(&costs, &greedy.simd, sched)
        < cycles_per_activation(&costs, &exact.simd, sched)
    {
        let mut select = exact.select;
        select.portfolio_fallbacks += 1;
        Ok(FlowResult { select, ..greedy })
    } else {
        Ok(exact)
    }
}

/// One leg of a flow: the kernel, the WLO step, the groupings before
/// and after the scheduler guard, and the final SIMD and scalar
/// lowerings, each handed to `check` in that order.
fn flow_leg<E>(
    prep: &Prepared,
    target: &TargetModel,
    benefit: BenefitKind,
    sched: SchedKind,
    check: &mut dyn FnMut(PassArtifact<'_>) -> Result<(), E>,
    wlo: &WloStep<'_, E>,
) -> Result<FlowResult, E> {
    check(PassArtifact::Kernel {
        kernel: &prep.kernel,
    })?;
    let eval = IncrementalEvaluator::new(&prep.eval);
    let (spec, mut blocks, select) = wlo(&eval, benefit, check)?;
    check_groups(&blocks, target, false, check)?;
    let simd = prune_unprofitable_groups(&prep.kernel, &spec, target, sched, &mut blocks, check)?;
    check_groups(&blocks, target, true, check)?;
    check(PassArtifact::Program {
        program: &simd,
        target,
        role: ProgramRole::Simd,
        sched,
    })?;
    let group_count = blocks.iter().map(|(_, _, g)| g.len()).sum();
    let scalar = lower_scalar(&prep.kernel, &spec, target);
    check(PassArtifact::Program {
        program: &scalar,
        target,
        role: ProgramRole::Scalar,
        sched,
    })?;
    let noise_db = prep.eval.noise_db(&spec);
    Ok(FlowResult {
        spec,
        simd,
        scalar,
        group_count,
        noise_db,
        select,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_targets::xentium;

    const FIR8: &str = r#"
kernel fir8 {
    input x range [-1, 1];
    output y;
    param c[8] = { 0.11, -0.23, 0.31, 0.17, -0.05, 0.27, -0.13, 0.07 };
    array dl[8];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..8 unroll 4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

    fn joint(prep: &Prepared, target: &TargetModel, db: f64) -> FlowResult {
        let unchecked = &mut |_: PassArtifact<'_>| Ok::<_, std::convert::Infallible>(());
        wlo_slp_flow_checked(
            prep,
            target,
            db,
            BenefitKind::Cycles,
            SchedKind::List,
            unchecked,
        )
        .unwrap()
    }

    fn first(prep: &Prepared, target: &TargetModel, db: f64) -> FlowResult {
        let unchecked = &mut |_: PassArtifact<'_>| Ok::<_, std::convert::Infallible>(());
        let tabu = TabuOptions::default();
        wlo_first_flow_checked(
            prep,
            target,
            db,
            &tabu,
            BenefitKind::Cycles,
            SchedKind::List,
            unchecked,
        )
        .unwrap()
    }

    #[test]
    fn both_flows_meet_the_constraint() {
        let prep = prepare(parse_kernel(FIR8).unwrap());
        let target = xentium();
        for db in [-20.0, -50.0, -80.0] {
            let a = joint(&prep, &target, db);
            let b = first(&prep, &target, db);
            assert!(a.noise_db <= db, "WLO-SLP at {db}: {}", a.noise_db);
            assert!(b.noise_db <= db, "WLO-First at {db}: {}", b.noise_db);
        }
    }

    #[test]
    fn wlo_slp_packs_where_it_pays_and_never_where_it_loses() {
        let prep = prepare(parse_kernel(FIR8).unwrap());
        // ST240's single memory port makes FIR's vector loads genuinely
        // profitable: the joint flow must find (and keep) groups there.
        let st = slpwlo_targets::st240();
        let a = joint(&prep, &st, -40.0);
        assert!(
            a.group_count > 0,
            "joint flow must find groups on ST240 at -40 dB"
        );
        let cpa = |target: &TargetModel, p: &MachineProgram| {
            cycles_per_activation(&CycleCache::new(target), p, SchedKind::List)
        };
        assert!(cpa(&st, &a.simd) < cpa(&st, &a.scalar));
        // On 12-issue XENTIUM this tiny kernel is latency-bound: packing
        // cannot pay, and the scheduler guard must leave the program no
        // slower than its own scalar lowering.
        let x = xentium();
        let b = joint(&prep, &x, -40.0);
        assert!(
            cpa(&x, &b.simd) <= cpa(&x, &b.scalar),
            "the scheduler guard must never keep a losing pack"
        );
    }

    /// The order in which each flow hands artifacts to `check` is a
    /// contract: downstream tooling derives per-layer spans from it.
    #[test]
    fn artifact_order_is_pinned() {
        fn label(a: &PassArtifact<'_>) -> &'static str {
            match a {
                PassArtifact::Kernel { .. } => "kernel",
                PassArtifact::Spec {
                    is_final: false, ..
                } => "seed-spec",
                PassArtifact::Spec { is_final: true, .. } => "spec",
                PassArtifact::Groups {
                    is_final: false, ..
                } => "groups",
                PassArtifact::Groups { is_final: true, .. } => "final-groups",
                PassArtifact::Program { role, .. } => match role {
                    ProgramRole::Candidate => "candidate",
                    ProgramRole::Simd => "simd",
                    ProgramRole::Scalar => "scalar",
                },
            }
        }
        let prep = prepare(parse_kernel(FIR8).unwrap());
        let target = slpwlo_targets::st240();
        let tabu = TabuOptions::default();
        // One leg on FIR8 (three blocks) on ST240 at -40 dB. A leg whose
        // extraction found groups hands the guard's grouped and
        // group-free candidate lowerings over; a leg without groups only
        // the one lowering. WLO-First also reports its seed spec.
        const GUARD: &str = "groups groups groups candidate candidate \
                             final-groups final-groups final-groups simd scalar";
        const GUARD_BARE: &str = "groups groups groups candidate \
                                  final-groups final-groups final-groups simd scalar";
        let slp_packed = format!("kernel spec {GUARD}");
        let first_packed = format!("kernel seed-spec spec {GUARD}");
        let first_bare = format!("kernel seed-spec spec {GUARD_BARE}");
        // The two-leg portfolio runs the exact leg, then the greedy one.
        let cases = [
            (BenefitKind::Cycles, slp_packed.clone(), first_bare.clone()),
            (
                BenefitKind::optimal(),
                format!("{slp_packed} {slp_packed}"),
                format!("{first_packed} {first_bare}"),
            ),
        ];
        for (benefit, expect_slp, expect_first) in cases {
            let mut slp = Vec::new();
            wlo_slp_flow_checked(
                &prep,
                &target,
                -40.0,
                benefit,
                SchedKind::List,
                &mut |a: PassArtifact<'_>| {
                    slp.push(label(&a));
                    Ok::<_, std::convert::Infallible>(())
                },
            )
            .unwrap();
            let mut first = Vec::new();
            wlo_first_flow_checked(
                &prep,
                &target,
                -40.0,
                &tabu,
                benefit,
                SchedKind::List,
                &mut |a: PassArtifact<'_>| {
                    first.push(label(&a));
                    Ok::<_, std::convert::Infallible>(())
                },
            )
            .unwrap();
            assert_eq!(slp.join(" "), expect_slp, "WLO-SLP under {benefit}");
            assert_eq!(first.join(" "), expect_first, "WLO-First under {benefit}");
        }
    }

    #[test]
    fn flows_are_deterministic() {
        let prep = prepare(parse_kernel(FIR8).unwrap());
        let target = xentium();
        let a1 = first(&prep, &target, -45.0);
        let a2 = first(&prep, &target, -45.0);
        assert_eq!(a1.group_count, a2.group_count);
        assert_eq!(a1.simd.ops_per_activation(), a2.simd.ops_per_activation());
    }
}
