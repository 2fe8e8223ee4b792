//! The incremental-evaluator migration must not change any search
//! outcome: tabu WLO and the joint SLP-aware WLO (SETMAXWL + scaling
//! optimization) must produce **identical** specifications — same word
//! lengths, same noise, same lowered cycle counts — whether the accuracy
//! oracle is the plain full-recompute [`AnalyticalEvaluator`] (the
//! pre-migration behaviour, via the trait's default trial methods) or the
//! [`IncrementalEvaluator`] the flows now use.

use slpwlo::accuracy::{AccuracyEvaluator, IncrementalEvaluator};
use slpwlo::core::{
    prepare, tabu_wlo, total_cycles_cached, wlo_slp_sched, BenefitKind, SchedKind, TabuOptions,
};
use slpwlo::fixedpoint::FixedPointSpec;
use slpwlo::kernels::{biquad_cascade4, complex_fir32, conv3x3, fir64, iir10, matvec16x16};
use slpwlo::targets::{st240, xentium, CycleCache};

fn assert_specs_identical(
    kernel: &slpwlo::ir::Kernel,
    a: &FixedPointSpec,
    b: &FixedPointSpec,
    ctx: &str,
) {
    for key in a.optimizable_keys(kernel) {
        assert_eq!(
            a.format(key),
            b.format(key),
            "{ctx}: format of {key} differs"
        );
    }
}

#[test]
fn tabu_is_identical_with_and_without_incremental_evaluation() {
    for (kernel, db) in [
        (fir64(), -40.0),
        (iir10(), -35.0),
        (conv3x3(), -50.0),
        (matvec16x16(), -40.0),
        (complex_fir32(), -40.0),
        (biquad_cascade4(), -40.0),
    ] {
        let name = kernel.name().to_string();
        let prep = prepare(kernel);
        let target = xentium();

        let mut spec_full =
            FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
        let cost_full = tabu_wlo(
            &prep.kernel,
            &mut spec_full,
            &prep.eval,
            db,
            &target.scalar_wls,
            &TabuOptions::default(),
        );

        let mut spec_inc = FixedPointSpec::from_ranges(&prep.kernel, &prep.ranges, target.max_wl());
        let inc = IncrementalEvaluator::new(&prep.eval);
        let cost_inc = tabu_wlo(
            &prep.kernel,
            &mut spec_inc,
            &inc,
            db,
            &target.scalar_wls,
            &TabuOptions::default(),
        );

        assert_eq!(cost_full, cost_inc, "{name}: tabu cost diverged");
        assert_specs_identical(&prep.kernel, &spec_full, &spec_inc, &name);
        assert_eq!(
            prep.eval.noise_db(&spec_full).to_bits(),
            prep.eval.noise_db(&spec_inc).to_bits(),
            "{name}: noise diverged"
        );
    }
}

/// Across both selectors (greedy cycle-priced and the exact portfolio
/// kind), both schedulers and two targets — the evaluator is re-synced
/// once per block, and the exact selector's checkpoint/restore re-syncs
/// it mid-block, so every protocol path is covered. MATVEC, CFIR and
/// BIQUAD (the kernels with the most conflict rows and noise sources)
/// run under the greedy selector only: CFIR's exact branch-and-bound
/// alone takes seconds per point whichever evaluator answers, and the
/// exact selector's protocol paths are covered by the first three.
#[test]
fn wlo_slp_is_identical_with_and_without_incremental_evaluation() {
    let both = [BenefitKind::Cycles, BenefitKind::optimal()];
    let greedy = [BenefitKind::Cycles];
    for (kernel, db, benefits) in [
        (fir64(), -35.0, &both[..]),
        (iir10(), -30.0, &both[..]),
        (conv3x3(), -45.0, &both[..]),
        (matvec16x16(), -35.0, &greedy[..]),
        (complex_fir32(), -35.0, &greedy[..]),
        (biquad_cascade4(), -35.0, &greedy[..]),
    ] {
        let prep = prepare(kernel);
        for target in [xentium(), st240()] {
            for &benefit in benefits {
                for sched in [SchedKind::List, SchedKind::modulo()] {
                    let name = format!("{}/{}/{benefit}/{sched}", prep.kernel.name(), target.name);
                    let run = |eval: &dyn AccuracyEvaluator| {
                        wlo_slp_sched(
                            &prep.kernel,
                            &target,
                            eval,
                            db,
                            &prep.ranges,
                            benefit,
                            sched,
                        )
                    };
                    let res_full = run(&prep.eval);
                    let res_inc = run(&IncrementalEvaluator::new(&prep.eval));

                    // Same SETMAXWL outcome: groups, word lengths, noise.
                    assert_eq!(
                        res_full.group_count(),
                        res_inc.group_count(),
                        "{name}: group count diverged"
                    );
                    assert_eq!(res_full.select, res_inc.select, "{name}: search diverged");
                    assert_specs_identical(&prep.kernel, &res_full.spec, &res_inc.spec, &name);
                    assert_eq!(
                        prep.eval.noise_db(&res_full.spec).to_bits(),
                        prep.eval.noise_db(&res_inc.spec).to_bits(),
                        "{name}: noise diverged"
                    );
                    for (bf, bi) in res_full.blocks.iter().zip(&res_inc.blocks) {
                        assert_eq!(bf.scalopt, bi.scalopt, "{name}: scalopt stats diverged");
                        assert_eq!(bf.groups, bi.groups, "{name}: per-block groups diverged");
                    }

                    // Same cycle counts after lowering both results.
                    let lower = |res: &slpwlo::core::WloSlpResult| {
                        let blocks: Vec<_> = res
                            .blocks
                            .iter()
                            .map(|b| (b.block.clone(), b.dfg.clone(), b.groups.clone()))
                            .collect();
                        let prog =
                            slpwlo::core::lower_fixed(&prep.kernel, &res.spec, &target, &blocks);
                        total_cycles_cached(&CycleCache::new(&target), &prog, 2048, sched)
                    };
                    assert_eq!(
                        lower(&res_full),
                        lower(&res_inc),
                        "{name}: cycle counts diverged"
                    );
                }
            }
        }
    }
}
