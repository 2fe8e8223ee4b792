//! Tabu-search word-length optimization — the WLO used by the paper's
//! **`WLO-First`** baseline (Nguyen, EUSIPCO 2011), with the Menard-style
//! cost model: "the relative execution time associated to an instruction
//! is directly related to the WL of data on which it can operate" — a
//! 16-bit operation is assumed to cost half a 32-bit one.
//!
//! That assumption is exactly the *unrealistic optimism* the paper
//! criticises: it presumes every narrowed operation will later be packed
//! by SLP with no packing overhead. This module reproduces it faithfully
//! so the baseline misbehaves the way the paper reports.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use slpwlo_accuracy::gains::expr_executions;
use slpwlo_accuracy::AccuracyEvaluator;
use slpwlo_fixedpoint::{FixedPointSpec, SpecKey};
use slpwlo_ir::{ExprNode, Kernel};
use std::collections::HashMap;

/// Options for the Tabu search.
#[derive(Debug, Clone, Copy)]
pub struct TabuOptions {
    /// Maximum search iterations.
    pub max_iters: usize,
    /// Tabu tenure: iterations a reversed move stays forbidden.
    pub tenure: usize,
    /// Iterations without improvement before giving up.
    pub patience: usize,
    /// Seed for deterministic diversification.
    pub seed: u64,
}

impl Default for TabuOptions {
    fn default() -> Self {
        TabuOptions {
            max_iters: 400,
            tenure: 8,
            patience: 60,
            seed: 0x7AB0,
        }
    }
}

/// The Menard-style optimistic cost of a specification: execution-count
/// weighted `wl / max_wl` over all operation expressions.
pub fn menard_cost(kernel: &Kernel, spec: &FixedPointSpec, execs: &[u64]) -> f64 {
    let max_wl = spec.max_wl() as f64;
    let mut cost = 0.0;
    for (id, node) in kernel.exprs() {
        if is_priced(node) {
            let wl = spec.wl(SpecKey::Expr(id)) as f64;
            cost += execs[id.index()] as f64 * (wl / max_wl);
        }
    }
    cost
}

/// Runs the Tabu-search WLO: minimizes the optimistic cost subject to the
/// accuracy constraint, mutating `spec` to the best found solution.
///
/// Moves shrink or widen one node's word length one step along the
/// supported set (e.g. 32 -> 16 -> 8). Returns the cost of the final
/// specification ([`menard_cost`] of it).
///
/// The search tracks the cost as integer units `Σ execs·wl` — the Menard
/// cost scaled by `max_wl` — and updates it per move in O(1) instead of
/// re-walking the kernel per neighbour. For a power-of-two `max_wl` (every
/// target preset) each float cost is exactly `units / max_wl`, so the
/// comparisons, and therefore the moves, are those of the float cost.
pub fn tabu_wlo(
    kernel: &Kernel,
    spec: &mut FixedPointSpec,
    eval: &dyn AccuracyEvaluator,
    constraint_db: f64,
    supported_wls: &[i32],
    opts: &TabuOptions,
) -> f64 {
    let execs = expr_executions(kernel);
    let keys = spec.optimizable_keys(kernel);
    let mut wls: Vec<i32> = supported_wls.to_vec();
    wls.sort_unstable();
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Best-so-far bookkeeping works on explicit assignments.
    let snapshot =
        |spec: &FixedPointSpec| -> Vec<i32> { keys.iter().map(|&k| spec.wl(k)).collect() };
    let restore = |spec: &mut FixedPointSpec, snap: &[i32]| {
        for (&k, &w) in keys.iter().zip(snap) {
            if spec.wl(k) != w {
                spec.set_wl(k, w);
            }
        }
    };

    // Cost units each key adds per bit of word length: only operation
    // expressions are priced.
    let weights: Vec<u64> = keys
        .iter()
        .map(|&key| match key {
            SpecKey::Expr(id) if is_priced(kernel.expr(id)) => execs[id.index()],
            _ => 0,
        })
        .collect();

    let mut best_snap = snapshot(spec);
    let mut best_cost: u64 = kernel
        .exprs()
        .filter(|(_, node)| is_priced(node))
        .map(|(id, _)| execs[id.index()] * spec.wl(SpecKey::Expr(id)) as u64)
        .sum();
    let mut cur_cost = best_cost;
    let mut tabu: HashMap<SpecKey, usize> = HashMap::new();
    let mut stall = 0usize;

    // The neighbourhood scan evaluates one single-key move per trial; an
    // incremental evaluator re-walks only that key's noise sources.
    eval.begin(spec);

    for iter in 0..opts.max_iters {
        // Enumerate neighbour moves: one key one step down or up.
        let mut best_move: Option<(SpecKey, i32, u64)> = None;
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.shuffle(&mut rng);
        for ki in order {
            let key = keys[ki];
            if tabu.get(&key).is_some_and(|&until| until > iter) {
                continue;
            }
            let cur = spec.wl(key);
            for &next in neighbours(&wls, cur) {
                let mark = spec.mark();
                spec.set_wl(key, next);
                let feasible = eval.trial_meets(spec, mark, constraint_db);
                spec.rollback(mark);
                eval.rollback_trial();
                if !feasible {
                    continue;
                }
                let cost = cur_cost + weights[ki] * next as u64 - weights[ki] * cur as u64;
                // Aspiration: a tabu-breaking move is allowed when it
                // beats the global best (handled by the tabu skip above
                // being per-key; keep simple).
                if best_move.is_none_or(|(_, _, c)| cost < c) {
                    best_move = Some((key, next, cost));
                }
            }
        }
        match best_move {
            Some((key, wl, cost)) if cost < cur_cost => {
                apply_move(spec, eval, key, wl);
                cur_cost = cost;
                tabu.insert(key, iter + opts.tenure);
                if cost < best_cost {
                    best_cost = cost;
                    best_snap = snapshot(spec);
                    stall = 0;
                } else {
                    stall += 1;
                }
            }
            Some((key, wl, cost)) => {
                // Uphill/sideways move (diversification).
                apply_move(spec, eval, key, wl);
                cur_cost = cost;
                tabu.insert(key, iter + opts.tenure);
                stall += 1;
            }
            None => {
                stall += 1;
            }
        }
        if stall > opts.patience {
            break;
        }
    }
    let mark = spec.mark();
    restore(spec, &best_snap);
    eval.observe(spec, mark);
    menard_cost(kernel, spec, &execs)
}

/// Whether the Menard cost prices an expression (operations only).
fn is_priced(node: &ExprNode) -> bool {
    matches!(node, ExprNode::Bin(..) | ExprNode::Unary(..))
}

/// Applies an accepted move permanently, keeping incremental evaluators
/// in sync with the untrialed write.
fn apply_move(spec: &mut FixedPointSpec, eval: &dyn AccuracyEvaluator, key: SpecKey, wl: i32) {
    let mark = spec.mark();
    spec.set_wl(key, wl);
    eval.observe(spec, mark);
}

/// Word lengths one step below and above `cur` in the supported set.
fn neighbours(wls: &[i32], cur: i32) -> Vec<&i32> {
    let pos = wls.iter().position(|&w| w >= cur);
    let mut out = Vec::new();
    if let Some(p) = pos {
        if p > 0 {
            out.push(&wls[p - 1]);
        }
        if p + 1 < wls.len() {
            out.push(&wls[p + 1]);
        }
    } else if let Some(last) = wls.last() {
        out.push(last);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_accuracy::AnalyticalEvaluator;
    use slpwlo_fixedpoint::range::{determine_ranges, RangeOptions};
    use slpwlo_ir::parser::parse_kernel;

    const SRC: &str = r#"
kernel f {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.4, 0.3, 0.2, 0.1 };
    array dl[4];
    var t0;
    var t1;
    shiftin dl <- x;
    t0 = c[0] * dl[0] + c[1] * dl[1];
    t1 = c[2] * dl[2] + c[3] * dl[3];
    y = t0 + t1;
}
"#;

    fn setup() -> (Kernel, FixedPointSpec, AnalyticalEvaluator) {
        let k = parse_kernel(SRC).unwrap();
        let r = determine_ranges(&k, &RangeOptions::default());
        let spec = FixedPointSpec::from_ranges(&k, &r, 32);
        let eval = AnalyticalEvaluator::with_defaults(&k);
        (k, spec, eval)
    }

    #[test]
    fn loose_constraint_shrinks_everything() {
        let (k, mut spec, eval) = setup();
        let cost = tabu_wlo(
            &k,
            &mut spec,
            &eval,
            -20.0,
            &[8, 16, 32],
            &TabuOptions::default(),
        );
        // At -20 dB even 8-bit often passes for this kernel; cost must be
        // far below the all-32 start.
        let execs = expr_executions(&k);
        let all32 = {
            let (_, s, _) = setup();
            menard_cost(&k, &s, &execs)
        };
        assert!(cost < all32 * 0.7, "cost {cost} vs all-32 {all32}");
        assert!(eval.meets(&spec, -20.0));
    }

    #[test]
    fn tight_constraint_keeps_wide_words() {
        let (k, mut spec, eval) = setup();
        let _ = tabu_wlo(
            &k,
            &mut spec,
            &eval,
            -170.0,
            &[8, 16, 32],
            &TabuOptions::default(),
        );
        assert!(eval.meets(&spec, -170.0), "result must stay feasible");
        // At -170 dB nothing meaningful can shrink below 32 bits.
        let narrow = spec
            .optimizable_keys(&k)
            .iter()
            .filter(|&&key| spec.wl(key) < 32)
            .count();
        assert!(
            narrow <= 2,
            "only marginal nodes may shrink at -170 dB, got {narrow}"
        );
    }

    #[test]
    fn result_is_deterministic_for_a_seed() {
        let (k, mut s1, eval) = setup();
        let (_, mut s2, _) = setup();
        let c1 = tabu_wlo(
            &k,
            &mut s1,
            &eval,
            -50.0,
            &[8, 16, 32],
            &TabuOptions::default(),
        );
        let c2 = tabu_wlo(
            &k,
            &mut s2,
            &eval,
            -50.0,
            &[8, 16, 32],
            &TabuOptions::default(),
        );
        assert_eq!(c1, c2);
        for key in s1.optimizable_keys(&k) {
            assert_eq!(s1.wl(key), s2.wl(key));
        }
    }

    #[test]
    fn returned_cost_is_the_menard_cost_of_the_returned_spec() {
        // The search ranks moves by integer units; what it returns must
        // still be the float cost of the spec it leaves behind.
        let (k, _, eval) = setup();
        let execs = expr_executions(&k);
        for db in [-20.0, -50.0, -80.0, -170.0] {
            let (_, mut spec, _) = setup();
            let cost = tabu_wlo(
                &k,
                &mut spec,
                &eval,
                db,
                &[8, 16, 32],
                &TabuOptions::default(),
            );
            assert_eq!(
                cost.to_bits(),
                menard_cost(&k, &spec, &execs).to_bits(),
                "{db} dB"
            );
        }
    }

    #[test]
    fn cost_is_monotone_in_wl() {
        let (k, mut spec, _) = setup();
        let execs = expr_executions(&k);
        let c32 = menard_cost(&k, &spec, &execs);
        for key in spec.optimizable_keys(&k) {
            if let SpecKey::Expr(_) = key {
                spec.set_wl(key, 16);
            }
        }
        let c16 = menard_cost(&k, &spec, &execs);
        assert!(c16 < c32);
        assert!(
            (c16 - c32 / 2.0).abs() < 1e-9,
            "16-bit ops cost exactly half"
        );
    }

    #[test]
    fn neighbours_step_one_level() {
        let wls = [8, 16, 32];
        assert_eq!(neighbours(&wls, 32), vec![&16]);
        assert_eq!(neighbours(&wls, 16), vec![&8, &32]);
        assert_eq!(neighbours(&wls, 8), vec![&16]);
    }
}
