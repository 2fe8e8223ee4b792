//! Incremental accuracy evaluation — the `EVALACC` hot path.
//!
//! The WLO search loops (tabu neighbourhood scans, `SETMAXWL` group
//! shrinking, scaling optimization) spend essentially all of their time
//! asking "does this candidate spec still meet the constraint?", yet each
//! move changes only a handful of word lengths. [`IncrementalEvaluator`]
//! exploits that: it precomputes an inverted index from [`SpecKey`] to the
//! noise sources whose contribution depends on that key, caches every
//! source's `(bias, var)` contribution, and consumes the spec's undo
//! journal ([`FixedPointSpec::changed_since`]) to re-evaluate only the
//! sources a trial touched — O(changed keys × fanout) per move instead of
//! O(all sources).
//!
//! # Exactness
//!
//! The engine is **bit-identical** to [`AnalyticalEvaluator`]'s full
//! recompute, by construction rather than by tolerance:
//!
//! * per-source contributions come from the same
//!   `AnalyticalEvaluator::contribution_at` code path, so a re-evaluated
//!   source produces the exact f64 pair a full walk would;
//! * totals are re-folded over the cached contributions in source order —
//!   the same associativity as the full recompute's loop — instead of
//!   being patched with subtract-and-add (which drifts in the last ulp);
//! * the fold resumes from a cached **prefix**: `prefix[i]` is the
//!   left-to-right fold of the committed contributions of sources
//!   `0..i`, exactly the partial sum the full loop holds before source
//!   `i`. A trial whose lowest touched source is `lo` starts from
//!   `prefix[lo]` and adds only `lo..`, so its total is the same
//!   sequence of additions as a fold from zero. The prefixes are valid up
//!   to a watermark: committed trials and `observe` lower it to the
//!   lowest source they changed, a resync resets it to zero, and each
//!   trial fold raises it again up to its own `lo` (sources below `lo`
//!   hold committed values during the trial).
//!
//! The expensive per-source work (gain lookups, operand-grid resolution,
//! noise statistics) is what the index avoids; the prefix keeps the
//! remaining additions to the sources at or after the lowest touched
//! one. `tests/incremental_differential.rs` replays thousands of random
//! move/undo sequences and asserts bitwise equality on every step.
//!
//! # Protocol
//!
//! See [`AccuracyEvaluator`]'s trait documentation: `begin` once, then
//! `trial_*` per candidate move, resolved by `commit_trial` /
//! `rollback_trial`; journaled writes applied outside a trial are reported
//! via `observe`. At most one trial may be outstanding.

use crate::model::{AccuracyEvaluator, AnalyticalEvaluator};
use slpwlo_fixedpoint::spec::{FixedPointSpec, SpecKey};
use std::cell::RefCell;
use std::collections::HashMap;

/// Mutable evaluation state, behind a [`RefCell`] so the evaluator can be
/// used through the shared-reference [`AccuracyEvaluator`] trait. The
/// type is deliberately `!Sync`; parallel sweeps construct one evaluator
/// per worker over the same shared [`AnalyticalEvaluator`].
#[derive(Debug)]
struct State {
    /// Committed `(bias, var)` contribution of every source.
    contrib: Vec<(f64, f64)>,
    /// Sources overwritten by the outstanding trial, with their previous
    /// contributions (for rollback), oldest first.
    saved: Vec<(u32, (f64, f64))>,
    /// Whether a trial is outstanding.
    pending: bool,
    /// Trial stamp per source, deduplicating touches within one trial.
    /// 64-bit so the monotonically growing stamp never wraps into a
    /// stale entry within any feasible session length.
    touched: Vec<u64>,
    /// Current trial id (stamp value).
    trial_id: u64,
    /// Whether `contrib` reflects some spec state (set by the first
    /// `begin`/resync).
    synced: bool,
    /// `prefix[i]`: left-to-right fold of the committed contributions of
    /// sources `0..i` (`prefix[0]` is zero); `sources + 1` entries.
    prefix: Vec<(f64, f64)>,
    /// `prefix[..=valid]` match the committed contributions.
    valid: usize,
    /// Lowest source the outstanding trial changed (the source count
    /// when it changed none).
    trial_lo: usize,
}

/// Incremental `EVALACC`: evaluates candidate moves in O(Δ) by caching
/// per-source noise contributions over a base [`AnalyticalEvaluator`].
///
/// Construction is cheap (one index build over the base's sources); the
/// first [`AccuracyEvaluator::begin`] (or any full [`noise_db`] call)
/// pays one full evaluation to seed the cache.
///
/// [`noise_db`]: AccuracyEvaluator::noise_db
#[derive(Debug)]
pub struct IncrementalEvaluator<'a> {
    base: &'a AnalyticalEvaluator,
    /// Inverted index: key → indices of sources depending on it.
    index: HashMap<SpecKey, Vec<u32>>,
    state: RefCell<State>,
}

impl<'a> IncrementalEvaluator<'a> {
    /// Builds the engine over a base evaluator. Call
    /// [`AccuracyEvaluator::begin`] with the working spec before issuing
    /// trials.
    pub fn new(base: &'a AnalyticalEvaluator) -> Self {
        let n = base.source_count();
        let mut index: HashMap<SpecKey, Vec<u32>> = HashMap::new();
        let mut keys = Vec::new();
        for i in 0..n {
            base.source_keys(i, &mut keys);
            keys.sort_unstable_by_key(spec_key_ord);
            keys.dedup();
            for &key in &keys {
                index.entry(key).or_default().push(i as u32);
            }
        }
        IncrementalEvaluator {
            base,
            index,
            state: RefCell::new(State {
                contrib: vec![(0.0, 0.0); n],
                saved: Vec::new(),
                pending: false,
                touched: vec![0; n],
                trial_id: 0,
                synced: false,
                prefix: vec![(0.0, 0.0); n + 1],
                valid: 0,
                trial_lo: n,
            }),
        }
    }

    /// Builds the engine and seeds its cache from `spec` in one step.
    pub fn with_spec(base: &'a AnalyticalEvaluator, spec: &FixedPointSpec) -> Self {
        let eval = Self::new(base);
        eval.begin(spec);
        eval
    }

    /// Sources whose contribution depends on `key` (index fanout).
    pub fn fanout(&self, key: SpecKey) -> usize {
        self.index.get(&key).map_or(0, Vec::len)
    }

    /// Recomputes every contribution from `spec`, discarding any
    /// outstanding trial.
    fn resync(&self, spec: &FixedPointSpec) {
        let st = &mut *self.state.borrow_mut();
        for (i, slot) in st.contrib.iter_mut().enumerate() {
            *slot = self.base.contribution_at(i, spec);
        }
        st.saved.clear();
        st.pending = false;
        st.synced = true;
        st.valid = 0;
    }

    /// Folds the cached contributions into the linear noise power —
    /// source order, matching [`AnalyticalEvaluator::noise_power`] —
    /// resuming from the prefix fold at `lo`. Sources below `lo` must
    /// hold committed contributions: the prefix is extended over them
    /// and cached, the rest is folded without caching.
    fn fold_power(st: &mut State, lo: usize) -> f64 {
        while st.valid < lo {
            let (pb, pv) = st.prefix[st.valid];
            let (b, v) = st.contrib[st.valid];
            st.valid += 1;
            st.prefix[st.valid] = (pb + b, pv + v);
        }
        let (mut bias, mut var) = st.prefix[lo];
        for &(b, v) in &st.contrib[lo..] {
            bias += b;
            var += v;
        }
        bias * bias + var
    }

    fn to_db(p: f64) -> f64 {
        if p <= 0.0 {
            f64::NEG_INFINITY
        } else {
            10.0 * p.log10()
        }
    }

    /// Re-evaluates the sources affected by the journaled writes since
    /// `mark`, remembering previous values when `save` is set. Returns
    /// the lowest source it re-evaluated (the source count if none).
    fn apply_changes(
        &self,
        st: &mut State,
        spec: &FixedPointSpec,
        mark: usize,
        save: bool,
    ) -> usize {
        st.trial_id += 1;
        let id = st.trial_id;
        let mut lo = st.contrib.len();
        for key in spec.changed_since(mark) {
            let Some(sources) = self.index.get(&key) else {
                continue;
            };
            for &si in sources {
                let i = si as usize;
                if st.touched[i] == id {
                    continue;
                }
                st.touched[i] = id;
                lo = lo.min(i);
                if save {
                    st.saved.push((si, st.contrib[i]));
                }
                st.contrib[i] = self.base.contribution_at(i, spec);
            }
        }
        lo
    }
}

impl AccuracyEvaluator for IncrementalEvaluator<'_> {
    /// Full evaluation; also resyncs the cache to `spec` (and drops any
    /// outstanding trial), so it stays usable as a plain evaluator.
    fn noise_db(&self, spec: &FixedPointSpec) -> f64 {
        self.resync(spec);
        let st = &mut *self.state.borrow_mut();
        let n = st.contrib.len();
        Self::to_db(Self::fold_power(st, n))
    }

    fn begin(&self, spec: &FixedPointSpec) {
        self.resync(spec);
    }

    fn trial_noise_db(&self, spec: &FixedPointSpec, mark: usize) -> f64 {
        let st = &mut *self.state.borrow_mut();
        assert!(
            !st.pending,
            "unresolved trial: commit_trial() or rollback_trial() first"
        );
        assert!(st.synced, "begin() must seed the cache before trials");
        st.pending = true;
        let lo = self.apply_changes(st, spec, mark, true);
        st.trial_lo = lo;
        Self::to_db(Self::fold_power(st, lo))
    }

    fn commit_trial(&self) {
        let st = &mut *self.state.borrow_mut();
        st.saved.clear();
        st.pending = false;
        st.valid = st.valid.min(st.trial_lo);
    }

    fn rollback_trial(&self) {
        let st = &mut *self.state.borrow_mut();
        while let Some((si, old)) = st.saved.pop() {
            st.contrib[si as usize] = old;
        }
        st.pending = false;
    }

    fn observe(&self, spec: &FixedPointSpec, mark: usize) {
        let mut guard = self.state.borrow_mut();
        if !guard.synced {
            drop(guard);
            self.resync(spec);
            return;
        }
        let st = &mut *guard;
        assert!(
            !st.pending,
            "unresolved trial: commit_trial() or rollback_trial() first"
        );
        let lo = self.apply_changes(st, spec, mark, false);
        st.valid = st.valid.min(lo);
    }
}

/// Total order over [`SpecKey`] for index construction (the key type
/// deliberately does not implement `Ord`).
fn spec_key_ord(key: &SpecKey) -> (u8, u32) {
    match key {
        SpecKey::Expr(e) => (0, e.index() as u32),
        SpecKey::Array(a) => (1, a.index() as u32),
        SpecKey::Param(p) => (2, p.index() as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpwlo_fixedpoint::range::{determine_ranges, RangeOptions};
    use slpwlo_ir::parser::parse_kernel;
    use slpwlo_ir::Kernel;

    const FIR4: &str = r#"
kernel fir4 {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.5, 0.25, -0.125, 0.0625 };
    array dl[4];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

    fn setup() -> (Kernel, FixedPointSpec, AnalyticalEvaluator) {
        let k = parse_kernel(FIR4).unwrap();
        let r = determine_ranges(&k, &RangeOptions::default());
        let spec = FixedPointSpec::from_ranges(&k, &r, 32);
        let eval = AnalyticalEvaluator::with_defaults(&k);
        (k, spec, eval)
    }

    #[test]
    fn trial_matches_full_recompute_bitwise() {
        let (k, mut spec, full) = setup();
        let inc = IncrementalEvaluator::with_spec(&full, &spec);
        assert_eq!(
            inc.trial_noise_db(&spec, spec.mark()).to_bits(),
            full.noise_db(&spec).to_bits(),
            "empty trial must equal the full recompute"
        );
        inc.rollback_trial();
        for key in spec.optimizable_keys(&k) {
            for wl in [8, 16, 24] {
                let mark = spec.mark();
                spec.set_wl(key, wl);
                let db_inc = inc.trial_noise_db(&spec, mark);
                let db_full = full.noise_db(&spec);
                assert_eq!(
                    db_inc.to_bits(),
                    db_full.to_bits(),
                    "trial {key}={wl}: {db_inc} vs {db_full}"
                );
                spec.rollback(mark);
                inc.rollback_trial();
            }
        }
        // After all rollbacks the cache must still match.
        let mark = spec.mark();
        assert_eq!(
            inc.trial_noise_db(&spec, mark).to_bits(),
            full.noise_db(&spec).to_bits()
        );
        inc.commit_trial();
    }

    #[test]
    fn commit_keeps_the_trial_state() {
        let (k, mut spec, full) = setup();
        let inc = IncrementalEvaluator::with_spec(&full, &spec);
        let key = spec.optimizable_keys(&k)[0];
        let mark = spec.mark();
        spec.set_wl(key, 8);
        let db = inc.trial_noise_db(&spec, mark);
        spec.commit(mark);
        inc.commit_trial();
        // A no-op trial after commit sees the committed state.
        let mark2 = spec.mark();
        assert_eq!(inc.trial_noise_db(&spec, mark2).to_bits(), db.to_bits());
        inc.rollback_trial();
    }

    #[test]
    fn observe_tracks_untrialed_writes() {
        let (k, mut spec, full) = setup();
        let inc = IncrementalEvaluator::with_spec(&full, &spec);
        let mark = spec.mark();
        for key in spec.optimizable_keys(&k) {
            spec.set_wl(key, 16);
        }
        inc.observe(&spec, mark);
        let mark2 = spec.mark();
        assert_eq!(
            inc.trial_noise_db(&spec, mark2).to_bits(),
            full.noise_db(&spec).to_bits()
        );
        inc.rollback_trial();
    }

    #[test]
    #[should_panic(expected = "unresolved trial")]
    fn double_trial_panics() {
        let (k, mut spec, full) = setup();
        let inc = IncrementalEvaluator::with_spec(&full, &spec);
        let key = spec.optimizable_keys(&k)[0];
        let mark = spec.mark();
        spec.set_wl(key, 16);
        let _ = inc.trial_noise_db(&spec, mark);
        let _ = inc.trial_noise_db(&spec, mark);
    }

    #[test]
    fn index_covers_every_optimizable_key() {
        let (k, spec, full) = setup();
        let inc = IncrementalEvaluator::new(&full);
        // Every key WLO may mutate must reach at least one source —
        // otherwise a trial on it would silently change nothing.
        for key in spec.optimizable_keys(&k) {
            assert!(inc.fanout(key) > 0, "key {key} has no indexed sources");
        }
    }
}
