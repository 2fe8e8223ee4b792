//! Host-speed normalization of the timed figures.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! up to 2× over seconds to minutes with other tenants' load: a fixed
//! loop of pure arithmetic swings too, so it is the host, not the
//! compiler. A run that happens to land in a slow spell would then read
//! tens of percent slower than one that does not.
//!
//! So a fixed probe — the benchmark's own code, sharing nothing with the
//! compiler — runs right before every timed op (outside its clock). Each
//! op's wall time is divided by the host's speed at that moment: the
//! median of the probes around it, relative to [`REFERENCE_PROBE_NS`].
//! The reported times are thus milliseconds at a fixed reference speed. A
//! change to the compiler moves them exactly as it moves wall time; a
//! change of host speed moves op and probe alike and largely cancels.
//!
//! How much a slow spell slows code depends on the code: measured
//! slow/fast ratios on the same VM were 1.26–1.28 for sorting, 1.28–1.38
//! for integer multiply chains, 1.68–1.71 for a vectorized multiply–add
//! loop, against 1.59–1.67 for a cold compile and 1.36–1.44 for warm
//! `run_at` ops. The probe is roughly half integer chains, half multiply–add
//! (ratio 1.44–1.53), which leaves each workload within about 10% of its
//! wall-time swing; pointer chasing, hash maps, allocation churn, page
//! faults and an indirect-call maze all tracked the compiler worse. Raw
//! wall-time figures are printed alongside.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe time (ns) that defines the reference speed: a round figure
/// between the probe's times on a 2-vCPU Intel Xeon VM in its fast
/// (~250 µs) and slow (~380 µs) spells.
pub const REFERENCE_PROBE_NS: f64 = 300_000.0;

/// Probes on each side of an op whose median gives its speed.
const HALF_WINDOW: usize = 2;

/// Runs the probe once and returns its wall time.
pub fn probe() -> Duration {
    let t0 = Instant::now();
    black_box(probe_work(black_box(0x9E37_79B9_7F4A_7C15)));
    t0.elapsed()
}

/// The probe's work: four independent multiply–xorshift chains through a
/// 256-word table (integer, high instruction-level parallelism), then a
/// streaming multiply–add over 512 doubles (vectorized floating point).
fn probe_work(seed: u64) -> u64 {
    let mut buf = [0u64; 256];
    let (mut a, mut b, mut c, mut d) = (seed, seed ^ 0x1234, seed ^ 0xABCD, seed ^ 0x9876);
    for r in 0..600u64 {
        for i in (0..256).step_by(4) {
            a = (a ^ (a >> 29))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(buf[i]);
            b = (b ^ (b >> 31))
                .wrapping_mul(0x94D0_49BB_1331_11EB)
                .wrapping_add(buf[i + 1]);
            c = (c ^ (c >> 27))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(buf[i + 2]);
            d = (d ^ (d >> 33))
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .wrapping_add(buf[i + 3]);
            buf[i] = a ^ r;
            buf[i + 1] = b;
            buf[i + 2] = c;
            buf[i + 3] = d;
        }
    }
    let x: Vec<f64> = buf
        .iter()
        .chain(buf.iter())
        .map(|&v| (v >> 11) as f64 * 1e-16)
        .collect();
    let mut y = vec![1.0f64; x.len()];
    for _ in 0..1500 {
        for (yi, xi) in black_box(&mut y).iter_mut().zip(&x) {
            *yi = *yi * 0.999 + *xi;
        }
    }
    a ^ b ^ c ^ d ^ y.iter().sum::<f64>().to_bits()
}

/// Speed factors of a sequence of ops, given the probe time (ns) taken
/// right before each: op `i`'s factor is the median of the probes
/// `i - HALF_WINDOW ..= i + HALF_WINDOW` (clamped to the sequence; probe
/// `i + 1` is taken right after op `i`) over [`REFERENCE_PROBE_NS`]. A
/// factor of 2 means the host ran at half the reference speed.
pub fn factors(probe_ns: &[f64]) -> Vec<f64> {
    let n = probe_ns.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(n);
            let mut w = probe_ns[lo..hi].to_vec();
            w.sort_by(f64::total_cmp);
            let m = w.len();
            let mid = if m % 2 == 1 {
                w[m / 2]
            } else {
                (w[m / 2 - 1] + w[m / 2]) / 2.0
            };
            mid / REFERENCE_PROBE_NS
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_deterministic() {
        assert_eq!(probe_work(7), probe_work(7));
        assert_ne!(probe_work(7), probe_work(8));
    }

    #[test]
    fn factors_take_the_median_of_the_window() {
        let r = REFERENCE_PROBE_NS;
        // One slow outlier probe does not move its neighbours' factors.
        let f = factors(&[r, r, 10.0 * r, r, r]);
        assert_eq!(f, vec![1.0; 5]);
        // A slow spell does.
        let f = factors(&[r, r, 2.0 * r, 2.0 * r, 2.0 * r, 2.0 * r]);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[5], 2.0);
        assert!(factors(&[]).is_empty());
    }
}
