//! Reproduces Figure 4: speedup of the SIMD versions of `WLO-First` and
//! `WLO-SLP` over the scalar fixed-point baseline, for each benchmark on
//! each target, against the accuracy constraint.
//!
//! Usage: `cargo run --release -p slpwlo-bench --bin fig4 [--csv]`

use slpwlo_bench::harness::sweep;
use slpwlo_bench::report;
use slpwlo_driver::Error;
use slpwlo_kernels::paper_benchmarks;
use slpwlo_targets::all_targets;

fn main() -> Result<(), Error> {
    let csv = std::env::args().any(|a| a == "--csv");
    // The paper sweeps -5..-70 dB. Our fixed-point noise floor for 16-bit
    // data sits near -100 dB (textbook Q15 SQNR for these kernels), so the
    // sweep extends to -110 dB to cover the same qualitative region where
    // SIMD grouping must progressively surrender to precision.
    let constraints: Vec<f64> = (1..=22).map(|i| -5.0 * i as f64).collect(); // -5..-110
    let targets = all_targets();
    let mut all = Vec::new();
    for bench in paper_benchmarks() {
        eprintln!("fig4: sweeping {} ...", bench.name);
        all.extend(sweep(&bench, &targets, &constraints)?);
    }
    if csv {
        print!("{}", report::csv(&all));
    } else {
        print!("{}", report::fig4_text(&all));
    }
    Ok(())
}
