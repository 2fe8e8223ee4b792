//! Reproduces Table I: number of cycles of the SIMD versions for FIR on
//! XENTIUM, ST240 and VEX-4 at constraints -5..-65 dB.
//!
//! Usage: `cargo run --release -p slpwlo-bench --bin table1 [--csv]`

use slpwlo_bench::harness::sweep;
use slpwlo_bench::report;
use slpwlo_driver::Error;
use slpwlo_kernels::paper_benchmarks;
use slpwlo_targets::{st240, vex, xentium};

fn main() -> Result<(), Error> {
    let csv = std::env::args().any(|a| a == "--csv");
    let constraints: Vec<f64> = vec![-5.0, -15.0, -25.0, -35.0, -45.0, -55.0, -65.0];
    // Our 16-bit noise floor sits deeper than the paper's (about -100 dB
    // for this FIR), so a second band shows the constrained regime where
    // grouping progressively disappears.
    let deep: Vec<f64> = vec![-85.0, -95.0, -100.0, -105.0, -110.0];
    let targets = vec![xentium(), st240(), vex(4)];
    let fir = paper_benchmarks().remove(0);
    assert_eq!(fir.name, "FIR");
    let pts = sweep(&fir, &targets, &constraints)?;
    let deep_pts = sweep(&fir, &targets, &deep)?;
    if csv {
        let mut all = pts;
        all.extend(deep_pts);
        print!("{}", report::csv(&all));
    } else {
        println!(
            "Table I: number of cycles of SIMD versions for FIR (N = {})",
            fir.activations
        );
        print!("{}", report::table1_text(&pts));
        println!("\nExtension: tight-constraint band (beyond the paper's axis)");
        print!("{}", report::table1_text(&deep_pts));
    }
    Ok(())
}
