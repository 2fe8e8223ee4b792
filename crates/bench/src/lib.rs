//! Experiment harness reproducing the paper's evaluation.
//!
//! One [`ExperimentPoint`] corresponds to one (benchmark, target,
//! accuracy-constraint) cell of the paper's figures: both flows run, the
//! resulting programs are cycle-simulated, and the speedups of equation
//! (2) are computed against the scalar fixed-point version of
//! `WLO-First` (the paper's baseline denominator).
//!
//! Binaries:
//!
//! * `fig4`   — speedup of both SIMD flows vs accuracy constraint, all
//!   benchmarks x all targets (figure 4);
//! * `table1` — FIR SIMD cycle counts on XENTIUM/ST240/VEX-4 (table I);
//! * `fig6`   — `WLO-SLP` speedup over the original floating-point code
//!   on XENTIUM and ST240 (figure 6);
//! * `ablation` — beyond-paper ablations (scaling optimization off,
//!   accuracy conflicts off).

pub mod harness;
pub mod micro;
pub mod report;

pub use harness::{optimizer_for, run_point, sweep, ExperimentPoint};
pub use micro::{BenchRecord, Micro, MicroOptions};
