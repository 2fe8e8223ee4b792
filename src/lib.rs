//! # slpwlo — SLP-aware word-length optimization
//!
//! Facade crate re-exporting the whole `slpwlo` workspace: a reproduction
//! of *"Superword Level Parallelism aware Word Length Optimization"*
//! (El Moussawi & Derrien, DATE 2017).
//!
//! Most users want the [`Optimizer`] driver: parse or build a kernel,
//! pick a target and a [`FlowKind`], and [`run`](Optimizer::run) it into
//! a [`Report`] — every fallible path returns a structured [`Error`]
//! instead of panicking.
//!
//! ```
//! use slpwlo::{FlowKind, Optimizer};
//! use slpwlo::targets::xentium;
//!
//! let report = Optimizer::for_source(
//!     "kernel k { input x range [-1, 1]; output y; var t; t = 0.5 * x; y = t; }",
//! )?
//! .target(xentium())
//! .constraint_db(-50.0)
//! .flow(FlowKind::WloSlp)
//! .run()?;
//! assert!(report.noise_db.unwrap() <= -50.0);
//! # Ok::<(), slpwlo::Error>(())
//! ```
//!
//! The layer crates remain available for algorithm-level work: [`core`]
//! (the joint WLO + SLP algorithms and end-to-end flows), [`kernels`]
//! (the paper's FIR/IIR/CONV benchmarks) and [`sim`] (the VLIW cycle
//! model). See the repository `README.md` and the `examples/` directory
//! for end-to-end walkthroughs.

pub use slpwlo_driver::{
    BenefitKind, Error, ExportedC, FlowKind, Optimizer, Report, SelectStats, VerifyError,
    VerifyLevel,
};

pub use slpwlo_accuracy as accuracy;
pub use slpwlo_codegen as codegen;
pub use slpwlo_core as core;
pub use slpwlo_driver as driver;
pub use slpwlo_fixedpoint as fixedpoint;
pub use slpwlo_gen as gen;
pub use slpwlo_ir as ir;
pub use slpwlo_kernels as kernels;
pub use slpwlo_sim as sim;
pub use slpwlo_slp as slp;
pub use slpwlo_targets as targets;
pub use slpwlo_verify as verify;
