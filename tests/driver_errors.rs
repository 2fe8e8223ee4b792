//! Driver error paths: every user-input failure mode surfaces as a
//! typed `slpwlo::Error` instead of a panic.

use slpwlo::ir::builder::KernelBuilder;
use slpwlo::targets::xentium;
use slpwlo::{Error, FlowKind, Optimizer};

const GOOD: &str = r#"
kernel good {
    input x range [-1, 1];
    output y;
    param c[4] = { 0.25, -0.5, 0.125, 0.0625 };
    array dl[4];
    var acc;
    shiftin dl <- x;
    acc = 0.0;
    for i in 0..4 unroll 4 {
        acc = acc + c[i] * dl[i];
    }
    y = acc;
}
"#;

#[test]
fn malformed_source_returns_parse_error() {
    for src in [
        "",
        "kernel {",
        "kernel k { input x range [-1 1]; output y; y = x; }",
        "kernel k { input x range [1, -1]; output y; y = x; }",
        "kernel k { input x range [nan, 1]; output y; y = x; }",
        "kernel k { output y; y = undeclared_name; }",
        "garbage £$% tokens",
    ] {
        match Optimizer::for_source(src) {
            Err(Error::Parse(_)) => {}
            Err(other) => panic!("{src:?}: expected Parse, got {other:?}"),
            Ok(_) => panic!("{src:?}: must not parse"),
        }
    }
}

#[test]
fn parse_errors_carry_location_and_chain() {
    use std::error::Error as _;
    let err = Optimizer::for_source("kernel k {\n  input x range [-1, 1];\n  !!\n}")
        .expect_err("must fail");
    // Displayable, with a source chain down to the IR error.
    assert!(err.to_string().contains("parse error"), "{err}");
    assert!(err.source().is_some());
}

#[test]
fn invalid_input_range_is_typed() {
    use slpwlo::ir::types::IndexExpr;
    use slpwlo::ir::IrError;
    // lo > hi: programmatically-built kernels fail `Kernel::validate`
    // (run by `try_finish`) with a typed error instead of a delayed
    // panic deep inside range analysis.
    let mut b = KernelBuilder::new("bad_range");
    let x = b.input("x", 1.0, -1.0);
    let y = b.output("y");
    let xv = b.read_input(x);
    b.set_output(y, xv);
    match b.try_finish() {
        Err(IrError::InvalidRange { input, range }) => {
            assert_eq!(input, "x");
            assert_eq!(range, "[1, -1]");
        }
        other => panic!("expected InvalidRange, got {other:?}"),
    }

    // Non-finite bounds are rejected the same way.
    let mut b = KernelBuilder::new("nan_range");
    let x = b.input("x", f64::NEG_INFINITY, 1.0);
    let y = b.output("y");
    let xv = b.read_input(x);
    b.set_output(y, xv);
    assert!(matches!(b.try_finish(), Err(IrError::InvalidRange { .. })));

    // Non-finite literals and parameter entries (`1e400` overflows f64
    // to infinity) fail validation instead of panicking in spec
    // construction or reporting a NaN noise figure.
    let mut b = KernelBuilder::new("inf_const");
    let x = b.input("x", -1.0, 1.0);
    let y = b.output("y");
    let c = b.constf(f64::INFINITY);
    let xv = b.read_input(x);
    let prod = b.mul(c, xv);
    b.set_output(y, prod);
    match b.try_finish() {
        Err(IrError::NonFiniteValue { site, value }) => {
            assert_eq!(site, format!("constant e{}", c.0));
            assert_eq!(value, "inf");
        }
        other => panic!("expected NonFiniteValue, got {other:?}"),
    }
    for (src, want_site) in [
        (
            "kernel k { input x range [-1, 1]; output y; param c[2] = { 0.5, 1e400 }; y = c[0] * x; }",
            "param `c`[1]",
        ),
        (
            "kernel k { input x range [-1, 1]; output y; y = 1e400 * x; }",
            "constant e",
        ),
    ] {
        match Optimizer::for_source(src) {
            Err(Error::Parse(IrError::NonFiniteValue { site, .. })) => {
                assert!(site.starts_with(want_site), "{src:?}: site {site}");
            }
            other => panic!("{src:?}: expected NonFiniteValue, got {other:?}"),
        }
    }

    // Index arithmetic that leaves `i64`: a constant sum the parser
    // refuses, and an affine index whose extreme over its loop
    // (`3 * 2^62`) validation refuses.
    match Optimizer::for_source(
        "kernel k { input x range [-1, 1]; output y; array dl[4]; shiftin dl <- x; \
         y = dl[9223372036854775807 + 9223372036854775807]; }",
    ) {
        Err(Error::Parse(IrError::Parse { msg, .. })) => assert!(msg.contains("overflow"), "{msg}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    match Optimizer::for_source(
        "kernel k { input x range [-1, 1]; output y; array dl[4]; var acc; shiftin dl <- x; \
         acc = 0.0; for i in 0..4 { acc = acc + dl[4611686018427387904 * i]; } y = acc; }",
    ) {
        Err(Error::Parse(IrError::IndexOverflow { index })) => {
            assert!(index.starts_with("4611686018427387904*"), "{index}");
        }
        other => panic!("expected IndexOverflow, got {other:?}"),
    }
    // Built kernels are held to the same bound: `coeff * l` over
    // `for l in 0..4` peaks at `3 * coeff`.
    for (coeff, fits) in [(i64::MAX / 3, true), (i64::MAX / 3 + 1, false)] {
        let mut b = KernelBuilder::new("wide_stride");
        let x = b.input("x", -1.0, 1.0);
        let a = b.array("a", 4);
        let y = b.output("y");
        let l = b.begin_for(4);
        let xv = b.read_input(x);
        b.store_ix(a, IndexExpr::affine(l, coeff, 0), xv);
        b.end_for(l);
        let out = b.load(a, 0);
        b.set_output(y, out);
        match b.try_finish() {
            Ok(_) => assert!(fits, "coeff {coeff} must be refused"),
            Err(IrError::IndexOverflow { .. }) => assert!(!fits, "coeff {coeff} fits"),
            Err(other) => panic!("expected IndexOverflow, got {other:?}"),
        }
    }

    // Finite literals whose product overflows: the noise floor is NaN,
    // and every constraint point is refused with a typed error.
    let opt = Optimizer::for_source(
        "kernel k { input x range [-1, 1]; output y; y = 1e308 * 1e308 * x; }",
    )
    .expect("every literal is finite");
    assert!(opt.noise_floor_db().is_nan());
    match opt.constraint_db(-30.0).run() {
        Err(Error::Unsatisfiable { floor_db, .. }) => assert!(floor_db.is_nan()),
        other => panic!("expected Unsatisfiable, got {other:?}"),
    }
}

#[test]
fn unsatisfiable_constraint_returns_typed_error_not_panic() -> Result<(), Error> {
    let opt = Optimizer::for_source(GOOD)?
        .target(xentium())
        .flow(FlowKind::WloSlp);
    let floor = opt.noise_floor_db();
    // Just above the floor: satisfiable.
    assert!(opt.constraint_db(floor + 1.0).run().is_ok());
    // Below the floor: typed error carrying both numbers.
    let opt = Optimizer::for_source(GOOD)?.target(xentium());
    match opt.constraint_db(floor - 10.0).run() {
        Err(Error::Unsatisfiable {
            flow,
            constraint_db,
            floor_db,
        }) => {
            assert_eq!(flow, "wlo-slp");
            assert!((floor_db - floor).abs() < 1e-9);
            assert!((constraint_db - (floor - 10.0)).abs() < 1e-9);
        }
        other => panic!("expected Unsatisfiable, got {other:?}"),
    }
    Ok(())
}

#[test]
fn sweep_rejects_any_unsatisfiable_point_up_front() -> Result<(), Error> {
    let opt = Optimizer::for_source(GOOD)?;
    let floor = opt.noise_floor_db();
    let err = opt.sweep(&[-20.0, floor - 5.0, -40.0]).unwrap_err();
    assert!(matches!(err, Error::Unsatisfiable { .. }), "{err}");
    Ok(())
}

#[test]
fn invalid_builder_configuration_is_typed() -> Result<(), Error> {
    // Missing constraint on a quantizing flow.
    let err = Optimizer::for_source(GOOD)?
        .flow(FlowKind::WloFirst)
        .run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            Error::Config {
                field: "constraint_db",
                ..
            }
        ),
        "{err}"
    );

    // Non-finite constraint.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = Optimizer::for_source(GOOD)?
            .constraint_db(bad)
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Config {
                    field: "constraint_db",
                    ..
                }
            ),
            "{err}"
        );
    }

    // Zero-activation cycle reports, and a workload whose cycle count
    // overflows 64 bits (on the README's one-multiply kernel).
    for (src, activations) in [
        (GOOD, 0),
        (
            "kernel k { input x range [-1, 1]; output y; var t; t = 0.5 * x; y = t; }",
            u64::MAX / 2,
        ),
    ] {
        let err = Optimizer::for_source(src)?
            .constraint_db(-30.0)
            .activations(activations)
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Config {
                    field: "activations",
                    ..
                }
            ),
            "{err}"
        );
    }

    // Sweeping the float flow (which ignores constraints) is refused.
    let err = Optimizer::for_source(GOOD)?
        .flow(FlowKind::Float)
        .sweep(&[-20.0])
        .unwrap_err();
    assert!(matches!(err, Error::Config { field: "flow", .. }), "{err}");
    Ok(())
}

#[test]
fn export_failures_are_typed() -> Result<(), Error> {
    let report = Optimizer::for_source(GOOD)?.constraint_db(-30.0).run()?;
    // Exporting under a path whose parent is a *file* must fail with a
    // structured Export error, not a panic.
    let dir = std::env::temp_dir().join(format!("slpwlo_export_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").expect("temp file");
    match report.export_c(blocker.join("sub")) {
        Err(Error::Export { path, .. }) => assert!(path.starts_with(&blocker)),
        other => panic!("expected Export error, got {other:?}"),
    }
    // The float flow has nothing to export: typed Config error.
    let float = Optimizer::for_source(GOOD)?.flow(FlowKind::Float).run()?;
    assert!(matches!(float.export_c(&dir), Err(Error::Config { .. })));
    // Happy path still works, and the emitted artifacts are non-empty.
    let exported = report.export_c(&dir)?;
    for p in [&exported.fixed_c, &exported.simd_c, &exported.intrinsics_h] {
        assert!(
            std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false),
            "{p:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
