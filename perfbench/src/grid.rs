//! The three workloads: which kernels they compile, at which grid points,
//! and the set-up each pays before its timed loop.

use slpwlo_driver::{BenefitKind, Error, FlowKind, Optimizer, Report};
use slpwlo_gen::KernelGen;
use slpwlo_ir::Kernel;
use slpwlo_kernels::{all_benchmarks, Workload};
use slpwlo_targets::{st240, vex, xentium, SchedKind, TargetModel};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Generated kernels drawn per seed on `dse-sweep`. Their compile time
/// varies ~40× between draws, so they are checked every run but kept out
/// of the timing and cycle aggregates (see [`Point::timed`]).
pub const GEN_KERNELS: usize = 4;

/// Activations of a generated kernel's reported cycles and noise check.
const GEN_ACTIVATIONS: u64 = 2048;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Compile each dense-stream suite kernel from scratch, once per op.
    ColdCompile,
    /// Prepare once, then sweep constraints × targets × flows.
    DseSweep,
    /// Exact selection plus modulo scheduling on the whole suite.
    ExactModulo,
}

impl Kind {
    /// Parses a workload name as `BENCHMARK.json` lists it.
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "cold-compile" => Some(Kind::ColdCompile),
            "dse-sweep" => Some(Kind::DseSweep),
            "exact-modulo" => Some(Kind::ExactModulo),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdCompile => "cold-compile",
            Kind::DseSweep => "dse-sweep",
            Kind::ExactModulo => "exact-modulo",
        }
    }

    /// `true` when each op compiles from scratch (no shared set-up).
    pub fn is_cold(self) -> bool {
        self == Kind::ColdCompile
    }

    fn suite_filter(self, name: &str) -> bool {
        match self {
            Kind::ColdCompile => matches!(name, "FIR" | "IIR" | "DOT" | "POLY" | "MATVEC"),
            Kind::DseSweep | Kind::ExactModulo => true,
        }
    }

    fn targets(self) -> Vec<TargetModel> {
        match self {
            Kind::ColdCompile => vec![xentium(), vex(4)],
            Kind::DseSweep => vec![xentium(), st240(), vex(4)],
            Kind::ExactModulo => vec![st240(), vex(1)],
        }
    }

    fn flows(self) -> &'static [FlowKind] {
        match self {
            Kind::DseSweep => &[FlowKind::WloSlp, FlowKind::WloFirst],
            Kind::ColdCompile | Kind::ExactModulo => &[FlowKind::WloSlp],
        }
    }

    fn constraints_db(self) -> &'static [f64] {
        match self {
            Kind::ColdCompile => &[-40.0],
            Kind::DseSweep => &[-15.0, -25.0, -40.0, -55.0],
            Kind::ExactModulo => &[-25.0, -40.0],
        }
    }

    /// SLP pricing and scheduling strategy of every op.
    pub fn strategy(self) -> (BenefitKind, SchedKind) {
        match self {
            Kind::ExactModulo => (BenefitKind::optimal(), SchedKind::modulo()),
            Kind::ColdCompile | Kind::DseSweep => (BenefitKind::default(), SchedKind::default()),
        }
    }

    fn gen_kernels(self) -> usize {
        match self {
            Kind::DseSweep => GEN_KERNELS,
            Kind::ColdCompile | Kind::ExactModulo => 0,
        }
    }
}

/// One kernel the workload compiles.
#[derive(Debug)]
pub struct Subject {
    /// Row label: the suite name, or `GEN<i>:<generator seed>`.
    pub name: String,
    /// The kernel.
    pub kernel: Kernel,
    /// Activations of its reported cycles.
    pub activations: u64,
    /// `true` for generated kernels (their infeasible points are dropped).
    pub generated: bool,
}

/// One grid point: a kernel compiled for one target, flow and constraint.
#[derive(Debug, Clone)]
pub struct Point {
    /// Index into [`Bench::subjects`].
    pub subject: usize,
    /// Index into [`Bench::targets`].
    pub target: usize,
    /// The flow.
    pub flow: FlowKind,
    /// The noise constraint (dB).
    pub db: f64,
    /// `false` for a generated kernel's point: it is compiled, repeated
    /// and noise-checked every run, but stays out of the timing and
    /// cycle aggregates, whose spread across seeds it would dominate.
    pub timed: bool,
}

/// The generator seed of the `i`-th generated kernel of a workload seed
/// (splitmix64, so neighbouring seeds draw unrelated kernels).
pub fn gen_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The kernels of a workload: the suite slice it names plus its seeded
/// draw of generated kernels.
pub fn subjects(kind: Kind, seed: u64) -> Vec<Subject> {
    let mut out: Vec<Subject> = all_benchmarks()
        .into_iter()
        .filter(|b| kind.suite_filter(b.name))
        .map(|b| Subject {
            name: b.name.to_string(),
            kernel: b.kernel,
            activations: b.activations,
            generated: false,
        })
        .collect();
    for i in 0..kind.gen_kernels() {
        let s = gen_seed(seed, i);
        out.push(Subject {
            name: format!("GEN{i}:{s:016x}"),
            kernel: KernelGen::with_seed(s).gen(),
            activations: GEN_ACTIVATIONS,
            generated: true,
        });
    }
    out
}

/// The seeded input signals of the correctness check, one per subject:
/// each suite kernel's standard workload, white noise for generated ones.
pub fn signals(subjects: &[Subject], seed: u64) -> Vec<Vec<Vec<f64>>> {
    let suite = all_benchmarks();
    subjects
        .iter()
        .map(|s| match suite.iter().find(|b| b.name == s.name) {
            Some(b) => b.workload(seed).inputs,
            None => {
                let n = s.kernel.inputs().len();
                Workload::white(n, s.activations as usize, seed ^ 0x5EED).inputs
            }
        })
        .collect()
}

/// A per-kernel optimizer reconfigured between points, so the kernel's
/// analyses are prepared once.
struct Slot {
    opt: Option<Optimizer>,
    target: usize,
    flow: FlowKind,
}

/// A workload ready to run: its kernels, targets, grid and (for the
/// warm workloads) the prepared optimizers.
pub struct Bench {
    /// The workload.
    pub kind: Kind,
    /// Its kernels.
    pub subjects: Vec<Subject>,
    /// Its targets.
    pub targets: Vec<TargetModel>,
    /// Its grid, kernel-major.
    pub points: Vec<Point>,
    /// Grid points dropped at set-up as below a generated kernel's
    /// noise floor (infeasible by construction, refused by design).
    pub dropped: Vec<String>,
    slots: Vec<Slot>,
}

impl Bench {
    /// The workload's set-up: builds its kernels and, for the warm
    /// workloads, prepares each kernel once and drops generated points
    /// below their noise floor. This is what `setup_s` times.
    pub fn setup(kind: Kind, seed: u64) -> Result<Bench, Error> {
        let subjects = subjects(kind, seed);
        let targets = kind.targets();
        let (benefit, sched) = kind.strategy();
        let mut slots = Vec::new();
        let mut floors = Vec::new();
        if !kind.is_cold() {
            for s in &subjects {
                let mut opt = Optimizer::for_kernel(s.kernel.clone())?
                    .benefit_kind(benefit)
                    .sched_kind(sched)
                    .activations(s.activations);
                let mut per_target = Vec::new();
                for t in &targets {
                    opt = opt.target(t.clone());
                    per_target.push(opt.noise_floor_db());
                }
                floors.push(per_target);
                slots.push(Slot {
                    opt: Some(opt),
                    target: targets.len() - 1,
                    flow: FlowKind::WloSlp,
                });
            }
        }
        let mut points = Vec::new();
        let mut dropped = Vec::new();
        for (si, s) in subjects.iter().enumerate() {
            for ti in 0..targets.len() {
                for &flow in kind.flows() {
                    for &db in kind.constraints_db() {
                        let p = Point {
                            subject: si,
                            target: ti,
                            flow,
                            db,
                            timed: !s.generated,
                        };
                        if s.generated && floors.get(si).is_some_and(|f| db < f[ti]) {
                            dropped.push(label(&subjects, &targets, &p));
                        } else {
                            points.push(p);
                        }
                    }
                }
            }
        }
        Ok(Bench {
            kind,
            subjects,
            targets,
            points,
            dropped,
            slots,
        })
    }

    /// The row label of a point.
    pub fn label(&self, p: &Point) -> String {
        label(&self.subjects, &self.targets, p)
    }

    /// Runs one point the way a user would — `Optimizer::for_kernel` +
    /// `run` on the cold workload, `run_at` on a prepared optimizer
    /// otherwise — and returns the compile latency with the outcome.
    /// Re-targeting a prepared optimizer (and warming its noise-floor
    /// memo) happens before the clock starts.
    pub fn run(&mut self, p: &Point) -> (Duration, Result<Report, Error>) {
        let (benefit, sched) = self.kind.strategy();
        let subject = &self.subjects[p.subject];
        let target = self.targets[p.target].clone();
        if self.kind.is_cold() {
            let kernel = subject.kernel.clone();
            let t0 = Instant::now();
            let report = Optimizer::for_kernel(kernel).and_then(|o| {
                o.target(target)
                    .flow(p.flow)
                    .benefit_kind(benefit)
                    .sched_kind(sched)
                    .activations(subject.activations)
                    .constraint_db(p.db)
                    .run()
            });
            return (t0.elapsed(), report);
        }
        let slot = &mut self.slots[p.subject];
        if slot.target != p.target || slot.flow != p.flow {
            let opt = slot
                .opt
                .take()
                .expect("slot holds its optimizer between ops");
            let opt = opt.target(target).flow(p.flow);
            opt.noise_floor_db();
            slot.opt = Some(opt);
            slot.target = p.target;
            slot.flow = p.flow;
        }
        let opt = slot
            .opt
            .as_ref()
            .expect("slot holds its optimizer between ops");
        let t0 = Instant::now();
        let report = opt.run_at(p.db);
        (t0.elapsed(), report)
    }
}

fn label(subjects: &[Subject], targets: &[TargetModel], p: &Point) -> String {
    format!(
        "{}/{}/{}/{}dB",
        subjects[p.subject].name, targets[p.target].name, p.flow, p.db
    )
}

/// A bitwise fingerprint of everything a report computes: spec (with its
/// journal), both programs, all four cycle counts, predicted noise bits,
/// group count and selector statistics. Two reports with equal
/// fingerprints are, up to hash collisions, bit-for-bit the same output.
pub fn fingerprint(r: &Report) -> u64 {
    struct HashWriter(std::collections::hash_map::DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut w = HashWriter(std::collections::hash_map::DefaultHasher::new());
    use std::fmt::Write as _;
    write!(
        w,
        "{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.kernel_name,
        r.flow,
        r.target.name,
        r.constraint_db.map(f64::to_bits),
        r.spec,
        r.simd,
        r.scalar,
        r.noise_db.map(f64::to_bits),
        r.select,
    )
    .expect("hashing never fails");
    let mut h = w.0;
    (
        r.group_count,
        r.activations,
        r.cycles_simd,
        r.cycles_scalar,
        r.cycles_simd_list,
        r.cycles_scalar_list,
    )
        .hash(&mut h);
    h.finish()
}
