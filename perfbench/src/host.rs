//! Host metadata recorded with every result, so a figure can be read
//! against the machine, toolchain and source revision that produced it.

use std::fs;
use std::path::Path;

/// Where and from what one result was produced.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the process may use (`available_parallelism`).
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
    /// The compiler the benchmark was built with.
    pub rustc: String,
    /// Source revision of the checkout, or `unknown` outside git.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
}

impl Host {
    /// Probes the running host; `root` is the repository checkout.
    pub fn probe(root: &Path, seed: u64) -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: git_commit(root).unwrap_or_else(|| "unknown".into()),
            seed,
        }
    }

    /// The metadata as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {}}}",
            self.nproc,
            crate::json_str(&self.cpu),
            crate::json_str(&self.rustc),
            crate::json_str(&self.commit),
            self.seed
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Resolves `HEAD` by reading the git directory directly (loose ref,
/// then packed refs), so no process is spawned.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, r)| *r == name)
        .map(|(id, _)| id.to_string())
}
