//! The compilation flows the driver runs.
//!
//! The paper compares three ways of producing code for one kernel:
//! the joint **`WLO-SLP`** flow (fig. 3), the **`WLO-First`** baseline
//! (fig. 5, Tabu WLO then accuracy-unaware SLP) and the original
//! **floating-point** version. [`FlowKind`] names them; the
//! [`Optimizer`](crate::Optimizer) dispatches on it in one `match`, so a
//! new flow is a new variant plus a new arm there.

/// The flows, in the paper's order of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FlowKind {
    /// The paper's joint SLP-aware WLO (fig. 3).
    WloSlp,
    /// The `WLO-First` baseline: Tabu WLO, then plain SLP (fig. 5).
    WloFirst,
    /// The original floating-point version (no quantization, no SLP).
    Float,
}

impl FlowKind {
    /// The flow's stable machine-readable name, as recorded in
    /// [`Report::flow`](crate::Report::flow).
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::WloSlp => "wlo-slp",
            FlowKind::WloFirst => "wlo-first",
            FlowKind::Float => "float",
        }
    }
}

impl std::fmt::Display for FlowKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
