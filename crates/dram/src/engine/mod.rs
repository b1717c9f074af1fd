//! Pluggable DRAM timing engines behind the [`TimingEngine`] trait.
//!
//! The memory controller's transaction-level simulation is the hottest
//! path in the repository — every search, sweep, compare and daemon job
//! bottoms out in it — so it exists in two implementations that must
//! produce **bit-identical** results:
//!
//! * [`EngineKind::Reference`] — the naive linear-scan oracle: every
//!   scheduling decision rescans the flat request buffer. Slow, obviously
//!   correct, and the baseline the optimized engine is tested against.
//! * [`EngineKind::Soa`] — the data-oriented engine: flat
//!   structure-of-arrays bank state, a pooled bitmask request arena
//!   scanned with `trailing_zeros`, and a monotone [`EventWheel`] for
//!   outstanding completions. The default whenever the configuration
//!   shape allows it (≤ [`soa::MAX_BANKS`] banks, ≤ [`soa::MAX_SLOTS`]
//!   buffer entries) — which every point of the `dram` and `dramx`
//!   design spaces does. Larger hand-built shapes fall back to the
//!   reference engine.
//!
//! The split mirrors an executor-backend design (one trait, several
//! increasingly specialized backends), so a SIMD lane or GPU backend is a
//! later drop-in: implement [`TimingEngine`], add an [`EngineKind`], and
//! the equivalence suite does the rest.

mod reference;
pub(crate) mod soa;
mod wheel;

pub use wheel::EventWheel;

use crate::controller::ControllerConfig;
use crate::device::{AddressMapping, DeviceTiming};
use crate::power::OpCounts;
use crate::trace::MemoryRequest;

/// Selects a timing-engine implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Linear-scan oracle (slow, the correctness baseline).
    Reference,
    /// Structure-of-arrays bitmask engine (fastest; shape-limited).
    Soa,
}

impl EngineKind {
    /// All engines, slowest first.
    pub const ALL: [EngineKind; 2] = [EngineKind::Reference, EngineKind::Soa];

    /// Stable display name (used by bench scenario labels).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Reference => "reference",
            EngineKind::Soa => "soa",
        }
    }

    /// Whether this engine supports the given controller shape. The
    /// dispatcher falls back to [`EngineKind::Reference`] (always
    /// capable) when the preferred engine cannot run a configuration.
    pub fn supports(self, ctx: &EngineCtx<'_>) -> bool {
        match self {
            EngineKind::Reference => true,
            EngineKind::Soa => {
                ctx.mapping.banks() <= soa::MAX_BANKS
                    && ctx.config.request_buffer_size <= soa::MAX_SLOTS
            }
        }
    }

    /// Run this engine over `trace`, falling back to the reference
    /// engine when the shape is unsupported (so dispatch is total). The
    /// SoA arena stores arrival ids as `u32`, so gigantic traces also
    /// fall back.
    pub fn run(self, ctx: &EngineCtx<'_>, trace: &[MemoryRequest]) -> RawRun {
        match self {
            EngineKind::Soa if self.supports(ctx) && trace.len() <= u32::MAX as usize => {
                soa::run(ctx, trace)
            }
            EngineKind::Reference | EngineKind::Soa => reference::run(ctx, trace),
        }
    }
}

/// Immutable inputs shared by every engine: device timing, address
/// mapping (bank count already includes the rank multiplier) and the
/// ten-parameter controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineCtx<'a> {
    /// Device timing parameters.
    pub timing: &'a DeviceTiming,
    /// Address decomposition; [`AddressMapping::banks`] is the engine's
    /// bank-state width.
    pub mapping: &'a AddressMapping,
    /// Controller configuration.
    pub config: &'a ControllerConfig,
}

/// Raw output of one engine run over one (channel-local) trace, before
/// stage-10 accounting: per-request completion cycles plus the operation
/// and row-buffer counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRun {
    /// Completion (data-end) cycle per request, indexed by trace position.
    pub completion: Vec<u64>,
    /// Operation counters for the energy model.
    pub counts: OpCounts,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Accesses to a precharged bank.
    pub row_misses: u64,
    /// Accesses that closed another row first.
    pub row_conflicts: u64,
}

/// A transaction-level DRAM timing engine. Implementations must be
/// bit-identical to [`EngineKind::Reference`] over every supported
/// configuration — the equivalence tests and proptests in
/// `controller.rs` enforce this, and CI re-runs them in release mode
/// with 512 cases.
pub trait TimingEngine {
    /// Stable display name.
    fn name(&self) -> &'static str;
    /// Simulate `trace` to completion.
    fn run(&self, ctx: &EngineCtx<'_>, trace: &[MemoryRequest]) -> RawRun;
}

impl TimingEngine for EngineKind {
    fn name(&self) -> &'static str {
        EngineKind::name(*self)
    }
    fn run(&self, ctx: &EngineCtx<'_>, trace: &[MemoryRequest]) -> RawRun {
        EngineKind::run(*self, ctx, trace)
    }
}
