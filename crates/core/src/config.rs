//! SACHI machine configuration (Sec. V.1 plus the Sec. VII.2 presets).

use crate::encoding::RESOLUTION_BITS;
use sachi_ising::recovery::RecoveryPolicy;
use sachi_mem::cache::CacheHierarchy;
use sachi_mem::fault::FaultModel;
use sachi_mem::params::TechnologyParams;
use std::fmt;

/// The four stationarity designs of Sec. IV.D.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DesignKind {
    /// SACHI(n1a): spin stationary, bit-serial ICs, bit-major order.
    N1a,
    /// SACHI(n1b): spin stationary, bit-serial ICs, IC-major order.
    N1b,
    /// SACHI(n2): IC stationary, one neighbor per cycle, reuse R.
    N2,
    /// SACHI(n3): mixed stationary, reuse-aware compute, reuse N*R.
    N3,
}

impl DesignKind {
    /// All designs in ascending-reuse order.
    pub const ALL: [DesignKind; 4] = [
        DesignKind::N1a,
        DesignKind::N1b,
        DesignKind::N2,
        DesignKind::N3,
    ];

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            DesignKind::N1a => "SACHI(n1a)",
            DesignKind::N1b => "SACHI(n1b)",
            DesignKind::N2 => "SACHI(n2)",
            DesignKind::N3 => "SACHI(n3)",
        }
    }
}

impl fmt::Display for DesignKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A fault model plus the recovery policy applied when parity detects
/// one of its faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultProfile {
    /// What faults are injected and from which seed.
    pub model: FaultModel,
    /// What the machine does when a fault is detected.
    pub policy: RecoveryPolicy,
}

impl FaultProfile {
    /// Profile with the given model and the default retry policy.
    pub fn new(model: FaultModel) -> Self {
        FaultProfile {
            model,
            policy: RecoveryPolicy::default(),
        }
    }

    /// Replaces the recovery policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Full machine configuration.
///
/// ```
/// use sachi_core::config::{DesignKind, SachiConfig};
///
/// let config = SachiConfig::new(DesignKind::N3)
///     .with_resolution(8)
///     .without_prefetch();
/// assert_eq!(config.design, DesignKind::N3);
/// assert_eq!(config.resolution, Some(8));
/// assert!(!config.prefetch);
/// ```
#[derive(Debug, Clone)]
pub struct SachiConfig {
    /// Which stationarity design to run.
    pub design: DesignKind,
    /// Compute/storage array geometry.
    pub hierarchy: CacheHierarchy,
    /// Technology constants.
    pub tech: TechnologyParams,
    /// IC resolution override; `None` derives the minimum resolution from
    /// the graph's coefficients.
    pub resolution: Option<u32>,
    /// DRAM prefetcher enabled (Sec. IV.A). Disable for `abl_prefetch`.
    pub prefetch: bool,
    /// Storage-array write-port banks (sram22-style banking): a `B`-bank
    /// array accepts `B` row uploads per cycle, dividing the per-round
    /// upload term of the sweep schedule by `B`. `1` (the default) is
    /// exactly the unbanked machine — cycle-identical by construction.
    pub bank_count: usize,
    /// Tuple-rep enabled (Sec. IV.B.1). Disable for `abl_tuple_rep`.
    pub tuple_rep: bool,
    /// Optional fault-injection profile. `None` (the default) is a
    /// perfect memory hierarchy; honored by [`crate::machine::SachiMachine`]
    /// (the fully bit-accurate pipeline). The resident-optimized
    /// [`crate::tiled::ResidentN3Machine`] models a fault-free hierarchy.
    pub fault: Option<FaultProfile>,
    /// Record hierarchical solve-phase spans (cycle-domain timestamps)
    /// into the run report. Off by default: a disabled trace allocates
    /// nothing and records nothing.
    pub trace_phases: bool,
}

impl SachiConfig {
    /// The paper's default configuration for a given design: 16x10KB
    /// compute tiles, 160KB storage array, FreePDK-45 constants, prefetch
    /// and tuple-rep on.
    pub fn new(design: DesignKind) -> Self {
        SachiConfig {
            design,
            hierarchy: CacheHierarchy::hpca_default(),
            tech: TechnologyParams::freepdk45(),
            resolution: None,
            prefetch: true,
            bank_count: 1,
            tuple_rep: true,
            fault: None,
            trace_phases: false,
        }
    }

    /// Replaces the cache hierarchy (Sec. VII.2 presets).
    #[must_use]
    pub fn with_hierarchy(mut self, hierarchy: CacheHierarchy) -> Self {
        self.hierarchy = hierarchy;
        self
    }

    /// Forces a specific IC resolution (2..=32).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=32`.
    #[must_use]
    pub fn with_resolution(mut self, bits: u32) -> Self {
        assert!(
            RESOLUTION_BITS.contains(&bits),
            "resolution must be {RESOLUTION_BITS:?}, got {bits}"
        );
        self.resolution = Some(bits);
        self
    }

    /// Disables the DRAM prefetcher.
    #[must_use]
    pub fn without_prefetch(mut self) -> Self {
        self.prefetch = false;
        self
    }

    /// Sets the storage-array bank count (upload parallelism).
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    #[must_use]
    pub fn with_banks(mut self, banks: usize) -> Self {
        assert!(banks >= 1, "bank count must be >= 1, got {banks}");
        self.bank_count = banks;
        self
    }

    /// Disables tuple-rep.
    #[must_use]
    pub fn without_tuple_rep(mut self) -> Self {
        self.tuple_rep = false;
        self
    }

    /// Enables fault injection with the given profile.
    #[must_use]
    pub fn with_fault(mut self, profile: FaultProfile) -> Self {
        self.fault = Some(profile);
        self
    }

    /// Removes any fault profile (back to the perfect hierarchy).
    #[must_use]
    pub fn without_faults(mut self) -> Self {
        self.fault = None;
        self
    }

    /// Enables solve-phase span tracing (`--trace-phases` on the CLI).
    #[must_use]
    pub fn with_phase_trace(mut self) -> Self {
        self.trace_phases = true;
        self
    }
}

impl Default for SachiConfig {
    /// SACHI(n3) in the paper's default configuration.
    fn default() -> Self {
        SachiConfig::new(DesignKind::N3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_n3_with_paper_geometry() {
        let c = SachiConfig::default();
        assert_eq!(c.design, DesignKind::N3);
        assert_eq!(c.hierarchy, CacheHierarchy::hpca_default());
        assert!(c.prefetch);
        assert_eq!(c.bank_count, 1);
        assert!(c.tuple_rep);
        assert_eq!(c.resolution, None);
        assert_eq!(c.fault, None);
        assert!(!c.trace_phases);
        assert!(SachiConfig::default().with_phase_trace().trace_phases);
    }

    #[test]
    fn fault_profile_builders_compose() {
        use sachi_mem::fault::FaultRate;
        let model = FaultModel::new(5).with_read_ber(FaultRate::from_ppb(1000));
        let profile = FaultProfile::new(model.clone()).with_policy(RecoveryPolicy::FailFast);
        assert_eq!(profile.policy, RecoveryPolicy::FailFast);
        let c = SachiConfig::default().with_fault(profile.clone());
        assert_eq!(c.fault, Some(profile));
        assert_eq!(c.without_faults().fault, None);
        // Default profile: zero-rate model, retry policy.
        let d = FaultProfile::default();
        assert!(d.model.read_ber.is_zero() && d.model.dram_ber.is_zero());
        assert_eq!(d.policy, RecoveryPolicy::default());
    }

    #[test]
    fn builder_methods_compose() {
        let c = SachiConfig::new(DesignKind::N1a)
            .with_hierarchy(CacheHierarchy::server())
            .with_resolution(16)
            .without_prefetch()
            .without_tuple_rep()
            .with_banks(4);
        assert_eq!(c.design, DesignKind::N1a);
        assert_eq!(c.hierarchy, CacheHierarchy::server());
        assert_eq!(c.resolution, Some(16));
        assert!(!c.prefetch);
        assert!(!c.tuple_rep);
        assert_eq!(c.bank_count, 4);
    }

    #[test]
    #[should_panic(expected = "bank count must be")]
    fn bank_validation() {
        let _ = SachiConfig::default().with_banks(0);
    }

    #[test]
    fn labels_and_order() {
        assert_eq!(DesignKind::N1a.label(), "SACHI(n1a)");
        assert_eq!(format!("{}", DesignKind::N3), "SACHI(n3)");
        assert_eq!(DesignKind::ALL.len(), 4);
        assert!(DesignKind::N1a < DesignKind::N3);
    }

    #[test]
    #[should_panic(expected = "resolution must be")]
    fn resolution_validation() {
        let _ = SachiConfig::default().with_resolution(1);
    }
}
