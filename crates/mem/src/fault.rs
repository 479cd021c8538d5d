//! Deterministic fault injection for the near-memory compute path.
//!
//! SACHI repurposes live SRAM as an in-situ XNOR array and an L2 as a
//! tuple storage array — exactly the structures where real silicon
//! suffers transient bit flips and read-disturb. The
//! architecture is *all-digital*, so unlike the analog Ising machines
//! (BRIM, Ising-CIM) device noise is not absorbed intrinsically: every
//! injected fault propagates deterministically through the discharge
//! pattern. This module supplies the fault source:
//!
//! * [`FaultRate`] — a bit-error rate stored as an integer threshold
//!   over the `u64` draw space, so fault decisions never involve
//!   floating-point comparisons and are byte-identical everywhere;
//! * [`FaultModel`] — the configuration: transient read BER, DRAM
//!   stream BER, and the fault seed;
//! * [`FaultInjector`] — a per-replica SplitMix64 stream derived from
//!   `(fault seed, stream salt)`. The solve layer salts the stream with
//!   the replica's derived annealer seed, which is a pure function of
//!   `(master seed, replica index)` — so a given `(master seed, fault
//!   seed, rate)` triple reproduces the exact same fault sequence at
//!   any thread count.
//!
//! ## Zero-rate identity
//!
//! A zero [`FaultRate`] consumes **no** RNG draws: every injection
//! entry point returns early before touching the stream. A machine
//! configured with an all-zero model is therefore bit-identical to a
//! machine with no fault model at all — the conformance suites assert
//! this.

use crate::units::convert::{count_u64, scale_by_fraction, to_index};

/// SplitMix64 stream increment (odd, so adding it walks a full-period
/// sequence mod 2^64).
const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 output mix: a bijection on `u64` (Steele, Lea & Flood,
/// OOPSLA 2014). Same finalizer the replica-seed derivation uses.
#[inline]
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolution of [`FaultRate`]: probabilities are quantized to parts
/// per billion, ample for the 1e-9..1e-2 BER range of interest.
const PPB: u64 = 1_000_000_000;

/// A per-bit fault probability, stored as an integer threshold over the
/// full `u64` draw space (`p ≈ threshold / 2^64`).
///
/// Keeping the comparison in integers makes the fault stream
/// bit-reproducible across platforms; probabilities are quantized to
/// parts per billion on construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultRate {
    threshold: u64,
}

impl FaultRate {
    /// Probability zero: never fires, consumes no RNG draws.
    pub const ZERO: FaultRate = FaultRate { threshold: 0 };

    /// Rate from parts per billion (clamped to `PPB` = certainty).
    pub fn from_ppb(ppb: u64) -> Self {
        FaultRate {
            threshold: ppb.min(PPB).saturating_mul(u64::MAX / PPB),
        }
    }

    /// Rate from a probability in `[0, 1]` (clamped, quantized to ppb).
    pub fn from_probability(p: f64) -> Self {
        Self::from_ppb(scale_by_fraction(PPB, p.clamp(0.0, 1.0)))
    }

    /// The quantized rate back as parts per billion.
    pub fn ppb(self) -> u64 {
        self.threshold / (u64::MAX / PPB)
    }

    /// Whether this rate can never fire.
    pub fn is_zero(self) -> bool {
        self.threshold == 0
    }
}

/// Fault-model configuration: which faults exist and the seed that
/// makes their placement reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultModel {
    /// Seed of the fault stream (independent of the annealer seeds).
    pub seed: u64,
    /// Transient bit-flip probability per bit read from SRAM / the
    /// storage array (soft errors, read disturb).
    pub read_ber: FaultRate,
    /// Corruption probability per bit streamed from DRAM.
    pub dram_ber: FaultRate,
}

impl FaultModel {
    /// A model with the given fault seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        FaultModel {
            seed,
            ..FaultModel::default()
        }
    }

    /// Sets the transient read bit-error rate.
    #[must_use]
    pub fn with_read_ber(mut self, rate: FaultRate) -> Self {
        self.read_ber = rate;
        self
    }

    /// Sets the DRAM stream bit-error rate.
    #[must_use]
    pub fn with_dram_ber(mut self, rate: FaultRate) -> Self {
        self.dram_ber = rate;
        self
    }

    /// Builds the injector for one consumer stream. `stream_salt`
    /// decouples independent consumers — the solve layer passes the
    /// replica's derived annealer seed, so every replica owns a
    /// distinct stream that is still a pure function of `(master seed,
    /// fault seed, replica index)`.
    pub fn injector(&self, stream_salt: u64) -> FaultInjector {
        FaultInjector {
            state: splitmix64_mix(self.seed.wrapping_add(splitmix64_mix(stream_salt))),
            read_threshold: self.read_ber.threshold,
            dram_threshold: self.dram_ber.threshold,
            counters: FaultCounters::default(),
        }
    }
}

/// Raw injection counters accumulated by a [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Transient bit flips injected into reads.
    pub transient_flips: u64,
    /// Reads that carried at least one injected flip.
    pub reads_corrupted: u64,
    /// Bits corrupted in DRAM streams.
    pub dram_flips: u64,
    /// Cache lines upset by read disturb.
    pub line_disturbs: u64,
}

/// A deterministic fault stream plus the model parameters it applies.
///
/// ```
/// use sachi_mem::fault::{FaultModel, FaultRate};
///
/// let model = FaultModel::new(7).with_read_ber(FaultRate::from_probability(0.5));
/// let mut a = model.injector(1);
/// let mut b = model.injector(1);
/// // Same (seed, salt) => byte-identical fault sequence.
/// assert_eq!(a.flips_in_read(64), b.flips_in_read(64));
/// // A different salt decouples the stream.
/// let mut c = model.injector(2);
/// let _ = c.flips_in_read(64); // almost surely differs; still deterministic
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: u64,
    read_threshold: u64,
    dram_threshold: u64,
    counters: FaultCounters,
}

impl FaultInjector {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX64_GAMMA);
        splitmix64_mix(self.state)
    }

    /// The injection counters so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// The raw stream state — lets tests prove a zero-rate model never
    /// consumes a draw.
    pub fn stream_state(&self) -> u64 {
        self.state
    }

    /// Draws transient faults for a read of `bits` bits and returns how
    /// many bits flipped. Zero rate or zero width consumes no draws.
    pub fn flips_in_read(&mut self, bits: u64) -> u64 {
        if self.read_threshold == 0 || bits == 0 {
            return 0;
        }
        let mut flips = 0u64;
        for _ in 0..bits {
            if self.next_u64() < self.read_threshold {
                flips += 1;
            }
        }
        if flips > 0 {
            self.counters.reads_corrupted += 1;
            self.counters.transient_flips += flips;
        }
        flips
    }

    /// Draws corruption for a DRAM stream of `bits` bits and returns
    /// the corrupted bit count. Zero rate consumes no draws.
    pub fn flips_in_dram_stream(&mut self, bits: u64) -> u64 {
        if self.dram_threshold == 0 || bits == 0 {
            return 0;
        }
        let mut flips = 0u64;
        for _ in 0..bits {
            if self.next_u64() < self.dram_threshold {
                flips += 1;
            }
        }
        self.counters.dram_flips += flips;
        flips
    }

    /// One read-disturb draw for a whole cache-line read. Zero rate
    /// consumes no draws.
    pub fn read_disturb(&mut self) -> bool {
        if self.read_threshold == 0 {
            return false;
        }
        let hit = self.next_u64() < self.read_threshold;
        if hit {
            self.counters.line_disturbs += 1;
        }
        hit
    }

    /// Deterministically picks an index in `0..len` from the stream
    /// (`0` for an empty range). Used to localize a corruption to one
    /// neighbor slot of a tuple.
    pub fn pick_index(&mut self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        to_index(self.next_u64() % count_u64(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_quantizes_and_clamps() {
        assert!(FaultRate::ZERO.is_zero());
        assert_eq!(FaultRate::from_probability(0.0), FaultRate::ZERO);
        assert_eq!(FaultRate::from_probability(-3.0), FaultRate::ZERO);
        assert_eq!(FaultRate::from_probability(0.5).ppb(), PPB / 2);
        assert_eq!(FaultRate::from_probability(2.0).ppb(), PPB);
        assert_eq!(FaultRate::from_ppb(123).ppb(), 123);
        assert_eq!(FaultRate::from_ppb(u64::MAX).ppb(), PPB);
        assert!(!FaultRate::from_ppb(1).is_zero());
    }

    #[test]
    fn same_seed_and_salt_reproduce_the_sequence() {
        let model = FaultModel::new(42).with_read_ber(FaultRate::from_probability(0.3));
        let mut a = model.injector(9);
        let mut b = model.injector(9);
        for bits in [1u64, 7, 64, 333] {
            assert_eq!(a.flips_in_read(bits), b.flips_in_read(bits));
        }
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.stream_state(), b.stream_state());
    }

    #[test]
    fn different_salts_decouple_streams() {
        let model = FaultModel::new(42).with_read_ber(FaultRate::from_probability(0.5));
        let mut a = model.injector(0);
        let mut b = model.injector(1);
        let sa: Vec<u64> = (0..8).map(|_| a.flips_in_read(64)).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.flips_in_read(64)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn zero_rate_consumes_no_draws() {
        let model = FaultModel::new(5);
        let mut inj = model.injector(3);
        let state = inj.stream_state();
        assert_eq!(inj.flips_in_read(10_000), 0);
        assert_eq!(inj.flips_in_read(64), 0);
        assert_eq!(inj.flips_in_dram_stream(10_000), 0);
        assert!(!inj.read_disturb());
        assert_eq!(
            inj.stream_state(),
            state,
            "zero-rate model touched the stream"
        );
        assert_eq!(inj.counters(), FaultCounters::default());
    }

    #[test]
    fn certainty_rate_flips_every_bit() {
        let model = FaultModel::new(1).with_read_ber(FaultRate::from_ppb(PPB));
        let mut inj = model.injector(0);
        // threshold is just below u64::MAX; a draw landing above it is a
        // ~3e-11 event per bit, so all 32 flip.
        assert_eq!(inj.flips_in_read(32), 32);
        assert_eq!(inj.counters().transient_flips, 32);
        assert_eq!(inj.counters().reads_corrupted, 1);
    }

    #[test]
    fn flip_rate_tracks_the_configured_ber() {
        let model = FaultModel::new(77).with_read_ber(FaultRate::from_probability(0.25));
        let mut inj = model.injector(0);
        let total: u64 = (0..100).map(|_| inj.flips_in_read(1000)).sum();
        // 100k draws at p = 0.25: expect 25k ± a generous tolerance.
        assert!((20_000..30_000).contains(&total), "got {total}");
        assert_eq!(inj.counters().transient_flips, total);
    }

    #[test]
    fn pick_index_stays_in_range() {
        let model = FaultModel::new(3).with_read_ber(FaultRate::from_ppb(1));
        let mut inj = model.injector(0);
        assert_eq!(inj.pick_index(0), 0);
        for len in [1usize, 2, 7, 63] {
            for _ in 0..50 {
                assert!(inj.pick_index(len) < len);
            }
        }
    }
}
