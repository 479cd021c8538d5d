//! A fixed reference workload that gauges the host's current speed.
//!
//! CPU time removes the waits for a core, but not the rest of what the
//! host's other load does: it competes for caches and memory bandwidth
//! and for the physical cores behind the virtual ones, so the same pass
//! costs up to 30% more CPU time in a slow period of the host than in a
//! fast one, and one virtual CPU can run 1.5× slower than the other for
//! seconds at a time. The gauge is a plain Metropolis sweep over a fixed
//! random sparse graph (16,384 spins of degree 8, about 0.7 MB, so it
//! stays in a core's L2 cache like the simulator's kernels), written
//! here and never changed, so it does the same work on every run. The
//! benchmark samples it between its own work on each CPU it may run on
//! in turn, and scales its host CPU times by [`NOMINAL_SWEEP_S`] over
//! the gauge's sweep time: host times are reported as they would read on
//! a host where one gauge sweep costs [`NOMINAL_SWEEP_S`] of CPU time.

use crate::cpu::{self, CpuSet};
use crate::stats::median;

/// Spins of the gauge graph.
const SPINS: usize = 1 << 14;
/// Neighbours of each spin.
const DEGREE: usize = 8;
/// Sweeps timed together as one sample, after one untimed sweep that
/// brings the graph into the CPU's caches.
const SWEEPS_PER_SAMPLE: usize = 8;

/// CPU seconds of one gauge sweep on the nominal host (about the
/// average of the 2-vCPU shared Xeon virtual machine the baseline in
/// `README.md` was measured on).
pub const NOMINAL_SWEEP_S: f64 = 3.5e-4;

/// The gauge and its samples.
pub struct Gauge {
    neighbours: Vec<u32>,
    weights: Vec<i8>,
    spins: Vec<i8>,
    rng: u64,
    /// The CPUs the benchmark may run on, sampled in turn.
    cpus: Vec<usize>,
    /// Samples taken so far (the next CPU is `cpus[taken % len]`).
    taken: usize,
    /// Per CPU of `cpus`: CPU seconds per sweep, one entry per sample.
    samples: Vec<Vec<f64>>,
}

impl Gauge {
    /// Builds the gauge graph (the same on every run) for the CPUs the
    /// calling thread may run on.
    pub fn new() -> Gauge {
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let neighbours = (0..SPINS * DEGREE)
            .map(|_| (next() % SPINS as u64) as u32)
            .collect();
        let weights = (0..SPINS * DEGREE)
            .map(|_| (next() % 15) as i8 - 7)
            .collect();
        let spins = (0..SPINS)
            .map(|_| if next() & 1 == 0 { -1 } else { 1 })
            .collect();
        let cpus = CpuSet::of_this_thread().cpus();
        let samples = vec![Vec::new(); cpus.len()];
        Gauge {
            neighbours,
            weights,
            spins,
            rng: 1,
            cpus,
            taken: 0,
            samples,
        }
    }

    /// One Metropolis-like sweep at a fixed temperature; returns the
    /// number of flips.
    fn sweep(&mut self) -> u64 {
        let mut flips = 0;
        for i in 0..SPINS {
            let row = i * DEGREE..(i + 1) * DEGREE;
            let field: i32 = self.neighbours[row.clone()]
                .iter()
                .zip(&self.weights[row])
                .map(|(&j, &w)| i32::from(w) * i32::from(self.spins[j as usize]))
                .sum();
            // xorshift64
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let delta = 2 * field * i32::from(self.spins[i]);
            if delta < 0 || (delta < 8 && self.rng & 0xff < 40) {
                self.spins[i] = -self.spins[i];
                flips += 1;
            }
        }
        flips
    }

    /// Times one sample on the next CPU in turn: moves the calling
    /// thread there, sweeps, and moves it back to where it may run.
    pub fn sample(&mut self) {
        let k = self.taken % self.cpus.len();
        self.taken += 1;
        let home = CpuSet::of_this_thread();
        CpuSet::only(self.cpus[k]).apply_to_this_thread();
        std::hint::black_box(self.sweep());
        let start = cpu::thread_s();
        for _ in 0..SWEEPS_PER_SAMPLE {
            std::hint::black_box(self.sweep());
        }
        let took = cpu::thread_s() - start;
        home.apply_to_this_thread();
        self.samples[k].push(took / SWEEPS_PER_SAMPLE as f64);
    }

    /// Samples taken so far.
    pub fn count(&self) -> usize {
        self.taken
    }

    /// The host's sweep time: the harmonic mean over CPUs of each CPU's
    /// median sample, since work spread over the CPUs advances at the
    /// mean of their speeds. NaN before any sample.
    pub fn sweep_s(&self) -> f64 {
        let speeds: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| 1.0 / median(s))
            .collect();
        if speeds.is_empty() {
            f64::NAN
        } else {
            speeds.len() as f64 / speeds.iter().sum::<f64>()
        }
    }

    /// The factor that turns this host's CPU seconds into nominal-host
    /// seconds.
    pub fn scale(&self) -> f64 {
        NOMINAL_SWEEP_S / self.sweep_s()
    }

    /// A line for the human report.
    pub fn note(&self) -> String {
        let per_cpu: Vec<String> = self
            .cpus
            .iter()
            .zip(&self.samples)
            .filter(|(_, s)| !s.is_empty())
            .map(|(c, s)| format!("cpu{c} {:.2} µs", median(s) * 1e6))
            .collect();
        format!(
            "gauge: {} samples, {:.2} µs CPU per sweep ({}; nominal {:.2} µs), \
             host CPU times scaled by {:.4}",
            self.count(),
            self.sweep_s() * 1e6,
            per_cpu.join(", "),
            NOMINAL_SWEEP_S * 1e6,
            self.scale()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gauge_does_the_same_work_every_time() {
        let (mut a, mut b) = (Gauge::new(), Gauge::new());
        let flips: Vec<u64> = (0..3).map(|_| a.sweep()).collect();
        assert_eq!(flips, (0..3).map(|_| b.sweep()).collect::<Vec<_>>());
        assert!(flips.iter().all(|&f| f > 0));
        assert_eq!(a.spins, b.spins);
    }

    #[test]
    fn sweep_time_is_the_harmonic_mean_of_per_cpu_medians() {
        let mut g = Gauge::new();
        assert!(g.scale().is_nan());
        g.samples = vec![vec![3e-4, 1e-4, 2e-4], vec![], vec![4e-4]];
        // Speeds 1/2e-4 and 1/4e-4: harmonic mean of the times 2.667e-4.
        let want = 2.0 / (1.0 / 2e-4 + 1.0 / 4e-4);
        assert!((g.sweep_s() - want).abs() < 1e-12);
        assert!((g.scale() - NOMINAL_SWEEP_S / want).abs() < 1e-9);
    }

    #[test]
    fn sampling_visits_every_cpu_and_restores_the_mask() {
        let home = CpuSet::of_this_thread();
        let mut g = Gauge::new();
        for _ in 0..2 * g.cpus.len() {
            g.sample();
        }
        assert_eq!(CpuSet::of_this_thread(), home);
        assert!(g.samples.iter().all(|s| s.len() == 2));
        assert!(g.sweep_s() > 0.0);
    }
}
