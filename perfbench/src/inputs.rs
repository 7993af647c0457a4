//! Seeded input generation. Every input a workload sends is a function
//! of the workload seed alone; the program under test sees only the
//! generated inputs.

use diversify_core::factors::{factor_profile, FactorLevel};
use diversify_doe::design::fractional_factorial;
use diversify_scada::components::ComponentClass;
use diversify_scada::scope::ScopeConfig;

/// The splitmix64 finalizer: a bijection on `u64`, so distinct inputs
/// give distinct outputs.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator (splitmix64 sequence).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Distinct seeds: the `i`-th seed of a family is `mix(base + i)`, and
/// `mix` is a bijection, so no two indices share a seed.
#[derive(Debug, Clone, Copy)]
pub struct SeedFamily(u64);

impl SeedFamily {
    /// The family for one purpose of one workload seed.
    pub fn new(seed: u64, purpose: u64) -> Self {
        SeedFamily(mix(seed ^ mix(purpose)))
    }

    /// The `i`-th seed.
    pub fn seed(self, i: u64) -> u64 {
        mix(self.0.wrapping_add(i))
    }
}

/// The plants of the pipeline's 2^(6-2) fractional-factorial design over
/// the six component classes: `base` with each design row's profile, in
/// design order.
pub fn design_scopes(base: &ScopeConfig) -> Vec<ScopeConfig> {
    let labels: Vec<&str> = ComponentClass::ALL.iter().map(|c| c.label()).collect();
    let (design, _) = fractional_factorial(&labels, &[vec![0, 1, 2], vec![1, 2, 3]])
        .expect("the pipeline's 2^(6-2) design is valid");
    design
        .rows
        .iter()
        .map(|row| {
            let levels: Vec<FactorLevel> =
                row.iter().map(|&l| FactorLevel::from_coded(l)).collect();
            ScopeConfig {
                baseline_profile: factor_profile(&levels),
                ..base.clone()
            }
        })
        .collect()
}
