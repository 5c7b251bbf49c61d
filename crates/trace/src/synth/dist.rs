//! Sampling distributions for the synthetic generator.
//!
//! `Chance` is a Bernoulli draw as one integer compare, exact against
//! `Rng::gen_bool`.
//!
//! [`Zipf`] implements Zipf-distributed block popularity: rank 0 is the
//! hottest block, rank `n-1` the coldest, with skew controlled by
//! `theta ∈ (0, 1)`. Real shared heaps are not uniformly popular — a few
//! hot objects (work-queue heads, root tables) absorb most references —
//! and a skewed popularity law concentrates coherence traffic on a few
//! blocks, which is exactly the regime where limited-pointer directories
//! and broadcast schemes diverge.
//!
//! The sampler is the standard quantile-approximation used by YCSB's
//! `ZipfianGenerator` (Gray et al., "Quickly Generating Billion-Record
//! Synthetic Databases"): one uniform draw, a couple of multiplies and a
//! `powf` — no rejection loop, so each sample consumes exactly one RNG
//! value, which keeps trace generation deterministic and cheap.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// 2⁵³: an `f64` draw is a 53-bit integer scaled by 2⁻⁵³.
const UNIT: f64 = (1u64 << 53) as f64;

/// One 53-bit draw, the integer behind every `f64` draw: `rng.gen::<f64>()`
/// is exactly this value times 2⁻⁵³, and consumes the same RNG value.
#[inline(always)]
pub(crate) fn draw53(rng: &mut SmallRng) -> u64 {
    rng.next_u64() >> 11
}

/// A uniform draw in `0..span`: the value `rng.gen_range(0..span)` returns
/// from the same one RNG value, without its empty-range check. Every span
/// the generator draws from is a validated, non-zero count.
#[inline(always)]
pub(crate) fn below(rng: &mut SmallRng, span: u64) -> u64 {
    debug_assert!(span > 0, "cannot sample an empty range");
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

/// A Bernoulli(`p`) draw as one integer compare.
///
/// `Rng::gen_bool(p)` compares a draw `m · 2⁻⁵³ < p`. Both sides are exact
/// in `f64` (scaling by a power of two), so that holds exactly when
/// `m < ceil(p · 2⁵³)`, the least `m` with `m · 2⁻⁵³ ≥ p`. [`Chance::new`]
/// computes that threshold once; [`Chance::roll`] consumes the one RNG
/// value `gen_bool` would and returns its outcome. The conversion
/// saturates, so the identity holds for every `f64` threshold, cumulative
/// ones above 1 included: a negative or NaN `p` never passes, and `p ≥ 1`
/// always does. A `p` of 0 still consumes its draw.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chance(u64);

impl Chance {
    /// The threshold for probability (or cumulative roll bound) `p`.
    pub(crate) fn new(p: f64) -> Chance {
        Chance((p * UNIT).ceil() as u64)
    }

    /// Whether 53-bit draw `m` falls below `p`: `m · 2⁻⁵³ < p`.
    #[inline(always)]
    pub(crate) fn admits(self, m: u64) -> bool {
        m < self.0
    }

    /// Draws once and returns `true` with probability `p`, the same
    /// outcome `rng.gen_bool(p)` gives from the same state.
    #[inline(always)]
    pub(crate) fn roll(self, rng: &mut SmallRng) -> bool {
        self.admits(draw53(rng))
    }
}

/// Truncated zeta (generalised harmonic) number `Σ_{i=1..n} i^-theta`.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// A Zipf(θ) sampler over ranks `0..n`.
///
/// # Examples
///
/// ```
/// use dirsim_trace::synth::Zipf;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let zipf = Zipf::new(64, 0.9);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipf {
    /// Creates a sampler over ranks `0..n` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)` (use a plain
    /// uniform draw for `theta == 0`).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty rank space");
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipf theta {theta} must be in (0, 1)"
        );
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one rank in `0..n`; rank 0 is the most popular.
    ///
    /// Consumes exactly one value from `rng`.
    #[inline(always)]
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn histogram(n: u64, theta: f64, samples: usize) -> Vec<u64> {
        let zipf = Zipf::new(n, theta);
        let mut rng = SmallRng::seed_from_u64(0xd157);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..samples {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn samples_stay_in_bounds() {
        let zipf = Zipf::new(10, 0.9);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn rank_zero_dominates() {
        let counts = histogram(64, 0.9, 100_000);
        let hottest = counts[0];
        assert!(
            hottest > counts[1],
            "rank 0 ({hottest}) beats rank 1 ({})",
            counts[1]
        );
        // Under θ=0.9 the hottest of 64 ranks takes a large share; under a
        // uniform law it would take ~1.6 %.
        assert!(
            hottest as f64 / 100_000.0 > 0.10,
            "rank 0 share {}",
            hottest as f64 / 100_000.0
        );
        // Every rank is still reachable in a large sample.
        assert!(counts.iter().all(|&c| c > 0), "full support");
    }

    #[test]
    fn low_theta_approaches_uniform() {
        let counts = histogram(16, 0.05, 160_000);
        let expect = 10_000.0;
        for (rank, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expect).abs() / expect;
            assert!(rel < 0.25, "rank {rank}: count {c} vs uniform {expect}");
        }
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let mild = histogram(64, 0.3, 100_000)[0];
        let sharp = histogram(64, 0.95, 100_000)[0];
        assert!(sharp > mild, "θ=0.95 head {sharp} > θ=0.3 head {mild}");
    }

    #[test]
    fn deterministic_per_seed() {
        let zipf = Zipf::new(32, 0.8);
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        for _ in 0..1_000 {
            assert_eq!(zipf.sample(&mut a), zipf.sample(&mut b));
        }
    }

    #[test]
    fn single_rank_degenerates() {
        let zipf = Zipf::new(1, 0.9);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn rejects_theta_one() {
        let _ = Zipf::new(8, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-empty rank space")]
    fn rejects_empty_rank_space() {
        let _ = Zipf::new(0, 0.5);
    }
}
