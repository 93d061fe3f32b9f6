//! Seedable deterministic random number generation.
//!
//! The workload generators and loss-injection hooks need randomness that is
//! (a) fast, (b) reproducible from a single `u64` seed, and (c) independent
//! of platform or crate-version details. We use the xoshiro256** generator
//! seeded via SplitMix64 — the standard, well-analysed construction — rather
//! than an external crate so simulation results are stable forever.

/// A deterministic pseudo-random number generator (xoshiro256**).
///
/// # Examples
///
/// ```
/// use mind_sim::SimRng;
///
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed. All-zero internal state is impossible
    /// by construction (SplitMix64 seeding).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below bound must be positive");
        // Lemire's multiply-shift with rejection for exact uniformity.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.gen_below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Forks an independent generator; the child stream does not overlap with
    /// the parent's (it is reseeded through SplitMix64).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }
}

/// A Zipfian distribution sampler over `[0, n)` with parameter `theta`,
/// matching the YCSB generator (`theta = 0.99` by default in YCSB).
///
/// Uses the Gray et al. rejection-free method, precomputing `zeta(n, theta)`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Creates a sampler over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta >= 1.0` (the harmonic form requires
    /// `theta < 1`).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian over empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation; the domain sizes used by workloads (<= a few
        // million) make this affordable at construction time.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Samples a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let _ = self.zeta2;
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = a.clone();
        assert_eq!(a.next_u64(), c.next_u64(), "a clone continues the stream");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_below_in_bounds_and_covers() {
        let mut rng = SimRng::new(42);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.gen_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SimRng::new(7);
        for _ in 0..1000 {
            let v = rng.gen_range(100, 110);
            assert!((100..110).contains(&v));
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_probability_roughly_holds() {
        let mut rng = SimRng::new(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn fork_streams_diverge() {
        let mut parent = SimRng::new(77);
        let mut child = parent.fork();
        let overlap = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn zipfian_is_skewed_and_bounded() {
        let mut rng = SimRng::new(2024);
        let z = Zipfian::new(1000, 0.99);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            let r = z.sample(&mut rng) as usize;
            assert!(r < 1000);
            counts[r] += 1;
        }
        // Rank 0 should dominate the tail by a large margin.
        assert!(counts[0] > 20 * counts[500].max(1));
        // Head (top 10%) should carry the majority of mass.
        let head: u64 = counts[..100].iter().sum();
        assert!(head > 60_000, "head carried {head}");
    }

    #[test]
    fn zipfian_theta_zero_is_roughly_uniform() {
        let mut rng = SimRng::new(8);
        let z = Zipfian::new(10, 0.0);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.03, "bucket fraction {frac}");
        }
    }
}
