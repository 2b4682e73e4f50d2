//! Seeded input generation. The benchmark owns its generator (no
//! dependency on the vendored `rand` stand-in), so the same seed gives
//! the same inputs on every commit.

use tencentrec::action::{ActionType, UserAction};

/// SplitMix64: tiny, fast, and good enough to drive samplers.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`; `stream` separates independent uses of one
    /// seed (actions, probes, request mix) so they never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Multiply-shift; the bias at these range sizes is below 2^-40.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf–Mandelbrot sampler over ranks `0..n`: weight of rank `k` is
/// `1 / (k + 1 + q)^s`. `q = 0` is plain Zipf; a positive `q` flattens
/// the head without touching the tail.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n` ranks with exponent `s` and head offset `q`.
    pub fn new(n: usize, s: f64, q: f64) -> Self {
        assert!(n > 0, "no ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / (k as f64 + 1.0 + q).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of the `k` most popular ranks.
    pub fn head_mass(&self, k: usize) -> f64 {
        match k {
            0 => 0.0,
            k => self.cdf[k.min(self.cdf.len()) - 1],
        }
    }
}

/// Mostly clicks, some stronger signals, so ratings (max weight per
/// user–item) do get raised by later actions.
fn action_kind(rng: &mut Rng) -> ActionType {
    match rng.below(10) {
        0..=6 => ActionType::Click,
        7..=8 => ActionType::Share,
        _ => ActionType::Purchase,
    }
}

/// Shape of a generated action stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    /// Distinct users.
    pub users: usize,
    /// User popularity exponent and head offset.
    pub user_zipf: (f64, f64),
    /// Distinct items.
    pub items: usize,
    /// Item popularity exponent and head offset.
    pub item_zipf: (f64, f64),
}

/// `n` actions of `shape`, timestamps `ts0, ts0 + 1, …` milliseconds:
/// every stream this crate makes spans far less than the pipeline's
/// linked time (6 h), so which co-ratings pair up never depends on the
/// order tuples reach a bolt in — the final counts are a function of the
/// action multiset, and can be checked against a sequential reference.
pub fn actions(seed: u64, stream: u64, shape: StreamShape, n: usize, ts0: u64) -> Vec<UserAction> {
    let mut rng = Rng::new(seed, stream);
    let users = Zipf::new(shape.users, shape.user_zipf.0, shape.user_zipf.1);
    let items = Zipf::new(shape.items, shape.item_zipf.0, shape.item_zipf.1);
    (0..n)
        .map(|i| {
            UserAction::new(
                users.sample(&mut rng) as u64,
                items.sample(&mut rng) as u64,
                action_kind(&mut rng),
                ts0 + i as u64,
            )
        })
        .collect()
}

/// The `fresh_hot` background mix: half of all actions land on
/// `hot_items` items, the rest spread over `items`; users are uniform
/// over a small set, so histories are dense and hot keys are shared.
pub fn hot_burst_actions(
    seed: u64,
    stream: u64,
    users: u64,
    items: usize,
    hot_items: u64,
    n: usize,
    ts0: u64,
) -> Vec<UserAction> {
    let mut rng = Rng::new(seed, stream);
    let tail = Zipf::new(items, 1.0, 0.0);
    (0..n)
        .map(|i| {
            let item = if rng.below(2) == 0 {
                rng.below(hot_items)
            } else {
                hot_items + tail.sample(&mut rng) as u64
            };
            UserAction::new(
                rng.below(users),
                item,
                action_kind(&mut rng),
                ts0 + i as u64,
            )
        })
        .collect()
}

/// Largest number of distinct items any one user touches in `actions`.
pub fn max_distinct_items_per_user(actions: &[UserAction]) -> usize {
    let mut pairs: Vec<(u64, u64)> = actions.iter().map(|a| (a.user, a.item)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut best = 0;
    let mut run = 0;
    let mut last = None;
    for (user, _) in pairs {
        run = if last == Some(user) { run + 1 } else { 1 };
        last = Some(user);
        best = best.max(run);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes;

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        let shape = sizes::BROAD_SHAPE;
        let a = actions(7, 1, shape, 5_000, 0);
        let b = actions(7, 1, shape, 5_000, 0);
        let c = actions(8, 1, shape, 5_000, 0);
        let d = actions(7, 2, shape, 5_000, 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(
            hot_burst_actions(7, 3, 100, 500, 5, 1_000, 0),
            hot_burst_actions(7, 3, 100, 500, 5, 1_000, 0)
        );
    }

    #[test]
    fn zipf_head_mass_matches_theory_and_samples() {
        // Plain Zipf(1.0) over 5000 ranks: H(10)/H(5000) = 2.929/9.095.
        let z = Zipf::new(5_000, 1.0, 0.0);
        assert!(
            (z.head_mass(10) - 0.3221).abs() < 1e-3,
            "{}",
            z.head_mass(10)
        );
        assert_eq!(z.head_mass(0), 0.0);
        assert!((z.head_mass(5_000) - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(42, 0);
        let n = 200_000;
        let head = (0..n).filter(|_| z.sample(&mut rng) < 10).count();
        let share = head as f64 / n as f64;
        assert!((share - z.head_mass(10)).abs() < 0.01, "sampled {share}");
    }

    #[test]
    fn hot_burst_puts_half_on_the_hot_items() {
        let a = hot_burst_actions(3, 0, 500, 5_000, 5, 40_000, 0);
        let hot = a.iter().filter(|a| a.item < 5).count() as f64 / a.len() as f64;
        assert!((hot - 0.5).abs() < 0.02, "hot share {hot}");
        assert!(a.iter().all(|a| a.user < 500));
    }

    #[test]
    fn rng_below_stays_in_range() {
        let mut rng = Rng::new(1, 1);
        for n in [1u64, 2, 7, 1 << 40] {
            for _ in 0..1_000 {
                assert!(rng.below(n) < n);
            }
        }
        let u = rng.unit();
        assert!((0.0..1.0).contains(&u));
    }
}
