//! Seeded input generation, owned by the benchmark.
//!
//! The program under test receives only the generated columns. Nothing here
//! uses `smoke-datagen` or `vendor/rand`: a change to either must not move a
//! benchmark number. Same seed ⇒ same bytes, checked by [`Fnv64`]
//! fingerprints that every run prints.

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` by multiply-shift (bias < 2^-64 · n, irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf(θ) over ranks `1..=n`, by its cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 1, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        cdf[n - 1] = 1.0;
        Zipf { cdf }
    }

    fn rank_of(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
            + 1
    }

    /// How many of `rows` rows each rank gets when the law is followed
    /// exactly: `⌊rows · p(rank)⌋`, the rows that rounding leaves over going
    /// one each to the hottest ranks. The sizes sum to `rows`.
    pub fn sizes(&self, rows: usize) -> Vec<usize> {
        let mut lo = 0.0;
        let mut sizes: Vec<usize> = self
            .cdf
            .iter()
            .map(|&hi| {
                let size = ((hi - lo) * rows as f64).floor() as usize;
                lo = hi;
                size
            })
            .collect();
        let given: usize = sizes.iter().sum();
        for size in sizes.iter_mut().take(rows - given) {
            *size += 1;
        }
        sizes
    }

    /// The rank at quantile `u` (`0 ≤ u < 1`) of the same law conditioned on
    /// the rank being at least `min_rank`.
    pub fn quantile_at_least(&self, u: f64, min_rank: usize) -> usize {
        let min_rank = min_rank.clamp(1, self.cdf.len());
        let lo = if min_rank == 1 {
            0.0
        } else {
            self.cdf[min_rank - 2]
        };
        self.rank_of(lo + u * (1.0 - lo)).max(min_rank)
    }
}

/// FNV-1a, 64 bit: the fingerprint of a workload's generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv64 {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn ints(&mut self, values: &[i64]) {
        for v in values {
            self.bytes(&v.to_le_bytes());
        }
    }

    pub fn floats(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Number of `v_bin` partitions.
pub const BINS: i64 = 8;
/// Number of `dim.region` values.
pub const REGIONS: i64 = 16;

/// The fact table as raw columns: `id` (0..rows), `z` (Zipf θ=1 over
/// `groups` keys; key `k` has rank `k + 1`, so key 0 is the hottest; every
/// key gets exactly its share of the rows ([`Zipf::sizes`]) and the seed
/// decides where they lie, so the size of every group, and with it of every
/// index and every reply, is the same for every seed — drawn sizes moved a
/// narrow query's cost by 5–10 % from seed to seed, and the sizes of the
/// index buffers with them, which moved where malloc put them), `v`
/// (multiples of 0.25 in `[0, 100)`, so every sum is exact in `f64`
/// whatever the order of addition) and `v_bin` (`⌊v / 12.5⌋`).
#[derive(Debug, Clone)]
pub struct Fact {
    pub id: Vec<i64>,
    pub z: Vec<i64>,
    pub v: Vec<f64>,
    pub v_bin: Vec<i64>,
    pub groups: usize,
}

impl Fact {
    pub fn generate(rows: usize, groups: usize, seed: u64) -> Fact {
        let mut rng = SplitMix64::new(seed ^ 0xFAC7);
        let mut z = Vec::with_capacity(rows);
        for (key, &size) in Zipf::new(groups, 1.0).sizes(rows).iter().enumerate() {
            z.extend(std::iter::repeat_n(key as i64, size));
        }
        rng.shuffle(&mut z);
        let mut v = Vec::with_capacity(rows);
        let mut v_bin = Vec::with_capacity(rows);
        for _ in 0..rows {
            let q = rng.below(400);
            v.push(q as f64 * 0.25);
            v_bin.push((q / 50) as i64);
        }
        Fact {
            id: (0..rows as i64).collect(),
            z,
            v,
            v_bin,
            groups,
        }
    }

    pub fn rows(&self) -> usize {
        self.id.len()
    }

    pub fn fingerprint(&self, h: &mut Fnv64) {
        h.ints(&self.id);
        h.ints(&self.z);
        h.floats(&self.v);
        h.ints(&self.v_bin);
    }
}

/// The dimension table: one row per `z` key and its region. Key 0 (the
/// hottest) sits alone in region 0 so that no region-level trace can
/// out-weigh the `wide` query class; keys ≥ 1 spread over regions 1..16.
///
/// There is deliberately no string column. With one, every join clones half
/// a million heap strings per repetition and its time follows the state of
/// glibc's free lists: two modes 50 % apart from one process to the next
/// (join 24 ms or 37 ms, same binary, same inputs), which no number of
/// repetitions inside a process can average away.
#[derive(Debug, Clone)]
pub struct Dim {
    pub id: Vec<i64>,
    pub region: Vec<i64>,
}

impl Dim {
    pub fn generate(groups: usize, seed: u64) -> Dim {
        let mut rng = SplitMix64::new(seed ^ 0xD1A);
        let id: Vec<i64> = (0..groups as i64).collect();
        let region = id
            .iter()
            .map(|&k| {
                if k == 0 {
                    0
                } else {
                    1 + rng.below(REGIONS as u64 - 1) as i64
                }
            })
            .collect();
        Dim { id, region }
    }

    pub fn fingerprint(&self, h: &mut Fnv64) {
        h.ints(&self.id);
        h.ints(&self.region);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let print = |seed| {
            let mut h = Fnv64::default();
            Fact::generate(5_000, 50, seed).fingerprint(&mut h);
            Dim::generate(50, seed).fingerprint(&mut h);
            h.finish()
        };
        assert_eq!(print(14), print(14));
        assert_ne!(print(14), print(15));
        // Pinned: a change to the generator is a change to every baseline.
        assert_eq!(print(14), 0x5cff_809b_48fe_940a, "{:#x}", print(14));
    }

    #[test]
    fn zipf_sizes_are_exact_and_conditional_quantiles_respect_the_floor() {
        let zipf = Zipf::new(100, 1.0);
        let sizes = zipf.sizes(10_000);
        assert_eq!(sizes.len(), 100);
        assert_eq!(sizes.iter().sum::<usize>(), 10_000);
        // P(rank 1) = 1 / H_100 = 0.1928; rank r holds 1/r of that.
        assert!((1_927..=1_929).contains(&sizes[0]), "{}", sizes[0]);
        assert!((963..=965).contains(&sizes[1]), "{}", sizes[1]);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert!(sizes[99] >= 19);
        // Conditional quantiles respect the floor and follow the law: half
        // the mass above rank 1 lies at or below rank 12 (H_12 − 1 ≈ (H_100 − 1) / 2).
        assert_eq!(zipf.quantile_at_least(0.0, 2), 2);
        assert_eq!(zipf.quantile_at_least(0.999_999, 2), 100);
        assert!((11..=13).contains(&zipf.quantile_at_least(0.5, 2)));
        assert_eq!(zipf.quantile_at_least(0.0, 1), 1);
    }

    #[test]
    fn every_seed_gives_every_group_the_same_size() {
        let sizes = |seed| {
            let f = Fact::generate(5_000, 25, seed);
            let mut sizes = vec![0usize; 25];
            for &k in &f.z {
                sizes[k as usize] += 1;
            }
            sizes
        };
        assert_eq!(sizes(14), sizes(15));
        assert_eq!(sizes(14), Zipf::new(25, 1.0).sizes(5_000));
        assert_ne!(
            Fact::generate(5_000, 25, 14).z,
            Fact::generate(5_000, 25, 15).z
        );
    }

    #[test]
    fn fact_columns_are_consistent() {
        let f = Fact::generate(2_000, 20, 3);
        for i in 0..f.rows() {
            assert!((0..20).contains(&f.z[i]));
            assert!((0.0..100.0).contains(&f.v[i]));
            assert_eq!(f.v_bin[i], (f.v[i] / 12.5) as i64);
            assert_eq!(f.v[i] * 4.0, (f.v[i] * 4.0).trunc());
        }
    }

    #[test]
    fn hottest_key_has_its_own_region() {
        let d = Dim::generate(100, 9);
        assert_eq!(d.region[0], 0);
        assert!(d.region[1..].iter().all(|&r| (1..REGIONS).contains(&r)));
    }
}
