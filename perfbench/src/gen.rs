//! Seeded inputs: keys, values and key choosers.
//!
//! Everything the store receives is a pure function of the workload seed,
//! so the same seed gives the same keys, values and operation order on
//! every run, and a second seed gives an independent draw.

/// 16-byte keys, as in the paper's setup (§IV-A).
pub const KEY_BYTES: usize = 16;
/// 1-KiB values, as in the paper's setup (§IV-A).
pub const VALUE_BYTES: usize = 1024;

/// SplitMix64 finaliser: a bijection on `u64` with good avalanche.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Small seeded generator (SplitMix64 stream).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed ^ mix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Builds the key and value bytes for item indices under one seed.
#[derive(Debug, Clone, Copy)]
pub struct Codec {
    seed: u64,
}

impl Codec {
    pub fn new(seed: u64) -> Self {
        Codec { seed }
    }

    /// Key of item `index`: 16 hex digits of a seeded bijection, so keys
    /// are distinct and item order is scattered over the key space.
    pub fn key(&self, index: u64) -> [u8; KEY_BYTES] {
        let h = mix64(index.wrapping_add(mix64(self.seed)));
        let mut out = [0u8; KEY_BYTES];
        for (i, slot) in out.iter_mut().enumerate() {
            let nibble = (h >> (60 - 4 * i)) & 0xf;
            *slot = b"0123456789abcdef"[nibble as usize];
        }
        out
    }

    /// Value of item `index` at `version`: a header naming both, then
    /// seeded filler, so a reader can tell which write it observed and
    /// whether the bytes are intact.
    pub fn value(&self, index: u64, version: u64, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&index.to_le_bytes());
        out.extend_from_slice(&version.to_le_bytes());
        let mut rng = Rng::new(self.seed ^ index.rotate_left(17), version);
        while out.len() < VALUE_BYTES {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(VALUE_BYTES);
    }

    /// The `(index, version)` header of a value, if it has one.
    pub fn header(value: &[u8]) -> Option<(u64, u64)> {
        let index = u64::from_le_bytes(value.get(..8)?.try_into().ok()?);
        let version = u64::from_le_bytes(value.get(8..16)?.try_into().ok()?);
        Some((index, version))
    }
}

/// YCSB's zipfian chooser (Gray et al.): rank 0 is the most popular item.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_and_seeded() {
        let a = Codec::new(1);
        let b = Codec::new(2);
        let keys: std::collections::HashSet<_> = (0..10_000).map(|i| a.key(i)).collect();
        assert_eq!(keys.len(), 10_000);
        assert_ne!(a.key(0), b.key(0));
    }

    #[test]
    fn values_round_trip_their_header() {
        let c = Codec::new(7);
        let mut v = Vec::new();
        c.value(42, 9, &mut v);
        assert_eq!(v.len(), VALUE_BYTES);
        assert_eq!(Codec::header(&v), Some((42, 9)));
        let mut w = Vec::new();
        c.value(42, 10, &mut w);
        assert_ne!(v[16..], w[16..]);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(3, 0);
        let mut hits = [0u32; 1000];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[500]);
    }
}
