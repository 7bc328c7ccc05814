//! Order statistics, the geometric mean and the model digest.

/// The `q`-quantile of `xs` (0 ≤ q ≤ 1) by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The smallest value; 0 for an empty slice.
///
/// The end-to-end rates divide work by the fastest repeat of each
/// distinct op: on a shared host the CPU's speed switches between states
/// about 1.5x apart for seconds at a time, and the fastest repeat is the
/// one estimate of the program's own cost that those states leave alone.
pub fn min(xs: &[f64]) -> f64 {
    quantile(xs, 0.0)
}

/// Geometric mean of positive values; 0 if any is not positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// FNV-1a over the bit patterns of modeled values. Host timings never
/// enter it, so it repeats exactly for a fixed seed and code.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn bytes(&mut self, s: &[u8]) {
        for &b in s {
            self.u64(u64::from(b));
        }
    }

    /// The digest folded to 48 bits, so a JSON number holds it exactly.
    pub fn value(self) -> f64 {
        ((self.0 ^ (self.0 >> 48)) & 0xffff_ffff_ffff) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn digest_separates_values() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(1.0);
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a.value(), b.value());
        assert!(a.value() < 2f64.powi(53));
    }
}
