use serde::{Deserialize, Serialize};

/// Bucketing specification for a numeric attribute.
///
/// Two AIMQ components need to treat continuous attributes as discrete:
///
/// * **AFD mining** — TANE partitions tuples by attribute *value*; raw
///   continuous values would make almost every tuple its own class and no
///   dependency involving the attribute would ever be approximate.
/// * **Supertuples** — Table 1 of the paper shows the `Make=Ford` supertuple
///   with bags like `Mileage 10k-15k:3` and `Price 1k-5k:5`: numeric
///   co-occurrence features are *ranges*, not exact values.
///
/// A `BucketSpec` maps a value `v` to bucket index `floor((v - origin) /
/// width)` and renders paper-style labels such as `10k-15k`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BucketSpec {
    /// Left edge of bucket 0.
    pub origin: f64,
    /// Bucket width (> 0).
    pub width: f64,
}

impl BucketSpec {
    /// Create a spec with the given origin and width. Panics if `width <= 0`
    /// (a configuration error, not a data error).
    pub fn new(origin: f64, width: f64) -> Self {
        assert!(width > 0.0, "bucket width must be positive, got {width}");
        assert!(origin.is_finite(), "bucket origin must be finite");
        BucketSpec { origin, width }
    }

    /// Spec with origin 0 — the common case (`Price`, `Mileage`).
    pub fn width(width: f64) -> Self {
        Self::new(0.0, width)
    }

    /// Bucket index for `v`. Values below the origin clamp to bucket 0 and
    /// non-finite values also map to bucket 0 so that dirty data degrades
    /// gracefully instead of panicking mid-mine.
    pub fn bucket_of(&self, v: f64) -> u32 {
        if !v.is_finite() || v < self.origin {
            return 0;
        }
        let idx = ((v - self.origin) / self.width).floor();
        if idx >= f64::from(u32::MAX) {
            u32::MAX
        } else {
            idx as u32
        }
    }

    /// Inclusive-exclusive range `[lo, hi)` covered by bucket `idx`.
    pub fn range_of(&self, idx: u32) -> (f64, f64) {
        let lo = self.origin + f64::from(idx) * self.width;
        (lo, lo + self.width)
    }

    /// Paper-style label for bucket `idx`, e.g. `10k-15k` for
    /// `[10000, 15000)` or `1984-1985` for year-width-1 buckets.
    pub fn label_of(&self, idx: u32) -> String {
        let (lo, hi) = self.range_of(idx);
        format!("{}-{}", compact(lo), compact(hi))
    }
}

/// Compact numeric rendering: `15000 -> "15k"`, `2000000 -> "2m"`,
/// `1985 -> "1985"` (no suffix when not an exact multiple).
fn compact(v: f64) -> String {
    let r = v.round();
    if r >= 1_000_000.0 && (r % 1_000_000.0) == 0.0 {
        format!("{}m", (r / 1_000_000.0) as i64)
    } else if r >= 1_000.0 && (r % 1_000.0) == 0.0 && r < 1_000_000.0 {
        format!("{}k", (r / 1_000.0) as i64)
    } else if (v - r).abs() < 1e-9 {
        format!("{}", r as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices() {
        let b = BucketSpec::width(5000.0);
        assert_eq!(b.bucket_of(0.0), 0);
        assert_eq!(b.bucket_of(4999.99), 0);
        assert_eq!(b.bucket_of(5000.0), 1);
        assert_eq!(b.bucket_of(14999.0), 2);
        assert_eq!(b.bucket_of(15000.0), 3);
    }

    #[test]
    fn origin_shifts_buckets() {
        let b = BucketSpec::new(1980.0, 1.0);
        assert_eq!(b.bucket_of(1980.0), 0);
        assert_eq!(b.bucket_of(1985.4), 5);
        assert_eq!(b.range_of(5), (1985.0, 1986.0));
    }

    #[test]
    fn below_origin_and_nonfinite_clamp_to_zero() {
        let b = BucketSpec::new(100.0, 10.0);
        assert_eq!(b.bucket_of(50.0), 0);
        assert_eq!(b.bucket_of(f64::NAN), 0);
        assert_eq!(b.bucket_of(f64::INFINITY), 0);
        assert_eq!(b.bucket_of(f64::NEG_INFINITY), 0);
        // Finite but astronomically large values saturate instead of
        // wrapping.
        assert_eq!(b.bucket_of(f64::MAX), u32::MAX);
    }

    #[test]
    fn paper_style_labels() {
        let price = BucketSpec::width(5000.0);
        assert_eq!(price.label_of(2), "10k-15k");
        assert_eq!(price.label_of(0), "0-5k");
        let year = BucketSpec::new(1980.0, 1.0);
        assert_eq!(year.label_of(5), "1985-1986");
        let big = BucketSpec::width(1_000_000.0);
        assert_eq!(big.label_of(2), "2m-3m");
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        BucketSpec::width(0.0);
    }

    #[test]
    fn range_and_bucket_are_consistent() {
        let b = BucketSpec::new(-50.0, 7.5);
        for idx in 0..100u32 {
            let (lo, hi) = b.range_of(idx);
            assert_eq!(b.bucket_of(lo), idx);
            assert_eq!(b.bucket_of(hi - 1e-9), idx);
            assert_eq!(b.bucket_of(hi), idx + 1);
        }
    }
}
