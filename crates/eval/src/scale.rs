/// Dataset scaling for the experiment runners.
///
/// [`Scale::full`] reproduces the paper's sizes (CarDB 100k, CensusDB
/// 45k, samples of 15k/25k/50k, 1000 census queries). [`Scale::quick`]
/// divides every size by 20 so the whole suite runs in seconds — used by
/// integration tests and CI. [`Scale::from_env`] reads `AIMQ_SCALE`
/// (`full`, `quick`, or an integer divisor of at least 1) so the
/// `aimq-eval` binary can be throttled without recompiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    divisor: usize,
}

impl Scale {
    /// Paper-size datasets.
    pub fn full() -> Self {
        Scale { divisor: 1 }
    }

    /// 1/20th of the paper's sizes.
    pub fn quick() -> Self {
        Scale { divisor: 20 }
    }

    /// Custom divisor (≥ 1).
    pub fn with_divisor(divisor: usize) -> Self {
        Scale {
            divisor: divisor.max(1),
        }
    }

    /// Read `AIMQ_SCALE` (`full` | `quick` | integer divisor ≥ 1); unset
    /// means full. Any other value is an error that names it, so a typo
    /// never becomes a silent full-scale run.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("AIMQ_SCALE") {
            Err(std::env::VarError::NotPresent) => Ok(Scale::full()),
            Err(std::env::VarError::NotUnicode(raw)) => Err(invalid(&raw.to_string_lossy())),
            Ok(value) => Scale::parse(&value),
        }
    }

    /// Parse an `AIMQ_SCALE` value.
    fn parse(value: &str) -> Result<Self, String> {
        match value {
            "full" => Ok(Scale::full()),
            "quick" => Ok(Scale::quick()),
            other => match other.parse::<usize>() {
                Ok(divisor) if divisor >= 1 => Ok(Scale::with_divisor(divisor)),
                _ => Err(invalid(other)),
            },
        }
    }

    /// Scale an absolute paper size, keeping a sane floor.
    pub fn size(&self, paper_size: usize) -> usize {
        (paper_size / self.divisor).max(50)
    }

    /// Scale a query-workload count (smaller floor).
    pub fn count(&self, paper_count: usize) -> usize {
        (paper_count / self.divisor).max(3)
    }

    /// The paper's CarDB size (100,000 tuples).
    pub fn cardb(&self) -> usize {
        self.size(100_000)
    }

    /// The paper's CensusDB size (45,000 tuples).
    pub fn censusdb(&self) -> usize {
        self.size(45_000)
    }

    /// The sample sizes of the robustness experiments (15k/25k/50k).
    pub fn cardb_samples(&self) -> Vec<usize> {
        vec![self.size(15_000), self.size(25_000), self.size(50_000)]
    }

    /// The divisor in effect.
    pub fn divisor(&self) -> usize {
        self.divisor
    }
}

fn invalid(value: &str) -> String {
    format!("AIMQ_SCALE must be `full`, `quick` or a divisor of at least 1, not `{value}`")
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.divisor == 1 {
            write!(f, "full")
        } else {
            write!(f, "1/{}", self.divisor)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matches_paper_sizes() {
        let s = Scale::full();
        assert_eq!(s.cardb(), 100_000);
        assert_eq!(s.censusdb(), 45_000);
        assert_eq!(s.cardb_samples(), vec![15_000, 25_000, 50_000]);
    }

    #[test]
    fn quick_divides_by_twenty() {
        let s = Scale::quick();
        assert_eq!(s.cardb(), 5_000);
        assert_eq!(s.censusdb(), 2_250);
    }

    #[test]
    fn floors_apply() {
        let s = Scale::with_divisor(1_000_000);
        assert_eq!(s.cardb(), 50);
        assert_eq!(s.count(14), 3);
    }

    #[test]
    fn parse_accepts_names_and_divisors_and_rejects_the_rest() {
        assert_eq!(Scale::parse("full"), Ok(Scale::full()));
        assert_eq!(Scale::parse("quick"), Ok(Scale::quick()));
        assert_eq!(Scale::parse("7"), Ok(Scale::with_divisor(7)));
        for bad in ["quik", "0", "", "-3", "1.5"] {
            let err = Scale::parse(bad).expect_err(bad);
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }

    #[test]
    fn display() {
        assert_eq!(Scale::full().to_string(), "full");
        assert_eq!(Scale::quick().to_string(), "1/20");
    }
}
