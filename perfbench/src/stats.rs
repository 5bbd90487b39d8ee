//! The arithmetic behind the reported numbers: medians, paper-claim
//! error, the smoothed failure ratio and the simulated-output digest.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: every caller has at least one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One number the paper reports next to the value the workload computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// The paper's value.
    pub paper: f64,
    /// The simulated value.
    pub measured: f64,
}

impl Claim {
    /// `|measured / paper - 1|`.
    pub fn rel_err(&self) -> f64 {
        (self.measured / self.paper - 1.0).abs()
    }
}

/// Median relative error over `claims`, in percent. A claim whose value
/// could not be computed (a failed session) counts as 100% off.
pub fn claim_err_pct(claims: &[Claim]) -> f64 {
    let errs: Vec<f64> = claims
        .iter()
        .map(|c| {
            let e = c.rel_err();
            if e.is_finite() {
                e
            } else {
                1.0
            }
        })
        .collect();
    median(&errs) * 100.0
}

/// Failure ratio over the named checks of a run, add-one smoothed:
/// `(names that failed on any pass + 1) / (names checked + 1)`.
///
/// The same names are checked on every run of a workload, so with no
/// failure the value is a fixed non-zero constant, and one new failing
/// check at least doubles it.
pub fn fail_ratio(failed_names: usize, checked_names: usize) -> f64 {
    (failed_names as f64 + 1.0) / (checked_names as f64 + 1.0)
}

/// FNV-1a over everything fed to it: a digest of simulated outputs that
/// is identical whenever every output is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mix in a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mix in a string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}
