//! Index construction parameters.

/// Parameters of the two-stage partition pattern (paper Section VI and the
/// experimental defaults of Section VIII-A4).
#[derive(Debug, Clone)]
pub struct IDistanceConfig {
    /// Number of first-stage partitions (`kp` in the paper; default 5).
    pub kp: usize,
    /// Rings per average partition radius (`Nkey`; default 40).
    pub nkey: usize,
    /// Sub-partitions per ring (`ksp`; default 10).
    pub ksp: usize,
    /// Lloyd iterations for both clustering stages.
    pub kmeans_iters: usize,
    /// Seed for the clustering RNG.
    pub seed: u64,
    /// Whether to build the SQ8 verification tier: a u8 code column over
    /// the **original** rows (one affine quantizer per sub-partition; `d`
    /// bytes a row, or an `h`-byte head when the rows' energy sits in few
    /// directions), the file's only code region. It feeds two readers:
    ///
    /// * the **column pass** — a query whose Quick-Probe ball covers at
    ///   least a quarter of the rows sweeps the column in storage order and
    ///   answers with the exact top-k, decoding the f32 row only of rows
    ///   its integer bound cannot rule out;
    /// * the **annulus path's screen** — each candidate row's integer dot
    ///   and the exact error-bound padding rule it out before its f32 row
    ///   is fetched when it cannot reach the running k-th best.
    ///
    /// The screen never drops a true top-k member, so annulus-path results
    /// are **bit-identical** with the tier on or off. `false` stays because
    /// its pure-f32 annulus path (every query takes it) is the reference the
    /// tier is held to (`crates/core/tests/verify_parity.rs`).
    pub verify_quantize: bool,
}

impl Default for IDistanceConfig {
    fn default() -> Self {
        Self {
            kp: 5,
            nkey: 40,
            ksp: 10,
            kmeans_iters: 20,
            seed: 0x1D15_7A4C,
            verify_quantize: true,
        }
    }
}

impl IDistanceConfig {
    /// The paper's selectivity `µ = 1 / (kp · Nkey · ksp)`: the expected
    /// fraction of the dataset in one sub-partition.
    pub fn selectivity(&self) -> f64 {
        1.0 / (self.kp as f64 * self.nkey as f64 * self.ksp as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = IDistanceConfig::default();
        assert_eq!((c.kp, c.nkey, c.ksp), (5, 40, 10));
    }

    #[test]
    fn selectivity_formula() {
        let c = IDistanceConfig::default();
        assert!((c.selectivity() - 1.0 / 2000.0).abs() < 1e-12);
    }
}
