//! Configuration for building a ProMIPS index.

use promips_idistance::{HeadBasis, IDistanceConfig};
use promips_linalg::Matrix;
use promips_storage::PAGE_SIZE_DEFAULT;

/// Build-time and search-time parameters.
///
/// Defaults mirror the paper's experimental settings (Section VIII-A4):
/// `c = 0.9`, `p = 0.5`, `kp = 5`, `Nkey = 40`, `ksp = 10`, 4 KB pages, and
/// `m` chosen by the optimizer of Section V-B unless overridden.
#[derive(Debug, Clone)]
pub struct ProMipsConfig {
    /// Approximation ratio `c ∈ (0, 1)` of the c-AMIP definition.
    pub c: f64,
    /// Guarantee probability `p ∈ (0, 1)`.
    pub p: f64,
    /// Projected dimensionality `m`; `None` selects the optimized value
    /// `argmin 2^m(m+1) + n/2^m`.
    pub m: Option<usize>,
    /// iDistance partition parameters.
    pub idistance: IDistanceConfig,
    /// Page size for the index file.
    pub page_size: usize,
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Seed for the projection matrix (and, xored, the clustering stages).
    pub seed: u64,
}

impl Default for ProMipsConfig {
    fn default() -> Self {
        Self {
            c: 0.9,
            p: 0.5,
            m: None,
            idistance: IDistanceConfig::default(),
            page_size: PAGE_SIZE_DEFAULT,
            pool_pages: 1024,
            seed: 0x9E37_79B9,
        }
    }
}

impl ProMipsConfig {
    /// The iDistance configuration a build runs: [`Self::idistance`] with
    /// [`Self::seed`] xored into its seed.
    pub(crate) fn index_config(&self) -> IDistanceConfig {
        IDistanceConfig {
            seed: self.idistance.seed ^ self.seed,
            ..self.idistance.clone()
        }
    }

    /// The basis [`crate::ProMips::build_with_pager`] codes `data` under:
    /// [`HeadBasis::estimate`] with the build's seed, `None` without the
    /// verification tier.
    pub fn head_basis(&self, data: &Matrix) -> Option<HeadBasis> {
        let cfg = self.index_config();
        cfg.verify_quantize
            .then(|| HeadBasis::estimate(data, cfg.seed))
            .flatten()
    }

    /// Starts a builder with the paper defaults.
    pub fn builder() -> ProMipsConfigBuilder {
        ProMipsConfigBuilder {
            config: Self::default(),
        }
    }

    /// Validates parameter domains.
    ///
    /// # Panics
    /// Panics with [`Self::check`]'s message when it fails.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// The parameter domains: `c` and `p` in `(0, 1)`, `m` unset or in
    /// `1..=64` (binary codes are stored in a `u64`). Fails with what is
    /// out of range.
    pub fn check(&self) -> Result<(), String> {
        if !(self.c > 0.0 && self.c < 1.0) {
            return Err(format!("c must be in (0,1), got {}", self.c));
        }
        if !(self.p > 0.0 && self.p < 1.0) {
            return Err(format!("p must be in (0,1), got {}", self.p));
        }
        match self.m {
            Some(m) if !(1..=64).contains(&m) => Err(format!("m must be in 1..=64, got {m}")),
            _ => Ok(()),
        }
    }
}

/// Fluent builder for [`ProMipsConfig`].
#[derive(Debug, Clone)]
pub struct ProMipsConfigBuilder {
    config: ProMipsConfig,
}

impl ProMipsConfigBuilder {
    /// Sets the approximation ratio `c`.
    pub fn c(mut self, c: f64) -> Self {
        self.config.c = c;
        self
    }

    /// Sets the guarantee probability `p`.
    pub fn p(mut self, p: f64) -> Self {
        self.config.p = p;
        self
    }

    /// Overrides the projected dimensionality `m`.
    pub fn m(mut self, m: usize) -> Self {
        self.config.m = Some(m);
        self
    }

    /// Sets the iDistance parameters.
    pub fn idistance(mut self, cfg: IDistanceConfig) -> Self {
        self.config.idistance = cfg;
        self
    }

    /// Sets the page size.
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.config.page_size = bytes;
        self
    }

    /// Sets the buffer-pool capacity (pages).
    pub fn pool_pages(mut self, pages: usize) -> Self {
        self.config.pool_pages = pages;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finalizes and validates the configuration.
    pub fn build(self) -> ProMipsConfig {
        self.config.validate();
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ProMipsConfig::default();
        assert_eq!(c.c, 0.9);
        assert_eq!(c.p, 0.5);
        assert_eq!(c.page_size, 4096);
        assert!(c.m.is_none());
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = ProMipsConfig::builder().c(0.7).p(0.9).m(8).seed(5).build();
        assert_eq!(cfg.c, 0.7);
        assert_eq!(cfg.p, 0.9);
        assert_eq!(cfg.m, Some(8));
        assert_eq!(cfg.seed, 5);
    }

    #[test]
    #[should_panic]
    fn rejects_c_of_one() {
        ProMipsConfig::builder().c(1.0).build();
    }

    #[test]
    #[should_panic]
    fn rejects_zero_p() {
        ProMipsConfig::builder().p(0.0).build();
    }

    #[test]
    #[should_panic]
    fn rejects_huge_m() {
        ProMipsConfig::builder().m(65).build();
    }
}
