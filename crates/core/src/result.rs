//! Search results and per-query diagnostics.

/// One returned point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchItem {
    /// Point id (row in the indexed dataset).
    pub id: u64,
    /// Exact inner product `⟨o, q⟩` (computed during verification).
    pub ip: f64,
}

/// Result of a c-k-AMIP search, plus diagnostics the experiment harness
/// reports (candidate counts, radii, termination cause).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Top-k items by inner product, descending.
    pub items: Vec<SearchItem>,
    /// Number of candidates whose exact inner product was computed.
    pub verified: usize,
    /// Number of candidates dropped by the SQ8 verification screen without
    /// an exact rescore (always 0 when the index has no verification tier).
    /// A screened candidate is proven — via the quantized inner product plus
    /// the exact error-bound padding — to fall strictly below the running
    /// k-th best, so skipping it never changes the returned top-k. On the
    /// column pass every row of the index is a candidate: `screened` +
    /// `verified` + the masked rows that survived the screen = `len()`.
    pub screened: usize,
    /// The Quick-Probe radius `r` (squared distance **not** applied — this
    /// is the Euclidean radius in the projected space). `None` for
    /// [`crate::ProMips::search_incremental`].
    pub probe_radius: Option<f64>,
    /// The final radius after optional compensation: every point within it
    /// was a candidate. `None` when no radius bounds what was searched — a
    /// column pass (the whole index was), or
    /// [`crate::ProMips::search_incremental`].
    pub final_radius: Option<f64>,
    /// Whether the compensation extension `r → r'` was triggered.
    pub compensated: bool,
    /// Why the search stopped.
    pub termination: Termination,
}

/// Which condition ended the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Condition A (deterministic guarantee).
    ConditionA,
    /// Condition B (probabilistic guarantee).
    ConditionB,
    /// The (possibly compensated) range was exhausted.
    RangeExhausted,
    /// Every live row was considered, so the items are the exact top-k:
    /// the column pass of the index-or-scan rule ([`crate::search`] module
    /// docs), a mask that leaves no row alive, or an incremental search
    /// that ran dry.
    DatasetExhausted,
}

impl SearchResult {
    /// The best inner product found (None for an empty result).
    pub fn best_ip(&self) -> Option<f64> {
        self.items.first().map(|i| i.ip)
    }

    /// The ids in rank order.
    pub fn ids(&self) -> Vec<u64> {
        self.items.iter().map(|i| i.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let r = SearchResult {
            items: vec![SearchItem { id: 3, ip: 9.0 }, SearchItem { id: 1, ip: 5.0 }],
            verified: 10,
            screened: 4,
            probe_radius: Some(1.0),
            final_radius: Some(2.0),
            compensated: true,
            termination: Termination::RangeExhausted,
        };
        assert_eq!(r.best_ip(), Some(9.0));
        assert_eq!(r.ids(), vec![3, 1]);
    }
}
