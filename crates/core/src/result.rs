//! Search results and per-query diagnostics.

/// One returned point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchItem {
    /// Point id (row in the indexed dataset).
    pub id: u64,
    /// Exact inner product `⟨o, q⟩` (computed during verification).
    pub ip: f64,
}

/// The running top-`k` behind Algorithm 3's k-th best `⟨o_k, q⟩`, and the
/// one collector of the query path (both core paths, the shard's delta,
/// the cross-shard merge): at most `k` items, best first — `ip` descending
/// under `total_cmp`, ties to the smaller id. A row enters only by ranking
/// before the k-th, so the items are the first `k` of every row pushed.
#[derive(Debug, Clone)]
pub struct TopK {
    items: Vec<SearchItem>,
    k: usize,
}

impl TopK {
    /// An empty collector of at most `k` items (`k = 0` takes none).
    pub fn new(k: usize) -> Self {
        Self { k, items: vec![] }
    }

    /// Offers a scored row; true when it entered. A NaN score never does.
    pub fn push(&mut self, id: u64, ip: f64) -> bool {
        if ip.is_nan() {
            return false;
        }
        let ranks_before =
            |a: &SearchItem, b: &SearchItem| b.ip.total_cmp(&a.ip).then(a.id.cmp(&b.id)).is_lt();
        let item = SearchItem { id, ip };
        if self.is_full() {
            match self.items.last() {
                Some(kth) if ranks_before(&item, kth) => self.items.pop(),
                _ => return false,
            };
        }
        let at = self.items.partition_point(|it| ranks_before(it, &item));
        self.items.insert(at, item);
        true
    }

    /// Whether `k` items are held.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.k
    }

    /// The k-th best inner product once `k` items are held — a row must rank
    /// before it to enter — and −∞ before that (and always at `k = 0`).
    pub fn kth_ip(&self) -> f64 {
        match self.items.last() {
            Some(kth) if self.is_full() => kth.ip,
            _ => f64::NEG_INFINITY,
        }
    }

    /// The items, best first.
    pub fn into_items(self) -> Vec<SearchItem> {
        self.items
    }
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
