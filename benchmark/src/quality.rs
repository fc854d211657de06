//! Ground truth, result correctness checks and the paper's accuracy
//! metrics, all against the blocked exact scan over the *live* rows.

use std::time::Instant;

use promips::baselines::ExactScan;
use promips::core::SearchItem;
use promips::linalg::{dot, Matrix};

use crate::harness::{median, micros_since};

pub const K: usize = 10;
pub const C: f64 = 0.9;
pub const P: f64 = 0.5;

/// Exact top-k `(row id, ip)` per query, best first.
pub struct GroundTruth {
    pub topk: Vec<Vec<(u64, f64)>>,
    /// Median per-query time of the blocked `ExactScan` — the bar.
    pub exact_scan_us: f64,
    pub total_s: f64,
}

/// Ground truth over the rows of `data` named by `live` (every row when
/// `None`). Ids are row numbers of `data`. `threads` is 1 where
/// `exact_scan_us` is reported — the bar for a one-thread query — and may
/// be more where the scan is only the benchmark's own overhead.
pub fn ground_truth(
    data: &Matrix,
    live: Option<&[usize]>,
    queries: &Matrix,
    threads: usize,
) -> GroundTruth {
    let t0 = Instant::now();
    let gathered;
    let rows = match live {
        Some(idx) => {
            gathered = data.gather(idx);
            &gathered
        }
        None => data,
    };
    let scan = ExactScan::new(rows, threads);
    let mut times = Vec::with_capacity(queries.rows());
    let topk = queries
        .iter_rows()
        .map(|q| {
            let t = Instant::now();
            let top = scan.top_k(q, K);
            times.push(micros_since(t));
            top.iter()
                .map(|nb| {
                    let id = live.map_or(nb.id, |idx| idx[nb.id as usize] as u64);
                    (id, nb.ip)
                })
                .collect()
        })
        .collect();
    GroundTruth {
        topk,
        exact_scan_us: median(&times),
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// Checks one result list: `K` items (or every live row if fewer), unique
/// ids, scores descending, no dead id, and every returned `ip` equal to
/// the exact inner product of that row within 1e-3 relative.
pub fn check_result(
    items: &[SearchItem],
    q: &[f32],
    data: &Matrix,
    live_rows: usize,
    is_live: impl Fn(u64) -> bool,
) -> Result<(), String> {
    if items.len() != K.min(live_rows) {
        return Err(format!(
            "{} items, expected {}",
            items.len(),
            K.min(live_rows)
        ));
    }
    for (i, it) in items.iter().enumerate() {
        if it.id as usize >= data.rows() || !is_live(it.id) {
            return Err(format!("rank {i}: id {} is not a live row", it.id));
        }
        if items[..i].iter().any(|p| p.id == it.id) {
            return Err(format!("rank {i}: id {} returned twice", it.id));
        }
        if i > 0 && items[i - 1].ip < it.ip {
            return Err(format!("rank {i}: scores not descending"));
        }
        let exact = dot(data.row(it.id as usize), q);
        if (it.ip - exact).abs() > 1e-3 * exact.abs().max(1e-9) {
            return Err(format!("rank {i}: ip {} but exact ⟨o,q⟩ is {exact}", it.ip));
        }
    }
    Ok(())
}

/// Sums of the per-query accuracy figures; divide by `queries`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    queries: usize,
    recall_sum: f64,
    ratio_sum: f64,
    guaranteed: usize,
}

impl Quality {
    pub fn add(&mut self, items: &[SearchItem], exact: &[(u64, f64)]) {
        let k = exact.len();
        let hits = items
            .iter()
            .filter(|it| exact.iter().any(|&(id, _)| id == it.id))
            .count();
        // Rank-wise ratio as in `promips_bench::metrics`: ranks whose exact
        // ip is not positive are skipped, a missing rank scores 0, and a
        // rank is capped at 1.
        let mut ratio = 0.0;
        let mut ranks = 0usize;
        let mut holds = items.len() >= k;
        for (i, &(_, best)) in exact.iter().enumerate() {
            let got = items.get(i).map(|it| it.ip);
            if best > 0.0 {
                ranks += 1;
                ratio += got.map_or(0.0, |ip| (ip / best).min(1.0));
            }
            let need = if best > 0.0 { C * best } else { best };
            holds &= got.is_some_and(|ip| ip >= need - 1e-9 * need.abs());
        }
        self.queries += 1;
        self.recall_sum += hits as f64 / k.max(1) as f64;
        self.ratio_sum += if ranks == 0 {
            1.0
        } else {
            ratio / ranks as f64
        };
        self.guaranteed += holds as usize;
    }

    pub fn recall_at_10(&self) -> f64 {
        self.recall_sum / self.queries as f64
    }

    pub fn overall_ratio(&self) -> f64 {
        self.ratio_sum / self.queries as f64
    }

    /// Fraction of queries whose every rank `i` has `⟨oᵢ,q⟩ ≥ c·⟨o*ᵢ,q⟩`.
    pub fn c_guarantee_frac(&self) -> f64 {
        self.guaranteed as f64 / self.queries as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: u64, ip: f64) -> SearchItem {
        SearchItem { id, ip }
    }

    #[test]
    fn quality_of_exact_and_approximate_lists() {
        let exact = vec![(1, 10.0), (2, 8.0)];
        let mut q = Quality::default();
        q.add(&[item(1, 10.0), item(2, 8.0)], &exact);
        q.add(&[item(1, 10.0), item(7, 4.0)], &exact);
        assert_eq!(q.recall_at_10(), 0.75);
        assert_eq!(q.overall_ratio(), (1.0 + 0.75) / 2.0);
        assert_eq!(q.c_guarantee_frac(), 0.5);
    }

    #[test]
    fn check_result_rejects_each_violation() {
        let data = Matrix::from_rows(2, vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 2.0]]);
        let q = [1.0f32, 1.0];
        let ok = vec![item(2, 4.0), item(0, 1.0), item(1, 1.0)];
        assert!(check_result(&ok, &q, &data, 3, |_| true).is_ok());
        assert!(check_result(&ok, &q, &data, 3, |id| id != 1).is_err());
        assert!(check_result(&ok[..2], &q, &data, 3, |_| true).is_err());
        let dup = vec![item(2, 4.0), item(0, 1.0), item(0, 1.0)];
        assert!(check_result(&dup, &q, &data, 3, |_| true).is_err());
        let unsorted = vec![item(0, 1.0), item(2, 4.0), item(1, 1.0)];
        assert!(check_result(&unsorted, &q, &data, 3, |_| true).is_err());
        let wrong_ip = vec![item(2, 4.1), item(0, 1.0), item(1, 1.0)];
        assert!(check_result(&wrong_ip, &q, &data, 3, |_| true).is_err());
    }

    #[test]
    fn ground_truth_over_a_live_subset_maps_ids_back() {
        let data = Matrix::from_rows(1, (0..20).map(|i| vec![i as f32]));
        let queries = Matrix::from_rows(1, vec![vec![1.0]]);
        let live: Vec<usize> = (0..20).filter(|i| i % 2 == 0).collect();
        let gt = ground_truth(&data, Some(&live), &queries, 2);
        let ids: Vec<u64> = gt.topk[0].iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![18, 16, 14, 12, 10, 8, 6, 4, 2, 0]);
    }
}
