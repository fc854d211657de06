//! Exact MIP search by multi-threaded linear scan — the ground truth
//! generator for overall ratio (Fig. 5) and recall (Fig. 6).

use promips_linalg::Matrix;

use crate::method::{merge_topk, Neighbor};

/// An in-memory exact scanner.
///
/// Not a [`crate::MipsMethod`]: it has no index or disk footprint and only
/// serves to compute exact top-k answers (optionally in parallel with
/// `std::thread::scope`).
pub struct ExactScan<'a> {
    data: &'a Matrix,
    threads: usize,
}

impl<'a> ExactScan<'a> {
    /// Creates a scanner over `data` using `threads` worker threads
    /// (clamped to at least 1).
    pub fn new(data: &'a Matrix, threads: usize) -> Self {
        Self {
            data,
            threads: threads.max(1),
        }
    }

    /// Exact top-k maximum inner product points for `q`.
    pub fn top_k(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        let n = self.data.rows();
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        if self.threads == 1 || n < 4096 {
            return merge_topk(vec![scan_chunk(self.data, 0, n, q, k)], k);
        }
        let chunk = n.div_ceil(self.threads);
        let mut lists: Vec<Vec<Neighbor>> = Vec::with_capacity(self.threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    s.spawn(move || {
                        if lo < hi {
                            scan_chunk(self.data, lo, hi, q, k)
                        } else {
                            Vec::new()
                        }
                    })
                })
                .collect();
            for h in handles {
                lists.push(h.join().expect("scan thread panicked"));
            }
        });
        merge_topk(lists, k)
    }
}

/// Rank order of the exact answer: inner product descending, ties by id
/// ascending. Ids are unique, so this is a strict total order and the top-k
/// of a chunk is one well-defined list.
fn by_rank(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    b.ip.total_cmp(&a.ip).then(a.id.cmp(&b.id))
}

/// Top-k of rows `lo..hi` in [`by_rank`] order. Scoring runs through the
/// blocked dot4 loop (`Matrix::dot_rows`, the verify shape); selection
/// keeps a buffer of at most `2k` rows, cut back to the best `k` by
/// `select_nth_unstable_by` whenever it fills — O(n) comparisons in total,
/// against the O(n log n) of sorting every score — and rows ranking after
/// the last cut's k-th are not buffered at all.
fn scan_chunk(data: &Matrix, lo: usize, hi: usize, q: &[f32], k: usize) -> Vec<Neighbor> {
    debug_assert!(k > 0, "top_k returns early for k = 0");
    let cap = k.saturating_mul(2).min(hi - lo);
    let mut items: Vec<Neighbor> = Vec::with_capacity(cap);
    let mut kth: Option<Neighbor> = None;
    data.dot_rows(lo, hi, q, |row, ip| {
        let cand = Neighbor { id: row as u64, ip };
        if kth.is_some_and(|kth| by_rank(&cand, &kth).is_gt()) {
            return;
        }
        items.push(cand);
        if items.len() == 2 * k {
            items.select_nth_unstable_by(k - 1, by_rank);
            items.truncate(k);
            kth = Some(items[k - 1]);
        }
    });
    if items.len() > k {
        items.select_nth_unstable_by(k - 1, by_rank);
        items.truncate(k);
    }
    items.sort_by(by_rank);
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_stats::Xoshiro256pp;

    fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        Matrix::from_rows(
            d,
            (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect()),
        )
    }

    #[test]
    fn finds_planted_maximum() {
        let mut data = random_data(200, 8, 1);
        // Plant an obvious winner aligned with the query.
        data.row_mut(77).copy_from_slice(&[100.0; 8]);
        let scan = ExactScan::new(&data, 1);
        let q = vec![1.0f32; 8];
        let top = scan.top_k(&q, 3);
        assert_eq!(top[0].id, 77);
        assert!((top[0].ip - 800.0).abs() < 1e-6);
    }

    #[test]
    fn threaded_matches_single_threaded() {
        let data = random_data(10_000, 16, 2);
        let single = ExactScan::new(&data, 1);
        let multi = ExactScan::new(&data, 4);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..5 {
            let q: Vec<f32> = (0..16).map(|_| rng.normal() as f32).collect();
            let a = single.top_k(&q, 10);
            let b = multi.top_k(&q, 10);
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    /// The bounded selection must return exactly what sorting every score
    /// returns — same rows, same order — including when many rows tie on
    /// the score and the tie is broken by id across a cut of the buffer.
    #[test]
    fn bounded_selection_matches_full_sort_on_duplicated_scores() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        // 40 distinct rows repeated over 1 000 positions: every score
        // occurs ~25 times.
        let distinct = random_data(40, 6, 6);
        let data = Matrix::from_rows(
            6,
            (0..1_000).map(|_| distinct.row(rng.below(40) as usize).to_vec()),
        );
        for _ in 0..10 {
            let q: Vec<f32> = (0..6).map(|_| rng.normal() as f32).collect();
            let mut want: Vec<Neighbor> = Vec::new();
            data.dot_rows(0, data.rows(), &q, |row, ip| {
                want.push(Neighbor { id: row as u64, ip })
            });
            want.sort_by(|a, b| b.ip.total_cmp(&a.ip).then(a.id.cmp(&b.id)));
            for k in [1, 7, 10, 26, 100, 999, 1_000] {
                assert_eq!(
                    scan_chunk(&data, 0, data.rows(), &q, k),
                    want[..k],
                    "k = {k}"
                );
            }
            // A chunk that does not start at row 0 keeps global row ids.
            let mid: Vec<Neighbor> = want.iter().filter(|n| n.id >= 300).copied().collect();
            assert_eq!(scan_chunk(&data, 300, data.rows(), &q, 10), mid[..10]);
        }
    }

    #[test]
    fn k_exceeding_n_is_clamped() {
        let data = random_data(5, 4, 4);
        let scan = ExactScan::new(&data, 2);
        let top = scan.top_k(&[1.0, 0.0, 0.0, 0.0], 10);
        assert_eq!(top.len(), 5);
        assert!(top.windows(2).all(|w| w[0].ip >= w[1].ip));
    }
}
