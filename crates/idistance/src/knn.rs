//! Exact incremental nearest-neighbour iteration (best-first search).
//!
//! MIP-Search-I (Algorithm 1 of the paper) consumes the projected query's
//! neighbours **one at a time in ascending distance order**, testing the
//! searching conditions after each. This iterator delivers exactly that
//! stream using the Hjaltason–Samet best-first strategy over the
//! sub-partition directory: a min-heap holds sub-partitions keyed by their
//! sphere lower bound `max(0, dis(pq, pivot) − radius)` and points keyed by
//! their true projected distance; a point popped from the heap is guaranteed
//! to be the next nearest because every unread sub-partition's bound is not
//! smaller.
//!
//! Page accesses accrue lazily: a sub-partition's projected blob is read
//! only when its bound reaches the head of the heap, matching how the
//! paper's incremental search expands its ring range on demand.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::io;

use promips_linalg::dist;

use crate::index::{IDistanceIndex, ProjScratch, RangeCandidate};

enum Entry {
    SubPart(u32),
    Point(RangeCandidate),
}

struct HeapItem {
    dist: f64,
    seq: u64,
    entry: Entry,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we need min-dist first.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Iterator yielding points in ascending projected distance from `pq`.
pub struct NnIter<'a> {
    index: &'a IDistanceIndex,
    pq: Vec<f32>,
    heap: BinaryHeap<HeapItem>,
    seq: u64,
    error: Option<io::Error>,
    /// Reused across sub-partition expansions, so steady-state iteration
    /// performs no per-record decode allocation (same arena discipline as
    /// the range scan).
    scratch: ProjScratch,
}

impl<'a> NnIter<'a> {
    pub(crate) fn new(index: &'a IDistanceIndex, pq: &[f32]) -> Self {
        assert_eq!(pq.len(), index.proj_dim(), "query dimension mismatch");
        let mut heap = BinaryHeap::with_capacity(index.subparts().len());
        let mut seq = 0;
        for (sub_id, sp) in index.subparts().iter().enumerate() {
            let bound = (dist(pq, index.pivot(sub_id as u32)) - sp.radius).max(0.0);
            heap.push(HeapItem {
                dist: bound,
                seq,
                entry: Entry::SubPart(sub_id as u32),
            });
            seq += 1;
        }
        Self {
            index,
            pq: pq.to_vec(),
            heap,
            seq,
            error: None,
            scratch: ProjScratch::new(),
        }
    }

    /// Returns the I/O error that terminated iteration, if any.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }
}

impl Iterator for NnIter<'_> {
    type Item = RangeCandidate;

    fn next(&mut self) -> Option<Self::Item> {
        if self.error.is_some() {
            return None;
        }
        while let Some(item) = self.heap.pop() {
            match item.entry {
                Entry::Point(cand) => return Some(cand),
                Entry::SubPart(sub) => {
                    if let Err(e) = self.index.read_subpart_proj_into(sub, &mut self.scratch) {
                        self.error = Some(e);
                        return None;
                    }
                    // Distances come from the same column-kernel pass the
                    // range scan uses, so both paths agree bit-for-bit on a
                    // point's projected distance.
                    let Self {
                        heap,
                        seq,
                        scratch,
                        pq,
                        ..
                    } = self;
                    let bound = item.dist;
                    scratch.for_each_dist(pq, |offset, id, pd| {
                        debug_assert!(pd >= bound - 1e-9, "point closer than sub-partition bound");
                        heap.push(HeapItem {
                            dist: pd,
                            seq: *seq,
                            entry: Entry::Point(RangeCandidate {
                                id,
                                proj_dist: pd,
                                subpart: sub,
                                offset: offset as u32,
                            }),
                        });
                        *seq += 1;
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::config::IDistanceConfig;
    use promips_linalg::Matrix;
    use promips_stats::Xoshiro256pp;
    use promips_storage::Pager;
    use std::sync::Arc;

    fn setup(n: usize, m: usize) -> (IDistanceIndex, Matrix) {
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let proj = Matrix::from_rows(
            m,
            (0..n).map(|_| (0..m).map(|_| rng.normal() as f32).collect()),
        );
        let orig = Matrix::from_rows(
            8,
            (0..n).map(|_| (0..8).map(|_| rng.normal() as f32).collect()),
        );
        let pager = Arc::new(Pager::in_memory(1024, 1 << 16));
        let cfg = IDistanceConfig {
            kp: 3,
            nkey: 8,
            ksp: 3,
            ..Default::default()
        };
        (build_index(pager, &proj, &orig, &cfg, None).unwrap(), proj)
    }

    #[test]
    fn yields_all_points_in_distance_order() {
        let (idx, proj) = setup(400, 5);
        let pq: Vec<f32> = vec![0.25; 5];
        let stream: Vec<RangeCandidate> = idx.nn_iter(&pq).collect();
        assert_eq!(stream.len(), 400);
        // Ascending distances.
        assert!(stream
            .windows(2)
            .all(|w| w[0].proj_dist <= w[1].proj_dist + 1e-12));
        // Matches brute force ordering (by distance value).
        let mut expected: Vec<f64> = (0..400).map(|i| dist(proj.row(i), &pq)).collect();
        expected.sort_by(|a, b| a.total_cmp(b));
        for (c, e) in stream.iter().zip(&expected) {
            assert!((c.proj_dist - e).abs() < 1e-9);
        }
    }

    #[test]
    fn first_neighbour_is_true_nn() {
        let (idx, proj) = setup(300, 4);
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        for _ in 0..5 {
            let pq: Vec<f32> = (0..4).map(|_| rng.normal() as f32).collect();
            let first = idx.nn_iter(&pq).next().unwrap();
            let (best, _) = (0..300)
                .map(|i| (i, dist(proj.row(i), &pq)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(first.id, best as u64);
        }
    }

    #[test]
    fn lazy_reading_saves_pages() {
        let (idx, _) = setup(500, 5);
        let pq: Vec<f32> = vec![0.0; 5];

        idx.pager().clear_cache();
        idx.pager().stats().reset();
        let _first10: Vec<_> = idx.nn_iter(&pq).take(10).collect();
        let partial = idx.access_stats().logical_reads;

        idx.pager().clear_cache();
        idx.pager().stats().reset();
        let _all: Vec<_> = idx.nn_iter(&pq).collect();
        let full = idx.access_stats().logical_reads;

        assert!(partial < full, "partial={partial} full={full}");
    }
}
