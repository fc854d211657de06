//! Bottom-up bulk loading.
//!
//! Every tree is built once from keys known in advance (QALSH sorts each
//! hash function's values before loading them), so it is built a level at
//! a time with full pages and no splits.

use std::io;
use std::sync::Arc;

use promips_storage::Pager;

use crate::node::{node_capacity, Node, NIL_PAGE};
use crate::tree::BTree;

/// Leaf fill factor. QALSH's page counts and the benchmark's `btree.*`
/// figures follow it.
const FILL: f64 = 0.9;

/// Builds a [`BTree`] from key-sorted `(key, value)` pairs.
///
/// # Panics
/// Panics if the input is not sorted by key (checked while streaming).
pub fn bulk_load(
    pager: Arc<Pager>,
    sorted: impl IntoIterator<Item = (u64, u64)>,
) -> io::Result<BTree> {
    let page_size = pager.page_size();
    let cap = node_capacity(page_size);
    let per_leaf = ((cap as f64 * FILL) as usize).clamp(1, cap);

    // --- Level 0: write leaves, chaining `next` pointers. ---------------
    // Leaves are written as soon as they fill, but each leaf needs its
    // successor's page id; we allocate the next page id eagerly instead of
    // buffering whole levels in memory.
    let mut leaves: Vec<(u64, u64)> = Vec::new(); // (first_key, page_id)
    let mut pending: Vec<(u64, u64)> = Vec::with_capacity(per_leaf);
    let mut pending_page = pager.allocate()?;
    let mut total: u64 = 0;
    let mut last_key: Option<u64> = None;

    for (k, v) in sorted {
        if let Some(prev) = last_key {
            assert!(prev <= k, "bulk_load input not sorted: {prev} then {k}");
        }
        last_key = Some(k);
        total += 1;
        pending.push((k, v));
        if pending.len() == per_leaf {
            let next_page = pager.allocate()?;
            let first_key = pending[0].0;
            let node = Node::Leaf {
                entries: std::mem::take(&mut pending),
                next: next_page,
            };
            pager.write(pending_page, node.encode(page_size))?;
            leaves.push((first_key, pending_page));
            pending_page = next_page;
        }
    }
    // Final leaf (possibly empty if the input size is a multiple of
    // per_leaf, or the input was empty — an empty tree is a single leaf).
    let first_key = pending.first().map(|e| e.0).unwrap_or(0);
    let node = Node::Leaf {
        entries: std::mem::take(&mut pending),
        next: NIL_PAGE,
    };
    pager.write(pending_page, node.encode(page_size))?;
    if leaves.is_empty() || node_has_entries(total, per_leaf) {
        leaves.push((first_key, pending_page));
    } else {
        // The trailing empty leaf still terminates the chain; point the
        // previous leaf at NIL instead to avoid an empty hop.
        // (Cheapest fix: rewrite the previous leaf's next pointer.)
        let &(_, prev_page) = leaves.last().unwrap();
        let prev = pager.read(prev_page)?;
        if let Node::Leaf { entries, .. } = Node::decode(prev.as_slice()) {
            pager.write(
                prev_page,
                Node::Leaf {
                    entries,
                    next: NIL_PAGE,
                }
                .encode(page_size),
            )?;
        }
    }

    // --- Upper levels. ---------------------------------------------------
    let mut level = leaves;
    while level.len() > 1 {
        let mut next_level: Vec<(u64, u64)> = Vec::new();
        // Each internal node takes up to cap+1 children.
        for chunk in level.chunks(cap + 1) {
            let leftmost = chunk[0].1;
            let first_key = chunk[0].0;
            let entries: Vec<(u64, u64)> = chunk[1..].iter().map(|&(k, p)| (k, p)).collect();
            let page = pager.append(Node::Internal { leftmost, entries }.encode(page_size))?;
            next_level.push((first_key, page));
        }
        level = next_level;
    }

    let root = level[0].1;
    Ok(BTree::open(pager, root, total))
}

/// Whether the final pending leaf actually received entries.
fn node_has_entries(total: u64, per_leaf: usize) -> bool {
    total == 0 || !total.is_multiple_of(per_leaf as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_storage::Pager;

    fn check_tree(n: u64, page_size: usize) {
        let pager = Arc::new(Pager::in_memory(page_size, 4096));
        let pairs = (0..n).map(|k| (k * 2, k));
        let tree = bulk_load(pager, pairs).unwrap();
        assert_eq!(tree.len(), n);
        // Every key resolvable.
        for k in (0..n).step_by((n as usize / 17).max(1)) {
            assert_eq!(tree.get(k * 2).unwrap(), Some(k), "n={n}, key={}", k * 2);
        }
        // Full scan is sorted and complete.
        let all: Vec<(u64, u64)> = tree.scan_all().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
        // Odd keys are absent.
        if n > 0 {
            assert_eq!(tree.get(1).unwrap(), None);
        }
    }

    #[test]
    fn bulk_load_various_sizes() {
        for &n in &[0u64, 1, 2, 3, 10, 100, 1000, 5000] {
            check_tree(n, 64);
        }
        check_tree(10_000, 4096);
    }

    #[test]
    fn bulk_load_exact_multiple_of_leaf_capacity() {
        // per_leaf for 64-byte pages = floor(3 * 0.9) = 2.
        for &n in &[2u64, 4, 8, 64] {
            check_tree(n, 64);
        }
    }

    #[test]
    fn bulk_load_with_duplicates() {
        let pager = Arc::new(Pager::in_memory(64, 4096));
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for i in 0..50u64 {
            pairs.push((7, i)); // 50 duplicates of key 7
        }
        pairs.push((9, 999));
        let tree = bulk_load(pager, pairs).unwrap();
        assert_eq!(tree.range(7, 7).unwrap().count(), 50);
        assert_eq!(tree.get(9).unwrap(), Some(999));
        assert_eq!(tree.get(8).unwrap(), None);
    }

    #[test]
    #[should_panic]
    fn bulk_load_rejects_unsorted() {
        let pager = Arc::new(Pager::in_memory(64, 4096));
        let _ = bulk_load(pager, vec![(5, 0), (3, 0)]);
    }
}
