//! Bulk loading's unit tests. Compiled into the library's unit-test binary
//! (`src/bulk.rs` includes this file by path), so they sit outside the
//! `src` line budget while the suite still names them `bulk::tests::…`;
//! they reach the crate-private node view and the tree's root.

use super::*;
use crate::node::NodeView;

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

/// The file a load writes, front to back: the leaves from page 0 on, in
/// key order, each linking to the next page and the last to nothing;
/// then each internal level, its nodes' children in order the pages of
/// the level below; the root last. Walking down from the root reaches
/// every page, so no page is orphaned — nor is one when the load size is a
/// multiple of the leaf fill.
#[test]
fn pages_are_written_front_to_back() {
    for page_size in [64usize, 128, 4096] {
        let cap = node_capacity(page_size);
        let fill = ((cap as f64 * FILL) as usize).clamp(1, cap) as u64;
        for n in [0, 1, fill - 1, fill, fill + 1, 3 * fill] {
            let case = format!("page size {page_size}, n = {n}");
            let pager = Arc::new(Pager::in_memory(page_size, 16));
            let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k / 2, k)).collect();
            let tree = bulk_load(Arc::clone(&pager), pairs.clone()).unwrap();
            let pages = pager.num_pages();
            assert_eq!(tree.root, pages - 1, "{case}: the root is the last page");
            let read = |id: PageId| pager.read(id).unwrap();

            // Down from the root a level at a time: each level's children
            // are the pages just before it, in order.
            let mut level = tree.root..pages;
            loop {
                let mut children = Vec::new();
                for id in level.clone() {
                    let page = read(id);
                    let view = NodeView::parse(page.as_slice()).unwrap();
                    if view.is_leaf() {
                        break;
                    }
                    children.push(view.link());
                    children.extend((0..view.len()).map(|i| view.entry(i).1));
                }
                if children.is_empty() {
                    break;
                }
                let below = children[0]..level.start;
                assert!(
                    children.iter().copied().eq(below.clone()),
                    "{case}: children of pages {level:?} are {children:?}"
                );
                level = below;
            }
            assert_eq!(level.start, 0, "{case}: the leaves start the file");

            // The leaves: every pair in load order, each linking onward.
            let mut got = Vec::new();
            for id in level.clone() {
                let page = read(id);
                let view = NodeView::parse(page.as_slice()).unwrap();
                assert!(view.is_leaf(), "{case}: page {id}");
                assert!(view.len() > 0 || n == 0, "{case}: empty leaf {id}");
                let next = if id + 1 == level.end {
                    NIL_PAGE
                } else {
                    id + 1
                };
                assert_eq!(view.link(), next, "{case}: leaf {id}'s link");
                got.extend((0..view.len()).map(|i| view.entry(i)));
            }
            assert_eq!(got, pairs, "{case}");
        }
    }
}
