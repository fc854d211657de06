//! The B+-tree proper: lookups and range scans.

use std::io;
use std::sync::Arc;

use promips_storage::{PageId, Pager};

use crate::iter::RangeIter;
use crate::node::NodeView;

/// A disk B+-tree rooted at a known page of a [`Pager`].
///
/// The tree does not own the pager: several trees (e.g. QALSH's per-hash
/// tables) can share one page file.
pub struct BTree {
    pager: Arc<Pager>,
    root: PageId,
    len: u64,
}

impl BTree {
    /// A handle on the tree rooted at `root` holding `len` entries.
    pub(crate) fn open(pager: Arc<Pager>, root: PageId, len: u64) -> Self {
        Self { pager, root, len }
    }

    /// Builds a tree from `(key, value)` pairs **sorted by key** using
    /// bottom-up bulk loading: a level at a time, full pages, no splits.
    ///
    /// # Panics
    /// Panics if the input is not sorted by key (checked while streaming).
    pub fn bulk_load(
        pager: Arc<Pager>,
        sorted: impl IntoIterator<Item = (u64, u64)>,
    ) -> io::Result<Self> {
        crate::bulk::bulk_load(pager, sorted)
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Descends to the leaf where a scan for `key` must start.
    ///
    /// Uses the strict `separator < key` rule so that duplicate runs that
    /// straddle a leaf boundary are never skipped (the scan then walks the
    /// leaf chain forward). Nodes are read through a borrowed view of the
    /// page — the whole read path down to the leaf allocates nothing.
    fn descend_for_scan(&self, key: u64) -> io::Result<PageId> {
        let mut id = self.root;
        loop {
            let page = self.pager.read(id)?;
            let view = NodeView::parse(page.as_slice())?;
            if view.is_leaf() {
                return Ok(id);
            }
            // Last separator strictly below `key`, else the leftmost child.
            let idx = view.lower_bound(key);
            id = if idx == 0 {
                view.link()
            } else {
                view.entry(idx - 1).1
            };
        }
    }

    /// Returns the first value stored under `key`, if any.
    pub fn get(&self, key: u64) -> io::Result<Option<u64>> {
        let mut iter = self.range(key, key)?;
        match iter.next() {
            Some(res) => res.map(|(_, v)| Some(v)),
            None => Ok(None),
        }
    }

    /// Iterates `(key, value)` pairs with `lo <= key <= hi` in key order;
    /// equal keys come back in the order they were loaded.
    pub fn range(&self, lo: u64, hi: u64) -> io::Result<RangeIter> {
        let leaf = self.descend_for_scan(lo)?;
        RangeIter::new(Arc::clone(&self.pager), leaf, lo, hi)
    }

    /// Iterates all entries in key order.
    pub fn scan_all(&self) -> io::Result<RangeIter> {
        self.range(0, u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tree of `pairs` on 64-byte pages: capacity 3 per node, two
    /// entries a leaf, so even small inputs build several levels.
    fn tiny_tree(pairs: impl IntoIterator<Item = (u64, u64)>) -> BTree {
        BTree::bulk_load(Arc::new(Pager::in_memory(64, 1024)), pairs).unwrap()
    }

    #[test]
    fn empty_tree_lookups() {
        let t = tiny_tree([]);
        assert!(t.is_empty());
        assert_eq!(t.get(5).unwrap(), None);
        assert_eq!(t.scan_all().unwrap().count(), 0);
    }

    #[test]
    fn load_and_get_sequential() {
        let t = tiny_tree((0..200u64).map(|k| (k, k * 10)));
        assert_eq!(t.len(), 200);
        for k in 0..200u64 {
            assert_eq!(t.get(k).unwrap(), Some(k * 10), "key {k}");
        }
        assert_eq!(t.get(200).unwrap(), None);
    }

    #[test]
    fn duplicates_are_all_returned() {
        // 30 duplicates straddle many leaves between other keys; they come
        // back in load order.
        let mut pairs: Vec<(u64, u64)> = (0..30u64).map(|i| (42, 1000 + i)).collect();
        pairs.extend((0..30u64).map(|i| (i, i)));
        pairs.extend((43..60u64).map(|i| (i, i)));
        pairs.sort_by_key(|&(k, _)| k);
        let t = tiny_tree(pairs);
        let dups: Vec<u64> = t.range(42, 42).unwrap().map(|r| r.unwrap().1).collect();
        assert_eq!(dups, (1000..1030).collect::<Vec<u64>>());
        assert_eq!(t.get(42).unwrap(), Some(1000));
    }

    #[test]
    fn range_scan_bounds_inclusive() {
        let t = tiny_tree((0..100u64).map(|k| (k * 2, k * 2)));
        let got: Vec<u64> = t.range(10, 20).unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18, 20]);
        // Bounds not present in the tree.
        let got: Vec<u64> = t.range(11, 19).unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(got, vec![12, 14, 16, 18]);
        // Empty range.
        assert_eq!(t.range(21, 21).unwrap().count(), 0);
    }

    #[test]
    fn traversal_costs_page_reads() {
        // 4 KB pages: 229 entries a leaf, so 10 000 keys fill 44 leaves
        // under one internal root — a tree of height 2.
        let pager = Arc::new(Pager::in_memory(4096, 1024));
        let t = BTree::bulk_load(Arc::clone(&pager), (0..10_000u64).map(|k| (k, k))).unwrap();
        pager.stats().reset();
        assert_eq!(t.get(5000).unwrap(), Some(5000));
        // The root and the leaf on the way down, then the leaf the scan
        // starts in.
        assert_eq!(pager.stats().snapshot().logical_reads, 3);
    }

    #[test]
    fn reopen_from_persisted_root() {
        let pager = Arc::new(Pager::in_memory(128, 64));
        let t = BTree::bulk_load(Arc::clone(&pager), (0..500u64).map(|k| (k, k * 3))).unwrap();
        let (root, len) = (t.root, t.len());
        drop(t);
        let t2 = BTree::open(pager, root, len);
        assert_eq!(t2.get(321).unwrap(), Some(963));
        assert_eq!(t2.len(), 500);
    }
}
