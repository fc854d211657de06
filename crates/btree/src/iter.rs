//! Forward range iteration over the leaf chain.

use std::io;
use std::sync::Arc;

use promips_storage::{PageBuf, PageId, Pager};

use crate::node::{entry_at, NodeView, NIL_PAGE};

/// Iterator over `(key, value)` pairs with `lo <= key <= hi`, in key order.
///
/// The iterator holds the current leaf **page** and reads entries straight
/// from it — no per-leaf `Vec` of decoded entries, so range scans allocate
/// nothing once the pages are cached. Every leaf it touches is charged as a
/// page access on the shared pager, mirroring how a disk scan would behave.
pub struct RangeIter {
    pager: Arc<Pager>,
    /// The current leaf page (`None` once the scan is exhausted). Holding
    /// the `Arc` keeps the page alive even if the pool evicts it.
    page: Option<Arc<PageBuf>>,
    /// Entry count of the current leaf (cached from the header).
    count: usize,
    pos: usize,
    next_leaf: PageId,
    lo: u64,
    hi: u64,
    done: bool,
}

impl RangeIter {
    pub(crate) fn new(pager: Arc<Pager>, start_leaf: PageId, lo: u64, hi: u64) -> io::Result<Self> {
        let mut iter = Self {
            pager,
            page: None,
            count: 0,
            pos: 0,
            next_leaf: start_leaf,
            lo,
            hi,
            done: lo > hi,
        };
        if !iter.done {
            iter.load_next_leaf()?;
            // Skip entries below `lo` in the first leaf.
            iter.pos = iter.view().map_or(0, |v| v.lower_bound(lo));
            // The strict-descend rule can land one leaf early when the whole
            // leaf is below `lo`; advance until a usable entry or exhaustion.
            while !iter.done && iter.pos >= iter.count {
                iter.load_next_leaf()?;
                iter.pos = iter.view().map_or(0, |v| v.lower_bound(lo));
            }
        }
        Ok(iter)
    }

    /// The borrowed view of the current leaf page, if any.
    fn view(&self) -> Option<NodeView<'_>> {
        self.page
            .as_deref()
            .map(|p| NodeView::parse(p.as_slice()).expect("leaf page validated on load"))
    }

    fn load_next_leaf(&mut self) -> io::Result<()> {
        if self.next_leaf == NIL_PAGE {
            self.done = true;
            self.page = None;
            self.count = 0;
            self.pos = 0;
            return Ok(());
        }
        let page = self.pager.read(self.next_leaf)?;
        let view = NodeView::parse(page.as_slice())?;
        if !view.is_leaf() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "leaf chain pointed at an internal node",
            ));
        }
        self.count = view.len();
        self.next_leaf = view.link();
        self.pos = 0;
        self.page = Some(page);
        Ok(())
    }
}

impl Iterator for RangeIter {
    type Item = io::Result<(u64, u64)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.done {
                return None;
            }
            if self.pos < self.count {
                // The page was validated by NodeView::parse when it was
                // loaded; read the entry directly instead of re-parsing
                // the header for every yielded pair.
                let page = self.page.as_deref().expect("position within a loaded leaf");
                let (k, v) = entry_at(page.as_slice(), self.pos);
                if k > self.hi {
                    self.done = true;
                    return None;
                }
                self.pos += 1;
                debug_assert!(k >= self.lo);
                return Some(Ok((k, v)));
            }
            if let Err(e) = self.load_next_leaf() {
                self.done = true;
                return Some(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BTree;

    /// `pairs` bulk-loaded on 64-byte pages (two entries a leaf).
    fn tiny_tree(pager: Arc<Pager>, pairs: impl IntoIterator<Item = (u64, u64)>) -> BTree {
        BTree::bulk_load(pager, pairs).unwrap()
    }

    #[test]
    fn iterates_across_many_leaves() {
        let t = tiny_tree(
            Arc::new(Pager::in_memory(64, 1024)),
            (0..64u64).map(|k| (k, k)),
        );
        let all: Vec<u64> = t.scan_all().unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(all, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_range_yields_nothing() {
        let t = tiny_tree(
            Arc::new(Pager::in_memory(64, 1024)),
            (0..10u64).map(|k| (k * 10, k)),
        );
        assert_eq!(t.range(91, 95).unwrap().count(), 0);
        assert_eq!(t.range(5, 4).unwrap().count(), 0); // inverted bounds
    }

    #[test]
    fn range_starting_past_last_key() {
        let t = tiny_tree(
            Arc::new(Pager::in_memory(64, 1024)),
            (0..20u64).map(|k| (k, k)),
        );
        assert_eq!(t.range(100, u64::MAX).unwrap().count(), 0);
    }

    #[test]
    fn iteration_survives_cache_eviction_mid_scan() {
        // A pool of 2 pages guarantees the current leaf is evicted while
        // the iterator still holds it; the held Arc must keep it readable.
        let t = tiny_tree(
            Arc::new(Pager::in_memory(64, 2)),
            (0..128u64).map(|k| (k, k * 2)),
        );
        let got: Vec<(u64, u64)> = t.scan_all().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), 128);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, &(k, v))| { k == i as u64 && v == 2 * i as u64 }));
    }
}
