//! Bottom-up bulk loading.
//!
//! Every tree is built once from keys known in advance (QALSH sorts each
//! hash function's values before loading them), so it is built a level at
//! a time with full pages and no splits, and written once, front to back:
//! the leaves in key order, then each internal level, the root last. Every
//! page is appended at the end of the file ([`Pager::append_run`]); none is
//! read back or rewritten.

use std::io;
use std::sync::Arc;

use promips_storage::{PageId, Pager};

use crate::node::{encode, node_capacity, NIL_PAGE};
use crate::tree::BTree;

/// Leaf fill factor. QALSH's page counts and the benchmark's `btree.*`
/// figures follow it.
const FILL: f64 = 0.9;

/// Builds a [`BTree`] from key-sorted `(key, value)` pairs.
///
/// # Panics
/// Panics if the input is not sorted by key (checked while streaming), or
/// if another writer appends to the pager's file during the load.
pub fn bulk_load(
    pager: Arc<Pager>,
    sorted: impl IntoIterator<Item = (u64, u64)>,
) -> io::Result<BTree> {
    let page_size = pager.page_size();
    let cap = node_capacity(page_size);
    let per_leaf = ((cap as f64 * FILL) as usize).clamp(1, cap);
    let mut page = vec![0u8; page_size];

    // --- Level 0. A full leaf is held back until the next key shows that
    // another leaf follows it, on the very next page. -------------------
    let mut level: Vec<(u64, PageId)> = Vec::new(); // (first key, page id)
    let mut leaf: Vec<(u64, u64)> = Vec::with_capacity(per_leaf);
    let mut total: u64 = 0;
    let mut last_key: Option<u64> = None;
    for (k, v) in sorted {
        if let Some(prev) = last_key {
            assert!(prev <= k, "bulk_load input not sorted: {prev} then {k}");
        }
        last_key = Some(k);
        total += 1;
        if leaf.len() == per_leaf {
            let id = append_node(&pager, &mut page, true, |id| id + 1, &leaf)?;
            level.push((leaf[0].0, id));
            leaf.clear();
        }
        leaf.push((k, v));
    }
    // The last leaf ends the chain (an empty input's tree is one empty leaf).
    let id = append_node(&pager, &mut page, true, |_| NIL_PAGE, &leaf)?;
    level.push((leaf.first().map_or(0, |e| e.0), id));

    // --- Upper levels: up to cap + 1 children a node. -------------------
    while level.len() > 1 {
        level = level
            .chunks(cap + 1)
            .map(|chunk| {
                let (first_key, leftmost) = chunk[0];
                let id = append_node(&pager, &mut page, false, |_| leftmost, &chunk[1..])?;
                Ok((first_key, id))
            })
            .collect::<io::Result<_>>()?;
    }

    let root = level[0].1;
    Ok(BTree::open(pager, root, total))
}

/// Appends one node at the end of the pager's file and returns its page
/// id; `link` maps that id to the node's link (see [`encode`]).
fn append_node(
    pager: &Pager,
    page: &mut [u8],
    leaf: bool,
    link: impl FnOnce(PageId) -> PageId,
    entries: &[(u64, u64)],
) -> io::Result<PageId> {
    let id = pager.num_pages();
    encode(page, leaf, link(id), entries);
    let at = pager.append_run(page)?;
    assert_eq!(at, id, "another writer appended to the file mid-load");
    Ok(id)
}

// The unit tests, kept under `tests/` (see that file's header).
#[cfg(test)]
#[path = "../tests/bulk_unit/mod.rs"]
mod tests;
