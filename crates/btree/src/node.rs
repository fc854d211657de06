//! On-page node layout and (de)serialization.
//!
//! Every node occupies exactly one page:
//!
//! ```text
//! offset 0   u8   tag            1 = leaf, 2 = internal
//! offset 2   u16  count          number of entries
//! offset 8   u64  link           leaf: next-leaf page id (NIL if last)
//!                                internal: leftmost child page id
//! offset 16  [entry; count]      16-byte entries, key-sorted
//!             entry = (key: u64, val: u64)
//!                                leaf: val is the stored value
//!                                internal: val is the child page id holding
//!                                keys >= key (relative to the previous
//!                                separator)
//! ```
//!
//! All integers are little-endian. Bulk loading writes pages with
//! [`encode`]; every read goes through the borrowed [`NodeView`].

use std::io;

use promips_storage::PageId;

/// Sentinel for "no page" (last leaf's next pointer).
pub const NIL_PAGE: PageId = u64::MAX;

const HEADER_LEN: usize = 16;
const ENTRY_LEN: usize = 16;
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// Maximum number of entries a node can hold for the given page size.
#[inline]
pub fn node_capacity(page_size: usize) -> usize {
    let cap = (page_size - HEADER_LEN) / ENTRY_LEN;
    assert!(
        cap >= 3,
        "page size {page_size} too small for a B+-tree node"
    );
    cap
}

/// Encodes one node into `page`, a whole page, every byte of it: a leaf
/// (`link` = the next leaf's page id or [`NIL_PAGE`]) or an internal node
/// (`link` = the leftmost child; each entry a separator and the child
/// holding keys from it on). Entries are key-sorted; a leaf may repeat a
/// key.
///
/// # Panics
/// Panics if `entries` exceeds [`node_capacity`].
pub(crate) fn encode(page: &mut [u8], leaf: bool, link: PageId, entries: &[(u64, u64)]) {
    let cap = node_capacity(page.len());
    assert!(
        entries.len() <= cap,
        "node overflow: {} > {cap}",
        entries.len()
    );
    page.fill(0);
    page[0] = if leaf { TAG_LEAF } else { TAG_INTERNAL };
    page[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
    page[8..16].copy_from_slice(&link.to_le_bytes());
    for (slot, &(k, v)) in page[HEADER_LEN..].chunks_exact_mut(ENTRY_LEN).zip(entries) {
        slot[..8].copy_from_slice(&k.to_le_bytes());
        slot[8..].copy_from_slice(&v.to_le_bytes());
    }
}

/// Reads entry `i` of an encoded node straight from page bytes, without
/// re-validating the header. Crate-internal fast path for the leaf-chain
/// iterator, which validates each page once (via [`NodeView::parse`]) when
/// it loads it and then reads entries one at a time.
#[inline]
pub(crate) fn entry_at(bytes: &[u8], i: usize) -> (u64, u64) {
    let off = HEADER_LEN + i * ENTRY_LEN;
    (
        u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()),
        u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap()),
    )
}

/// A borrowed, page-backed view of an encoded node, the tree's one
/// reader: the header is parsed on construction, entries are decoded
/// lazily straight from the page, and nothing is allocated. The descend
/// and the leaf-chain range scan ride this view, so a scan over cached
/// pages allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    bytes: &'a [u8],
    count: usize,
    leaf: bool,
    link: PageId,
}

impl<'a> NodeView<'a> {
    /// Parses the node header; entries stay borrowed from `bytes`.
    ///
    /// Returns an error on an unknown tag byte or an entry count that
    /// overruns the page, so a corrupt page surfaces as `io::Error` on read
    /// paths — `parse` is the single validation point the accessors rely
    /// on.
    pub fn parse(bytes: &'a [u8]) -> io::Result<NodeView<'a>> {
        if bytes.len() < HEADER_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "corrupt B+-tree page: {} bytes, header needs 16",
                    bytes.len()
                ),
            ));
        }
        let tag = bytes[0];
        if tag != TAG_LEAF && tag != TAG_INTERNAL {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt B+-tree page: unknown tag {tag}"),
            ));
        }
        let count = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
        if HEADER_LEN + count * ENTRY_LEN > bytes.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "corrupt B+-tree page: {count} entries overrun the {}-byte page",
                    bytes.len()
                ),
            ));
        }
        let link = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        Ok(NodeView {
            bytes,
            count,
            leaf: tag == TAG_LEAF,
            link,
        })
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Leaf: next-leaf page id ([`NIL_PAGE`] for the last leaf).
    /// Internal: leftmost child page id.
    pub fn link(&self) -> PageId {
        self.link
    }

    /// Key of entry `i`.
    #[inline]
    pub fn key(&self, i: usize) -> u64 {
        debug_assert!(i < self.count);
        let off = HEADER_LEN + i * ENTRY_LEN;
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Entry `i` as `(key, value)` (leaf) or `(separator, child)`
    /// (internal).
    #[inline]
    pub fn entry(&self, i: usize) -> (u64, u64) {
        debug_assert!(i < self.count);
        entry_at(self.bytes, i)
    }

    /// Index of the first entry whose key is **not less than** `key`
    /// (binary search over the sorted key column; equivalently the number
    /// of keys `< key`).
    pub fn lower_bound(&self, key: u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

// The unit tests, kept under `tests/` (see that file's header).
#[cfg(test)]
#[path = "../tests/node_unit/mod.rs"]
mod tests;
