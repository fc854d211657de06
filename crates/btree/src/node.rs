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
//! All integers are little-endian. Bulk loading encodes the owned [`Node`];
//! reads go through the borrowed [`NodeView`].

use std::io;

use promips_storage::{PageBuf, PageId};

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

/// A decoded node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Leaf: sorted `(key, value)` pairs plus the next-leaf link.
    Leaf {
        /// Sorted entries; duplicates permitted.
        entries: Vec<(u64, u64)>,
        /// Page id of the next leaf in key order, or [`NIL_PAGE`].
        next: PageId,
    },
    /// Internal: leftmost child plus sorted `(separator, child)` pairs.
    Internal {
        /// Child for keys below the first separator.
        leftmost: PageId,
        /// Sorted separators with their right-hand children.
        entries: Vec<(u64, PageId)>,
    },
}

impl Node {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { entries, .. } => entries.len(),
        }
    }

    /// Serializes into a fresh page buffer of `page_size` bytes.
    ///
    /// # Panics
    /// Panics if the node exceeds [`node_capacity`].
    pub fn encode(&self, page_size: usize) -> PageBuf {
        let cap = node_capacity(page_size);
        assert!(self.len() <= cap, "node overflow: {} > {cap}", self.len());
        let mut page = PageBuf::zeroed(page_size);
        let buf = page.as_mut_slice();
        match self {
            Node::Leaf { entries, next } => {
                buf[0] = TAG_LEAF;
                buf[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                buf[8..16].copy_from_slice(&next.to_le_bytes());
                for (i, &(k, v)) in entries.iter().enumerate() {
                    let off = HEADER_LEN + i * ENTRY_LEN;
                    buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
                    buf[off + 8..off + 16].copy_from_slice(&v.to_le_bytes());
                }
            }
            Node::Internal { leftmost, entries } => {
                buf[0] = TAG_INTERNAL;
                buf[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                buf[8..16].copy_from_slice(&leftmost.to_le_bytes());
                for (i, &(k, c)) in entries.iter().enumerate() {
                    let off = HEADER_LEN + i * ENTRY_LEN;
                    buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
                    buf[off + 8..off + 16].copy_from_slice(&c.to_le_bytes());
                }
            }
        }
        page
    }

    /// Decodes a node from page bytes.
    ///
    /// # Panics
    /// Panics on an unknown tag byte (corrupt page).
    pub fn decode(bytes: &[u8]) -> Node {
        let tag = bytes[0];
        let count = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
        let link = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let off = HEADER_LEN + i * ENTRY_LEN;
            let k = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
            let v = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
            entries.push((k, v));
        }
        match tag {
            TAG_LEAF => Node::Leaf {
                entries,
                next: link,
            },
            TAG_INTERNAL => Node::Internal {
                leftmost: link,
                entries,
            },
            other => panic!("corrupt B+-tree page: unknown tag {other}"),
        }
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

/// A borrowed, page-backed view of an encoded node.
///
/// [`Node::decode`] materializes an owned `Vec` of entries — a heap
/// allocation per node. `NodeView` borrows the page bytes instead: the
/// header is parsed on construction, entries are decoded lazily straight
/// from the page, and nothing is allocated. The descend and the leaf-chain
/// range scan ride this view, so a scan over cached pages allocates
/// nothing.
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
    /// Returns an error (instead of [`Node::decode`]'s panic) on an unknown
    /// tag byte or an entry count that overruns the page, so a corrupt
    /// page surfaces as `io::Error` on read paths — `parse` is the single
    /// validation point the accessors rely on.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_for_standard_pages() {
        assert_eq!(node_capacity(4096), 255);
        assert_eq!(node_capacity(65536), 4095);
        assert_eq!(node_capacity(64), 3);
    }

    #[test]
    #[should_panic]
    fn capacity_rejects_tiny_pages() {
        node_capacity(32);
    }

    #[test]
    fn leaf_roundtrip() {
        let node = Node::Leaf {
            entries: vec![(1, 10), (5, 50), (5, 51), (9, 90)],
            next: 77,
        };
        let page = node.encode(4096);
        assert_eq!(Node::decode(page.as_slice()), node);
    }

    #[test]
    fn internal_roundtrip() {
        let node = Node::Internal {
            leftmost: 3,
            entries: vec![(100, 4), (200, 5)],
        };
        let page = node.encode(4096);
        assert_eq!(Node::decode(page.as_slice()), node);
    }

    #[test]
    fn empty_leaf_roundtrip() {
        // What bulk loading writes for an empty input.
        let node = Node::Leaf {
            entries: Vec::new(),
            next: NIL_PAGE,
        };
        let page = node.encode(256);
        let decoded = Node::decode(page.as_slice());
        assert_eq!(decoded, node);
        assert_eq!(decoded.len(), 0);
        let view = NodeView::parse(page.as_slice()).unwrap();
        assert!(view.is_leaf());
        assert_eq!(view.len(), 0);
    }

    #[test]
    fn full_node_roundtrip() {
        let cap = node_capacity(256);
        let entries: Vec<(u64, u64)> = (0..cap as u64).map(|i| (i * 3, i)).collect();
        let node = Node::Leaf {
            entries,
            next: NIL_PAGE,
        };
        let page = node.encode(256);
        assert_eq!(Node::decode(page.as_slice()), node);
    }

    #[test]
    fn view_agrees_with_owned_decode() {
        let node = Node::Leaf {
            entries: vec![(1, 10), (5, 50), (5, 51), (9, 90)],
            next: 77,
        };
        let page = node.encode(4096);
        let view = NodeView::parse(page.as_slice()).unwrap();
        assert!(view.is_leaf());
        assert_eq!(view.len(), 4);
        assert_eq!(view.link(), 77);
        for (i, &(k, v)) in [(1u64, 10u64), (5, 50), (5, 51), (9, 90)]
            .iter()
            .enumerate()
        {
            assert_eq!(view.entry(i), (k, v));
            assert_eq!(view.key(i), k);
        }

        let internal = Node::Internal {
            leftmost: 3,
            entries: vec![(100, 4), (200, 5)],
        };
        let page = internal.encode(4096);
        let view = NodeView::parse(page.as_slice()).unwrap();
        assert!(!view.is_leaf());
        assert_eq!(view.link(), 3);
        assert_eq!(view.entry(1), (200, 5));
    }

    #[test]
    fn view_bounds_match_partition_point() {
        let entries: Vec<(u64, u64)> = vec![(2, 0), (4, 1), (4, 2), (4, 3), (9, 4), (12, 5)];
        let node = Node::Leaf {
            entries: entries.clone(),
            next: NIL_PAGE,
        };
        let page = node.encode(4096);
        let view = NodeView::parse(page.as_slice()).unwrap();
        for probe in 0..15u64 {
            assert_eq!(
                view.lower_bound(probe),
                entries.partition_point(|&(k, _)| k < probe),
                "lower_bound({probe})"
            );
        }
    }

    #[test]
    fn view_rejects_corrupt_tag() {
        let mut page = PageBuf::zeroed(256);
        page.as_mut_slice()[0] = 9; // neither leaf nor internal
        assert!(NodeView::parse(page.as_slice()).is_err());
    }

    #[test]
    fn view_rejects_overrunning_count() {
        // Bit-rotted count: header says 0xFFFF entries on a 256-byte page.
        let mut page = PageBuf::zeroed(256);
        page.as_mut_slice()[0] = 1; // leaf
        page.as_mut_slice()[2] = 0xFF;
        page.as_mut_slice()[3] = 0xFF;
        assert!(NodeView::parse(page.as_slice()).is_err());
        // And a buffer shorter than the header.
        assert!(NodeView::parse(&[1u8, 0, 0]).is_err());
    }

    #[test]
    #[should_panic]
    fn encode_rejects_overflow() {
        let cap = node_capacity(64);
        let entries: Vec<(u64, u64)> = (0..=cap as u64).map(|i| (i, i)).collect();
        Node::Leaf {
            entries,
            next: NIL_PAGE,
        }
        .encode(64);
    }
}
