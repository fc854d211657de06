//! The node codec's unit tests. Compiled into the library's unit-test
//! binary (`src/node.rs` includes this file by path), so they sit outside
//! the `src` line budget while the suite still names them
//! `node::tests::…`; they reach the crate-private encoder.

use super::*;

/// `entries` encoded into a zeroed-then-dirtied page of `page_size` bytes.
fn encoded(page_size: usize, leaf: bool, link: PageId, entries: &[(u64, u64)]) -> Vec<u8> {
    // Every byte is written: stale bytes of a reused buffer never leak.
    let mut page = vec![0xEE; page_size];
    encode(&mut page, leaf, link, entries);
    page
}

/// Parses `page` and checks it reads back as `(leaf, link, entries)`.
fn assert_reads_back(page: &[u8], leaf: bool, link: PageId, entries: &[(u64, u64)]) {
    let view = NodeView::parse(page).unwrap();
    assert_eq!(view.is_leaf(), leaf);
    assert_eq!(view.link(), link);
    assert_eq!(view.len(), entries.len());
    for (i, &(k, v)) in entries.iter().enumerate() {
        assert_eq!(view.entry(i), (k, v), "entry {i}");
        assert_eq!(view.key(i), k, "key {i}");
    }
    let used = HEADER_LEN + entries.len() * ENTRY_LEN;
    assert!(page[1..2].iter().chain(&page[4..8]).all(|&b| b == 0));
    assert!(
        page[used..].iter().all(|&b| b == 0),
        "bytes past the entries"
    );
}

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
    let entries = [(1, 10), (5, 50), (5, 51), (9, 90)];
    let page = encoded(4096, true, 77, &entries);
    assert_reads_back(&page, true, 77, &entries);
}

#[test]
fn internal_roundtrip() {
    let entries = [(100, 4), (200, 5)];
    let page = encoded(4096, false, 3, &entries);
    assert_reads_back(&page, false, 3, &entries);
}

#[test]
fn empty_leaf_roundtrip() {
    // What bulk loading writes for an empty input.
    let page = encoded(256, true, NIL_PAGE, &[]);
    assert_reads_back(&page, true, NIL_PAGE, &[]);
}

#[test]
fn full_node_roundtrip() {
    let cap = node_capacity(256);
    let entries: Vec<(u64, u64)> = (0..cap as u64).map(|i| (i * 3, i)).collect();
    let page = encoded(256, true, NIL_PAGE, &entries);
    assert_reads_back(&page, true, NIL_PAGE, &entries);
}

#[test]
fn view_bounds_match_partition_point() {
    let entries: Vec<(u64, u64)> = vec![(2, 0), (4, 1), (4, 2), (4, 3), (9, 4), (12, 5)];
    let page = encoded(4096, true, NIL_PAGE, &entries);
    let view = NodeView::parse(&page).unwrap();
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
    let mut page = [0u8; 256];
    page[0] = 9; // neither leaf nor internal
    assert!(NodeView::parse(&page).is_err());
}

#[test]
fn view_rejects_overrunning_count() {
    // Bit-rotted count: header says 0xFFFF entries on a 256-byte page.
    let mut page = [0u8; 256];
    page[0] = 1; // leaf
    page[2] = 0xFF;
    page[3] = 0xFF;
    assert!(NodeView::parse(&page).is_err());
    // And a buffer shorter than the header.
    assert!(NodeView::parse(&[1u8, 0, 0]).is_err());
}

#[test]
#[should_panic]
fn encode_rejects_overflow() {
    let cap = node_capacity(64);
    let entries: Vec<(u64, u64)> = (0..=cap as u64).map(|i| (i, i)).collect();
    encoded(64, true, NIL_PAGE, &entries);
}
