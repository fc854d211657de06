//! A page-based disk B+-tree: the substrate of the H2-ALSH baseline, whose
//! QALSH index keeps one bulk-loaded tree per hash function over
//! real-valued hash keys (mapped to ordered `u64`s by [`f64_to_key`]).
//!
//! ProMIPS's own iDistance index keys sub-partitions, not points, so its
//! in-memory directory is already the sorted key column and it keeps no
//! tree (see `promips_idistance`).
//!
//! Characteristics:
//! * keys are `u64`, values are `u64`, duplicate keys allowed;
//! * nodes are exactly one storage page; fan-out derives from the page size;
//! * all reads go through a [`promips_storage::Pager`], so tree traversals
//!   are charged to the paper's Page Access metric;
//! * built once, bottom-up, from key-sorted pairs ([`BTree::bulk_load`]);
//!   nothing is added after the load;
//! * point lookups and forward range scans over leaf chaining.

mod bulk;
mod codec;
mod iter;
mod node;
mod tree;

pub use codec::f64_to_key;
pub use iter::RangeIter;
pub use tree::BTree;
