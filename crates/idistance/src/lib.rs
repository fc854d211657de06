//! The lightweight iDistance index with ProMIPS's partition pattern.
//!
//! Standard iDistance (Jagadish et al., TODS 2005) partitions space around
//! reference points and maps every point to the one-dimensional key
//! `i·C + dis(p, Oi)`, indexed by a B+-tree. Section VI of the ProMIPS paper
//! refines this with a **two-stage pattern**:
//!
//! 1. `kp`-means clusters the projected points into partitions with centers
//!    `Oi` and radii `ri`;
//! 2. each partition is cut into `Nkey` rings of width `ε = r_avg / Nkey`,
//!    and a point's key is `I(p) = ⌊i·C + dis(p, Oi)/ε⌋` (Formula 6);
//! 3. the points of each ring are further clustered into `ksp`
//!    **sub-partitions** via k-means; each sub-partition keeps a pivot and a
//!    radius and its points are laid out **contiguously on disk**, so a
//!    range query can discard whole sub-partitions with one sphere test and
//!    read surviving ones sequentially.
//!
//! The index stores the projected (m-dim) vectors and the original (d-dim)
//! vectors in parallel blobs in sub-partition order, all inside one paged
//! file together with the directory — the paper's "lightweight index".
//!
//! The paper keys every *point* and puts the keys in a B+-tree. Here a key
//! belongs to a *sub-partition* (all of a ring's points share it), so there
//! are only as many keys as sub-partitions — 1 148 on a 100 000-row index —
//! and the in-memory directory, which lists the sub-partitions in key
//! order, is already the sorted key column: a range query finds its keys
//! with two binary searches over it and reads no index page.
//! [`IDistanceIndex::open`] refuses a directory that is not in key order.
//!
//! # File layout
//!
//! Three packed regions (records never page-aligned, so adjacent
//! sub-partitions share pages), in sub-partition order, then the directory
//! blob and the footer:
//!
//! | region | record | bytes |
//! |---|---|---|
//! | projected | point id + projected vector | `8 + 4m` |
//! | original | the f32 row | `4d` |
//! | verification codes (optional) | SQ8 of the coded row | `w` |
//!
//! The annulus scan reads the projected records of every sub-partition the
//! key range and the sphere filter keep, each whole and once; no code
//! filters them first.
//!
//! The verification code width `w` ([`IDistanceIndex::code_width`]) is
//! chosen per index at build time ([`head`]): `d`, the row itself, unless
//! the rows' energy sits in few directions — then the coded row is the
//! **head** `Vo` under an `h × d` orthonormal basis `V` and `w = h`, the
//! smallest multiple of 64 up to `min(d/2, 256)` that leaves at most 2 % of
//! a sample's energy outside its span (64-byte rows: a 4 KB page holds 64
//! of them and none straddles a page). Each sub-partition's [`meta::OrigQuant`]
//! then also carries `tail`, the largest `‖o − Vᵀ(Vo)‖` among its rows,
//! which is what lets the screen bound the coordinates it never reads, and
//! `suffix_norm`, the largest norm of a head's second half. A head's codes
//! are three columns in the one region: every row's `h/2`-byte prefix
//! (codes `0..h/2`), every row's `h/2`-byte suffix, then every row's
//! one-byte **suffix-norm code** `⌈255·‖(Vo)_{h/2..h}‖/suffix_norm⌉`
//! ([`head::suffix_code`]) — `n·(h + 1)` bytes. The column pass sweeps the
//! prefixes, reads the norm codes whole to bound each row by its own
//! suffix norm, and reads a suffix only where its walk looks.
//!
//! The directory blob holds the partition and sub-partition metadata, the
//! verification region `(start page, byte length)` and its quantizers
//! `(off, scale, min, err, xnorm)`, and — only for head codes — `h: u32`,
//! the basis defect `δ: f32`, the basis length `h·d: u32`, the `h·d` basis
//! floats, and `tail: f32` and `suffix_norm: f32` per sub-partition; the
//! footer's magic says which ([`IDistanceIndex::open`] refuses a head under
//! the full-width magic, the magic of the two columns without norm codes,
//! both magics of the format that also carried SQ8 codes of the projected
//! rows, and both of the format that also carried a B+-tree over the
//! sub-partition keys). `open` refuses a basis whose length
//! disagrees with `d·h` and a code region whose length disagrees with
//! `n·d`, or `n·(h + 1)` for heads.
//!
//! Two search primitives are exposed:
//! * [`IDistanceIndex::range_candidates`] — annulus range search in the
//!   projected space (drives MIP-Search-II / Quick-Probe);
//! * [`IDistanceIndex::nn_iter`] — exact incremental nearest-neighbour
//!   iteration, best-first over sub-partition bounds (drives MIP-Search-I).

pub mod build;
pub mod config;
pub mod head;
pub mod index;
pub mod knn;
pub mod layout;
pub mod meta;

pub use build::build_index;
pub use config::IDistanceConfig;
pub use head::HeadBasis;
pub use index::{
    footer_span_pages, IDistanceIndex, IdCursor, OrigCursor, ProjScratch, RangeCandidate,
    SuffixCursor,
};
pub use knn::NnIter;
