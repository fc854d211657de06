//! Synthetic stand-ins for the four evaluation datasets of the ProMIPS
//! paper (Table III), plus query sampling, exact ground truth and vector
//! file IO.
//!
//! The real datasets (Netflix, Yahoo! Music, P53 mutants, SIFT10M) are not
//! redistributable in this environment, so each is replaced by a seeded
//! generator that reproduces the properties MIPS difficulty actually
//! depends on — dimensionality, scale, and the norm/inner-product
//! distribution shape:
//!
//! | paper dataset | n | d | generator |
//! |---|---|---|---|
//! | Netflix | 17,770 | 300 | [`DatasetSpec::netflix`] — PureSVD-style latent factors, log-normal popularity |
//! | Yahoo  | 624,961 | 300 | [`DatasetSpec::yahoo`] — same family, larger scale |
//! | P53    | 31,420 | 5,408 | [`DatasetSpec::p53`] — block-correlated heavy-tailed biophysical features |
//! | Sift   | 11,164,866 | 128 | [`DatasetSpec::sift`] — non-negative gradient-histogram vectors |
//!
//! Paper-scale `n` is the default *spec* value; experiments run a
//! `scale(...)`-reduced version by default so the whole suite executes on a
//! laptop, and the scale factor is recorded in every experiment report.

pub mod dataset;
pub mod gen;
pub mod ground_truth;
pub mod io;

pub use dataset::{Dataset, DatasetKind, DatasetSpec};
pub use ground_truth::{exact_topk, exact_topk_batch, GroundTruth};
