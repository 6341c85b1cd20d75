//! # smst-labeling
//!
//! The proof-labeling-scheme (PLS) framework of the paper (§2.4), the warm-up
//! 1-round schemes of §2.6, and the two baselines the evaluation compares
//! against:
//!
//! * [`scheme`] — the marker/verifier interface, instances (`graph` +
//!   distributed candidate `components`), label views and whole-network
//!   verification helpers;
//! * [`sp`] — Example SP: a 1-round scheme proving that `H(G)` is a rooted
//!   spanning tree (plus the parent/child identification remark);
//! * [`kkp`] — the Korman–Kutten style 1-round MST scheme using
//!   `O(log² n)` bits per node (the memory-heavy baseline the paper improves
//!   on);
//! * [`recompute`] — verification from scratch (no labels at all): recompute
//!   the MST and compare, the time-heavy baseline (\[53\], and the behaviour of
//!   the `Ω(n·|E|)`-time self-stabilizing algorithms in Table 1).
//!
//! Examples NumK (every node knows `n`) and EDIAM (every node knows a bound
//! on a tree's height) of §2.6 have no scheme of their own here: their
//! fields (`n_claim`, `subtree_count`, each part's `diameter_bound`) live in
//! `smst_core`'s `CoreLabel`, and `CoreVerifier::structural_ok` checks them
//! inline with Example SP (tested in `smst_core`'s `size` and `ediam`
//! modules).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kkp;
pub mod recompute;
pub mod scheme;
pub mod sp;

pub use scheme::{Instance, LabelView, MarkError, OneRoundScheme, VerificationOutcome};
pub use sp::{SpLabel, SpanningTreeScheme};
