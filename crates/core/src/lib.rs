//! # smst-core
//!
//! The paper's primary contribution: a memory-optimal (`O(log n)` bits per
//! node) self-stabilizing proof labeling scheme for MST with polylogarithmic
//! detection time, together with the `O(n)`-time, `O(log n)`-memory
//! synchronous MST construction (SYNC_MST) that doubles as its distributed
//! marker.
//!
//! Module map (mirroring the paper's sections):
//!
//! * [`sync_mst`] — §4: the synchronous fragment-merging construction; it
//!   produces the MST, the hierarchy of *active* fragments and the candidate
//!   (minimum outgoing) edges, with ideal-time and memory accounting.
//! * [`strings`] — §5: the `Roots` / `EndP` / `Parents` / `Or-EndP` strings
//!   that represent the hierarchy and candidate function distributively, and
//!   their local legality conditions RS0–RS5 and EPS0–EPS5.
//! * [`partition`] — §6: top/bottom fragments, the red/blue/large colouring,
//!   the `Top` and `Bottom` partitions (one pair, `Partitions::parts`,
//!   indexed by [`labels::TOP`] and [`labels::BOTTOM`] like a label's
//!   parts), and the placement of the pieces of information `I(F)` on the
//!   nodes of each part, both partitions at once; each part's piece list is
//!   made of the labels' cells.
//! * [`labels`] — the complete `O(log n)`-bit node label and its bit
//!   accounting, and [`labels::PieceCell`], the one type of a piece `I(F)`
//!   from the piece lists through the labels and the train buffers to the
//!   comparison.
//! * [`marker`] — §5.4 / §6.3: the marker algorithm assigning the labels,
//!   with its `O(n)` construction-time accounting.
//! * [`train`] — §7.1: the per-part *train* circulating a part's pieces past
//!   its members, read through one node's view of one part.
//! * [`compare`] — §7.2: the comparison walking a node's levels and
//!   neighbours with the Ask/Show/Want mechanism, and the checks of each
//!   event `E(v, u, j)`: the minimality checks C1/C2 and Claim 8.3's
//!   equality checks.
//! * [`verifier`] — §7–§8: the self-stabilizing verifier, implemented as a
//!   [`smst_sim::NodeProgram`]: structural 1-round checks and the wiring of
//!   the two trains and of the comparison.
//! * [`faults`] — corruption helpers used by the fault-detection experiments.
//! * [`scheme`] — a facade tying marker and verifier together and the
//!   experiment drivers (detection time, detection distance).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod faults;
pub mod labels;
pub mod marker;
pub mod partition;
pub mod scheme;
pub mod strings;
pub mod sync_mst;
pub mod train;
pub mod verifier;

// Examples NumK and EDIAM (§2.6) are checked inline by the verifier; these
// modules hold their tests.
#[cfg(test)]
mod ediam;
#[cfg(test)]
mod size;

pub use labels::CoreLabel;
pub use marker::{ConstructionReport, Marker};
pub use scheme::MstVerificationScheme;
pub use sync_mst::{SyncMst, SyncMstOutcome};
pub use verifier::{CoreState, CoreUpdate, CoreVerifier};
