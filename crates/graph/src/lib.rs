//! # smst-graph
//!
//! Graph substrate for the reproduction of *"Fast and compact self-stabilizing
//! verification, computation, and fault detection of an MST"* (Korman, Kutten,
//! Masuzawa).
//!
//! This crate provides everything the distributed algorithms in the sibling
//! crates need from classical (centralized) graph theory:
//!
//! * [`WeightedGraph`] — an undirected, edge-weighted graph with per-node
//!   *port numbers*, matching the paper's network model (§2.1): each node knows
//!   its incident edges only through locally-unique port labels. Built once
//!   by a [`GraphBuilder`], immutable, and shared (not copied) by `clone()`.
//! * [`weight`] — edge weights and the lexicographic *unique-weight*
//!   perturbation ω′ of §2.1 (footnote 1), which makes the MST unique while
//!   preserving "is `T` an MST?" for a *given* candidate tree `T`.
//! * [`generators`] — graph families used by the experiments (random connected
//!   graphs, paths, rings, grids, complete graphs, stars, caterpillars).
//! * [`blowup`] — the edge→path transformation of §9 used by the lower-bound
//!   experiment (Figures 10/11 of the paper).
//! * [`mst`] — reference (centralized) MST algorithms (Kruskal, Prim, Borůvka)
//!   and a union–find, used as ground truth by tests and benches.
//! * [`tree`] — rooted spanning-tree utilities (parent arrays, DFS orders,
//!   subtree sizes, distances).
//! * [`component`] — the distributed representation `H(G)` induced by per-node
//!   parent pointers ("components" in the paper's terminology, §2.1).
//! * [`fragment`] — fragments, laminar families and fragment hierarchies
//!   (Definition 5.1), shared by the marker and the verifier.
//! * [`csr`] — many short lists in two flat arrays, the layout of every
//!   per-node and per-fragment table on the construction path.
//!
//! # Quick example
//!
//! ```
//! use smst_graph::generators::random_connected_graph;
//! use smst_graph::mst::kruskal;
//!
//! let g = random_connected_graph(32, 80, 42);
//! let mst = kruskal(&g);
//! assert_eq!(mst.edges().len(), g.node_count() - 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blowup;
pub mod component;
pub mod csr;
pub mod error;
pub mod fragment;
pub mod generators;
pub mod graph;
pub mod mst;
pub mod tree;
pub mod weight;

pub use component::ComponentMap;
pub use csr::Csr;
pub use error::GraphError;
pub use fragment::{Fragment, FragmentId, Hierarchy};
pub use graph::{EdgeId, GraphBuilder, NodeId, Port, WeightedGraph};
pub use tree::RootedTree;
pub use weight::{CompositeWeight, Weight};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
