//! The marker algorithm (§5.4, §6.3): assigning the `O(log n)`-bit labels in
//! `O(n)` time.
//!
//! For a correct instance (the candidate subgraph is an MST) the marker
//!
//! 1. re-runs SYNC_MST under the ω′ ordering of the candidate tree, which
//!    reconstructs exactly that tree and records the hierarchy `H_M` of
//!    active fragments and the candidate function `χ_M` (§5.1);
//! 2. derives the `Roots`/`EndP`/`Parents`/`Or-EndP` strings (§5.2–§5.3);
//! 3. builds the `Top`/`Bottom` partitions and places the pieces `I(F)` on
//!    the parts' nodes (§6), at most two per node and part, and two in total
//!    wherever such a placement exists;
//! 4. emits one [`CoreLabel`] per node.
//!
//! In the paper the label assignment is piggybacked on the construction's
//! waves (Lemma 5.4, Corollary 6.11), adding only a constant factor to the
//! `O(n)` construction time; the [`ConstructionReport`] accounts for the
//! construction rounds plus that linear marker overhead.
//!
//! Those `O(n)` are the paper's ideal rounds. The centralized computation of
//! the same labels here takes `O((n + m) log n)` wall time: SYNC_MST's
//! `⌈log n⌉ + 1` phases, then `O(log n)` work per node — its hierarchy chain
//! ([`smst_graph::Hierarchy::fragments_containing`], a row of one flat
//! table) and its `ℓ + 1` string symbols; each part then writes its fields
//! into its nodes' labels in one pass over its nodes and one over its piece
//! holders. The candidate tree is rooted once; SYNC_MST reads its edge set
//! and root, and the tree SYNC_MST rebuilds, which has the same parents and
//! depths, is the one tree kept: the SP fields, the strings and the parts
//! are read off it and written straight into the labels.
//!
//! Allocation is per stage, never per fragment, part, node or level. The
//! tree, the hierarchy, SYNC_MST's state and the partitions are flat tables
//! narrowed to what they index: 32-bit node, fragment and edge indices,
//! bytes for levels and depths. The labels are allocated before that
//! scratch, so that the scratch is freed above them rather than pinned
//! beneath them. At n = 8 000 (`random_connected_graph(8000, 24000, 7)`)
//! the marker makes 450 allocations and its live heap peaks 3.87 MiB above
//! its start, 2.8 times the 1.40 MiB of labels it returns; with a `Vec` per fragment and
//! four per part it made 27 345 and peaked 6.50 MiB above. At n = 512 it
//! makes 298 (2 231, and 10 792 with `Vec`s per node and `BTreeSet`s per
//! fragment). Every stage visits fragments in SYNC_MST's
//! canonical order (ascending smallest node) and nodes in index order, so
//! [`Marker::label`] is a pure function of the instance: two calls, in one
//! process or two, return identical labels.

use crate::labels::{narrow, CoreLabel, PartLabel, SpCell, MAX_FIELD};
use crate::partition::{build_partitions, Partitions, Parts};
use crate::strings::{write_strings, NodeStrings};
use crate::sync_mst::{SyncMst, SyncMstOutcome};
use smst_graph::mst::by_composite_weight;
use smst_graph::{EdgeId, WeightedGraph};
use smst_labeling::scheme::{Instance, MarkError};
use smst_labeling::sp::SpanningTreeScheme;

/// The marker's full output: the labels, the time/memory accounting, and
/// the internal structures (SYNC_MST outcome and partitions) tests and
/// fault injectors inspect.
pub type LabeledInternals = (
    Vec<CoreLabel>,
    ConstructionReport,
    (SyncMstOutcome, Partitions),
);

/// Ideal-time accounting of the construction + marking process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstructionReport {
    /// Rounds used by SYNC_MST itself (Theorem 4.4: `O(n)`).
    pub construction_rounds: u64,
    /// Rounds charged to the label-assignment waves (multi-wave piece
    /// distribution and partition construction, §6.3: `O(n)`).
    pub marker_rounds: u64,
    /// The height of the hierarchy (`ℓ ≤ ⌈log n⌉`).
    pub hierarchy_height: u32,
    /// Memory bits per node used during construction and marking.
    pub memory_bits_per_node: u64,
    /// The most pieces `I(F)` one node stores, over both of its parts: at
    /// most two per part, so never above 4, and 2 wherever a placement of two
    /// per node exists (the benchmark's instances; 3 at one node of the
    /// 10⁶-node pipeline).
    pub max_stored_pieces: u32,
}

impl ConstructionReport {
    /// Total construction time (construction + marking).
    pub fn total_rounds(&self) -> u64 {
        self.construction_rounds + self.marker_rounds
    }
}

/// The marker algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Marker;

impl Marker {
    /// Creates the marker.
    pub fn new() -> Self {
        Marker
    }

    /// Labels a correct instance.
    ///
    /// # Errors
    ///
    /// Returns [`MarkError::PredicateViolated`] if the candidate subgraph is
    /// not an MST (in particular if it is not even a spanning tree), and
    /// [`MarkError::MalformedInstance`] if an identity, a weight or the node
    /// count exceeds the registers' 32-bit fields ([`MAX_FIELD`]).
    pub fn label(
        &self,
        instance: &Instance,
    ) -> Result<(Vec<CoreLabel>, ConstructionReport), MarkError> {
        let (labels, report, _) = self.label_with_internals(instance)?;
        Ok((labels, report))
    }

    /// Like [`Self::label`] but also returns the internal structures
    /// (hierarchy outcome and partitions), used by tests and by the fault
    /// injectors.
    ///
    /// # Errors
    ///
    /// As [`Self::label`].
    pub fn label_with_internals(&self, instance: &Instance) -> Result<LabeledInternals, MarkError> {
        let g = &instance.graph;
        fits_the_registers(g.node_count(), g.max_id(), g.max_weight())?;
        // The candidate tree `T` is an MST iff it is the unique MST under ω′
        // with `T`'s indicator, which is the tree SYNC_MST builds: the
        // construction doubles as the predicate check.
        let not_an_mst = || MarkError::PredicateViolated("candidate subgraph is not an MST".into());
        // the labels are taken before the scratch that computes them, so
        // that the scratch, freed when the labels are done, lies above them
        let labels = Vec::with_capacity(g.node_count());
        let tree = instance.candidate_tree().map_err(|_| not_an_mst())?;
        // SYNC_MST reads the candidate tree's edge set and root, and the
        // check below its edge set: one byte per edge, not the rooted tree
        let in_tree: Vec<bool> = (0..g.edge_count())
            .map(|e| tree.contains_edge(EdgeId(e)))
            .collect();
        let root = tree.root();
        drop(tree);
        let order = by_composite_weight(g, |e| in_tree[e.index()]);
        let outcome = SyncMst.run_in_order(g, order, Some(root));
        let mut rebuilt = g.nodes().filter_map(|v| outcome.tree.parent_edge(v));
        if !rebuilt.all(|e| in_tree[e.index()]) {
            return Err(not_an_mst());
        }
        // the rebuilt tree has the candidate's edges and root, so the same
        // parents and depths as the candidate tree
        drop(in_tree);
        Ok(assemble(g, outcome, labels))
    }
}

/// Refuses an instance whose node count, identities or weights exceed the
/// registers' 32-bit fields ([`MAX_FIELD`]).
fn fits_the_registers(
    node_count: usize,
    max_id: Option<u64>,
    max_weight: Option<u64>,
) -> Result<(), MarkError> {
    if node_count as u64 > MAX_FIELD || max_id > Some(MAX_FIELD) || max_weight > Some(MAX_FIELD) {
        return Err(MarkError::MalformedInstance(format!(
            "the node count, identities and weights must fit in 32 bits ({node_count} nodes, largest identity {max_id:?}, largest weight {max_weight:?})"
        )));
    }
    Ok(())
}

/// The labels of the candidate tree, which SYNC_MST rebuilt as `outcome`,
/// with the report and the internals they were read from.
///
/// `labels` arrives empty; [`Marker::label_with_internals`] reserves its
/// room for `n` labels before any scratch exists, so that the scratch is
/// freed above the labels, not pinned beneath them. A label starts from its node's own fields,
/// the SP fields among them; the strings are then written into the labels,
/// and each part writes its fields into the labels of its nodes, so no node
/// searches its parts. The partitions are read while the labels are filled
/// and are returned with them.
fn assemble(
    g: &WeightedGraph,
    outcome: SyncMstOutcome,
    mut labels: Vec<CoreLabel>,
) -> LabeledInternals {
    let (tree, hierarchy) = (&outcome.tree, &outcome.hierarchy);
    let partitions = build_partitions(g, tree, hierarchy);
    let n = g.node_count();

    let unwritten = PartLabel {
        part_root_id: 0,
        depth_in_part: 0,
        diameter_bound: 0,
        piece_count: 0,
        stored: [None; 2],
    };
    labels.extend(g.nodes().map(|v| {
        // the chain is level-sorted, so its first top fragment has the
        // smallest level
        let top_min_level = (hierarchy.fragments_containing(v))
            .find(|&i| partitions.is_top[i])
            .map_or(0, |i| hierarchy.fragment(i).level) as u8;
        CoreLabel {
            // what `SpanningTreeScheme::mark` assigns, without rooting
            // the components a second time
            sp: SpCell::new(SpanningTreeScheme::label_of(g, tree, v)),
            n_claim: n as u32,
            subtree_count: tree.subtree_size(v) as u32,
            strings: NodeStrings::blank(0),
            top_min_level,
            parts: [unwritten; 2],
        }
    }));
    write_strings(g, tree, hierarchy, &mut labels, |l| &mut l.strings);
    for (which, parts) in partitions.parts.iter().enumerate() {
        write_parts(g, &mut labels, parts, which);
    }

    let report = ConstructionReport {
        construction_rounds: outcome.rounds,
        // partition construction + multi-wave piece distribution +
        // string assignment are all piggybacked waves over the tree
        // (§6.3.7–§6.3.8): a constant number of linear-time passes.
        marker_rounds: 6 * n as u64 + 4 * (outcome.phases as u64 + 1),
        hierarchy_height: outcome.hierarchy.height(),
        memory_bits_per_node: outcome.memory_bits_per_node,
        max_stored_pieces: (labels.iter())
            .map(|l| l.parts.iter().flat_map(PartLabel::stored_pieces).count() as u32)
            .max()
            .unwrap_or(0),
    };
    assert!(
        report.max_stored_pieces <= 4,
        "§6.2 stores at most two pieces per node and part"
    );
    (labels, report, (outcome, partitions))
}

/// Writes every part of partition `which` ([`TOP`](crate::labels::TOP) or
/// [`BOTTOM`](crate::labels::BOTTOM)) into `parts[which]` of its nodes'
/// labels: one pass over the part's nodes and depths, then one over its
/// holders in slot order, which fills each node's stored pieces from the
/// front.
///
/// # Panics
///
/// Panics if a node holds more than two pieces of one part, which §6.2's
/// placement never does, or if a part's diameter exceeds 255 hops, which a
/// partition of fewer than 2³² nodes never does (its diameters are at most
/// `6·log n + 4 ≤ 196`).
fn write_parts(g: &WeightedGraph, labels: &mut [CoreLabel], parts: &Parts, which: usize) {
    let hops = |x: usize| u8::try_from(x).expect("a part's diameter is below 2⁸ hops");
    for part in parts.iter() {
        let fields = PartLabel {
            part_root_id: narrow(g.id(part.root)),
            depth_in_part: 0,
            diameter_bound: hops(part.diameter),
            piece_count: part.piece_count() as u8,
            stored: [None; 2],
        };
        for (v, &depth_in_part) in part.nodes().zip(part.depths()) {
            labels[v.index()].parts[which] = PartLabel {
                depth_in_part,
                ..fields
            };
        }
        for (holder, &cell) in part.holders().zip(part.pieces()) {
            let stored = &mut labels[holder.index()].parts[which].stored;
            let free = (stored.iter_mut().find(|cell| cell.is_none()))
                .expect("§6.2 places at most two pieces per node");
            *free = Some(cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Widths;
    use crate::partition::Part;
    use crate::sync_mst::reference_order;
    use proptest::prelude::*;
    use smst_graph::generators::{path_graph, random_connected_graph, reweighted, star_graph};
    use smst_graph::mst::kruskal;
    use smst_graph::NodeId;
    use smst_rng::{Rng, SeedableRng, StdRng};

    fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        Instance::from_tree(g, &tree)
    }

    #[test]
    fn labels_every_node() {
        let inst = mst_instance(30, 80, 1);
        let (labels, report) = Marker.label(&inst).unwrap();
        assert_eq!(labels.len(), 30);
        assert!(report.total_rounds() > 0);
        assert!(report.hierarchy_height <= 6);
    }

    #[test]
    fn the_report_counts_the_widest_nodes_pieces() {
        for (n, seed) in [(1usize, 0u64), (40, 1), (300, 2), (1000, 3)] {
            let inst = mst_instance(n, 3 * n, seed);
            let (_, report, (_, parts)) = Marker.label_with_internals(&inst).unwrap();
            let mut held = vec![0; n];
            for part in parts.parts.iter().flat_map(Parts::iter) {
                for v in part.holders() {
                    held[v.index()] += 1;
                }
            }
            assert_eq!(Some(&report.max_stored_pieces), held.iter().max(), "n={n}");
            assert!(report.max_stored_pieces <= 2, "n={n}");
        }
    }

    /// Regression: SYNC_MST used to keep its fragments in `HashMap`s and
    /// visit them in hash order, so the tree's edge order, the hierarchy's
    /// fragment indices and with them the parts and labels differed from
    /// call to call.
    #[test]
    fn labelling_is_a_pure_function_of_the_instance() {
        for (n, seed) in [(1usize, 0u64), (40, 1), (300, 2)] {
            let inst = mst_instance(n, 3 * n, seed);
            let first = Marker.label_with_internals(&inst).unwrap();
            let second = Marker.label_with_internals(&inst).unwrap();
            assert_eq!(first.0, second.0, "n={n}: labels differ");
            assert_eq!(first.1, second.1);
            // hierarchy (fragments, parents, candidates) and partitions
            assert_eq!(format!("{:?}", first.2), format!("{:?}", second.2));

            let a = crate::sync_mst::SyncMst.run(&inst.graph);
            let b = crate::sync_mst::SyncMst.run(&inst.graph);
            assert_eq!(a.tree, b.tree, "n={n}: trees differ");
            assert_eq!(format!("{:?}", a.hierarchy), format!("{:?}", b.hierarchy));
        }
    }

    #[test]
    fn refuses_non_mst_instances() {
        let g = random_connected_graph(10, 30, 2);
        let mst = kruskal(&g);
        // find a swap producing a spanning non-MST tree
        let non_tree: Vec<_> = g
            .edge_entries()
            .map(|(e, _)| e)
            .filter(|e| !mst.contains(*e))
            .collect();
        let mut bad = None;
        'search: for &extra in &non_tree {
            for i in 0..mst.edges().len() {
                let mut edges = mst.edges().to_vec();
                edges[i] = extra;
                if let Ok(tree) = smst_graph::RootedTree::from_edges(&g, &edges, NodeId(0)) {
                    let inst = Instance::from_tree(g.clone(), &tree);
                    if !inst.satisfies_mst() {
                        bad = Some(inst);
                        break 'search;
                    }
                }
            }
        }
        let bad = bad.expect("a spanning non-MST tree exists");
        assert!(matches!(
            Marker.label(&bad),
            Err(MarkError::PredicateViolated(_))
        ));
    }

    #[test]
    fn label_size_is_logarithmic_in_n() {
        for n in [16usize, 64, 256] {
            let inst = mst_instance(n, 3 * n, 3);
            let (labels, _) = Marker.label(&inst).unwrap();
            let widths = Widths::of(&inst.graph);
            let bits = labels.iter().map(|l| l.bits(&widths)).max().unwrap();
            let log_n = (n as f64).log2();
            assert!(
                (bits as f64) <= 60.0 * log_n + 80.0,
                "n={n}: {bits} bits exceeds the O(log n) budget"
            );
        }
    }

    #[test]
    fn construction_time_is_linear() {
        let mut prev = 0u64;
        for n in [32usize, 64, 128, 256] {
            let inst = mst_instance(n, 3 * n, 4);
            let (_, report) = Marker.label(&inst).unwrap();
            let total = report.total_rounds();
            assert!(total <= 120 * n as u64, "n={n}: {total} rounds is not O(n)");
            assert!(total > prev / 8, "construction time should grow with n");
            prev = total;
        }
    }

    #[test]
    fn works_on_paths_and_stars() {
        for g in [path_graph(20, 1), star_graph(20, 2)] {
            let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
            let inst = Instance::from_tree(g, &tree);
            let (labels, _) = Marker.label(&inst).unwrap();
            assert_eq!(labels.len(), 20);
        }
    }

    /// A three-node path whose identities and weights are given.
    fn path_with(ids: [u64; 3], weights: [u64; 2]) -> Instance {
        let mut b = smst_graph::GraphBuilder::new();
        let v = ids.map(|id| b.add_node_with_id(id));
        b.add_edge(v[0], v[1], weights[0]).unwrap();
        b.add_edge(v[1], v[2], weights[1]).unwrap();
        let g = b.finish();
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        Instance::from_tree(g, &tree)
    }

    /// The registers hold identities, weights and node counts in 32 bits:
    /// the widest values label, one bit more is a typed error, not a panic.
    #[test]
    fn identities_and_weights_beyond_32_bits_are_a_typed_error() {
        let widest = path_with([0, MAX_FIELD, 2], [1, MAX_FIELD]);
        let (labels, _) = Marker.label(&widest).unwrap();
        let mut stored = (labels.iter())
            .flat_map(|l| l.parts)
            .flat_map(|p| p.stored.into_iter().flatten());
        assert!(stored.any(|s| s.min_out().is_some_and(|w| w.weight == MAX_FIELD)));
        for inst in [
            path_with([0, 1 << 40, 2], [1, 2]),
            path_with([0, 1, 2], [1, 1 << 33]),
        ] {
            assert!(matches!(
                Marker.label(&inst),
                Err(MarkError::MalformedInstance(_))
            ));
        }
        // no instance of 2³² nodes fits in memory, so the node-count bound
        // (n_claim and subtree_count are 32-bit fields) is checked on its own
        assert!(fits_the_registers(MAX_FIELD as usize, None, None).is_ok());
        assert!(matches!(
            fits_the_registers(MAX_FIELD as usize + 1, None, None),
            Err(MarkError::MalformedInstance(_))
        ));
    }

    /// Each node's part fields and `top_min_level` as the node would find
    /// them by searching its two parts and its hierarchy chain: the
    /// reference the part-by-part assembly must equal.
    fn assert_assembled_per_node(
        inst: &Instance,
        labels: &[CoreLabel],
        internals: &(SyncMstOutcome, Partitions),
    ) {
        let (g, (outcome, partitions)) = (&inst.graph, internals);
        for v in g.nodes() {
            let part_label = |part: Part| PartLabel {
                part_root_id: narrow(g.id(part.root)),
                depth_in_part: part.depth_of(v) as u8,
                diameter_bound: part.diameter as u8,
                piece_count: part.piece_count() as u8,
                stored: part.stored_at(v),
            };
            let top_min_level = (outcome.hierarchy.fragments_containing(v))
                .map(|i| outcome.hierarchy.fragment(i))
                .filter(|f| f.len() >= partitions.threshold)
                .map(|f| f.level)
                .min()
                .unwrap_or(0) as u8;
            let label = &labels[v.index()];
            let sides = partitions.parts.iter().zip(&partitions.part_of);
            for (which, (parts, part_of)) in sides.enumerate() {
                let part = parts.part(part_of[v.index()] as usize);
                assert_eq!(label.parts[which], part_label(part), "part {which} of {v}");
            }
            assert_eq!(label.top_min_level, top_min_level, "top_min_level of {v}");
        }
    }

    #[test]
    fn parts_write_what_each_node_would_search_for() {
        for (n, seed) in [(1usize, 0u64), (2, 1), (7, 2), (64, 3), (500, 4)] {
            let inst = mst_instance(n, 3 * n, seed);
            let (labels, _, internals) = Marker.label_with_internals(&inst).unwrap();
            assert_assembled_per_node(&inst, &labels, &internals);
        }
    }

    proptest! {
        /// Weights mod 3–7 and an MST whose ties are broken at random: the
        /// labels and internals equal those assembled from SYNC_MST over the
        /// full-sort order.
        #[test]
        fn tied_weights_label_as_the_reference_order_does(
            n in 1usize..48, k in 3u64..8, seed in 0u64..1000
        ) {
            let (g, _) = crate::sync_mst::tied_instance(n, k, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let broken_ties = reweighted(&g, |_, w| (w << 20) | rng.gen_range(0..1u64 << 20));
            let mst = kruskal(&broken_ties).rooted_at(&g, NodeId(rng.gen_range(0..n))).unwrap();
            let inst = Instance::from_tree(g, &mst);
            prop_assert!(inst.satisfies_mst());
            let (labels, report, internals) = Marker.label_with_internals(&inst).unwrap();
            assert_assembled_per_node(&inst, &labels, &internals);

            let (g, tree) = (&inst.graph, inst.candidate_tree().unwrap());
            let order = reference_order(g, |e| tree.contains_edge(e));
            let outcome = SyncMst.run_in_order(g, order, Some(tree.root()));
            let reference = assemble(g, outcome, Vec::new());
            prop_assert_eq!(&labels, &reference.0);
            prop_assert_eq!(report, reference.1);
            prop_assert_eq!(format!("{internals:?}"), format!("{:?}", reference.2));
        }
    }

    #[test]
    fn stored_pieces_cover_every_level_of_every_node() {
        let inst = mst_instance(50, 120, 5);
        let (labels, _, (outcome, _)) = Marker.label_with_internals(&inst).unwrap();
        let g = &inst.graph;
        for v in g.nodes() {
            let needed: Vec<(u64, u32)> = outcome
                .hierarchy
                .fragments_containing(v)
                .map(|i| {
                    let f = outcome.hierarchy.fragment(i);
                    (g.id(f.root), f.level)
                })
                .collect();
            // the pieces circulating in v's two parts must include every
            // (root, level) pair v needs; the per-node label only stores a
            // constant number, the rest arrive by train — here we check that
            // the label's own part metadata is consistent.
            let label = &labels[v.index()];
            for part in &label.parts {
                // stored pieces fill the two inline cells from the front
                assert!(part.stored[0].is_some() || part.stored[1].is_none());
                assert!(part.stored_pieces().all(|s| s.slot() < part.piece_count));
            }
            assert!(!needed.is_empty());
            assert_eq!(label.n_claim, g.node_count() as u32);
        }
    }
}
