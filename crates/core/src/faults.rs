//! Transient-fault corruption helpers for the fault-detection experiments.
//!
//! The paper's adversary may rewrite any subset of node registers. These
//! helpers implement representative corruptions of a [`CoreState`]: label
//! strings, the SP distance, stored pieces (the fragment weights the
//! minimality checks rely on), the partition metadata and the train buffers.
//! The experiment harnesses pick nodes with a
//! [`smst_sim::FaultPlan`] and apply one of these mutators.

use crate::labels::{BOTTOM, TOP};
use crate::strings::{EndpSym, RootSym};
use crate::verifier::CoreState;
use smst_rng::{Rng, SeedableRng, StdRng};

/// The kinds of register corruption the experiments inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip an entry of the `Roots` string.
    RootsString,
    /// Erase an `EndP` endpoint mark.
    EndpString,
    /// Corrupt the SP distance field.
    SpDistance,
    /// Corrupt the weight inside a permanently stored piece.
    StoredPieceWeight,
    /// Corrupt the partition metadata: the root identity of the node's
    /// `Top` part.
    PartRoot,
    /// Reset the trains: empty `up` and `down`, clear `done`, a random `want`
    /// and `seen_levels`. ROADMAP's carried-over small item (old item 1(c))
    /// makes it write garbage pieces.
    TrainBuffers,
}

impl FaultKind {
    /// All kinds, for sweep experiments.
    pub fn all() -> [FaultKind; 6] {
        [
            FaultKind::RootsString,
            FaultKind::EndpString,
            FaultKind::SpDistance,
            FaultKind::StoredPieceWeight,
            FaultKind::PartRoot,
            FaultKind::TrainBuffers,
        ]
    }
}

/// Applies one corruption of the given kind to a node register.
pub fn corrupt(state: &mut CoreState, kind: FaultKind, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        FaultKind::RootsString => {
            let strings = &mut state.label.strings;
            if !strings.is_empty() {
                let j = rng.gen_range(0..strings.len());
                let flipped = match strings.root(j) {
                    RootSym::Root => RootSym::NonRoot,
                    RootSym::NonRoot => RootSym::Absent,
                    RootSym::Absent => RootSym::Root,
                };
                strings.set_root(j, flipped);
            }
        }
        FaultKind::EndpString => {
            let strings = &mut state.label.strings;
            if !strings.is_empty() {
                let j = rng.gen_range(0..strings.len());
                let flipped = match strings.endp(j) {
                    EndpSym::Up | EndpSym::Down => EndpSym::NotEndpoint,
                    _ => EndpSym::Up,
                };
                strings.set_endp(j, flipped);
            }
        }
        FaultKind::SpDistance => {
            state.label.sp.dist = state.label.sp.dist.wrapping_add(rng.gen_range(1..7));
        }
        FaultKind::StoredPieceWeight => {
            let which = if rng.gen_bool(0.5) || state.label.parts[BOTTOM].stored[0].is_none() {
                TOP
            } else {
                BOTTOM
            };
            let part = &mut state.label.parts[which];
            if let Some(cell) = part.stored[0].as_mut() {
                // the fields wrap at their 32 bits, as a register of that
                // width would
                if cell.has_min_out() {
                    cell.weight = cell.weight.wrapping_add(rng.gen_range(1..1000u32));
                } else {
                    cell.root_id = cell.root_id.wrapping_add(1);
                }
            } else {
                // nothing stored here: fall back to a string corruption
                corrupt(state, FaultKind::RootsString, seed ^ 1);
            }
        }
        FaultKind::PartRoot => {
            let root = &mut state.label.parts[TOP].part_root_id;
            *root = root.wrapping_add(7);
        }
        FaultKind::TrainBuffers => {
            for t in &mut state.trains {
                t.want = rng.gen();
                t.done = false;
                t.up = None;
                t.down = None;
            }
            state.seen_levels = rng.gen();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marker::Marker;
    use crate::verifier::CoreVerifier;
    use smst_graph::generators::random_connected_graph;
    use smst_graph::mst::kruskal;
    use smst_graph::NodeId;
    use smst_labeling::Instance;
    use smst_sim::NodeProgram;

    #[test]
    fn every_fault_kind_changes_the_register_or_is_benign() {
        let g = random_connected_graph(20, 50, 1);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        let inst = Instance::from_tree(g, &tree);
        let (labels, _) = Marker.label(&inst).unwrap();
        let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
        let net = verifier.network();
        for (i, kind) in FaultKind::all().into_iter().enumerate() {
            let mut state = *net.state(NodeId(3));
            let before = state;
            corrupt(&mut state, kind, 42 + i as u64);
            // every fault kind except the (self-healing) train-buffer one
            // must change the label portion of the register
            if kind != FaultKind::TrainBuffers {
                assert_ne!(before.label, state.label, "{kind:?} left the label intact");
            }
            // memory accounting still works on the corrupted register
            let ctx = net.context(NodeId(3));
            assert!(verifier.state_bits(ctx, &state) > 0);
        }
    }

    /// Registers at the 32-bit fields' extremes: the weight, root,
    /// part-root and SP-distance corruptions wrap, as registers of that
    /// width would, instead of panicking.
    #[test]
    fn corruptions_wrap_at_the_field_width() {
        use crate::labels::{PartLabel, PieceCell, MAX_FIELD};
        use smst_graph::CompositeWeight;

        let g = random_connected_graph(20, 50, 1);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        let inst = Instance::from_tree(g, &tree);
        let (labels, _) = Marker.label(&inst).unwrap();
        let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
        let fresh = *verifier.network().state(NodeId(3));
        let with_edge = Some(CompositeWeight::new(MAX_FIELD, true, 0, 1));
        for (min_out, wrapped) in [(with_edge, 0..1000), (None, 0..1)] {
            let mut state = fresh;
            for part in &mut state.label.parts {
                part.part_root_id = u32::MAX;
                part.stored[0] = Some(PieceCell::new(0, MAX_FIELD, 0, min_out));
            }
            let mut moved = state;
            corrupt(&mut moved, FaultKind::PartRoot, 1);
            assert_eq!(moved.label.parts[TOP].part_root_id, 6);
            for seed in 0..8 {
                let mut moved = state;
                moved.label.sp.dist = u32::MAX;
                corrupt(&mut moved, FaultKind::SpDistance, seed);
                assert!(moved.label.sp.dist < 6, "{}", moved.label.sp.dist);
            }
            for seed in 0..8 {
                let mut moved = state;
                corrupt(&mut moved, FaultKind::StoredPieceWeight, seed);
                let field = |p: PartLabel| {
                    let cell = p.stored[0].unwrap();
                    cell.min_out().map_or(cell.root_id(), |w| w.weight)
                };
                let fields = moved.label.parts.map(field);
                assert!(fields.contains(&MAX_FIELD), "{fields:?}");
                assert!(fields.iter().any(|f| wrapped.contains(f)), "{fields:?}");
            }
        }
    }
}
