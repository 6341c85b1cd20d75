//! The node-program interface: the state machine every distributed algorithm
//! in the workspace implements.
//!
//! The execution model is the paper's shared-memory model with *ideal time*
//! (§2.1): in one atomic activation a node reads its own register, the
//! registers of **all** its neighbours, and rewrites its own register. The
//! register is the node's entire state — there is no hidden private memory —
//! so transient faults (arbitrary corruption of registers) model the paper's
//! adversary exactly, and the memory size of the algorithm is the size of the
//! register.
//!
//! An activation returns a [`NodeProgram::Update`]: the part of the register
//! an honest step may rewrite, which [`NodeProgram::apply`] writes over the
//! register. The register is still the node's whole state — whatever a step
//! never rewrites (the verifier's label, say) stays in it, is read from it
//! and is charged in [`NodeProgram::state_bits`] — and faults still rewrite
//! all of it. What the split buys is memory: a runner holds the registers
//! once plus one buffer of updates, instead of two buffers of registers.

use smst_graph::{NodeId, Port, WeightedGraph};

/// The verdict a node exposes after an activation.
///
/// Verifiers output [`Verdict::Reject`] to "raise an alarm" (§2.4);
/// construction algorithms stay at [`Verdict::Working`] until they are done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Verdict {
    /// The node currently accepts the configuration.
    Accept,
    /// The node raises an alarm (detects a fault / rejects the proof).
    Reject,
    /// The node is still computing and has no opinion yet.
    #[default]
    Working,
}

/// Static, per-node information available to a program at every activation.
///
/// A node's index, identity and degree: three words, `Copy`, no heap.
/// Neighbour identities are *not* listed here — a node learns them only by
/// reading its neighbours' registers.
///
/// The paper also lets a node know the weight behind each port (§2.1). This
/// context does not carry it: a program that needs port weights carries them
/// itself, as part of its own input. The core verifier reads them from its
/// graph.
#[derive(Debug, Clone, Copy)]
pub struct NodeContext {
    /// The dense simulator index of the node.
    pub node: NodeId,
    /// The node's unique identity `ID(v)` (an `O(log n)`-bit value).
    pub id: u64,
    /// The node's degree (number of ports).
    pub degree: usize,
}

// Layout tripwire: a context table is one allocation of three words per
// node; a field that brings heap or padding back fails here.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<NodeContext>();
    assert!(std::mem::size_of::<NodeContext>() <= 24);
};

impl NodeContext {
    /// Builds the context of node `v` in graph `g`.
    pub fn for_node(g: &WeightedGraph, v: NodeId) -> Self {
        NodeContext {
            node: v,
            id: g.id(v),
            degree: g.degree(v),
        }
    }

    /// Iterator over all ports of the node.
    pub fn ports(&self) -> impl Iterator<Item = Port> {
        (0..self.degree).map(Port)
    }
}

/// A distributed algorithm, described as the state machine run by every node.
///
/// Implementations must be deterministic functions of the read registers so
/// that executions are reproducible; randomized algorithms should carry their
/// randomness explicitly inside the state.
pub trait NodeProgram {
    /// The register (full state) of a node.
    type State: Clone + std::fmt::Debug;

    /// What one activation rewrites: the register itself, or the strict
    /// part of it an honest step can change. Runners keep one buffer of
    /// these beside the registers, filled with `Default` values that every
    /// sweep overwrites before they are applied; `Send + Sync` lets a
    /// runner split that buffer across threads.
    type Update: Clone + std::fmt::Debug + Default + Send + Sync;

    /// The initial register of a node when the algorithm starts from a clean
    /// configuration. Self-stabilizing programs must also behave correctly
    /// when started from *any* register contents (see [`crate::faults`]).
    fn init(&self, ctx: &NodeContext) -> Self::State;

    /// One atomic activation: compute what the node rewrites of its
    /// register from its own register and the registers of its neighbours
    /// (indexed by port). The node's next register is `own` with the result
    /// [applied](Self::apply).
    fn step(
        &self,
        ctx: &NodeContext,
        own: &Self::State,
        neighbors: &[&Self::State],
    ) -> Self::Update;

    /// Writes an activation's result over a register: every part of the
    /// register the update names is replaced, the rest is kept. Applying an
    /// update twice leaves what applying it once does (a daemon batch may
    /// activate a node twice off the same registers).
    fn apply(state: &mut Self::State, update: Self::Update);

    /// The verdict the node exposes in a given register.
    fn verdict(&self, _ctx: &NodeContext, _state: &Self::State) -> Verdict {
        Verdict::Working
    }

    /// The number of memory bits a faithful encoding of this register uses.
    ///
    /// This is the quantity the paper's *memory size* measure counts; the
    /// default of 0 is only suitable for throwaway test programs.
    fn state_bits(&self, _ctx: &NodeContext, _state: &Self::State) -> u64 {
        0
    }

    /// A short label used by execution traces.
    fn name(&self) -> &str {
        "unnamed-program"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smst_graph::generators::star_graph;

    #[test]
    fn context_exposes_degree_and_identity() {
        let g = star_graph(4, 1);
        let centre = NodeContext::for_node(&g, NodeId(0));
        assert_eq!((centre.node, centre.id), (NodeId(0), g.id(NodeId(0))));
        assert_eq!(centre.degree, 3);
        assert_eq!(centre.ports().collect::<Vec<_>>(), [0, 1, 2].map(Port));
        let leaf = NodeContext::for_node(&g, NodeId(2));
        assert_eq!((leaf.node, leaf.id), (NodeId(2), g.id(NodeId(2))));
        assert_eq!(leaf.degree, 1);
    }

    #[test]
    fn verdict_equality() {
        assert_eq!(Verdict::Accept, Verdict::Accept);
        assert_ne!(Verdict::Accept, Verdict::Reject);
    }
}
