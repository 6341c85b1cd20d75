//! The self-stabilizing verifier (§7–§8), as a [`NodeProgram`].
//!
//! Each activation, every node:
//!
//! 1. runs the **structural 1-round checks**: the Example SP / NumK
//!    conditions, the RS/EPS string legality conditions of §5, and the
//!    representation of the two partitions;
//! 2. advances its two **trains** (one per partition, §7.1, in
//!    [`crate::train`]): the piece of the current slot climbs from its
//!    permanent holder to the part root, is flooded back down with the
//!    *membership flag* of §7.1, and the part root advances the slot once its
//!    whole part acknowledges (an ack-paced variant of the paper's pipelined
//!    train — see the README paragraph "The trains (ack-paced)"); the part
//!    root also checks that pieces arrive in the prescribed cyclic order (§8);
//! 3. runs the **comparison machinery** (§7.2, in [`crate::compare`]): it
//!    copies its own member piece of the current level into its `Ask`
//!    buffer, walks its neighbours round-robin, uses the `Want` register to
//!    make a neighbour's train hold the piece it needs (§7.2.2), and on every
//!    event `E(v, u, j)` evaluates the minimality checks C1/C2 and the
//!    equality checks of Claim 8.3;
//! 4. tracks, per cycle, which of its own levels it has seen (the cycle-set
//!    completeness check of §8) and raises an alarm if a needed piece never
//!    arrives.
//!
//! Any violation makes the node output [`Verdict::Reject`] — "raising an
//! alarm" in the paper's terminology.

use crate::compare::{CompareState, CompareView};
use crate::labels::{
    max_diameter, max_levels, max_pieces, CoreLabel, PieceCell, Widths, BOTTOM, MAX_FIELD, TOP,
};
use crate::strings::{ceil_log2, check_strings, ChildSummary, RootSym, StringNeighborhood};
use crate::train::{self, ChildTrains, PartView, TrainState};
use smst_graph::{ComponentMap, WeightedGraph};
use smst_sim::{Network, NodeContext, NodeProgram, Verdict};

/// The full register of a node running the verifier: a fixed-width `Copy`
/// value with no heap behind it (see [`crate::labels`] and
/// [`crate::strings`] for the layout), so copying it *is* copying the
/// paper's `O(log n)`-bit register and an activation allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreState {
    /// The node's label (the corruptible proof).
    pub label: CoreLabel,
    /// The two trains, one per partition, indexed like the label's parts
    /// ([`TOP`], [`BOTTOM`]).
    pub trains: [TrainState; 2],
    /// The comparison machinery.
    pub compare: CompareState,
    /// Bitmask over levels: member pieces seen since the last completeness
    /// check.
    pub seen_levels: u64,
    /// The node's current verdict.
    pub verdict: Verdict,
}

impl CoreState {
    /// Hands each field to `sink` as `(name, value, width)`.
    pub fn walk(&self, w: &Widths, sink: &mut impl FnMut(&'static str, u64, u32)) {
        let CoreState {
            label,
            trains,
            compare,
            seen_levels,
            verdict,
        } = self;
        label.walk(w, sink);
        for train in trains {
            train.walk(w, sink);
        }
        compare.walk(w, sink);
        sink("CoreState.seen_levels", *seen_levels, w.levels);
        sink("CoreState.verdict", *verdict as u64, w.verdict);
    }

    /// The bits the register is charged under `w`: the sum of its walk's
    /// widths.
    pub fn bits(&self, w: &Widths) -> u64 {
        let mut bits = 0;
        self.walk(w, &mut |_, _, width| bits += u64::from(width));
        bits
    }
}

/// What one activation of the verifier rewrites of a [`CoreState`]: every
/// field but the label, which a step only reads and only a fault changes.
/// Runners keep one of these per node beside the registers, so a node costs
/// its register plus this, not two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreUpdate {
    /// [`CoreState::trains`].
    pub trains: [TrainState; 2],
    /// [`CoreState::compare`].
    pub compare: CompareState,
    /// [`CoreState::seen_levels`].
    pub seen_levels: u64,
    /// [`CoreState::verdict`].
    pub verdict: Verdict,
}

// Layout tripwires: the register stays `Copy`; identities, weights, the SP
// distance and the node counts sit in 32-bit fields, and levels, depths and
// diameters in bytes (see `crate::labels`), so the label is 184 bytes, the
// register 328 and the update 144 — `peak_rss_mb` follows these numbers.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<CoreState>();
    assert_copy::<CoreUpdate>();
    assert!(std::mem::size_of::<CoreState>() <= 328);
    assert!(std::mem::size_of::<CoreLabel>() <= 184);
    assert!(std::mem::size_of::<CoreUpdate>() <= 144);
};

/// What one pass over the neighbour registers gathers from the tree children
/// (the neighbours whose parent pointer names this node): everything the
/// structural checks and the two trains need from them.
struct Children {
    /// Sum of the children's NumK subtree counts, `None` if it overflows
    /// (no legal register does).
    subtree_sum: Option<u64>,
    /// The children's strings, summarised for the RS/EPS checks.
    strings: ChildSummary,
    /// Per train: what the children in the same part carry for the wanted
    /// slot.
    trains: [ChildTrains; 2],
}

impl Children {
    /// `wanted[t]` is the slot train `t` circulates this activation (`None`
    /// if the part has no pieces).
    fn gather(
        ctx: &NodeContext,
        own: &CoreState,
        neighbors: &[&CoreState],
        wanted: [Option<u8>; 2],
    ) -> Self {
        let mut kids = Children {
            subtree_sum: Some(0),
            strings: ChildSummary::new(&own.label.strings),
            trains: [ChildTrains::default(); 2],
        };
        for s in neighbors {
            if !s.label.sp.has_parent(ctx.id) {
                continue;
            }
            kids.subtree_sum = kids
                .subtree_sum
                .and_then(|sum| sum.checked_add(u64::from(s.label.subtree_count)));
            kids.strings.add(&s.label.strings);
            for (which, want) in wanted.into_iter().enumerate() {
                let Some(want) = want else { continue };
                if s.label.parts[which].part_root_id == own.label.parts[which].part_root_id {
                    kids.trains[which].add(&s.trains[which], want);
                }
            }
        }
        kids
    }
}

/// The verifier program. It carries the (read-only) network inputs every node
/// legitimately has locally: the graph's weights/ports/identities and the
/// component pointers of the candidate subgraph, plus the initial labels
/// (which become the per-node registers and may be corrupted by faults).
#[derive(Debug)]
pub struct CoreVerifier {
    graph: WeightedGraph,
    components: ComponentMap,
    labels: Vec<CoreLabel>,
}

impl CoreVerifier {
    /// Bundles the verifier's inputs.
    ///
    /// # Panics
    ///
    /// Panics if an identity or a weight of `graph` exceeds the registers'
    /// 32-bit fields ([`MAX_FIELD`]); [`crate::Marker::label`] refuses such
    /// an instance with a typed error.
    pub fn new(graph: WeightedGraph, components: ComponentMap, labels: Vec<CoreLabel>) -> Self {
        assert!(
            graph.max_id() <= Some(MAX_FIELD) && graph.max_weight() <= Some(MAX_FIELD),
            "identities and weights must fit in 32 bits"
        );
        CoreVerifier {
            graph,
            components,
            labels,
        }
    }

    /// The graph the verifier runs on.
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// The component map of the candidate subgraph being verified.
    pub fn components(&self) -> &ComponentMap {
        &self.components
    }

    /// Builds the simulator network whose registers hold the initial labels.
    pub fn network(&self) -> Network<Self> {
        Network::new(self, self.graph.clone())
    }

    // ----- structural 1-round checks (§5, SP, NumK, partitions) ------------

    fn structural_ok(
        &self,
        ctx: &NodeContext,
        own: &CoreState,
        neighbors: &[&CoreState],
        parent: Option<&CoreState>,
        children: &Children,
    ) -> bool {
        let label = &own.label;
        // SP: truthful identity, agreement on the root, distance rules;
        // NumK: agreement on n
        if u64::from(label.sp.own_id) != ctx.id {
            return false;
        }
        if neighbors
            .iter()
            .any(|s| s.label.sp.root_id != label.sp.root_id || s.label.n_claim != label.n_claim)
        {
            return false;
        }
        match parent {
            None => {
                if self.components.pointer(ctx.node).is_some() {
                    return false; // pointer names a non-existent port
                }
                if label.sp.dist != 0
                    || u64::from(label.sp.root_id) != ctx.id
                    || label.sp.parent_id.is_some()
                {
                    return false;
                }
            }
            Some(p) => {
                if p.label.sp.dist.checked_add(1) != Some(label.sp.dist)
                    || label.sp.parent_id != Some(p.label.sp.own_id)
                {
                    return false;
                }
            }
        }
        // NumK: subtree aggregation (a sum that overflows alarms)
        if children.subtree_sum.and_then(|sum| sum.checked_add(1))
            != Some(u64::from(label.subtree_count))
        {
            return false;
        }
        if parent.is_none() && label.subtree_count != label.n_claim {
            return false;
        }
        // strings legality (RS / EPS conditions)
        let log_n = ceil_log2(u64::from(label.n_claim));
        let view = StringNeighborhood {
            own: &label.strings,
            parent: parent.map(|p| &p.label.strings),
            children: children.strings,
            is_tree_root: parent.is_none(),
            max_len: max_levels(log_n) as usize,
        };
        if check_strings(&view).is_err() {
            return false;
        }
        // partition representation: parts are subtrees, so a non-root of a
        // part must have its tree parent in the same part; diameters and
        // piece counts are bounded and agreed upon inside the part
        for (which, mine) in label.parts.iter().enumerate() {
            let i_am_part_root = u64::from(mine.part_root_id) == ctx.id;
            if i_am_part_root {
                if mine.depth_in_part != 0 {
                    return false;
                }
            } else {
                match parent {
                    None => return false,
                    Some(p) => {
                        let pp = &p.label.parts[which];
                        if pp.part_root_id != mine.part_root_id {
                            return false;
                        }
                        if u64::from(mine.depth_in_part) != u64::from(pp.depth_in_part) + 1 {
                            return false;
                        }
                        if pp.diameter_bound != mine.diameter_bound
                            || pp.piece_count != mine.piece_count
                        {
                            return false;
                        }
                    }
                }
            }
            if u32::from(mine.diameter_bound) > max_diameter(log_n) {
                return false;
            }
            if u32::from(mine.piece_count) > max_pieces(log_n) {
                return false;
            }
            if mine.depth_in_part > mine.diameter_bound {
                return false;
            }
            if mine.stored_pieces().any(|s| s.slot() >= mine.piece_count) {
                return false;
            }
        }
        // the delimiter must not exceed the string length
        if usize::from(label.top_min_level) > label.strings.len() {
            return false;
        }
        true
    }
}

/// §7.1's membership flag of a piece entering node `id`'s `down` buffer in
/// partition `which`: from the strings at the part root (`at_root`), and
/// from the part parent's flag elsewhere.
fn membership(which: usize, label: &CoreLabel, id: u64, piece: PieceCell, at_root: bool) -> bool {
    let root = label.strings.root(piece.level() as usize);
    if !at_root {
        piece.root_id() == id || (piece.member() && root == RootSym::NonRoot)
    } else if which == TOP {
        // the part intersects at most one top fragment per level (Claim
        // 6.3), so having a top fragment at this level means it is the
        // piece's fragment
        root != RootSym::Absent && piece.level() >= u32::from(label.top_min_level)
    } else {
        root != RootSym::Absent && piece.root_id() == u64::from(label.sp.own_id)
    }
}

impl NodeProgram for CoreVerifier {
    type State = CoreState;
    type Update = CoreUpdate;

    fn init(&self, ctx: &NodeContext) -> CoreState {
        CoreState {
            label: self.labels[ctx.node.index()],
            trains: [TrainState::default(); 2],
            compare: CompareState::default(),
            seen_levels: 0,
            verdict: Verdict::Working,
        }
    }

    fn step(&self, ctx: &NodeContext, own: &CoreState, neighbors: &[&CoreState]) -> CoreUpdate {
        let mut alarm = false;
        let mut next = CoreUpdate {
            trains: own.trains,
            compare: own.compare,
            seen_levels: own.seen_levels,
            verdict: Verdict::Accept,
        };
        // the parent port, by the component pointer
        let parent_port = (self.components.pointer(ctx.node)).filter(|p| p.index() < ctx.degree);
        let parent = parent_port.map(|p| neighbors[p.index()]);
        let compare = CompareView {
            graph: &self.graph,
            ctx,
            own,
            neighbors,
            parent_port,
        };

        // the slot each train circulates, then the one pass over the tree
        // children that everything below shares
        let hold = compare.hold();
        let views = [TOP, BOTTOM].map(|which| {
            let part = &own.label.parts[which];
            let same_part = |p: &&CoreState| p.label.parts[which].part_root_id == part.part_root_id;
            PartView {
                part,
                is_root: u64::from(part.part_root_id) == ctx.id,
                own: &own.trains[which],
                parent: parent.filter(same_part).map(|p| &p.trains[which]),
                hold,
            }
        });
        let wanted = [TOP, BOTTOM].map(|which| views[which].slot(&mut next.trains[which]));
        let children = Children::gather(ctx, own, neighbors, wanted);

        // 1. structural 1-round checks
        if !self.structural_ok(ctx, own, neighbors, parent, &children) {
            alarm = true;
        }

        // 2. trains, then Claim 8.3's checks on the member piece each shows
        // (§8), whose level counts as seen for the completeness check
        for (which, want) in wanted.into_iter().enumerate() {
            let Some(want) = want else { continue };
            let member = |piece, at_root| membership(which, &own.label, ctx.id, piece, at_root);
            let out = &mut next.trains[which];
            alarm |= views[which].buffers(want, children.trains[which], out, member);
            let Some(d) = out.shown_member() else {
                continue;
            };
            let (j, strings) = (d.level() as usize, &own.label.strings);
            match strings.root(j) {
                RootSym::Absent => alarm = true,
                sym => {
                    next.seen_levels |= 1u64 << j;
                    alarm |= sym == RootSym::Root && d.root_id() != ctx.id;
                    // only the top fragment (the whole tree) has no outgoing edge
                    alarm |= !d.has_min_out() && j + 1 != strings.len();
                }
            }
        }

        // 3. comparisons (§7.2), from the trains' new buffers
        alarm |= compare.step(&next.trains, &mut next.compare);

        // 4. completeness (cycle-set) check of §8
        if train::take_cycles(&mut next.trains) {
            alarm |= own.label.strings.present() & !next.seen_levels != 0;
            next.seen_levels = 0;
        }

        if alarm {
            next.verdict = Verdict::Reject;
        }
        next
    }

    fn apply(state: &mut CoreState, update: CoreUpdate) {
        let CoreUpdate {
            trains,
            compare,
            seen_levels,
            verdict,
        } = update;
        state.trains = trains;
        state.compare = compare;
        state.seen_levels = seen_levels;
        state.verdict = verdict;
    }

    fn verdict(&self, _ctx: &NodeContext, state: &CoreState) -> Verdict {
        state.verdict
    }

    fn state_bits(&self, _ctx: &NodeContext, state: &CoreState) -> u64 {
        state.bits(&Widths::of(&self.graph))
    }

    fn name(&self) -> &str {
        "core-mst-verifier"
    }
}

/// The widths of [`Widths::of`] from maxima found by scanning the graph —
/// `O(n + m)` — the oracle the accessors are held against.
#[cfg(test)]
mod reference {
    use super::{WeightedGraph, Widths};

    pub fn widths(g: &WeightedGraph) -> Widths {
        let max_id = g.nodes().map(|v| g.id(v)).max().unwrap_or(1);
        let max_w = g.edges().iter().map(|e| e.weight).max().unwrap_or(1);
        let max_degree = g.nodes().map(|v| g.degree(v)).max().unwrap_or(0);
        Widths::new(max_id, max_w, g.node_count() as u64, max_degree as u64)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::labels::{PartLabel, COMPLETENESS_WRAPS, DELAY_MAX, MAX_WATCH_WRAPS};
    use crate::marker::Marker;
    use smst_graph::generators::random_connected_graph;
    use smst_graph::mst::kruskal;
    use smst_graph::NodeId;
    use smst_labeling::Instance;
    use smst_sim::ReferenceRunner;

    /// A random MST instance rooted at node 0 and its marker labels.
    pub(crate) fn marked(n: usize, m: usize, seed: u64) -> (Instance, Vec<CoreLabel>) {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        let inst = Instance::from_tree(g, &tree);
        let (labels, _) = Marker.label(&inst).unwrap();
        (inst, labels)
    }

    /// Whether some node alarms in the first synchronous round from `labels`
    /// (the 1-round checks of `structural_ok`).
    pub(crate) fn alarms_in_one_round(inst: &Instance, labels: Vec<CoreLabel>) -> bool {
        let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
        let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
        runner.run(1);
        !runner.network().alarming_nodes(&verifier).is_empty()
    }

    fn setup(n: usize, m: usize, seed: u64) -> (Instance, CoreVerifier) {
        let (inst, labels) = marked(n, m, seed);
        let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
        (inst, verifier)
    }

    /// A generous synchronous-time budget: polylogarithmic in n.
    fn budget(n: usize) -> usize {
        let log_n = (n.max(2) as f64).log2().ceil() as usize;
        600 * log_n * log_n * log_n + 600
    }

    #[test]
    fn correct_instance_is_accepted_and_stays_accepted() {
        let (inst, verifier) = setup(24, 60, 1);
        let n = inst.node_count();
        let net = verifier.network();
        let mut runner = ReferenceRunner::rounds(&verifier, net);
        runner.run(budget(n));
        assert!(
            runner.network().alarming_nodes(&verifier).is_empty(),
            "no node may reject a correct, marker-labelled instance"
        );
        assert!(runner.network().all_accept(&verifier));
    }

    #[test]
    fn every_level_piece_is_eventually_seen() {
        let (inst, verifier) = setup(32, 80, 2);
        let n = inst.node_count();
        let net = verifier.network();
        let mut runner = ReferenceRunner::rounds(&verifier, net);
        runner.run(budget(n));
        // the completeness check never fired, so the verdict is Accept
        assert!(runner.network().all_accept(&verifier));
    }

    /// `state_bits` reads the graph's maxima instead of scanning for them:
    /// the same charge as widths built from scanned maxima at every node, on
    /// fresh registers and on registers 64 rounds into every kind of fault.
    #[test]
    fn state_bits_agree_with_the_scanning_reference() {
        use crate::faults::{corrupt, FaultKind};
        use smst_graph::generators::random_graph_scrambled_ids;

        let assert_agree = |verifier: &CoreVerifier, net: &smst_sim::Network<CoreVerifier>| {
            let reported = net.memory_bits(verifier);
            let widths = reference::widths(net.graph());
            for v in net.graph().nodes() {
                assert_eq!(reported[v.index()], net.state(v).bits(&widths), "node {v}");
            }
        };
        for seed in 0..20u64 {
            let n = 12 + seed as usize % 9;
            // sparse unsorted identities on the odd seeds
            let g = if seed % 2 == 0 {
                random_connected_graph(n, 2 * n, seed)
            } else {
                random_graph_scrambled_ids(n, 2 * n, seed)
            };
            let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
            let inst = Instance::from_tree(g, &tree);
            let (labels, _) = Marker.label(&inst).unwrap();
            let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
            assert_agree(&verifier, &verifier.network());
            for (i, kind) in FaultKind::all().into_iter().enumerate() {
                let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
                let victim = NodeId((seed as usize + i) % n);
                corrupt(runner.network_mut().state_mut(victim), kind, seed);
                runner.run(64);
                assert_agree(&verifier, runner.network());
            }
        }
    }

    /// Every field of every register fits the width `state_bits` charges for
    /// it, after every one of 64 fault-free rounds, on five kinds of graph
    /// labelled by the marker and again with every part claiming the largest
    /// diameter bound the verifier accepts; then with the counters at the
    /// thresholds they saturate at (no fault-free run holds a train for
    /// `DELAY_MAX` rounds). Each width is needed in full somewhere (the 64-node
    /// graphs have `log n + 1` levels, the path's parts circulate 17 pieces),
    /// so narrowing any one by a bit fails this test. (Faults stay out:
    /// [`crate::faults::corrupt`] may write what no register of these widths
    /// holds.)
    #[test]
    fn every_register_field_fits_its_width() {
        use smst_graph::generators::{
            grid_graph, path_graph, random_graph_scrambled_ids, star_graph,
        };
        let graphs = [
            ("random", random_connected_graph(64, 160, 5)),
            (
                "scrambled identities",
                random_graph_scrambled_ids(64, 160, 5),
            ),
            ("path", path_graph(2048, 5)),
            ("grid", grid_graph(8, 8, 5)),
            ("star", star_graph(301, 5)),
        ];
        for (name, g) in graphs {
            let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
            let inst = Instance::from_tree(g, &tree);
            let (labels, _) = Marker.label(&inst).unwrap();
            let cap = max_diameter(ceil_log2(inst.node_count() as u64));
            let mut capped = labels.clone();
            for part in capped.iter_mut().flat_map(|l| &mut l.parts) {
                part.diameter_bound = u8::try_from(cap).unwrap();
            }
            let widths = Widths::of(&inst.graph);
            let fits = |state: &CoreState, round: usize, v: NodeId| {
                state.walk(&widths, &mut |field, value, width| {
                    assert!(
                        value.checked_shr(width).unwrap_or(0) == 0,
                        "{name}, round {round}, node {v}: {field} = {value} exceeds {width} bits"
                    );
                });
            };
            for labels in [labels, capped] {
                let verifier =
                    CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
                let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
                for round in 0..=64 {
                    for v in inst.graph.nodes() {
                        fits(runner.network().state(v), round, v);
                    }
                    runner.run(1);
                }
                assert!(
                    runner.network().alarming_nodes(&verifier).is_empty(),
                    "{name}"
                );
                let mut saturated = *runner.network().state(NodeId(0));
                for train in &mut saturated.trains {
                    (train.delay, train.wraps) = (DELAY_MAX, COMPLETENESS_WRAPS);
                }
                saturated.compare.watched_wraps = [MAX_WATCH_WRAPS; 2];
                fits(&saturated, 64, NodeId(0));
            }
        }
    }

    /// Every narrowed register field at 0 and at its width's maximum, written
    /// into every register. Rounds run in a debug build (where an unchecked
    /// sum panics) and in a release build (where it wraps) without
    /// panicking, and a label that no longer holds what the marker wrote
    /// alarms: a structural field in the first round, a piece level within
    /// 64 (the rounds its train takes to show it, a part's diameter, with
    /// room to spare). `want_cmp`, the `down` buffers, the ack and the cycle
    /// counters are train and comparison state, which the verifier recovers
    /// from at any value: they only must not panic.
    #[test]
    fn overflowing_registers_alarm_instead_of_panicking() {
        // `x` is 0 or `u64::MAX`; `as` keeps a field's width of it, so the
        // latter writes the field's maximum
        type Write = fn(&mut CoreState, u64);
        fn each_part(s: &mut CoreState, f: impl Fn(&mut PartLabel)) {
            s.label.parts.iter_mut().for_each(f);
        }
        let (inst, verifier) = setup(40, 100, 4);
        let fields: [(&str, Option<usize>, Write); 14] = [
            ("sp.root_id", Some(1), |s, x| s.label.sp.root_id = x as u32),
            ("sp.dist", Some(1), |s, x| s.label.sp.dist = x as u32),
            ("sp.own_id", Some(1), |s, x| s.label.sp.own_id = x as u32),
            ("sp.parent_id", Some(1), |s, x| {
                s.label.sp.parent_id = Some(x as u32)
            }),
            ("n_claim", Some(1), |s, x| s.label.n_claim = x as u32),
            ("subtree_count", Some(1), |s, x| {
                s.label.subtree_count = x as u32
            }),
            ("depth_in_part", Some(1), |s, x| {
                each_part(s, |p| p.depth_in_part = x as u8)
            }),
            ("diameter_bound", Some(1), |s, x| {
                each_part(s, |p| p.diameter_bound = x as u8)
            }),
            ("piece level", Some(64), |s, x| {
                each_part(s, |p| {
                    for cell in p.stored.iter_mut().flatten() {
                        let level = u32::from(x as u8);
                        *cell = PieceCell::new(cell.slot(), cell.root_id(), level, cell.min_out());
                    }
                })
            }),
            ("want_cmp", None, |s, x| {
                s.compare.want_cmp = Some((x as u32, x as u8))
            }),
            ("down", None, |s, x| {
                for t in &mut s.trains {
                    t.down = Some(PieceCell::new(
                        x as u8,
                        x & MAX_FIELD,
                        u32::from(x as u8),
                        None,
                    ));
                }
            }),
            ("done", None, |s, x| {
                for t in &mut s.trains {
                    t.done = x != 0;
                }
            }),
            ("wraps", None, |s, x| {
                for t in &mut s.trains {
                    t.wraps = x as u8;
                }
            }),
            ("watched_wraps", None, |s, x| {
                s.compare.watched_wraps = [x as u8; 2]
            }),
        ];
        for (field, alarm_within, write) in fields {
            for x in [0, u64::MAX] {
                let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
                let mut illegal = false;
                for v in inst.graph.nodes() {
                    let state = runner.network_mut().state_mut(v);
                    let label = state.label;
                    write(state, x);
                    illegal |= state.label != label;
                }
                let rounds = alarm_within.filter(|_| illegal).unwrap_or(1);
                let alarmed = (0..rounds).any(|_| {
                    runner.run(1);
                    !runner.network().alarming_nodes(&verifier).is_empty()
                });
                assert!(
                    alarmed || !illegal || alarm_within.is_none(),
                    "{field} at {x:#x} raised no alarm in {rounds} round(s)"
                );
            }
        }
    }

    /// §8's cyclic-order check: swapping the pieces of slots 1 and 2 of the
    /// largest Top part breaks the order of its cycle, and the part root
    /// alarms when slot 2's piece replaces slot 1's in its `down` buffer —
    /// within 64 rounds (the piece climbs and the part acknowledges slots 0
    /// and 1 first).
    #[test]
    fn pieces_out_of_cyclic_order_alarm_at_the_part_root() {
        for seed in 0..5 {
            let g = random_connected_graph(400, 1000, seed);
            let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
            let inst = Instance::from_tree(g, &tree);
            let (mut labels, _) = Marker.label(&inst).unwrap();
            let part = labels
                .iter()
                .map(|l| l.parts[TOP])
                .max_by_key(|p| p.piece_count)
                .unwrap();
            assert!(
                part.piece_count >= 3,
                "seed {seed}: the largest part has 3 pieces"
            );
            let cell = |labels: &[CoreLabel], slot: u8| {
                labels
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.parts[TOP].part_root_id == part.part_root_id)
                    .find_map(|(v, l)| {
                        let i = l.parts[TOP]
                            .stored
                            .iter()
                            .position(|c| c.is_some_and(|c| c.slot() == slot))?;
                        Some((v, i))
                    })
                    .expect("every slot of a part is stored in it")
            };
            let ((v1, i1), (v2, i2)) = (cell(&labels, 1), cell(&labels, 2));
            let first = labels[v1].parts[TOP].stored[i1].unwrap();
            let second = labels[v2].parts[TOP].stored[i2].unwrap();
            let moved = |to: PieceCell, from: PieceCell| {
                Some(PieceCell::new(
                    to.slot(),
                    from.root_id(),
                    from.level(),
                    from.min_out(),
                ))
            };
            labels[v1].parts[TOP].stored[i1] = moved(first, second);
            labels[v2].parts[TOP].stored[i2] = moved(second, first);

            let root = inst
                .graph
                .nodes()
                .find(|&v| inst.graph.id(v) == u64::from(part.part_root_id))
                .unwrap();
            let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
            let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
            let alarmed = (0..64).any(|_| {
                runner.run(1);
                runner.network().state(root).verdict == Verdict::Reject
            });
            assert!(
                alarmed,
                "seed {seed}: the part root raised no alarm in 64 rounds"
            );
        }
    }

    /// A 256-node instance after 64 fault-free rounds, and the nodes that
    /// store the piece of a one-piece Bottom part (on these instances such
    /// a part is a single node).
    fn one_piece_bottom_parts(
        verifier: &CoreVerifier,
    ) -> (ReferenceRunner<'_, CoreVerifier>, Vec<NodeId>) {
        let mut runner = ReferenceRunner::rounds(verifier, verifier.network());
        runner.run(64);
        assert!(!runner.network().any_alarm(verifier), "warm-up");
        let holders = (verifier.graph.nodes())
            .filter(|v| {
                let part = verifier.labels[v.index()].parts[BOTTOM];
                part.piece_count == 1 && part.stored[0].is_some()
            })
            .collect();
        (runner, holders)
    }

    /// One wrong `down` cell (slot 0, member flag set, a wrong fragment
    /// root) in a one-piece Bottom part. The slot never changes there, so
    /// only re-reading `down` from its source, the node's stored piece,
    /// replaces the cell: no alarm after the first round, for 400 rounds.
    #[test]
    fn a_wrong_down_cell_in_a_one_piece_part_heals() {
        let (_, verifier) = setup(256, 768, 0);
        let (mut runner, holders) = one_piece_bottom_parts(&verifier);
        let v = holders[0];
        let train = &mut runner.network_mut().state_mut(v).trains[BOTTOM];
        let shown = train.down.expect("the part's piece is shown");
        let wrong = PieceCell::new(0, shown.root_id() + 1, shown.level(), shown.min_out());
        train.down = Some(wrong.with_member(true));
        let last = (0..400).fold(None, |last, round| {
            runner.run(1);
            (runner.network().any_alarm(&verifier))
                .then_some(round)
                .or(last)
        });
        assert!(
            last.is_none_or(|r| r == 0),
            "{v}: alarms until round {last:?} of 400"
        );
    }

    /// A corrupted stored piece of a one-piece Bottom part is caught: the
    /// new piece reaches the `down` buffer, where a buffer that kept its
    /// own past would keep showing the old one. Each of six such parts (one
    /// corrupted at a time) alarms within 400 rounds.
    #[test]
    fn a_corrupted_piece_of_a_one_piece_part_alarms() {
        let (_, verifier) = setup(256, 768, 0);
        let (_, holders) = one_piece_bottom_parts(&verifier);
        for &h in &holders[..6] {
            let (mut runner, _) = one_piece_bottom_parts(&verifier);
            let stored = &mut runner.network_mut().state_mut(h).label.parts[BOTTOM].stored[0];
            let cell = stored.as_mut().unwrap();
            if cell.has_min_out() {
                cell.weight += 1;
            } else {
                cell.root_id += 1;
            }
            let alarmed = (0..400).any(|_| {
                runner.run(1);
                runner.network().any_alarm(&verifier)
            });
            assert!(
                alarmed,
                "{h}: its corrupted piece raised no alarm in 400 rounds"
            );
        }
    }

    /// A node of degree above `u16::MAX` walks all its neighbours: the
    /// comparison pointer neither overflows (a debug build panicked) nor
    /// wraps back to port 0 (a release build never finished the round).
    #[test]
    fn a_centre_of_degree_beyond_u16_walks_every_neighbour() {
        let g = smst_graph::generators::star_graph(66_000, 1);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        let inst = Instance::from_tree(g, &tree);
        let (labels, _) = Marker.label(&inst).unwrap();
        let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
        let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
        // the centre's first full walk ends in round 2, which moves it to
        // its next level
        let level_idx = (0..3)
            .map(|_| {
                runner.run(1);
                runner.network().state(NodeId(0)).compare.level_idx
            })
            .collect::<Vec<_>>();
        assert!(runner.network().alarming_nodes(&verifier).is_empty());
        assert!(level_idx.windows(2).any(|w| w[0] != w[1]), "{level_idx:?}");
    }

    #[test]
    fn memory_is_logarithmic() {
        let (inst, verifier) = setup(64, 160, 3);
        let net = verifier.network();
        let bits = net.memory_bits(&verifier);
        let log_n = (inst.node_count() as f64).log2();
        for b in bits {
            assert!(
                (b as f64) < 120.0 * log_n + 300.0,
                "{b} bits is not O(log n)"
            );
        }
    }
}
