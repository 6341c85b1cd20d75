//! §7.2's comparison: a node walks its levels `J(v)` one at a time, holds
//! its own member piece of the level in its `Ask` buffer, and visits its
//! neighbours in port order. A neighbour that shows its member piece of the
//! level, or has no fragment at it, is compared at once — the event
//! `E(v, u, j)`, where the minimality checks C1/C2 and Claim 8.3's equality
//! checks run; one that does not is named in the `Want` register, which
//! makes that neighbour's trains hold the piece once it shows (§7.2.2), and
//! waited for. A step reads one node's view of its neighbourhood
//! (`CompareView`) and the node's trains after their own step; the
//! verifier wires it and passes the hold to the trains.

use crate::labels::{PieceCell, Widths, MAX_WATCH_WRAPS};
use crate::strings::{EndpSym, RootSym};
use crate::train::{self, TrainState};
use crate::verifier::CoreState;
use smst_graph::weight::CompositeWeight;
use smst_graph::{Port, WeightedGraph};
use smst_sim::NodeContext;

/// The comparison (client) state of §7.2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompareState {
    /// Index into the node's level list `J(v)` of the level being compared.
    pub level_idx: u8,
    /// The held piece `I(F_j(v))` (the `Ask` buffer), in the cell of the
    /// train buffer it was copied from.
    pub ask: Option<PieceCell>,
    /// The port of the neighbour currently being compared (a node's degree
    /// can exceed `u16::MAX`).
    pub neighbor_ptr: u32,
    /// The `Want` register: `(neighbour identity, level)` this node is
    /// waiting to see.
    pub want_cmp: Option<(u32, u8)>,
    /// The last observed slot counters of the watched neighbour's two trains
    /// (used to count that neighbour's cycle boundaries).
    pub watched_prev: [u8; 2],
    /// Cycle boundaries observed on the watched neighbour's trains,
    /// saturating at `MAX_WATCH_WRAPS` (3), the only value they are tested
    /// against.
    pub watched_wraps: [u8; 2],
}

impl CompareState {
    /// Points the walk at `port`: no `Want` and no cycle counts yet.
    fn visit(&mut self, port: u32) {
        self.neighbor_ptr = port;
        self.want_cmp = None;
        self.watched_wraps = [0, 0];
    }

    /// Hands each field to `sink` as `(name, value, width)`.
    pub fn walk(&self, w: &Widths, sink: &mut impl FnMut(&'static str, u64, u32)) {
        let CompareState {
            level_idx,
            ask,
            neighbor_ptr,
            want_cmp,
            watched_prev,
            watched_wraps,
        } = *self;
        sink("CompareState.level_idx", level_idx.into(), w.level);
        PieceCell::walk_option(ask, w, false, sink);
        sink("CompareState.neighbor_ptr", neighbor_ptr.into(), w.port);
        let (want_id, want_level) = want_cmp.unwrap_or_default();
        sink("CompareState.want_cmp?", want_cmp.is_some().into(), w.flag);
        sink("CompareState.want_cmp.id", want_id.into(), w.id);
        sink("CompareState.want_cmp.level", want_level.into(), w.level);
        for prev in watched_prev {
            sink("CompareState.watched_prev", prev.into(), w.slot);
        }
        for wraps in watched_wraps {
            sink("CompareState.watched_wraps", wraps.into(), w.watch_wraps);
        }
    }
}

/// The cell of the member piece of `level` that one of `trains` shows, if
/// any.
fn shown_member(trains: &[TrainState; 2], level: u32) -> Option<PieceCell> {
    (trains.iter()).find_map(|t| t.shown_member().filter(|d| d.level() == level))
}

/// One node's view of its neighbourhood: all a comparison step reads
/// besides the node's own trains.
pub(crate) struct CompareView<'a> {
    pub(crate) graph: &'a WeightedGraph,
    pub(crate) ctx: &'a NodeContext,
    pub(crate) own: &'a CoreState,
    pub(crate) neighbors: &'a [&'a CoreState],
    /// The port of the node's component parent, if any.
    pub(crate) parent_port: Option<Port>,
}

impl CompareView<'_> {
    /// §7.2.2's hold on the trains: whether some neighbour currently `Want`s
    /// a member piece this node shows.
    ///
    /// One fold over every neighbour, its tests joined with the
    /// non-short-circuit `&` and `|`: whether a neighbour wants is data the
    /// branch predictor cannot learn, and a short-circuit scan mispredicted
    /// on it for ≈ 15 % of a verifier round at n = 4 000. Each field of the
    /// `Want` has its own `map_or`, which compiles to a select; unwrapping
    /// the pair at once compiled to a branch. There is no early exit for a
    /// node whose trains show no member piece: at n = 4 000 that is ≈ 6 % of
    /// activations, and the exit cost ≈ 2 % of the kernel (≈ 150 against
    /// ≈ 147 ns per node-round) without moving the profile.
    pub(crate) fn hold(&self) -> bool {
        let id = self.ctx.id;
        let shown = self.own.trains.map(|t| t.shown_member().map(|d| d.level()));
        let [(shows0, level0), (shows1, level1)] = shown.map(|s| (s.is_some(), s.unwrap_or(0)));
        self.neighbors.iter().fold(false, |held, s| {
            let want = s.compare.want_cmp;
            let want_id = u64::from(want.map_or(0, |(id, _)| id));
            let want_level = u32::from(want.map_or(0, |(_, level)| level));
            let shows_it = (shows0 & (want_level == level0)) | (shows1 & (want_level == level1));
            held | (want.is_some() & (want_id == id) & shows_it)
        })
    }

    /// One step of the walk, from the node's `trains` after their own step:
    /// writes the next comparison state into `out` and returns whether an
    /// edge check fired or a wanted piece never showed.
    pub(crate) fn step(&self, trains: &[TrainState; 2], out: &mut CompareState) -> bool {
        // J(v), the node's levels in ascending order, is the set bits of
        // the present mask
        let levels = self.own.label.strings.present();
        let level_count = levels.count_ones() as usize;
        if level_count == 0 {
            *out = CompareState::default();
            return false;
        }
        let mut cmp = self.own.compare;
        if usize::from(cmp.level_idx) >= level_count {
            cmp = CompareState::default();
        }
        // the `level_idx`-th set bit: drop the lower ones
        let level = (0..cmp.level_idx)
            .fold(levels, |m, _| m & (m - 1))
            .trailing_zeros();

        // obtain the Ask piece for the current level from one of our trains
        if cmp.ask.is_some_and(|p| p.level() != level) {
            cmp.ask = None;
        }
        if cmp.ask.is_none() {
            cmp.ask = shown_member(trains, level);
            cmp.visit(0);
        }
        let Some(ask) = cmp.ask else {
            *out = cmp;
            return false;
        };

        // walk the neighbours in port order, up to the first one to wait for
        let mut alarm = false;
        while (cmp.neighbor_ptr as usize) < self.ctx.degree {
            let port = Port(cmp.neighbor_ptr as usize);
            let u = self.neighbors[port.index()];
            let their = if u.label.strings.root(level as usize) == RootSym::Absent {
                None
            } else if let Some(their) = shown_member(&u.trains, level) {
                Some(their)
            } else {
                // not shown: file a Want and count the neighbour's cycles (a
                // level is a bit of the 64-bit `present` mask, so it fits
                // the byte)
                cmp.want_cmp = Some((u.label.sp.own_id, level as u8));
                let cur = u.trains.map(|t| t.want);
                for (t, &c) in cur.iter().enumerate() {
                    cmp.watched_wraps[t] = train::count_wraps(
                        cmp.watched_wraps[t],
                        cmp.watched_prev[t],
                        c,
                        MAX_WATCH_WRAPS,
                    );
                }
                cmp.watched_prev = cur;
                if cmp.watched_wraps.iter().all(|&w| w >= MAX_WATCH_WRAPS) {
                    // the neighbour's trains completed several full cycles
                    // and the needed piece never appeared
                    alarm = true;
                    cmp.visit(cmp.neighbor_ptr + 1);
                }
                break;
            };
            alarm |= self.check_edge(port, u, ask, their, level);
            cmp.visit(cmp.neighbor_ptr + 1);
        }
        if cmp.neighbor_ptr as usize >= self.ctx.degree {
            // done with this level: move on
            cmp.level_idx = ((usize::from(cmp.level_idx) + 1) % level_count) as u8;
            cmp.ask = None;
            cmp.visit(0);
        }
        *out = cmp;
        alarm
    }

    /// The checks of the event `E(v, u, j)` on the edge behind `port`, with
    /// `ask` this node's piece `I(F_j(v))` and `their` the neighbour's
    /// (`None` if it has no level-`j` fragment, so the edge is outgoing).
    /// Returns whether C1, C2 or Claim 8.3 fired.
    fn check_edge(
        &self,
        port: Port,
        u: &CoreState,
        ask: PieceCell,
        their: Option<PieceCell>,
        level: u32,
    ) -> bool {
        let is_parent = self.parent_port == Some(port);
        if let Some(their) = their {
            let same_fragment = ask.root_id() == their.root_id();
            // Claim 8.3: tree neighbours in the same fragment hold identical
            // pieces; the strings already tell whether the parent shares
            // the fragment
            let parent_shares =
                is_parent && self.own.label.strings.root(level as usize) == RootSym::NonRoot;
            if !ask.same_piece(&their) && (same_fragment || parent_shares) {
                return true;
            }
            if same_fragment {
                // the candidate edge must be outgoing
                return self.is_candidate_edge(is_parent, u, level);
            }
        }
        // the edge is outgoing: no lighter than the fragment's minimum
        // outgoing edge (C2), and that edge if it is the candidate (C1)
        let Some(min_out) = ask.min_out() else {
            return true; // the whole-tree fragment has no outgoing edge
        };
        let e = self.graph.incident_edges(self.ctx.node)[port.index()];
        let w = CompositeWeight::new(
            self.graph.weight(e),
            is_parent || u.label.sp.has_parent(self.ctx.id),
            self.ctx.id,
            u64::from(u.label.sp.own_id),
        );
        w < min_out || (self.is_candidate_edge(is_parent, u, level) && w != min_out)
    }

    /// Whether the edge to the neighbour `u` (behind the parent port if
    /// `is_parent`) is this node's candidate edge at `level`, according to
    /// the EndP/Parents strings.
    fn is_candidate_edge(&self, is_parent: bool, u: &CoreState, level: u32) -> bool {
        let j = level as usize;
        match self.own.label.strings.endp(j) {
            EndpSym::Up => is_parent,
            EndpSym::Down => u.label.sp.has_parent(self.ctx.id) && u.label.strings.parent_bit(j),
            _ => false,
        }
    }
}

/// The short-circuit `any` [`CompareView::hold`] was before it became one
/// branch-free fold — kept as the oracle the fold is held against.
#[cfg(test)]
mod reference {
    use super::CompareView;

    pub fn hold(view: &CompareView<'_>) -> bool {
        let shown = view.own.trains.map(|t| t.shown_member().map(|d| d.level()));
        if shown == [None, None] {
            return false;
        }
        view.neighbors.iter().any(|s| {
            s.compare.want_cmp.is_some_and(|(id, lev)| {
                u64::from(id) == view.ctx.id && shown.contains(&Some(u32::from(lev)))
            })
        })
    }
}

/// The hub probe: node 0 of `random_connected_graph(n, 3n, 5)` gains
/// non-tree edges, each heavier than every other edge so that the MST, the
/// hierarchy and the labels do not change, until it reaches each degree of
/// a ladder. Per degree it measures the hub's longest compare pass on the
/// honest instance, and the first alarm once one of those edges is made a
/// one-witness lie. `cargo test --release -p smst-core hub -- --ignored
/// --nocapture` prints the n = 1 024 table.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{CoreLabel, MAX_FIELD};
    use crate::marker::Marker;
    use crate::verifier::CoreVerifier;
    use smst_graph::generators::{
        caterpillar_graph, expander_graph, grid_graph, path_graph, random_connected_graph,
        reweighted,
    };
    use smst_graph::mst::kruskal;
    use smst_graph::{EdgeId, GraphBuilder, NodeId};
    use smst_labeling::Instance;
    use smst_rng::{Rng, SeedableRng, StdRng};
    use smst_sim::{ReferenceRunner, StopCondition};

    const HUB: NodeId = NodeId(0);

    /// The probe at one hub degree: the honest instance and its marker
    /// labels, the number of extra edges, and the graph with the lie
    /// planted (`None` without extra edges, which the lie needs).
    struct Hub {
        inst: Instance,
        labels: Vec<CoreLabel>,
        extra: usize,
        lie: Option<WeightedGraph>,
    }

    /// The lie's edge `(hub, u)` and weight `w`, found on the base graph:
    /// the first node `u` not adjacent to the hub, and the least unused `w`,
    /// such that `w` is below the `min_out` of some F_j(hub) not containing
    /// `u` (the hub's C2 fires) and not below the `min_out` of any fragment
    /// of `u` not containing the hub (`u`'s does not). No other node reads
    /// the edge's weight, so only the hub's walk can see the lie.
    fn lie(g: &WeightedGraph) -> (NodeId, u64) {
        let tree = kruskal(g).rooted_at(g, HUB).unwrap();
        let inst = Instance::from_tree(g.clone(), &tree);
        let (_, _, (mst, _)) = Marker.label_with_internals(&inst).unwrap();
        let h = &mst.hierarchy;
        // the `min_out` weights of the fragments of `v` not containing `x`
        let min_outs = |v: NodeId, x: NodeId| {
            (h.fragments_containing(v))
                .filter(move |&f| !h.fragment(f).contains(x))
                .filter_map(|f| h.candidate(f))
                .map(|e| g.weight(e))
        };
        let used: Vec<u64> = g.edges().iter().map(|e| e.weight).collect();
        (g.nodes())
            .filter(|&u| u != HUB && g.edge_between(HUB, u).is_none())
            .find_map(|u| {
                let above = min_outs(HUB, u).max()?;
                let floor = min_outs(u, HUB).max().unwrap_or(0);
                let w = (floor + 1..).find(|w| !used.contains(w))?;
                (w < above).then_some((u, w))
            })
            .expect("a node admits a one-witness lie")
    }

    /// The probe's instance at hub degree `degree`: the base graph plus
    /// edges from the hub to the nodes not adjacent to it, in index order
    /// with the lie's node moved last, so that the lie sits at the hub's
    /// last port. The planted graph lowers that edge's weight to the
    /// lie's.
    fn hub(n: usize, degree: usize) -> Hub {
        let g = random_connected_graph(n, 3 * n, 5);
        let (u, w) = lie(&g);
        let extra = degree - g.degree(HUB);
        let heaviest = g.max_weight().unwrap();
        let mut b = GraphBuilder::new();
        for v in g.nodes() {
            b.add_node_with_id(g.id(v));
        }
        b.reserve_edges(g.edge_count() + extra);
        for e in g.edges() {
            b.add_edge(e.u, e.v, e.weight).unwrap();
        }
        let others =
            (g.nodes()).filter(|&v| v != HUB && v != u && g.edge_between(HUB, v).is_none());
        let targets = (others.take(extra.saturating_sub(1))).chain((extra > 0).then_some(u));
        for (i, v) in targets.enumerate() {
            b.add_edge(HUB, v, heaviest + 1 + i as u64).unwrap();
        }
        let g = b.finish();
        let last = EdgeId(g.edge_count() - 1);
        let lie =
            (extra > 0).then(|| reweighted(&g, |e, weight| if e == last { w } else { weight }));
        let tree = kruskal(&g).rooted_at(&g, HUB).unwrap();
        let inst = Instance::from_tree(g, &tree);
        let (labels, _) = Marker.label(&inst).unwrap();
        Hub {
            inst,
            labels,
            extra,
            lie,
        }
    }

    impl Hub {
        /// The verifier of the instance's tree and labels on `graph`.
        fn verifier(&self, graph: WeightedGraph) -> CoreVerifier {
            CoreVerifier::new(graph, self.inst.components.clone(), self.labels.clone())
        }

        /// The hub's longest compare pass, in rounds between two returns of
        /// its `level_idx` to 0, over `rounds` fault-free rounds; and the
        /// number of its levels.
        fn longest_pass(&self, rounds: usize) -> (usize, u32) {
            let verifier = self.verifier(self.inst.graph.clone());
            let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
            let (mut last, mut returns) = (0, Vec::new());
            for round in 1..=rounds {
                runner.run(1);
                let now = runner.network().state(HUB).compare.level_idx;
                if now == 0 && last != 0 {
                    returns.push(round);
                }
                last = now;
            }
            assert!(!runner.network().any_alarm(&verifier), "a false alarm");
            let longest = returns.windows(2).map(|w| w[1] - w[0]).max();
            let levels = self.labels[HUB.index()].strings.present().count_ones();
            (longest.expect("two full passes"), levels)
        }

        /// The first round, from fresh registers, in which a node alarms
        /// with the lie planted; the hub must be among the alarming nodes.
        fn first_alarm(&self, rounds: usize) -> Option<usize> {
            let verifier = self.verifier(self.lie.clone()?);
            let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
            let round = runner
                .run_until(StopCondition::FirstAlarm, rounds)
                .expect("the lie alarms");
            let alarming = runner.network().alarming_nodes(&verifier);
            assert!(alarming.contains(&HUB), "round {round}: {alarming:?}");
            Some(round)
        }
    }

    /// Measures every degree of `table` — `(hub degree, longest pass,
    /// first alarm)` — within `budget(extra edges)` rounds, prints the
    /// measured table and asserts it equals the pinned one.
    fn probe(n: usize, table: &[(usize, usize, Option<usize>)], budget: impl Fn(usize) -> usize) {
        println!("n = {n}: hub degree, |J|, longest pass, first alarm");
        let measured: Vec<_> = (table.iter())
            .map(|&(degree, ..)| {
                let hub = hub(n, degree);
                let rounds = budget(hub.extra);
                let (pass, levels) = hub.longest_pass(rounds);
                let alarm = hub.first_alarm(rounds);
                let shown = alarm.map_or("—".into(), |a| a.to_string());
                println!("{degree:>4} {levels:>2} {pass:>6} {shown:>6}");
                (degree, pass, alarm)
            })
            .collect();
        assert_eq!(measured, table);
    }

    /// The hub probe at n = 1 024 over 30 000 + 400·k rounds, k the extra
    /// edges (the hub has degree 8 without them, so no lie at 8): `(hub
    /// degree, longest pass, first alarm)`. The pass grows linearly with
    /// the degree, and so does the lie's first alarm. These are the walk's
    /// numbers; a change that means to move the walk re-records them.
    const HUB_1024: [(usize, usize, Option<usize>); 7] = [
        (8, 605, None),
        (16, 1001, Some(506)),
        (24, 1788, Some(793)),
        (40, 2553, Some(1393)),
        (72, 4758, Some(2176)),
        (136, 7979, Some(4163)),
        (264, 16290, Some(9152)),
    ];

    /// The same probe at n = 128 over 3 000 + 100·k rounds.
    const HUB_128: [(usize, usize, Option<usize>); 3] = [
        (8, 297, Some(60)),
        (16, 601, Some(133)),
        (40, 1585, Some(300)),
    ];

    #[test]
    fn hub_passes_and_first_alarms_match_the_small_table() {
        probe(128, &HUB_128, |k| 3_000 + 100 * k);
    }

    #[test]
    #[ignore = "n = 1 024 over up to 132 400 rounds per degree: a release-mode CI step"]
    fn hub_passes_and_first_alarms_match_the_pinned_table() {
        probe(1024, &HUB_1024, |k| 30_000 + 400 * k);
    }

    /// The hold and its reference on one neighbourhood, which must agree;
    /// returns the hold.
    fn both_holds(ctx: &NodeContext, own: &CoreState, neighbors: &[&CoreState]) -> bool {
        let graph = path_graph(2, 0);
        let view = CompareView {
            graph: &graph,
            ctx,
            own,
            neighbors,
            parent_port: None,
        };
        let hold = view.hold();
        assert_eq!(hold, reference::hold(&view), "id {}: {own:?}", ctx.id);
        hold
    }

    #[test]
    fn hold_matches_the_short_circuit_reference() {
        // seeded random neighbourhoods: a `Want` absent or present, naming
        // this node or another, at a level one train shows, both show or
        // neither does; trains showing no, a non-member or a member piece,
        // at levels that often coincide; identities near u32::MAX
        let (inst, labels) = crate::verifier::tests::marked(8, 12, 3);
        let verifier = CoreVerifier::new(inst.graph.clone(), inst.components, labels);
        let base = *verifier.network().state(NodeId(0));
        let mut rng = StdRng::seed_from_u64(54);
        let ids = [0, 1, 7, MAX_FIELD - 1, MAX_FIELD];
        let mut held = 0;
        for _ in 0..20_000 {
            let id = if rng.gen_bool(0.5) {
                ids[rng.gen_range(0..ids.len())]
            } else {
                rng.gen_range(0..=MAX_FIELD)
            };
            let mut own = base;
            for train in &mut own.trains {
                train.down = match rng.gen_range(0..3u32) {
                    0 => None,
                    k => Some(PieceCell::new(0, 1, rng.gen_range(0..4), None).with_member(k == 2)),
                };
            }
            let shown = own.trains.map(|t| t.down.map_or(0, |d| d.level() as u8));
            let degree = rng.gen_range(0..6usize);
            let neighbors: Vec<CoreState> = (0..degree)
                .map(|_| {
                    let mut u = base;
                    let want_id = match rng.gen_range(0..4u32) {
                        0 | 1 => id as u32,
                        2 => (id as u32) ^ 1,
                        _ => rng.gen_range(0..=MAX_FIELD) as u32,
                    };
                    let level = match rng.gen_range(0..4u32) {
                        0 | 1 => shown[rng.gen_range(0..2usize)],
                        _ => rng.gen_range(0..6),
                    };
                    u.compare.want_cmp = rng.gen_bool(0.8).then_some((want_id, level));
                    u
                })
                .collect();
            let refs: Vec<&CoreState> = neighbors.iter().collect();
            let ctx = NodeContext {
                node: NodeId(0),
                id,
                degree,
            };
            held += usize::from(both_holds(&ctx, &own, &refs));
        }
        assert!(
            held > 1_000,
            "the random neighbourhoods hold only {held} times"
        );

        // every node of the marker's labels over 64 fault-free rounds
        for g in [
            path_graph(48, 1),
            grid_graph(6, 8, 1),
            caterpillar_graph(12, 3, 1),
            random_connected_graph(48, 144, 1),
            expander_graph(48, 4, 1),
        ] {
            let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
            let inst = Instance::from_tree(g, &tree);
            let (labels, _) = Marker.label(&inst).unwrap();
            let verifier = CoreVerifier::new(inst.graph.clone(), inst.components, labels);
            let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
            for _ in 0..64 {
                runner.run(1);
                let net = runner.network();
                for v in inst.graph.nodes() {
                    let neighbors: Vec<&CoreState> =
                        inst.graph.neighbors(v).map(|u| net.state(u)).collect();
                    both_holds(net.context(v), net.state(v), &neighbors);
                }
            }
        }
    }
}
