//! §7.1's trains, ack-paced: each part circulates its pieces past every
//! member, one slot at a time (README, "The trains (ack-paced)"). A step
//! reads one node's view of one part (`PartView`) and its same-part
//! children's trains; the verifier wires it to the registers and supplies
//! §7.1's membership rule, which reads the hierarchy strings.

use crate::labels::{PartLabel, PieceCell, Widths, COMPLETENESS_WRAPS, DELAY_MAX};

/// The per-train dynamic registers of a node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainState {
    /// The slot currently being circulated (driven by the part root).
    pub want: u8,
    /// The piece climbing up (§7.1 convergecast): the node's stored piece
    /// of slot `want`, else the first same-part child's `up` of that slot.
    pub up: Option<PieceCell>,
    /// The piece flooding down (§7.1 broadcast), a.k.a. `Show`, with §7.1's
    /// membership flag: re-read from its source (the part root's `up`, the
    /// part parent's `down`) whenever that carries slot `want`, kept while
    /// it does not or while §7.2.2's hold delays a slot change. At the part
    /// root it still holds the previous slot's piece for §8's order check.
    pub down: Option<PieceCell>,
    /// Set once this node's whole part-subtree holds the piece of slot
    /// `want` — the acknowledgement that paces the root. It acknowledges
    /// no other slot, so the slot is not stored with it.
    pub done: bool,
    /// How long the node has delayed replacing its `down` buffer because a
    /// neighbour `Want`s the currently shown piece.
    pub delay: u8,
    /// Cycle boundaries (slot counter wrap-arounds) observed since the last
    /// completeness check, saturating at `COMPLETENESS_WRAPS` (2), the only
    /// value it is tested against.
    pub wraps: u8,
}

impl TrainState {
    /// The member piece this train currently shows, if any.
    pub(crate) fn shown_member(&self) -> Option<PieceCell> {
        self.down.filter(|d| d.member())
    }

    /// Hands each field to `sink` as `(name, value, width)`.
    pub fn walk(&self, w: &Widths, sink: &mut impl FnMut(&'static str, u64, u32)) {
        let TrainState {
            want,
            up,
            down,
            done,
            delay,
            wraps,
        } = *self;
        sink("TrainState.want", want.into(), w.slot);
        PieceCell::walk_option(up, w, false, sink);
        PieceCell::walk_option(down, w, true, sink);
        sink("TrainState.done", done.into(), w.flag);
        sink("TrainState.delay", delay.into(), w.delay);
        sink("TrainState.wraps", wraps.into(), w.wraps);
    }
}

/// A cycle counter after one more cycle boundary, saturating at `cap`, the
/// threshold it is tested against, whatever value a fault left in it.
fn add_wrap(wraps: u8, cap: u8) -> u8 {
    wraps.saturating_add(1).min(cap)
}

/// A cycle counter after a slot counter moved from `prev` to `now`: a
/// falling counter is a cycle boundary.
pub(crate) fn count_wraps(wraps: u8, prev: u8, now: u8, cap: u8) -> u8 {
    if now < prev {
        add_wrap(wraps, cap)
    } else {
        wraps
    }
}

/// Whether both trains of a node completed `COMPLETENESS_WRAPS` cycles
/// since §8's last completeness check; if so, their counts start over.
pub(crate) fn take_cycles(trains: &mut [TrainState; 2]) -> bool {
    let closed = trains.iter().all(|t| t.wraps >= COMPLETENESS_WRAPS);
    if closed {
        for t in trains {
            t.wraps = 0;
        }
    }
    closed
}

/// What a node gathers for one train from its children in the same part:
/// the first child's climbing piece of the wanted slot, and whether some
/// child has not acknowledged that slot.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChildTrains {
    up: Option<PieceCell>,
    unacked: bool,
}

impl ChildTrains {
    /// Adds the train of a child in the same part, for the slot `want`.
    pub(crate) fn add(&mut self, child: &TrainState, want: u8) {
        if self.up.is_none() {
            self.up = child.up.filter(|u| u.slot() == want);
        }
        self.unacked |= !(child.done && child.want == want);
    }
}

/// One node's view of one part: all a train step reads besides its
/// children ([`ChildTrains`]) and the membership rule.
pub(crate) struct PartView<'a> {
    pub(crate) part: &'a PartLabel,
    pub(crate) is_root: bool,
    pub(crate) own: &'a TrainState,
    /// The tree parent's train, if the tree parent is in the same part.
    pub(crate) parent: Option<&'a TrainState>,
    /// Whether some neighbour `Want`s a member piece this node shows.
    pub(crate) hold: bool,
}

impl PartView<'_> {
    /// First half of a step: decides the slot the train circulates this
    /// activation (`None` if the part has no pieces) and writes the
    /// registers that pace it into `out`, the node's next train.
    pub(crate) fn slot(&self, out: &mut TrainState) -> Option<u8> {
        let k = self.part.piece_count;
        let train = self.own;
        if k == 0 {
            *out = TrainState::default();
            return None;
        }
        let mut wraps = train.wraps;
        let want = if self.is_root {
            let mut w = if train.want >= k { 0 } else { train.want };
            // advance once the whole part acknowledged and no neighbour holds us
            let done_here = train.done && train.want == w;
            let held = self.hold && train.delay < DELAY_MAX;
            if done_here && !held {
                w = (w + 1) % k;
                if w == 0 {
                    wraps = add_wrap(wraps, COMPLETENESS_WRAPS);
                }
            }
            out.delay = if done_here && held {
                train.delay.saturating_add(1)
            } else {
                0
            };
            w
        } else {
            let w = self.parent.map_or(0, |p| p.want);
            let w = if w >= k { 0 } else { w };
            wraps = count_wraps(wraps, train.want, w, COMPLETENESS_WRAPS);
            w
        };
        out.want = want;
        out.wraps = wraps;
        Some(want)
    }

    /// Second half of a step, for the slot `want` that [`Self::slot`]
    /// decided: the climbing and flooding buffers, each a function of its
    /// source (see [`TrainState`]), and the acknowledgement.
    /// `member(piece, at_root)` is §7.1's flag of a piece entering `down`.
    /// Returns whether §8's cyclic-order check fired at the part root.
    pub(crate) fn buffers(
        &self,
        want: u8,
        children: ChildTrains,
        out: &mut TrainState,
        member: impl Fn(PieceCell, bool) -> bool,
    ) -> bool {
        let train = self.own;
        let mut out_of_order = false;

        // the upward (convergecast) buffer
        let stored = self.part.stored_pieces().find(|s| s.slot() == want);
        out.up = stored.copied().or(children.up);

        // the downward (broadcast / Show) buffer, with the membership flag
        let source = if self.is_root {
            // `out.up` is the stored piece if there is one
            out.up.map(|u| u.with_member(member(u, true)))
        } else {
            self.parent
                .and_then(|p| p.down)
                .filter(|d| d.slot() == want)
                .map(|d| d.with_member(member(d, false)))
        };
        out.down = match source {
            None => train.down,
            Some(new) if train.down.is_some_and(|d| d.slot() == want) => Some(new),
            Some(new) => {
                // §7.2.2: do not overwrite a piece a neighbour still wants
                if self.hold && train.delay < DELAY_MAX && train.down.is_some() {
                    out.delay = train.delay.saturating_add(1);
                    train.down
                } else {
                    if !self.is_root {
                        out.delay = 0;
                    } else if let Some(old) =
                        train.down.filter(|d| want != 0 && d.slot() == want - 1)
                    {
                        // cyclic-order check of §8: within a cycle each
                        // slot's piece has a strictly larger key than the
                        // previous slot's, which the root still shows
                        out_of_order = new.order_key() <= old.order_key();
                    }
                    Some(new)
                }
            }
        };

        // the acknowledgement
        let have = out.down.is_some_and(|d| d.slot() == want);
        out.done = have && !children.unacked;
        out_of_order
    }
}

/// The train probe: one part on its own, stepped synchronously from fresh
/// trains with no membership flag, and a `Want` hold set either nowhere or
/// at every node in every round. `cargo test --release -p smst-core train
/// -- --nocapture` prints its cycle tables.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{BOTTOM, TOP};
    use crate::marker::Marker;
    use crate::verifier::CoreVerifier;
    use smst_graph::generators::{caterpillar_graph, path_graph};
    use smst_graph::mst::kruskal;
    use smst_graph::NodeId;
    use smst_labeling::Instance;
    use smst_rng::{Rng, SeedableRng, StdRng};
    use smst_sim::ReferenceRunner;

    /// A part's shape, rooted at node 0.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// A path of depth `d`.
        Path(usize),
        /// A root with `leaves` leaves.
        Star(usize),
        /// A spine of `d` nodes with one leg each: depth `d`.
        Caterpillar(usize),
        /// A complete binary tree of depth `d`.
        Binary(usize),
    }

    impl Shape {
        /// Each node's parent; node 0 is the root.
        fn parents(self) -> Vec<Option<usize>> {
            let root = std::iter::once(None);
            match self {
                Shape::Path(d) => root.chain((0..d).map(Some)).collect(),
                Shape::Star(leaves) => root.chain((0..leaves).map(|_| Some(0))).collect(),
                // the spine is 0..d, and d + i is spine node i's leg
                Shape::Caterpillar(d) => root
                    .chain((0..d - 1).map(Some))
                    .chain((0..d).map(Some))
                    .collect(),
                Shape::Binary(d) => root
                    .chain((1..(2 << d) - 1).map(|v| Some((v - 1) / 2)))
                    .collect(),
            }
        }
    }

    /// Where a part's pieces go: the marker's Bottom placement (one per node
    /// in DFS preorder, the surplus as second pieces, again in preorder), or
    /// the same dealt to the deepest nodes first.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Placement {
        Preorder,
        DeepestFirst,
    }

    /// One part on its own: its tree, and each node's part label.
    struct Part {
        parent: Vec<Option<usize>>,
        children: Vec<Vec<usize>>,
        labels: Vec<PartLabel>,
    }

    /// A part's depth d and the depth of each slot's holder, in slot order,
    /// from its members' labels.
    fn depths(members: &[PartLabel]) -> (usize, Vec<usize>) {
        let d = members.iter().map(|m| m.depth_in_part.into()).max();
        let mut by_slot: Vec<(u8, usize)> = (members.iter())
            .flat_map(|m| (m.stored_pieces()).map(|c| (c.slot(), m.depth_in_part.into())))
            .collect();
        by_slot.sort();
        (
            d.unwrap_or(0),
            by_slot.into_iter().map(|(_, h)| h).collect(),
        )
    }

    /// The piece of slot `s`: its order key grows with the slot.
    fn piece(s: u8) -> PieceCell {
        PieceCell::new(s, u64::from(s) + 1, u32::from(s), None)
    }

    /// A train with garbage in every field: any slot counter, buffers with
    /// any slot below `2p` and any key, any ack, delay and cycle count.
    fn garbage(rng: &mut StdRng, p: u8) -> TrainState {
        let cell = |rng: &mut StdRng| {
            let (root_id, level) = (rng.gen_range(0..1000), rng.gen_range(0..8));
            let slot = rng.gen_range(0..2 * p);
            (rng.gen_bool(0.5))
                .then(|| PieceCell::new(slot, root_id, level, None).with_member(rng.gen_bool(0.5)))
        };
        TrainState {
            want: rng.gen(),
            up: cell(rng),
            down: cell(rng),
            done: rng.gen_bool(0.5),
            delay: rng.gen(),
            wraps: rng.gen(),
        }
    }

    /// The cycle, in rounds, on a part of depth `d` whose slots' holders sit
    /// at depths `holders` (two slots or more; one slot never moves), with a
    /// `Want` hold at every node in every round (`held`) or at none. Per
    /// slot, its number travels down to the holder and the piece climbs
    /// back (2h rounds), floods the part and the acks climb back (2d), and
    /// the root advances a round later. A hold costs `DELAY_MAX` rounds
    /// before the root advances, as many before it takes a piece it does not
    /// hold itself, and as many at each of the d hops of the flood.
    fn stop_and_wait_cycle(holders: &[usize], d: usize, held: bool) -> usize {
        let hold = |h: usize| d + 1 + usize::from(h > 0);
        (holders.iter())
            .map(|&h| 2 * h + 2 * d + 1 + usize::from(held) * hold(h) * usize::from(DELAY_MAX))
            .sum()
    }

    /// The longest cycle of `p` pieces in a part of depth `d`: every holder
    /// at depth `d`, `p·(4d + 1)` rounds, plus `p·(d + 2)·DELAY_MAX` if
    /// `held`.
    fn cycle_bound(d: usize, p: usize, held: bool) -> usize {
        stop_and_wait_cycle(&vec![d; p], d, held)
    }

    impl Part {
        /// `shape` with `pieces` pieces placed by `placement`.
        fn new(shape: Shape, pieces: u8, placement: Placement) -> Self {
            let parent = shape.parents();
            let n = parent.len();
            assert!(
                usize::from(pieces) <= 2 * n,
                "{shape:?} holds {pieces} pieces"
            );
            let mut children = vec![Vec::new(); n];
            let mut depth = vec![0; n];
            for (v, p) in parent.iter().enumerate() {
                if let Some(p) = *p {
                    children[p].push(v);
                    depth[v] = depth[p] + 1;
                }
            }
            let mut order = Vec::with_capacity(n);
            let mut stack = vec![0];
            while let Some(v) = stack.pop() {
                order.push(v);
                stack.extend(&children[v]);
            }
            if placement == Placement::DeepestFirst {
                order.sort_by_key(|&v| std::cmp::Reverse(depth[v]));
            }
            let mut count = vec![0; n];
            for &v in order.iter().cycle().take(pieces.into()) {
                count[v] += 1;
            }
            let holders = (order.iter()).flat_map(|&v| std::iter::repeat_n(v, count[v]));
            let d = depth.iter().copied().max().unwrap_or(0);
            let mut labels: Vec<PartLabel> = (depth.iter())
                .map(|&h| PartLabel {
                    part_root_id: 0,
                    depth_in_part: h as u8,
                    diameter_bound: d as u8,
                    piece_count: pieces,
                    stored: [None; 2],
                })
                .collect();
            for (s, v) in holders.enumerate() {
                let cells = &mut labels[v].stored;
                cells[usize::from(cells[0].is_some())] = Some(piece(s as u8));
            }
            Part {
                parent,
                children,
                labels,
            }
        }

        fn pieces(&self) -> u8 {
            self.labels[0].piece_count
        }

        /// One synchronous round: the trains after it, and whether the
        /// root's order check fired.
        fn step(&self, trains: &[TrainState], hold: bool) -> (Vec<TrainState>, bool) {
            let mut next = trains.to_vec();
            let mut out_of_order = false;
            for (v, out) in next.iter_mut().enumerate() {
                let view = PartView {
                    part: &self.labels[v],
                    is_root: v == 0,
                    own: &trains[v],
                    parent: self.parent[v].map(|p| &trains[p]),
                    hold,
                };
                let Some(want) = view.slot(out) else { continue };
                let mut kids = ChildTrains::default();
                for &c in &self.children[v] {
                    kids.add(&trains[c], want);
                }
                out_of_order |= view.buffers(want, kids, out, |_, _| false);
            }
            (next, out_of_order)
        }

        /// Steps from `trains` until the root's slot has wrapped `cycles + 1`
        /// times and returns the cycles between the wraps. On the way, the
        /// root's order check never fires, every node shows every slot's
        /// piece once between two wraps, in slot order, and the root wraps
        /// within the bound of [`cycle_bound`].
        fn cycles(&self, mut trains: Vec<TrainState>, held: bool, cycles: usize) -> Vec<usize> {
            let p = self.pieces();
            let n = self.parent.len();
            let give_up = (cycles + 2) * cycle_bound(depths(&self.labels).0, p.into(), held);
            let mut wraps = Vec::new();
            let mut shown: Vec<Vec<u8>> = vec![Vec::new(); n];
            for round in 0.. {
                assert!(round < give_up, "the root stopped wrapping");
                let (next, out_of_order) = self.step(&trains, held);
                assert!(!out_of_order, "round {round}: the order check fired");
                if next[0].want == 0 && trains[0].want != 0 {
                    if !wraps.is_empty() {
                        for (v, slots) in shown.iter().enumerate() {
                            assert!(
                                slots.iter().copied().eq(0..p),
                                "node {v} showed slots {slots:?} in the cycle to round {round}"
                            );
                        }
                    }
                    shown.iter_mut().for_each(Vec::clear);
                    wraps.push(round);
                    if wraps.len() > cycles {
                        break;
                    }
                }
                for (v, (old, new)) in trains.iter().zip(&next).enumerate() {
                    if let Some(d) = new.down.filter(|_| new.down != old.down) {
                        assert_eq!(d, piece(d.slot()), "node {v} shows a piece it never got");
                        shown[v].push(d.slot());
                    }
                }
                trains = next;
            }
            wraps.windows(2).map(|w| w[1] - w[0]).collect()
        }
    }

    /// The steady-state cycle, in rounds, of each probed part: `(shape,
    /// pieces, cycle under the marker's preorder placement, cycle with the
    /// pieces dealt deepest first)`. These are the ack-paced train's
    /// numbers; a change that means to move the train re-records them.
    const CYCLES: [(Shape, u8, usize, usize); 24] = [
        (Shape::Path(4), 2, 20, 32),
        (Shape::Path(4), 4, 48, 56),
        (Shape::Path(4), 8, 98, 110),
        (Shape::Path(8), 2, 36, 64),
        (Shape::Path(8), 4, 80, 120),
        (Shape::Path(8), 8, 192, 208),
        (Shape::Path(16), 2, 68, 128),
        (Shape::Path(16), 4, 144, 248),
        (Shape::Path(16), 8, 320, 464),
        (Shape::Star(8), 2, 8, 10),
        (Shape::Star(8), 4, 18, 20),
        (Shape::Star(8), 8, 38, 40),
        (Shape::Caterpillar(4), 2, 20, 32),
        (Shape::Caterpillar(4), 4, 44, 60),
        (Shape::Caterpillar(4), 8, 104, 104),
        (Shape::Caterpillar(8), 2, 36, 64),
        (Shape::Caterpillar(8), 4, 76, 124),
        (Shape::Caterpillar(8), 8, 168, 232),
        (Shape::Binary(3), 2, 16, 26),
        (Shape::Binary(3), 4, 40, 52),
        (Shape::Binary(3), 8, 90, 104),
        (Shape::Binary(5), 2, 24, 42),
        (Shape::Binary(5), 4, 56, 84),
        (Shape::Binary(5), 8, 136, 168),
    ];

    /// Every probed part settles into one cycle length from its first wrap
    /// on, equal to the pinned one and to [`stop_and_wait_cycle`]'s, and
    /// within `p·(4d + 1)` rounds: `c·d·p` with `c` at most 5. It does so
    /// from fresh trains, and from garbage in every node's train once
    /// three of those cycles have passed.
    #[test]
    fn train_cycles_match_the_pinned_table() {
        println!("shape            nodes  d  p  preorder  deepest  cycle/(d·p)");
        let mut c: f64 = 0.0;
        let mut rng = StdRng::seed_from_u64(46);
        for (shape, p, preorder, deepest) in CYCLES {
            let mut row = Vec::new();
            for (placement, pinned) in [
                (Placement::Preorder, preorder),
                (Placement::DeepestFirst, deepest),
            ] {
                let part = Part::new(shape, p, placement);
                let (d, holders) = depths(&part.labels);
                let expected = stop_and_wait_cycle(&holders, d, false);
                let n = part.parent.len();
                let mut settled: Vec<TrainState> = (0..n).map(|_| garbage(&mut rng, p)).collect();
                for _ in 0..3 * cycle_bound(d, p.into(), false) {
                    settled = part.step(&settled, false).0;
                }
                for start in [vec![TrainState::default(); n], settled] {
                    let cycles = part.cycles(start, false, 2);
                    assert!(
                        cycles
                            .iter()
                            .all(|&cycle| cycle == pinned && cycle == expected),
                        "{shape:?}, {p} pieces, {placement:?}: {cycles:?}, pinned {pinned}, \
                         expected {expected}"
                    );
                }
                assert!(pinned <= cycle_bound(d, p.into(), false));
                let per = pinned as f64 / (d * usize::from(p)) as f64;
                c = c.max(per);
                row.push((part.parent.len(), d, per));
            }
            let (nodes, d, _) = row[0];
            println!(
                "{:<16} {nodes:>5} {d:>2} {p:>2} {preorder:>9} {deepest:>8}  {:.2}–{:.2}",
                format!("{shape:?}"),
                row[0].2,
                row[1].2
            );
        }
        println!("fitted c in c·d·p: {c:.2}");
        assert!(c <= 5.0);
    }

    /// A `Want` hold at every node in every round cannot freeze a train:
    /// the root keeps wrapping, and each cycle is [`stop_and_wait_cycle`]'s
    /// held one, within `p·(4d + 1) + p·(d + 2)·DELAY_MAX` rounds.
    #[test]
    fn a_hostile_want_cannot_freeze_a_train() {
        println!("shape            d  p  held preorder  held deepest  bound");
        for (shape, p, ..) in CYCLES {
            let mut row = Vec::new();
            for placement in [Placement::Preorder, Placement::DeepestFirst] {
                let part = Part::new(shape, p, placement);
                let (d, holders) = depths(&part.labels);
                let expected = stop_and_wait_cycle(&holders, d, true);
                let fresh = vec![TrainState::default(); part.parent.len()];
                let cycles = part.cycles(fresh, true, 2);
                assert!(
                    cycles.iter().all(|&cycle| cycle == expected),
                    "{shape:?}, {p} pieces, {placement:?}: {cycles:?}, expected {expected}"
                );
                assert!(expected <= cycle_bound(d, p.into(), true));
                row.push((d, expected));
            }
            let d = row[0].0;
            println!(
                "{:<16} {d:>2} {p:>2} {:>13} {:>13} {:>6}",
                format!("{shape:?}"),
                row[0].1,
                row[1].1,
                cycle_bound(d, p.into(), true)
            );
        }
    }

    /// A one-slot train never changes slot, so its buffers must follow their
    /// sources, not their own past: once the piece stored deepest in the
    /// part is corrupted, the root shows the new piece within one cycle
    /// (`4d + 1` rounds), which needs `up` to stop falling back to itself on
    /// the way up and `down` to be re-read at the root.
    #[test]
    fn a_one_slot_train_carries_a_corrupted_piece_to_the_root() {
        for shape in [Shape::Path(4), Shape::Caterpillar(4), Shape::Binary(3)] {
            let mut part = Part::new(shape, 1, Placement::DeepestFirst);
            let (d, _) = depths(&part.labels);
            let holder = (part.labels.iter())
                .position(|l| l.stored[0].is_some())
                .unwrap();
            assert_ne!(holder, 0, "{shape:?}: the root holds the piece");
            let cycle = cycle_bound(d, 1, false);
            let mut trains = vec![TrainState::default(); part.parent.len()];
            for _ in 0..cycle {
                trains = part.step(&trains, false).0;
            }
            assert_eq!(trains[0].down, Some(piece(0)), "{shape:?}: warm-up");

            let corrupted = PieceCell::new(0, 99, piece(0).level(), piece(0).min_out());
            part.labels[holder].stored[0] = Some(corrupted);
            let shown = (0..cycle).any(|_| {
                trains = part.step(&trains, false).0;
                trains[0].down == Some(corrupted)
            });
            assert!(
                shown,
                "{shape:?}: the root still shows {:?} after {cycle} rounds",
                trains[0].down
            );
        }
    }

    /// The harness is the verifier's train: on marker-labelled paths and
    /// caterpillars, no part root's cycle (parts of two pieces or more) is
    /// shorter than [`stop_and_wait_cycle`] gives for the part's depth and
    /// holders, since a `Want` only delays, nor longer than the harness's
    /// bound for its (d, p) plus the slack of a hold at every node; and the
    /// formula is exact for most cycles, the ones no `Want` delays.
    #[test]
    fn the_harness_is_faithful_to_the_verifier() {
        let graphs = [
            ("path", path_graph(256, 1)),
            ("caterpillar", caterpillar_graph(64, 3, 2)),
        ];
        for (name, g) in graphs {
            let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
            let inst = Instance::from_tree(g, &tree);
            let (labels, _) = Marker.label(&inst).unwrap();
            // (partition, root, d, p, predicted cycle) of each part
            let mut parts = Vec::new();
            for which in [TOP, BOTTOM] {
                for (v, label) in labels.iter().enumerate() {
                    let part = label.parts[which];
                    let p = usize::from(part.piece_count);
                    if u64::from(part.part_root_id) != inst.graph.id(NodeId(v)) || p < 2 {
                        continue;
                    }
                    let members: Vec<PartLabel> = (labels.iter())
                        .map(|l| l.parts[which])
                        .filter(|m| m.part_root_id == part.part_root_id)
                        .collect();
                    let (d, holders) = depths(&members);
                    parts.push((
                        which,
                        NodeId(v),
                        d,
                        p,
                        stop_and_wait_cycle(&holders, d, false),
                    ));
                }
            }
            assert!(!parts.is_empty(), "{name}: no part has two pieces");

            let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
            let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
            let want = |runner: &ReferenceRunner<'_, CoreVerifier>, which: usize, root: NodeId| {
                runner.network().state(root).trains[which].want
            };
            let mut last: Vec<u8> = parts
                .iter()
                .map(|&(which, root, ..)| want(&runner, which, root))
                .collect();
            let mut wraps: Vec<Vec<usize>> = vec![Vec::new(); parts.len()];
            let give_up = 5 * parts
                .iter()
                .map(|&(_, _, d, p, _)| cycle_bound(d, p, true))
                .max()
                .unwrap();
            for round in 0.. {
                assert!(round < give_up, "{name}: a part root stopped wrapping");
                if wraps.iter().all(|w| w.len() >= 4) {
                    break;
                }
                runner.run(1);
                for (i, &(which, root, ..)) in parts.iter().enumerate() {
                    let now = want(&runner, which, root);
                    if now == 0 && last[i] != 0 {
                        wraps[i].push(round);
                    }
                    last[i] = now;
                }
            }
            assert!(
                runner.network().alarming_nodes(&verifier).is_empty(),
                "{name}"
            );
            let (mut exact, mut total, mut most_added) = (0, 0, 0);
            for (&(which, root, d, p, predicted), wraps) in parts.iter().zip(&wraps) {
                for cycle in wraps.windows(2).map(|w| w[1] - w[0]) {
                    assert!(
                        predicted <= cycle && cycle <= cycle_bound(d, p, true),
                        "{name}: partition {which}, part root {root}, d = {d}, {p} pieces: \
                         a cycle of {cycle} rounds, {predicted} predicted"
                    );
                    exact += usize::from(cycle == predicted);
                    total += 1;
                    most_added = most_added.max(cycle - predicted);
                }
            }
            println!(
                "{name}: {exact} of {total} part-root cycles as predicted, \
                 the others at most {most_added} rounds longer"
            );
            assert!(2 * exact > total, "{name}: too few cycles as predicted");
        }
    }
}
