//! The self-stabilizing verifier (§7–§8), as a [`NodeProgram`].
//!
//! Each activation, every node:
//!
//! 1. runs the **structural 1-round checks**: the Example SP / NumK
//!    conditions, the RS/EPS string legality conditions of §5, and the
//!    representation of the two partitions;
//! 2. advances its two **trains** (one per partition, §7.1): the piece of the
//!    current slot climbs from its permanent holder to the part root, is
//!    flooded back down with the *membership flag* of §7.1, and the part root
//!    advances the slot once its whole part acknowledges (an ack-paced
//!    variant of the paper's pipelined train — see the README paragraph
//!    "The trains (ack-paced)"); the part root also checks that pieces
//!    arrive in the prescribed cyclic order (§8);
//! 3. runs the **comparison machinery** (§7.2): it copies its own member
//!    piece of the current level into its `Ask` buffer, walks its neighbours
//!    round-robin, uses the `Want` register to make a neighbour's train hold
//!    the piece it needs (§7.2.2), and on every event `E(v, u, j)` evaluates
//!    the minimality checks C1/C2 and the equality checks of Claim 8.3;
//! 4. tracks, per cycle, which of its own levels it has seen (the cycle-set
//!    completeness check of §8) and raises an alarm if a needed piece never
//!    arrives.
//!
//! Any violation makes the node output [`Verdict::Reject`] — "raising an
//! alarm" in the paper's terminology.

use crate::labels::{CoreLabel, PartLabel, PieceCell, PieceInfo};
use crate::strings::{
    ceil_log2, check_strings, ChildSummary, EndpSym, RootSym, StringNeighborhood,
};
use smst_graph::weight::CompositeWeight;
use smst_graph::{ComponentMap, NodeId, Port, WeightedGraph};
use smst_sim::{Network, NodeContext, NodeProgram, Verdict};

/// Which of the two partitions a train belongs to.
pub const TRAIN_TOP: usize = 0;
/// Index of the Bottom-partition train.
pub const TRAIN_BOTTOM: usize = 1;

/// A piece climbing towards the part root, with the slot being collected.
pub type UpItem = PieceCell;

/// A piece flooding down from the part root: the slot being distributed, the
/// piece, and whether this node belongs to the piece's fragment (§7.1's
/// flag, [`PieceCell::member`]).
pub type DownItem = PieceCell;

/// The per-train dynamic registers of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainState {
    /// The slot currently being circulated (driven by the part root).
    pub want: u8,
    /// The piece climbing up (§7.1 convergecast direction).
    pub up: Option<UpItem>,
    /// The piece flooding down (§7.1 broadcast direction), a.k.a. `Show`.
    pub down: Option<DownItem>,
    /// `Some(slot)` once this node's whole part-subtree holds the slot's
    /// piece — the acknowledgement that paces the root.
    pub done: Option<u8>,
    /// How long the node has delayed replacing its `down` buffer because a
    /// neighbour `Want`s the currently shown piece.
    pub delay: u8,
    /// Cycle boundaries (slot counter wrap-arounds) observed since the last
    /// completeness check.
    pub wraps: u8,
    /// The key of the last piece completed at the root (cyclic-order check).
    pub last_key: Option<(u32, u64)>,
}

impl TrainState {
    fn fresh() -> Self {
        TrainState {
            want: 0,
            up: None,
            down: None,
            done: None,
            delay: 0,
            wraps: 0,
            last_key: None,
        }
    }

    /// The level of the member piece this train currently shows, if any.
    fn shown_member_level(&self) -> Option<u32> {
        self.down.filter(|d| d.member()).map(|d| d.level())
    }
}

/// The comparison (client) state of §7.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompareState {
    /// Index into the node's level list `J(v)` of the level being compared.
    pub level_idx: u8,
    /// The held piece `I(F_j(v))` (the `Ask` buffer).
    pub ask: Option<PieceInfo>,
    /// The port of the neighbour currently being compared.
    pub neighbor_ptr: u16,
    /// The `Want` register: `(neighbour identity, level)` this node is
    /// waiting to see.
    pub want_cmp: Option<(u64, u32)>,
    /// The last observed slot counters of the watched neighbour's two trains
    /// (used to count that neighbour's cycle boundaries).
    pub watched_prev: [u8; 2],
    /// Cycle boundaries observed on the watched neighbour's trains.
    pub watched_wraps: [u8; 2],
}

impl CompareState {
    fn fresh() -> Self {
        CompareState {
            level_idx: 0,
            ask: None,
            neighbor_ptr: 0,
            want_cmp: None,
            watched_prev: [0, 0],
            watched_wraps: [0, 0],
        }
    }
}

/// The full register of a node running the verifier: a fixed-width `Copy`
/// value with no heap behind it (see [`crate::labels`] and
/// [`crate::strings`] for the layout), so copying it *is* copying the
/// paper's `O(log n)`-bit register and an activation allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreState {
    /// The node's label (the corruptible proof).
    pub label: CoreLabel,
    /// The two trains (Top, Bottom).
    pub trains: [TrainState; 2],
    /// The comparison machinery.
    pub compare: CompareState,
    /// Bitmask over levels: member pieces seen since the last completeness
    /// check.
    pub seen_levels: u64,
    /// The node's current verdict.
    pub verdict: Verdict,
}

// Layout tripwires: the register stays `Copy` and no larger than the inline
// part of the `Vec`-based layout it replaced (696 bytes, which excluded
// 130–250 bytes of heap per node) — `peak_rss_mb` follows this number.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<CoreState>();
    assert!(std::mem::size_of::<CoreState>() <= 696);
};

/// What one pass over the neighbour registers gathers from the tree children
/// (the neighbours whose parent pointer names this node): everything the
/// structural checks and the two trains need from them.
struct Children {
    /// Sum of the children's NumK subtree counts.
    subtree_sum: u64,
    /// The children's strings, summarised for the RS/EPS checks.
    strings: ChildSummary,
    /// Per train: the climbing piece of the first child in the same part
    /// that carries the wanted slot.
    up: [Option<UpItem>; 2],
    /// Per train: whether every child in the same part acknowledged the
    /// wanted slot.
    done: [bool; 2],
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
            subtree_sum: 0,
            strings: ChildSummary::new(&own.label.strings),
            up: [None, None],
            done: [true, true],
        };
        for s in neighbors {
            if s.label.sp.parent_id != Some(ctx.id) {
                continue;
            }
            kids.subtree_sum += s.label.subtree_count;
            kids.strings.add(&s.label.strings);
            for (which, want) in wanted.into_iter().enumerate() {
                let Some(want) = want else { continue };
                if part_of(s, which).part_root_id != part_of(own, which).part_root_id {
                    continue;
                }
                let train = &s.trains[which];
                if kids.up[which].is_none() {
                    kids.up[which] = train.up.filter(|u| u.slot() == want);
                }
                kids.done[which] &= train.done == Some(want);
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
    pub fn new(graph: WeightedGraph, components: ComponentMap, labels: Vec<CoreLabel>) -> Self {
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

    // ----- helpers ---------------------------------------------------------

    /// The parent port of a node according to its component pointer.
    fn parent_port(&self, v: NodeId) -> Option<Port> {
        self.components
            .pointer(v)
            .filter(|p| p.index() < self.graph.degree(v))
    }

    fn edge_weight(
        &self,
        v: NodeId,
        port: Port,
        neighbor: &CoreState,
        is_tree: bool,
    ) -> CompositeWeight {
        let e = self.graph.incident_edges(v)[port.index()];
        CompositeWeight::new(
            self.graph.weight(e),
            is_tree,
            self.graph.id(v),
            neighbor.label.sp.own_id,
        )
    }

    /// Whether the edge behind `port` is a tree edge (the neighbour is this
    /// node's component parent, or claims this node as its parent).
    fn is_tree_edge(&self, ctx: &NodeContext, port: Port, neighbor: &CoreState) -> bool {
        self.parent_port(ctx.node) == Some(port) || neighbor.label.sp.parent_id == Some(ctx.id)
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
        if label.sp.own_id != ctx.id {
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
                if label.sp.dist != 0 || label.sp.root_id != ctx.id || label.sp.parent_id.is_some()
                {
                    return false;
                }
            }
            Some(p) => {
                if label.sp.dist != p.label.sp.dist + 1
                    || label.sp.parent_id != Some(p.label.sp.own_id)
                {
                    return false;
                }
            }
        }
        // NumK: subtree aggregation
        if label.subtree_count != 1 + children.subtree_sum {
            return false;
        }
        if parent.is_none() && label.subtree_count != label.n_claim {
            return false;
        }
        // strings legality (RS / EPS conditions)
        let log_n = ceil_log2(label.n_claim);
        let view = StringNeighborhood {
            own: &label.strings,
            parent: parent.map(|p| &p.label.strings),
            children: children.strings,
            is_tree_root: parent.is_none(),
            max_len: log_n as usize + 1,
        };
        if check_strings(&view).is_err() {
            return false;
        }
        // partition representation: parts are subtrees, so a non-root of a
        // part must have its tree parent in the same part; diameters and
        // piece counts are bounded and agreed upon inside the part
        for which in [TRAIN_TOP, TRAIN_BOTTOM] {
            let mine = part_of(own, which);
            let i_am_part_root = mine.part_root_id == ctx.id;
            if i_am_part_root {
                if mine.depth_in_part != 0 {
                    return false;
                }
            } else {
                match parent {
                    None => return false,
                    Some(p) => {
                        let pp = part_of(p, which);
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
            if mine.diameter_bound > 6 * log_n + 6 {
                return false;
            }
            if u32::from(mine.piece_count) > 2 * (log_n + 2) {
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

    // ----- train step (§7.1, ack-paced variant) -----------------------------

    /// Whether some neighbour currently `Want`s a member piece shown by this
    /// node.
    fn neighbor_wants_shown(
        &self,
        ctx: &NodeContext,
        own: &CoreState,
        neighbors: &[&CoreState],
    ) -> bool {
        let shown = [
            own.trains[TRAIN_TOP].shown_member_level(),
            own.trains[TRAIN_BOTTOM].shown_member_level(),
        ];
        if shown == [None, None] {
            return false;
        }
        neighbors.iter().any(|s| {
            s.compare
                .want_cmp
                .is_some_and(|(id, lev)| id == ctx.id && shown.contains(&Some(lev)))
        })
    }

    /// The part parent of a node: its tree parent, if in the same part.
    fn part_parent<'a>(
        own: &CoreState,
        parent: Option<&'a CoreState>,
        which: usize,
    ) -> Option<&'a CoreState> {
        parent.filter(|p| part_of(p, which).part_root_id == part_of(own, which).part_root_id)
    }

    /// First half of a train step: decides the slot the train circulates
    /// this activation (`None` if the part has no pieces) and updates the
    /// registers that pace it.
    #[expect(
        clippy::too_many_arguments,
        reason = "a train half-step reads a part's view of the node and its tree neighbours"
    )]
    fn step_train_slot(
        &self,
        which: usize,
        ctx: &NodeContext,
        own: &CoreState,
        parent: Option<&CoreState>,
        next: &mut CoreState,
        wants_hold: bool,
        alarm: &mut bool,
    ) -> Option<u8> {
        let part = part_of(own, which);
        let k = part.piece_count;
        let train = &own.trains[which];
        let out = &mut next.trains[which];
        if k == 0 {
            *out = TrainState::fresh();
            return None;
        }
        let i_am_root = part.part_root_id == ctx.id;
        let mut wraps = train.wraps;
        let want = if i_am_root {
            let mut w = if train.want >= k { 0 } else { train.want };
            // advance once the whole part acknowledged and no neighbour holds us
            let done_here = train.done == Some(w);
            let held = wants_hold && train.delay < DELAY_MAX;
            if done_here && !held {
                // cyclic-order check of §8: the completed piece's key must
                // strictly increase within a cycle
                if let Some(d) = &train.down {
                    let key = (d.level(), d.root_id());
                    if let Some(last) = train.last_key {
                        if w != 0 && key <= last {
                            *alarm = true;
                        }
                    }
                    out.last_key = Some(key);
                }
                w = (w + 1) % k;
                if w == 0 {
                    wraps = wraps.saturating_add(1);
                }
            }
            out.delay = if done_here && held {
                train.delay.saturating_add(1)
            } else {
                0
            };
            w
        } else {
            let w = Self::part_parent(own, parent, which).map_or(0, |p| p.trains[which].want);
            let w = if w >= k { 0 } else { w };
            if w < train.want {
                wraps = wraps.saturating_add(1);
            }
            w
        };
        out.want = want;
        out.wraps = wraps;
        if i_am_root && want == 0 && want != train.want {
            out.last_key = None;
        }
        Some(want)
    }

    /// Second half of a train step: the climbing and flooding buffers, the
    /// acknowledgement and the checks on the shown piece, for the slot
    /// `want` decided by [`Self::step_train_slot`].
    #[expect(
        clippy::too_many_arguments,
        reason = "a train half-step reads a part's view of the node and its tree neighbours"
    )]
    fn step_train_buffers(
        &self,
        which: usize,
        want: u8,
        ctx: &NodeContext,
        own: &CoreState,
        parent: Option<&CoreState>,
        children: &Children,
        next: &mut CoreState,
        wants_hold: bool,
        alarm: &mut bool,
    ) {
        let part = part_of(own, which);
        let train = &own.trains[which];
        let out = &mut next.trains[which];
        let i_am_root = part.part_root_id == ctx.id;

        // 2. the upward (convergecast) buffer
        let stored = part.stored_pieces().find(|s| s.slot() == want).copied();
        out.up = stored
            .or(train.up.filter(|u| u.slot() == want))
            .or(children.up[which]);

        // 3. the downward (broadcast / Show) buffer, with the membership flag
        let replace_with: Option<DownItem> = if i_am_root {
            // `out.up` is the stored piece if there is one
            out.up
                .map(|u| u.with_member(self.root_membership(which, &own.label, u)))
        } else {
            Self::part_parent(own, parent, which)
                .and_then(|p| p.trains[which].down)
                .filter(|d| d.slot() == want)
                .map(|d| d.with_member(self.child_membership(&own.label, ctx, d)))
        };
        let current_ok = train.down.is_some_and(|d| d.slot() == want);
        out.down = match (current_ok, replace_with) {
            (true, _) => train.down,
            (false, Some(new)) => {
                // §7.2.2: do not overwrite a piece a neighbour still wants
                if wants_hold && train.delay < DELAY_MAX && train.down.is_some() {
                    out.delay = train.delay.saturating_add(1);
                    train.down
                } else {
                    if !i_am_root {
                        out.delay = 0;
                    }
                    Some(new)
                }
            }
            (false, None) => train.down,
        };

        // 4. the acknowledgement
        let have = out.down.is_some_and(|d| d.slot() == want);
        out.done = (have && children.done[which]).then_some(want);

        // 5. checks on the member piece currently shown (§8, Claim 8.3)
        if let Some(d) = out.down.filter(|d| d.member()) {
            let j = d.level() as usize;
            let strings = &own.label.strings;
            match strings.root(j) {
                RootSym::Absent => *alarm = true,
                sym => {
                    next.seen_levels |= 1u64 << j;
                    if sym == RootSym::Root && d.root_id() != ctx.id {
                        *alarm = true;
                    }
                    // only the top fragment (the whole tree) has no outgoing edge
                    if !d.has_min_out() && j + 1 != strings.len() {
                        *alarm = true;
                    }
                }
            }
        }
    }

    /// Membership rule at the part root (§7.1's flag, initial value).
    fn root_membership(&self, which: usize, label: &CoreLabel, piece: UpItem) -> bool {
        if label.strings.root(piece.level() as usize) == RootSym::Absent {
            return false;
        }
        match which {
            TRAIN_TOP => {
                // the part intersects at most one top fragment per level
                // (Claim 6.3), so having a top fragment at this level means it
                // is the piece's fragment
                piece.level() >= u32::from(label.top_min_level)
            }
            _ => piece.root_id() == label.sp.own_id,
        }
    }

    /// Membership rule when copying the piece from the part parent.
    fn child_membership(&self, label: &CoreLabel, ctx: &NodeContext, d: DownItem) -> bool {
        d.root_id() == ctx.id
            || (d.member() && label.strings.root(d.level() as usize) == RootSym::NonRoot)
    }

    // ----- comparison machinery (§7.2, §8) ----------------------------------

    fn step_compare(
        &self,
        ctx: &NodeContext,
        own: &CoreState,
        neighbors: &[&CoreState],
        next: &mut CoreState,
        alarm: &mut bool,
    ) {
        // J(v), the node's levels in ascending order, is the set bits of
        // the present mask
        let levels = own.label.strings.present();
        let level_count = levels.count_ones() as usize;
        if level_count == 0 {
            next.compare = CompareState::fresh();
            return;
        }
        let mut cmp = own.compare;
        if usize::from(cmp.level_idx) >= level_count {
            cmp = CompareState::fresh();
        }
        // the `level_idx`-th set bit: drop the lower ones
        let level = (0..cmp.level_idx)
            .fold(levels, |m, _| m & (m - 1))
            .trailing_zeros();

        // obtain the Ask piece for the current level from one of our trains
        if cmp.ask.is_some_and(|p| p.level != level) {
            cmp.ask = None;
        }
        if cmp.ask.is_none() {
            cmp.ask = shown_member_piece(next, level);
            cmp.neighbor_ptr = 0;
            cmp.want_cmp = None;
            cmp.watched_wraps = [0, 0];
        }
        let Some(ask) = cmp.ask else {
            next.compare = cmp;
            return;
        };

        // walk the neighbours round-robin
        let mut advanced = true;
        while advanced && usize::from(cmp.neighbor_ptr) < ctx.degree {
            advanced = false;
            let port = Port(usize::from(cmp.neighbor_ptr));
            let u = neighbors[port.index()];
            if u.label.strings.root(level as usize) == RootSym::Absent {
                // the neighbour has no level-j fragment: the edge is outgoing
                self.check_outgoing(ctx, own, port, u, ask, level, alarm);
                cmp.neighbor_ptr += 1;
                cmp.want_cmp = None;
                cmp.watched_wraps = [0, 0];
                advanced = true;
                continue;
            }
            // does the neighbour currently show its member level-j piece?
            if let Some(their) = shown_member_piece(u, level) {
                self.check_event(ctx, own, port, u, ask, their, level, alarm);
                cmp.neighbor_ptr += 1;
                cmp.want_cmp = None;
                cmp.watched_wraps = [0, 0];
                advanced = true;
                continue;
            }
            // not shown: file a Want and count the neighbour's cycles
            cmp.want_cmp = Some((u.label.sp.own_id, level));
            let cur = [u.trains[0].want, u.trains[1].want];
            for (t, &c) in cur.iter().enumerate() {
                if c < cmp.watched_prev[t] {
                    cmp.watched_wraps[t] = cmp.watched_wraps[t].saturating_add(1);
                }
            }
            cmp.watched_prev = cur;
            if cmp.watched_wraps.iter().all(|&w| w >= MAX_WATCH_WRAPS) {
                // the neighbour's trains completed several full cycles and the
                // needed piece never appeared
                *alarm = true;
                cmp.neighbor_ptr += 1;
                cmp.want_cmp = None;
                cmp.watched_wraps = [0, 0];
            }
        }
        if usize::from(cmp.neighbor_ptr) >= ctx.degree {
            // done with this level: move on
            cmp.level_idx = ((usize::from(cmp.level_idx) + 1) % level_count) as u8;
            cmp.ask = None;
            cmp.neighbor_ptr = 0;
            cmp.want_cmp = None;
            cmp.watched_wraps = [0, 0];
        }
        next.compare = cmp;
    }

    /// Checks C1/C2 for an edge known to be outgoing (the neighbour has no
    /// level-`j` fragment).
    #[expect(
        clippy::too_many_arguments,
        reason = "C1/C2 read both endpoints, the port, the asked piece and the level"
    )]
    fn check_outgoing(
        &self,
        ctx: &NodeContext,
        own: &CoreState,
        port: Port,
        u: &CoreState,
        ask: PieceInfo,
        level: u32,
        alarm: &mut bool,
    ) {
        let is_tree = self.is_tree_edge(ctx, port, u);
        let w = self.edge_weight(ctx.node, port, u, is_tree);
        match ask.min_out {
            None => *alarm = true, // the whole-tree fragment has no outgoing edge
            Some(mw) => {
                if w < mw {
                    *alarm = true; // C2
                }
                if self.is_candidate_edge(ctx, own, port, u, level) && mw != w {
                    *alarm = true; // C1
                }
            }
        }
    }

    /// Checks performed when the event `E(v, u, j)` occurs.
    #[expect(
        clippy::too_many_arguments,
        reason = "the event checks read both endpoints, the port, both pieces and the level"
    )]
    fn check_event(
        &self,
        ctx: &NodeContext,
        own: &CoreState,
        port: Port,
        u: &CoreState,
        ask: PieceInfo,
        their: PieceInfo,
        level: u32,
        alarm: &mut bool,
    ) {
        let j = level as usize;
        let is_tree = self.is_tree_edge(ctx, port, u);
        let is_parent = self.parent_port(ctx.node) == Some(port);
        let same_fragment = ask.root_id == their.root_id;
        // Claim 8.3: tree neighbours in the same fragment must hold identical
        // pieces; the strings already tell whether the parent shares the
        // fragment
        if is_parent && own.label.strings.root(j) == RootSym::NonRoot && ask != their {
            *alarm = true;
        }
        if same_fragment && ask != their {
            *alarm = true;
        }
        if !same_fragment {
            let w = self.edge_weight(ctx.node, port, u, is_tree);
            match ask.min_out {
                None => *alarm = true,
                Some(mw) => {
                    if w < mw {
                        *alarm = true; // C2
                    }
                    if self.is_candidate_edge(ctx, own, port, u, level) && mw != w {
                        *alarm = true; // C1
                    }
                }
            }
        } else if self.is_candidate_edge(ctx, own, port, u, level) {
            // the candidate edge must be outgoing
            *alarm = true;
        }
    }

    /// Whether the edge behind `port` is this node's candidate edge at the
    /// given level, according to the EndP/Parents strings.
    fn is_candidate_edge(
        &self,
        ctx: &NodeContext,
        own: &CoreState,
        port: Port,
        u: &CoreState,
        level: u32,
    ) -> bool {
        let j = level as usize;
        match own.label.strings.endp(j) {
            EndpSym::Up => self.parent_port(ctx.node) == Some(port),
            EndpSym::Down => u.label.sp.parent_id == Some(ctx.id) && u.label.strings.parent_bit(j),
            _ => false,
        }
    }
}

/// Maximum activations a node delays its train for a wanting neighbour
/// (guards against corrupted `Want` registers).
const DELAY_MAX: u8 = 64;
/// Full cycles of a watched neighbour's trains after which a missing piece is
/// reported.
const MAX_WATCH_WRAPS: u8 = 3;
/// Cycles of both own trains after which the completeness check fires.
const COMPLETENESS_WRAPS: u8 = 2;

fn part_of(s: &CoreState, which: usize) -> &PartLabel {
    if which == TRAIN_TOP {
        &s.label.top_part
    } else {
        &s.label.bottom_part
    }
}

/// The member piece of the given level that one of the node's trains
/// currently shows, if any.
fn shown_member_piece(s: &CoreState, level: u32) -> Option<PieceInfo> {
    s.trains
        .iter()
        .filter_map(|t| t.down)
        .find(|d| d.member() && d.level() == level)
        .map(|d| d.piece())
}

impl NodeProgram for CoreVerifier {
    type State = CoreState;

    fn init(&self, ctx: &NodeContext) -> CoreState {
        CoreState {
            label: self.labels[ctx.node.index()],
            trains: [TrainState::fresh(), TrainState::fresh()],
            compare: CompareState::fresh(),
            seen_levels: 0,
            verdict: Verdict::Working,
        }
    }

    fn step(&self, ctx: &NodeContext, own: &CoreState, neighbors: &[&CoreState]) -> CoreState {
        let mut alarm = false;
        let mut next = *own;
        next.verdict = Verdict::Accept;
        let parent = self.parent_port(ctx.node).map(|p| neighbors[p.index()]);

        // the slot each train circulates, then the one pass over the tree
        // children that everything below shares
        let wants_hold = self.neighbor_wants_shown(ctx, own, neighbors);
        let wanted = [TRAIN_TOP, TRAIN_BOTTOM].map(|which| {
            self.step_train_slot(which, ctx, own, parent, &mut next, wants_hold, &mut alarm)
        });
        let children = Children::gather(ctx, own, neighbors, wanted);

        // 1. structural 1-round checks
        if !self.structural_ok(ctx, own, neighbors, parent, &children) {
            alarm = true;
        }

        // 2. trains
        for (which, want) in wanted.into_iter().enumerate() {
            if let Some(want) = want {
                self.step_train_buffers(
                    which, want, ctx, own, parent, &children, &mut next, wants_hold, &mut alarm,
                );
            }
        }

        // 3. comparisons
        self.step_compare(ctx, own, neighbors, &mut next, &mut alarm);

        // 4. completeness (cycle-set) check of §8
        if next.trains.iter().all(|t| t.wraps >= COMPLETENESS_WRAPS) {
            if own.label.strings.present() & !next.seen_levels != 0 {
                alarm = true;
            }
            next.seen_levels = 0;
            for t in &mut next.trains {
                t.wraps = 0;
            }
        }

        if alarm {
            next.verdict = Verdict::Reject;
        }
        next
    }

    fn verdict(&self, _ctx: &NodeContext, state: &CoreState) -> Verdict {
        state.verdict
    }

    fn state_bits(&self, _ctx: &NodeContext, state: &CoreState) -> u64 {
        let g = &self.graph;
        let max_id = g.max_id().unwrap_or(1);
        let max_w = g.max_weight().unwrap_or(1);
        let n = g.node_count();
        let piece_bits = PieceInfo::bits(max_id, max_w, state.label.strings.len().max(1));
        let train_bits = 2 * (8 + 9 + 8 + 8 + (8 + piece_bits) + (9 + piece_bits) + 48);
        let compare_bits = 8 + piece_bits + 16 + (64 + 32) + 16 + 16;
        state.label.bits(max_id, max_w, n)
            + train_bits
            + compare_bits
            + state.label.strings.len() as u64 // seen_levels bitmask
            + 2
    }

    fn name(&self) -> &str {
        "core-mst-verifier"
    }
}

/// [`CoreVerifier::state_bits`] as it was while it found the graph maxima
/// by scanning — `O(n + m)` per call — kept as the oracle the accessor-based
/// body is held against.
#[cfg(test)]
mod reference {
    use super::{CoreState, CoreVerifier, PieceInfo};

    pub fn state_bits(verifier: &CoreVerifier, state: &CoreState) -> u64 {
        let g = &verifier.graph;
        let max_id = g.nodes().map(|v| g.id(v)).max().unwrap_or(1);
        let max_w = g.edges().iter().map(|e| e.weight).max().unwrap_or(1);
        let n = g.node_count();
        let piece_bits = PieceInfo::bits(max_id, max_w, state.label.strings.len().max(1));
        let train_bits = 2 * (8 + 9 + 8 + 8 + (8 + piece_bits) + (9 + piece_bits) + 48);
        let compare_bits = 8 + piece_bits + 16 + (64 + 32) + 16 + 16;
        state.label.bits(max_id, max_w, n)
            + train_bits
            + compare_bits
            + state.label.strings.len() as u64
            + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marker::Marker;
    use smst_graph::generators::random_connected_graph;
    use smst_graph::mst::kruskal;
    use smst_labeling::Instance;
    use smst_sim::SyncRunner;

    fn setup(n: usize, m: usize, seed: u64) -> (Instance, CoreVerifier) {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        let inst = Instance::from_tree(g, &tree);
        let (labels, _) = Marker.label(&inst).unwrap();
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
        let mut runner = SyncRunner::new(&verifier, net);
        runner.run_rounds(budget(n));
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
        let mut runner = SyncRunner::new(&verifier, net);
        runner.run_rounds(budget(n));
        // the completeness check never fired, so the verdict is Accept
        assert!(runner.network().all_accept(&verifier));
    }

    /// `state_bits` reads the graph's maxima instead of scanning for them:
    /// same width as the scanning reference at every node, on fresh
    /// registers and on registers 64 rounds into every kind of fault.
    #[test]
    fn state_bits_agree_with_the_scanning_reference() {
        use crate::faults::{corrupt, FaultKind};
        use smst_graph::generators::random_graph_scrambled_ids;

        let assert_agree = |verifier: &CoreVerifier, net: &smst_sim::Network<CoreVerifier>| {
            let reported = net.memory_bits(verifier);
            for v in net.graph().nodes() {
                assert_eq!(
                    reported[v.index()],
                    reference::state_bits(verifier, net.state(v)),
                    "node {v}"
                );
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
                let mut runner = SyncRunner::new(&verifier, verifier.network());
                let victim = NodeId((seed as usize + i) % n);
                corrupt(runner.network_mut().state_mut(victim), kind, seed);
                runner.run_rounds(64);
                assert_agree(&verifier, runner.network());
            }
        }
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
