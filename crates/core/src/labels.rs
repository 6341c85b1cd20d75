//! The complete `O(log n)`-bit node label of the paper's scheme.
//!
//! Each node's label is the concatenation of:
//!
//! * the Example SP / NumK fields (spanning tree + knowledge of `n`, §2.6);
//! * the `Roots`/`EndP`/`Parents`/`Or-EndP` strings (§5.2–§5.3);
//! * for each of the two partitions (`Top` and `Bottom`, §6.1), one
//!   [`PartLabel`] of the pair [`CoreLabel::parts`], indexed by [`TOP`] and
//!   [`BOTTOM`]: the identity of the node's part root, the node's depth
//!   inside the part, the claimed bound on the part's diameter, the number of
//!   pieces circulating in the part, and the (at most two) pieces of
//!   information `I(F)` the node stores permanently together with their slots
//!   in the part's cycle (§6.2).
//!
//! Every component is `O(log n)` bits, so the whole label is `O(log n)` bits —
//! the memory-optimality claim of the paper, which the `fig_memory`
//! experiment measures against the `O(log² n)`-bit baseline.
//!
//! # In-memory layout
//!
//! The label is a fixed-width `Copy` value with no heap behind it, and every
//! field is as wide as the paper needs. Identities, weights and node counts
//! are `O(log n)`-bit values, and every instance the marker accepts has them
//! below 2³² ([`MAX_FIELD`]), so:
//!
//! * the SP fields ([`SpCell`]) are the root, own and parent identities and
//!   the distance in `u32`s (20 bytes); `n_claim` and `subtree_count` are
//!   `u32`s;
//! * the strings are six words, one bit per level ([`NodeStrings`]);
//! * each partition's [`PartLabel`] holds the part root's identity, then the
//!   depth in the part and the diameter bound in one byte each (the verifier
//!   rejects either above `6·log n + 6 ≤ 198`), the piece count, and its at
//!   most two stored pieces inline (48 bytes; the pair is 96);
//! * a fragment's piece `I(F)` is a [`PieceCell`] wherever it is: in its
//!   part's piece list, stored permanently, climbing/flooding in a train
//!   buffer, or asked for by the comparison. A cell is the piece's four
//!   32-bit fields (`root_id`, and the `weight`, `id_min`, `id_max` of its
//!   minimum outgoing edge), then its level, its slot in the part's cycle
//!   and a flag byte (has a minimum outgoing edge, that edge is a non-tree
//!   edge, §7.1's membership flag) in three bytes — 20 bytes, and
//!   `Option<PieceCell>` is no larger (the flag byte is never zero, which
//!   leaves it a niche).
//!
//! The whole label is 184 bytes. The public value types
//! ([`CompositeWeight`], [`SpLabel`]) keep their `u64`s: a cell narrows
//! when it is built, here and nowhere else, and widens when it is read.
//!
//! # Charged layout
//!
//! The bits the paper's register needs are not the bytes above but the
//! widths of [`Widths`]. Every register struct has one `walk` that hands
//! each field to a sink as `(name, value, width)`, and the charge is the sum
//! of the widths: a fixed layout, where an `Option` costs its presence bit
//! and its payload's full width, empty or not, and the stored pieces are
//! charged for the ones the node holds.

use crate::strings::{ceil_log2, NodeStrings};
use smst_graph::weight::{bits_for, CompositeWeight};
use smst_graph::WeightedGraph;
use smst_labeling::SpLabel;
use std::num::NonZeroU8;

/// The largest identity, weight or node count a register field holds.
pub const MAX_FIELD: u64 = u32::MAX as u64;

/// Maximum activations a node delays its train for a wanting neighbour
/// (guards against corrupted `Want` registers).
pub const DELAY_MAX: u8 = 64;
/// Full cycles of a watched neighbour's trains after which a missing piece is
/// reported.
pub(crate) const MAX_WATCH_WRAPS: u8 = 3;
/// Cycles of both own trains after which the completeness check fires.
pub(crate) const COMPLETENESS_WRAPS: u8 = 2;
/// The verdicts a node outputs: accept, reject, still working.
const VERDICTS: u64 = 3;

/// The index of the `Top` partition in every per-partition pair: a label's
/// [`CoreLabel::parts`], a register's trains, the partitions' parts.
pub const TOP: usize = 0;
/// The index of the `Bottom` partition in every per-partition pair.
pub const BOTTOM: usize = 1;

/// The most levels a node's strings hold, `⌈log n⌉ + 1` (§5.2), where
/// `log_n` is `⌈log n⌉`.
pub(crate) fn max_levels(log_n: u32) -> u32 {
    log_n + 1
}

/// The most pieces circulating in one part, `2(log n + 2)` (§6.2).
pub(crate) fn max_pieces(log_n: u32) -> u32 {
    2 * (log_n + 2)
}

/// The largest diameter bound a part may claim, and so the deepest node in
/// it, `6 log n + 6` (§6.1).
pub(crate) fn max_diameter(log_n: u32) -> u32 {
    6 * log_n + 6
}

/// The width in bits of every field of the verifier's register on one graph
/// (see the module docs): each is [`bits_for`] of the largest value the
/// field holds in a legal register, and the strings and the seen-levels
/// mask hold one bit per level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Widths {
    /// An identity: the graph's largest.
    pub id: u32,
    /// A raw edge weight: the graph's largest.
    pub weight: u32,
    /// A node count or an SP distance: at most `n`.
    pub count: u32,
    /// A string, or a mask over levels: one bit for each of `⌈log n⌉ + 1`.
    pub levels: u32,
    /// A string length, or the top-level delimiter: at most `⌈log n⌉ + 1`.
    pub len: u32,
    /// A level, or an index into a node's levels: below `⌈log n⌉ + 1`.
    pub level: u32,
    /// A part's piece count: at most `2(log n + 2)`.
    pub pieces: u32,
    /// A slot in a part's cycle: below the piece count.
    pub slot: u32,
    /// A depth in a part, or a part's diameter bound: at most `6 log n + 6`.
    pub depth: u32,
    /// A port: below the graph's largest degree.
    pub port: u32,
    /// A train's delay: at most `DELAY_MAX` (64).
    pub delay: u32,
    /// A train's cycle counter: at most `COMPLETENESS_WRAPS` (2).
    pub wraps: u32,
    /// A watched neighbour's cycle counter: at most `MAX_WATCH_WRAPS` (3).
    pub watch_wraps: u32,
    /// A flag, or an `Option`'s presence bit.
    pub flag: u32,
    /// A verdict: one of three.
    pub verdict: u32,
}

impl Widths {
    /// The widths on a graph of `n` nodes with the given largest identity,
    /// weight and degree.
    pub fn new(max_id: u64, max_weight: u64, n: u64, max_degree: u64) -> Self {
        let log_n = ceil_log2(n);
        let levels = max_levels(log_n);
        let pieces = max_pieces(log_n);
        Widths {
            id: bits_for(max_id),
            weight: bits_for(max_weight),
            count: bits_for(n),
            levels,
            len: bits_for(levels.into()),
            level: bits_for((levels - 1).into()),
            pieces: bits_for(pieces.into()),
            slot: bits_for((pieces - 1).into()),
            depth: bits_for(max_diameter(log_n).into()),
            port: bits_for(max_degree.saturating_sub(1)),
            delay: bits_for(DELAY_MAX.into()),
            wraps: bits_for(COMPLETENESS_WRAPS.into()),
            watch_wraps: bits_for(MAX_WATCH_WRAPS.into()),
            flag: bits_for(true.into()),
            verdict: bits_for(VERDICTS - 1),
        }
    }

    /// The widths on `g`, from the maxima it keeps (`O(1)`).
    pub fn of(g: &WeightedGraph) -> Self {
        Widths::new(
            g.max_id().unwrap_or(1),
            g.max_weight().unwrap_or(1),
            g.node_count() as u64,
            g.max_degree() as u64,
        )
    }
}

/// `x` in a 32-bit register field.
///
/// # Panics
///
/// Panics if `x` exceeds [`MAX_FIELD`], which the marker rules out for every
/// instance it labels.
pub(crate) fn narrow(x: u64) -> u32 {
    u32::try_from(x).expect("identities and weights fit in 32 bits")
}

/// The SP fields of Example SP (§2.6) in a register: [`SpLabel`] with its
/// identities and distance in 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpCell {
    /// Identity of the claimed tree root.
    pub root_id: u32,
    /// Claimed hop distance to the root.
    pub dist: u32,
    /// The node's own identity.
    pub own_id: u32,
    /// Identity of the node's tree parent (`None` at the root).
    pub parent_id: Option<u32>,
}

impl SpCell {
    /// The cell holding `sp`.
    ///
    /// # Panics
    ///
    /// Panics if an identity or the distance of `sp` exceeds [`MAX_FIELD`].
    pub fn new(sp: SpLabel) -> Self {
        SpCell {
            root_id: narrow(sp.root_id),
            dist: narrow(sp.dist),
            own_id: narrow(sp.own_id),
            parent_id: sp.parent_id.map(narrow),
        }
    }

    /// The SP label the cell holds.
    pub fn label(&self) -> SpLabel {
        SpLabel {
            root_id: u64::from(self.root_id),
            dist: u64::from(self.dist),
            own_id: u64::from(self.own_id),
            parent_id: self.parent_id.map(u64::from),
        }
    }

    /// Whether the cell names the node of identity `id` as its parent.
    pub fn has_parent(&self, id: u64) -> bool {
        self.parent_id.is_some_and(|p| u64::from(p) == id)
    }

    /// Hands each field to `sink` as `(name, value, width)`.
    pub fn walk(&self, w: &Widths, sink: &mut impl FnMut(&'static str, u64, u32)) {
        let SpCell {
            root_id,
            dist,
            own_id,
            parent_id,
        } = *self;
        sink("SpCell.root_id", root_id.into(), w.id);
        sink("SpCell.dist", dist.into(), w.count);
        sink("SpCell.own_id", own_id.into(), w.id);
        sink("SpCell.parent_id?", parent_id.is_some().into(), w.flag);
        sink("SpCell.parent_id", parent_id.unwrap_or(0).into(), w.id);
    }
}

/// The piece of information `I(F) = ID(F) ∘ ω(F)` of a fragment (§3.4/§6)
/// — the identity of the fragment's root, its level, and the (composite)
/// weight of its minimum outgoing edge (`None` only for the top fragment) —
/// together with its slot in the part's cycle and §7.1's membership flag,
/// flattened into four 32-bit words and three bytes (see the module docs).
/// The flag is `false` wherever the paper has none (piece lists, stored
/// pieces and the climbing buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PieceCell {
    // the fault injector edits these two in place, wrapping at 32 bits
    pub(crate) root_id: u32,
    // the minimum outgoing edge's fields; all zero without one, so that
    // equal cells are equal words
    pub(crate) weight: u32,
    id_min: u32,
    id_max: u32,
    level: u8,
    slot: u8,
    // bit 0 always set (so `Option<PieceCell>` keeps its `None` in this
    // byte), then the flags below
    flags: NonZeroU8,
}

/// The piece's fragment has a minimum outgoing edge.
const HAS_MIN_OUT: u8 = 1 << 1;
/// That edge is a non-tree edge.
const NON_TREE: u8 = 1 << 2;
/// §7.1's membership flag.
const MEMBER: u8 = 1 << 3;

impl PieceCell {
    /// The cell holding, at `slot`, the piece of the level-`level` fragment
    /// rooted at identity `root_id` whose minimum outgoing edge weighs
    /// `min_out`; membership flag clear.
    ///
    /// # Panics
    ///
    /// Panics if `root_id` or a field of `min_out` exceeds [`MAX_FIELD`], or
    /// `level` exceeds 255.
    pub fn new(slot: u8, root_id: u64, level: u32, min_out: Option<CompositeWeight>) -> Self {
        let bit_if = |set: bool, bit: u8| if set { bit } else { 0 };
        PieceCell {
            root_id: narrow(root_id),
            weight: min_out.map_or(0, |w| narrow(w.weight)),
            id_min: min_out.map_or(0, |w| narrow(w.id_min)),
            id_max: min_out.map_or(0, |w| narrow(w.id_max)),
            level: u8::try_from(level).expect("levels fit in 8 bits"),
            slot,
            flags: NonZeroU8::MIN
                | bit_if(min_out.is_some(), HAS_MIN_OUT)
                | bit_if(min_out.is_some_and(|w| w.non_tree), NON_TREE),
        }
    }

    fn flag(&self, bit: u8) -> bool {
        self.flags.get() & bit != 0
    }

    /// The slot (DFS index) of the piece in the part's cycle.
    pub fn slot(&self) -> u8 {
        self.slot
    }

    /// The level of the piece's fragment.
    pub fn level(&self) -> u32 {
        u32::from(self.level)
    }

    /// The identity of the root of the piece's fragment.
    pub fn root_id(&self) -> u64 {
        u64::from(self.root_id)
    }

    /// `(level, root identity)`: the key whose strict increase within a
    /// cycle is §8's cyclic-order check.
    pub fn order_key(&self) -> (u8, u32) {
        (self.level, self.root_id)
    }

    /// Whether the piece's fragment has a minimum outgoing edge (all but the
    /// top fragment do).
    pub fn has_min_out(&self) -> bool {
        self.flag(HAS_MIN_OUT)
    }

    /// The composite weight of the fragment's minimum outgoing edge.
    pub fn min_out(&self) -> Option<CompositeWeight> {
        self.has_min_out().then_some(CompositeWeight {
            weight: u64::from(self.weight),
            non_tree: self.flag(NON_TREE),
            id_min: u64::from(self.id_min),
            id_max: u64::from(self.id_max),
        })
    }

    /// Whether the node holding this cell belongs to the piece's fragment
    /// (§7.1's flag; meaningful in the flooding buffer only).
    pub fn member(&self) -> bool {
        self.flag(MEMBER)
    }

    /// Whether `other` holds the same piece `I(F)`, whatever its slot and
    /// membership flag.
    pub(crate) fn same_piece(&self, other: &PieceCell) -> bool {
        let piece = |c: &PieceCell| PieceCell {
            slot: 0,
            ..c.with_member(false)
        };
        piece(self) == piece(other)
    }

    /// The same cell with the membership flag set to `member`.
    pub fn with_member(self, member: bool) -> Self {
        let kept = self.flags.get() & !MEMBER;
        let flags = NonZeroU8::MIN | kept | if member { MEMBER } else { 0 };
        PieceCell { flags, ..self }
    }

    /// Hands each field to `sink` as `(name, value, width)`: the slot, the
    /// piece, and §7.1's membership flag where the register has one
    /// (`flagged`: the flooding buffer).
    pub fn walk(&self, w: &Widths, flagged: bool, sink: &mut impl FnMut(&'static str, u64, u32)) {
        let PieceCell {
            root_id,
            weight,
            id_min,
            id_max,
            level,
            slot,
            flags: _,
        } = *self;
        sink("PieceCell.slot", slot.into(), w.slot);
        sink("PieceCell.root_id", root_id.into(), w.id);
        sink("PieceCell.level", level.into(), w.level);
        sink("PieceCell.min_out?", self.has_min_out().into(), w.flag);
        sink("PieceCell.weight", weight.into(), w.weight);
        sink("PieceCell.non_tree", self.flag(NON_TREE).into(), w.flag);
        sink("PieceCell.id_min", id_min.into(), w.id);
        sink("PieceCell.id_max", id_max.into(), w.id);
        if flagged {
            sink("PieceCell.member", self.member().into(), w.flag);
        }
    }

    /// Hands an optional cell to `sink` at its full width, empty or not: its
    /// presence bit, then the cell's fields (all zero when empty).
    pub fn walk_option(
        cell: Option<PieceCell>,
        w: &Widths,
        flagged: bool,
        sink: &mut impl FnMut(&'static str, u64, u32),
    ) {
        sink("Option<PieceCell>?", cell.is_some().into(), w.flag);
        cell.unwrap_or(PieceCell::new(0, 0, 0, None))
            .walk(w, flagged, sink);
    }
}

// A cell is four 32-bit words and three bytes, and an empty cell costs
// nothing extra.
const _: () = assert!(std::mem::size_of::<Option<PieceCell>>() == 20);

/// The per-partition portion of the label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartLabel {
    /// Identity of the root of the node's part (32 bits, see the module
    /// docs).
    pub part_root_id: u32,
    /// The node's hop depth inside the part's subtree.
    pub depth_in_part: u8,
    /// Claimed upper bound on the part's diameter (must be `O(log n)`: the
    /// verifier rejects a bound above `6·log n + 6`).
    pub diameter_bound: u8,
    /// The number of piece slots circulating in the part.
    pub piece_count: u8,
    /// The pieces stored permanently at this node for this part, filled from
    /// the front. §6.2 places at most two per part, and the placement spreads
    /// them across the node's two parts so that it stores at most two in
    /// total wherever such a placement exists (`partition::place_pieces`).
    pub stored: [Option<PieceCell>; 2],
}

impl PartLabel {
    /// The pieces stored permanently at this node.
    pub fn stored_pieces(&self) -> impl Iterator<Item = &PieceCell> {
        self.stored.iter().flatten()
    }

    /// Hands each field to `sink` as `(name, value, width)`; the stored
    /// pieces are charged for the ones the node holds.
    pub fn walk(&self, w: &Widths, sink: &mut impl FnMut(&'static str, u64, u32)) {
        let PartLabel {
            part_root_id,
            depth_in_part,
            diameter_bound,
            piece_count,
            stored,
        } = *self;
        sink("PartLabel.part_root_id", part_root_id.into(), w.id);
        sink("PartLabel.depth_in_part", depth_in_part.into(), w.depth);
        sink("PartLabel.diameter_bound", diameter_bound.into(), w.depth);
        sink("PartLabel.piece_count", piece_count.into(), w.pieces);
        for cell in stored.iter().flatten() {
            cell.walk(w, false, sink);
        }
    }
}

/// The complete node label assigned by the marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreLabel {
    /// Example SP fields (root identity, distance, own identity, parent
    /// identity).
    pub sp: SpCell,
    /// The claimed number of nodes (Example NumK).
    pub n_claim: u32,
    /// The number of nodes in this node's subtree (Example NumK aggregation).
    pub subtree_count: u32,
    /// The hierarchy strings of §5.
    pub strings: NodeStrings,
    /// The delimiter of §8 splitting `J(v)` into bottom and top levels: the
    /// smallest level at which this node's fragment is a *top* fragment
    /// (fragment sizes grow along the containment chain, so a single
    /// threshold suffices).
    pub top_min_level: u8,
    /// The node's part in each partition, indexed by [`TOP`] and [`BOTTOM`]
    /// (§6.1: every node belongs to exactly one part of each).
    pub parts: [PartLabel; 2],
}

impl CoreLabel {
    /// Hands each field to `sink` as `(name, value, width)`.
    pub fn walk(&self, w: &Widths, sink: &mut impl FnMut(&'static str, u64, u32)) {
        let CoreLabel {
            sp,
            n_claim,
            subtree_count,
            strings,
            top_min_level,
            parts,
        } = *self;
        sp.walk(w, sink);
        sink("CoreLabel.n_claim", n_claim.into(), w.count);
        sink("CoreLabel.subtree_count", subtree_count.into(), w.count);
        strings.walk(w, sink);
        sink("CoreLabel.top_min_level", top_min_level.into(), w.len);
        for part in parts {
            part.walk(w, sink);
        }
    }

    /// The bits the label is charged under `w`: the sum of its walk's widths.
    pub fn bits(&self, w: &Widths) -> u64 {
        let mut bits = 0;
        self.walk(w, &mut |_, _, width| bits += u64::from(width));
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strings::NodeStrings;

    fn sample_label(levels: usize, stored: usize) -> CoreLabel {
        let min_out = Some(CompositeWeight::new(10, true, 1, 2));
        let part = PartLabel {
            part_root_id: 1,
            depth_in_part: 2,
            diameter_bound: 8,
            piece_count: 4,
            stored: [0, 1].map(|i| (i < stored).then(|| PieceCell::new(i as u8, 3, 1, min_out))),
        };
        CoreLabel {
            sp: SpCell::new(SpLabel {
                root_id: 0,
                dist: 3,
                own_id: 7,
                parent_id: Some(2),
            }),
            n_claim: 64,
            subtree_count: 5,
            strings: NodeStrings::blank(levels),
            top_min_level: 2,
            parts: [part; 2],
        }
    }

    #[test]
    fn label_bits_scale_logarithmically() {
        // with ℓ + 1 = log n levels and at most 4 stored pieces, the label is
        // a constant number of log n-bit words
        let n = 1024usize;
        let levels = 11;
        let label = sample_label(levels, 2);
        let bits = label.bits(&Widths::new(n as u64, 1_000_000, n as u64, 16));
        let log_n = (n as f64).log2();
        assert!(
            (bits as f64) < 60.0 * log_n + 100.0,
            "label of {bits} bits exceeds the O(log n) budget"
        );
    }

    #[test]
    fn more_stored_pieces_cost_more_bits() {
        let w = Widths::new(100, 100, 100, 8);
        let a = sample_label(8, 0).bits(&w);
        let b = sample_label(8, 2).bits(&w);
        assert!(b > a);
    }

    #[test]
    fn piece_bits_positive() {
        let mut bits = 0;
        let piece = sample_label(8, 1).parts[TOP].stored[0].unwrap();
        piece.walk(&Widths::new(100, 100, 100, 8), false, &mut |_, _, width| {
            bits += width
        });
        assert!(bits > 0);
    }

    #[test]
    fn piece_cells_round_trip_in_20_bytes() {
        let with_edge = Some(CompositeWeight::new(MAX_FIELD, false, MAX_FIELD, MAX_FIELD));
        for (root_id, level, min_out) in [(MAX_FIELD, u8::MAX.into(), with_edge), (5, 12, None)] {
            let cell = PieceCell::new(200, root_id, level, min_out);
            let fields = |c: PieceCell| (c.slot(), c.root_id(), c.level(), c.min_out());
            assert_eq!(fields(cell), (200, root_id, level, min_out));
            assert!(!cell.member());
            assert_eq!(cell.has_min_out(), min_out.is_some());
            let flagged = cell.with_member(true);
            assert_eq!(fields(flagged), fields(cell));
            assert!(flagged.member() && flagged != cell);
            assert_eq!(flagged.with_member(false), cell);
            let elsewhere = PieceCell::new(3, root_id, level, min_out);
            assert!(flagged.same_piece(&elsewhere) && elsewhere.same_piece(&cell));
            let other = PieceCell::new(200, root_id ^ 1, level, min_out);
            assert!(!other.same_piece(&cell));
        }
        assert_eq!(std::mem::size_of::<PieceCell>(), 20);
        assert_eq!(std::mem::size_of::<Option<PieceCell>>(), 20);
        assert_eq!(std::mem::size_of::<PartLabel>(), 48);
    }

    #[test]
    fn sp_cells_round_trip_in_20_bytes() {
        for sp in [
            SpLabel {
                root_id: MAX_FIELD,
                dist: MAX_FIELD,
                own_id: 0,
                parent_id: Some(MAX_FIELD),
            },
            SpLabel {
                root_id: 4,
                dist: 0,
                own_id: 4,
                parent_id: None,
            },
        ] {
            let cell = SpCell::new(sp);
            assert_eq!(cell.label(), sp);
            assert_eq!(cell.has_parent(MAX_FIELD), sp.parent_id.is_some());
        }
        assert_eq!(std::mem::size_of::<SpCell>(), 20);
    }

    #[test]
    #[should_panic(expected = "fit in 8 bits")]
    fn a_level_beyond_8_bits_does_not_fit_a_cell() {
        PieceCell::new(0, 0, 256, None);
    }

    #[test]
    #[should_panic(expected = "fit in 32 bits")]
    fn a_piece_beyond_32_bits_does_not_fit_a_cell() {
        PieceCell::new(0, MAX_FIELD + 1, 0, None);
    }
}
