//! The `Roots`, `EndP`, `Parents` and `Or-EndP` strings of §5.2–§5.3.
//!
//! These strings represent the fragment hierarchy and the candidate function
//! distributively using `O(log n)` bits per node: each string has `ℓ + 1`
//! entries (one per level) of one or two bits each. The module provides the
//! marker-side builder (from a [`Hierarchy`]) and the node-local legality
//! checks — the RS and EPS conditions — that the verifier evaluates in a
//! single round by reading its own strings and those of its tree parent and
//! children.
//!
//! # Bit layout
//!
//! [`NodeStrings`] is the paper's register, word for word: six `u64`s and a
//! length, level `j` ↔ bit `j` (so at most 64 levels, i.e. `n < 2⁶³`).
//!
//! | word            | bit `j` is set iff                                   |
//! |-----------------|------------------------------------------------------|
//! | `roots_present` | `Roots_j ≠ *`                                        |
//! | `roots_root`    | `Roots_j = 1` (subset of `roots_present`)            |
//! | `endp_hi`       | `EndP_j ∈ {Up, Down}` — the node is an endpoint      |
//! | `endp_lo`       | `EndP_j ∈ {Down, NotEndpoint}`                       |
//! | `parents`       | `Parents_j = 1`                                      |
//! | `or_endp`       | `Or-EndP_j = 1`                                      |
//!
//! `EndP_j` is the two-bit code `hi lo`: `00` = `*`, `01` = not an endpoint,
//! `10` = `Up`, `11` = `Down`. Bits at and above the length are always zero,
//! so equal strings are equal words and every legality condition is a
//! comparison of masks: [`NodeStrings::present`] is `J(v)`,
//! [`NodeStrings::nonroot`] is `present & !root`, [`NodeStrings::up`] is
//! `hi & !lo`, [`NodeStrings::down`] is `hi & lo`. [`check_strings`] lists
//! the mask expression of each RS/EPS condition next to its name; it costs
//! one pass over the children ([`ChildSummary`]) plus about twenty word
//! operations, independent of the number of levels.

use crate::labels::Widths;
use smst_graph::weight::bits_for;
use smst_graph::{Hierarchy, RootedTree, WeightedGraph};

/// One entry of the `Roots` string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootSym {
    /// `1`: the node is the root of its level-`j` fragment.
    Root,
    /// `0`: the node belongs to a level-`j` fragment but is not its root.
    NonRoot,
    /// `*`: the node belongs to no level-`j` fragment.
    Absent,
}

/// One entry of the `EndP` string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpSym {
    /// The node is the endpoint of its fragment's candidate edge, which leads
    /// to the node's tree parent.
    Up,
    /// The node is the endpoint of its fragment's candidate edge, which leads
    /// to one of the node's tree children (marked by that child's `Parents`
    /// bit).
    Down,
    /// The node belongs to a level-`j` fragment but is not the candidate's
    /// endpoint.
    NotEndpoint,
    /// `*`: the node belongs to no level-`j` fragment.
    Absent,
}

/// The largest representable string length (one bit per level per word).
pub const MAX_LEVELS: usize = 64;

/// The four per-node strings, packed one level per bit (see the module
/// docs for the layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStrings {
    roots_present: u64,
    roots_root: u64,
    endp_hi: u64,
    endp_lo: u64,
    parents: u64,
    or_endp: u64,
    len: u8,
}

/// Bit `j` of a word; `false` for levels no word can hold.
fn bit(word: u64, j: usize) -> bool {
    j < MAX_LEVELS && (word >> j) & 1 == 1
}

fn set_bit(word: &mut u64, j: usize, value: bool) {
    *word = (*word & !(1 << j)) | (u64::from(value) << j);
}

impl NodeStrings {
    /// The string length `ℓ + 1`.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// `true` if the strings are empty (never produced by the marker).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// An empty-but-structurally-consistent string set of a given length
    /// (used only by the builder, fault injectors and tests).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_LEVELS`].
    pub fn blank(len: usize) -> Self {
        assert!(len <= MAX_LEVELS, "at most {MAX_LEVELS} levels fit a word");
        NodeStrings {
            roots_present: 0,
            roots_root: 0,
            endp_hi: 0,
            endp_lo: 0,
            parents: 0,
            or_endp: 0,
            len: len as u8,
        }
    }

    /// Hands each word to `sink` as `(name, value, width)`: one bit per
    /// level in each, so two per `Roots`/`EndP` entry and one per
    /// `Parents`/`Or-EndP` entry. The length costs nothing more: a `Roots`
    /// entry has a fourth code, free to mark the levels at and above it.
    pub fn walk(&self, w: &Widths, sink: &mut impl FnMut(&'static str, u64, u32)) {
        let NodeStrings {
            roots_present,
            roots_root,
            endp_hi,
            endp_lo,
            parents,
            or_endp,
            len: _,
        } = *self;
        sink("NodeStrings.roots_present", roots_present, w.levels);
        sink("NodeStrings.roots_root", roots_root, w.levels);
        sink("NodeStrings.endp_hi", endp_hi, w.levels);
        sink("NodeStrings.endp_lo", endp_lo, w.levels);
        sink("NodeStrings.parents", parents, w.levels);
        sink("NodeStrings.or_endp", or_endp, w.levels);
    }

    /// Entry `j` of the `Roots` string (`*` at and beyond the length).
    pub fn root(&self, j: usize) -> RootSym {
        match (bit(self.roots_present, j), bit(self.roots_root, j)) {
            (false, _) => RootSym::Absent,
            (true, true) => RootSym::Root,
            (true, false) => RootSym::NonRoot,
        }
    }

    /// Entry `j` of the `EndP` string (`*` at and beyond the length).
    pub fn endp(&self, j: usize) -> EndpSym {
        match (bit(self.endp_hi, j), bit(self.endp_lo, j)) {
            (false, false) => EndpSym::Absent,
            (false, true) => EndpSym::NotEndpoint,
            (true, false) => EndpSym::Up,
            (true, true) => EndpSym::Down,
        }
    }

    /// Entry `j` of the `Parents` string: `true` iff the candidate edge of
    /// the level-`j` fragment containing this node's *parent* leads from the
    /// parent down to this node.
    pub fn parent_bit(&self, j: usize) -> bool {
        bit(self.parents, j)
    }

    /// Entry `j` of the `Or-EndP` string: `true` iff some node in this node's
    /// subtree, restricted to this node's level-`j` fragment, is the
    /// candidate's endpoint (the aggregation certifying EPS1 existence).
    pub fn or_endp_bit(&self, j: usize) -> bool {
        bit(self.or_endp, j)
    }

    /// The levels at which this node belongs to a fragment, `J(v)`, as a
    /// mask.
    pub fn present(&self) -> u64 {
        self.roots_present
    }

    /// The levels at which this node is a fragment member but not the root.
    pub fn nonroot(&self) -> u64 {
        self.roots_present & !self.roots_root
    }

    /// The levels at which this node is the `Up` endpoint of the candidate.
    pub fn up(&self) -> u64 {
        self.endp_hi & !self.endp_lo
    }

    /// The levels at which this node is the `Down` endpoint of the candidate.
    pub fn down(&self) -> u64 {
        self.endp_hi & self.endp_lo
    }

    fn assert_level(&self, j: usize) {
        assert!(j < self.len(), "level {j} outside a string of {}", self.len);
    }

    /// Overwrites entry `j` of the `Roots` string.
    ///
    /// # Panics
    ///
    /// This and the other setters panic if `j` is not below the length.
    pub fn set_root(&mut self, j: usize, sym: RootSym) {
        self.assert_level(j);
        set_bit(&mut self.roots_present, j, sym != RootSym::Absent);
        set_bit(&mut self.roots_root, j, sym == RootSym::Root);
    }

    /// Overwrites entry `j` of the `EndP` string.
    pub fn set_endp(&mut self, j: usize, sym: EndpSym) {
        self.assert_level(j);
        set_bit(
            &mut self.endp_hi,
            j,
            matches!(sym, EndpSym::Up | EndpSym::Down),
        );
        set_bit(
            &mut self.endp_lo,
            j,
            matches!(sym, EndpSym::Down | EndpSym::NotEndpoint),
        );
    }

    /// Overwrites entry `j` of the `Parents` string.
    pub fn set_parent_bit(&mut self, j: usize, value: bool) {
        self.assert_level(j);
        set_bit(&mut self.parents, j, value);
    }

    /// Overwrites entry `j` of the `Or-EndP` string.
    pub fn set_or_endp_bit(&mut self, j: usize, value: bool) {
        self.assert_level(j);
        set_bit(&mut self.or_endp, j, value);
    }

    /// Shortens all four strings to `len` entries (no-op if already
    /// shorter), as a fault that drops the top levels would.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            let keep = (1u64 << len) - 1;
            for word in [
                &mut self.roots_present,
                &mut self.roots_root,
                &mut self.endp_hi,
                &mut self.endp_lo,
                &mut self.parents,
                &mut self.or_endp,
            ] {
                *word &= keep;
            }
            self.len = len as u8;
        }
    }
}

/// `⌈log₂ x⌉` for `x ≥ 2` and `1` below: the integer form of
/// `(x.max(2) as f64).log2().ceil()`, which the verifier needs twice per
/// activation (string length bound, partition bounds).
pub(crate) fn ceil_log2(x: u64) -> u32 {
    bits_for(x.max(2) - 1)
}

/// Builds the strings of every node from a hierarchy with candidates.
///
/// `hierarchy` must contain candidates for every non-top fragment (as
/// produced by SYNC_MST); the strings have length `hierarchy.height() + 1`.
pub fn build_strings(
    g: &WeightedGraph,
    tree: &RootedTree,
    hierarchy: &Hierarchy,
) -> Vec<NodeStrings> {
    let mut out = vec![NodeStrings::blank(0); g.node_count()];
    write_strings(g, tree, hierarchy, &mut out, |s| s);
    out
}

/// [`build_strings`] into the `field` of each node's entry of `out` (one
/// per node, in index order), so that the marker writes them straight into
/// its labels.
pub(crate) fn write_strings<T>(
    g: &WeightedGraph,
    tree: &RootedTree,
    hierarchy: &Hierarchy,
    out: &mut [T],
    field: fn(&mut T) -> &mut NodeStrings,
) {
    let len = hierarchy.height() as usize + 1;
    for entry in out.iter_mut() {
        *field(entry) = NodeStrings::blank(len);
    }

    for idx in 0..hierarchy.len() {
        let frag = hierarchy.fragment(idx);
        let j = frag.level as usize;
        for v in frag.nodes() {
            let sym = if frag.root == v {
                RootSym::Root
            } else {
                RootSym::NonRoot
            };
            let strings = field(&mut out[v.index()]);
            strings.set_root(j, sym);
            strings.set_endp(j, EndpSym::NotEndpoint);
        }
        if let Some(cand) = hierarchy.candidate(idx) {
            let edge = g.edge(cand);
            let (inside, outside) = if frag.contains(edge.u) {
                (edge.u, edge.v)
            } else {
                (edge.v, edge.u)
            };
            debug_assert!(!frag.contains(outside), "candidate must be outgoing");
            if tree.parent(inside) == Some(outside) {
                field(&mut out[inside.index()]).set_endp(j, EndpSym::Up);
            } else {
                debug_assert_eq!(tree.parent(outside), Some(inside));
                field(&mut out[inside.index()]).set_endp(j, EndpSym::Down);
                field(&mut out[outside.index()]).set_parent_bit(j, true);
            }
        }
    }

    // Or-EndP aggregation, bottom-up (reverse BFS order puts children first),
    // restricted to same-fragment children — all levels of a node at once
    for &v in tree.bfs_order().iter().rev() {
        let mut word = field(&mut out[v.index()]).endp_hi;
        for &c in tree.children(v) {
            let child = field(&mut out[c.index()]);
            word |= child.nonroot() & child.or_endp;
        }
        field(&mut out[v.index()]).or_endp = word;
    }
}

/// What a node needs from its tree children's strings, gathered in one pass
/// (one [`add`](Self::add) per child): whether their lengths agree with the
/// node's own, and three words.
#[derive(Debug, Clone, Copy)]
pub struct ChildSummary {
    len: u8,
    len_mismatch: bool,
    /// Levels at which some same-fragment child reports an endpoint below
    /// it: the OR of `nonroot & or_endp` over the children.
    child_or: u64,
    /// Levels at which at least one child sets its `Parents` bit.
    marked_once: u64,
    /// Levels at which at least two children set their `Parents` bit.
    marked_twice: u64,
}

impl ChildSummary {
    /// The summary of no children, for a node whose own strings are `own`.
    pub fn new(own: &NodeStrings) -> Self {
        ChildSummary {
            len: own.len,
            len_mismatch: false,
            child_or: 0,
            marked_once: 0,
            marked_twice: 0,
        }
    }

    /// Accounts for one more tree child.
    pub fn add(&mut self, child: &NodeStrings) {
        self.len_mismatch |= child.len != self.len;
        self.child_or |= child.nonroot() & child.or_endp;
        self.marked_twice |= self.marked_once & child.parents;
        self.marked_once |= child.parents;
    }
}

/// Everything the node-local string checks need to see: the node's own
/// strings, its tree parent's (if any) and its tree children's.
#[derive(Debug)]
pub struct StringNeighborhood<'a> {
    /// The node's own strings.
    pub own: &'a NodeStrings,
    /// The tree parent's strings (as identified through the component
    /// pointer), if the node is not the root.
    pub parent: Option<&'a NodeStrings>,
    /// The tree children's strings (neighbours whose parent pointer names
    /// this node), summarised.
    pub children: ChildSummary,
    /// Whether this node is the root of the candidate tree.
    pub is_tree_root: bool,
    /// An upper bound on `ℓ + 1` derived from the (verified) knowledge of `n`
    /// (`⌈log₂ n⌉ + 1`).
    pub max_len: usize,
}

/// Every level strictly above the lowest set bit of `m` (none if `m == 0`).
fn above_lowest(m: u64) -> u64 {
    !(m ^ m.wrapping_sub(1))
}

/// Evaluates the RS and EPS legality conditions of §5.2–§5.3 at one node.
///
/// Returns `Err` with the name of a violated condition.
pub fn check_strings(view: &StringNeighborhood<'_>) -> Result<(), &'static str> {
    let own = view.own;
    let len = own.len();
    let kids = &view.children;

    // RS1: bounded length, agreed upon along every tree edge
    if len == 0 || len > view.max_len {
        return Err("RS1: string length out of range");
    }
    if view.parent.is_some_and(|p| p.len != own.len) {
        return Err("RS1: length disagrees with parent");
    }
    if kids.len_mismatch {
        return Err("RS1: length disagrees with a child");
    }

    let top = 1u64 << (len - 1);
    let (root, nonroot) = (own.roots_root, own.nonroot());
    let (up, down) = (own.up(), own.down());
    // a missing parent has no fragment and no candidate at any level
    let (parent_present, parent_down) = view.parent.map_or((0, 0), |p| (p.present(), p.down()));

    // alignment between Roots and EndP: a level is absent in both or neither
    if own.roots_present != own.endp_hi | own.endp_lo {
        return Err("Roots/EndP absence mismatch");
    }
    // RS0: no '1' above a '0'
    if root & above_lowest(nonroot) != 0 {
        return Err("RS0: root entry after a non-root entry");
    }
    // RS2 / RS4: the tree root is the root of every fragment it is in and of
    // the top one; every other node's top entry is '0'
    if view.is_tree_root {
        if nonroot != 0 {
            return Err("RS2: tree root has a non-root entry");
        }
        if root & top == 0 {
            return Err("RS2: tree root is not the root of the top fragment");
        }
    } else if nonroot & top == 0 {
        return Err("RS4: non-root node's top entry is not 0");
    }
    // RS3: level 0 is the singleton fragment
    if root & 1 == 0 {
        return Err("RS3: level-0 entry is not a root entry");
    }
    // RS5: where the node is a fragment non-root, its parent is in a
    // fragment too
    if nonroot & !parent_present != 0 {
        return Err("RS5: non-root fragment member's parent has no fragment");
    }
    // EPS0: Parents_j(v) = 1 only below a Down endpoint
    if own.parents & !parent_down != 0 {
        return Err("EPS0: Parents bit without a Down endpoint at the parent");
    }
    // EPS1 (existence half, via Or-EndP): the aggregation is the OR of the
    // own endpoint marks and the same-fragment children's aggregates, it is
    // positive at every fragment root except the top fragment's, and the
    // top fragment has no candidate
    if own.or_endp != own.endp_hi | kids.child_or {
        return Err("EPS1: Or-EndP aggregation mismatch");
    }
    let top_fragment_root = if view.is_tree_root { top } else { 0 };
    if root & !own.or_endp & !top_fragment_root != 0 {
        return Err("EPS1: fragment has no candidate endpoint");
    }
    if top_fragment_root & !(own.endp_lo & !own.endp_hi) != 0 {
        return Err("EPS1: the top fragment must have no candidate");
    }
    // EPS2: exactly one child is marked at each Down level, none elsewhere
    if kids.marked_once != down || kids.marked_twice != 0 {
        return Err("EPS2: marked children do not match the Down endpoints");
    }
    // EPS3: an Up endpoint is its fragment's root and never a root above
    if up & !root != 0 {
        return Err("EPS3: Up endpoint is not its fragment's root");
    }
    if root & above_lowest(up) != 0 {
        return Err("EPS3: Up endpoint is a root again at a higher level");
    }
    // EPS4: likewise for a node marked by its parent's Down endpoint
    if own.parents & nonroot != 0 {
        return Err("EPS4: Parents bit set but node is a fragment non-root");
    }
    if root & above_lowest(own.parents) != 0 {
        return Err("EPS4: Parents bit set but node is a root at a higher level");
    }
    // EPS5: every non-root node merges with its parent's fragment somewhere
    if !view.is_tree_root && own.parents | up == 0 {
        return Err("EPS5: node never merges with its parent's fragment");
    }
    Ok(())
}

/// The per-level evaluation of the same conditions over unpacked symbol
/// vectors — the body [`check_strings`] had before the strings were packed —
/// kept as the oracle the mask expressions are held against.
#[cfg(test)]
mod reference {
    use super::{EndpSym, NodeStrings, RootSym};

    /// The four strings as one symbol per vector entry.
    pub struct Unpacked {
        pub roots: Vec<RootSym>,
        pub endp: Vec<EndpSym>,
        pub parents: Vec<bool>,
        pub or_endp: Vec<bool>,
    }

    impl Unpacked {
        pub fn len(&self) -> usize {
            self.roots.len()
        }
    }

    impl From<&NodeStrings> for Unpacked {
        fn from(s: &NodeStrings) -> Self {
            Unpacked {
                roots: (0..s.len()).map(|j| s.root(j)).collect(),
                endp: (0..s.len()).map(|j| s.endp(j)).collect(),
                parents: (0..s.len()).map(|j| s.parent_bit(j)).collect(),
                or_endp: (0..s.len()).map(|j| s.or_endp_bit(j)).collect(),
            }
        }
    }

    pub struct View<'a> {
        pub own: &'a Unpacked,
        pub parent: Option<&'a Unpacked>,
        pub children: Vec<&'a Unpacked>,
        pub is_tree_root: bool,
        pub max_len: usize,
    }

    pub fn check_strings(view: &View<'_>) -> Result<(), &'static str> {
        let own = view.own;
        let len = own.len();

        // structural alignment of the four strings
        if own.endp.len() != len || own.parents.len() != len || own.or_endp.len() != len {
            return Err("strings have inconsistent lengths");
        }
        // RS1: bounded, agreed-upon length
        if len == 0 || len > view.max_len {
            return Err("RS1: string length out of range");
        }
        if let Some(p) = view.parent {
            if p.len() != len {
                return Err("RS1: length disagrees with parent");
            }
        }
        for c in &view.children {
            if c.len() != len {
                return Err("RS1: length disagrees with a child");
            }
        }
        // alignment between Roots and EndP: a level is absent in both or neither
        for j in 0..len {
            let absent_r = own.roots[j] == RootSym::Absent;
            let absent_e = own.endp[j] == EndpSym::Absent;
            if absent_r != absent_e {
                return Err("Roots/EndP absence mismatch");
            }
        }
        // RS0: no '1' after a '0'
        let mut seen_zero = false;
        for j in 0..len {
            match own.roots[j] {
                RootSym::NonRoot => seen_zero = true,
                RootSym::Root if seen_zero => return Err("RS0: root entry after a non-root entry"),
                _ => {}
            }
        }
        // RS2 / RS4
        if view.is_tree_root {
            if own.roots.contains(&RootSym::NonRoot) {
                return Err("RS2: tree root has a non-root entry");
            }
            if own.roots[len - 1] != RootSym::Root {
                return Err("RS2: tree root is not the root of the top fragment");
            }
        } else if own.roots[len - 1] != RootSym::NonRoot {
            return Err("RS4: non-root node's top entry is not 0");
        }
        // RS3
        if own.roots[0] != RootSym::Root {
            return Err("RS3: level-0 entry is not a root entry");
        }
        // RS5
        for j in 0..len {
            if own.roots[j] == RootSym::NonRoot {
                match view.parent {
                    None => return Err("RS5: non-root fragment member has no tree parent"),
                    Some(p) => {
                        if p.roots[j] == RootSym::Absent {
                            return Err("RS5: parent has no fragment at this level");
                        }
                    }
                }
            }
        }
        // EPS0: if Parents_j(v) = 1 then the parent's EndP_j is Down
        for j in 0..len {
            if own.parents[j] {
                match view.parent {
                    None => return Err("EPS0: Parents bit set at the tree root"),
                    Some(p) => {
                        if p.endp[j] != EndpSym::Down {
                            return Err("EPS0: parent's EndP is not Down");
                        }
                    }
                }
            }
        }
        // EPS1 (existence half, via Or-EndP): aggregation correctness and
        // positivity at every non-top fragment root
        for j in 0..len {
            let mut expected = matches!(own.endp[j], EndpSym::Up | EndpSym::Down);
            for c in &view.children {
                if c.roots[j] == RootSym::NonRoot && c.or_endp[j] {
                    expected = true;
                }
            }
            if own.or_endp[j] != expected {
                return Err("EPS1: Or-EndP aggregation mismatch");
            }
            let is_top_fragment_root = view.is_tree_root && j == len - 1;
            if own.roots[j] == RootSym::Root && !is_top_fragment_root && !own.or_endp[j] {
                return Err("EPS1: fragment has no candidate endpoint");
            }
            if is_top_fragment_root && own.endp[j] != EndpSym::NotEndpoint {
                return Err("EPS1: the top fragment must have no candidate");
            }
        }
        // EPS2: a Down endpoint has exactly one child with the Parents bit set
        for j in 0..len {
            if own.endp[j] == EndpSym::Down {
                let marked = view.children.iter().filter(|c| c.parents[j]).count();
                if marked != 1 {
                    return Err("EPS2: Down endpoint without exactly one marked child");
                }
            } else {
                // a child may only set its Parents bit when we are a Down endpoint
                if view.children.iter().any(|c| c.parents[j]) && own.endp[j] != EndpSym::Down {
                    return Err("EPS2: child marks a candidate the parent does not have");
                }
            }
        }
        // EPS3
        for j in 0..len {
            if own.endp[j] == EndpSym::Up {
                if own.roots[j] != RootSym::Root {
                    return Err("EPS3: Up endpoint is not its fragment's root");
                }
                if own.roots[(j + 1)..].contains(&RootSym::Root) {
                    return Err("EPS3: Up endpoint is a root again at a higher level");
                }
            }
        }
        // EPS4
        for j in 0..len {
            if own.parents[j] {
                if own.roots[j] == RootSym::NonRoot {
                    return Err("EPS4: Parents bit set but node is a fragment non-root");
                }
                if own.roots[(j + 1)..].contains(&RootSym::Root) {
                    return Err("EPS4: Parents bit set but node is a root at a higher level");
                }
            }
        }
        // EPS5
        if !view.is_tree_root {
            let merges = (0..len).any(|j| own.parents[j] || own.endp[j] == EndpSym::Up);
            if !merges {
                return Err("EPS5: node never merges with its parent's fragment");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::max_levels;
    use crate::sync_mst::SyncMst;
    use smst_graph::generators::random_connected_graph;
    use smst_graph::NodeId;
    use smst_rng::{Rng, SeedableRng, StdRng};

    fn build(n: usize, seed: u64) -> (WeightedGraph, RootedTree, Vec<NodeStrings>) {
        let g = random_connected_graph(n, 3 * n, seed);
        let outcome = SyncMst.run(&g);
        let strings = build_strings(&g, &outcome.tree, &outcome.hierarchy);
        (g, outcome.tree, strings)
    }

    fn view<'a>(
        tree: &RootedTree,
        strings: &'a [NodeStrings],
        v: NodeId,
        max_len: usize,
    ) -> StringNeighborhood<'a> {
        let own = &strings[v.index()];
        let mut children = ChildSummary::new(own);
        for c in tree.children(v) {
            children.add(&strings[c.index()]);
        }
        StringNeighborhood {
            own,
            parent: tree.parent(v).map(|p| &strings[p.index()]),
            children,
            is_tree_root: tree.root() == v,
            max_len,
        }
    }

    fn check_all(
        g: &WeightedGraph,
        tree: &RootedTree,
        strings: &[NodeStrings],
    ) -> Result<(), (NodeId, &'static str)> {
        let max_len = max_levels(ceil_log2(g.node_count() as u64)) as usize;
        for v in g.nodes() {
            check_strings(&view(tree, strings, v, max_len)).map_err(|e| (v, e))?;
        }
        Ok(())
    }

    #[test]
    fn marker_strings_satisfy_all_conditions() {
        for seed in 0..8 {
            let (g, tree, strings) = build(20, seed);
            check_all(&g, &tree, &strings).unwrap_or_else(|(v, e)| {
                panic!("seed {seed}: node {v} violates {e}");
            });
        }
    }

    #[test]
    fn strings_are_logarithmically_sized() {
        let (g, _, strings) = build(200, 1);
        for s in &strings {
            assert!(s.len() <= 9, "length {} exceeds ⌈log 200⌉ + 1", s.len());
            let mut bits = 0;
            s.walk(&Widths::of(&g), &mut |_, _, width| bits += width);
            assert!(bits <= 6 * 9);
        }
    }

    #[test]
    fn corrupting_roots_breaks_a_condition() {
        let (g, tree, mut strings) = build(18, 3);
        // flip a Root into a NonRoot somewhere
        'outer: for s in strings.iter_mut().skip(1) {
            for j in 1..s.len() {
                if s.root(j) == RootSym::Root {
                    s.set_root(j, RootSym::NonRoot);
                    break 'outer;
                }
            }
        }
        assert!(check_all(&g, &tree, &strings).is_err());
    }

    #[test]
    fn corrupting_endp_breaks_a_condition() {
        // every node (n ≥ 2) is the endpoint of its singleton fragment's
        // candidate at level 0; erasing that mark must be detected
        let (g, tree, mut strings) = build(18, 4);
        assert!(matches!(strings[1].endp(0), EndpSym::Up | EndpSym::Down));
        strings[1].set_endp(0, EndpSym::NotEndpoint);
        assert!(check_all(&g, &tree, &strings).is_err());
    }

    #[test]
    fn spurious_parents_bit_breaks_a_condition() {
        let (g, tree, mut strings) = build(18, 5);
        // set a Parents bit at a node whose parent has no matching Down mark
        let mut target = None;
        'outer: for v in g.nodes() {
            if let Some(p) = tree.parent(v) {
                for j in 0..strings[v.index()].len() {
                    if !strings[v.index()].parent_bit(j)
                        && strings[p.index()].endp(j) != EndpSym::Down
                    {
                        target = Some((v, j));
                        break 'outer;
                    }
                }
            }
        }
        let (v, j) = target.expect("some unmarkable (node, level) pair exists");
        strings[v.index()].set_parent_bit(j, true);
        assert!(check_all(&g, &tree, &strings).is_err());
    }

    #[test]
    fn truncated_strings_are_rejected() {
        let (g, tree, mut strings) = build(18, 6);
        let shorter = strings[2].len() - 1;
        strings[2].truncate(shorter);
        assert!(check_all(&g, &tree, &strings).is_err());
    }

    #[test]
    fn levels_present_matches_roots() {
        let (_, _, strings) = build(20, 7);
        for s in &strings {
            assert_eq!(s.present() & 1, 1, "every node has a singleton fragment");
            assert_eq!(s.present() >> s.len(), 0, "no level beyond the length");
            for j in 0..s.len() {
                assert_eq!(s.present() >> j & 1 == 1, s.root(j) != RootSym::Absent);
                assert_eq!(s.nonroot() >> j & 1 == 1, s.root(j) == RootSym::NonRoot);
                assert_eq!(s.up() >> j & 1 == 1, s.endp(j) == EndpSym::Up);
                assert_eq!(s.down() >> j & 1 == 1, s.endp(j) == EndpSym::Down);
            }
        }
    }

    #[test]
    fn blank_strings_helpers() {
        let b = NodeStrings::blank(5);
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        assert_eq!(b.present(), 0);
        assert_eq!(b.root(2), RootSym::Absent);
        assert_eq!(b.root(200), RootSym::Absent);
        assert!(!b.parent_bit(64));
    }

    #[test]
    fn setters_round_trip_and_truncate_clears_the_dropped_levels() {
        let mut s = NodeStrings::blank(MAX_LEVELS);
        for j in [0, 7, 63] {
            for sym in [RootSym::Root, RootSym::NonRoot, RootSym::Absent] {
                s.set_root(j, sym);
                assert_eq!(s.root(j), sym);
            }
            for sym in [
                EndpSym::Up,
                EndpSym::Down,
                EndpSym::NotEndpoint,
                EndpSym::Absent,
            ] {
                s.set_endp(j, sym);
                assert_eq!(s.endp(j), sym);
            }
            s.set_root(j, RootSym::Root);
            s.set_endp(j, EndpSym::Down);
            s.set_parent_bit(j, true);
            s.set_or_endp_bit(j, true);
        }
        s.truncate(8);
        let mut expected = NodeStrings::blank(8);
        for j in [0, 7] {
            expected.set_root(j, RootSym::Root);
            expected.set_endp(j, EndpSym::Down);
            expected.set_parent_bit(j, true);
            expected.set_or_endp_bit(j, true);
        }
        assert_eq!(s, expected, "equal strings are equal words");
    }

    /// The integer helper equals the float formula it replaced wherever that
    /// formula is exact; at `2ᵏ + 1` for `k ≥ 49` the `f64` logarithm rounds
    /// down to `k` and the helper returns the true `k + 1`.
    #[test]
    fn integer_ceil_log2_equals_the_float_formula() {
        let float = |x: u64| (x.max(2) as f64).log2().ceil() as u32;
        for x in 0..=(1u64 << 20) {
            assert_eq!(ceil_log2(x), float(x), "x = {x}");
        }
        for k in 1..=52 {
            for x in [(1u64 << k) - 1, 1 << k] {
                assert_eq!(ceil_log2(x), float(x), "x = {x}");
            }
            assert_eq!(ceil_log2((1 << k) + 1), k + 1);
            if k < 49 {
                assert_eq!(float((1 << k) + 1), k + 1);
            }
        }
        assert_eq!(ceil_log2(u64::MAX), 64);
    }

    /// One random mutation of one node's strings.
    fn mutate(s: &mut NodeStrings, rng: &mut StdRng) {
        if s.is_empty() {
            *s = NodeStrings::blank(rng.gen_range(0..4usize));
            return;
        }
        let j = rng.gen_range(0..s.len());
        match rng.gen_range(0..12u32) {
            0..=2 => s.set_root(
                j,
                [RootSym::Root, RootSym::NonRoot, RootSym::Absent][rng.gen_range(0..3usize)],
            ),
            3..=5 => s.set_endp(
                j,
                [
                    EndpSym::Up,
                    EndpSym::Down,
                    EndpSym::NotEndpoint,
                    EndpSym::Absent,
                ][rng.gen_range(0..4usize)],
            ),
            6..=7 => s.set_parent_bit(j, rng.gen_bool(0.5)),
            8..=9 => s.set_or_endp_bit(j, rng.gen_bool(0.5)),
            10 => s.truncate(j),
            _ => *s = NodeStrings::blank(s.len()),
        }
    }

    /// The mask expressions of [`check_strings`] against the per-level
    /// reference: same `is_ok()` at every node of marker-built strings under
    /// random mutations.
    #[test]
    fn packed_checks_agree_with_the_per_level_reference() {
        let (mut views, mut rejected) = (0u32, 0u32);
        for graph_seed in 0..40u64 {
            let n = 12 + (graph_seed as usize % 5) * 6;
            let (g, tree, marked) = build(n, 100 + graph_seed);
            let mut rng = StdRng::seed_from_u64(graph_seed);
            for _ in 0..200 {
                let mut strings = marked.clone();
                for _ in 0..rng.gen_range(0..4u32) {
                    mutate(&mut strings[rng.gen_range(0..n)], &mut rng);
                }
                let mut max_len = max_levels(ceil_log2(n as u64)) as usize;
                if rng.gen_range(0..16u32) == 0 {
                    max_len -= 1;
                }
                let unpacked: Vec<reference::Unpacked> = strings.iter().map(Into::into).collect();
                for v in g.nodes() {
                    let packed = check_strings(&view(&tree, &strings, v, max_len));
                    let per_level = reference::check_strings(&reference::View {
                        own: &unpacked[v.index()],
                        parent: tree.parent(v).map(|p| &unpacked[p.index()]),
                        children: (tree.children(v).iter())
                            .map(|c| &unpacked[c.index()])
                            .collect(),
                        is_tree_root: tree.root() == v,
                        max_len,
                    });
                    assert_eq!(
                        packed.is_ok(),
                        per_level.is_ok(),
                        "graph {graph_seed}, node {v}: packed {packed:?}, reference {per_level:?}, \
                         strings {:?}",
                        strings[v.index()]
                    );
                    views += 1;
                    rejected += u32::from(packed.is_err());
                }
            }
        }
        assert!(views >= 100_000, "only {views} views");
        assert!(rejected >= 1_000, "only {rejected} rejected views");
        assert!(
            views - rejected >= 1_000,
            "only {} accepted",
            views - rejected
        );
    }
}
