//! Golden register digests: the verifier's registers, folded field by field,
//! must not move when the register *layout* changes.
//!
//! The constants below were recorded on the `Vec`-based layout (four string
//! vectors, `PartLabel::stored: Vec<_>`, one commit before the word-packed
//! layout replaced it), and recorded again once when §6.2's pieces moved
//! from a two-per-node placement in each part on its own to one placement
//! across both partitions (which node stores which piece changed; every
//! fault that alarmed still alarms). They were folded anew, with the same
//! verdicts, when the train register stopped storing what it can recompute:
//! the ack folds as the slot it acknowledges (always the node's own `want`),
//! the cycle counters fold clamped at the thresholds they are tested
//! against, and the order key of the last completed piece is gone (the root
//! reads it from its `down` buffer); the previous register, folded this way,
//! gives the same constants. One digest moved on purpose since: once the
//! trains' buffers became functions of their sources (`up` no longer falls
//! back to its own past, `down` is re-read whenever its source carries the
//! wanted slot), the `StoredPieceWeight` row's corrupted piece reaches the
//! `down` buffers of its part instead of staying masked by the copies the
//! buffers kept of the old piece. The same node alarms; the digest moved
//! from `0x1fbb_57f8_90b5_aa02`. The fold reads every logical field of every
//! register through the accessors at the bottom of this file — never `Debug`
//! output, never `size_of` — so it is a function of the register's
//! *contents* only, and a layout change that keeps the verifier's behaviour
//! keeps every constant.
//! Each scenario runs on the sequential reference and on the sharded engine
//! at one and two threads; all three must produce the same constants.

use smst_core::compare::CompareState;
use smst_core::faults::{corrupt, FaultKind};
use smst_core::labels::{CoreLabel, PartLabel, PieceCell, Widths};
use smst_core::strings::{EndpSym, NodeStrings, RootSym};
use smst_core::train::TrainState;
use smst_core::verifier::CoreState;
use smst_core::{CoreVerifier, Marker};
use smst_engine::{EngineConfig, StopCondition};
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::NodeId;
use smst_labeling::{Instance, SpLabel};
use smst_rng::{Rng, SeedableRng, StdRng};
use smst_sim::Verdict;

const N: usize = 300;
const ROUNDS: usize = 64;

/// `(scenario, register digest, alarming nodes)` after the scenario's last
/// round. `None` is the fault-free run.
const GOLDEN: [(Option<FaultKind>, u64, &[usize]); 7] = [
    (None, 0xe67e_1ba2_aca4_7730, &[]),
    (
        Some(FaultKind::RootsString),
        0xa226_86fe_1f3f_1dd7,
        &[9, 13, 295],
    ),
    (
        Some(FaultKind::EndpString),
        0x4858_a0e8_b5ca_6726,
        &[153, 206, 249],
    ),
    (
        Some(FaultKind::SpDistance),
        0xf7a1_d67d_7a70_0472,
        &[3, 22, 39, 48, 85, 167, 220],
    ),
    (
        Some(FaultKind::StoredPieceWeight),
        0x00e9_8e6b_6325_e1c1,
        &[288],
    ),
    (
        Some(FaultKind::PartRoot),
        0x2400_17b4_5ef3_925a,
        &[60, 77, 169],
    ),
    (Some(FaultKind::TrainBuffers), 0xbe2d_0c0b_582c_e402, &[]),
];

fn verifier() -> CoreVerifier {
    let g = random_connected_graph(N, 3 * N, 16);
    let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
    let inst = Instance::from_tree(g, &tree);
    let (labels, _) = Marker.label(&inst).unwrap();
    CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels)
}

/// Runs one scenario: `ROUNDS` fault-free rounds, then (for a fault kind)
/// the corruption of three seeded nodes and `ROUNDS` more rounds.
fn run(
    verifier: &CoreVerifier,
    config: &EngineConfig,
    kind: Option<FaultKind>,
) -> (u64, Vec<usize>) {
    let mut runner = config
        .instantiate(verifier, verifier.graph().clone())
        .expect("a valid config");
    runner.run_until(StopCondition::Steps, ROUNDS);
    if let Some(kind) = kind {
        let mut rng = StdRng::seed_from_u64(0x601d ^ kind as u64);
        for i in 0..3u64 {
            let v = NodeId(rng.gen_range(0..N));
            corrupt(runner.state_mut(v), kind, 1000 * (kind as u64 + 1) + i);
        }
        runner.run_until(StopCondition::Steps, ROUNDS);
    }
    let mut fold = Fold::new();
    for state in &runner.states_snapshot() {
        fold_state(&mut fold, state);
    }
    let alarming = runner.alarming_nodes().iter().map(|v| v.index()).collect();
    (fold.0, alarming)
}

#[test]
fn register_digests_match_the_recorded_layout_on_every_backend() {
    let verifier = verifier();
    let configs = [
        ("reference", EngineConfig::reference()),
        ("sharded-1", EngineConfig::new().threads(1)),
        ("sharded-2", EngineConfig::new().threads(2)),
    ];
    for (kind, digest, alarming) in GOLDEN {
        for (name, config) in &configs {
            let (got_digest, got_alarming) = run(&verifier, config, kind);
            assert_eq!(
                (got_digest, got_alarming.as_slice()),
                (digest, alarming),
                "{kind:?} on {name}: got ({got_digest:#018x}, {got_alarming:?})"
            );
        }
    }
}

/// The FNV-1a digest of every `(name, width)` pair that `CoreState::walk`
/// hands its sink, over the fault-free scenario's registers under
/// `Widths::of`. `state_bits` only sums the widths and the digests above
/// fold contents through accessors, so this is what pins the *order* of the
/// charged layout.
const LAYOUT: u64 = 0x9eba_c005_ff8e_e682;

#[test]
fn charged_layout_walks_in_the_recorded_order() {
    let verifier = verifier();
    let mut runner = EngineConfig::reference()
        .instantiate(&verifier, verifier.graph().clone())
        .expect("a valid config");
    runner.run_until(StopCondition::Steps, ROUNDS);
    let widths = Widths::of(verifier.graph());
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for state in &runner.states_snapshot() {
        state.walk(&widths, &mut |name, _, width| {
            fold(name.as_bytes());
            fold(&[0]);
            fold(&width.to_le_bytes());
        });
    }
    assert_eq!(digest, LAYOUT, "got {digest:#018x}");
}

// ----- the fold -------------------------------------------------------------

/// A 64-bit multiply–xorshift fold (order-sensitive).
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0x9e37_79b9_7f4a_7c15)
    }

    fn u(&mut self, x: u64) {
        let mut z = (self.0 ^ x).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 29;
        z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 32);
    }

    fn opt(&mut self, x: Option<u64>) {
        match x {
            None => self.u(0),
            Some(x) => {
                self.u(1);
                self.u(x);
            }
        }
    }
}

fn fold_piece(f: &mut Fold, p: &PieceCell) {
    f.u(p.root_id());
    f.u(u64::from(p.level()));
    match p.min_out() {
        None => f.u(0),
        Some(w) => {
            f.u(1);
            f.u(w.weight);
            f.u(u64::from(!w.in_candidate_tree()));
            f.u(w.id_min);
            f.u(w.id_max);
        }
    }
}

fn fold_opt_piece(f: &mut Fold, slot_piece_member: Option<(u8, PieceCell, bool)>) {
    match slot_piece_member {
        None => f.u(0),
        Some((slot, piece, member)) => {
            f.u(1);
            f.u(u64::from(slot));
            fold_piece(f, &piece);
            f.u(u64::from(member));
        }
    }
}

fn fold_strings(f: &mut Fold, s: &NodeStrings) {
    f.u(s.len() as u64);
    for j in 0..s.len() {
        f.u(match root(s, j) {
            RootSym::Root => 1,
            RootSym::NonRoot => 0,
            RootSym::Absent => 2,
        });
        f.u(match endp(s, j) {
            EndpSym::Up => 0,
            EndpSym::Down => 1,
            EndpSym::NotEndpoint => 2,
            EndpSym::Absent => 3,
        });
        f.u(u64::from(parent_bit(s, j)));
        f.u(u64::from(or_endp_bit(s, j)));
    }
}

fn fold_part(f: &mut Fold, p: &PartLabel) {
    f.u(part_root_id(p));
    f.u(depth_in_part(p));
    f.u(diameter_bound(p));
    f.u(u64::from(p.piece_count));
    let stored = stored(p);
    f.u(stored.len() as u64);
    for (slot, piece) in stored {
        f.u(u64::from(slot));
        fold_piece(f, &piece);
    }
}

fn fold_train(f: &mut Fold, t: &TrainState) {
    f.u(u64::from(t.want));
    fold_opt_piece(f, up(t));
    fold_opt_piece(f, down(t));
    f.opt(done(t).map(u64::from));
    f.u(u64::from(t.delay));
    f.u(u64::from(t.wraps.min(2)));
}

fn fold_state(f: &mut Fold, s: &CoreState) {
    let l = &s.label;
    let sp = sp(l);
    f.u(sp.root_id);
    f.u(sp.dist);
    f.u(sp.own_id);
    f.opt(sp.parent_id);
    f.u(n_claim(l));
    f.u(subtree_count(l));
    fold_strings(f, &l.strings);
    f.u(u64::from(l.top_min_level));
    for part in &l.parts {
        fold_part(f, part);
    }
    for t in &s.trains {
        fold_train(f, t);
    }
    let c = &s.compare;
    f.u(u64::from(c.level_idx));
    match ask(c) {
        None => f.u(0),
        Some(p) => {
            f.u(1);
            fold_piece(f, &p);
        }
    }
    f.u(u64::from(c.neighbor_ptr));
    match want_cmp(c) {
        None => f.u(0),
        Some((id, level)) => {
            f.u(1);
            f.u(id);
            f.u(u64::from(level));
        }
    }
    for t in 0..2 {
        f.u(u64::from(c.watched_prev[t]));
        f.u(u64::from(c.watched_wraps[t].min(3)));
    }
    f.u(s.seen_levels);
    f.u(match s.verdict {
        Verdict::Accept => 0,
        Verdict::Reject => 1,
        Verdict::Working => 2,
    });
}

// ----- layout-specific accessors (the only part a layout change edits) ------

fn sp(l: &CoreLabel) -> SpLabel {
    l.sp.label()
}

fn n_claim(l: &CoreLabel) -> u64 {
    u64::from(l.n_claim)
}

fn subtree_count(l: &CoreLabel) -> u64 {
    u64::from(l.subtree_count)
}

fn root(s: &NodeStrings, j: usize) -> RootSym {
    s.root(j)
}

fn endp(s: &NodeStrings, j: usize) -> EndpSym {
    s.endp(j)
}

fn parent_bit(s: &NodeStrings, j: usize) -> bool {
    s.parent_bit(j)
}

fn or_endp_bit(s: &NodeStrings, j: usize) -> bool {
    s.or_endp_bit(j)
}

fn part_root_id(p: &PartLabel) -> u64 {
    u64::from(p.part_root_id)
}

fn depth_in_part(p: &PartLabel) -> u64 {
    u64::from(p.depth_in_part)
}

fn diameter_bound(p: &PartLabel) -> u64 {
    u64::from(p.diameter_bound)
}

fn stored(p: &PartLabel) -> Vec<(u8, PieceCell)> {
    p.stored_pieces().map(|s| (s.slot(), *s)).collect()
}

fn up(t: &TrainState) -> Option<(u8, PieceCell, bool)> {
    t.up.map(|u| (u.slot(), u, u.member()))
}

fn down(t: &TrainState) -> Option<(u8, PieceCell, bool)> {
    t.down.map(|d| (d.slot(), d, d.member()))
}

fn done(t: &TrainState) -> Option<u8> {
    t.done.then_some(t.want)
}

fn ask(c: &CompareState) -> Option<PieceCell> {
    c.ask
}

fn want_cmp(c: &CompareState) -> Option<(u64, u32)> {
    c.want_cmp
        .map(|(id, level)| (u64::from(id), u32::from(level)))
}
