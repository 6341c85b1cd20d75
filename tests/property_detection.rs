//! Property tests: corrupted proofs on spanning non-MST trees are always
//! detected within the paper's round budget — on the sequential runner AND
//! on the sharded parallel engine, with identical detection times (the
//! engine's determinism contract).

use proptest::prelude::*;
use smst_core::scheme::{rounds_until_rejection, MstVerificationScheme};
use smst_core::CoreLabel;
use smst_engine::{EngineConfig, StopCondition};
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::{EdgeId, NodeId, RootedTree};
use smst_labeling::Instance;

/// Builds a random spanning **non**-MST tree of a random connected graph by
/// swapping one tree edge for a non-tree edge, together with the stale
/// marker labels of the *correct* MST. Returns `None` when the sampled
/// graph admits no such swap (e.g. the graph is itself a tree).
fn non_mst_with_stale_labels(
    n: usize,
    seed: u64,
    swap_choice: usize,
) -> Option<(Instance, Vec<CoreLabel>)> {
    let g = random_connected_graph(n, 3 * n, seed);
    let mst = kruskal(&g);
    let tree = mst.rooted_at(&g, NodeId(0)).ok()?;
    let correct = Instance::from_tree(g.clone(), &tree);
    let (labels, _) = MstVerificationScheme::new().mark(&correct).ok()?;

    let non_tree: Vec<EdgeId> = g
        .edge_entries()
        .map(|(e, _)| e)
        .filter(|e| !mst.contains(*e))
        .collect();
    if non_tree.is_empty() {
        return None;
    }
    // try swaps starting from a sampled position until one yields a
    // spanning non-MST tree
    for k in 0..non_tree.len() * mst.edges().len() {
        let idx = (swap_choice + k) % (non_tree.len() * mst.edges().len());
        let extra = non_tree[idx % non_tree.len()];
        let drop_pos = idx / non_tree.len();
        let mut edges = mst.edges().to_vec();
        edges[drop_pos] = extra;
        if let Ok(t) = RootedTree::from_edges(&g, &edges, NodeId(0)) {
            let candidate = Instance::from_tree(g.clone(), &t);
            if !candidate.satisfies_mst() {
                return Some((candidate, labels));
            }
        }
    }
    None
}

/// The paper's (generous, polylogarithmic) detection budget used by the
/// experiment drivers.
fn budget(n: usize) -> usize {
    8 * MstVerificationScheme::sync_budget(n)
}

/// Rounds until the first alarm of the verifier over `instance` with
/// `labels`, on the execution path `engine` describes.
fn rounds_until_rejection_on(
    instance: &Instance,
    labels: Vec<CoreLabel>,
    max_rounds: usize,
    engine: &EngineConfig,
) -> Option<usize> {
    let verifier = MstVerificationScheme::new().verifier(instance, labels);
    let mut runner = engine
        .instantiate(&verifier, instance.graph.clone())
        .expect("a plain sync envelope is valid");
    runner.run_until(StopCondition::FirstAlarm, max_rounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn corrupted_label_on_non_mst_tree_is_detected_by_both_runners(
        n in 10usize..15,
        seed in 0u64..500,
        swap_choice in 0usize..64,
        victim in 0usize..64,
        delta in 1u64..9,
    ) {
        let Some((bad, mut labels)) = non_mst_with_stale_labels(n, seed, swap_choice)
        else {
            return Ok(());
        };
        // corrupt one label: bump the SP distance of a random node (a
        // structurally checkable field, so detection is near-immediate and
        // the property exercises the fast path of the verifier)
        let victim = victim % n;
        labels[victim].sp.dist = labels[victim].sp.dist.wrapping_add(delta as u32);

        let budget = budget(n);
        let seq = rounds_until_rejection(&bad, labels.clone(), budget);
        prop_assert!(
            seq.is_some(),
            "sequential runner missed a corrupted label on a non-MST tree"
        );
        prop_assert!(seq.unwrap() <= budget);

        let par = rounds_until_rejection_on(&bad, labels, budget, &EngineConfig::new().threads(4));
        prop_assert_eq!(par, seq, "sharded detection time diverged from sequential");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn stale_labels_on_non_mst_tree_are_detected_by_both_runners(
        n in 8usize..13,
        seed in 0u64..300,
        swap_choice in 0usize..32,
    ) {
        // no label corruption at all: the *tree* is wrong, the labels are
        // the stale (internally consistent) proof of the correct MST, so
        // detection must come from the minimality / comparison machinery
        let Some((bad, labels)) = non_mst_with_stale_labels(n, seed, swap_choice)
        else {
            return Ok(());
        };
        let budget = budget(n);
        let seq = rounds_until_rejection(&bad, labels.clone(), budget);
        prop_assert!(
            seq.is_some(),
            "sequential runner missed a spanning non-MST tree within the bound"
        );

        let par = rounds_until_rejection_on(&bad, labels, budget, &EngineConfig::new().threads(3));
        prop_assert_eq!(par, seq, "sharded detection time diverged from sequential");
    }
}
