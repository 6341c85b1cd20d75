//! Example EDIAM (§2.6): every node knows a bound on the diameter of its
//! part, once per partition (`Top` and `Bottom`).
//!
//! The example has no scheme of its own: the bound is each `PartLabel`'s
//! `diameter_bound`, and `CoreVerifier::structural_ok` checks it in every
//! round — a non-root of a part holds its tree parent's bound, the bound is
//! at least the node's depth in the part, and it is at most `6·log n + 6`.
//! The tests below pin those checks at the first round.

mod tests {
    use crate::labels::{max_diameter, CoreLabel, TOP};
    use crate::strings::ceil_log2;
    use crate::verifier::tests::{alarms_in_one_round, marked};
    use std::collections::BTreeMap;

    /// Every part's height: the depth of its deepest node, keyed by
    /// (partition, part root).
    fn heights(labels: &[CoreLabel]) -> BTreeMap<(usize, u32), u8> {
        let mut heights = BTreeMap::new();
        for l in labels {
            for (which, p) in l.parts.iter().enumerate() {
                let h = heights.entry((which, p.part_root_id)).or_insert(0);
                *h = p.depth_in_part.max(*h);
            }
        }
        heights
    }

    #[test]
    fn exact_bound_accepted() {
        let (inst, labels) = marked(20, 45, 1);
        // the marker writes each part's diameter: twice its height
        let heights = heights(&labels);
        for l in &labels {
            for (which, p) in l.parts.iter().enumerate() {
                assert_eq!(p.diameter_bound, 2 * heights[&(which, p.part_root_id)]);
            }
        }
        assert!(!alarms_in_one_round(&inst, labels));
    }

    #[test]
    fn slack_bound_accepted() {
        let (inst, mut labels) = marked(20, 45, 2);
        // the most slack the scheme allows: every part claims the cap
        let cap = u8::try_from(max_diameter(ceil_log2(inst.node_count() as u64))).unwrap();
        for l in &mut labels {
            for p in &mut l.parts {
                assert!(p.diameter_bound < cap);
                p.diameter_bound = cap;
            }
        }
        assert!(!alarms_in_one_round(&inst, labels));
    }

    #[test]
    fn too_small_bound_rejected() {
        let (inst, mut labels) = marked(40, 100, 3);
        let heights = heights(&labels);
        assert!(
            heights.values().any(|&h| h >= 1),
            "some part has height ≥ 1"
        );
        for l in &mut labels {
            for (which, p) in l.parts.iter_mut().enumerate() {
                // consistent inside the part, but below its deepest node
                p.diameter_bound = heights[&(which, p.part_root_id)].saturating_sub(1);
            }
        }
        assert!(alarms_in_one_round(&inst, labels));
    }

    #[test]
    fn inconsistent_bounds_rejected() {
        let (inst, mut labels) = marked(14, 30, 4);
        let v = labels
            .iter()
            .position(|l| l.parts[TOP].depth_in_part >= 1)
            .expect("some Top part is deeper than its root");
        labels[v].parts[TOP].diameter_bound += 1;
        assert!(alarms_in_one_round(&inst, labels));
    }
}
