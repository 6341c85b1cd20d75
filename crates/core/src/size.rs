//! Example NumK (§2.6): every node knows the number of nodes `n`.
//!
//! The example has no scheme of its own: its fields (`n_claim`,
//! `subtree_count`) live in `CoreLabel`, and `CoreVerifier::structural_ok`
//! checks them in every round next to Example SP — all neighbours agree on
//! the claimed size, every node's subtree count is one plus the sum of its
//! children's counts, and the root's count equals the claimed size. The
//! tests below pin those checks at the first round.

mod tests {
    use crate::verifier::tests::{alarms_in_one_round, marked};

    #[test]
    fn marker_labels_are_accepted() {
        let (inst, labels) = marked(25, 60, 1);
        let n = inst.node_count() as u32;
        assert!(labels.iter().all(|l| l.n_claim == n));
        assert_eq!(labels[0].subtree_count, n, "the root counts every node");
        assert!(!alarms_in_one_round(&inst, labels));
    }

    #[test]
    fn wrong_size_claim_is_detected() {
        let (inst, mut labels) = marked(16, 40, 2);
        for l in &mut labels {
            l.n_claim += 1; // globally consistent lie
        }
        // the root's subtree count no longer matches the claim
        assert!(alarms_in_one_round(&inst, labels));
    }

    #[test]
    fn inconsistent_size_claims_detected() {
        let (inst, mut labels) = marked(16, 40, 3);
        labels[5].n_claim = 999;
        assert!(alarms_in_one_round(&inst, labels));
    }

    #[test]
    fn corrupt_subtree_count_detected() {
        let (inst, mut labels) = marked(16, 40, 4);
        labels[8].subtree_count += 2;
        assert!(alarms_in_one_round(&inst, labels));
    }
}
