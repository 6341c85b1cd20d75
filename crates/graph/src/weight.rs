//! Edge weights and the unique-weight perturbation of §2.1.
//!
//! The paper assumes distinct edge weights so that the MST is unique. When the
//! input graph does not have distinct weights, §2.1 (footnote 1, following
//! Kor, Korman, Peleg) replaces each weight `ω(e)` by the composite
//!
//! ```text
//! ω′(e) = ⟨ ω(e), 1 − Y(e), ID_min(e), ID_max(e) ⟩
//! ```
//!
//! compared lexicographically, where `Y(e)` indicates whether `e` belongs to
//! the *candidate* tree `T` that is being verified. Under ω′ all weights are
//! distinct, and the given `T` is an MST of `G` under ω if and only if it is an
//! MST under ω′ — which is exactly the property a *verification* scheme needs
//! (the standard ID-only tie-break does not preserve it).

use std::cmp::Ordering;
use std::fmt;

/// A raw (possibly non-distinct) edge weight.
///
/// The paper assumes weights polynomial in `n`; `u64` is more than enough.
pub type Weight = u64;

/// A composite weight implementing the lexicographic perturbation ω′ of §2.1.
///
/// Ordering is lexicographic over `(weight, non_tree, id_min, id_max)`:
/// smaller raw weight first, then tree edges (`non_tree = false`) before non-tree
/// edges of equal raw weight, then endpoint identifiers as a final tie-break.
///
/// # Examples
///
/// ```
/// use smst_graph::weight::CompositeWeight;
///
/// // Two edges of equal raw weight: the one inside the candidate tree wins.
/// let in_tree = CompositeWeight::new(10, true, 3, 7);
/// let out_tree = CompositeWeight::new(10, false, 1, 2);
/// assert!(in_tree < out_tree);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompositeWeight {
    /// The original weight ω(e).
    pub weight: Weight,
    /// `1 − Y(e)`: `false` if the edge belongs to the candidate tree, `true`
    /// otherwise (a `bool`, so that `Option<CompositeWeight>` needs no tag).
    pub non_tree: bool,
    /// The smaller endpoint identifier.
    pub id_min: u64,
    /// The larger endpoint identifier.
    pub id_max: u64,
}

impl CompositeWeight {
    /// Builds the composite weight for an edge.
    ///
    /// `in_candidate_tree` is the indicator `Y(e)` of §2.1: whether the edge
    /// belongs to the candidate tree `T` being verified. The two endpoint
    /// identifiers may be passed in either order.
    pub fn new(weight: Weight, in_candidate_tree: bool, id_a: u64, id_b: u64) -> Self {
        CompositeWeight {
            weight,
            non_tree: !in_candidate_tree,
            id_min: id_a.min(id_b),
            id_max: id_a.max(id_b),
        }
    }

    /// Returns `true` if this weight marks an edge of the candidate tree.
    pub fn in_candidate_tree(&self) -> bool {
        !self.non_tree
    }
}

impl PartialOrd for CompositeWeight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CompositeWeight {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.weight, self.non_tree, self.id_min, self.id_max).cmp(&(
            other.weight,
            other.non_tree,
            other.id_min,
            other.id_max,
        ))
    }
}

impl fmt::Display for CompositeWeight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{}, {}, {}, {}⟩",
            self.weight,
            u8::from(self.non_tree),
            self.id_min,
            self.id_max
        )
    }
}

/// Number of bits needed to store a value in `0..=max_value`.
///
/// Used throughout the workspace for the O(log n) memory-size accounting.
///
/// # Examples
///
/// ```
/// use smst_graph::weight::bits_for;
/// assert_eq!(bits_for(0), 1);
/// assert_eq!(bits_for(1), 1);
/// assert_eq!(bits_for(255), 8);
/// assert_eq!(bits_for(256), 9);
/// ```
pub fn bits_for(max_value: u64) -> u32 {
    if max_value <= 1 {
        1
    } else {
        64 - max_value.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tree_edges_break_ties_first() {
        let a = CompositeWeight::new(5, true, 10, 20);
        let b = CompositeWeight::new(5, false, 1, 2);
        assert!(a < b);
    }

    #[test]
    fn raw_weight_dominates() {
        let a = CompositeWeight::new(4, false, 100, 200);
        let b = CompositeWeight::new(5, true, 1, 2);
        assert!(a < b);
    }

    #[test]
    fn id_tie_break_is_total() {
        let a = CompositeWeight::new(5, false, 1, 9);
        let b = CompositeWeight::new(5, false, 2, 3);
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn display_mentions_all_fields() {
        let w = CompositeWeight::new(7, true, 3, 5);
        let s = w.to_string();
        assert!(s.contains('7') && s.contains('3') && s.contains('5'));
    }

    #[test]
    fn bits_for_small_values() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(1023), 10);
        assert_eq!(bits_for(1024), 11);
    }

    proptest! {
        #[test]
        fn ordering_is_antisymmetric(w1 in 0u64..100, w2 in 0u64..100,
                                      t1 in proptest::bool::ANY, t2 in proptest::bool::ANY,
                                      a1 in 0u64..50, b1 in 0u64..50,
                                      a2 in 0u64..50, b2 in 0u64..50) {
            let x = CompositeWeight::new(w1, t1, a1, b1);
            let y = CompositeWeight::new(w2, t2, a2, b2);
            if x < y { prop_assert!(y >= x); }
            if x == y { prop_assert_eq!(x.cmp(&y), Ordering::Equal); }
        }

        #[test]
        fn distinct_endpoint_pairs_give_distinct_weights(
            w in 0u64..10, a in 0u64..1000, b in 0u64..1000, c in 0u64..1000, d in 0u64..1000
        ) {
            prop_assume!((a.min(b), a.max(b)) != (c.min(d), c.max(d)));
            let x = CompositeWeight::new(w, false, a, b);
            let y = CompositeWeight::new(w, false, c, d);
            prop_assert_ne!(x, y);
        }

        #[test]
        fn bits_for_is_monotone(v in 0u64..1_000_000) {
            prop_assert!(bits_for(v) <= bits_for(v + 1));
            prop_assert!(u64::from(bits_for(v)) <= 64);
        }
    }
}
