//! Compressed sparse rows: many short lists in two flat arrays.
//!
//! The graph's incidence lists and the construction path (SYNC_MST's
//! fragments, the hierarchy's children and per-node chains, the tree's
//! adjacency, the partitions' parts) keep one list per node or per
//! fragment. A [`Csr`] holds them all in one `values`
//! array cut by one `offsets` array, so `k` lists cost two allocations
//! instead of `k`. It is built by one counting sort that keeps the order in
//! which the items arrive within each row.

/// `rows` lists stored back to back: row `r` is `values[offsets[r]..offsets[r + 1]]`.
///
/// # Examples
///
/// ```
/// use smst_graph::Csr;
///
/// let csr = Csr::from_pairs(3, [(2, 'a'), (0, 'b'), (2, 'c')]);
/// assert_eq!(csr.row(0), &['b']);
/// assert!(csr.row(1).is_empty());
/// assert_eq!(csr.row(2), &['a', 'c']);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Csr<T> {
    offsets: Vec<usize>,
    values: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Groups `(row, value)` pairs by row, keeping their order within each
    /// row: one pass counts, a second places. The iterator is walked twice.
    ///
    /// # Panics
    ///
    /// Panics if a row is not below `rows`.
    pub fn from_pairs<I>(rows: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        // offsets[r + 1] counts row r; the prefix sums make it row r's end
        let mut offsets = vec![0; rows + 1];
        let mut first = None;
        for (r, value) in pairs.clone() {
            offsets[r + 1] += 1;
            first.get_or_insert(value);
        }
        for r in 1..=rows {
            offsets[r] += offsets[r - 1];
        }
        let Some(first) = first else {
            return Csr {
                offsets,
                values: Vec::new(),
            };
        };
        // every slot is overwritten below; `first` only fills the allocation
        let mut values = vec![first; offsets[rows]];
        let mut next: Vec<usize> = offsets[..rows].to_vec();
        for (r, value) in pairs {
            values[next[r]] = value;
            next[r] += 1;
        }
        Csr { offsets, values }
    }
}

impl<T> Csr<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not below [`Self::rows`].
    pub fn row(&self, r: usize) -> &[T] {
        &self.values[self.offsets[r]..self.offsets[r + 1]]
    }

    /// The rows, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> + '_ {
        (0..self.rows()).map(|r| self.row(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smst_rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn rows_keep_arrival_order_and_match_a_vec_of_vecs() {
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = rng.gen_range(0usize..12);
            let pairs: Vec<(usize, u32)> = if rows == 0 {
                Vec::new()
            } else {
                (0..rng.gen_range(0usize..40))
                    .map(|_| (rng.gen_range(0..rows), rng.gen_range(0u32..1000)))
                    .collect()
            };
            let mut naive: Vec<Vec<u32>> = vec![Vec::new(); rows];
            for &(r, x) in &pairs {
                naive[r].push(x);
            }
            let csr = Csr::from_pairs(rows, pairs.iter().copied());
            assert_eq!(csr.rows(), rows);
            assert_eq!(csr.iter().collect::<Vec<_>>(), naive, "seed {seed}");
        }
        assert_eq!(Csr::<u8>::default().rows(), 0);
    }
}
