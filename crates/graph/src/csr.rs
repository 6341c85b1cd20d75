//! Compressed sparse rows: many short lists in two flat arrays.
//!
//! The graph's incidence lists and the construction path (SYNC_MST's
//! fragments, the hierarchy's children and per-node chains, the tree's
//! adjacency, the partitions' parts) keep one list per node or per
//! fragment. A [`Csr`] holds them all in one `values`
//! array cut by one `offsets` array, so `k` lists cost two allocations
//! instead of `k`. It is built by one counting sort that keeps the order in
//! which the items arrive within each row, or row by row when the rows
//! arrive in order; [`Csr::refill`] regroups into a used table's
//! allocations.

/// The empty entry of a 32-bit index table: no parent, no part, no edge.
pub const NONE: u32 = u32::MAX;

/// `x` as an entry of a 32-bit index table, the width the construction
/// path's [`Csr`] rows and per-node tables hold nodes, fragments, parts and
/// edges in.
///
/// # Panics
///
/// Panics if `x` does not fit below [`NONE`]: the tables index fewer than
/// 2³² − 1 items.
pub fn narrow(x: usize) -> u32 {
    u32::try_from(x)
        .ok()
        .filter(|&x| x != NONE)
        .expect("a 32-bit table indexes fewer than 2³² − 1 items")
}

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
#[derive(Debug, Clone)]
pub struct Csr<T> {
    offsets: Vec<usize>,
    values: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            offsets: Vec::new(),
            values: Vec::new(),
        }
    }
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
        let mut csr = Csr::default();
        csr.refill(rows, pairs);
        csr
    }

    /// [`Self::from_pairs`] into this table's allocations: a caller that
    /// regroups many small lists one after another allocates once.
    ///
    /// # Panics
    ///
    /// Panics if a row is not below `rows`.
    pub fn refill<I>(&mut self, rows: usize, pairs: I)
    where
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        // offsets[r + 2] counts row r; the prefix sums make offsets[r + 1]
        // row r's start, and placing an item advances it to the row's end
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(rows + 2, 0);
        let mut first = None;
        for (r, value) in pairs.clone() {
            assert!(r < rows, "row {r} of a {rows}-row table");
            offsets[r + 2] += 1;
            first.get_or_insert(value);
        }
        for r in 2..rows + 2 {
            offsets[r] += offsets[r - 1];
        }
        self.values.clear();
        if let Some(first) = first {
            // every slot is overwritten below; `first` only fills it
            self.values.resize(offsets[rows + 1], first);
            for (r, value) in pairs {
                self.values[offsets[r + 1]] = value;
                offsets[r + 1] += 1;
            }
        }
        offsets.truncate(rows + 1);
    }
}

impl<T> Csr<T> {
    /// A table of no rows with room for `rows` rows of `values` values in
    /// all, filled by [`Self::push_row`].
    pub fn with_capacity(rows: usize, values: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr {
            offsets,
            values: Vec::with_capacity(values),
        }
    }

    /// Appends a row.
    pub fn push_row<I: IntoIterator<Item = T>>(&mut self, row: I) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.values.extend(row);
        self.offsets.push(self.values.len());
    }

    /// Releases the room [`Self::push_row`] grew beyond what the rows hold.
    pub fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.values.shrink_to_fit();
    }

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
        &self.values[self.span(r)]
    }

    /// Row `r`, to be rewritten in place.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not below [`Self::rows`].
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        let span = self.span(r);
        &mut self.values[span]
    }

    /// Where row `r` lies in [`Self::values`], so that a table aligned with
    /// the rows can be cut the same way.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not below [`Self::rows`].
    pub fn span(&self, r: usize) -> std::ops::Range<usize> {
        self.offsets[r]..self.offsets[r + 1]
    }

    /// Every row's values, back to back.
    pub fn values(&self) -> &[T] {
        &self.values
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
            // the same rows refilled into a used table, and pushed one by one
            let mut reused = Csr::from_pairs(3, [(2, 7), (0, 9)]);
            reused.refill(rows, pairs.iter().copied());
            assert_eq!(reused.iter().collect::<Vec<_>>(), naive, "seed {seed}");
            let mut pushed = Csr::with_capacity(rows, pairs.len());
            for row in &naive {
                pushed.push_row(row.iter().copied());
            }
            assert_eq!(pushed.iter().collect::<Vec<_>>(), naive, "seed {seed}");
            assert_eq!(pushed.values(), csr.values());
            for r in 0..rows {
                assert_eq!(&csr.values()[csr.span(r)], csr.row(r));
            }
        }
        assert_eq!(Csr::<u8>::default().rows(), 0);
        let mut pushed = Csr::default();
        pushed.push_row([1u8, 2]);
        pushed.row_mut(0).reverse();
        assert_eq!(pushed.row(0), &[2, 1]);
    }
}
