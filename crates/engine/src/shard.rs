//! Shards: contiguous node ranges with balanced round work.
//!
//! A synchronous round — every update computed off the previous round's
//! registers, then applied — is an embarrassingly parallel map, so the only scheduling question is how to split the node
//! range. Splitting by *node count* is wrong on skewed-degree graphs (one
//! shard inherits the hubs); [`partition_balanced`] instead splits by the
//! CSR **work prefix** (adjacency entries + nodes), so every shard performs
//! roughly the same number of register reads and writes per round.

use crate::topology::CsrTopology;

/// A contiguous range `[start, end)` of dense node indices owned by one
/// worker thread for the duration of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First node of the shard.
    pub start: usize,
    /// One past the last node of the shard.
    pub end: usize,
}

impl Shard {
    /// Number of nodes in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the shard owns no nodes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The dense node indices of the shard.
    pub fn nodes(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Splits `0..n` into at most `count` non-empty shards whose per-round work
/// (register reads + writes, as measured by [`CsrTopology::work`]) is as
/// even as contiguity allows.
///
/// Returns fewer than `count` shards when the graph is too small to fill
/// them: at least one shard when the graph is non-empty, and **no shards at
/// all on the empty graph** (every returned shard is non-empty, an
/// invariant the runners' dispatch paths rely on).
pub fn partition_balanced(topo: &CsrTopology, count: usize) -> Vec<Shard> {
    let n = topo.node_count();
    let count = count.max(1);
    if n == 0 {
        return Vec::new();
    }
    let total = topo.total_work();
    let mut shards = Vec::with_capacity(count);
    let mut start = 0usize;
    for k in 0..count {
        if start >= n {
            break;
        }
        // ideal cumulative work at the end of shard k, in u128 so the
        // multiply cannot overflow on huge-work graphs (the quotient is
        // at most `total`, so the cast back is lossless)
        let target = (total as u128 * (k as u128 + 1) / count as u128) as usize;
        let mut end = if k + 1 == count { n } else { start + 1 };
        while end < n && topo.work_prefix(end) < target {
            end += 1;
        }
        shards.push(Shard { start, end });
        start = end;
    }
    if let Some(last) = shards.last_mut() {
        last.end = n;
    }
    shards
}

/// The plan of a chunk of synchronous rounds over a shard partition: which
/// slots each part computes and applies, which halo copies it must keep
/// current after every round, and through which CSR it reads.
///
/// **Halo plans** ([`HaloPlan::build`]) run rounds on shard-local arenas of
/// `interior registers + halo copies`. The arena is one flat buffer, the
/// per-shard regions concatenated: region `s` is
/// [`region(s)`](HaloPlan::region), its first `shards[s].len()` slots
/// holding the shard's interior registers (in node order) and the remaining
/// slots holding copies of the shard's halo — the external neighbours,
/// ascending. A per-shard CSR in **region coordinates**
/// ([`local_csr`](HaloPlan::local_csr)) lets a shard read nothing but its
/// own region; every round each shard refreshes its halo slots by
/// *pulling* the updates the owning shards computed for the mirrored
/// interiors and applying them ([`HaloPlan::exchange`]), which is the
/// engine's only cross-shard traffic. A remote worker holds exactly one region of the same plan.
///
/// The **direct plan** ([`HaloPlan::direct`]) is the same thing with zero
/// halo slots: the arena *is* the register vector, region `s` is shard `s`,
/// nothing is exchanged, and parts read the whole buffer through the global
/// CSR (there is no local one).
#[derive(Debug, Clone)]
pub struct HaloPlan {
    shards: Vec<Shard>,
    /// `arena_offsets[s]..arena_offsets[s + 1]` is shard `s`'s region.
    arena_offsets: Vec<usize>,
    /// Per shard: the interior write range, in arena coordinates.
    regions: Vec<(usize, usize)>,
    /// Per shard: the external (internal-order) node indices it reads,
    /// ascending — halo slot `h` of shard `s` mirrors node `halos[s][h]`.
    halos: Vec<Vec<u32>>,
    /// Per shard: the CSR over the interior in region coordinates, port
    /// order (empty for the direct plan).
    local_csr: Vec<CsrTopology>,
    /// Per shard: `(src, dst)` arena-coordinate pairs that refresh the
    /// shard's halo slots from the owners' interiors (the pull exchange:
    /// `dst` takes the update computed for `src`).
    exchange: Vec<Vec<(u32, u32)>>,
}

impl HaloPlan {
    /// The plan with zero halo slots over `shards` (a contiguous cover of
    /// the node range): regions are the shards themselves, no exchange, no
    /// local CSRs.
    pub fn direct(shards: &[Shard]) -> Self {
        let mut arena_offsets: Vec<usize> = shards.iter().map(|s| s.start).collect();
        arena_offsets.push(shards.last().map_or(0, |s| s.end));
        HaloPlan {
            shards: shards.to_vec(),
            arena_offsets,
            regions: shards.iter().map(|s| (s.start, s.end)).collect(),
            halos: vec![Vec::new(); shards.len()],
            local_csr: Vec::new(),
            exchange: vec![Vec::new(); shards.len()],
        }
    }

    /// Builds the halo plan of a partition over `topo`.
    ///
    /// # Panics
    ///
    /// Panics if the shards are not a contiguous cover of the topology's
    /// node range, or if the arena would exceed `u32::MAX` slots (arena
    /// coordinates are packed into 32 bits like the CSR's).
    pub fn build(topo: &CsrTopology, shards: &[Shard]) -> Self {
        let n = topo.node_count();
        assert_eq!(
            shards.first().map_or(0, |s| s.start),
            0,
            "shards must start at node 0"
        );
        assert_eq!(
            shards.last().map_or(0, |s| s.end),
            n,
            "shards must cover the node range"
        );
        assert!(
            shards.windows(2).all(|w| w[0].end == w[1].start),
            "shards must be contiguous"
        );
        // owner[v]: which shard's interior holds node v
        let mut owner = vec![0u32; n];
        for (s, sh) in shards.iter().enumerate() {
            for v in sh.nodes() {
                owner[v] = s as u32;
            }
        }
        let mut halos: Vec<Vec<u32>> = Vec::with_capacity(shards.len());
        for sh in shards {
            let mut ext: Vec<u32> = sh
                .nodes()
                .flat_map(|v| topo.neighbors_of(v).iter().copied())
                .filter(|&u| (u as usize) < sh.start || (u as usize) >= sh.end)
                .collect();
            ext.sort_unstable();
            ext.dedup();
            halos.push(ext);
        }
        let mut arena_offsets = Vec::with_capacity(shards.len() + 1);
        arena_offsets.push(0usize);
        for (sh, halo) in shards.iter().zip(&halos) {
            arena_offsets.push(arena_offsets.last().unwrap() + sh.len() + halo.len());
        }
        assert!(
            u32::try_from(*arena_offsets.last().unwrap()).is_ok(),
            "halo arena exceeds 2^32 - 1 slots"
        );
        let mut local_csr = Vec::with_capacity(shards.len());
        let mut exchange = Vec::with_capacity(shards.len());
        for (s, sh) in shards.iter().enumerate() {
            let halo_base = arena_offsets[s] + sh.len();
            let mut offsets = Vec::with_capacity(sh.len() + 1);
            let mut neighbors = Vec::new();
            offsets.push(0usize);
            for v in sh.nodes() {
                neighbors.extend(topo.neighbors_of(v).iter().map(|&u| {
                    let ui = u as usize;
                    if ui >= sh.start && ui < sh.end {
                        (ui - sh.start) as u32
                    } else {
                        let slot = halos[s].binary_search(&u).expect("halo holds u");
                        (sh.len() + slot) as u32
                    }
                }));
                offsets.push(neighbors.len());
            }
            local_csr.push(CsrTopology::from_raw(offsets, neighbors));
            exchange.push(
                halos[s]
                    .iter()
                    .enumerate()
                    .map(|(h, &u)| {
                        let o = owner[u as usize] as usize;
                        let src = arena_offsets[o] + (u as usize - shards[o].start);
                        (src as u32, (halo_base + h) as u32)
                    })
                    .collect(),
            );
        }
        HaloPlan {
            shards: shards.to_vec(),
            regions: shards
                .iter()
                .zip(&arena_offsets)
                .map(|(sh, &base)| (base, base + sh.len()))
                .collect(),
            arena_offsets,
            halos,
            local_csr,
            exchange,
        }
    }

    /// Number of shards (== worker parts).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, ascending: shard `s` is the interior of region `s`.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Total arena slots (interiors + halo copies).
    pub fn arena_len(&self) -> usize {
        *self.arena_offsets.last().unwrap_or(&0)
    }

    /// Shard `s`'s region of the arena: interior slots, then halo slots.
    pub fn region(&self, s: usize) -> std::ops::Range<usize> {
        self.arena_offsets[s]..self.arena_offsets[s + 1]
    }

    /// Number of halo slots of shard `s` — how many external registers the
    /// shard reads (and must re-pull every round).
    pub fn halo_size(&self, s: usize) -> usize {
        self.halos[s].len()
    }

    /// The external node indices shard `s` mirrors, ascending.
    pub fn halo_nodes(&self, s: usize) -> &[u32] {
        &self.halos[s]
    }

    /// Total halo slots over all shards — the number of registers crossing
    /// shard boundaries in each exchange step.
    pub fn total_halo(&self) -> usize {
        self.halos.iter().map(Vec::len).sum()
    }

    /// Bytes copied per exchange step for a register of `state_size` bytes.
    pub fn exchanged_bytes_per_round(&self, state_size: usize) -> usize {
        self.total_halo() * state_size
    }

    /// Shard `s`'s CSR in **region coordinates**: row `i` lists the slots of
    /// [`region(s)`](Self::region) holding interior node `i`'s neighbours,
    /// in port order. `None` for the [direct](Self::direct) plan, whose
    /// parts read the whole buffer through the global CSR.
    pub fn local_csr(&self, s: usize) -> Option<&CsrTopology> {
        self.local_csr.get(s)
    }

    /// The interior write range of every shard, in arena coordinates (the
    /// `regions` argument of
    /// [`WorkerPool::run_rounds`](crate::pool::WorkerPool::run_rounds)).
    pub fn regions(&self) -> &[(usize, usize)] {
        &self.regions
    }

    /// The per-shard pull-exchange pairs `(src, dst)`, in arena coordinates.
    pub fn exchange(&self) -> &[Vec<(u32, u32)>] {
        &self.exchange
    }

    /// Fills `arena` from a node-indexed register vector: each region's
    /// interior slots from the shard's slice, its halo slots from the
    /// mirrored nodes.
    pub fn gather_into<T: Clone>(&self, states: &[T], arena: &mut Vec<T>) {
        arena.clear();
        arena.reserve(self.arena_len());
        for (sh, halo) in self.shards.iter().zip(&self.halos) {
            arena.extend(states[sh.start..sh.end].iter().cloned());
            arena.extend(halo.iter().map(|&u| states[u as usize].clone()));
        }
    }

    /// Copies every region's interior slots back into the node-indexed
    /// register vector (halo copies are discarded — they duplicate another
    /// region's interior).
    pub fn scatter_interiors<T: Clone>(&self, arena: &[T], states: &mut [T]) {
        for (sh, &(lo, hi)) in self.shards.iter().zip(&self.regions) {
            states[sh.start..sh.end].clone_from_slice(&arena[lo..hi]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smst_graph::generators::{random_connected_graph, star_graph};

    fn work_of(topo: &CsrTopology, s: &Shard) -> usize {
        s.nodes().map(|v| topo.work(v)).sum()
    }

    #[test]
    fn shards_cover_the_range_exactly_once() {
        let g = random_connected_graph(101, 300, 3);
        let topo = CsrTopology::build(&g);
        for count in [1, 2, 3, 7, 16, 200] {
            let shards = partition_balanced(&topo, count);
            assert!(shards.len() <= count.max(1));
            assert_eq!(shards.first().unwrap().start, 0);
            assert_eq!(shards.last().unwrap().end, 101);
            for w in shards.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            assert!(shards.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn work_is_roughly_balanced() {
        let g = random_connected_graph(4000, 12000, 5);
        let topo = CsrTopology::build(&g);
        let shards = partition_balanced(&topo, 8);
        assert_eq!(shards.len(), 8);
        let works: Vec<usize> = shards.iter().map(|s| work_of(&topo, s)).collect();
        let avg = topo.total_work() / 8;
        for w in &works {
            assert!(
                *w > avg / 2 && *w < avg * 2,
                "shard work {w} too far from average {avg}"
            );
        }
    }

    #[test]
    fn hub_graph_does_not_collapse_into_one_shard() {
        // star: node 0 carries half the work; remaining shards still split
        // the leaves
        let g = star_graph(1000, 2);
        let topo = CsrTopology::build(&g);
        let shards = partition_balanced(&topo, 4);
        assert!(shards.len() >= 2);
        assert_eq!(shards.first().unwrap().start, 0);
        assert_eq!(shards.last().unwrap().end, 1000);
    }

    #[test]
    fn more_shards_than_nodes() {
        let g = random_connected_graph(3, 3, 1);
        let topo = CsrTopology::build(&g);
        let shards = partition_balanced(&topo, 64);
        assert_eq!(shards.iter().map(Shard::len).sum::<usize>(), 3);
        assert!(shards.len() <= 3);
    }

    #[test]
    fn empty_graph_yields_no_shards() {
        // regression: this used to return `vec![Shard { 0, 0 }]`, violating
        // the all-shards-non-empty invariant the other tests pin
        let topo = CsrTopology::build(&smst_graph::WeightedGraph::default());
        for count in [1, 4, 100] {
            assert!(partition_balanced(&topo, count).is_empty(), "{count}");
        }
    }

    #[test]
    fn halo_plan_mirrors_exactly_the_cross_shard_reads() {
        let g = random_connected_graph(300, 900, 17);
        let topo = CsrTopology::build(&g);
        let shards = partition_balanced(&topo, 6);
        let plan = HaloPlan::build(&topo, &shards);
        assert_eq!(plan.shard_count(), shards.len());
        assert_eq!(
            plan.arena_len(),
            300 + plan.total_halo(),
            "arena = interiors + halo copies"
        );
        for (s, sh) in shards.iter().enumerate() {
            // the halo is precisely the set of external neighbours
            let mut expected: Vec<u32> = sh
                .nodes()
                .flat_map(|v| topo.neighbors_of(v).iter().copied())
                .filter(|&u| (u as usize) < sh.start || (u as usize) >= sh.end)
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(plan.halo_nodes(s), expected.as_slice(), "shard {s}");
            assert_eq!(plan.halo_size(s), expected.len());
            // every exchange copy pulls the mirrored node's interior slot
            for (&(src, dst), &u) in plan.exchange()[s].iter().zip(plan.halo_nodes(s)) {
                let o = shards
                    .iter()
                    .position(|t| t.nodes().contains(&(u as usize)))
                    .unwrap();
                assert_eq!(
                    src as usize,
                    plan.region(o).start + (u as usize - shards[o].start)
                );
                assert!(dst as usize >= plan.region(s).start + sh.len());
                assert!(plan.region(s).contains(&(dst as usize)));
            }
        }
        assert_eq!(plan.exchanged_bytes_per_round(8), 8 * plan.total_halo());
    }

    #[test]
    fn halo_local_csr_resolves_to_the_same_registers() {
        // reading `arena[local_csr]` out of a gathered arena must observe
        // exactly the registers `states[global_csr]` would
        let g = random_connected_graph(120, 360, 23);
        let topo = CsrTopology::build(&g);
        let shards = partition_balanced(&topo, 5);
        let plan = HaloPlan::build(&topo, &shards);
        let states: Vec<u64> = (0..120u64).map(|x| x * 31 + 7).collect();
        let mut arena = Vec::new();
        plan.gather_into(&states, &mut arena);
        assert_eq!(arena.len(), plan.arena_len());
        for (s, sh) in shards.iter().enumerate() {
            let csr = plan.local_csr(s).expect("a halo plan has local CSRs");
            let region = &arena[plan.region(s)];
            assert_eq!(region.len(), sh.len() + plan.halo_size(s));
            assert_eq!(csr.node_count(), sh.len());
            for (i, v) in sh.nodes().enumerate() {
                assert_eq!(region[i], states[v], "interior");
                let via_arena: Vec<u64> = csr
                    .neighbors_of(i)
                    .iter()
                    .map(|&a| region[a as usize])
                    .collect();
                let via_states: Vec<u64> = topo
                    .neighbors_of(v)
                    .iter()
                    .map(|&u| states[u as usize])
                    .collect();
                assert_eq!(via_arena, via_states, "node {v} port order");
            }
        }
        // scatter restores the interiors (and only reads them)
        let mut restored = vec![0u64; 120];
        plan.scatter_interiors(&arena, &mut restored);
        assert_eq!(restored, states);
    }

    #[test]
    fn direct_plan_is_the_halo_plan_with_zero_halo_slots() {
        let g = random_connected_graph(90, 250, 4);
        let topo = CsrTopology::build(&g);
        let shards = partition_balanced(&topo, 4);
        let plan = HaloPlan::direct(&shards);
        assert_eq!(plan.shard_count(), shards.len());
        assert_eq!(plan.arena_len(), 90, "the arena is the register vector");
        assert_eq!(plan.total_halo(), 0);
        assert!(plan.exchange().iter().all(Vec::is_empty));
        for (s, sh) in shards.iter().enumerate() {
            assert_eq!(plan.regions()[s], (sh.start, sh.end));
            assert_eq!(plan.region(s), sh.nodes());
            assert!(plan.local_csr(s).is_none(), "parts read the global CSR");
        }
        assert_eq!(HaloPlan::direct(&[]).arena_len(), 0, "the empty graph");
    }
}
