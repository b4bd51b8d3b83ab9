//! The one repair kernel every serving tier shares: a bounded BFS seeded
//! from the unaffected boundary of the failed subtrees, run over a tier's
//! post-failure adjacency ([`TierAdjacency`]).
//!
//! A fault only changes the distances inside the subtrees hanging under it
//! in the slot's fault-free BFS tree `T0` (the observation behind the
//! Parter–Peleg constructions). Everything outside those subtrees keeps its
//! fault-free distance, so a BFS that starts from the subtrees' unaffected
//! boundary — each boundary vertex entering at its fault-free depth — and
//! only ever discovers affected vertices computes exactly the post-failure
//! distances of the region. Row repair and the target-restricted sweep of
//! one-to-many queries are the same search with different stop conditions
//! ([`Settle`]).

use super::ParentEntry;
use ftb_graph::{CompactSubgraph, EdgeId, Fault, Graph, VertexId};
use ftb_sp::{TimestampedVector, UNREACHABLE};

/// [`RepairScratch::marks`] value: unaffected boundary vertex already
/// collected (seed dedup).
const MARK_BOUNDARY: u8 = 1;
/// [`RepairScratch::marks`] value: inside a failed subtree, distance to be
/// recomputed by the bounded BFS.
const MARK_AFFECTED: u8 = 2;
/// [`RepairScratch::marks`] value: affected *and* requested — the bounded
/// BFS stops once every such vertex is settled.
const MARK_REQUESTED: u8 = 3;

/// One serving tier's post-failure adjacency — `H ∖ {e}`, `H⁺ ∖ F` or
/// `G ∖ F` — together with the tier's canonical fault-free parent row.
///
/// Built once per search by
/// [`EngineCore::tier_adjacency`](super::EngineCore::tier_adjacency). The
/// full sweep, the row repair and the target-restricted sweep all traverse
/// it, so every path sees the same neighbours in the same order and reports
/// parent-graph edge ids.
#[derive(Clone, Copy, Debug)]
pub(super) struct TierAdjacency<'a> {
    /// The parent graph `G` (edge endpoints, and the CSR of the full-graph
    /// tier).
    pub(super) graph: &'a Graph,
    /// The tier's compact CSR (`H` or `H⁺`); `None` traverses `G` itself.
    pub(super) csr: Option<&'a CompactSubgraph>,
    /// Failed elements, filtered out of every adjacency list.
    pub(super) faults: &'a [Fault],
    /// Canonical fault-free parents over this adjacency. The distances are
    /// the shared fault-free row on every tier; only the parent choice is
    /// adjacency-order-relative.
    pub(super) parent0: &'a [ParentEntry],
}

impl<'a> TierAdjacency<'a> {
    /// The surviving `(neighbour, parent-graph edge)` pairs of `u` in the
    /// tier's CSR order: failed edges and failed neighbours are skipped.
    /// The fault slice holds at most `max_faults` entries, so membership is
    /// a short linear scan, cheaper than any hashing at these sizes.
    #[inline]
    pub(super) fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + 'a {
        let csr = self.csr;
        let faults = self.faults;
        csr.map_or(self.graph, CompactSubgraph::graph)
            .neighbors(u)
            .filter_map(move |(w, e)| {
                let ge = csr.map_or(e, |c| c.parent_edge(e));
                let failed = faults
                    .iter()
                    .any(|&f| f == Fault::Edge(ge) || f == Fault::Vertex(w));
                (!failed).then_some((w, ge))
            })
    }
}

/// Which affected vertices a [`RepairScratch::bounded_bfs`] must settle
/// before it may stop.
#[derive(Clone, Copy, Debug)]
pub(super) enum Settle<'a> {
    /// The whole affected region: a row repair.
    Region,
    /// `targets[i]` for every `i` in `picks` (duplicates allowed): a
    /// target-restricted sweep, which materialises no row.
    Targets {
        targets: &'a [VertexId],
        picks: &'a [u32],
    },
}

/// Reusable state of the repair kernel (all cleared in `O(1)` or
/// proportional to the previous search's size — nothing here is `O(n)` per
/// miss).
#[derive(Clone, Debug)]
pub(super) struct RepairScratch {
    /// `0` untouched, [`MARK_BOUNDARY`], [`MARK_AFFECTED`] or
    /// [`MARK_REQUESTED`]; generation-stamped so clearing is an epoch bump.
    marks: TimestampedVector<u8>,
    /// Unaffected boundary vertices seeding the bounded BFS, keyed by their
    /// (unchanged) fault-free distance.
    seeds: Vec<(u32, VertexId)>,
    /// Merged preorder intervals of the affected subtrees (into the slot
    /// tree's order array), filled by the caller before each search.
    pub(super) intervals: Vec<(u32, u32)>,
    /// Level-synchronous BFS frontiers.
    frontier: Vec<VertexId>,
    next: Vec<VertexId>,
    /// Post-failure distances of the affected vertices the last search
    /// settled; generation-stamped so each search starts clean in `O(1)`.
    dist: TimestampedVector<u32>,
}

impl RepairScratch {
    pub(super) fn new(num_vertices: usize) -> Self {
        RepairScratch {
            marks: TimestampedVector::new(num_vertices, 0),
            seeds: Vec::new(),
            intervals: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            dist: TimestampedVector::new(num_vertices, UNREACHABLE),
        }
    }

    /// Post-failure distance of affected vertex `v` as settled by the last
    /// [`RepairScratch::bounded_bfs`] (`UNREACHABLE` = disconnected, or not
    /// reached before the search stopped).
    pub(super) fn settled(&self, v: VertexId) -> u32 {
        self.dist.get(v.index())
    }

    /// The shared kernel: post-failure distances of the affected vertices
    /// (the merged [`RepairScratch::intervals`] of `order`), by a bounded
    /// BFS over `adj` seeded from the unaffected boundary.
    ///
    /// 1. mark every vertex inside an affected interval (and the requested
    ///    ones, per `settle`),
    /// 2. collect the *unaffected boundary* — the region's neighbours
    ///    outside it — as seeds at their fault-free depth `dist0`,
    /// 3. run a level-synchronous BFS from the seeds that only ever
    ///    discovers affected vertices, until every requested vertex is
    ///    settled or the frontier runs dry.
    ///
    /// Seeding at `dist0` is sound because every root-to-boundary prefix of
    /// a post-failure shortest path can be replaced by the boundary vertex's
    /// surviving tree path, and a level-synchronous BFS distance is final at
    /// assignment, so stopping early cannot change any answer. Cost is
    /// `O(vol(affected) + boundary·deg)`. Results are read with
    /// [`RepairScratch::settled`].
    pub(super) fn bounded_bfs(
        &mut self,
        order: &[VertexId],
        dist0: &[u32],
        adj: &TierAdjacency<'_>,
        settle: Settle<'_>,
    ) {
        self.marks.reset();
        self.dist.reset();
        let region_mark = match settle {
            Settle::Region => MARK_REQUESTED,
            Settle::Targets { .. } => MARK_AFFECTED,
        };
        let mut remaining = 0usize;
        for &(a, b) in &self.intervals {
            for &v in &order[a as usize..b as usize] {
                self.marks.set(v.index(), region_mark);
            }
            if region_mark == MARK_REQUESTED {
                remaining += (b - a) as usize;
            }
        }
        if let Settle::Targets { targets, picks } = settle {
            for &i in picks {
                // Duplicate targets are marked (and counted) once.
                let t = targets[i as usize];
                if self.marks.get(t.index()) == MARK_AFFECTED {
                    self.marks.set(t.index(), MARK_REQUESTED);
                    remaining += 1;
                }
            }
        }
        self.seeds.clear();
        for &(a, b) in &self.intervals {
            for &v in &order[a as usize..b as usize] {
                for (w, _) in adj.neighbors(v) {
                    if self.marks.get(w.index()) == 0 {
                        self.marks.set(w.index(), MARK_BOUNDARY);
                        if dist0[w.index()] != UNREACHABLE {
                            self.seeds.push((dist0[w.index()], w));
                        }
                    }
                }
            }
        }
        self.seeds.sort_unstable();
        self.frontier.clear();
        self.next.clear();
        let mut si = 0usize;
        let mut level = 0u32;
        while remaining > 0 && (si < self.seeds.len() || !self.frontier.is_empty()) {
            if self.frontier.is_empty() {
                level = level.max(self.seeds[si].0);
            }
            while si < self.seeds.len() && self.seeds[si].0 == level {
                self.frontier.push(self.seeds[si].1);
                si += 1;
            }
            for fi in 0..self.frontier.len() {
                let u = self.frontier[fi];
                for (w, _) in adj.neighbors(u) {
                    let mark = self.marks.get(w.index());
                    if mark >= MARK_AFFECTED && self.dist.get(w.index()) == UNREACHABLE {
                        self.dist.set(w.index(), level + 1);
                        if mark == MARK_REQUESTED {
                            remaining -= 1;
                        }
                        self.next.push(w);
                    }
                }
            }
            self.frontier.clear();
            std::mem::swap(&mut self.frontier, &mut self.next);
            level += 1;
        }
    }

    /// Materialise the post-failure row of `adj` into `row_dist` /
    /// `row_parent`: start from the fault-free rows, settle the whole
    /// affected region with [`RepairScratch::bounded_bfs`], then recompute
    /// canonical parents wherever the distances or the adjacency changed —
    /// the affected region, its boundary, and both endpoints of every failed
    /// edge. Byte-identical to a full sweep over `adj`, at
    /// `O(n)` memcpy plus the kernel's cost.
    pub(super) fn repair_row(
        &mut self,
        order: &[VertexId],
        dist0: &[u32],
        adj: &TierAdjacency<'_>,
        row_dist: &mut [u32],
        row_parent: &mut [ParentEntry],
    ) {
        row_dist.copy_from_slice(dist0);
        row_parent.copy_from_slice(adj.parent0);
        self.bounded_bfs(order, dist0, adj, Settle::Region);
        for &(a, b) in &self.intervals {
            for &v in &order[a as usize..b as usize] {
                row_dist[v.index()] = self.dist.get(v.index());
            }
        }
        for &(a, b) in &self.intervals {
            for &v in &order[a as usize..b as usize] {
                row_parent[v.index()] = canonical_parent(v, row_dist, adj);
            }
        }
        for &(_, u) in &self.seeds {
            row_parent[u.index()] = canonical_parent(u, row_dist, adj);
        }
        // An unaffected endpoint of a failed edge keeps its distance but
        // may have lost its parent edge.
        for e in adj.faults.iter().filter_map(|f| f.as_edge()) {
            let edge = adj.graph.edge(e);
            for x in [edge.u, edge.v] {
                row_parent[x.index()] = canonical_parent(x, row_dist, adj);
            }
        }
    }
}

/// The canonical-parent rule shared with [`bfs_sweep`](super::bfs_sweep):
/// the first neighbour `(w, e)` in `v`'s (filtered) adjacency order with
/// `dist(w) + 1 == dist(v)` — a pure function of the final distance row, so
/// repaired and fully-swept rows agree byte for byte.
fn canonical_parent(v: VertexId, dist: &[u32], adj: &TierAdjacency<'_>) -> ParentEntry {
    let d = dist[v.index()];
    if d == 0 || d == UNREACHABLE {
        return None;
    }
    adj.neighbors(v).find(|&(w, _)| {
        let dw = dist[w.index()];
        dw != UNREACHABLE && dw + 1 == d
    })
}
