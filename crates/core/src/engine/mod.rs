//! Build-once / query-many fault queries, layered for concurrent serving.
//!
//! The construction side of this crate produces a static
//! [`FtBfsStructure`](crate::FtBfsStructure); this module makes it
//! *servable*. Mirroring the preprocess-then-query `Server` pattern of
//! route-planning engines, preprocessing happens once and every subsequent
//! post-failure distance/path query runs against reusable scratch state with
//! no per-query allocation.
//!
//! # The three layers
//!
//! * [`EngineCore`] — the **immutable** preprocessed data: an owned copy of
//!   the parent graph, the structure's edge/reinforcement sets, a compact CSR
//!   of `H`, and one fault-free distance/parent row per served source.
//!   `EngineCore` is `Send + Sync`; wrap it in an `Arc` and any number of
//!   threads can serve queries from the same core concurrently.
//! * [`QueryContext`] — the cheap **per-thread** mutable state: BFS scratch
//!   rows, a visit queue, an LRU of recently computed post-failure distance
//!   rows (keyed by fault set, capacity [`EngineOptions::lru_rows`]), and
//!   query counters. Create one per worker with [`EngineCore::new_context`];
//!   contexts are *not* shared between threads.
//! * Facades — [`FaultQueryEngine`] (single source, the 0.2 API) and
//!   [`MultiSourceEngine`] (per-source queries against one shared core) own
//!   an `Arc<EngineCore>` plus one context and add batch orchestration:
//!   their `query_many` groups a batch by fault set and shards the groups
//!   across threads via [`ftb_par::parallel_map_init`], one fresh context per
//!   worker, with deterministic input-order results; oversized groups are
//!   split so one hot fault cannot serialise a skewed batch on one worker.
//!
//! # Fault model
//!
//! Queries name their failures as a
//! [`FaultSet`](ftb_graph::FaultSet) — a small canonical set of
//! [`Fault`](ftb_graph::Fault)s, each a failed **edge** or a failed
//! **vertex** (the vertex and all incident edges disappear). The historic
//! single-edge methods (`dist_after_fault` & friends) are thin delegations
//! onto the same machinery with a singleton set and return byte-identical
//! results. Sets larger than [`EngineOptions::max_faults`] (default 2) are
//! rejected with
//! [`FtbfsError::FaultSetTooLarge`](crate::FtbfsError::FaultSetTooLarge).
//!
//! # Answering model
//!
//! For a query `(v, F)` the engine reports `dist(s, v, G ∖ F)` through a
//! cascade of four tiers, cheapest first (attribution is recorded per query
//! in [`QueryStats::tiers`]):
//!
//! * **`fault_free_row`** — every fault in `F` an edge outside `H`: the BFS
//!   tree `T0 ⊆ H` survives, and `dist(G) ≤ dist(G ∖ F) ≤ dist(H ∖ F) =
//!   dist(H) = dist(G)` squeezes the answer to the fault-free value; the
//!   core's preprocessed row is returned without any search.
//! * **`sparse_h_bfs`** — `F = {e}`, a single non-reinforced structure
//!   edge: one BFS over the compact CSR of `H ∖ {e}`. By the defining
//!   FT-BFS guarantee (`dist(s, v, H ∖ {e}) ≤ dist(s, v, G ∖ {e})`, with
//!   `≥` from `H ⊆ G`) the answer equals the from-scratch distance in
//!   `G ∖ {e}` whenever the structure is valid.
//! * **`augmented_bfs`** — the core was built from an
//!   [`AugmentedStructure`](crate::ftbfs::AugmentedStructure) whose
//!   [coverage](crate::ftbfs::AugmentCoverage) accepts `F` (vertex faults,
//!   dual edge failures, a vertex plus an edge, reinforced-edge
//!   hypotheticals): one BFS over the compact CSR of `H⁺ ∖ F`, exact by the
//!   replacement-path construction (see the [`ftbfs`](crate::ftbfs) docs).
//! * **`full_graph_bfs`** — everything else (`|F| ≥ 3`, two simultaneous
//!   vertex faults, a reinforced edge, or a build without the needed
//!   augmentation): the row over the full graph `G ∖ F`, exact by
//!   definition. Like every other tier it is repaired from the fault-free
//!   row (below), so a miss costs `O(vol(affected))` plus an `O(n)` copy,
//!   not an `O(n + m)` sweep.
//!
//! A query whose fault set contains the target vertex or the source itself
//! reports the vertex disconnected (`Ok(None)`), matching brute-force BFS
//! over the masked graph.
//!
//! # Incremental row repair and the unaffected fast path
//!
//! A fault only changes the distance of vertices whose canonical shortest
//! path *uses* the failed element — the subtrees hanging under the fault in
//! the slot's fault-free BFS tree `T0` (the observation behind the sparse
//! FT-BFS constructions of Parter–Peleg 2013). The engine exploits it
//! twice, and both optimisations are answer-preserving (byte-identical
//! rows, asserted in the `row_repair` differential suite):
//!
//! * **Targeted fast path** — a distance query whose target is provably
//!   unaffected (its tree path avoids every failed tree edge and vertex —
//!   an `O(|F|)` check against preprocessed Euler-tour subtree intervals)
//!   is answered straight from the fault-free row: no search, no row, no
//!   LRU traffic. Counted in [`TierCounters::unaffected_fast_path`].
//! * **Repair instead of re-sweep** — a cache miss on any tier does not
//!   re-sweep the tier's adjacency (`H ∖ {e}`, `H⁺ ∖ F` or `G ∖ F`): the
//!   row starts as a copy of the fault-free distances and the tier's
//!   canonical fault-free parents, the affected subtrees (`O(|F|)` preorder
//!   intervals) are re-swept by a bounded BFS seeded from their unaffected
//!   boundary at fault-free depths, and canonical parents are patched where
//!   distances or adjacency changed (the region, its boundary, and both
//!   endpoints of every failed edge). Cost is `O(n)` memcpy plus
//!   `O(vol(affected))` instead of a full `O(n + |CSR|)` traversal; counted
//!   in [`QueryStats::repaired_rows`].
//! * **One-to-many batching** — `dist_many_after_faults` answers a whole
//!   target set against one fault set in one pass: targets are sorted by
//!   Euler-tour preorder number and binary-searched against the merged
//!   affected intervals (`O(|F| log t + t)` instead of `O(|F|·t)` probes),
//!   provably-unaffected targets are read straight off the fault-free row
//!   ([`TierCounters::batched_unaffected`]), and when only a few targets
//!   land inside the affected subtrees a *target-restricted* repair sweep
//!   stops as soon as every requested affected target is settled
//!   ([`QueryStats::restricted_repairs`]) instead of repairing the row.
//!
//! Row repair and the restricted sweep are one kernel — the same bounded
//! BFS over the same per-tier adjacency, differing only in when it may
//! stop (the whole region settled, or every requested target settled).
//!
//! Parent entries everywhere are **canonical** — the first neighbor one
//! level closer in (filtered) adjacency order, a pure function of the final
//! distance row — which is what makes repaired and fully-swept rows
//! byte-identical, and serial, sharded and repaired serving
//! indistinguishable. Set [`EngineOptions::force_full_sweep`] (or the
//! [`FORCE_FULL_SWEEP_ENV`] environment variable) to disable both paths for
//! differential testing or measurement; the `row_repair` criterion bench
//! gates the ≥ 2× serving gap between the two modes in CI.
//!
//! Each context keeps the last [`EngineOptions::lru_rows`] computed rows
//! keyed by (source, fault set) — a single-edge query and its
//! singleton-set twin share one row — so interleaved queries against a
//! small working set of failure patterns never repeat a search; batches
//! additionally group by fault set so each distinct failure pattern is
//! searched at most once per worker per batch.
//!
//! # Thread-safety contract
//!
//! `EngineCore` is immutable after construction and `Send + Sync`; share it
//! freely (`Arc<EngineCore>`). `QueryContext` is `Send` but deliberately not
//! shared: each thread creates its own via [`EngineCore::new_context`] and
//! queries through it with `&mut`. A context is tied to the core that
//! created it — using it with a different core yields
//! [`FtbfsError::ContextMismatch`](crate::FtbfsError::ContextMismatch).

mod context;
mod core;
mod facade;
mod multi;
mod obs;
mod repair;
mod snapshot;
#[cfg(test)]
mod tests;

pub use snapshot::engine_layout_hash;

pub use self::core::{EngineCore, EngineOptions, FORCE_FULL_SWEEP_ENV};
pub use context::QueryContext;
pub use facade::FaultQueryEngine;
pub use multi::MultiSourceEngine;
pub use obs::{EngineObs, STAGE_SECONDS_METRIC, TIER_LATENCY_METRIC};

/// The answering tier a fault set routes to (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The faults cannot change distances; the preprocessed row answers.
    FaultFree,
    /// Single non-reinforced structure edge: BFS over `H ∖ {e}`.
    SparseH,
    /// Covered by the build's augmentation: BFS over `H⁺ ∖ F`.
    Augmented,
    /// Everything else: the exact row over `G ∖ F`.
    FullGraph,
}

use ftb_graph::{EdgeId, VertexId};
use ftb_sp::UNREACHABLE;
use std::collections::VecDeque;

/// Per-tier answering counters: how many queries each routing tier
/// answered.
///
/// Every query is attributed to exactly one tier — the tier whose row
/// (fresh or LRU-cached) produced the answer — so the fields always
/// sum to [`QueryStats::queries`]. This makes tier routing *observable*:
/// e.g. a test can assert that vertex-fault queries on an augmented build
/// never land in [`TierCounters::full_graph_bfs`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Answered straight from the preprocessed fault-free row (every fault
    /// an edge outside the structure).
    pub fault_free_row: usize,
    /// Answered in `O(|F|)` from the fault-free row because the target was
    /// *provably unaffected*: its canonical tree path avoids every failed
    /// element, so no search (and no row) is needed at all. Targeted
    /// distance queries and path queries whose whole parent chain is
    /// unaffected take this path; disable it (together with the
    /// incremental row repair) via
    /// [`EngineOptions::force_full_sweep`](super::EngineOptions).
    pub unaffected_fast_path: usize,
    /// Answered from the fault-free row by the *batched* one-to-many
    /// classification: `dist_many_after_faults` sorts the requested targets
    /// by Euler-tour preorder number and binary-searches the merged
    /// affected intervals, so each provably-unaffected target of a
    /// many-target query costs `O(log t)` amortised instead of an
    /// `O(|F|)` per-target probe. Counted per *target*, like every other
    /// tier counter.
    pub batched_unaffected: usize,
    /// Answered from a BFS row over the sparse structure CSR `H ∖ {e}`
    /// (single non-reinforced structure-edge failures — the seed paper's
    /// guarantee).
    pub sparse_h_bfs: usize,
    /// Answered from a BFS row over the augmented CSR `H⁺ ∖ F`
    /// (vertex faults, dual failures and reinforced-edge hypotheticals
    /// within the build's [`AugmentCoverage`](crate::ftbfs::AugmentCoverage)).
    pub augmented_bfs: usize,
    /// Answered from a full-graph row over `G ∖ F` (the exact fallback for
    /// everything outside the sparse guarantees), repaired like the other
    /// tiers' rows.
    pub full_graph_bfs: usize,
}

impl TierCounters {
    /// Sum of all tiers (equals the total query count).
    pub fn total(&self) -> usize {
        self.fault_free_row
            + self.unaffected_fast_path
            + self.batched_unaffected
            + self.sparse_h_bfs
            + self.augmented_bfs
            + self.full_graph_bfs
    }

    fn merge(&mut self, other: &TierCounters) {
        self.fault_free_row += other.fault_free_row;
        self.unaffected_fast_path += other.unaffected_fast_path;
        self.batched_unaffected += other.batched_unaffected;
        self.sparse_h_bfs += other.sparse_h_bfs;
        self.augmented_bfs += other.augmented_bfs;
        self.full_graph_bfs += other.full_graph_bfs;
    }

    fn delta_since(&self, earlier: &TierCounters) -> TierCounters {
        TierCounters {
            fault_free_row: self.fault_free_row - earlier.fault_free_row,
            unaffected_fast_path: self.unaffected_fast_path - earlier.unaffected_fast_path,
            batched_unaffected: self.batched_unaffected - earlier.batched_unaffected,
            sparse_h_bfs: self.sparse_h_bfs - earlier.sparse_h_bfs,
            augmented_bfs: self.augmented_bfs - earlier.augmented_bfs,
            full_graph_bfs: self.full_graph_bfs - earlier.full_graph_bfs,
        }
    }
}

/// Counters describing how an engine (or a single context) answered its
/// queries so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total queries answered (distance, path and batched).
    pub queries: usize,
    /// BFS sweeps over the compact structure CSR of `H`.
    pub structure_bfs_runs: usize,
    /// BFS sweeps over the compact augmented CSR of `H⁺`.
    pub augmented_bfs_runs: usize,
    /// Searches over the full graph (the exact fallback): row repairs,
    /// restricted sweeps, or full sweeps when repair is off.
    pub full_graph_bfs_runs: usize,
    /// Queries answered from an already-computed row (the fault-free row,
    /// the unaffected fast path, or an LRU hit).
    pub cached_answers: usize,
    /// Cache-miss rows produced by the *incremental repair* path (fault-free
    /// copy + bounded BFS over the affected subtrees) instead of a full
    /// sweep. Each repaired row is also counted in the sweep counter of its
    /// tier (`structure_bfs_runs` / `augmented_bfs_runs` /
    /// `full_graph_bfs_runs`), so `repaired_rows` tells how many of those
    /// searches were bounded.
    pub repaired_rows: usize,
    /// One-to-many cache misses answered by a *target-restricted* repair
    /// sweep: the bounded boundary-seeded BFS stopped as soon as every
    /// affected *requested* target was settled, instead of repairing (or
    /// caching) the whole row. Each restricted repair is also counted in
    /// the sweep counter of its tier, like [`QueryStats::repaired_rows`].
    pub restricted_repairs: usize,
    /// Per-tier attribution of every answered query (fields sum to
    /// [`QueryStats::queries`]).
    pub tiers: TierCounters,
}

impl QueryStats {
    /// Accumulate another stats block into this one (used when merging the
    /// counters of per-worker contexts after a sharded batch).
    pub fn merge(&mut self, other: &QueryStats) {
        self.queries += other.queries;
        self.structure_bfs_runs += other.structure_bfs_runs;
        self.augmented_bfs_runs += other.augmented_bfs_runs;
        self.full_graph_bfs_runs += other.full_graph_bfs_runs;
        self.cached_answers += other.cached_answers;
        self.repaired_rows += other.repaired_rows;
        self.restricted_repairs += other.restricted_repairs;
        self.tiers.merge(&other.tiers);
    }

    /// The counter increments accumulated since `earlier` was captured
    /// (both snapshots must come from the same context/engine).
    pub fn delta_since(&self, earlier: &QueryStats) -> QueryStats {
        QueryStats {
            queries: self.queries - earlier.queries,
            structure_bfs_runs: self.structure_bfs_runs - earlier.structure_bfs_runs,
            augmented_bfs_runs: self.augmented_bfs_runs - earlier.augmented_bfs_runs,
            full_graph_bfs_runs: self.full_graph_bfs_runs - earlier.full_graph_bfs_runs,
            cached_answers: self.cached_answers - earlier.cached_answers,
            repaired_rows: self.repaired_rows - earlier.repaired_rows,
            restricted_repairs: self.restricted_repairs - earlier.restricted_repairs,
            tiers: self.tiers.delta_since(&earlier.tiers),
        }
    }
}

/// A lock-free publication cell for one worker's [`QueryStats`].
///
/// The serving pattern behind it: each worker thread owns a
/// [`QueryContext`] (not shared, not lockable without poisoning the hot
/// path) and, after finishing a request, *publishes* its context's counter
/// totals into its own `AtomicQueryStats` slot with
/// [`AtomicQueryStats::store`]. Any other thread — a `Stats`-op handler, a
/// metrics scraper — calls [`AtomicQueryStats::snapshot`] on every slot and
/// folds the results with [`QueryStats::merge`], aggregating per-worker
/// counters without taking a single lock on the serve path.
///
/// Consistency contract: every field is an independent relaxed atomic, so a
/// snapshot racing a store may mix fields from two adjacent publications —
/// but each field is monotonically non-decreasing and every published value
/// was true at some point, which is exactly what monitoring counters need.
/// A snapshot never observes a *torn* field and never goes backwards
/// field-wise.
#[derive(Debug, Default)]
pub struct AtomicQueryStats {
    queries: std::sync::atomic::AtomicUsize,
    structure_bfs_runs: std::sync::atomic::AtomicUsize,
    augmented_bfs_runs: std::sync::atomic::AtomicUsize,
    full_graph_bfs_runs: std::sync::atomic::AtomicUsize,
    cached_answers: std::sync::atomic::AtomicUsize,
    repaired_rows: std::sync::atomic::AtomicUsize,
    restricted_repairs: std::sync::atomic::AtomicUsize,
    tier_fault_free_row: std::sync::atomic::AtomicUsize,
    tier_unaffected_fast_path: std::sync::atomic::AtomicUsize,
    tier_batched_unaffected: std::sync::atomic::AtomicUsize,
    tier_sparse_h_bfs: std::sync::atomic::AtomicUsize,
    tier_augmented_bfs: std::sync::atomic::AtomicUsize,
    tier_full_graph_bfs: std::sync::atomic::AtomicUsize,
}

impl AtomicQueryStats {
    /// An all-zero cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish `stats` (a context's running totals) into this cell.
    pub fn store(&self, stats: &QueryStats) {
        use std::sync::atomic::Ordering::Relaxed;
        self.queries.store(stats.queries, Relaxed);
        self.structure_bfs_runs
            .store(stats.structure_bfs_runs, Relaxed);
        self.augmented_bfs_runs
            .store(stats.augmented_bfs_runs, Relaxed);
        self.full_graph_bfs_runs
            .store(stats.full_graph_bfs_runs, Relaxed);
        self.cached_answers.store(stats.cached_answers, Relaxed);
        self.repaired_rows.store(stats.repaired_rows, Relaxed);
        self.restricted_repairs
            .store(stats.restricted_repairs, Relaxed);
        self.tier_fault_free_row
            .store(stats.tiers.fault_free_row, Relaxed);
        self.tier_unaffected_fast_path
            .store(stats.tiers.unaffected_fast_path, Relaxed);
        self.tier_batched_unaffected
            .store(stats.tiers.batched_unaffected, Relaxed);
        self.tier_sparse_h_bfs
            .store(stats.tiers.sparse_h_bfs, Relaxed);
        self.tier_augmented_bfs
            .store(stats.tiers.augmented_bfs, Relaxed);
        self.tier_full_graph_bfs
            .store(stats.tiers.full_graph_bfs, Relaxed);
    }

    /// Read the last published totals as a plain [`QueryStats`] value.
    pub fn snapshot(&self) -> QueryStats {
        use std::sync::atomic::Ordering::Relaxed;
        QueryStats {
            queries: self.queries.load(Relaxed),
            structure_bfs_runs: self.structure_bfs_runs.load(Relaxed),
            augmented_bfs_runs: self.augmented_bfs_runs.load(Relaxed),
            full_graph_bfs_runs: self.full_graph_bfs_runs.load(Relaxed),
            cached_answers: self.cached_answers.load(Relaxed),
            repaired_rows: self.repaired_rows.load(Relaxed),
            restricted_repairs: self.restricted_repairs.load(Relaxed),
            tiers: TierCounters {
                fault_free_row: self.tier_fault_free_row.load(Relaxed),
                unaffected_fast_path: self.tier_unaffected_fast_path.load(Relaxed),
                batched_unaffected: self.tier_batched_unaffected.load(Relaxed),
                sparse_h_bfs: self.tier_sparse_h_bfs.load(Relaxed),
                augmented_bfs: self.tier_augmented_bfs.load(Relaxed),
                full_graph_bfs: self.tier_full_graph_bfs.load(Relaxed),
            },
        }
    }
}

/// Borrowed distance + parent rows of one BFS sweep.
type RowRefs<'a> = (&'a [u32], &'a [Option<(VertexId, EdgeId)>]);

/// One parent-row entry: the canonical predecessor of a vertex and the
/// parent-graph id of the connecting edge.
type ParentEntry = Option<(VertexId, EdgeId)>;

/// `None` for the `UNREACHABLE` sentinel, `Some(d)` otherwise.
fn finite(d: u32) -> Option<u32> {
    if d == UNREACHABLE {
        None
    } else {
        Some(d)
    }
}

/// Reusable BFS sweep state: a generation-stamped distance row (reset is an
/// `O(1)` epoch bump, not an `O(n)` fill), an *unstamped* parent row (only
/// read for vertices whose distance is valid this epoch — every such vertex
/// is popped exactly once and writes its entry), and the visit queue.
#[derive(Clone, Debug)]
pub(super) struct SweepScratch {
    dist: ftb_sp::TimestampedVector<u32>,
    parent: Vec<ParentEntry>,
    queue: VecDeque<VertexId>,
}

impl SweepScratch {
    pub(super) fn new(num_vertices: usize) -> Self {
        SweepScratch {
            dist: ftb_sp::TimestampedVector::new(num_vertices, UNREACHABLE),
            parent: vec![None; num_vertices],
            queue: VecDeque::with_capacity(num_vertices),
        }
    }

    /// Copy the sweep result into materialized rows (an LRU slot or a
    /// preprocessed fault-free row).
    pub(super) fn materialize(&self, dist: &mut [u32], parent: &mut [ParentEntry]) {
        for i in 0..dist.len() {
            let d = self.dist.get(i);
            dist[i] = d;
            parent[i] = if d == UNREACHABLE {
                None
            } else {
                self.parent[i]
            };
        }
    }
}

/// The one BFS loop every full sweep shares: expand from `source` over
/// whatever adjacency `neighbors` yields, into the scratch's stamped rows
/// (no per-sweep fill). `neighbors` must already exclude the failed
/// elements and report edges as parent-graph edge ids.
///
/// Parent entries are **canonical**: the parent of `v` is the first
/// neighbor `(w, e)` in `v`'s own (filtered) adjacency order with
/// `dist(w) + 1 == dist(v)` — a pure function of the final distance row and
/// the adjacency, *not* of the traversal order. When `v` is popped, every
/// vertex at depth `dist(v) - 1` is final, so one scan discovers `v`'s
/// successors and selects `v`'s canonical parent at the same time. The
/// incremental repair path recomputes exactly this rule from final
/// distances, which is what makes repaired rows byte-identical to full
/// sweeps.
fn bfs_sweep<I, F>(source: VertexId, scratch: &mut SweepScratch, neighbors: F)
where
    I: Iterator<Item = (VertexId, EdgeId)>,
    F: Fn(VertexId) -> I,
{
    scratch.dist.reset();
    scratch.queue.clear();
    scratch.dist.set(source.index(), 0);
    scratch.parent[source.index()] = None;
    scratch.queue.push_back(source);
    while let Some(u) = scratch.queue.pop_front() {
        let du = scratch.dist.get(u.index());
        let mut canonical: ParentEntry = None;
        for (w, ge) in neighbors(u) {
            let dw = scratch.dist.get(w.index());
            if dw == UNREACHABLE {
                scratch.dist.set(w.index(), du + 1);
                scratch.queue.push_back(w);
            } else if canonical.is_none() && du > 0 && dw + 1 == du {
                canonical = Some((w, ge));
            }
        }
        if u != source {
            scratch.parent[u.index()] = canonical;
        }
    }
}
