//! The single-source serving facade: [`FaultQueryEngine`], plus the
//! fault-group sharding shared with the multi-source facade.

use super::context::QueryContext;
use super::core::{EngineCore, EngineOptions};
use super::{finite, QueryStats};
use crate::error::FtbfsError;
use crate::structure::FtBfsStructure;
use ftb_graph::{EdgeId, FaultSet, Graph, VertexId};
use ftb_par::parallel_map_init;
use ftb_sp::Path;
use std::sync::Arc;

/// A preprocessed query server answering post-failure distance and path
/// queries against an [`FtBfsStructure`].
///
/// This is the single-source facade over the core/context split (see the
/// [module docs](super)): it owns an `Arc`-shared [`EngineCore`] plus one
/// [`QueryContext`] and keeps the build-once/query-many API of 0.2 —
/// query methods take `&mut self` purely to reuse the context's buffers.
/// Single-edge failures use the historic `dist_after_fault` /
/// `path_after_fault` / `query_many` methods; arbitrary fault sets (edges
/// and vertices, `|F|` up to [`EngineOptions::max_faults`]) go through
/// [`FaultQueryEngine::dist_after_faults`] and friends — the single-edge
/// methods are thin delegations onto the same machinery.
/// [`FaultQueryEngine::query_many`] additionally shards the batch's
/// fault-groups across worker threads (per [`EngineOptions::parallel`]),
/// each worker with its own context, with deterministic input-order
/// results. Use [`FaultQueryEngine::core`] to share the preprocessed data
/// with other threads directly.
#[derive(Clone, Debug)]
pub struct FaultQueryEngine<'g> {
    graph: &'g Graph,
    core: Arc<EngineCore>,
    ctx: QueryContext,
}

impl<'g> FaultQueryEngine<'g> {
    /// Preprocess `structure` (built from `graph`) into a query engine with
    /// default [`EngineOptions`].
    ///
    /// # Errors
    ///
    /// See [`EngineCore::build`]: [`FtbfsError::StructureMismatch`],
    /// [`FtbfsError::VertexOutOfRange`] and
    /// [`FtbfsError::FaultFreeDistanceMismatch`] catch a structure paired
    /// with a graph it was not built from.
    pub fn new(graph: &'g Graph, structure: FtBfsStructure) -> Result<Self, FtbfsError> {
        Self::with_options(graph, structure, EngineOptions::default())
    }

    /// Like [`FaultQueryEngine::new`] with explicit serving options (LRU
    /// capacity, batch-sharding threads, fault cap).
    pub fn with_options(
        graph: &'g Graph,
        structure: FtBfsStructure,
        options: EngineOptions,
    ) -> Result<Self, FtbfsError> {
        let core = Arc::new(EngineCore::build_with(graph, structure, options)?);
        let ctx = core.new_context();
        Ok(FaultQueryEngine { graph, core, ctx })
    }

    /// Preprocess an [`AugmentedStructure`](crate::ftbfs::AugmentedStructure)
    /// into a query engine with default [`EngineOptions`]: fault sets inside
    /// the structure's coverage are answered by sparse search over
    /// `H⁺ ∖ F` (the `augmented_bfs` tier) instead of a full-graph BFS.
    ///
    /// Serves the structure's primary source; use
    /// [`MultiSourceEngine::from_augmented`](super::MultiSourceEngine::from_augmented)
    /// for per-source queries over a multi-source augmentation.
    ///
    /// # Errors
    ///
    /// As [`FaultQueryEngine::new`].
    pub fn from_augmented(
        graph: &'g Graph,
        augmented: crate::ftbfs::AugmentedStructure,
    ) -> Result<Self, FtbfsError> {
        Self::from_augmented_with_options(graph, augmented, EngineOptions::default())
    }

    /// Like [`FaultQueryEngine::from_augmented`] with explicit serving
    /// options.
    pub fn from_augmented_with_options(
        graph: &'g Graph,
        augmented: crate::ftbfs::AugmentedStructure,
        options: EngineOptions,
    ) -> Result<Self, FtbfsError> {
        let core = Arc::new(EngineCore::build_augmented_with(graph, augmented, options)?);
        let ctx = core.new_context();
        Ok(FaultQueryEngine { graph, core, ctx })
    }

    /// Wrap an already-preprocessed shared core in a facade with its own
    /// fresh context. The core must have been built from `graph`.
    ///
    /// # Errors
    ///
    /// [`FtbfsError::CoreGraphMismatch`] when `graph` does not match the
    /// core's graph (vertex/edge counts are compared; full preprocessing
    /// validation happened when the core was built).
    pub fn from_core(graph: &'g Graph, core: Arc<EngineCore>) -> Result<Self, FtbfsError> {
        if core.graph().num_edges() != graph.num_edges()
            || core.graph().num_vertices() != graph.num_vertices()
        {
            return Err(FtbfsError::CoreGraphMismatch {
                core_vertices: core.graph().num_vertices(),
                core_edges: core.graph().num_edges(),
                graph_vertices: graph.num_vertices(),
                graph_edges: graph.num_edges(),
            });
        }
        let ctx = core.new_context();
        Ok(FaultQueryEngine { graph, core, ctx })
    }

    /// The shared immutable core — clone the `Arc` to serve the same
    /// preprocessed data from other threads via
    /// [`EngineCore::new_context`].
    pub fn core(&self) -> &Arc<EngineCore> {
        &self.core
    }

    /// The source vertex whose distances the engine serves.
    pub fn source(&self) -> VertexId {
        self.core.primary_source()
    }

    /// The structure the engine was built from.
    pub fn structure(&self) -> &FtBfsStructure {
        self.core.structure()
    }

    /// The parent graph the engine was built from.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Query counters accumulated since construction (sharded batch work
    /// included).
    pub fn query_stats(&self) -> QueryStats {
        self.ctx.stats()
    }

    /// Attach engine metric handles to the facade's context (see
    /// [`QueryContext::attach_obs`]). Sharded batch workers spawn fresh
    /// contexts and stay uninstrumented; the whole batch is still observed
    /// as one entry-point window through the merged worker counters.
    pub fn attach_obs(&mut self, obs: std::sync::Arc<super::EngineObs>) {
        self.ctx.attach_obs(obs);
    }

    /// Fault-free distance `dist(s, v, G)` (`None` if `v` is unreachable).
    pub fn fault_free_dist(&self, v: VertexId) -> Result<Option<u32>, FtbfsError> {
        self.core.check_vertex(v)?;
        Ok(self.core.fault_free_dist_slot(0, v))
    }

    /// Post-failure distance `dist(s, v, G ∖ {e})`.
    ///
    /// Returns `Ok(None)` when the failure disconnects `v` from the source.
    ///
    /// # Errors
    ///
    /// [`FtbfsError::VertexOutOfRange`] / [`FtbfsError::EdgeOutOfRange`] for
    /// ids outside the engine's graph.
    pub fn dist_after_fault(&mut self, v: VertexId, e: EdgeId) -> Result<Option<u32>, FtbfsError> {
        self.ctx.dist_after_fault(&self.core, v, e)
    }

    /// Post-failure distance `dist(s, v, G ∖ F)` for an arbitrary fault set
    /// of edges and vertices.
    ///
    /// Returns `Ok(None)` when the faults disconnect `v` — in particular
    /// whenever `F` contains `v` itself or the source. A set that is exactly
    /// one non-reinforced structure edge is served by the paper's sparse
    /// structure; every other set is answered exactly over `G ∖ F`, by the
    /// augmented tier or a row repaired over the full graph (see the
    /// [module docs](super)).
    ///
    /// # Errors
    ///
    /// [`FtbfsError::VertexOutOfRange`] for a bad query vertex,
    /// [`FtbfsError::InvalidFault`] / [`FtbfsError::FaultSetTooLarge`] for a
    /// bad fault set.
    pub fn dist_after_faults(
        &mut self,
        v: VertexId,
        faults: &FaultSet,
    ) -> Result<Option<u32>, FtbfsError> {
        self.ctx.dist_after_faults(&self.core, v, faults)
    }

    /// One-to-many post-failure distances from the source to every vertex
    /// in `targets` under one shared fault set, in input order (`None`
    /// marks a disconnected target).
    ///
    /// The whole set shares one batched unaffected classification and at
    /// most one search (a target-restricted sweep or one amortised row) —
    /// see [`QueryContext::dist_many_after_faults`]. Results are
    /// byte-identical to `targets.len()` separate
    /// [`FaultQueryEngine::dist_after_faults`] calls. Errors as
    /// [`FaultQueryEngine::dist_after_faults`].
    pub fn dist_many_after_faults(
        &mut self,
        targets: &[VertexId],
        faults: &FaultSet,
    ) -> Result<Vec<Option<u32>>, FtbfsError> {
        self.ctx.dist_many_after_faults(&self.core, targets, faults)
    }

    /// A concrete post-failure shortest path from the source to `v` in
    /// `G ∖ {e}`, or `Ok(None)` when the failure disconnects `v`. See
    /// [`QueryContext::path_after_fault`].
    pub fn path_after_fault(&mut self, v: VertexId, e: EdgeId) -> Result<Option<Path>, FtbfsError> {
        self.ctx.path_after_fault(&self.core, v, e)
    }

    /// A concrete post-failure shortest path from the source to `v` in
    /// `G ∖ F`, avoiding every failed edge and vertex, or `Ok(None)` when
    /// the faults disconnect `v`. Errors as
    /// [`FaultQueryEngine::dist_after_faults`].
    pub fn path_after_faults(
        &mut self,
        v: VertexId,
        faults: &FaultSet,
    ) -> Result<Option<Path>, FtbfsError> {
        self.ctx.path_after_faults(&self.core, v, faults)
    }

    /// Answer a batch of `(vertex, failing edge)` queries.
    ///
    /// The batch is grouped by failing edge, so each distinct failure
    /// triggers at most one BFS per worker regardless of how many vertices
    /// are probed against it; groups needing a BFS are sharded across
    /// [`EngineOptions::parallel`] worker threads, each with its own
    /// context. Within a group, provably unaffected targets are answered
    /// by the fault-free fast path and the group's row — repaired
    /// incrementally, not fully re-swept — is only materialized when an
    /// affected target needs it. Results are returned in input order and
    /// are byte-identical to the serial path; `None` marks a disconnected
    /// vertex.
    pub fn query_many(
        &mut self,
        queries: &[(VertexId, EdgeId)],
    ) -> Result<Vec<Option<u32>>, FtbfsError> {
        self.ctx.check_core(&self.core)?;
        for &(v, e) in queries {
            self.core.check_vertex(v)?;
            self.core.check_edge(e)?;
        }
        let fault_sets: Vec<FaultSet> = queries.iter().map(|&(_, e)| FaultSet::from(e)).collect();
        let parallel = self.core.options().parallel.clone();
        let core = Arc::clone(&self.core);
        self.ctx.with_tier_obs(|ctx| {
            query_many_sharded(&core, ctx, &parallel, queries.len(), |i| {
                (0, queries[i].0, &fault_sets[i])
            })
        })
    }

    /// Answer a batch of `(vertex, fault set)` queries.
    ///
    /// Grouped by canonical fault set and sharded exactly like
    /// [`FaultQueryEngine::query_many`]; oversized groups (one hot fault
    /// probed by a large slice of the batch) are additionally split across
    /// workers so a skewed batch no longer serialises on one thread.
    pub fn query_many_faults(
        &mut self,
        queries: &[(VertexId, FaultSet)],
    ) -> Result<Vec<Option<u32>>, FtbfsError> {
        self.ctx.check_core(&self.core)?;
        for (v, faults) in queries {
            self.core.check_vertex(*v)?;
            self.core.check_fault_set(faults)?;
        }
        let parallel = self.core.options().parallel.clone();
        let core = Arc::clone(&self.core);
        self.ctx.with_tier_obs(|ctx| {
            query_many_sharded(&core, ctx, &parallel, queries.len(), |i| {
                (0, queries[i].0, &queries[i].1)
            })
        })
    }
}

/// One unit of sharded batch work: a contiguous range of the sorted index
/// order whose queries all share a source slot and fault set. Usually a
/// whole fault-group; oversized groups are split into several units (see
/// [`split_threshold`]).
struct WorkUnit {
    slot: usize,
    /// Range into the sorted index order.
    start: usize,
    end: usize,
}

/// Above this many queries, a single fault-group is split into multiple
/// work units so one hot fault cannot serialise a skewed batch on one
/// worker. Each unit re-resolves the group's row in its worker's context —
/// at most one extra BFS per worker that touches the fault (the LRU absorbs
/// the rest) in exchange for spreading the row lookups.
fn split_threshold(bfs_queries: usize, workers: usize) -> usize {
    const MIN_SPLIT: usize = 64;
    MIN_SPLIT.max(bfs_queries.div_ceil(4 * workers.max(1)))
}

/// The shared `query_many` orchestration of both facades (and, with a
/// serial `parallel`, of [`QueryContext::query_many`]).
///
/// `query_at` maps a batch index to `(source slot, vertex, fault set)`; the
/// **caller validates** slots, vertices and fault sets before calling.
/// Queries are grouped by (slot, canonical fault set), distance-preserving
/// groups (every fault an edge outside `H`) are answered inline from the
/// core's rows, and the remaining groups — each needing one BFS per worker
/// that touches it — are sharded over `parallel` workers, one fresh context
/// per worker, with oversized groups split across several units. Results
/// land in input order; worker counters are merged into `ctx` so the
/// caller's stats stay complete.
pub(super) fn query_many_sharded<'q, Q>(
    core: &EngineCore,
    ctx: &mut QueryContext,
    parallel: &ftb_par::ParallelConfig,
    len: usize,
    query_at: Q,
) -> Result<Vec<Option<u32>>, FtbfsError>
where
    Q: Fn(usize) -> (usize, VertexId, &'q FaultSet) + Sync,
{
    let mut order: Vec<u32> = (0..len as u32).collect();
    order.sort_by(|&a, &b| {
        let (slot_a, _, f_a) = query_at(a as usize);
        let (slot_b, _, f_b) = query_at(b as usize);
        (slot_a, f_a).cmp(&(slot_b, f_b))
    });

    // Cut the sorted order into (slot, fault set) groups.
    let mut groups: Vec<WorkUnit> = Vec::new();
    for (pos, &qi) in order.iter().enumerate() {
        let (slot, _, faults) = query_at(qi as usize);
        let same = match groups.last() {
            Some(g) => {
                let (pslot, _, pfaults) = query_at(order[g.start] as usize);
                pslot == slot && pfaults == faults
            }
            None => false,
        };
        match groups.last_mut() {
            Some(g) if same => g.end = pos + 1,
            _ => groups.push(WorkUnit {
                slot,
                start: pos,
                end: pos + 1,
            }),
        }
    }

    let mut results = vec![None; len];
    // Fault-free-routed groups (every fault an edge outside H) read
    // straight off the core's preprocessed rows — no BFS, no sharding
    // needed. Routing goes through the same `route` function as single
    // queries so the two paths can never drift apart.
    let mut inline = QueryStats::default();
    let mut bfs_units: Vec<WorkUnit> = Vec::new();
    for g in groups {
        let (_, _, faults) = query_at(order[g.start] as usize);
        if core.route(faults) != super::Tier::FaultFree {
            bfs_units.push(g);
            continue;
        }
        let (dist, _) = core.fault_free_row(g.slot);
        for &qi in &order[g.start..g.end] {
            let (_, v, _) = query_at(qi as usize);
            results[qi as usize] = finite(dist[v.index()]);
        }
        inline.queries += g.end - g.start;
        inline.cached_answers += g.end - g.start;
        inline.tiers.fault_free_row += g.end - g.start;
    }
    ctx.merge_stats(&inline);

    // Shard the BFS units: each is one BFS (in its worker's context) plus
    // its row lookups, so chunk size 1 balances skew between cheap and
    // expensive failures.
    let parallel = parallel.clone().with_chunk_size(1);
    if parallel.is_serial() {
        for g in &bfs_units {
            for &qi in &order[g.start..g.end] {
                let (slot, v, faults) = query_at(qi as usize);
                results[qi as usize] = ctx.answer_unchecked(core, slot, v, faults);
            }
        }
        return Ok(results);
    }

    // Split oversized groups so a single hot fault is shared by several
    // workers instead of serialising on one. This must happen before the
    // too-little-work bailout below: the skewed extreme — every BFS query
    // in the batch naming one fault — is exactly one group.
    let bfs_queries: usize = bfs_units.iter().map(|g| g.end - g.start).sum();
    let threshold = split_threshold(bfs_queries, parallel.threads());
    let mut units: Vec<WorkUnit> = Vec::with_capacity(bfs_units.len());
    for g in bfs_units {
        let mut start = g.start;
        while g.end - start > threshold {
            units.push(WorkUnit {
                slot: g.slot,
                start,
                end: start + threshold,
            });
            start += threshold;
        }
        units.push(WorkUnit {
            slot: g.slot,
            start,
            end: g.end,
        });
    }

    // Not enough independent units to pay for worker spawn-up.
    if units.len() < 2 {
        for g in &units {
            for &qi in &order[g.start..g.end] {
                let (slot, v, faults) = query_at(qi as usize);
                results[qi as usize] = ctx.answer_unchecked(core, slot, v, faults);
            }
        }
        return Ok(results);
    }

    let sharded = parallel_map_init(
        &parallel,
        units.len(),
        || (core.new_context(), QueryStats::default()),
        |(wctx, seen), gi| {
            let g = &units[gi];
            let mut answers: Vec<(u32, Option<u32>)> = Vec::with_capacity(g.end - g.start);
            for &qi in &order[g.start..g.end] {
                let (slot, v, faults) = query_at(qi as usize);
                answers.push((qi, wctx.answer_unchecked(core, slot, v, faults)));
            }
            // Report only this unit's counter increments; the worker
            // context (and its running totals) persists across units.
            let total = wctx.stats();
            let delta = total.delta_since(seen);
            *seen = total;
            (answers, delta)
        },
    );
    for (answers, delta) in sharded {
        for (qi, d) in answers {
            results[qi as usize] = d;
        }
        ctx.merge_stats(&delta);
    }
    Ok(results)
}
