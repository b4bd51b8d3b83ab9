//! Engine-side observability: per-tier latency histograms and per-stage
//! timing breakdowns, recorded by [`QueryContext`](super::QueryContext)
//! when an [`EngineObs`] is attached and `ftb_obs` sampling is on.
//!
//! # Where the clock is read
//!
//! Queries on the fast tiers resolve in a few hundred nanoseconds — the
//! same order as an `Instant::now()` pair — so the engine **never** wraps
//! an individual tier lookup in its own clock reads. Instead, timing
//! happens at the *public entry points* (one clock pair per call, however
//! many targets the call answers) and the elapsed time is attributed to
//! tiers proportionally:
//!
//! * The entry captures the context's [`TierCounters`](super::TierCounters)
//!   before and after the call; the per-tier *delta* says exactly how many
//!   answers each tier produced.
//! * Each tier histogram receives `elapsed / total` once per answer
//!   ([`Histogram::record_n`]), so **histogram sample counts always equal
//!   the tier-counter deltas** — the counter-consistency invariant the
//!   observability suite asserts — and the histogram sums add up to the
//!   measured wall time (up to integer division).
//!
//! Stage histograms time the amortised, µs-scale phases only: the batched
//! interval classification, the restricted sweep, and the row
//! materialisation paths (repair or full sweep) on cache misses. Their
//! spans nest inside the entry-point window, so per-call stage sums never
//! exceed the measured wall time. Purely fast-path calls (every answer
//! from the unaffected fast path) reuse the already-measured window for
//! the `unaffected_fast_path` stage instead of reading the clock again.
//!
//! Sharded batch facades hand work to per-worker contexts created fresh
//! per batch; those contexts carry no `EngineObs` and are deliberately
//! uninstrumented (the serving stack times whole requests at the server
//! layer instead).

use ftb_obs::{Histogram, Registry};
use std::fmt;
use std::sync::Arc;

/// Metric name of the per-tier latency histograms.
pub const TIER_LATENCY_METRIC: &str = "ftb_query_tier_latency_seconds";
/// Metric name of the per-stage timing histograms.
pub const STAGE_SECONDS_METRIC: &str = "ftb_query_stage_seconds";

/// The engine's metric handles: six per-tier latency histograms (one per
/// [`TierCounters`](super::TierCounters) field) and five per-stage timing
/// histograms. Attach one to a [`QueryContext`](super::QueryContext) with
/// [`attach_obs`](super::QueryContext::attach_obs); recording only happens
/// while [`ftb_obs::sampling_enabled`] is on.
pub struct EngineObs {
    /// `tier="fault_free_row"` — answered from the preprocessed row.
    pub tier_fault_free_row: Arc<Histogram>,
    /// `tier="unaffected_fast_path"` — targeted `O(|F|)` fast path.
    pub tier_unaffected_fast_path: Arc<Histogram>,
    /// `tier="batched_unaffected"` — one-to-many interval classification.
    pub tier_batched_unaffected: Arc<Histogram>,
    /// `tier="sparse_h_bfs"` — rows over `H ∖ {e}`.
    pub tier_sparse_h_bfs: Arc<Histogram>,
    /// `tier="augmented_bfs"` — rows over `H⁺ ∖ F`.
    pub tier_augmented_bfs: Arc<Histogram>,
    /// `tier="full_graph_bfs"` — rows over `G ∖ F`.
    pub tier_full_graph_bfs: Arc<Histogram>,

    /// `stage="classify"` — the one-to-many interval classification.
    pub stage_classify: Arc<Histogram>,
    /// `stage="unaffected_fast_path"` — whole calls answered purely by the
    /// fast path (window reused from the entry-point measurement).
    pub stage_unaffected_fast_path: Arc<Histogram>,
    /// `stage="restricted_sweep"` — target-restricted repair sweeps.
    pub stage_restricted_sweep: Arc<Histogram>,
    /// `stage="row_repair"` — incremental row repairs on cache misses.
    pub stage_row_repair: Arc<Histogram>,
    /// `stage="full_sweep"` — full sweeps on cache misses (only under
    /// `force_full_sweep`).
    pub stage_full_sweep: Arc<Histogram>,
}

impl EngineObs {
    /// Register the engine's metric families in `registry` (get-or-register:
    /// repeated calls share the same cells) and return the handle bundle.
    pub fn register(registry: &Registry) -> Arc<EngineObs> {
        let tier_help = "Per-answer latency by routing tier (entry-point wall \
                         time attributed evenly across the answers of a call)";
        let tier = |t: &str| registry.histogram(TIER_LATENCY_METRIC, tier_help, &[("tier", t)]);
        let stage_help = "Wall time of amortised engine stages (classification, \
                          restricted sweeps, row materialisation)";
        let stage = |s: &str| registry.histogram(STAGE_SECONDS_METRIC, stage_help, &[("stage", s)]);
        Arc::new(EngineObs {
            tier_fault_free_row: tier("fault_free_row"),
            tier_unaffected_fast_path: tier("unaffected_fast_path"),
            tier_batched_unaffected: tier("batched_unaffected"),
            tier_sparse_h_bfs: tier("sparse_h_bfs"),
            tier_augmented_bfs: tier("augmented_bfs"),
            tier_full_graph_bfs: tier("full_graph_bfs"),
            stage_classify: stage("classify"),
            stage_unaffected_fast_path: stage("unaffected_fast_path"),
            stage_restricted_sweep: stage("restricted_sweep"),
            stage_row_repair: stage("row_repair"),
            stage_full_sweep: stage("full_sweep"),
        })
    }

    /// Free-standing handles not tied to any registry — for tests and
    /// overhead measurement, where the histograms are inspected directly.
    pub fn detached() -> Arc<EngineObs> {
        let h = || Arc::new(Histogram::new());
        Arc::new(EngineObs {
            tier_fault_free_row: h(),
            tier_unaffected_fast_path: h(),
            tier_batched_unaffected: h(),
            tier_sparse_h_bfs: h(),
            tier_augmented_bfs: h(),
            tier_full_graph_bfs: h(),
            stage_classify: h(),
            stage_unaffected_fast_path: h(),
            stage_restricted_sweep: h(),
            stage_row_repair: h(),
            stage_full_sweep: h(),
        })
    }

    /// Total samples across the six tier histograms (equals the number of
    /// answers produced while sampling was on — the counter-consistency
    /// invariant).
    pub fn tier_sample_count(&self) -> u64 {
        self.tier_fault_free_row.count()
            + self.tier_unaffected_fast_path.count()
            + self.tier_batched_unaffected.count()
            + self.tier_sparse_h_bfs.count()
            + self.tier_augmented_bfs.count()
            + self.tier_full_graph_bfs.count()
    }

    /// Sum of recorded nanoseconds across the six tier histograms (the
    /// measured entry-point wall time, up to per-answer integer division).
    pub fn tier_sample_sum(&self) -> u64 {
        self.tier_fault_free_row.snapshot().sum()
            + self.tier_unaffected_fast_path.snapshot().sum()
            + self.tier_batched_unaffected.snapshot().sum()
            + self.tier_sparse_h_bfs.snapshot().sum()
            + self.tier_augmented_bfs.snapshot().sum()
            + self.tier_full_graph_bfs.snapshot().sum()
    }

    /// Sum of recorded nanoseconds across the five stage histograms.
    pub fn stage_sample_sum(&self) -> u64 {
        self.stage_classify.snapshot().sum()
            + self.stage_unaffected_fast_path.snapshot().sum()
            + self.stage_restricted_sweep.snapshot().sum()
            + self.stage_row_repair.snapshot().sum()
            + self.stage_full_sweep.snapshot().sum()
    }
}

impl fmt::Debug for EngineObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineObs")
            .field("tier_samples", &self.tier_sample_count())
            .finish_non_exhaustive()
    }
}
