//! # ftbfs — Fault Tolerant BFS Structures: A Reinforcement–Backup Tradeoff
//!
//! Facade crate re-exporting the whole reproduction suite of
//! Parter & Peleg, *Fault Tolerant BFS Structures: A Reinforcement-Backup
//! Tradeoff* (SPAA 2015):
//!
//! * [`graph`] — the CSR graph substrate,
//! * [`par`] — scoped-thread data-parallel helpers,
//! * [`sp`] — unique shortest paths, BFS trees, replacement distances,
//! * [`tree`] — LCA, heavy-path decomposition, path segmentation,
//! * [`rp`] — Algorithm `Pcons` and interference analysis,
//! * [`core`] — builders, the fault-query engine, the verifier, the cost
//!   model and multi-source structures,
//! * [`lower_bounds`] — the Theorem 5.1 / 5.4 lower-bound families,
//! * [`workloads`] — deterministic experiment workloads.
//!
//! # Building a structure
//!
//! Every construction strategy implements [`StructureBuilder`]; pick one,
//! configure it fluently, and build:
//!
//! ```
//! use ftbfs::graph::{generators, VertexId};
//! use ftbfs::{Sources, StructureBuilder, TradeoffBuilder};
//!
//! let g = generators::hypercube(4);
//! let structure = TradeoffBuilder::new(0.3)
//!     .with_config(|c| c.with_seed(7))
//!     .build(&g, &Sources::single(VertexId(0)))
//!     .expect("hypercube input is valid");
//! assert_eq!(
//!     structure.num_backup() + structure.num_reinforced(),
//!     structure.num_edges()
//! );
//! ```
//!
//! Invalid input surfaces as a typed [`FtbfsError`] instead of a panic:
//!
//! ```
//! use ftbfs::graph::{generators, VertexId};
//! use ftbfs::{FtbfsError, Sources, StructureBuilder, TradeoffBuilder};
//!
//! let g = generators::hypercube(3);
//! let err = TradeoffBuilder::new(1.5)
//!     .build(&g, &Sources::single(VertexId(0)))
//!     .unwrap_err();
//! assert!(matches!(err, FtbfsError::InvalidEps { .. }));
//! ```
//!
//! # Serving queries
//!
//! Preprocess once into a [`FaultQueryEngine`], then answer many
//! post-failure distance/path queries with no per-query allocation:
//!
//! ```
//! use ftbfs::graph::{generators, VertexId};
//! use ftbfs::{FaultQueryEngine, Sources, StructureBuilder, TradeoffBuilder};
//!
//! let g = generators::cycle(8);
//! let structure = TradeoffBuilder::new(0.3)
//!     .build(&g, &Sources::single(VertexId(0)))
//!     .expect("valid input");
//! let mut engine = FaultQueryEngine::new(&g, structure).expect("matching graph");
//! for e in g.edge_ids() {
//!     // a single failure never disconnects a cycle
//!     assert!(engine.dist_after_fault(VertexId(4), e).unwrap().is_some());
//! }
//! ```
//!
//! # Migrating from the 0.1 free functions
//!
//! The 0.1 free functions, which panicked on invalid input, are gone. Each
//! has a builder that reports invalid input as an [`FtbfsError`] value:
//!
//! | 0.1 function              | replacement                                      |
//! |---------------------------|--------------------------------------------------|
//! | `build_ft_bfs`            | [`TradeoffBuilder`] / [`core::try_build_ft_bfs`] |
//! | `build_ft_bfs_with_eps`   | [`TradeoffBuilder::new`]                         |
//! | `build_baseline_ftbfs`    | [`BaselineBuilder`]                              |
//! | `build_reinforced_tree`   | [`ReinforcedTreeBuilder`]                        |
//! | `build_ft_mbfs`           | [`MultiSourceBuilder`]                           |
//!
//! Validation is stricter than in 0.1: inputs the old code silently
//! tolerated (e.g. `eps = 2.0`, which ran the baseline branch) are
//! rejected:
//!
//! ```
//! use ftbfs::graph::{generators, VertexId};
//! use ftbfs::{FtbfsError, Sources, StructureBuilder, TradeoffBuilder};
//!
//! let g = generators::hypercube(4);
//! let source = Sources::single(VertexId(0));
//! let structure = TradeoffBuilder::new(0.3)
//!     .build(&g, &source)
//!     .expect("valid input");
//! assert!(structure.num_backup() + structure.num_reinforced() == structure.num_edges());
//! let bad = TradeoffBuilder::new(2.0).build(&g, &source);
//! assert!(matches!(bad, Err(FtbfsError::InvalidEps { .. })));
//! ```

#![forbid(unsafe_code)]

pub use ftb_core as core;
pub use ftb_graph as graph;
pub use ftb_lower_bounds as lower_bounds;
pub use ftb_obs as obs;
pub use ftb_par as par;
pub use ftb_rp as rp;
pub use ftb_sp as sp;
pub use ftb_tree as tree;
pub use ftb_workloads as workloads;

pub use ftb_core::{
    build_augmented_structure, build_structure, cross_check_fault_sets, dist_after_faults_brute,
    verify_structure, AugmentCoverage, AugmentStats, AugmentedStructure, BaselineBuilder,
    BuildConfig, BuildPlan, BuildStats, CostModel, EngineCore, EngineOptions, Fault,
    FaultQueryEngine, FaultSet, FaultSetMismatch, FtBfsAugmenter, FtBfsStructure, FtbfsError,
    MultiSourceBuilder, MultiSourceEngine, MultiSourceStructure, QueryContext, QueryStats,
    ReinforcedTreeBuilder, Sources, StructureBuilder, TierCounters, TradeoffBuilder,
    FORCE_FULL_SWEEP_ENV,
};

pub use ftb_core::EngineObs;

pub use ftb_core::{
    try_build_baseline_ftbfs, try_build_ft_bfs, try_build_ft_mbfs, try_build_reinforced_tree,
};

pub use ftb_core::{SnapshotError, SnapshotStore, SNAPSHOT_FORMAT_VERSION};
