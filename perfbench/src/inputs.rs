//! The workloads: seed-generated request lists, the guard on each
//! workload's defining input property, and the brute-force answers every
//! reply is checked against.

use ftb_core::{dist_after_faults_brute, EngineCore, EngineOptions, FaultSet};
use ftb_graph::{Graph, VertexId};
use ftb_server::{Request, Response, ServeOptions};
use ftb_sp::UNREACHABLE;
use ftb_workloads::FaultScenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One `Dist` per request under one uniform random failed edge, to a
    /// target spread evenly over the vertices; engine loaded from a
    /// snapshot.
    SingleFault,
    /// One `Dist` per request under a correlated two-vertex outage, to a
    /// target inside the affected region; engine built cold in set-up.
    OutageRepair,
    /// One 256-target `DistMany` per request under two failed BFS-tree
    /// edges; engine loaded from a snapshot.
    FanoutBatch,
}

/// Fault sets drawn for `outage-repair` before dropping those with no
/// affected target and duplicates.
const OUTAGE_DRAWS: usize = 4096;
/// Requests of `fanout-batch` and targets per request.
const FANOUT_REQUESTS: usize = 1024;
const FANOUT_TARGETS: usize = 256;

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 3] = [
        Workload::SingleFault,
        Workload::OutageRepair,
        Workload::FanoutBatch,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleFault => "single-fault",
            Workload::OutageRepair => "outage-repair",
            Workload::FanoutBatch => "fanout-batch",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` when the served engine is loaded from a snapshot; `false`
    /// when it is built cold in set-up.
    pub fn serves_snapshot(self) -> bool {
        self != Workload::OutageRepair
    }
}

/// A workload's generated requests with their expected replies.
pub struct Inputs {
    pub requests: Vec<Request>,
    pub expected: Vec<Response>,
    /// Distinct fault sets among the requests.
    pub distinct_fault_sets: usize,
    /// Share of (request, target) pairs that are provably unaffected.
    pub unaffected_share: f64,
    /// Targets per request.
    pub targets_per_request: usize,
}

fn engine_err(e: ftb_core::FtbfsError) -> String {
    format!("engine rejected a generated input: {e}")
}

/// Brute-force BFS distances from `source` under `faults`.
fn brute_row(graph: &Graph, source: VertexId, faults: &FaultSet) -> Vec<Option<u32>> {
    dist_after_faults_brute(graph, source, faults)
        .into_iter()
        .map(|d| (d != UNREACHABLE).then_some(d))
        .collect()
}

/// The brute-force reply to a `Dist` or `DistMany` request on `graph`.
pub fn brute_reply(graph: &Graph, request: &Request) -> Response {
    match request {
        Request::Dist {
            source,
            target,
            faults,
        } => Response::Dist(brute_row(graph, *source, faults)[target.index()]),
        Request::DistMany {
            source,
            targets,
            faults,
        } => {
            let row = brute_row(graph, *source, faults);
            Response::DistMany(targets.iter().map(|t| row[t.index()]).collect())
        }
        other => unreachable!("workloads only generate Dist and DistMany, not {other:?}"),
    }
}

/// Generate `workload`'s requests from `seed` and check its defining input
/// property on the served `core`. Every expected reply is computed by
/// brute force on `reference`, the graph regenerated from its recipe, so
/// the answers do not depend on the engine or the snapshot.
pub fn generate(
    workload: Workload,
    core: &EngineCore,
    reference: &Graph,
    seed: u64,
) -> Result<Inputs, String> {
    let graph = core.graph();
    let source = core.primary_source();
    let n = graph.num_vertices();
    // (fault set, targets) per request.
    let shaped: Vec<(FaultSet, Vec<VertexId>)> = match workload {
        Workload::SingleFault => {
            let count = 2 * n;
            FaultScenario::RandomEdges
                .generate(graph, source, 1, count, seed)
                .into_iter()
                .enumerate()
                .map(|(i, f)| (f, vec![VertexId::new(i % n)]))
                .collect()
        }
        Workload::OutageRepair => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0A7A_6E5E_ED00_0001);
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            for faults in
                FaultScenario::CorrelatedVertices.generate(graph, source, 2, OUTAGE_DRAWS, seed)
            {
                if !seen.insert(faults.clone()) {
                    continue;
                }
                let mut affected = Vec::new();
                for v in (0..n).map(VertexId::new) {
                    if !faults.contains_vertex(v)
                        && !core
                            .is_target_unaffected(source, v, &faults)
                            .map_err(engine_err)?
                    {
                        affected.push(v);
                    }
                }
                if !affected.is_empty() {
                    let target = affected[rng.random_range(0..affected.len())];
                    out.push((faults, vec![target]));
                }
            }
            out
        }
        Workload::FanoutBatch => FaultScenario::TreeConcentrated.generate_one_to_many(
            graph,
            source,
            2,
            FANOUT_TARGETS,
            FANOUT_REQUESTS,
            seed,
        ),
    };

    let mut unaffected = 0usize;
    let mut pairs = 0usize;
    for (faults, targets) in &shaped {
        for &t in targets {
            pairs += 1;
            if core
                .is_target_unaffected(source, t, faults)
                .map_err(engine_err)?
            {
                unaffected += 1;
            }
        }
    }
    let distinct_fault_sets = shaped.iter().map(|(f, _)| f).collect::<HashSet<_>>().len();
    let unaffected_share = unaffected as f64 / pairs.max(1) as f64;

    // The guard on each workload's defining input property, checked on the
    // inputs (never on the tier the engine happens to pick).
    match workload {
        Workload::SingleFault if unaffected_share < 0.99 => {
            return Err(format!(
                "single-fault guard: only {:.2}% of targets are provably unaffected (need >= 99%)",
                100.0 * unaffected_share
            ));
        }
        Workload::OutageRepair => {
            if unaffected > 0 {
                return Err(format!(
                    "outage-repair guard: {unaffected} targets are outside the affected region"
                ));
            }
            let rows = EngineOptions::DEFAULT_LRU_ROWS * ServeOptions::default().workers.max(1);
            if distinct_fault_sets < 10 * rows {
                return Err(format!(
                    "outage-repair guard: {distinct_fault_sets} distinct fault sets is not far \
                     above the {rows} LRU rows of the worker pool"
                ));
            }
        }
        _ => {}
    }

    let requests: Vec<Request> = shaped
        .into_iter()
        .map(|(faults, mut targets)| match workload {
            Workload::FanoutBatch => Request::DistMany {
                source,
                targets,
                faults,
            },
            _ => Request::Dist {
                source,
                target: targets.pop().expect("one target per request"),
                faults,
            },
        })
        .collect();
    let expected = requests.iter().map(|r| brute_reply(reference, r)).collect();
    let targets_per_request = match workload {
        Workload::FanoutBatch => FANOUT_TARGETS,
        _ => 1,
    };
    Ok(Inputs {
        requests,
        expected,
        distinct_fault_sets,
        unaffected_share,
        targets_per_request,
    })
}
