//! Building the served engine, plainly or step by step, and the snapshot
//! preparation that runs in a child process.
//!
//! The snapshot workloads serve an engine loaded from a snapshot that the
//! code under test writes in this run: a child process (this binary with
//! `--prepare FILE`) builds the engine and saves it, so the build's memory
//! never shows in the serving process's peak RSS. Nothing is reused
//! between runs.

use crate::trace::{SpanRef, Tracer};
use ftb_core::{
    BuildConfig, EngineCore, EngineOptions, Sources, StructureBuilder, TradeoffBuilder,
};
use ftb_graph::Graph;
use ftb_rp::{InterferenceIndex, ReplacementPaths};
use ftb_server::{save_snapshot, EngineSpec};
use ftb_sp::{ReplacementDistances, ShortestPathTree, TieBreakWeights};
use ftb_tree::TreeIndex;
use ftb_workloads::WorkloadFamily;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// The served graph and structure: Erdős–Rényi, n = 2000, ε = 0.3. Fixed
/// for every workload and seed, so b(n) and r(n) are exact counts.
pub fn spec() -> EngineSpec {
    EngineSpec {
        family: WorkloadFamily::ErdosRenyi,
        n: 2000,
        seed: 7,
        eps: 0.3,
        augment: false,
    }
}

/// Wall times (seconds) and counts of one engine build.
///
/// `steps` holds the separately timed public calls of phase S0 and is
/// filled only by a traced build; the other fields are always set.
#[derive(Clone, Debug, Default)]
pub struct BuildTimes {
    /// `EngineSpec::graph`.
    pub graph_s: f64,
    /// `TradeoffBuilder::build` (or, untraced, the whole `build_core`).
    pub build_s: f64,
    /// Phases S1, S2 and reinforcement, from the build's `BuildStats`.
    pub s1_s: f64,
    pub s2_s: f64,
    pub reinforce_s: f64,
    /// `EngineCore::build_with` (traced builds only; 0 otherwise).
    pub assemble_s: f64,
    /// Replacement-path pairs and the uncovered ones (`BuildStats`).
    pub pairs: f64,
    pub uncovered_pairs: f64,
    /// Traced S0 steps, in order: `sp.tree_s`, `sp.replacement_distances_s`,
    /// `rp.pcons_s`, `rp.interference_s`.
    pub steps: Vec<(&'static str, f64)>,
}

/// Names of the traced S0 steps, in execution order.
pub const STEP_NAMES: [&str; 4] = [
    "sp.tree_s",
    "sp.replacement_distances_s",
    "rp.pcons_s",
    "rp.interference_s",
];

impl BuildTimes {
    /// The build time no separately timed step accounts for.
    pub fn unattributed_s(&self) -> f64 {
        let steps: f64 = self.steps.iter().map(|(_, s)| s).sum();
        self.build_s - steps - self.s1_s - self.s2_s - self.reinforce_s
    }

    fn fields(&self) -> Vec<(&'static str, f64)> {
        let mut out = vec![
            ("graph_s", self.graph_s),
            ("build_s", self.build_s),
            ("s1_s", self.s1_s),
            ("s2_s", self.s2_s),
            ("reinforce_s", self.reinforce_s),
            ("assemble_s", self.assemble_s),
            ("pairs", self.pairs),
            ("uncovered_pairs", self.uncovered_pairs),
        ];
        out.extend(self.steps.iter().copied());
        out
    }

    fn to_line(&self) -> String {
        let parts: Vec<String> = self
            .fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("PREP {}", parts.join(" "))
    }

    fn from_line(line: &str) -> Result<BuildTimes, String> {
        let mut t = BuildTimes::default();
        for part in line.split_whitespace().skip(1) {
            let (key, value) = part.split_once('=').ok_or("malformed PREP field")?;
            let v: f64 = value
                .parse()
                .map_err(|_| format!("bad PREP value {part:?}"))?;
            match key {
                "graph_s" => t.graph_s = v,
                "build_s" => t.build_s = v,
                "s1_s" => t.s1_s = v,
                "s2_s" => t.s2_s = v,
                "reinforce_s" => t.reinforce_s = v,
                "assemble_s" => t.assemble_s = v,
                "pairs" => t.pairs = v,
                "uncovered_pairs" => t.uncovered_pairs = v,
                other => match STEP_NAMES.iter().find(|&&n| n == other) {
                    Some(&name) => t.steps.push((name, v)),
                    None => return Err(format!("unknown PREP field {other:?}")),
                },
            }
        }
        Ok(t)
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Build the engine for `spec`.
///
/// Untraced, this is `EngineSpec::graph` then `EngineSpec::build_core`.
/// With a tracer, the same build is done through its parts, each inside a
/// span: the public S0 calls are timed one by one (their results are
/// discarded), then `TradeoffBuilder::build` runs the whole construction
/// and `EngineCore::build_with` assembles the engine, as `build_core` does.
pub fn build_engine(
    spec: &EngineSpec,
    tracer: Option<&mut Tracer>,
) -> Result<(Arc<EngineCore>, BuildTimes), String> {
    let Some(tr) = tracer else {
        let t = Instant::now();
        let graph = spec.graph();
        let graph_s = secs(t);
        let t = Instant::now();
        let core = spec
            .build_core(&graph, EngineOptions::new())
            .map_err(|e| format!("engine build failed: {e}"))?;
        let build_s = secs(t);
        let stats = core.structure().stats();
        let times = BuildTimes {
            graph_s,
            build_s,
            s1_s: stats.s1_ms / 1e3,
            s2_s: stats.s2_ms / 1e3,
            reinforce_s: stats.reinforce_ms / 1e3,
            pairs: stats.num_pairs as f64,
            uncovered_pairs: stats.num_uncovered_pairs as f64,
            ..BuildTimes::default()
        };
        return Ok((core, times));
    };

    let root = tr.open("setup.build", 0, None);
    let (graph, graph_s) = tr.time("workloads.graph", 0, Some(root), || spec.graph());
    // The S0 calls run once untimed first, so that they are timed on the
    // same warm heap `TradeoffBuilder::build` later runs them on; timed cold,
    // they read about 8% slower than inside the build.
    let _ = s0_steps(spec, &graph, &mut Tracer::new(), None);
    let [tree_s, rd_s, pcons_s, interference_s] = s0_steps(spec, &graph, tr, Some(root));

    let (structure, build_s) = tr.time("core.build", 0, Some(root), || {
        TradeoffBuilder::new(spec.eps)
            .with_config(|c| c.with_seed(spec.seed))
            .build(&graph, &Sources::single(spec.source()))
    });
    let structure = structure.map_err(|e| format!("structure build failed: {e}"))?;
    let stats = structure.stats().clone();
    let (core, assemble_s) = tr.time("engine.assemble", 0, Some(root), || {
        EngineCore::build_with(&graph, structure, EngineOptions::new())
    });
    let core = core.map_err(|e| format!("engine assembly failed: {e}"))?;
    tr.close(root);

    let times = BuildTimes {
        graph_s,
        build_s,
        s1_s: stats.s1_ms / 1e3,
        s2_s: stats.s2_ms / 1e3,
        reinforce_s: stats.reinforce_ms / 1e3,
        assemble_s,
        pairs: stats.num_pairs as f64,
        uncovered_pairs: stats.num_uncovered_pairs as f64,
        steps: STEP_NAMES
            .into_iter()
            .zip([tree_s, rd_s, pcons_s, interference_s])
            .collect(),
    };
    Ok((Arc::new(core), times))
}

/// Time the public phase-S0 calls one by one, each in a span under
/// `root`, discarding their results. Returns the seconds of
/// weights + tree, replacement distances, Pcons and interference.
fn s0_steps(spec: &EngineSpec, graph: &Graph, tr: &mut Tracer, root: Option<SpanRef>) -> [f64; 4] {
    let source = spec.source();
    let config = BuildConfig::new(spec.eps).with_seed(spec.seed);
    let ((weights, tree), tree_s) = tr.time("sp.tree", 0, root, || {
        let weights = TieBreakWeights::generate(graph, spec.seed);
        let tree = ShortestPathTree::build(graph, &weights, source);
        (weights, tree)
    });
    let (dists, rd_s) = tr.time("sp.replacement_distances", 0, root, || {
        ReplacementDistances::compute(graph, &tree, &config.parallel)
    });
    let (rp, pcons_s) = tr.time("rp.pcons", 0, root, || {
        ReplacementPaths::compute(graph, &weights, &tree, &dists, &config.parallel)
    });
    drop(dists);
    let tree_index = TreeIndex::build(&tree);
    // Timed with its I1/I2 split, as the build uses it.
    let (split, interference_s) = tr.time("rp.interference", 0, root, || {
        InterferenceIndex::build(&rp, &tree, &tree_index).split_i1_i2()
    });
    drop(split);
    drop((rp, tree_index, tree, weights));

    [tree_s, rd_s, pcons_s, interference_s]
}

/// Body of the `--prepare FILE` child: build the engine, save the snapshot
/// to `out`, and report the timings as one `PREP` line on stdout.
pub fn run_child(out: &Path, traced: bool) -> Result<(), String> {
    let spec = spec();
    let mut tracer = Tracer::new();
    let (core, times) = build_engine(&spec, traced.then_some(&mut tracer))?;
    save_snapshot(out, &core, &spec).map_err(|e| format!("saving snapshot: {e}"))?;
    println!("{}", times.to_line());
    Ok(())
}

/// Run the `--prepare` child for `out` and wait for it.
pub fn prepare_snapshot(out: &Path, traced: bool) -> Result<BuildTimes, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let output = Command::new(exe)
        .arg("--prepare")
        .arg(out)
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running snapshot preparation: {e}"))?;
    if !output.status.success() {
        return Err(format!("snapshot preparation failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("PREP "))
        .ok_or("snapshot preparation printed no PREP line")?;
    BuildTimes::from_line(line)
}
