//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload single-fault|outage-repair|fanout-batch \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! One process loads (or builds) an `EngineCore`, serves it with
//! `Server::bind` on loopback under default `ServeOptions`, and drives it
//! from one client thread over one `Client` connection in a closed loop:
//! the next request is sent only when the previous reply has arrived.
//! Every reply is checked against brute-force BFS. A run replays whole
//! passes of a fixed, seed-generated request list after a warm-up pass;
//! the number of passes is fixed from the warm-up pass's time before
//! measuring starts, so a run never stops part-way through a pass. The
//! gated latency is the median over the requests of each request's
//! lower-quartile round trip across the passes
//! ([`drive::Passes::typical_ns`]).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` makes the traced
//! run, which times the calls into each layer from outside and prints the
//! per-layer metrics and a per-layer table, and writes the spans to
//! `.bench_build/perfbench-run/spans-<workload>.jsonl`. The last line of
//! stdout is always the JSON result; the exit code is non-zero on any
//! failed operation.

mod drive;
mod inputs;
mod prep;
mod sysinfo;
mod trace;

use drive::{quantile, SteppedConn, Tally};
use ftb_core::{verify_structure, EngineCore, EngineOptions, FaultSet};
use ftb_graph::{Graph, VertexId};
use ftb_par::ParallelConfig;
use ftb_server::{load_snapshot, save_snapshot, Client, Request, Response, ServeOptions, Server};
use ftb_sp::{ShortestPathTree, TieBreakWeights};
use inputs::{Inputs, Workload};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Scratch directory for snapshots and span files, relative to the
/// directory the benchmark runs from.
const WORK_DIR: &str = ".bench_build/perfbench-run";
/// Set-up repetitions; `setup_s` is their median. A snapshot load takes a
/// few milliseconds and varies 4× between single timings; a cold build
/// takes seconds. A traced run reports no `setup_s` and sets up once.
const SNAPSHOT_SETUP_REPS: usize = 15;
const COLD_SETUP_REPS: usize = 3;
/// Pause between bind and the first connection, excluded from `setup_s`.
/// It lets the server's accept loop reach its poll sleep first, so the
/// first answer always waits out the rest of one accept tick instead of
/// racing the accept thread's start, a race that makes single timings
/// bimodal.
const ACCEPT_SETTLE: Duration = Duration::from_millis(2);
/// Requests replayed with tracing on, and as many untraced (rounded up to
/// whole passes).
const TRACED_REQUESTS: usize = 16_384;
/// `Stats` round trips timed for `server.floor_us`.
const FLOOR_ROUNDS: usize = 2_000;
/// Save/load repetitions timed for the snapshot layer.
const SNAPSHOT_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    /// Internal: build the engine and save it as a snapshot to this file.
    Prepare {
        out: PathBuf,
        trace: bool,
    },
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut prepare = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?} (expected one of: {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--prepare" => prepare = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(out) = prepare {
        return Ok(Mode::Prepare { out, trace });
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    }))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count behind a timing, printed with it.
    samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        samples: Some(samples),
        ..metric(name, value, unit)
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Bind a server for `core`, connect, and send `probe`: the last steps
/// of set-up. Returns the server, the probe's reply and the set-up time
/// since `started`; the set-up connection is closed.
fn start_serving(
    core: Arc<EngineCore>,
    probe: &Request,
    started: Instant,
) -> Result<(Server, Response, f64), String> {
    let server = Server::bind("127.0.0.1:0", core, ServeOptions::default())
        .map_err(|e| format!("binding the server: {e}"))?;
    let settle = Instant::now();
    std::thread::sleep(ACCEPT_SETTLE);
    let paused = settle.elapsed();
    let mut client =
        Client::connect(server.local_addr()).map_err(|e| format!("connecting: {e}"))?;
    let reply = client
        .request(probe)
        .map_err(|e| format!("set-up probe: {e}"))?;
    let setup_s = (started.elapsed() - paused).as_secs_f64();
    Ok((server, reply, setup_s))
}

/// Shut the server down and join its threads.
fn stop_serving(server: Server) -> Result<(), String> {
    server.shutdown();
    server
        .join()
        .map_err(|e| format!("joining the server: {e}"))
}

/// The set-up probe: a fault-free distance to the last vertex. Its answer
/// is checked against brute force once the set-up time is taken.
fn probe_request() -> Request {
    let spec = prep::spec();
    Request::Dist {
        source: spec.source(),
        target: VertexId::new(spec.n - 1),
        faults: FaultSet::new(),
    }
}

fn check_probe(reference: &Graph, probe: &Request, replies: &[Response], tally: &mut Tally) {
    let expected = inputs::brute_reply(reference, probe);
    for reply in replies {
        tally.attempted += 1;
        if *reply != expected {
            eprintln!("perfbench: set-up probe answered {reply:?}, expected {expected:?}");
            tally.failed += 1;
        }
    }
}

/// Sum and count of one server histogram in a `Client::metrics_json`
/// payload.
fn histogram(json: &str, name: &str) -> Result<(f64, f64), String> {
    let body = json
        .split_once(&format!("\"{name}\": {{"))
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("server metrics have no {name}"))?;
    let field = |key: &str| -> Result<f64, String> {
        body.split_once(&format!("\"{key}\":"))
            .and_then(|(_, rest)| rest.split([',', '}']).next())
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("server metric {name} has no {key}"))
    };
    Ok((field("sum_seconds")?, field("count")?))
}

/// Mean per-job microseconds of a server histogram between two scrapes.
fn histogram_mean_us(before: &str, after: &str, name: &str) -> Result<f64, String> {
    let (s0, c0) = histogram(before, name)?;
    let (s1, c1) = histogram(after, name)?;
    Ok((s1 - s0) / (c1 - c0).max(1.0) * 1e6)
}

/// Check the cold-built structure with the exact verifier.
fn verify_cold_build(core: &EngineCore) -> Result<(), String> {
    let spec = prep::spec();
    let graph = core.graph();
    let weights = TieBreakWeights::generate(graph, spec.seed);
    let tree = ShortestPathTree::build(graph, &weights, core.primary_source());
    let report = verify_structure(
        graph,
        &tree,
        core.structure(),
        &ParallelConfig::default(),
        false,
    );
    if report.is_valid() {
        Ok(())
    } else {
        Err(format!(
            "verify_structure: {} violations over {} checked edges",
            report.violations.len(),
            report.checked_edges
        ))
    }
}

/// Median save and load times of the served engine's snapshot, and its
/// size in bytes.
fn snapshot_layer(core: &EngineCore, path: &Path, tr: &mut Tracer) -> Result<[f64; 3], String> {
    let spec = prep::spec();
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for rep in 0..SNAPSHOT_REPS as u64 {
        let (saved, w) = tr.time("snapshot.write", rep, None, || {
            save_snapshot(path, core, &spec)
        });
        saved.map_err(|e| format!("saving snapshot: {e}"))?;
        let (loaded, r) = tr.time("snapshot.read", rep, None, || {
            load_snapshot(path, EngineOptions::new())
        });
        loaded.map_err(|e| format!("loading snapshot: {e}"))?;
        writes.push(w);
        reads.push(r);
    }
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("snapshot size: {e}"))?
        .len() as f64;
    let _ = std::fs::remove_file(path);
    Ok([median(&mut reads), median(&mut writes), bytes])
}

struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
    /// Printed with the metrics, left out of the JSON result.
    info: Vec<Metric>,
}

fn run(args: &Args) -> Result<Report, String> {
    let work = Path::new(WORK_DIR);
    std::fs::create_dir_all(work).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    let name = args.workload.name();
    let tag = format!("{name}-{}", std::process::id());
    let started = Instant::now();
    let log = |what: &str| {
        eprintln!(
            "perfbench: {what} at {:.1} s",
            started.elapsed().as_secs_f64()
        )
    };
    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let probe = probe_request();

    // --- Set-up: from start to the first correct answer. ---------------
    // The snapshot workloads first prepare the snapshot, untimed: the code
    // under test writes it in a child process, fresh for every run.
    let snapshot = work.join(format!("{tag}.ftbsnap"));
    let mut build = if args.workload.serves_snapshot() {
        let build = prep::prepare_snapshot(&snapshot, args.trace)?;
        log("snapshot prepared");
        build
    } else {
        prep::BuildTimes::default()
    };
    let reps = if args.trace {
        1
    } else if args.workload.serves_snapshot() {
        SNAPSHOT_SETUP_REPS
    } else {
        COLD_SETUP_REPS
    };
    let mut setup_s = Vec::new();
    let mut probe_replies = Vec::new();
    let mut kept: Option<(Arc<EngineCore>, Server)> = None;
    for _ in 0..reps {
        if let Some((_, server)) = kept.take() {
            stop_serving(server)?;
        }
        let started = Instant::now();
        let core = if args.workload.serves_snapshot() {
            load_snapshot(&snapshot, EngineOptions::new())
                .map_err(|e| e.to_string())?
                .0
        } else {
            let (core, times) = prep::build_engine(&prep::spec(), args.trace.then_some(&mut tr))?;
            build = times;
            core
        };
        let (server, reply, secs) = start_serving(Arc::clone(&core), &probe, started)?;
        setup_s.push(secs);
        probe_replies.push(reply);
        kept = Some((core, server));
    }
    let _ = std::fs::remove_file(&snapshot);
    let (core, server) = kept.expect("at least one set-up repetition");
    log("set up");
    if !args.workload.serves_snapshot() {
        verify_cold_build(&core)?;
        log("cold-built structure verified");
    }
    let reference = prep::spec().graph();
    let inputs = inputs::generate(args.workload, &core, &reference, args.seed)?;
    log("inputs generated");
    check_probe(&reference, &probe, &probe_replies, &mut tally);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;

    // --- Warm-up pass; it fixes the number of measured passes. ----------
    let warm = drive::run_passes(&mut client, &inputs, 1)?;
    tally.add(warm.tally);
    // Read before the measured passes, whose latency buffers grow with the
    // number of round trips and would tie the figure to the host's speed.
    let peak_rss_mb = sysinfo::peak_rss_mb()?;
    let warm_s = warm.wall_s;
    let passes = ((args.seconds / warm_s).ceil() as usize).clamp(3, 1_000_000);
    log(&format!("warm-up pass done; measuring {passes} passes"));

    let (metrics, info) = if !args.trace {
        let m = drive::run_passes(&mut client, &inputs, passes)?;
        tally.add(m.tally);
        let e2e = m.summary();
        let n = e2e.samples;
        let metrics = vec![
            sampled("latency_us", e2e.typical_us, "us", n),
            sampled("cpu_us_per_req", e2e.cpu_us_per_req, "us", n),
            sampled("setup_s", median(&mut setup_s), "s", setup_s.len()),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
            metric(
                "backup_edges",
                core.structure().num_backup() as f64,
                "edges",
            ),
        ];
        // Printed with the metrics but left out of the result: pooled over
        // every round trip, these move with the share of the run the host
        // was slow or stealing far more than any bound could allow.
        let info = vec![
            sampled("latency_p50_us", e2e.p50_us, "us", n),
            sampled("latency_p90_us", e2e.p90_us, "us", n),
            sampled("latency_p99_us", e2e.p99_us, "us", n),
            sampled("throughput_rps", e2e.rps, "1/s", n),
        ];
        (metrics, info)
    } else {
        let snapshot_path = work.join(format!("{tag}-layer.ftbsnap"));
        let layers = Layers {
            core: &core,
            build: &build,
            inputs: &inputs,
            addr,
            snapshot_path: &snapshot_path,
        };
        let metrics = traced_run(args, &layers, &mut client, &mut tr, &mut tally)?;
        (metrics, Vec::new())
    };
    drop(client);
    stop_serving(server)?;
    if args.trace {
        let path = work.join(format!("spans-{name}.jsonl"));
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {} written to {}", tr.len(), path.display());
    }
    log("done");
    Ok(Report {
        tally,
        metrics,
        info,
    })
}

/// What the traced run measures.
struct Layers<'a> {
    core: &'a EngineCore,
    build: &'a prep::BuildTimes,
    inputs: &'a Inputs,
    addr: SocketAddr,
    snapshot_path: &'a Path,
}

/// The traced run: an untraced reference, traced passes with every client
/// step spanned, the server floor and registry deltas, the in-process
/// engine replay, the snapshot layer and the build layers. Prints the
/// per-layer table and returns the per-layer metrics.
fn traced_run(
    args: &Args,
    layers: &Layers,
    client: &mut Client,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let Layers {
        core,
        build,
        inputs,
        addr,
        snapshot_path,
    } = *layers;
    // Traced passes alternate with untraced ones over the `Client`
    // connection: the untraced passes are the reference for the tracing
    // overhead, and alternating puts both under the same host conditions.
    let mut conn =
        SteppedConn::connect(addr).map_err(|e| format!("connecting the traced client: {e}"))?;
    let scrape = |c: &mut Client| c.metrics_json().map_err(|e| format!("metrics scrape: {e}"));
    let before = scrape(client)?;
    let mut reference = drive::Passes::default();
    let mut st = drive::Stepped::default();
    for _ in 0..TRACED_REQUESTS.div_ceil(inputs.requests.len()) {
        reference.extend(drive::run_passes(client, inputs, 1)?);
        conn.traced_pass(inputs, tr, &mut st)?;
    }
    let after = scrape(client)?;
    st.latencies_ns.sort_unstable();
    tally.add(reference.tally);
    tally.add(st.tally);
    let floor = conn.stats_floor(FLOOR_ROUNDS, tr)?;
    drop(conn);

    let queue_wait_us = histogram_mean_us(&before, &after, "ftb_request_queue_wait_seconds")?;
    let handle_us = histogram_mean_us(&before, &after, "ftb_request_handle_seconds")?;
    let unattributed_us = st.wait_us() - queue_wait_us - handle_us;

    let engine = drive::engine_replay(core, inputs, tr)?;
    tally.add(engine.tally);
    let [read_s, write_s, snapshot_bytes] = snapshot_layer(core, snapshot_path, tr)?;

    let traced_p50 = quantile(&st.latencies_ns, 0.5);
    let e2e = reference.summary();
    let overhead = (traced_p50 / 1e3 - e2e.p50_us) / e2e.p50_us;
    let s = &engine.stats;
    let tiers = &s.tiers;
    let count = |n: usize| n as f64;
    let us = |ns: f64| ns / 1e3;
    let structure = core.structure();
    let mut rows = vec![
        ("client.latency_p90_us", e2e.p90_us, "us"),
        ("client.latency_p99_us", e2e.p99_us, "us"),
        ("client.throughput_rps", e2e.rps, "1/s"),
        ("client.encode_us", st.encode_us(), "us"),
        ("client.write_us", st.write_us(), "us"),
        ("client.wait_us", st.wait_us(), "us"),
        ("client.decode_us", st.decode_us(), "us"),
        (
            "protocol.request_bytes",
            st.mean_bytes(st.request_bytes),
            "bytes",
        ),
        (
            "protocol.response_bytes",
            st.mean_bytes(st.response_bytes),
            "bytes",
        ),
        ("server.floor_us", us(quantile(&floor, 0.5)), "us"),
        ("server.queue_wait_us", queue_wait_us, "us"),
        ("server.handle_us", handle_us, "us"),
        ("server.unattributed_us", unattributed_us, "us"),
        (
            "engine.query_us_p50",
            us(quantile(&engine.query_ns, 0.5)),
            "us",
        ),
        (
            "engine.query_us_p99",
            us(quantile(&engine.query_ns, 0.99)),
            "us",
        ),
        (
            "engine.tier.fault_free_row",
            count(tiers.fault_free_row),
            "count",
        ),
        (
            "engine.tier.unaffected_fast_path",
            count(tiers.unaffected_fast_path),
            "count",
        ),
        (
            "engine.tier.batched_unaffected",
            count(tiers.batched_unaffected),
            "count",
        ),
        (
            "engine.tier.sparse_h_bfs",
            count(tiers.sparse_h_bfs),
            "count",
        ),
        (
            "engine.tier.augmented_bfs",
            count(tiers.augmented_bfs),
            "count",
        ),
        (
            "engine.tier.full_graph_bfs",
            count(tiers.full_graph_bfs),
            "count",
        ),
        ("engine.repaired_rows", count(s.repaired_rows), "count"),
        (
            "engine.restricted_repairs",
            count(s.restricted_repairs),
            "count",
        ),
        ("engine.queries", count(s.queries), "count"),
        (
            "engine.cache_hit_ratio",
            count(s.cached_answers) / count(s.queries.max(1)),
            "ratio",
        ),
        (
            "engine.affected_vertices_mean",
            engine.affected_mean,
            "vertices",
        ),
        ("snapshot.read_s", read_s, "s"),
        ("snapshot.write_s", write_s, "s"),
        ("snapshot.bytes", snapshot_bytes, "bytes"),
        ("workloads.graph_s", build.graph_s, "s"),
    ];
    rows.extend(build.steps.iter().map(|&(name, secs)| (name, secs, "s")));
    rows.extend([
        ("core.s1_s", build.s1_s, "s"),
        ("core.s2_s", build.s2_s, "s"),
        ("core.reinforce_s", build.reinforce_s, "s"),
        ("core.build_s", build.build_s, "s"),
        ("engine.assemble_s", build.assemble_s, "s"),
        ("core.backup_edges", count(structure.num_backup()), "edges"),
        (
            "core.reinforced_edges",
            count(structure.num_reinforced()),
            "edges",
        ),
        ("build.unattributed_s", build.unattributed_s(), "s"),
        ("rp.pairs", build.pairs, "count"),
        ("rp.uncovered_pairs", build.uncovered_pairs, "count"),
        (
            "input.distinct_fault_sets",
            count(inputs.distinct_fault_sets),
            "count",
        ),
        (
            "input.targets_per_request",
            count(inputs.targets_per_request),
            "count",
        ),
        ("input.unaffected_share", inputs.unaffected_share, "ratio"),
        ("trace.overhead_share", overhead, "ratio"),
        ("trace.spans", count(tr.len()), "count"),
    ]);

    print_layer_table(args, tr, &st, queue_wait_us, handle_us, build, overhead);
    Ok(rows
        .into_iter()
        .map(|(name, value, unit)| metric(name, value, unit))
        .collect())
}

/// The per-layer table of the traced run: span self times, the round-trip
/// decomposition with its unattributed remainder, the build decomposition
/// and the tracing overhead.
fn print_layer_table(
    args: &Args,
    tr: &Tracer,
    st: &drive::Stepped,
    queue_wait_us: f64,
    handle_us: f64,
    build: &prep::BuildTimes,
    overhead: f64,
) {
    println!(
        "per-layer table: workload={} seed={}",
        args.workload.name(),
        args.seed
    );
    println!(
        "{:<28} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "self_us/op"
    );
    for (name, t) in tr.totals() {
        println!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / 1e3 / t.count.max(1) as f64
        );
    }
    let n = st.latencies_ns.len().max(1) as f64;
    let round_trip_us = st.latencies_ns.iter().sum::<u64>() as f64 / 1e3 / n;
    let client_self_us = round_trip_us - st.wait_us();
    println!(
        "round trip (mean of {} traced) {:.2} us = client self {:.2} + server queue wait {:.2} \
         + server handle {:.2} + unattributed {:.2} (socket, server read/decode/encode/write, wake-ups)",
        st.latencies_ns.len(),
        round_trip_us,
        client_self_us,
        queue_wait_us,
        handle_us,
        st.wait_us() - queue_wait_us - handle_us,
    );
    let mut parts: Vec<String> = build
        .steps
        .iter()
        .map(|(name, s)| format!("{name} {s:.3}"))
        .collect();
    parts.push(format!("core.s1_s {:.3}", build.s1_s));
    parts.push(format!("core.s2_s {:.3}", build.s2_s));
    parts.push(format!("core.reinforce_s {:.3}", build.reinforce_s));
    println!(
        "TradeoffBuilder::build {:.3} s = {} + build.unattributed_s {:.3}",
        build.build_s,
        parts.join(" + "),
        build.unattributed_s()
    );
    println!(
        "build part of set-up {:.3} s = workloads.graph_s {:.3} + core.build_s {:.3} + engine.assemble_s {:.3}",
        build.graph_s + build.build_s + build.assemble_s,
        build.graph_s,
        build.build_s,
        build.assemble_s
    );
    println!("trace.overhead_share {overhead:+.4} (traced vs untraced p50 round trip)");
}

fn print_metric(m: &Metric) {
    match m.samples {
        Some(n) => println!("{:<36} {:>16.4} {:<6} (n={n})", m.name, m.value, m.unit),
        None => println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let mode = match parse_args() {
        Ok(mode) => mode,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                Workload::ALL.map(Workload::name).join("|")
            );
            exit(2);
        }
    };
    let args = match mode {
        Mode::Prepare { out, trace } => {
            if let Err(msg) = prep::run_child(&out, trace) {
                eprintln!("perfbench --prepare: {msg}");
                exit(1);
            }
            return;
        }
        Mode::Run(args) => args,
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            exit(1);
        }
    };
    for m in &report.info {
        print_metric(m);
    }
    let mut fields = Vec::new();
    for m in &report.metrics {
        print_metric(m);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    let t = report.tally;
    let correct = t.failed == 0 && report.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        fields.join(", ")
    );
    if !correct {
        exit(1);
    }
}
