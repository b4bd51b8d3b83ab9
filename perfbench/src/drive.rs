//! Driving the server and the engine: closed-loop passes over one `Client`
//! connection, the traced client that times each step of a round trip,
//! the `Stats` floor, and the in-process engine replay.

use crate::inputs::Inputs;
use crate::sysinfo::cpu_seconds;
use crate::trace::Tracer;
use ftb_core::{EngineCore, FaultSet, QueryContext, QueryStats};
use ftb_server::{
    decode_response, encode_request, read_frame, write_frame, Client, Request, Response,
    PROTOCOL_VERSION,
};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Nearest-rank quantile of an ascending sample, in the sample's unit.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Operations attempted and failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Count one operation; `what` describes it when it failed.
    fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(what) = failure {
            // The first few failures are shown; all are counted.
            if self.failed < 5 {
                eprintln!("perfbench: failed operation: {what}");
            }
            self.failed += 1;
        }
    }
}

/// Describe a reply that is not the expected one: a wrong answer, an
/// error frame or `Overloaded`.
fn check(got: &Response, expected: &Response, index: usize) -> Option<String> {
    (got != expected).then(|| format!("request {index}: got {got:?}, expected {expected:?}"))
}

/// Closed-loop passes over the request list.
#[derive(Default)]
pub struct Passes {
    /// Round-trip times in nanoseconds: pass after pass, each in the order
    /// of the request list.
    pub latencies_ns: Vec<u64>,
    /// Requests in one pass.
    pub per_pass: usize,
    pub wall_s: f64,
    /// Process CPU time.
    pub cpu_s: f64,
    pub tally: Tally,
}

impl Passes {
    /// Append the passes of `other`, made over the same request list.
    pub fn extend(&mut self, other: Passes) {
        self.latencies_ns.extend(other.latencies_ns);
        self.per_pass = other.per_pass;
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.tally.add(other.tally);
    }

    /// The median over the requests of each request's lower-quartile
    /// round trip across the passes, in nanoseconds.
    ///
    /// On a shared virtual machine the host, not the program, slows whole
    /// stretches of a run: per-pass medians of `outage-repair` switch
    /// between ~225 and ~315 µs every few passes within one run, and a
    /// burst of hypervisor steal or a slow wake-up delays the requests in
    /// flight while it lasts. Pooled or per-request medians then move with
    /// the share of the run the host was slow, which changes from run to
    /// run. A request's lower quartile over the passes ignores the passes
    /// in which it was slowed, as long as they are fewer than three
    /// quarters; a change to the program moves every pass of the requests
    /// it touches, and so moves this figure fully.
    pub fn typical_ns(&self) -> f64 {
        let n = self.per_pass.max(1);
        let mut column = Vec::new();
        let mut typical: Vec<u64> = (0..n.min(self.latencies_ns.len()))
            .map(|i| {
                column.clear();
                column.extend(self.latencies_ns.iter().skip(i).step_by(n));
                column.sort_unstable();
                column[(column.len() - 1) / 4]
            })
            .collect();
        typical.sort_unstable();
        quantile(&typical, 0.5)
    }

    /// The end-to-end figures of the passes.
    pub fn summary(&self) -> Summary {
        let mut pooled = self.latencies_ns.clone();
        pooled.sort_unstable();
        let n = pooled.len() as f64;
        let us = |q: f64| quantile(&pooled, q) / 1e3;
        Summary {
            samples: pooled.len(),
            typical_us: self.typical_ns() / 1e3,
            p50_us: us(0.50),
            p90_us: us(0.90),
            p99_us: us(0.99),
            rps: n / self.wall_s,
            cpu_us_per_req: self.cpu_s * 1e6 / n,
        }
    }
}

/// End-to-end figures over some passes.
pub struct Summary {
    /// Round trips measured.
    pub samples: usize,
    /// [`Passes::typical_ns`], in microseconds.
    pub typical_us: f64,
    /// Quantiles of all round trips.
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// Completed requests per second of wall time.
    pub rps: f64,
    /// Process CPU time per request.
    pub cpu_us_per_req: f64,
}

/// Replay `passes` whole passes of the request list over `client`, one
/// request in flight, timing each from encoding the request to decoding
/// its reply. A transport error is a failed operation followed by a
/// reconnect.
pub fn run_passes(client: &mut Client, inputs: &Inputs, passes: usize) -> Result<Passes, String> {
    let per_pass = inputs.requests.len();
    let mut out = Passes {
        latencies_ns: Vec::with_capacity(passes * per_pass),
        per_pass,
        ..Passes::default()
    };
    let cpu_start = cpu_seconds()?;
    let start = Instant::now();
    for _ in 0..passes {
        for (i, (req, expected)) in inputs.requests.iter().zip(&inputs.expected).enumerate() {
            let t = Instant::now();
            let reply = client.request(req);
            out.latencies_ns.push(t.elapsed().as_nanos() as u64);
            match reply {
                Ok(got) => out.tally.record(check(&got, expected, i)),
                Err(e) => {
                    out.tally
                        .record(Some(format!("request {i}: transport error: {e}")));
                    client
                        .reconnect()
                        .map_err(|e| format!("reconnecting after a transport error: {e}"))?;
                }
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.cpu_s = cpu_seconds()? - cpu_start;
    Ok(out)
}

/// A protocol session driven step by step, so each step of a round trip
/// can be timed: the same encode → write → read → decode sequence
/// `Client::request` performs.
pub struct SteppedConn {
    stream: TcpStream,
}

/// Per-step totals of the traced passes.
#[derive(Debug, Default)]
pub struct Stepped {
    /// Round-trip time of every request, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Id of the last traced request.
    next_id: u64,
    pub encode_ns: u64,
    pub write_ns: u64,
    pub wait_ns: u64,
    pub decode_ns: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub tally: Tally,
}

impl Stepped {
    fn per_request_us(&self, ns: u64) -> f64 {
        ns as f64 / 1e3 / self.latencies_ns.len().max(1) as f64
    }
    pub fn encode_us(&self) -> f64 {
        self.per_request_us(self.encode_ns)
    }
    pub fn write_us(&self) -> f64 {
        self.per_request_us(self.write_ns)
    }
    pub fn wait_us(&self) -> f64 {
        self.per_request_us(self.wait_ns)
    }
    pub fn decode_us(&self) -> f64 {
        self.per_request_us(self.decode_ns)
    }
    pub fn mean_bytes(&self, bytes: u64) -> f64 {
        bytes as f64 / self.latencies_ns.len().max(1) as f64
    }
}

impl SteppedConn {
    /// Connect and perform the hello handshake.
    pub fn connect(addr: SocketAddr) -> io::Result<SteppedConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = SteppedConn { stream };
        let hello = Request::Hello {
            client_version: PROTOCOL_VERSION,
        };
        write_frame(&mut conn.stream, &encode_request(&hello))?;
        match conn.read_reply()? {
            Response::HelloOk { .. } => Ok(conn),
            other => Err(io::Error::other(format!("handshake refused: {other:?}"))),
        }
    }

    fn read_reply(&mut self) -> io::Result<Response> {
        let payload = self.read_payload()?;
        decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn read_payload(&mut self) -> io::Result<Vec<u8>> {
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// One round trip with a span around the whole request and one around
    /// each step; returns the reply.
    fn traced(
        &mut self,
        req: &Request,
        id: u64,
        tr: &mut Tracer,
        out: &mut Stepped,
    ) -> io::Result<Response> {
        let root = tr.open("client.request", id, None);
        let span = tr.open("client.encode", id, Some(root));
        let bytes = encode_request(req);
        out.encode_ns += tr.close(span);
        let span = tr.open("client.write", id, Some(root));
        let written = write_frame(&mut self.stream, &bytes);
        out.write_ns += tr.close(span);
        written?;
        let span = tr.open("client.wait", id, Some(root));
        let payload = self.read_payload();
        out.wait_ns += tr.close(span);
        let payload = payload?;
        let span = tr.open("client.decode", id, Some(root));
        let reply = decode_response(&payload);
        out.decode_ns += tr.close(span);
        out.latencies_ns.push(tr.close(root));
        out.request_bytes += bytes.len() as u64;
        out.response_bytes += payload.len() as u64;
        reply.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Replay one whole pass of the request list with every round trip
    /// traced, adding to `out`. A transport error is a failed operation and
    /// ends the run: this connection does not reconnect.
    pub fn traced_pass(
        &mut self,
        inputs: &Inputs,
        tr: &mut Tracer,
        out: &mut Stepped,
    ) -> Result<(), String> {
        for (i, (req, expected)) in inputs.requests.iter().zip(&inputs.expected).enumerate() {
            out.next_id += 1;
            match self.traced(req, out.next_id, tr, out) {
                Ok(got) => out.tally.record(check(&got, expected, i)),
                Err(e) => {
                    let what = format!("traced request {i}: transport error: {e}");
                    out.tally.record(Some(what.clone()));
                    return Err(what);
                }
            }
        }
        Ok(())
    }

    /// Round-trip times (ascending, nanoseconds) of `count` `Stats`
    /// requests: answered on the connection thread with no queue and no
    /// engine, they are the floor cost of the server path.
    pub fn stats_floor(&mut self, count: usize, tr: &mut Tracer) -> Result<Vec<u64>, String> {
        let mut out = Vec::with_capacity(count);
        let bytes = encode_request(&Request::Stats);
        for i in 0..count {
            let span = tr.open("server.floor", i as u64, None);
            write_frame(&mut self.stream, &bytes).map_err(|e| format!("stats request: {e}"))?;
            let reply = self.read_reply();
            out.push(tr.close(span));
            match reply {
                Ok(Response::Stats(_)) => {}
                other => return Err(format!("unexpected stats reply: {other:?}")),
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

/// The in-process engine replay of the request list.
pub struct EngineReplay {
    /// Time of each engine call, ascending, in nanoseconds.
    pub query_ns: Vec<u64>,
    /// `QueryContext::stats()` delta over the measured pass.
    pub stats: QueryStats,
    /// Mean of `EngineCore::affected_vertex_count` over the requests.
    pub affected_mean: f64,
    pub tally: Tally,
}

fn faults_of(req: &Request) -> &FaultSet {
    match req {
        Request::Dist { faults, .. } | Request::DistMany { faults, .. } => faults,
        other => unreachable!("workloads only generate Dist and DistMany, not {other:?}"),
    }
}

/// Answer one workload request through `ctx`, as a server worker does.
fn engine_answer(
    ctx: &mut QueryContext,
    core: &EngineCore,
    req: &Request,
) -> Result<Response, ftb_core::FtbfsError> {
    match req {
        Request::Dist {
            source,
            target,
            faults,
        } => ctx
            .dist_after_faults_from(core, *source, *target, faults)
            .map(Response::Dist),
        Request::DistMany {
            source,
            targets,
            faults,
        } => ctx
            .dist_many_after_faults_from(core, *source, targets, faults)
            .map(Response::DistMany),
        other => unreachable!("workloads only generate Dist and DistMany, not {other:?}"),
    }
}

/// Replay the request list through one `QueryContext`: one warm-up pass,
/// then one measured pass with a span around each engine call.
pub fn engine_replay(
    core: &EngineCore,
    inputs: &Inputs,
    tr: &mut Tracer,
) -> Result<EngineReplay, String> {
    let mut ctx = core.new_context();
    let mut tally = Tally::default();
    let pairs = || inputs.requests.iter().zip(&inputs.expected).enumerate();
    for (i, (req, expected)) in pairs() {
        tally.record(match engine_answer(&mut ctx, core, req) {
            Ok(got) => check(&got, expected, i),
            Err(e) => Some(format!("engine request {i}: {e}")),
        });
    }
    let before = ctx.stats();
    let mut query_ns = Vec::with_capacity(inputs.requests.len());
    for (i, (req, expected)) in pairs() {
        let span = tr.open("engine.query", i as u64, None);
        let got = engine_answer(&mut ctx, core, req);
        query_ns.push(tr.close(span));
        tally.record(match got {
            Ok(got) => check(&got, expected, i),
            Err(e) => Some(format!("engine request {i}: {e}")),
        });
    }
    let stats = ctx.stats().delta_since(&before);
    query_ns.sort_unstable();
    let mut affected = 0usize;
    for req in &inputs.requests {
        affected += core
            .affected_vertex_count(core.primary_source(), faults_of(req))
            .map_err(|e| format!("affected_vertex_count: {e}"))?;
    }
    Ok(EngineReplay {
        query_ns,
        stats,
        affected_mean: affected as f64 / inputs.requests.len().max(1) as f64,
        tally,
    })
}
