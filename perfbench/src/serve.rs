//! `serve`: an in-process `lis serve` daemon, profiled.
//!
//! Two client connections, one thread each, send a fixed number of `run`
//! requests back to back; each carries a seeded generated program as
//! inline `src`. Every [`COLD_EVERY`]th request of a client is cold — a
//! program the daemon has never seen, so it misses the artifact store,
//! translates and publishes.
//! The rest are warm — a repeat of one of the same client's earlier
//! programs, which the store already holds (a client only repeats programs
//! whose cold reply it has received, so the class does not depend on how
//! the two clients interleave). Requests are classified by the reply's
//! `warm` field. The same request frames are then parsed and executed on
//! one thread under spans. An operation is one request.

use crate::gen::{program, Program};
use crate::stats::{derive, Rng};
use crate::tracer::Tracer;
use crate::{Checks, Report, Size};
use lis_core::JsonObj;
use lis_runtime::ArtifactStore;
use lis_serve::json::{parse, Value};
use lis_serve::{execute, parse_frame, Ctx, ServeConfig, Server};
use lis_workloads::ISAS;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Client connections (and threads) driving the daemon.
pub const CLIENTS: usize = 2;
/// One request in this many is cold.
pub const COLD_EVERY: usize = 4;
/// Instructions per generated program.
pub const PROGRAM_LEN: usize = 3_000;

const BUILDSET: &str = "block-all";
const BACKEND: &str = "compiled";

/// One client's inputs: its cold programs and its request-sequence seed.
#[derive(Debug)]
pub struct Plan {
    /// Programs, each sent cold once and then repeated warm.
    pub programs: Vec<Program>,
    /// Seed of the warm-repeat choices.
    pub seed: u64,
}

impl Plan {
    /// The program request `i` sends and whether it is cold, given the
    /// generator state; `None` once the cold programs are used up.
    fn pick(&self, i: usize, rng: &mut Rng) -> Option<(usize, bool)> {
        let sent = i.div_ceil(COLD_EVERY);
        if i.is_multiple_of(COLD_EVERY) {
            (sent < self.programs.len()).then_some((sent, true))
        } else {
            Some((rng.below(sent), false))
        }
    }

    /// The first `n` requests as (program, cold) pairs.
    pub fn sequence(&self, n: usize) -> Vec<(usize, bool)> {
        let mut rng = Rng::new(self.seed);
        (0..n).map_while(|i| self.pick(i, &mut rng)).collect()
    }
}

/// The request line for program `p`.
pub fn request_line(id: u64, p: &Program) -> String {
    let mut o = JsonObj::new();
    o.u64("lis", 1)
        .u64("id", id)
        .str("cmd", "run")
        .str("isa", p.isa)
        .str("src", &p.src)
        .str("buildset", BUILDSET)
        .str("backend", BACKEND);
    o.finish()
}

/// Generates each client's cold programs: `per_client` of them, ISAs in
/// rotation.
pub fn plans(seed: u64, per_client: usize, tr: &mut Tracer) -> Vec<Plan> {
    (0..CLIENTS)
        .map(|c| Plan {
            programs: (0..per_client)
                .map(|j| {
                    let isa = ISAS[(j + c) % ISAS.len()];
                    program(isa, derive(seed, 0x5e7e + c as u64, j as u64), PROGRAM_LEN, tr)
                })
                .collect(),
            seed: derive(seed, 0xc11e, c as u64),
        })
        .collect()
}

/// A running daemon and the clients' connections to it.
struct Daemon {
    handle: JoinHandle<u8>,
    conns: Vec<TcpStream>,
}

fn round_trip(
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> std::io::Result<String> {
    conn.write_all(line.as_bytes())?;
    conn.write_all(b"\n")?;
    let mut resp = String::new();
    reader.read_line(&mut resp)?;
    Ok(resp)
}

impl Daemon {
    /// Binds an ephemeral port, serves from a thread with one worker per
    /// core, and opens the client connections (each confirmed with a
    /// `status` round trip).
    fn start() -> Daemon {
        let cfg = ServeConfig { listen: "127.0.0.1:0".into(), jobs: 0, ..ServeConfig::default() };
        let server = Server::bind(&cfg).expect("bind an ephemeral localhost port");
        let addr: SocketAddr = server.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || server.run());
        let conns = (0..CLIENTS)
            .map(|_| {
                let mut c = TcpStream::connect(addr).expect("connect to the daemon");
                c.set_nodelay(true).expect("set TCP_NODELAY");
                let mut reader = BufReader::new(c.try_clone().expect("clone the connection"));
                let resp = round_trip(&mut c, &mut reader, r#"{"lis":1,"id":0,"cmd":"status"}"#)
                    .expect("status round trip");
                assert!(resp.contains("\"ok\":true"), "daemon answers status");
                c
            })
            .collect();
        Daemon { handle, conns }
    }

    /// The artifact store's (hits, misses).
    fn store(&mut self) -> (u64, u64) {
        let mut reader = BufReader::new(self.conns[0].try_clone().expect("clone the connection"));
        let resp =
            round_trip(&mut self.conns[0], &mut reader, r#"{"lis":1,"id":0,"cmd":"status"}"#)
                .expect("status round trip");
        let v = parse(resp.trim_end()).expect("status reply is JSON");
        let store = v.get("result").and_then(|r| r.get("store"));
        let get = |k: &str| store.and_then(|s| s.get(k)).and_then(Value::as_u64).unwrap_or(0);
        (get("hits"), get("misses"))
    }

    /// Sends `shutdown`, closes the connections and waits for the daemon's
    /// thread; returns its exit code.
    fn stop(mut self) -> u8 {
        let mut reader = BufReader::new(self.conns[0].try_clone().expect("clone the connection"));
        let _ = round_trip(&mut self.conns[0], &mut reader, r#"{"lis":1,"id":0,"cmd":"shutdown"}"#);
        drop(reader);
        self.conns.clear();
        self.handle.join().expect("the daemon thread does not panic")
    }
}

/// One completed request.
#[derive(Debug, Clone)]
struct Done {
    warm: bool,
    latency: f64,
}

/// What a correct `run` reply reports.
#[derive(Debug, Clone, Copy)]
struct Reply {
    warm: bool,
    blocks_built: u64,
    seeded: u64,
}

/// Checks one reply line against the program's reference run.
fn check_reply(resp: &str, p: &Program) -> Result<Reply, String> {
    let v = parse(resp.trim_end()).map_err(|e| format!("reply is not JSON: {e:?}"))?;
    let status = v.get("status").and_then(Value::as_u64);
    if status != Some(0) {
        let err = v.get("error").and_then(Value::as_str).unwrap_or("");
        return Err(format!("status {status:?}: {err}"));
    }
    let res = v.get("result").ok_or("reply has no result")?;
    check_payload(res, p)
}

/// Checks a reply's `result` payload against the program's reference run.
fn check_payload(res: &Value, p: &Program) -> Result<Reply, String> {
    let stdout = res.get("stdout").and_then(Value::as_str).unwrap_or("");
    let halted = res.get("halted").and_then(Value::as_bool) == Some(true);
    let exit = res.get("exit_code").and_then(Value::as_u64);
    if !halted || exit != Some(0) || stdout.as_bytes() != p.expected {
        return Err(format!("{}/{}: wrong exit or stdout", p.isa, p.seed));
    }
    let stats = res.get("stats").ok_or("reply has no stats")?;
    let stat = |k: &str| stats.get(k).and_then(Value::as_u64).unwrap_or(0);
    let warm = res.get("warm").and_then(Value::as_bool).unwrap_or(false);
    Ok(Reply { warm, blocks_built: stat("blocks_built"), seeded: stat("seeded_blocks") })
}

/// One client's closed loop: `n` requests, or fewer if its cold programs
/// run out.
fn client(conn: &mut TcpStream, plan: &Plan, c: usize, n: usize, checks: &mut Checks) -> Vec<Done> {
    let mut reader = BufReader::new(conn.try_clone().expect("clone the connection"));
    let mut rng = Rng::new(plan.seed);
    let mut done = Vec::new();
    for i in 0..n {
        let Some((prog, _)) = plan.pick(i, &mut rng) else { break };
        let p = &plan.programs[prog];
        let line = request_line((c * 1_000_000 + i) as u64, p);
        let t0 = Instant::now();
        let resp = round_trip(conn, &mut reader, &line);
        let latency = t0.elapsed().as_secs_f64();
        let reply = resp.map_err(|e| e.to_string()).and_then(|r| check_reply(&r, p));
        match reply {
            Ok(r) => {
                checks.op(true, String::new);
                done.push(Done { warm: r.warm, latency });
            }
            Err(e) => checks.op(false, || format!("client {c} request {i}: {e}")),
        }
    }
    done
}

/// Runs every client against `daemon` on its own thread; returns each
/// client's completed requests.
fn drive(daemon: &mut Daemon, plans: &[Plan], n: usize, checks: &mut Checks) -> Vec<Vec<Done>> {
    let results: Vec<(Vec<Done>, Checks)> = std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .conns
            .iter_mut()
            .zip(plans)
            .enumerate()
            .map(|(c, (conn, plan))| {
                s.spawn(move || {
                    let mut checks = Checks::default();
                    let done = client(conn, plan, c, n, &mut checks);
                    (done, checks)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect()
    });
    let mut out = Vec::new();
    for (done, c) in results {
        checks.merge(c);
        out.push(done);
    }
    out
}

fn class_latencies(done: &[Vec<Done>], warm: bool) -> Vec<f64> {
    done.iter().flatten().filter(|d| d.warm == warm).map(|d| d.latency).collect()
}

/// The traced run: a fixed sequence per client sent over the sockets, then
/// the same frames parsed (`serve.parse_frame`) and executed
/// (`serve.execute.<class>`) on one thread against a private store, once
/// untraced and once under spans.
pub fn profile(seed: u64, size: Size, global: &mut Tracer) -> Report {
    let per_client = if size == Size::Full { 4 } else { 2 };
    let len = per_client * COLD_EVERY;
    let mut setup_tr = Tracer::on();
    let plans = plans(seed, per_client, &mut setup_tr);
    let mut checks = Checks::default();

    let mut daemon = Daemon::start();
    let done = drive(&mut daemon, &plans, len, &mut checks);
    let (hits, misses) = daemon.store();
    let code = daemon.stop();
    checks.op(code == 0, || format!("daemon exited {code}"));

    // The clients' requests, interleaved one from each in turn.
    let seqs: Vec<Vec<(usize, bool)>> = plans.iter().map(|p| p.sequence(len)).collect();
    let mut frames = Vec::new();
    for i in 0..len {
        for (c, seq) in seqs.iter().enumerate() {
            if let Some(&(prog, _)) = seq.get(i) {
                let p = &plans[c].programs[prog];
                frames.push((request_line((c * 1_000_000 + i) as u64, p), p));
            }
        }
    }
    let run = |tr: &mut Tracer, checks: &mut Checks| {
        let ctx = Ctx { store: Arc::new(ArtifactStore::new()), deadline: None };
        let (mut built, mut seeded) = (0u64, 0u64);
        let t0 = Instant::now();
        for (line, p) in &frames {
            let frame = tr.span("serve.parse_frame", || parse_frame(line));
            let Ok(frame) = frame else {
                checks.op(false, || "request frame does not parse".into());
                continue;
            };
            tr.enter();
            let out = execute(&frame.req, &ctx);
            let warm = out.payload.contains("\"warm\":true");
            tr.exit(if warm { "serve.execute.warm" } else { "serve.execute.cold" });
            let reply = parse(&out.payload)
                .map_err(|e| format!("{e:?}"))
                .and_then(|v| check_payload(&v, p));
            match reply {
                Ok(r) if out.status == 0 => {
                    built += r.blocks_built;
                    seeded += r.seeded;
                    checks.op(true, String::new);
                }
                other => {
                    checks.op(false, || format!("execute: status {} {:?}", out.status, other.err()))
                }
            }
        }
        (t0.elapsed().as_secs_f64(), built, seeded)
    };
    let (wall_u, _, _) = run(&mut Tracer::off(), &mut checks);
    let mut tr = Tracer::on();
    let (wall_t, built, seeded) = run(&mut tr, &mut checks);

    let mut r = Report { checks, ..Report::default() };
    r.metric("serve.parse_frame_us", tr.get("serve.parse_frame").mean_us(), "us");
    for (class, warm) in [("cold", false), ("warm", true)] {
        let exec = tr.get(if warm { "serve.execute.warm" } else { "serve.execute.cold" }).mean_us();
        let l = class_latencies(&done, warm);
        let rtt = l.iter().sum::<f64>() / l.len().max(1) as f64 * 1e6;
        r.metric(format!("serve.execute_us.{class}"), exec, "us");
        r.metric(format!("serve.overhead_us.{class}"), rtt - exec, "us");
    }
    r.metric("serve.store_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    r.metric("runtime.blocks_built", built as f64, "count");
    r.metric("runtime.seeded_blocks", seeded as f64, "count");
    r.metric("serve.layer_sum_ratio", tr.self_secs() / wall_t, "ratio");
    r.metric("serve.trace_overhead", wall_t / wall_u - 1.0, "ratio");
    global.merge(&setup_tr);
    global.merge(&tr);
    r
}
