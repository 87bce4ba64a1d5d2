//! `timing`: functional-first + out-of-order, three ways.
//!
//! Each operation is one trace round trip over one input: a live run
//! (`lis_timing::run_functional_first_ooo`, classic preset), a recording
//! into an in-memory trace (`lis_trace::record`), and a read plus a
//! one-shard replay under each of the four presets (`lis_trace::replay_ooo`).
//! Inputs are the suite kernels — hot loops that fit the modelled 16 KiB
//! L1I — and seeded straight-line programs several times L1I in size, so
//! the miss path and never-repeating PCs get work too.

use crate::gen::program;
use crate::stats::{derive, geomean, Digest, Rng};
use crate::tracer::Tracer;
use crate::{common_metrics, setup_median, Checks, Report, Size};
use lis_core::{Visibility, BLOCK_DECODE};
use lis_mem::Image;
use lis_runtime::Simulator;
use lis_timing::{
    run_functional_first_ooo, CoreConfig, OooConfig, OooCore, TimingConfig, TimingReport,
};
use lis_trace::{
    decode_chunk, meta_for, record, replay_ooo, RecordOptions, ReplayConfig, Trace, TraceFooter,
    TraceWriter,
};
use lis_workloads::{spec_of, suite_of, ISAS};
use std::time::Instant;

/// Instructions per generated program: four times the modelled L1I
/// (16 KiB of 4-byte instructions), executed at most once each.
const RANDOM_LEN: usize = 16_384;
const MIN_RANDOM_LEN: usize = 6_000;

const FEED: [&str; 4] =
    ["timing.feed.classic", "timing.feed.aggressive", "timing.feed.stream", "timing.feed.minimal"];

/// One timing input.
struct Input {
    name: String,
    isa: &'static str,
    seed: u64,
    image: Image,
    expected: Vec<u8>,
}

fn core(p: TimingConfig) -> CoreConfig {
    CoreConfig { timing: p, ..CoreConfig::default() }
}

/// Suite kernels plus seeded straight-line programs (generation and
/// assembly are part of set-up).
fn inputs(seed: u64, size: Size, tr: &mut Tracer) -> Vec<Input> {
    let mut v = Vec::new();
    for isa in ISAS {
        for w in suite_of(isa).iter().filter(|w| size == Size::Full || w.name == "strrev") {
            v.push(Input {
                name: w.name.to_string(),
                isa,
                seed: 0,
                image: w.assemble().expect("suite kernels assemble"),
                expected: w.expected_stdout().into_bytes(),
            });
        }
        let (count, len) = if size == Size::Full { (2, RANDOM_LEN) } else { (1, MIN_RANDOM_LEN) };
        for i in 0..count {
            let s = derive(seed, 0x7153, i);
            let p = program(isa, s, len, tr);
            v.push(Input {
                name: format!("random-{i}"),
                isa,
                seed: s,
                image: p.image,
                expected: p.expected,
            });
        }
    }
    v
}

fn record_options(inp: &Input) -> RecordOptions {
    RecordOptions { kernel: inp.name.clone(), seed: inp.seed, ..RecordOptions::default() }
}

/// Every field of two reports except the organization name.
fn same(a: &TimingReport, b: &TimingReport) -> bool {
    let key = |r: &TimingReport| {
        (
            r.cycles,
            r.insts,
            r.interface_calls,
            r.icache_misses,
            r.dcache_misses,
            r.mispredicts,
            r.mismatches,
            r.rollbacks,
            r.fallback_blocks,
            r.exit_code,
            r.stdout.clone(),
        )
    };
    key(a) == key(b)
}

/// What one round trip produced.
struct Trip {
    live: TimingReport,
    bytes: Vec<u8>,
    replays: Vec<TimingReport>,
    live_s: f64,
    record_s: f64,
    read_s: f64,
    /// Each preset's replay, timed apart: the shorter the timed span, the
    /// likelier it fits between bursts of load from the rest of the host.
    replay_s: [f64; 4],
}

/// One untraced round trip through the public entry points.
fn round_trip(inp: &Input) -> Result<Trip, String> {
    let spec = spec_of(inp.isa);
    let t0 = Instant::now();
    let live = run_functional_first_ooo(
        spec,
        &inp.image,
        &core(TimingConfig::CLASSIC),
        &OooConfig::default(),
    )
    .map_err(|e| format!("live: {e}"))?;
    let t1 = Instant::now();
    let mut bytes = Vec::new();
    let summary = record(spec, &inp.image, &mut bytes, &record_options(inp))
        .map_err(|e| format!("record: {e}"))?;
    let t2 = Instant::now();
    let trace = Trace::read_from(&bytes[..]).map_err(|e| format!("read: {e}"))?;
    let read_s = t2.elapsed().as_secs_f64();
    let mut replays = Vec::with_capacity(4);
    let mut replay_s = [0.0; 4];
    for (p, secs) in TimingConfig::PRESETS.into_iter().zip(&mut replay_s) {
        let cfg = ReplayConfig { core: core(p), ..ReplayConfig::default() };
        let t = Instant::now();
        replays
            .push(replay_ooo(spec, &trace, &cfg).map_err(|e| format!("replay {}: {e}", p.name))?);
        *secs = t.elapsed().as_secs_f64();
    }
    if !summary.halted || summary.exit_code != 0 || summary.insts != live.insts {
        return Err("recording did not halt cleanly".into());
    }
    Ok(Trip {
        live,
        bytes,
        replays,
        live_s: (t1 - t0).as_secs_f64(),
        record_s: (t2 - t1).as_secs_f64(),
        read_s,
        replay_s,
    })
}

/// The round trip's correctness: golden stdout and exit 0 live, and a
/// classic replay equal to the live report on every counter.
fn verify(inp: &Input, trip: &Trip) -> Result<(), String> {
    if trip.live.exit_code != 0 || trip.live.stdout != inp.expected {
        return Err("live run: wrong exit or stdout".into());
    }
    if !same(&trip.live, &trip.replays[0]) {
        return Err("classic replay differs from the live report".into());
    }
    if trip.replays.iter().any(|r| r.insts != trip.live.insts || r.stdout != inp.expected) {
        return Err("a replay lost instructions or output".into());
    }
    Ok(())
}

/// Digest of one round trip's simulated results.
fn trip_digest(t: &Trip) -> Digest {
    let mut d = Digest::default();
    for r in std::iter::once(&t.live).chain(&t.replays) {
        for v in
            [r.cycles, r.insts, r.interface_calls, r.icache_misses, r.dcache_misses, r.mispredicts]
        {
            d.u64(v);
        }
    }
    d.u64(t.bytes.len() as u64);
    d
}

/// An input's fastest live, record, read and per-preset replay phases,
/// and the instructions they simulate. The round trips are deterministic,
/// so interference from the rest of the host only ever adds time.
#[derive(Debug, Clone, Copy)]
struct Best {
    insts: u64,
    live_s: f64,
    record_s: f64,
    read_s: f64,
    replay_s: [f64; 4],
}

impl Default for Best {
    fn default() -> Best {
        let inf = f64::INFINITY;
        Best { insts: 0, live_s: inf, record_s: inf, read_s: inf, replay_s: [inf; 4] }
    }
}

impl Best {
    fn add(&mut self, t: &Trip) {
        self.insts = t.live.insts;
        self.live_s = self.live_s.min(t.live_s);
        self.record_s = self.record_s.min(t.record_s);
        self.read_s = self.read_s.min(t.read_s);
        for (b, s) in self.replay_s.iter_mut().zip(t.replay_s) {
            *b = b.min(s);
        }
    }

    /// The read and the four replays.
    fn replay(&self) -> f64 {
        self.read_s + self.replay_s.iter().sum::<f64>()
    }

    /// A whole round trip, each phase at its fastest.
    fn trip(&self) -> f64 {
        self.live_s + self.record_s + self.replay()
    }
}

/// The untraced run: passes over the inputs, in a seeded order, until
/// `seconds` have passed (at least one).
pub fn measure(seed: u64, seconds: f64, size: Size) -> Report {
    let (inputs, setup_s) = setup_median(15, || inputs(seed, size, &mut Tracer::off()), drop);
    let mut checks = Checks::default();
    let mut rng = Rng::new(seed);
    let mut first: Vec<Option<Digest>> = vec![None; inputs.len()];
    let mut best = vec![Best::default(); inputs.len()];
    let t0 = Instant::now();
    let (mut passes, mut trips) = (0, 0);
    loop {
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        rng.shuffle(&mut order);
        for &i in &order {
            let inp = &inputs[i];
            let trip = round_trip(inp).and_then(|t| verify(inp, &t).map(|()| t));
            let t = match trip {
                Ok(t) => t,
                Err(e) => {
                    checks.op(false, || format!("{}/{}: {e}", inp.isa, inp.name));
                    continue;
                }
            };
            checks.op(true, String::new);
            trips += 1;
            best[i].add(&t);
            first[i].get_or_insert_with(|| trip_digest(&t));
        }
        passes += 1;
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let mut digest = Digest::default();
    for d in &first {
        digest.bytes(d.map(|d| d.hex()).unwrap_or_default().as_bytes());
    }
    let ok: Vec<&Best> = best.iter().filter(|b| b.insts > 0).collect();
    let insts: u64 = ok.iter().map(|b| b.insts).sum();
    let rate =
        |n: u64, phase: fn(&Best) -> f64| n as f64 / ok.iter().map(|b| phase(b)).sum::<f64>() / 1e6;
    let (live, rec, rep) =
        (rate(insts, |b| b.live_s), rate(insts, |b| b.record_s), rate(4 * insts, Best::replay));
    let lat: Vec<f64> = ok.iter().map(|b| b.trip()).collect();
    let mut r = Report { checks, ..Report::default() };
    common_metrics(
        &mut r,
        setup_s,
        geomean(&[live, rec, rep]),
        lat.len() as f64 / lat.iter().sum::<f64>(),
        &lat,
    );
    r.note(format!(
        "timing: {} inputs x {passes} passes, {trips} round trips in {wall:.3} s; live_mips {live:.3}, record_mips {rec:.3}, replay_mips {rep:.3} (x4 presets)",
        inputs.len(),
    ));
    r.digests.push(("timing".into(), digest.hex()));
    r
}

/// The live run, decomposed: block decode (`runtime.next_block`) and the
/// timing consumer (`timing.feed.classic`) timed apart.
fn live_traced(inp: &Input, tr: &mut Tracer) -> Result<TimingReport, String> {
    let spec = spec_of(inp.isa);
    let sim = tr.span("runtime.new", || Simulator::new(spec, BLOCK_DECODE));
    let mut sim = sim.map_err(|e| e.to_string())?;
    sim.load_program(&inp.image).map_err(|f| f.to_string())?;
    let mut core = tr.span("timing.new", || {
        OooCore::new(spec, &core(TimingConfig::CLASSIC), &OooConfig::default())
    });
    let mut block = Vec::new();
    while !sim.state.halted {
        tr.enter();
        let r = sim.next_block(&mut block);
        tr.exit_n("runtime.next_block", block.len() as u64);
        r.map_err(|e| e.to_string())?;
        tr.enter();
        let fed = block.iter().try_for_each(|di| core.feed(di));
        tr.exit_n(FEED[0], block.len() as u64);
        fed.map_err(|f| f.to_string())?;
    }
    let mut report = core.report("functional-first-ooo");
    report.interface_calls = sim.stats.calls;
    report.fallback_blocks = sim.stats.fallback_blocks;
    report.exit_code = sim.state.exit_code;
    report.stdout = sim.stdout().to_vec();
    Ok(report)
}

/// The recording, decomposed: the functional run (`runtime.run_with_sink`)
/// with every writer push (`trace.encode`) timed inside it.
fn record_traced(inp: &Input, tr: &mut Tracer) -> Result<Vec<u8>, String> {
    let spec = spec_of(inp.isa);
    let opts = record_options(inp);
    let sim = tr.span("runtime.new", || Simulator::new(spec, opts.buildset));
    let mut sim = sim.map_err(|e| e.to_string())?;
    sim.load_program(&inp.image).map_err(|f| f.to_string())?;
    let meta = meta_for(spec, &opts);
    let mut writer = TraceWriter::with_chunk_target(Vec::new(), &meta, opts.chunk_target)
        .map_err(|e| e.to_string())?;
    let mut failed = None;
    tr.enter();
    let run = sim.run_with_sink(opts.max_insts, |di| {
        tr.enter();
        if let Err(e) = writer.push_dyninst(di) {
            failed.get_or_insert(e);
        }
        tr.exit_n("trace.encode", 1);
    });
    tr.exit("runtime.run_with_sink");
    if let Some(e) = failed {
        return Err(e.to_string());
    }
    run.map_err(|e| e.to_string())?;
    let footer = TraceFooter {
        insts: writer.len(),
        stats: sim.stats,
        exit_code: sim.state.exit_code,
        halted: sim.state.halted,
        stdout: sim.stdout().to_vec(),
    };
    tr.span("trace.finish", || writer.finish(&footer)).map_err(|e| e.to_string())
}

/// One-shard replay, decomposed per chunk: decode (`trace.decode`),
/// projection to the consumer's records (`trace.to_dyninst`), and the
/// timing consumer (`timing.feed.<preset>`).
fn replay_traced(
    spec: &'static lis_core::IsaSpec,
    trace: &Trace,
    k: usize,
    tr: &mut Tracer,
) -> Result<TimingReport, String> {
    let cfg = ReplayConfig { core: core(TimingConfig::PRESETS[k]), ..ReplayConfig::default() };
    let mut core = tr.span("timing.new", || OooCore::new(spec, &cfg.core, &cfg.ooo));
    let mut recs = Vec::new();
    let mut dis = Vec::new();
    for (payload, n) in &trace.chunks {
        tr.enter();
        let decoded = decode_chunk(payload, *n, &mut recs);
        tr.exit_n("trace.decode", u64::from(*n));
        decoded.map_err(|e| e.to_string())?;
        tr.enter();
        dis.clear();
        dis.extend(recs.drain(..).map(|r| r.project(Visibility::DECODE).to_dyninst()));
        tr.exit_n("trace.to_dyninst", dis.len() as u64);
        tr.enter();
        // A recorded fault ends the stream, as in `replay_ooo`.
        let fed = dis.iter().try_for_each(|di| core.feed(di));
        tr.exit_n(FEED[k], dis.len() as u64);
        if fed.is_err() {
            break;
        }
    }
    let mut report = core.report("trace-ooo");
    report.interface_calls = trace.footer.stats.calls;
    report.fallback_blocks = trace.footer.stats.fallback_blocks;
    report.exit_code = trace.footer.exit_code;
    report.stdout = trace.footer.stdout.clone();
    Ok(report)
}

/// A round trip decomposed under spans: the live report, the trace bytes
/// and the replay reports, for comparison with the untraced round trip.
fn traced_trip(
    inp: &Input,
    tr: &mut Tracer,
) -> Result<(TimingReport, Vec<u8>, Vec<TimingReport>), String> {
    let spec = spec_of(inp.isa);
    let live = live_traced(inp, tr)?;
    let bytes = record_traced(inp, tr)?;
    tr.enter();
    let trace = Trace::read_from(&bytes[..]);
    tr.exit_n("trace.read", live.insts);
    let trace = trace.map_err(|e| e.to_string())?;
    let replays = (0..TimingConfig::PRESETS.len())
        .map(|k| replay_traced(spec, &trace, k, tr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((live, bytes, replays))
}

/// The traced run: one pass over the inputs, each round trip run untraced
/// through the public entry points and decomposed under spans — in
/// alternating order, so warm caches favour neither side — with the two
/// required to agree.
pub fn profile(seed: u64, size: Size, global: &mut Tracer) -> Report {
    let mut setup_tr = Tracer::on();
    let inputs = inputs(seed, size, &mut setup_tr);
    let mut checks = Checks::default();
    let mut run_tr = Tracer::on();
    let (mut wall_u, mut wall_t) = (0.0, 0.0);
    let (mut insts, mut bytes) = (0u64, 0u64);
    let mut counts = [(0u64, 0u64, 0u64); 4];
    for (i, inp) in inputs.iter().enumerate() {
        let (mut plain, mut traced) = (None, None);
        for decomposed in [i % 2 == 1, i % 2 == 0] {
            let t0 = Instant::now();
            if decomposed {
                traced = Some(traced_trip(inp, &mut run_tr));
                wall_t += t0.elapsed().as_secs_f64();
            } else {
                plain = Some(round_trip(inp).and_then(|t| verify(inp, &t).map(|()| t)));
                wall_u += t0.elapsed().as_secs_f64();
            }
        }
        let agreed = match (plain.expect("ran untraced"), traced.expect("ran traced")) {
            (Ok(t), Ok((live, b, replays))) => {
                if !same(&live, &t.live)
                    || b != t.bytes
                    || !replays.iter().zip(&t.replays).all(|(a, b)| same(a, b))
                {
                    Err("decomposed round trip differs from the public entry points".to_string())
                } else {
                    Ok(t)
                }
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        let t = match agreed {
            Ok(t) => t,
            Err(e) => {
                checks.op(false, || format!("{}/{}: {e}", inp.isa, inp.name));
                continue;
            }
        };
        checks.op(true, String::new);
        insts += t.live.insts;
        bytes += t.bytes.len() as u64;
        for (c, r) in counts.iter_mut().zip(&t.replays) {
            *c = (c.0 + r.insts, c.1 + r.cycles, c.2 + r.icache_misses);
        }
    }
    let mut r = Report { checks, ..Report::default() };
    let per = |name: &str| run_tr.get(name).self_ns_per_unit();
    r.metric("runtime.next_block_ns_per_inst", per("runtime.next_block"), "ns/inst");
    for (k, p) in TimingConfig::PRESETS.iter().enumerate() {
        r.metric(format!("timing.feed_ns_per_inst.{}", p.name), per(FEED[k]), "ns/inst");
        let (n, cycles, misses) = counts[k];
        r.metric(format!("timing.ipc.{}", p.name), n as f64 / cycles as f64, "inst/cycle");
        r.metric(
            format!("timing.l1i_mpki.{}", p.name),
            misses as f64 * 1e3 / n as f64,
            "miss/kinst",
        );
    }
    r.metric("timing.new_us", run_tr.get("timing.new").mean_us(), "us");
    r.metric("trace.encode_ns_per_inst", per("trace.encode"), "ns/inst");
    r.metric("trace.read_ns_per_inst", per("trace.read"), "ns/inst");
    r.metric("trace.decode_ns_per_inst", per("trace.decode"), "ns/inst");
    r.metric("trace.to_dyninst_ns_per_inst", per("trace.to_dyninst"), "ns/inst");
    r.metric("trace.bytes_per_inst", bytes as f64 / insts as f64, "B/inst");
    r.metric("timing.layer_sum_ratio", run_tr.self_secs() / wall_t, "ratio");
    r.metric("timing.trace_overhead", wall_t / wall_u - 1.0, "ratio");
    global.merge(&setup_tr);
    global.merge(&run_tr);
    r
}
