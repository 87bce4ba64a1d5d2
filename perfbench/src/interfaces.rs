//! `interfaces`: the paper's Table II in host time.
//!
//! Every standard buildset × ISA × suite kernel runs functional-only
//! through `Simulator::run_to_halt` at the buildset's own semantic level, on
//! each backend. One simulator per cell is built and run once during
//! set-up, so construction and first translation land in `setup_s`; the
//! measured rounds then re-run every cell in steady state, in a seeded
//! order. An operation is one kernel run.

use crate::stats::{geomean, Digest, Rng};
use crate::tracer::Tracer;
use crate::{common_metrics, setup_median, Checks, Report, Size};
use lis_core::{BuildsetDef, STANDARD_BUILDSETS};
use lis_mem::Image;
use lis_runtime::{Backend, SimStats, SimStop, Simulator};
use lis_workloads::{spec_of, suite_of, Workload, ISAS};
use std::time::Instant;

/// The backends, with the names metrics use.
pub const BACKENDS: [(Backend, &str); 3] = [
    (Backend::Interpreted, "interpreted"),
    (Backend::Cached, "cached"),
    (Backend::Compiled, "compiled"),
];

/// Table III rows, in the paper's order.
pub const TABLE3_ROWS: [&str; 6] = ["base", "decode", "full", "block", "step", "spec"];

const FIRST_RUN: [&str; 3] =
    ["runtime.first_run.interpreted", "runtime.first_run.cached", "runtime.first_run.compiled"];

/// Runaway guard: every suite kernel halts far below it.
const MAX_INSTS: u64 = 50_000_000;

struct Cell {
    isa: &'static str,
    bs: BuildsetDef,
    backend: usize,
    kernel: &'static Workload,
    image: Image,
    expected: String,
    sim: Simulator,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}/{}/{}", self.isa, self.bs.name, self.kernel.name, BACKENDS[self.backend].1)
    }
}

fn kernels(isa: &str, size: Size) -> Vec<&'static Workload> {
    suite_of(isa).iter().filter(|w| size == Size::Full || w.name == "strrev").collect()
}

/// Builds one simulator per cell and runs it once (the cold, translating
/// pass). With the tracer on, also times the pre-flight gate's two legs on
/// their own for every (ISA, buildset).
fn setup(size: Size, checks: &mut Checks, tr: &mut Tracer) -> Vec<Cell> {
    let mut cells = Vec::new();
    for isa in ISAS {
        let spec = spec_of(isa);
        if tr.is_on() {
            for bs in &STANDARD_BUILDSETS {
                let gate = tr.span("analyze.preflight", || lis_analyze::preflight(spec, bs));
                let view =
                    tr.span("runtime.synthesize_view", || lis_runtime::synthesize_view(spec, bs));
                let tgate = tr.span("analyze.preflight_translation", || {
                    lis_analyze::preflight_translation(spec, bs, &view)
                });
                checks.op(gate.is_ok() && tgate.is_ok(), || {
                    format!("{isa}/{}: pre-flight rejects", bs.name)
                });
            }
        }
        for kernel in kernels(isa, size) {
            let image = kernel.assemble().expect("suite kernels assemble");
            let expected = kernel.expected_stdout();
            for bs in STANDARD_BUILDSETS {
                for (b, (backend, _)) in BACKENDS.iter().enumerate() {
                    let sim = tr.span("runtime.new", || Simulator::new(spec, bs));
                    let mut sim = sim.expect("standard buildsets pass the gate");
                    sim.set_backend(*backend);
                    sim.load_program(&image).expect("suite kernels load");
                    let mut cell = Cell {
                        isa,
                        bs,
                        backend: b,
                        kernel,
                        image: image.clone(),
                        expected: expected.clone(),
                        sim,
                    };
                    let before = cell.sim.stats.insts;
                    tr.enter();
                    let ok = run_ok(&mut cell);
                    tr.exit_n(FIRST_RUN[b], cell.sim.stats.insts - before);
                    checks.op(ok, || format!("{}: first run wrong", cell.label()));
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

/// Runs a loaded cell to halt; true when it exits 0 with the golden stdout.
fn run_ok(c: &mut Cell) -> bool {
    matches!(c.sim.run_to_halt(MAX_INSTS), Ok(s) if s.halted && s.exit_code == 0)
        && c.sim.stdout() == c.expected.as_bytes()
}

fn delta(a: &SimStats, b: &SimStats) -> [u64; 13] {
    [
        b.insts - a.insts,
        b.calls - a.calls,
        b.blocks - a.blocks,
        b.faults - a.faults,
        b.blocks_built - a.blocks_built,
        b.checkpoints - a.checkpoints,
        b.rollbacks - a.rollbacks,
        b.fallback_blocks - a.fallback_blocks,
        b.published_values - a.published_values,
        b.published_opsets - a.published_opsets,
        b.undo_records - a.undo_records,
        b.demotions - a.demotions,
        b.seeded_blocks - a.seeded_blocks,
    ]
}

/// Instructions each cell runs back to back in one round, in whole kernel
/// runs: a kernel shorter than this runs several times, so its later runs
/// find the cell's code and data hot; a longer one runs once and warms up
/// within the run. Short slices make short rounds, so each cell is timed at
/// many moments spread over the run. Counting runs, not time, keeps the mix
/// of operations the same on every host.
const SLICE_INSTS: u64 = 10_000;

/// The instruction budget of one timed `run_to_halt` call: a kernel run is
/// made of calls of at most this many instructions, each timed on its own.
/// The shorter the timed span, the likelier it fits between bursts of load
/// from the rest of the host.
const TIMED_INSTS: u64 = 5_000;

/// A cell's fastest time for each timed call of its kernel run so far. The
/// runs are deterministic — the same instructions in the same calls every
/// time — so interference from the rest of the host only ever adds time,
/// and the sum of the fastest calls is the steadiest estimate of the
/// cell's steady-state cost.
#[derive(Debug, Clone, Default)]
struct CellTime {
    insts: u64,
    best: Vec<f64>,
}

impl CellTime {
    fn secs(&self) -> f64 {
        self.best.iter().sum()
    }

    fn mips(&self) -> f64 {
        self.insts as f64 / self.secs() / 1e6
    }
}

/// Runs a loaded cell to halt in timed calls of at most [`TIMED_INSTS`]
/// instructions, keeping each call's fastest time in `t`; true when the
/// kernel exits 0 with the golden stdout.
fn run_timed(c: &mut Cell, t: &mut CellTime) -> bool {
    let start = c.sim.stats.insts;
    let mut k = 0;
    let exited = loop {
        let t0 = Instant::now();
        let r = c.sim.run_to_halt(TIMED_INSTS);
        let dt = t0.elapsed().as_secs_f64();
        match t.best.get_mut(k) {
            Some(b) => *b = b.min(dt),
            None => t.best.push(dt),
        }
        k += 1;
        match r {
            Ok(s) => break s.halted && s.exit_code == 0,
            Err(SimStop::MaxInsts) if c.sim.stats.insts - start < MAX_INSTS => {}
            Err(_) => break false,
        }
    };
    t.insts = c.sim.stats.insts - start;
    exited && c.sim.stdout() == c.expected.as_bytes()
}

/// One steady-state round: every cell in `order` re-runs its kernel back to
/// back about [`SLICE_INSTS`] instructions' worth. Returns each cell's
/// counter deltas over its first run (for the cross-backend check and the
/// digest).
fn round(
    cells: &mut [Cell],
    order: &[usize],
    checks: &mut Checks,
    tr: &mut Tracer,
    times: &mut [CellTime],
    ops: &mut usize,
) -> Vec<[u64; 13]> {
    let mut deltas = vec![[0u64; 13]; cells.len()];
    for &i in order {
        let c = &mut cells[i];
        let reps = SLICE_INSTS.div_ceil(c.kernel.approx_insts);
        for run in 0..reps {
            tr.span("runtime.reset_program", || c.sim.reset_program(&c.image))
                .expect("suite kernels load");
            let before = c.sim.stats;
            tr.enter();
            let ok = run_timed(c, &mut times[i]);
            let d = delta(&before, &c.sim.stats);
            tr.exit_n("runtime.run_to_halt", d[0]);
            checks.op(ok, || format!("{}: wrong exit or stdout", c.label()));
            if run == 0 {
                deltas[i] = d;
            }
            *ops += 1;
            if !ok {
                break;
            }
        }
    }
    deltas
}

/// Checks that every backend produced identical interface counters for
/// each (ISA, buildset, kernel) and folds every cell's counters into the
/// digest. `blocks_built` is left out of the comparison: how many blocks a
/// backend builds is its own business.
fn cross_check(cells: &[Cell], deltas: &[[u64; 13]], checks: &mut Checks, digest: &mut Digest) {
    for (i, c) in cells.iter().enumerate() {
        for v in deltas[i] {
            digest.u64(v);
        }
        if c.backend == 0 {
            continue;
        }
        // Cells are laid out backend-innermost, so the interpreted
        // reference of cell `i` sits `backend` places before it.
        let reference = &deltas[i - c.backend];
        let same = deltas[i].iter().zip(reference).enumerate().all(|(k, (a, b))| k == 4 || a == b);
        if !same {
            checks.wrong(|| format!("{}: counters differ from interpreted", c.label()));
        }
    }
}

fn order(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut o: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut o);
    o
}

/// Geometric-mean MIPS of the cells on `backend` (all backends for
/// `None`).
fn mips(cells: &[Cell], times: &[CellTime], backend: Option<usize>) -> f64 {
    let v: Vec<f64> = cells
        .iter()
        .zip(times)
        .filter(|(c, _)| backend.is_none_or(|b| c.backend == b))
        .map(|(_, t)| t.mips())
        .collect();
    geomean(&v)
}

/// The untraced run.
pub fn measure(seed: u64, seconds: f64, size: Size) -> Report {
    let mut checks = Checks::default();
    let (mut cells, setup_s) =
        setup_median(5, || setup(size, &mut checks, &mut Tracer::off()), drop);
    let mut rng = Rng::new(seed);
    let mut times = vec![CellTime::default(); cells.len()];
    let mut ops = 0;
    let mut digest = Digest::default();
    let mut tr = Tracer::off();
    let t0 = Instant::now();
    let mut rounds = 0;
    loop {
        let o = order(cells.len(), &mut rng);
        let deltas = round(&mut cells, &o, &mut checks, &mut tr, &mut times, &mut ops);
        if rounds == 0 {
            cross_check(&cells, &deltas, &mut checks, &mut digest);
        }
        rounds += 1;
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    // Latency and throughput of one pass over every cell, each cell's kernel
    // run at the sum of its fastest calls.
    let best: Vec<f64> = times.iter().map(CellTime::secs).collect();
    let mut r = Report { checks, ..Report::default() };
    common_metrics(
        &mut r,
        setup_s,
        mips(&cells, &times, None),
        best.len() as f64 / best.iter().sum::<f64>(),
        &best,
    );
    r.note(format!(
        "interfaces: {} cells x {rounds} rounds, {ops} kernel runs in {wall:.3} s; functional_mips (compiled) {:.3}, interpreted_mips {:.3}, cached_mips {:.3}",
        cells.len(),
        mips(&cells, &times, Some(2)),
        mips(&cells, &times, Some(0)),
        mips(&cells, &times, Some(1)),
    ));
    r.digests.push(("interfaces".into(), digest.hex()));
    r
}

/// Table III, as differences of compiled ns/inst (the paper's
/// base-plus-increment construction), from per-buildset figures.
fn table3(ns: impl Fn(&str) -> f64) -> [f64; 6] {
    let base = ns("one-min");
    let spec_pairs = [
        ("block-decode", "block-decode-spec"),
        ("block-all", "block-all-spec"),
        ("one-decode", "one-decode-spec"),
        ("one-all", "one-all-spec"),
        ("step-all", "step-all-spec"),
    ];
    let spec = spec_pairs.iter().map(|(a, b)| ns(b) - ns(a)).sum::<f64>() / spec_pairs.len() as f64;
    [
        base,
        ns("one-decode") - base,
        ns("one-all") - base,
        ns("block-min") - base,
        ns("step-all") - ns("one-all"),
        spec,
    ]
}

/// The traced run: set-up with the construction, pre-flight and first-run
/// spans, then alternating untraced and traced steady-state rounds.
pub fn profile(seed: u64, size: Size, global: &mut Tracer) -> Report {
    let mut checks = Checks::default();
    let mut setup_tr = Tracer::on();
    let mut cells = setup(size, &mut checks, &mut setup_tr);
    let mut rng = Rng::new(seed);
    // An even number of rounds, alternating which of the pair runs first,
    // so drift in host speed does not land on one side.
    let rounds = 4;
    let mut run_tr = Tracer::on();
    let mut times = vec![CellTime::default(); cells.len()];
    let mut scratch = vec![CellTime::default(); cells.len()];
    let (mut wall_u, mut wall_t) = (0.0, 0.0);
    let mut ops = 0;
    for k in 0..rounds {
        let o = order(cells.len(), &mut rng);
        for traced in [k % 2 == 0, k % 2 == 1] {
            let t0 = Instant::now();
            if traced {
                round(&mut cells, &o, &mut checks, &mut run_tr, &mut times, &mut ops);
                wall_t += t0.elapsed().as_secs_f64();
            } else {
                round(&mut cells, &o, &mut checks, &mut Tracer::off(), &mut scratch, &mut ops);
                wall_u += t0.elapsed().as_secs_f64();
            }
        }
    }
    let mut r = Report { checks, ..Report::default() };
    // ns/inst per (backend, buildset): geometric mean over ISA × kernel.
    let ns = |b: usize, bs: &str| {
        let v: Vec<f64> = cells
            .iter()
            .zip(&times)
            .filter(|(c, _)| c.backend == b && c.bs.name == bs)
            .map(|(_, t)| 1e3 / t.mips())
            .collect();
        geomean(&v)
    };
    for (b, (_, be)) in BACKENDS.iter().enumerate() {
        for bs in STANDARD_BUILDSETS {
            r.metric(format!("runtime.ns_per_inst.{be}.{}", bs.name), ns(b, bs.name), "ns/inst");
        }
        r.metric(
            format!("runtime.first_run_ns_per_inst.{be}"),
            setup_tr.get(FIRST_RUN[b]).self_ns_per_unit(),
            "ns/inst",
        );
    }
    for (row, v) in TABLE3_ROWS.iter().zip(table3(|bs| ns(2, bs))) {
        r.metric(format!("runtime.table3.{row}_ns"), v, "ns/inst");
    }
    r.metric("interfaces.layer_sum_ratio", run_tr.self_secs() / wall_t, "ratio");
    r.metric("interfaces.trace_overhead", wall_t / wall_u - 1.0, "ratio");
    global.merge(&setup_tr);
    global.merge(&run_tr);
    r
}
