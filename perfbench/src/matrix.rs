//! `matrix`: the committed sweep, profiled.
//!
//! `lis_bench::run_sweep` over buildsets × ISAs × kernels × backends ×
//! timing presets — the command that regenerates the paper's tables — run
//! on one worker, and the same cells again through the per-cell public
//! calls under spans. Its inputs are the fixed suite, so the seed does not
//! change them. An operation is one sweep cell.

use crate::stats::geomean;
use crate::tracer::Tracer;
use crate::{interfaces::BACKENDS, Checks, Report, Size};
use lis_bench::sweep::sweep_cells;
use lis_bench::{run_sweep, SweepConfig, SweepReport};
use lis_runtime::Simulator;
use lis_timing::{run_functional_first_ooo, CoreConfig, OooConfig, TimingConfig};
use lis_workloads::spec_of;
use std::time::Instant;

/// The kernels of the profiled sweep: three at full size, one at minimum.
fn kernels(size: Size) -> Vec<String> {
    let pick: &[&str] = match size {
        Size::Full => &["gcd", "strrev", "bitcount"],
        Size::Min => &["strrev"],
    };
    pick.iter().map(|k| k.to_string()).collect()
}

fn config(kernels: Vec<String>) -> SweepConfig {
    SweepConfig {
        jobs: 1,
        kernels,
        backends: BACKENDS.iter().map(|(b, _)| *b).collect(),
        timings: TimingConfig::PRESETS.to_vec(),
        ..SweepConfig::default()
    }
}

/// A cell is correct when it halted with exit 0, with no fault, crash or
/// watchdog expiry, and was re-timed.
fn check_cells(r: &SweepReport, checks: &mut Checks) {
    for c in &r.cells {
        let ok = c.halted
            && c.exit_code == 0
            && c.fault.is_none()
            && c.crashes == 0
            && !c.deadline_expired
            && c.timing_report.is_some();
        checks.op(ok, || {
            format!("{}/{}/{}/{:?}/{}", c.isa, c.buildset, c.kernel, c.backend, c.timing.name)
        });
    }
}

/// The traced run: the same cells on one thread, once through `run_sweep`
/// and once through the per-cell public calls under spans.
pub fn profile(size: Size, global: &mut Tracer) -> Report {
    let cfg = config(kernels(size));
    let mut checks = Checks::default();
    let t0 = Instant::now();
    let reference = run_sweep(&cfg).expect("the sweep configuration is valid");
    let wall_u = t0.elapsed().as_secs_f64();
    check_cells(&reference, &mut checks);

    let mut tr = Tracer::on();
    let names = reference.kernels.clone();
    let t0 = Instant::now();
    for (cell, expected) in
        sweep_cells(&names, &cfg.backends, &cfg.timings).iter().zip(&reference.cells)
    {
        let spec = spec_of(cell.isa);
        let kernel = lis_workloads::kernel(cell.isa, cell.kernel).expect("suite kernel");
        let image =
            tr.span("sweep.assemble", || kernel.assemble()).expect("suite kernels assemble");
        let sim = tr.span("sweep.new", || Simulator::new(spec, cell.buildset));
        let mut sim = sim.expect("standard buildsets pass the gate");
        sim.set_backend(cell.backend);
        tr.span("runtime.load_program", || sim.load_program(&image)).expect("suite kernels load");
        let run = tr.span("sweep.functional", || sim.run_to_halt(cfg.max_insts));
        let core = CoreConfig { timing: cell.timing, ..CoreConfig::default() };
        let retimed = tr.span("sweep.retime", || {
            run_functional_first_ooo(spec, &image, &core, &OooConfig::default())
        });
        let ok = matches!(run, Ok(s) if s.halted && s.exit_code == 0)
            && sim.stats == expected.stats
            && matches!((&retimed, &expected.timing_report), (Ok(a), Some(b)) if a.cycles == b.cycles && a.insts == b.insts);
        checks.op(ok, || {
            format!(
                "{}/{}/{}: traced cell differs from the sweep",
                cell.isa, cell.buildset.name, cell.kernel
            )
        });
    }
    let wall_t = t0.elapsed().as_secs_f64();
    let cell_time = tr.self_secs();
    let share = |name: &str| tr.get(name).self_ns as f64 / 1e9 / cell_time;
    let mut r = Report { checks, ..Report::default() };
    r.metric("sweep.new_share", share("sweep.new"), "share");
    r.metric("sweep.functional_share", share("sweep.functional"), "share");
    r.metric("sweep.retime_share", share("sweep.retime"), "share");
    r.metric("matrix.layer_sum_ratio", cell_time / wall_t, "ratio");
    r.metric("matrix.trace_overhead", wall_t / wall_u - 1.0, "ratio");
    r.note(format!(
        "matrix (traced, {} cells on one thread): geomean cell {:.1} us",
        reference.cells.len(),
        geomean(&reference.cells.iter().map(|c| c.secs * 1e6).collect::<Vec<_>>())
    ));
    global.merge(&tr);
    r
}
