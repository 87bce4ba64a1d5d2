//! # lis-perfbench — the toolkit's one performance benchmark
//!
//! Two workloads drive the library crates through their public functions:
//!
//! * [`interfaces`] — the paper's Table II: every standard buildset × ISA ×
//!   kernel, functional-only, on every backend, in steady state;
//! * [`timing`] — functional-first + out-of-order, live, recorded to an
//!   in-memory trace, and replayed under the four presets.
//!
//! An untraced run ([`measure`]) reports the end-to-end metrics of one
//! workload. A traced run ([`profile`]) times each call into a layer's
//! public functions from this crate's code ([`tracer`]) and reports the
//! per-layer metrics; besides the two workloads it profiles [`matrix`], the
//! committed sweep (`lis_bench::run_sweep`), and [`serve`], an in-process
//! `lis serve` under cold and warm `run` requests, so every layer is
//! measured. Every operation's output is checked; a failed check counts
//! against the run.

#![warn(missing_docs)]

pub mod gen;
pub mod interfaces;
pub mod matrix;
pub mod serve;
pub mod stats;
pub mod timing;
pub mod tracer;

use std::collections::BTreeMap;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["interfaces", "timing"];

/// What a traced run profiles: the workloads, then the sweep and the
/// daemon, the only callers of the `sweep` and `serve` layers.
pub const PROFILED: [&str; 4] = ["interfaces", "timing", "matrix", "serve"];

/// How much input a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload's full input set.
    Full,
    /// The smallest input set that still reaches every code path the
    /// workload's checks cover (the benchmark's own tests use it).
    Min,
}

/// Operation counts and the first few failures of a run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub first: Vec<String>,
}

impl Checks {
    /// Records one operation; `what` describes it when `ok` is false.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.wrong(what);
        }
    }

    /// Marks an already-counted operation wrong.
    pub fn wrong(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first.len() < 8 {
            self.first.push(what());
        }
    }

    /// Folds another run's counts into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.first {
            if self.first.len() < 8 {
                self.first.push(f);
            }
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness of every operation.
    pub checks: Checks,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Digest of every simulated statistic, one per workload run.
    pub digests: Vec<(String, String)>,
    /// Further named figures, printed for people (not part of the result
    /// line).
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: Report) {
        self.checks.merge(other.checks);
        self.metrics.extend(other.metrics);
        self.digests.extend(other.digests);
        self.notes.extend(other.notes);
    }
}

/// One metric of the catalog: name, unit, and whether higher is better.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.into(), unit, better }
}

/// The end-to-end metrics every untraced run reports, whatever the
/// workload; what "operation" means per workload is documented in
/// `perfbench/README.md`.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("mips", "MIPS", "higher"),
        def("ops_per_s", "1/s", "higher"),
        def("p50_ms", "ms", "lower"),
        def("p90_ms", "ms", "lower"),
        def("peak_rss_mb", "MiB", "lower"),
    ]
}

/// The per-layer metrics every traced run reports.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for (_, be) in interfaces::BACKENDS {
        for bs in lis_core::STANDARD_BUILDSETS {
            v.push(def(format!("runtime.ns_per_inst.{be}.{}", bs.name), "ns/inst", "lower"));
        }
    }
    for row in interfaces::TABLE3_ROWS {
        v.push(def(format!("runtime.table3.{row}_ns"), "ns/inst", "lower"));
    }
    v.push(def("runtime.next_block_ns_per_inst", "ns/inst", "lower"));
    v.push(def("runtime.new_us", "us", "lower"));
    for (_, be) in interfaces::BACKENDS {
        v.push(def(format!("runtime.first_run_ns_per_inst.{be}"), "ns/inst", "lower"));
    }
    v.push(def("runtime.blocks_built", "count", "lower"));
    v.push(def("runtime.seeded_blocks", "count", "higher"));
    v.push(def("analyze.preflight_us", "us", "lower"));
    v.push(def("analyze.preflight_translation_us", "us", "lower"));
    v.push(def("asm.assemble_ns_per_inst", "ns/inst", "lower"));
    for p in lis_timing::TimingConfig::PRESETS {
        v.push(def(format!("timing.feed_ns_per_inst.{}", p.name), "ns/inst", "lower"));
    }
    v.push(def("timing.new_us", "us", "lower"));
    for p in lis_timing::TimingConfig::PRESETS {
        v.push(def(format!("timing.ipc.{}", p.name), "inst/cycle", "higher"));
    }
    for p in lis_timing::TimingConfig::PRESETS {
        v.push(def(format!("timing.l1i_mpki.{}", p.name), "miss/kinst", "lower"));
    }
    v.push(def("trace.encode_ns_per_inst", "ns/inst", "lower"));
    v.push(def("trace.read_ns_per_inst", "ns/inst", "lower"));
    v.push(def("trace.decode_ns_per_inst", "ns/inst", "lower"));
    v.push(def("trace.to_dyninst_ns_per_inst", "ns/inst", "lower"));
    v.push(def("trace.bytes_per_inst", "B/inst", "lower"));
    v.push(def("serve.parse_frame_us", "us", "lower"));
    for class in ["cold", "warm"] {
        v.push(def(format!("serve.execute_us.{class}"), "us", "lower"));
    }
    for class in ["cold", "warm"] {
        v.push(def(format!("serve.overhead_us.{class}"), "us", "lower"));
    }
    v.push(def("serve.store_hit_ratio", "ratio", "higher"));
    v.push(def("sweep.new_share", "share", "lower"));
    v.push(def("sweep.functional_share", "share", "lower"));
    v.push(def("sweep.retime_share", "share", "lower"));
    for w in PROFILED {
        v.push(def(format!("{w}.layer_sum_ratio"), "ratio", "higher"));
    }
    for w in PROFILED {
        v.push(def(format!("{w}.trace_overhead"), "ratio", "lower"));
    }
    v
}

/// Runs `setup` `reps` times, handing every result but the last to
/// `dispose`, and returns the last result with the median set-up time in
/// seconds. Cheap set-ups take more repetitions, so every median covers
/// enough time to be steady.
pub fn setup_median<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut dispose: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            dispose(prev);
        }
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), stats::median(&times))
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Adds the end-to-end metrics every untraced run reports. `lat_s` holds
/// the latencies the percentiles are taken over, in seconds.
pub fn common_metrics(r: &mut Report, setup_s: f64, mips: f64, ops_per_s: f64, lat_s: &[f64]) {
    let q = |p| stats::quantile(lat_s, p) * 1e3;
    r.metric("setup_s", setup_s, "s");
    r.metric("mips", mips, "MIPS");
    r.metric("ops_per_s", ops_per_s, "1/s");
    r.metric("p50_ms", q(0.5), "ms");
    r.metric("p90_ms", q(0.9), "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    r.note(format!(
        "latency p25 {:.4} ms, p50 {:.4} ms, p75 {:.4} ms, p90 {:.4} ms ({} samples, {} beyond p90)",
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        lat_s.len(),
        lat_s.len() / 10,
    ));
}

/// Runs workload `name` untraced for about `seconds` and reports its
/// end-to-end metrics.
///
/// # Errors
///
/// An unknown workload name.
pub fn measure(name: &str, seed: u64, seconds: f64, size: Size) -> Result<Report, String> {
    match name {
        "interfaces" => Ok(interfaces::measure(seed, seconds, size)),
        "timing" => Ok(timing::measure(seed, seconds, size)),
        other => Err(format!("unknown workload `{other}` (valid: {})", WORKLOADS.join(", "))),
    }
}

/// The traced run of workload `name`: everything in [`PROFILED`] is
/// profiled so each per-layer metric is present, `name` at `size` and the
/// rest at [`Size::Min`].
///
/// # Errors
///
/// An unknown workload name.
pub fn profile(name: &str, seed: u64, size: Size) -> Result<Report, String> {
    if !WORKLOADS.contains(&name) {
        return Err(format!("unknown workload `{name}` (valid: {})", WORKLOADS.join(", ")));
    }
    let size_of = |w: &str| if w == name { size } else { Size::Min };
    let mut tr = tracer::Tracer::on();
    let mut r = Report::default();
    r.merge(interfaces::profile(seed, size_of("interfaces"), &mut tr));
    r.merge(timing::profile(seed, size_of("timing"), &mut tr));
    r.merge(matrix::profile(size_of("matrix"), &mut tr));
    r.merge(serve::profile(seed, size_of("serve"), &mut tr));
    // Layer calls that several workloads make are reported over all of them.
    r.metric("runtime.new_us", tr.get("runtime.new").mean_us(), "us");
    r.metric("analyze.preflight_us", tr.get("analyze.preflight").mean_us(), "us");
    r.metric(
        "analyze.preflight_translation_us",
        tr.get("analyze.preflight_translation").mean_us(),
        "us",
    );
    r.metric("asm.assemble_ns_per_inst", tr.get("asm.assemble").self_ns_per_unit(), "ns/inst");
    Ok(r)
}
