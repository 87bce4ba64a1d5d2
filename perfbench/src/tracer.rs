//! Spans around calls into the toolkit's layers, recorded from the
//! benchmark's own code.
//!
//! A span is opened before a call and closed after it under a name of the
//! form `<layer>.<call>`. Spans nest: a closing span adds its duration to
//! its parent's child time, so a span's *self* time is its duration minus
//! the part its children cover. Totals are kept in memory per name and
//! read out when the run ends. A disabled tracer reads no clock at all.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated time and work of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Summed durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed self times (duration minus child spans), in nanoseconds.
    pub self_ns: u64,
    /// Spans closed.
    pub calls: u64,
    /// Work units the spans reported (instructions, records, ...).
    pub units: u64,
}

impl Acc {
    /// Mean span duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }

    /// Self time per work unit in nanoseconds.
    pub fn self_ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.units as f64
        }
    }
}

/// The span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    open: Vec<(Instant, u64)>,
    acc: BTreeMap<&'static str, Acc>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer { on: true, ..Tracer::default() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span.
    pub fn enter(&mut self) {
        if self.on {
            self.open.push((Instant::now(), 0));
        }
    }

    /// Closes the innermost span under `name`, crediting `units` of work.
    pub fn exit_n(&mut self, name: &'static str, units: u64) {
        if !self.on {
            return;
        }
        let (t0, child) = self.open.pop().expect("exit matches an enter");
        let d = t0.elapsed().as_nanos() as u64;
        let a = self.acc.entry(name).or_default();
        a.total_ns += d;
        a.self_ns += d.saturating_sub(child);
        a.calls += 1;
        a.units += units;
        if let Some(parent) = self.open.last_mut() {
            parent.1 += d;
        }
    }

    /// Closes the innermost span under `name`.
    pub fn exit(&mut self, name: &'static str) {
        self.exit_n(name, 0);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter();
        let r = f();
        self.exit(name);
        r
    }

    /// The totals for `name` (zero when no span had that name).
    pub fn get(&self, name: &str) -> Acc {
        self.acc.get(name).copied().unwrap_or_default()
    }

    /// Sum of every span's self time, in seconds: the time the traced
    /// layers account for.
    pub fn self_secs(&self) -> f64 {
        self.acc.values().map(|a| a.self_ns).sum::<u64>() as f64 / 1e9
    }

    /// Folds another tracer's totals into this one.
    pub fn merge(&mut self, other: &Tracer) {
        for (name, a) in &other.acc {
            let e = self.acc.entry(name).or_default();
            e.total_ns += a.total_ns;
            e.self_ns += a.self_ns;
            e.calls += a.calls;
            e.units += a.units;
        }
    }
}
