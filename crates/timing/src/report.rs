//! Timing-simulation configuration and reporting.

use crate::cache::CacheConfig;
use crate::components::TimingConfig;

/// Pipeline/memory parameters shared by the timing models.
#[derive(Debug, Clone, Copy)]
pub struct CoreConfig {
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache.
    pub dcache: CacheConfig,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
    /// Branch predictor entries.
    pub predictor_entries: usize,
    /// Component selection: predictor, replacement policy, prefetcher.
    pub timing: TimingConfig,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            icache: CacheConfig::L1I,
            dcache: CacheConfig::L1D,
            mispredict_penalty: 8,
            predictor_entries: 1024,
            timing: TimingConfig::CLASSIC,
        }
    }
}

/// What one timing-simulator organization produced for one program.
#[derive(Debug, Clone, Default)]
pub struct TimingReport {
    /// Organization name.
    pub organization: &'static str,
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub insts: u64,
    /// Calls made through the functional interface.
    pub interface_calls: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Data-cache misses.
    pub dcache_misses: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Timing-vs-functional mismatches detected (timing-first only).
    pub mismatches: u64,
    /// Rollbacks performed (speculative functional-first only).
    pub rollbacks: u64,
    /// Stale cached blocks the functional source degraded gracefully on
    /// (see `SimStats::fallback_blocks`). A whole-run fact of the
    /// instruction *source*: live frontends copy it from the engine, replay
    /// copies it from the trace footer, so the two `--stats-json` paths
    /// agree at run granularity.
    pub fallback_blocks: u64,
    /// Program exit code.
    pub exit_code: i64,
    /// Captured program output.
    pub stdout: Vec<u8>,
}

impl TimingReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Interface calls per instruction — the semantic-detail cost metric.
    pub fn calls_per_inst(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.interface_calls as f64 / self.insts as f64
        }
    }

    /// Folds another report into this one by summing every counter.
    ///
    /// Sharded replay produces one report per shard; the merge is the
    /// aggregate over all measured regions. `exit_code` and `stdout` are
    /// whole-program facts, not per-shard ones, so they are taken from
    /// `other` only when this report has none (the caller feeds shards in
    /// order, and only the final shard carries them). `fallback_blocks` is
    /// likewise a whole-run fact that the caller sets once from the source,
    /// never a per-shard sum.
    pub fn merge(&mut self, other: &TimingReport) {
        self.cycles += other.cycles;
        self.insts += other.insts;
        self.interface_calls += other.interface_calls;
        self.icache_misses += other.icache_misses;
        self.dcache_misses += other.dcache_misses;
        self.mispredicts += other.mispredicts;
        self.mismatches += other.mismatches;
        self.rollbacks += other.rollbacks;
        if self.stdout.is_empty() {
            self.stdout = other.stdout.clone();
        }
        if self.exit_code == 0 {
            self.exit_code = other.exit_code;
        }
    }

    /// Renders the report as one flat JSON object (see `--stats-json`).
    /// `stdout` is included as a string with non-UTF-8 bytes replaced.
    pub fn to_json(&self) -> String {
        let mut o = lis_core::JsonObj::new();
        o.str("organization", self.organization)
            .u64("cycles", self.cycles)
            .u64("insts", self.insts)
            .u64("interface_calls", self.interface_calls)
            .u64("icache_misses", self.icache_misses)
            .u64("dcache_misses", self.dcache_misses)
            .u64("mispredicts", self.mispredicts)
            .u64("mismatches", self.mismatches)
            .u64("rollbacks", self.rollbacks)
            .u64("fallback_blocks", self.fallback_blocks)
            .f64("ipc", self.ipc())
            .f64("calls_per_inst", self.calls_per_inst())
            .i64("exit_code", self.exit_code)
            .str("stdout", &String::from_utf8_lossy(&self.stdout));
        o.finish()
    }
}

impl std::fmt::Display for TimingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // 28 columns fit the longest organization name,
        // `speculative-functional-first`, so every row's columns line up.
        write!(
            f,
            "{:<28} {:>10} insts {:>12} cycles  IPC {:.3}  calls/inst {:>5.2}  miss(i/d) {}/{}  mispred {}",
            self.organization,
            self.insts,
            self.cycles,
            self.ipc(),
            self.calls_per_inst(),
            self.icache_misses,
            self.dcache_misses,
            self.mispredicts
        )?;
        if self.mismatches > 0 {
            write!(f, "  mismatches {}", self.mismatches)?;
        }
        if self.rollbacks > 0 {
            write!(f, "  rollbacks {}", self.rollbacks)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let r =
            TimingReport { cycles: 200, insts: 100, interface_calls: 700, ..Default::default() };
        assert!((r.ipc() - 0.5).abs() < 1e-12);
        assert!((r.calls_per_inst() - 7.0).abs() < 1e-12);
        assert_eq!(TimingReport::default().ipc(), 0.0);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = TimingReport { cycles: 10, insts: 5, icache_misses: 1, ..Default::default() };
        let b = TimingReport {
            cycles: 20,
            insts: 7,
            mispredicts: 2,
            exit_code: 3,
            stdout: b"hi".to_vec(),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 30);
        assert_eq!(a.insts, 12);
        assert_eq!(a.icache_misses, 1);
        assert_eq!(a.mispredicts, 2);
        assert_eq!(a.exit_code, 3);
        assert_eq!(a.stdout, b"hi");
    }

    #[test]
    fn json_roundtrips_fields() {
        let r = TimingReport {
            organization: "test",
            cycles: 2,
            insts: 1,
            stdout: b"x\n".to_vec(),
            ..Default::default()
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"organization\":\"test\""));
        assert!(j.contains("\"cycles\":2"));
        assert!(j.contains("\"stdout\":\"x\\n\""));
    }

    #[test]
    fn golden_json_includes_fallback_blocks() {
        // The exact serialized form both `lis run --stats-json` and
        // `lis trace replay --stats-json` emit for a degraded run; a shape
        // change here is a compatibility break for JSON consumers.
        let r = TimingReport {
            organization: "g",
            cycles: 4,
            insts: 2,
            fallback_blocks: 3,
            ..Default::default()
        };
        assert_eq!(
            r.to_json(),
            "{\"organization\":\"g\",\"cycles\":4,\"insts\":2,\
             \"interface_calls\":0,\"icache_misses\":0,\"dcache_misses\":0,\
             \"mispredicts\":0,\"mismatches\":0,\"rollbacks\":0,\
             \"fallback_blocks\":3,\"ipc\":0.500000,\"calls_per_inst\":0.000000,\
             \"exit_code\":0,\"stdout\":\"\"}"
        );
    }
}
