//! The golden replay property: a trace recorded once at maximum detail and
//! replayed through the out-of-order consumer produces **the same timing
//! report** as the execute-driven functional-first simulation — for every
//! kernel on every ISA. Sharded replay preserves the exact instruction
//! counts and whole-run facts, and is deterministic.

use lis_timing::{run_functional_first_ooo, CoreConfig, OooConfig, TimingConfig, TimingReport};
use lis_trace::{record, replay_ooo, RecordOptions, ReplayConfig, Trace};
use lis_workloads::{spec_of, suite_of, ISAS};
use proptest::prelude::*;

/// Records a kernel at maximum detail with small chunks (so sharding has
/// boundaries to split at) and loads the trace back.
fn trace_of(isa: &str, kernel: &str) -> Trace {
    let spec = spec_of(isa);
    let image = lis_workloads::kernel(isa, kernel)
        .expect("kernel exists")
        .assemble()
        .expect("kernel assembles");
    let mut bytes = Vec::new();
    let opts =
        RecordOptions { kernel: kernel.to_string(), chunk_target: 4096, ..Default::default() };
    record(spec, &image, &mut bytes, &opts).expect("recording succeeds");
    Trace::read_from(bytes.as_slice()).expect("trace reads back")
}

fn execute_driven_with(isa: &str, kernel: &str, timing: TimingConfig) -> TimingReport {
    let spec = spec_of(isa);
    let image = lis_workloads::kernel(isa, kernel)
        .expect("kernel exists")
        .assemble()
        .expect("kernel assembles");
    let core = CoreConfig { timing, ..CoreConfig::default() };
    run_functional_first_ooo(spec, &image, &core, &OooConfig::default()).expect("kernel halts")
}

fn execute_driven(isa: &str, kernel: &str) -> TimingReport {
    execute_driven_with(isa, kernel, TimingConfig::CLASSIC)
}

fn assert_reports_equal(live: &TimingReport, replayed: &TimingReport, label: &str) {
    assert_eq!(replayed.cycles, live.cycles, "{label}: cycles");
    assert_eq!(replayed.insts, live.insts, "{label}: insts");
    assert_eq!(replayed.interface_calls, live.interface_calls, "{label}: interface calls");
    assert_eq!(replayed.icache_misses, live.icache_misses, "{label}: icache misses");
    assert_eq!(replayed.dcache_misses, live.dcache_misses, "{label}: dcache misses");
    assert_eq!(replayed.mispredicts, live.mispredicts, "{label}: mispredicts");
    assert_eq!(replayed.fallback_blocks, live.fallback_blocks, "{label}: fallback blocks");
    assert_eq!(replayed.exit_code, live.exit_code, "{label}: exit code");
    assert_eq!(replayed.stdout, live.stdout, "{label}: stdout");
}

#[test]
fn single_shard_replay_is_bit_identical_to_execute_driven() {
    for isa in ISAS {
        for w in suite_of(isa) {
            let label = format!("{isa}/{}", w.name);
            let live = execute_driven(isa, w.name);
            let trace = trace_of(isa, w.name);
            let replayed = replay_ooo(spec_of(isa), &trace, &ReplayConfig::default())
                .expect("replay succeeds");
            assert_reports_equal(&live, &replayed, &label);
        }
    }
}

#[test]
fn sharded_replay_preserves_counts_and_is_deterministic() {
    for isa in ISAS {
        let label = format!("{isa}/sieve sharded");
        let live = execute_driven(isa, "sieve");
        let trace = trace_of(isa, "sieve");
        assert!(trace.chunks.len() >= 4, "{label}: enough chunks to shard");

        let cfg = ReplayConfig { shards: 4, ..Default::default() };
        let a = replay_ooo(spec_of(isa), &trace, &cfg).expect("replay succeeds");
        let b = replay_ooo(spec_of(isa), &trace, &cfg).expect("replay succeeds");

        // Exact: instruction counts and whole-run facts survive sharding.
        assert_eq!(a.insts, live.insts, "{label}: insts merge exactly");
        assert_eq!(a.interface_calls, live.interface_calls, "{label}: interface calls");
        assert_eq!(a.exit_code, live.exit_code, "{label}: exit code");
        assert_eq!(a.stdout, live.stdout, "{label}: stdout");

        // Deterministic: the same sharded replay twice is identical,
        // cycles included.
        assert_eq!(a.cycles, b.cycles, "{label}: deterministic cycles");
        assert_eq!(a.insts, b.insts, "{label}: deterministic insts");
        assert_eq!(a.icache_misses, b.icache_misses, "{label}: deterministic icache");
        assert_eq!(a.dcache_misses, b.dcache_misses, "{label}: deterministic dcache");
        assert_eq!(a.mispredicts, b.mispredicts, "{label}: deterministic mispredicts");

        // Approximate: warmed-up shards land near the sequential cycle
        // count (warm-up bounds the cold-start error, it cannot erase it).
        let lo = live.cycles - live.cycles / 5;
        let hi = live.cycles + live.cycles / 5;
        assert!(
            (lo..=hi).contains(&a.cycles),
            "{label}: sharded cycles {} not within 20% of sequential {}",
            a.cycles,
            live.cycles
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The golden property holds on every *component preset*, not just the
    /// default: for any (preset, ISA, kernel), the execute-driven
    /// functional-first ooo run and a single-shard replay of one max-detail
    /// recording produce bit-identical reports. The recording itself is
    /// preset-independent — only the replay-side core config varies — which
    /// is exactly the single-specification claim for the timing components.
    #[test]
    fn replay_is_bit_identical_under_every_preset(
        preset_idx in 0usize..TimingConfig::PRESETS.len(),
        isa_idx in 0usize..ISAS.len(),
        kernel_seed in 0u64..1_000_000,
    ) {
        let preset = TimingConfig::PRESETS[preset_idx];
        let isa = ISAS[isa_idx];
        let suite = suite_of(isa);
        let kernel = suite[(kernel_seed % suite.len() as u64) as usize].name;
        let label = format!("{}/{isa}/{kernel}", preset.name);

        let live = execute_driven_with(isa, kernel, preset);
        let trace = trace_of(isa, kernel);
        let cfg = ReplayConfig {
            core: CoreConfig { timing: preset, ..CoreConfig::default() },
            ..ReplayConfig::default()
        };
        let replayed = replay_ooo(spec_of(isa), &trace, &cfg).expect("replay succeeds");
        assert_reports_equal(&live, &replayed, &label);
    }
}

#[test]
fn oversharding_degrades_gracefully() {
    // More shards than chunks: clamps, still exact on instruction counts.
    let live = execute_driven("alpha", "strrev");
    let trace = trace_of("alpha", "strrev");
    let cfg = ReplayConfig { shards: 64, ..Default::default() };
    let r = replay_ooo(spec_of("alpha"), &trace, &cfg).expect("replay succeeds");
    assert_eq!(r.insts, live.insts);
    assert_eq!(r.stdout, live.stdout);
}

#[test]
fn fallback_blocks_is_a_run_granularity_fact_in_both_json_paths() {
    // `fallback_blocks` counts engine-side cache degradation the record
    // stream never shows, so both `--stats-json` paths must report the
    // engine's run-granularity count: live frontends copy it from
    // `SimStats`, replay copies it from the trace footer. Golden-JSON check
    // that the replayed report carries the recorded count verbatim.
    let mut trace = trace_of("alpha", "gcd");
    trace.footer.stats.fallback_blocks = 7;
    let r = replay_ooo(spec_of("alpha"), &trace, &ReplayConfig::default()).expect("replays");
    assert_eq!(r.fallback_blocks, 7, "footer count propagates unchanged");
    assert!(
        r.to_json().contains("\"fallback_blocks\":7"),
        "stats-json exposes the run-granularity count"
    );

    // Sharding must not turn the whole-run fact into a per-shard sum.
    let cfg = ReplayConfig { shards: 4, ..Default::default() };
    let sharded = replay_ooo(spec_of("alpha"), &trace, &cfg).expect("replays sharded");
    assert_eq!(sharded.fallback_blocks, 7, "sharded replay does not multiply the count");
}

#[test]
fn replay_of_a_faulting_program_reports_the_measured_prefix() {
    // A program that faults mid-run still records a complete trace; replay
    // consumes it and reports the work up to the fault.
    let spec = spec_of("alpha");
    let src = "_start:\n    .word 0\n";
    let image = lis_workloads::assemble_source("alpha", src).expect("assembles");
    let mut bytes = Vec::new();
    let opts = RecordOptions { kernel: "fault".to_string(), ..Default::default() };
    let summary = record(spec, &image, &mut bytes, &opts).expect("fault is a complete trace");
    assert!(!summary.halted);
    assert!(summary.fault.is_some());

    let trace = Trace::read_from(bytes.as_slice()).expect("trace reads back");
    let r = replay_ooo(spec, &trace, &ReplayConfig::default()).expect("replay succeeds");
    assert!(r.insts <= trace.insts(), "faulting record ends the stream");
}
