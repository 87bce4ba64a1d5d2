//! Figure 1, live: run the five decoupled simulator organizations, plus
//! functional-first driving the out-of-order core, on the same program and
//! compare their reports — including a timing-first run
//! with injected timing-model bugs (caught by the checker) and a
//! speculative functional-first run with a forced memory divergence
//! (repaired by rollback).
//!
//! ```text
//! cargo run -p lis-bench --release --example timing_orgs [isa] [kernel]
//! ```

use lis_timing::{
    run_functional_first, run_functional_first_ooo, run_integrated,
    run_speculative_functional_first, run_timing_directed, run_timing_first, CoreConfig,
    MemOverride, OooConfig,
};
use lis_workloads::{spec_of, suite_of};

fn main() {
    let isa = std::env::args().nth(1).unwrap_or_else(|| "ppc".into());
    let kernel = std::env::args().nth(2).unwrap_or_else(|| "sort".into());
    let Some(w) = suite_of(&isa).iter().find(|w| w.name == kernel) else {
        eprintln!("unknown kernel `{kernel}`");
        std::process::exit(2);
    };
    let image = w.assemble().expect("kernel assembles");
    let spec = spec_of(&isa);
    let cfg = CoreConfig::default();

    println!("kernel `{kernel}` on {isa} under every organization:\n");
    let reports = [
        run_integrated(spec, &image, &cfg).expect("runs"),
        run_functional_first(spec, &image, &cfg).expect("runs"),
        run_functional_first_ooo(spec, &image, &cfg, &OooConfig::default()).expect("runs"),
        run_timing_directed(spec, &image, &cfg).expect("runs"),
        run_timing_first(spec, &image, &cfg, None).expect("runs"),
        run_speculative_functional_first(spec, &image, &cfg, &[]).expect("runs"),
    ];
    for r in &reports {
        println!("  {r}");
    }
    for r in &reports[1..] {
        assert_eq!(r.stdout, reports[0].stdout, "organizations must agree");
    }
    println!(
        "\nall organizations computed: {:?}",
        String::from_utf8_lossy(&reports[0].stdout).trim()
    );

    // Timing-first with an intentionally buggy timing model: the functional
    // checker catches every corruption and reloads architectural state.
    let buggy = run_timing_first(spec, &image, &cfg, Some(199)).expect("runs");
    println!(
        "\ntiming-first with an injected bug every 199 instructions:\n  {} mismatches caught, output still {:?}",
        buggy.mismatches,
        String::from_utf8_lossy(&buggy.stdout).trim()
    );

    // Speculative functional-first with a timing-detected memory divergence:
    // the functional simulator is rolled back, memory corrected, and
    // execution re-run down the corrected path.
    let overrides = [MemOverride { after_insts: 500, addr: 0x2_0000, size: 4, val: 1 }];
    let diverged = run_speculative_functional_first(spec, &image, &cfg, &overrides).expect("runs");
    println!(
        "\nspeculative functional-first with one forced memory divergence:\n  {} rollback(s); output {:?}",
        diverged.rollbacks,
        String::from_utf8_lossy(&diverged.stdout).trim()
    );
}
