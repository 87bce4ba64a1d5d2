//! # lis-bench — the deterministic evaluation harness
//!
//! The full-matrix sweep behind `lis sweep` ([`sweep`]) and the cold-vs-warm
//! artifact-store scoreboard behind `lis serve --bench-warm` ([`warm`]).
//! Both report deterministic counters only — detail units, timing-model
//! reports, translation counts — so their JSON is byte-identical across
//! runs, hosts and `--jobs` counts. `lis sweep --report` renders Table I and
//! the Tables II/III analogs in those units.
//!
//! Wall-clock speed (the paper's Tables II/III in host time, record and
//! replay MIPS) is measured by one harness, `perfbench/`; see its README.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod sweep;
pub mod warm;

pub use sweep::{
    resolve_timings, run_sweep, CellResult, RatioRow, SweepCell, SweepConfig, SweepReport,
    BASELINE_BUILDSET,
};
pub use warm::{run_warm, WarmCell, WarmConfig, WarmReport};

use lis_core::{BuildsetDef, Semantic};

/// Table I data for one ISA.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// ISA name.
    pub isa: &'static str,
    /// Code lines of the ISA description.
    pub isa_lines: usize,
    /// Code lines of derived tooling (assembler + disassembler).
    pub tooling_lines: usize,
    /// Instructions in the description.
    pub instructions: usize,
}

/// Collects Table I: per-ISA rows plus `(buildset count, total buildset
/// lines)` measured from the actual definitions in `lis-core`.
pub fn table1() -> (Vec<Table1Row>, usize, usize) {
    let rows = vec![
        stats_row(lis_isa_alpha::spec_stats()),
        stats_row(lis_isa_arm::spec_stats()),
        stats_row(lis_isa_ppc::spec_stats()),
    ];
    let src = include_str!("../../core/src/buildset.rs");
    let (count, lines) = lis_core::count_macro_blocks(src, "buildset");
    (rows, count, lines)
}

fn stats_row(s: lis_core::SpecStats) -> Table1Row {
    Table1Row {
        isa: s.isa,
        isa_lines: s.isa_description_lines,
        tooling_lines: s.tooling_lines,
        instructions: s.num_instructions,
    }
}

/// Pretty-prints Table I.
pub fn render_table1() -> String {
    use std::fmt::Write;
    let (rows, buildsets, buildset_lines) = table1();
    let mut out = String::new();
    let _ = writeln!(out, "Table I: instruction-set description characteristics");
    let _ = writeln!(
        out,
        "{:<8} {:>18} {:>16} {:>14}",
        "ISA", "description lines", "tooling lines", "instructions"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<8} {:>18} {:>16} {:>14}",
            r.isa, r.isa_lines, r.tooling_lines, r.instructions
        );
    }
    let _ = writeln!(
        out,
        "standard buildsets: {buildsets}; lines per experimental buildset: {:.1} (paper: ~13)",
        buildset_lines as f64 / buildsets as f64
    );
    out
}

/// Semantic group index for sorting (block, one, step).
pub fn semantic_rank(bs: &BuildsetDef) -> u8 {
    match bs.semantic {
        Semantic::Block => 0,
        Semantic::One => 1,
        Semantic::Step => 2,
    }
}
