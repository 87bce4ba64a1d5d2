//! Seeded program generation shared by the `timing` and `serve` workloads.

use crate::tracer::Tracer;
use lis_core::ONE_ALL;
use lis_mem::Image;
use lis_runtime::{Backend, Simulator};
use lis_workloads::spec_of;

/// A generated program with its reference output.
#[derive(Debug, Clone)]
pub struct Program {
    /// ISA name.
    pub isa: &'static str,
    /// Generator seed.
    pub seed: u64,
    /// Assembly source.
    pub src: String,
    /// Assembled image.
    pub image: Image,
    /// Stdout of a local run on the interpreted backend.
    pub expected: Vec<u8>,
}

/// Static instructions in an image's text section.
pub fn text_insts(image: &Image) -> u64 {
    image.sections.iter().filter(|s| s.name == ".text").map(|s| s.bytes.len() as u64 / 4).sum()
}

/// Generates `lis_workloads::gen::random_program(isa, seed, len)`,
/// assembles it (traced as `asm.assemble`) and runs it once on the
/// interpreted backend for its reference stdout.
///
/// # Panics
///
/// If the generator emits a program that does not assemble or exit 0 —
/// a defect of the generator, not of a measured layer.
pub fn program(isa: &'static str, seed: u64, len: usize, tr: &mut Tracer) -> Program {
    let src = lis_workloads::gen::random_program(isa, seed, len);
    tr.enter();
    let image = lis_workloads::assemble_source(isa, &src).expect("generated programs assemble");
    tr.exit_n("asm.assemble", text_insts(&image));
    let mut sim = Simulator::new(spec_of(isa), ONE_ALL).expect("one-all passes the gate");
    sim.set_backend(Backend::Interpreted);
    sim.load_program(&image).expect("generated programs load");
    let run = sim.run_to_halt(100_000_000).expect("generated programs halt");
    assert!(run.halted && run.exit_code == 0, "generated program {isa}/{seed} exits 0");
    Program { isa, seed, src, image, expected: sim.stdout().to_vec() }
}
