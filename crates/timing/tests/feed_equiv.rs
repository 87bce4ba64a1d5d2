//! The out-of-order core is a pure function of what it can see.
//!
//! Differential: feeding [`DynInst`]s rebuilt from projected trace records
//! and feeding copy-free projection views of the same records produce
//! identical reports, under every timing preset and at the `MIN`, `DECODE`
//! and `ALL` projections (and one custom level). Invariants: the report respects the core's
//! structural bounds whatever the record stream.

use lis_core::{
    DynInst, Fault, InstClass, InstHeader, IsaSpec, Operands, RegClass, RetiredInst, Visibility,
    DECODE_FIELDS, F_BR_TAKEN, F_BR_TARGET, F_EFF_ADDR, F_IMM, F_OPCODE, F_SRC1, MAX_DEST, MAX_SRC,
};
use lis_timing::{CoreConfig, OooConfig, OooCore, TimingConfig, TimingReport};
use lis_trace::TraceRecord;
use lis_workloads::{spec_of, ISAS};
use proptest::prelude::*;

/// The standard levels, plus decode fields without operand identifiers:
/// only there does operand masking change what the core computes.
const PROJECTIONS: [(&str, Visibility); 4] = [
    ("min", Visibility::MIN),
    ("decode", Visibility::DECODE),
    ("all", Visibility::ALL),
    ("decode-no-ids", Visibility { fields: DECODE_FIELDS, operand_ids: false }),
];

/// Record `i` of a stream, derived from two random words. Most records
/// carry an in-range opcode; a few carry none or one past the ISA's last,
/// and a rare one faults. Most PCs walk a 1 KiB loop and registers come
/// from a small pool, so the caches hit, the predictor learns, and
/// dependences reach the issue time; the rest jump far and miss.
fn record(isa: &IsaSpec, i: u64, a: u64, b: u64) -> TraceRecord {
    let far = a.is_multiple_of(16);
    let pc = 0x1000 + 4 * if far { b % 3000 } else { i % 256 };
    let next_pc = if a & (1 << 20) != 0 { 0x1000 + 4 * (b % 3000) } else { pc + 4 };
    let phys_pc = if a & (1 << 21) != 0 { pc + 0x10_0000 } else { pc };
    let mut rec = TraceRecord {
        header: InstHeader { pc, phys_pc, instr_bits: (a >> 32) as u32, next_pc },
        ..TraceRecord::default()
    };
    let mut set = |id: lis_core::FieldId, v: u64| {
        rec.fields_valid = rec.fields_valid.with(id);
        rec.fields[id.index()] = v;
    };
    let n = isa.num_insts() as u64;
    match (a >> 12) % 32 {
        0 => {}
        1 => set(F_OPCODE, n + (b % 3)),
        _ => set(F_OPCODE, (a >> 40) % n),
    }
    if a & (1 << 22) != 0 {
        set(F_EFF_ADDR, 0x8_0000 + 8 * (b % 8192));
    }
    if a & (1 << 23) != 0 {
        set(F_BR_TAKEN, (b >> 13) & 1);
    }
    if a & (1 << 24) != 0 {
        set(F_BR_TARGET, next_pc);
    }
    if a & (1 << 25) != 0 {
        set(F_SRC1, b);
    }
    if a & (1 << 26) != 0 {
        set(F_IMM, b >> 7);
    }
    if a & (1 << 27) != 0 {
        let mut ops = Operands::new();
        let (nsrc, ndest) =
            ((b >> 20) as usize % (MAX_SRC + 1), (b >> 22) as usize % (MAX_DEST + 1));
        for i in 0..nsrc + ndest {
            let r = b >> (24 + 7 * i);
            let (class, index) = (RegClass((r % 2) as u8), ((r >> 1) % 8) as u16);
            if i < nsrc {
                ops.push_src(class, index);
            } else {
                ops.push_dest(class, index);
            }
        }
        rec.ops = Some(ops);
    }
    if (a >> 28).is_multiple_of(1024) {
        rec.fault = Some(Fault::ArithOverflow);
    }
    rec
}

/// Feeds `stream` up to its first fault and returns the report plus the
/// core's three rates.
fn run<I: RetiredInst>(
    isa: &'static IsaSpec,
    cfg: &CoreConfig,
    ooo: &OooConfig,
    stream: impl Iterator<Item = I>,
) -> (TimingReport, [f64; 3]) {
    let mut core = OooCore::new(isa, cfg, ooo);
    for inst in stream {
        if core.feed(&inst).is_err() {
            break;
        }
    }
    let rates = [core.icache_miss_rate(), core.dcache_miss_rate(), core.mispredict_rate()];
    (core.report("t"), rates)
}

fn key(r: &TimingReport) -> [u64; 5] {
    [r.cycles, r.insts, r.icache_misses, r.dcache_misses, r.mispredicts]
}

/// The class of a record's opcode as the core sees it through `vis`, or
/// `None` when the core cannot see an in-range opcode (it then counts the
/// record but does not time it).
fn class_seen(isa: &IsaSpec, rec: &TraceRecord, vis: Visibility) -> Option<InstClass> {
    let op = rec.view(vis).field(F_OPCODE)?;
    isa.insts.get(usize::try_from(op).ok()?).map(|d| d.class)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dyninst_and_view_feeds_agree_and_respect_bounds(
        isa_idx in 0usize..ISAS.len(),
        width in 1u64..9,
        rob in 1usize..97,
        words in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..400),
    ) {
        let isa = spec_of(ISAS[isa_idx]);
        let ooo = OooConfig { width, rob };
        let recs: Vec<TraceRecord> =
            (0..).zip(&words).map(|(i, &(a, b))| record(isa, i, a, b)).collect();
        for preset in TimingConfig::PRESETS {
            let cfg = CoreConfig { timing: preset, ..CoreConfig::default() };
            for (name, vis) in PROJECTIONS {
                let label = format!("{} {} {name} w{width} rob{rob}", ISAS[isa_idx], preset.name);
                let dis = recs.iter().map(|r| r.project(vis).to_dyninst());
                let (a, rates_a) = run::<DynInst>(isa, &cfg, &ooo, dis);
                let (b, rates_b) = run(isa, &cfg, &ooo, recs.iter().map(|r| r.view(vis)));
                prop_assert_eq!(key(&a), key(&b), "{}: reports differ", label);
                prop_assert!(
                    rates_a.iter().zip(&rates_b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{}: rates differ {:?} vs {:?}", label, rates_a, rates_b
                );

                // Invariants, over the records the core consumed.
                let fed = &recs[..b.insts as usize];
                let classes: Vec<Option<InstClass>> =
                    fed.iter().map(|r| class_seen(isa, r, vis)).collect();
                let timed = classes.iter().flatten().count() as u64;
                let mem = classes
                    .iter()
                    .filter(|c| matches!(c, Some(InstClass::Load | InstClass::Store)))
                    .count() as u64;
                let ctl = classes
                    .iter()
                    .filter(|c| matches!(c, Some(InstClass::Branch | InstClass::Jump)))
                    .count() as u64;
                // Commit retires at most `width` timed records per cycle.
                // Under `MIN` no record is timed (the opcode is hidden), so
                // the bound reads `cycles * width >= insts` exactly when
                // every consumed record shows an in-range opcode.
                prop_assert!(
                    b.cycles * width >= timed,
                    "{}: {} cycles for {} timed", label, b.cycles, timed
                );
                if b.insts > 0 && timed == b.insts {
                    prop_assert!(b.cycles * width >= b.insts, "{}: width bound", label);
                }
                prop_assert!(b.icache_misses <= b.insts, "{}: icache misses > insts", label);
                prop_assert!(b.dcache_misses <= mem, "{}: dcache misses > loads+stores", label);
                prop_assert!(b.mispredicts <= ctl, "{}: mispredicts > branches+jumps", label);
            }
        }
    }
}

#[test]
fn streams_with_every_opcode_visible_meet_the_width_bound() {
    // The literal bound `cycles * width >= insts`, on a stream where every
    // record shows an in-range opcode at `DECODE`.
    let isa = spec_of("alpha");
    let recs: Vec<TraceRecord> = (0..2000u64)
        .map(|i| {
            let mut r = record(isa, i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | (3 << 12), i);
            r.fault = None;
            r
        })
        .collect();
    assert!(recs.iter().all(|r| class_seen(isa, r, Visibility::DECODE).is_some()));
    for width in [1, 2, 4, 8] {
        let ooo = OooConfig { width, rob: 64 };
        let (r, _) =
            run(isa, &CoreConfig::default(), &ooo, recs.iter().map(|r| r.view(Visibility::DECODE)));
        assert_eq!(r.insts, 2000);
        assert!(r.cycles * width >= r.insts, "width {width}: {} cycles", r.cycles);
    }
}
