//! The five organizations must agree architecturally and report sane timing.

use lis_core::IsaSpec;
use lis_mem::Image;
use lis_timing::{
    run_functional_first, run_integrated, run_speculative_functional_first, run_timing_directed,
    run_timing_first, CoreConfig, MemOverride, TimingReport,
};

fn alpha_program() -> (&'static IsaSpec, Image) {
    let src = "
_start: mov 0, r1
        mov 200, r2
loop:   addq r1, r2, r1
        subq r2, 1, r2
        bne r2, loop
        mov 4, v0
        mov r1, a0
        callsys
        mov 1, v0
        mov 0, a0
        callsys
";
    (lis_isa_alpha::spec(), lis_isa_alpha::assemble(src).unwrap())
}

fn arm_program() -> (&'static IsaSpec, Image) {
    let src = "
_start: mov r1, #0
        mov r2, #200
loop:   add r1, r1, r2
        subs r2, r2, #1
        bne loop
        mov r7, #4
        mov r0, r1
        swi 0
        mov r7, #1
        mov r0, #0
        swi 0
";
    (lis_isa_arm::spec(), lis_isa_arm::assemble(src).unwrap())
}

fn ppc_program() -> (&'static IsaSpec, Image) {
    let src = "
_start: li r5, 0
        li r6, 200
        mtctr r6
loop:   add r5, r5, r6
        subi r6, r6, 1
        bdnz loop
        li r0, 4
        mr r3, r5
        sc
        li r0, 1
        li r3, 0
        sc
";
    (lis_isa_ppc::spec(), lis_isa_ppc::assemble(src).unwrap())
}

fn all_reports(isa: &'static IsaSpec, image: &Image) -> Vec<TimingReport> {
    reports_with(isa, image, &CoreConfig::default())
}

fn reports_with(isa: &'static IsaSpec, image: &Image, cfg: &CoreConfig) -> Vec<TimingReport> {
    vec![
        run_integrated(isa, image, cfg).unwrap(),
        run_functional_first(isa, image, cfg).unwrap(),
        run_timing_directed(isa, image, cfg).unwrap(),
        run_timing_first(isa, image, cfg, None).unwrap(),
        run_speculative_functional_first(isa, image, cfg, &[]).unwrap(),
    ]
}

fn check_agreement(reports: &[TimingReport], expected_out: &str) {
    for r in reports {
        assert_eq!(
            String::from_utf8_lossy(&r.stdout),
            expected_out,
            "{} produced wrong output",
            r.organization
        );
        assert_eq!(r.exit_code, 0, "{}", r.organization);
        assert!(r.cycles >= r.insts, "{}: IPC > 1 is impossible here", r.organization);
        assert!(r.insts > 600, "{}", r.organization);
    }
    // Rendered side by side, the rows line up: every report's insts column
    // starts at the same offset.
    let insts_at: Vec<usize> =
        reports.iter().map(|r| r.to_string().find(" insts ").unwrap()).collect();
    assert!(insts_at.iter().all(|&i| i == insts_at[0]), "misaligned rows: {insts_at:?}");
    // All organizations except timing-first (which runs two simulators)
    // retire the same instruction count.
    assert_eq!(reports[0].insts, reports[1].insts);
    assert_eq!(reports[0].insts, reports[2].insts);
    assert_eq!(reports[0].insts, reports[3].insts);
}

#[test]
fn organizations_agree_on_alpha() {
    let (isa, image) = alpha_program();
    let reports = all_reports(isa, &image);
    check_agreement(&reports, "20100\n");
}

#[test]
fn organizations_agree_on_arm() {
    let (isa, image) = arm_program();
    let reports = all_reports(isa, &image);
    check_agreement(&reports, "20100\n");
}

#[test]
fn organizations_agree_on_ppc() {
    let (isa, image) = ppc_program();
    let reports = all_reports(isa, &image);
    check_agreement(&reports, "20100\n");
}

#[test]
fn interface_traffic_reflects_semantic_detail() {
    let (isa, image) = alpha_program();
    let reports = all_reports(isa, &image);
    let by_name = |n: &str| reports.iter().find(|r| r.organization == n).unwrap();
    // Step-level control: seven calls per instruction.
    assert!((by_name("timing-directed").calls_per_inst() - 7.0).abs() < 1e-9);
    // One call per instruction.
    assert!((by_name("integrated").calls_per_inst() - 1.0).abs() < 1e-9);
    // Block-level: well under one call per instruction.
    assert!(by_name("functional-first").calls_per_inst() < 0.5);
}

#[test]
fn timing_first_checker_catches_injected_bugs() {
    let (isa, image) = alpha_program();
    let cfg = CoreConfig::default();
    let clean = run_timing_first(isa, &image, &cfg, None).unwrap();
    assert_eq!(clean.mismatches, 0, "no bugs, no mismatches");
    let buggy = run_timing_first(isa, &image, &cfg, Some(97)).unwrap();
    assert!(buggy.mismatches > 0, "checker must detect injected corruption");
    // Flush-and-reload keeps the architectural results correct anyway.
    assert_eq!(String::from_utf8_lossy(&buggy.stdout), "20100\n");
}

#[test]
fn sff_rolls_back_on_memory_divergence() {
    // A program that loads a flag twice; the timing simulator decides the
    // memory value should have been different and forces a rollback.
    let src = "
_start: ldah r1, 2(r31)       ; r1 = 0x20000
        mov 0, r3
loop:   ldq r2, 0(r1)
        addq r3, 1, r3
        cmplt r3, 50, r4
        bne r4, loop
        mov 4, v0
        mov r2, a0
        callsys
        mov 1, v0
        mov 0, a0
        callsys
        .data
flag:   .word 0, 0
";
    let isa = lis_isa_alpha::spec();
    let image = lis_isa_alpha::assemble(src).unwrap();
    let cfg = CoreConfig::default();
    let clean = run_speculative_functional_first(isa, &image, &cfg, &[]).unwrap();
    assert_eq!(clean.rollbacks, 0);
    assert_eq!(String::from_utf8_lossy(&clean.stdout), "0\n");
    let overrides = [MemOverride { after_insts: 10, addr: 0x20000, size: 8, val: 7 }];
    let diverged = run_speculative_functional_first(isa, &image, &cfg, &overrides).unwrap();
    assert_eq!(diverged.rollbacks, 1);
    // After the rollback the re-executed loads observe the corrected value.
    assert_eq!(String::from_utf8_lossy(&diverged.stdout), "7\n");
}

#[test]
fn cache_and_predictor_counters_populate() {
    let (isa, image) = ppc_program();
    let cfg = CoreConfig::default();
    let r = run_integrated(isa, &image, &cfg).unwrap();
    assert!(r.icache_misses > 0, "cold caches must miss");
    assert!(r.mispredicts > 0, "a loop exit must mispredict at least once");
    assert!(r.ipc() > 0.1 && r.ipc() <= 1.0, "IPC {} out of range", r.ipc());
}

#[test]
fn ooo_model_agrees_and_extracts_ilp() {
    use lis_timing::{run_functional_first_ooo, OooConfig};
    let cfg = CoreConfig::default();
    for (isa, image) in [alpha_program(), arm_program(), ppc_program()] {
        let inorder = run_integrated(isa, &image, &cfg).unwrap();
        let ooo = run_functional_first_ooo(isa, &image, &cfg, &OooConfig::default()).unwrap();
        assert_eq!(ooo.stdout, inorder.stdout, "{}", isa.name);
        assert_eq!(ooo.insts, inorder.insts, "{}", isa.name);
        // A 4-wide OoO core must not be slower than the scalar in-order one.
        assert!(
            ooo.cycles <= inorder.cycles,
            "{}: ooo {} cycles vs in-order {}",
            isa.name,
            ooo.cycles,
            inorder.cycles
        );
        assert!(ooo.ipc() > 0.5, "{}: IPC {}", isa.name, ooo.ipc());
        // A narrower machine is slower or equal.
        let narrow =
            run_functional_first_ooo(isa, &image, &cfg, &OooConfig { width: 1, rob: 8 }).unwrap();
        assert!(narrow.cycles >= ooo.cycles, "{}", isa.name);
    }
}

#[test]
fn every_organization_is_pinned_under_every_preset() {
    // The sweep and the perfbench digest time only the ooo core; this pins
    // the in-order `CoreModel` organizations too, under every component
    // preset, so rewiring the components cannot silently move a number.
    use lis_timing::{run_functional_first_ooo, OooConfig, TimingConfig};
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a-64 offset basis
    for preset in TimingConfig::PRESETS {
        let cfg = CoreConfig { timing: preset, ..Default::default() };
        for (isa, image) in [alpha_program(), arm_program(), ppc_program()] {
            let mut reports = reports_with(isa, &image, &cfg);
            reports
                .push(run_functional_first_ooo(isa, &image, &cfg, &OooConfig::default()).unwrap());
            for b in reports.iter().flat_map(|r| r.to_json().into_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(h, 0x0d7b_c310_eefc_6694, "a timing report moved: {h:#018x}");
}
