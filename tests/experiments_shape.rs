//! Shape tests: the paper's qualitative findings must hold in the
//! regenerated experiments (the quantitative comparison lives in
//! `EXPERIMENTS.md`).
//!
//! All assertions share a single [`ExperimentSuite`] (runs are memoized per
//! machine configuration) at a time scale of 4000× — compressed enough to
//! stay test-sized, long enough that the fixed workload content (class
//! files, I/O bursts) keeps its paper-time proportions.

use softwatt::experiments::{DiskSetup, ExperimentSuite};
use softwatt::{Benchmark, Mode, SystemConfig, UnitGroup};
use softwatt_os::KernelService;

#[test]
fn validation_max_power_in_band() {
    // Paper §2: modeled 25.3 W vs 30 W data sheet; we accept 20-30 W.
    let suite = ExperimentSuite::new(SystemConfig::default()).unwrap();
    let v = suite.validation();
    assert!(
        v.modeled_w() > 20.0 && v.modeled_w() < 30.0,
        "max power {} W",
        v.modeled_w()
    );
}

/// One pass over every paper artifact; sub-checks are labelled so a
/// failure pinpoints the broken shape.
#[test]
fn paper_shapes_hold() {
    let suite = ExperimentSuite::new(SystemConfig {
        time_scale: 4000.0,
        ..SystemConfig::default()
    })
    .unwrap();

    // ---- Figure 5: the conventional disk is the single largest consumer.
    let fig5 = suite.fig5_budget_conventional();
    for group in UnitGroup::ALL {
        assert!(
            fig5.disk_w > fig5.groups.get(group),
            "fig5: disk must beat {} ({} vs {})",
            group.label(),
            fig5.disk_w,
            fig5.groups.get(group)
        );
    }
    let disk_pct = fig5.disk_pct();
    assert!(
        (25.0..=50.0).contains(&disk_pct),
        "fig5: disk share {disk_pct}%"
    );

    // ---- Figure 7: the IDLE-capable disk shifts the hotspot to clock+L1I.
    let fig7 = suite.fig7_budget_lowpower();
    assert!(
        fig7.disk_pct() < fig5.disk_pct() - 5.0,
        "fig7: disk share must drop: {} vs {}",
        fig7.disk_pct(),
        fig5.disk_pct()
    );
    assert!(
        fig7.group_pct(UnitGroup::Clock) + fig7.group_pct(UnitGroup::L1I) > 1.5 * fig7.disk_pct(),
        "fig7: clock + L1I must dominate after the shift"
    );

    // ---- Figure 6: user mode is the power-hungriest; idle is not free.
    let fig6 = suite.fig6_mode_power();
    let user_w = fig6.total_w(Mode::User);
    for mode in [Mode::KernelInstr, Mode::Idle] {
        assert!(
            user_w > fig6.total_w(mode),
            "fig6: user {user_w} W vs {mode} {} W",
            fig6.total_w(mode)
        );
    }
    assert!(
        fig6.total_w(Mode::Idle) > user_w / 3.0,
        "fig6: busy-wait idle burns real power"
    );

    // ---- Figure 8: utlb is the low-power service.
    let fig8 = suite.fig8_service_power();
    let service_w = |name: &str| {
        fig8.iter()
            .find(|r| r.service.name() == name)
            .map(|r| r.power_w.total())
            .unwrap_or_else(|| panic!("fig8: service {name} missing"))
    };
    assert!(service_w("utlb") < service_w("read"), "fig8 headline");
    assert!(service_w("utlb") < service_w("demand_zero"), "fig8");

    // ---- Table 2: user energy share > cycle share; kernel the reverse.
    for row in suite.table2_mode_breakdown() {
        assert!(
            row.energy_pct[Mode::User.index()] > row.cycles_pct[Mode::User.index()],
            "t2 {}: user energy {:.1}% vs cycles {:.1}%",
            row.benchmark,
            row.energy_pct[0],
            row.cycles_pct[0]
        );
        assert!(
            row.energy_pct[Mode::KernelInstr.index()] < row.cycles_pct[Mode::KernelInstr.index()],
            "t2 {}: kernel energy share must trail its cycle share",
            row.benchmark
        );
    }

    // ---- Table 3: user reference rates exceed kernel's (higher ILP).
    for row in suite.table3_cache_refs() {
        assert!(
            row.il1_per_cycle[Mode::User.index()] > row.il1_per_cycle[Mode::KernelInstr.index()],
            "t3 {}: user iL1 {:.2} vs kernel {:.2}",
            row.benchmark,
            row.il1_per_cycle[0],
            row.il1_per_cycle[1]
        );
        assert!(
            row.dl1_per_cycle[Mode::User.index()] > row.dl1_per_cycle[Mode::KernelInstr.index()],
            "t3 {}: user dL1 {:.2} vs kernel {:.2}",
            row.benchmark,
            row.dl1_per_cycle[0],
            row.dl1_per_cycle[1]
        );
    }

    // ---- Table 4: utlb tops every kernel table and under-consumes.
    for row in suite.table4_kernel_services() {
        let top = &row.entries[0];
        assert_eq!(
            top.service,
            KernelService::Utlb,
            "t4 {}: utlb must top the kernel table",
            row.benchmark
        );
        assert!(
            top.energy_pct < top.cycles_pct,
            "t4 {}: utlb energy share ({:.1}) must trail cycle share ({:.1})",
            row.benchmark,
            top.energy_pct,
            top.cycles_pct
        );
    }

    // ---- Table 5: internal services vary less than I/O services.
    let t5 = suite.table5_service_variation();
    let cod = |name: &str| {
        t5.iter()
            .find(|r| r.service.name() == name)
            .map(|r| r.cod_pct)
            .unwrap_or_else(|| panic!("t5: {name} missing"))
    };
    assert!(cod("utlb") < cod("read"), "t5: utlb vs read");
    assert!(cod("demand_zero") < cod("read"), "t5: demand_zero vs read");
    assert!(cod("demand_zero") < cod("open"), "t5: demand_zero vs open");

    // ---- Figure 9: IDLE always saves; 2s thrashes compress; jess quiet.
    let fig9 = suite.fig9_disk_study();
    for row in &fig9 {
        let base = row.cell(DiskSetup::Conventional).disk_energy_j;
        let idle = row.cell(DiskSetup::IdleOnly).disk_energy_j;
        assert!(idle < base, "fig9 {}: IDLE must save energy", row.benchmark);
    }
    let compress = fig9
        .iter()
        .find(|r| r.benchmark == Benchmark::Compress)
        .unwrap();
    let idle_only = compress.cell(DiskSetup::IdleOnly);
    let t2s = compress.cell(DiskSetup::Standby2s);
    let t4s = compress.cell(DiskSetup::Standby4s);
    assert!(
        t2s.disk_energy_j > idle_only.disk_energy_j,
        "fig9 compress: 2s spin-downs must thrash"
    );
    assert!(
        t2s.idle_cycles > 3 * idle_only.idle_cycles,
        "fig9 compress: 2s spin-downs must hurt performance"
    );
    assert!(
        (t4s.disk_energy_j - idle_only.disk_energy_j).abs() < 0.1 * idle_only.disk_energy_j,
        "fig9 compress: 4s must behave like the IDLE-only configuration"
    );
    let mtrt = fig9
        .iter()
        .find(|r| r.benchmark == Benchmark::Mtrt)
        .unwrap();
    assert!(
        mtrt.cell(DiskSetup::Standby4s).disk_energy_j
            > mtrt.cell(DiskSetup::Standby2s).disk_energy_j,
        "fig9 mtrt: the paper's anomaly — 4s consumes MORE than 2s"
    );
    let jess = fig9
        .iter()
        .find(|r| r.benchmark == Benchmark::Jess)
        .unwrap();
    assert_eq!(
        jess.cell(DiskSetup::Standby2s).spinups,
        0,
        "fig9 jess: too short for spin-up thrash"
    );

    // ---- X1: the kernel's cycle share grows on the 4-wide core (§3.2).
    for row in suite.ext_kernel_share_by_width() {
        assert!(
            row.superscalar_pct > row.single_issue_pct,
            "x1 {}: kernel share {:.1}% single-issue vs {:.1}% 4-wide",
            row.benchmark,
            row.single_issue_pct,
            row.superscalar_pct
        );
    }

    // ---- X2: counts x another seed's per-invocation means estimate the
    // kernel energy within the paper's ~10% (§3.3).
    for row in suite.ext_kernel_energy_estimate() {
        assert!(
            row.error_pct().abs() < 10.0,
            "x2 {}: estimate error {:+.1}%",
            row.benchmark,
            row.error_pct()
        );
    }
}
