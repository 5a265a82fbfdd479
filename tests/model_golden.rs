//! Golden pins of the analytical model's answers.
//!
//! Every value below is the exact `f64` bit pattern (and fixed-point
//! iteration count) the closed-form star and hypercube solvers produced
//! before the latency stage was unified on one spectrum solver.  The pins
//! are checked through [`ModelBackend`], so they hold whichever solver sits
//! behind it: any change to the class summation order, the solver, the
//! channel-rate formula or the warm-start chain moves a bit here.

use star_wormhole::{load_rate_grid, Discipline, Evaluator as _, ModelBackend, Scenario};

/// `(mean_latency bits, iterations)` of one model answer.
type Pin = (u64, usize);

fn check(scenario: &Scenario, rate: f64, (bits, iterations): Pin) {
    let estimate = ModelBackend::new().evaluate(&scenario.at(rate));
    assert!(!estimate.saturated, "{} at {rate} must solve", scenario.label());
    assert_eq!(
        (estimate.mean_latency.to_bits(), estimate.iterations()),
        (bits, Some(iterations)),
        "{} at {rate}: latency {} moved from {}",
        scenario.label(),
        estimate.mean_latency,
        f64::from_bits(bits),
    );
}

#[test]
fn s5_answers_are_pinned_for_every_star_discipline() {
    // the last rate of each discipline lies within 10% of its saturation
    // rate (0.01554 for Enhanced-NBC and NBC, 0.01114 for NHop)
    let pins: [(Discipline, [(f64, Pin); 3]); 3] = [
        (
            Discipline::EnhancedNbc,
            [
                (0.002, (0x4044_84b5_df51_6839, 19)),
                (0.006, (0x404b_3844_94d2_1903, 27)),
                (0.0145, (0x405b_37ab_627a_b958, 55)),
            ],
        ),
        (
            Discipline::Nbc,
            [
                (0.002, (0x4044_84b5_df51_6839, 19)),
                (0.008, (0x404f_7ba2_ec94_0a84, 30)),
                (0.0145, (0x405b_37ab_627a_b958, 55)),
            ],
        ),
        (
            Discipline::NHop,
            [
                (0.002, (0x4044_8c6d_da03_1fee, 31)),
                (0.006, (0x404b_df36_c0f7_4a9f, 37)),
                (0.0104, (0x4056_c998_ff78_b723, 77)),
            ],
        ),
    ];
    for (discipline, points) in pins {
        let scenario = Scenario::star(5).with_discipline(discipline);
        for (rate, pin) in points {
            check(&scenario, rate, pin);
        }
    }
}

#[test]
fn larger_stars_are_pinned() {
    check(&Scenario::star(7), 0.003, (0x4047_ec3a_9180_6376, 27));
    check(&Scenario::star(9).with_virtual_channels(8), 0.002, (0x4047_a94c_8a5b_8df8, 21));
}

#[test]
fn q10_is_pinned_under_adaptive_and_dimension_order_routing() {
    let q10 = Scenario::hypercube(10).with_virtual_channels(12);
    check(&q10, 0.01, (0x404b_598b_0a8e_8033, 10));
    check(&q10.with_discipline(Discipline::Deterministic), 0.01, (0x404b_ca77_e464_9a0b, 36));
}

#[test]
fn warm_s5_sweep_chain_is_pinned() {
    const CHAIN: [Pin; 24] = [
        (0x4042_7cb7_bafc_23b4, 10),
        (0x4043_23d1_e3da_254b, 15),
        (0x4043_d10a_af2d_209c, 17),
        (0x4044_84b5_df51_6db3, 19),
        (0x4045_3f2c_9211_ef19, 20),
        (0x4046_00cd_3f73_9113, 21),
        (0x4046_c9fb_a94e_d3d4, 22),
        (0x4047_9b20_c764_7593, 23),
        (0x4048_74aa_bf47_ebc3, 24),
        (0x4049_570c_fc2f_f50a, 25),
        (0x404a_42c0_80c5_a5ea, 25),
        (0x404b_3844_94d2_211d, 26),
        (0x404c_381f_fad3_515d, 26),
        (0x404d_42e2_e70f_6485, 27),
        (0x404e_592a_044a_bc6a, 28),
        (0x404f_7ba2_ec94_0195, 28),
        (0x4050_5589_519e_0927, 29),
        (0x4050_f42f_6c0a_9dca, 29),
        (0x4051_9a4d_8ce1_0da4, 30),
        (0x4052_488d_dba0_da4f, 30),
        (0x4052_ffc8_8cd4_2570, 31),
        (0x4053_c118_1c2c_9af6, 32),
        (0x4054_8df8_2134_e379, 33),
        (0x4055_6876_3e3d_1119, 34),
    ];
    let rates: Vec<f64> = (0..24).map(|i| 0.0005 + 0.0005 * i as f64).collect();
    let chain = ModelBackend::new().evaluate_sweep(&Scenario::star(5), &rates);
    assert_eq!(chain.len(), CHAIN.len());
    for ((estimate, rate), (bits, iterations)) in chain.iter().zip(&rates).zip(CHAIN) {
        assert!(!estimate.saturated, "rate {rate}");
        assert_eq!(
            (estimate.mean_latency.to_bits(), estimate.iterations()),
            (bits, Some(iterations)),
            "warm chain at rate {rate}"
        );
    }
}

#[test]
fn serving_rate_grids_are_pinned() {
    const S5: [u64; 24] = [
        0x3f69_77c0_0000_0000,
        0x3f6c_eaa2_0000_0001,
        0x3f70_2ec2_0000_0000,
        0x3f71_e833_0000_0000,
        0x3f73_a1a4_0000_0000,
        0x3f75_5b15_0000_0001,
        0x3f77_1486_0000_0001,
        0x3f78_cdf7_0000_0001,
        0x3f7a_8768_0000_0000,
        0x3f7c_40d9_0000_0001,
        0x3f7d_fa4a_0000_0001,
        0x3f7f_b3bb_0000_0000,
        0x3f80_b696_0000_0000,
        0x3f81_934e_7fff_ffff,
        0x3f82_7007_0000_0000,
        0x3f83_4cbf_8000_0000,
        0x3f84_2978_0000_0000,
        0x3f85_0630_8000_0000,
        0x3f85_e2e9_0000_0000,
        0x3f86_bfa1_8000_0000,
        0x3f87_9c5a_0000_0000,
        0x3f88_7912_8000_0000,
        0x3f89_55cb_0000_0001,
        0x3f8a_3283_8000_0001,
    ];
    const Q10: [u64; 24] = [
        0x3f7f_5774_f999_999a,
        0x3f81_cafb_bdb3_3334,
        0x3f83_ea3c_fe99_9999,
        0x3f86_097e_3f80_0000,
        0x3f88_28bf_8066_6667,
        0x3f8a_4800_c14c_cccd,
        0x3f8c_6742_0233_3334,
        0x3f8e_8683_4319_999b,
        0x3f90_52e2_4200_0000,
        0x3f91_6282_e273_3334,
        0x3f92_7223_82e6_6667,
        0x3f93_81c4_2359_999a,
        0x3f94_9164_c3cc_cccd,
        0x3f95_a105_643f_ffff,
        0x3f96_b0a6_04b3_3334,
        0x3f97_c046_a526_6666,
        0x3f98_cfe7_4599_9999,
        0x3f99_df87_e60c_cccd,
        0x3f9a_ef28_8680_0000,
        0x3f9b_fec9_26f3_3333,
        0x3f9d_0e69_c766_6667,
        0x3f9e_1e0a_67d9_999a,
        0x3f9f_2dab_084c_cccd,
        0x3fa0_1ea5_d460_0000,
    ];
    const T8: [u64; 24] = [
        0x3f5e_718b_0000_0000,
        0x3f61_4875_9400_0001,
        0x3f63_5825_a800_0000,
        0x3f65_67d5_bc00_0000,
        0x3f67_7785_d000_0000,
        0x3f69_8735_e400_0001,
        0x3f6b_96e5_f800_0001,
        0x3f6d_a696_0c00_0001,
        0x3f6f_b646_2000_0000,
        0x3f70_e2fb_1a00_0000,
        0x3f71_ead3_2400_0001,
        0x3f72_f2ab_2e00_0000,
        0x3f73_fa83_3800_0000,
        0x3f75_025b_41ff_ffff,
        0x3f76_0a33_4c00_0001,
        0x3f77_120b_5600_0000,
        0x3f78_19e3_6000_0000,
        0x3f79_21bb_6a00_0000,
        0x3f7a_2993_7400_0000,
        0x3f7b_316b_7e00_0000,
        0x3f7c_3943_8800_0000,
        0x3f7d_411b_9200_0000,
        0x3f7e_48f3_9c00_0001,
        0x3f7f_50cb_a600_0001,
    ];
    // the star saturation search brackets from degree/(d̄·M), so its grid
    // may move within the bisection tolerance; the others are bit-exact
    let s5 = load_rate_grid(&Scenario::star(5), 24);
    for (rate, bits) in s5.iter().zip(S5) {
        let pinned = f64::from_bits(bits);
        assert!((rate - pinned).abs() / pinned < 1e-5, "S5 grid rate {rate} vs {pinned}");
    }
    let bits = |grid: Vec<f64>| grid.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    let q10 = load_rate_grid(&Scenario::hypercube(10).with_virtual_channels(12), 24);
    assert_eq!(bits(q10), Q10);
    let t8 = load_rate_grid(&Scenario::torus(8).with_discipline(Discipline::Deterministic), 24);
    assert_eq!(bits(t8), T8);
}
