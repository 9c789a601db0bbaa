//! Cross-crate integration: the facade crate end to end.

use mult_masked_aes::aes::{Aes128, MaskedAes, SboxBackend};
use mult_masked_aes::circuits::{build_masked_sbox, SboxOptions};
use mult_masked_aes::gf256::{sbox::sbox, Gf256};
use mult_masked_aes::leakage::{Durability, EvaluationConfig, FixedVsRandom, ProbeModel};
use mult_masked_aes::masking::KroneckerRandomness;
use mult_masked_aes::netlist::NetlistStats;
use mult_masked_aes::sim::Simulator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn facade_reexports_every_subsystem() {
    // A compile-time check that the facade exposes the full stack; the
    // assertions are trivial but the imports are the test.
    let _ = Gf256::ONE;
    let schedule = KroneckerRandomness::proposed_eq9();
    assert_eq!(schedule.fresh_count(), 4);
    let circuit = build_masked_sbox(SboxOptions::default()).expect("valid");
    assert!(NetlistStats::of(&circuit.netlist).cell_count > 100);
}

#[test]
fn gate_level_sbox_agrees_with_table_through_the_facade() {
    let circuit = build_masked_sbox(SboxOptions::default()).expect("valid");
    let mut rng = StdRng::seed_from_u64(31);
    let mut sim = Simulator::new(&circuit.netlist);
    for x in (0..=255u8).step_by(17) {
        sim.reset();
        for _ in 0..=circuit.latency {
            let mask: u8 = rng.gen();
            sim.set_bus_lane(&circuit.b_shares[0], 0, (x ^ mask) as u64);
            sim.set_bus_lane(&circuit.b_shares[1], 0, mask as u64);
            sim.set_bus_lane(&circuit.r_bus, 0, rng.gen_range(1..=255u8) as u64);
            sim.set_bus_lane(&circuit.r_prime_bus, 0, rng.gen::<u8>() as u64);
            for &wire in &circuit.fresh {
                sim.set_input_bit(wire, 0, rng.gen());
            }
            sim.step();
        }
        sim.eval();
        let s0 = sim.bus_lane(&circuit.out_shares[0], 0) as u8;
        let s1 = sim.bus_lane(&circuit.out_shares[1], 0) as u8;
        assert_eq!(s0 ^ s1, sbox(Gf256::new(x)).to_byte());
    }
}

#[test]
fn masked_aes_matches_reference_for_many_blocks() {
    let mut rng = StdRng::seed_from_u64(32);
    let key: [u8; 16] = rng.gen();
    let masked = MaskedAes::new(&key, SboxBackend::ValueLevel);
    let reference = Aes128::new(&key);
    for _ in 0..20 {
        let block: [u8; 16] = rng.gen();
        assert_eq!(
            masked.encrypt_block(&block, &mut rng),
            reference.encrypt_block(&block)
        );
    }
}

#[test]
fn leakage_campaign_runs_against_facade_built_designs() {
    let circuit = build_masked_sbox(SboxOptions::default()).expect("valid");
    let report = FixedVsRandom::new(
        &circuit.netlist,
        EvaluationConfig {
            traces: 20_000,
            warmup_cycles: 8,
            ..EvaluationConfig::default()
        },
    )
    .require_nonzero_bus(circuit.r_bus.clone())
    .try_run()
    .expect("campaign");
    // Full-randomness default schedule: no leak expected even at this
    // small budget.
    assert!(report.passed(), "{report}");
}

/// FNV-1a (64-bit) of `bytes`: a compact pin for outputs too large to
/// commit as goldens.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The trace stream is a pure function of `(seed, batch)`, and the
/// report CSV and snapshot are functions of the counts it produces, so
/// their bytes change only when the stream, the counting or the encoders
/// do. Pinned on the all-dense Eq. 6 glitch campaign and on the Eq. 9
/// transition campaign, whose widest sets use the hashed store.
#[test]
fn campaign_csv_and_snapshot_bytes_are_pinned() {
    let cases = [
        (
            KroneckerRandomness::de_meyer_eq6(),
            ProbeModel::Glitch,
            [0x7e33bf10244a5237, 0xc10de76f28f11078],
        ),
        (
            KroneckerRandomness::proposed_eq9(),
            ProbeModel::GlitchTransition,
            [0x6dc97cfa54a62afe, 0x3c4b2758cbada223],
        ),
    ];
    for (schedule, model, expected) in cases {
        let circuit = build_masked_sbox(SboxOptions {
            schedule,
            ..SboxOptions::default()
        })
        .expect("valid");
        let snapshot = std::env::temp_dir().join(format!(
            "mmaes-full-stack-{}-{}.snap",
            std::process::id(),
            model.name()
        ));
        let report = FixedVsRandom::new(
            &circuit.netlist,
            EvaluationConfig {
                model,
                traces: 6_400,
                warmup_cycles: 8,
                checkpoints: 2,
                durability: Durability {
                    snapshot_path: Some(snapshot.clone()),
                    ..Durability::default()
                },
                ..EvaluationConfig::default()
            },
        )
        .require_nonzero_bus(circuit.r_bus.clone())
        .try_run()
        .expect("campaign");
        let snapshot_bytes = std::fs::read(&snapshot).expect("snapshot written");
        let _ = std::fs::remove_file(&snapshot);
        assert_eq!(
            [fnv1a(report.to_csv().as_bytes()), fnv1a(&snapshot_bytes)],
            expected,
            "{} CSV and snapshot digests",
            model.name()
        );
    }
}
