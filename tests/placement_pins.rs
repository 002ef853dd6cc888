//! Pins every connected random placement the benchmark draws, so a
//! change to `topology::is_connected` or `topology::connected_random`
//! that accepts a different draw — or the same draw with different
//! positions — fails here before it reaches a golden.
//!
//! Each row records, for one `(nodes, seed, preset)`, the index of the
//! accepted draw and an FNV-1a digest of the accepted positions' bits.
//! The table covers `sweep_small`'s mix (16/36/64 nodes × the default
//! and long-fast presets × eight seeds spread from base 42; the stacks
//! share a placement) and `flood_random`'s 256-node placement at the
//! benchmark's seeds 42 and 7. Both recipes are restated here as the
//! benchmark writes them.

use lora_phy::modulation::LoRaModulation;
use lora_phy::propagation::Position;
use radio_sim::rng::SimRng;
use radio_sim::sim::SimConfig;
use radio_sim::topology;
use scenario::sweep::seed_list;
use testkit::fnv1a;

/// One pinned placement.
#[derive(Debug, PartialEq)]
struct Pin {
    nodes: usize,
    seed: u64,
    preset: &'static str,
    draw: usize,
    digest: u64,
}

fn digest(positions: &[Position]) -> u64 {
    let bytes: Vec<u8> = positions
        .iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
        .flat_map(u64::to_le_bytes)
        .collect();
    fnv1a(&bytes)
}

/// Draws as `connected_random` does, counting the draws, and checks
/// that `connected_random` accepts the same placement.
fn pin(nodes: usize, seed: u64, preset: &'static str, side: f64, range: f64, rng_seed: u64) -> Pin {
    let mut rng = SimRng::new(rng_seed);
    let accepted =
        topology::connected_random(nodes, side, side, range, &mut rng, 2000).expect("connected");
    let mut rng = SimRng::new(rng_seed);
    let draw = (0..2000)
        .find(|_| topology::is_connected(&topology::random(nodes, side, side, &mut rng), range))
        .expect("connected");
    let mut rng = SimRng::new(rng_seed);
    for _ in 0..draw {
        let _ = topology::random(nodes, side, side, &mut rng);
    }
    assert_eq!(topology::random(nodes, side, side, &mut rng), accepted);
    Pin {
        nodes,
        seed,
        preset,
        draw,
        digest: digest(&accepted),
    }
}

fn range_under(modulation: LoRaModulation) -> f64 {
    let mut sim = SimConfig::default();
    sim.rf.modulation = modulation;
    topology::radio_range_m(&sim.rf)
}

/// `sweep_small`'s placement: spacing 0.8× range, a square sized for
/// mean degree `ln n + 3`, the RNG seeded with `seed ^ (n << 8)`.
fn sweep_pins() -> Vec<Pin> {
    let presets = [
        ("default", LoRaModulation::default()),
        ("long_fast", LoRaModulation::long_fast()),
    ];
    let mut pins = Vec::new();
    for nodes in [16usize, 36, 64] {
        for (preset, modulation) in presets {
            for seed in seed_list(42, 8) {
                let spacing = range_under(modulation) * 0.8;
                let degree = (nodes as f64).ln() + 3.0;
                let area = spacing * (nodes as f64 * std::f64::consts::PI / degree).sqrt();
                let rng_seed = seed ^ (nodes as u64) << 8;
                pins.push(pin(nodes, seed, preset, area, spacing, rng_seed));
            }
        }
    }
    pins
}

/// `flood_random`'s placement: a square of side 7.7× range, connected
/// at 0.8× range, the RNG seeded with `seed ^ 0xf100_d000`.
fn flood_pins() -> Vec<Pin> {
    let range = range_under(LoRaModulation::default());
    [42u64, 7]
        .into_iter()
        .map(|seed| {
            pin(
                256,
                seed,
                "default",
                7.7 * range,
                range * 0.8,
                seed ^ 0xf100_d000,
            )
        })
        .collect()
}

fn assert_pinned(got: &[Pin], want: &[(usize, u64, &'static str, usize, u64)]) {
    let want: Vec<Pin> = want
        .iter()
        .map(|&(nodes, seed, preset, draw, digest)| Pin {
            nodes,
            seed,
            preset,
            draw,
            digest,
        })
        .collect();
    let table: String = got
        .iter()
        .map(|p| {
            format!(
                "    ({}, {:#x}, {:?}, {}, {:#018x}),\n",
                p.nodes, p.seed, p.preset, p.draw, p.digest
            )
        })
        .collect();
    assert!(got == want, "placements moved; now:\n{table}");
}

#[rustfmt::skip]
const SWEEP: &[(usize, u64, &str, usize, u64)] = &[
    (16, 0x2a, "default", 0, 0x41f3f95dcbc9f1d5),
    (16, 0x9e3779b97f4a7c3f, "default", 0, 0x8c8c21fd24bfbd0f),
    (16, 0x3c6ef372fe94f854, "default", 3, 0x00b952a1034ec2d6),
    (16, 0xdaa66d2c7ddf7469, "default", 0, 0x41f2e3b19ca1c619),
    (16, 0x78dde6e5fd29f07e, "default", 4, 0x309db1aafa0cb414),
    (16, 0x1715609f7c746c93, "default", 4, 0x8d78b920dd56dc54),
    (16, 0xb54cda58fbbee8a8, "default", 0, 0xb6159ac7fbe0a4dd),
    (16, 0x538454127b0964bd, "default", 0, 0xfdb460fad86822d1),
    (16, 0x2a, "long_fast", 0, 0x9e362cae97e6860b),
    (16, 0x9e3779b97f4a7c3f, "long_fast", 0, 0xc21125a4eeaf2f4c),
    (16, 0x3c6ef372fe94f854, "long_fast", 3, 0x278e0815181c64e9),
    (16, 0xdaa66d2c7ddf7469, "long_fast", 0, 0x05c43139aacf4834),
    (16, 0x78dde6e5fd29f07e, "long_fast", 4, 0x0a209453e8255573),
    (16, 0x1715609f7c746c93, "long_fast", 4, 0xb844b20f6e89760b),
    (16, 0xb54cda58fbbee8a8, "long_fast", 0, 0x677845b8e6562096),
    (16, 0x538454127b0964bd, "long_fast", 0, 0xed07c26cfd1c63d6),
    (36, 0x2a, "default", 3, 0x12b760fe7b5f9325),
    (36, 0x9e3779b97f4a7c3f, "default", 3, 0xd5848452e7789952),
    (36, 0x3c6ef372fe94f854, "default", 0, 0x2127fa2be675a56f),
    (36, 0xdaa66d2c7ddf7469, "default", 1, 0xe06700707a9fe114),
    (36, 0x78dde6e5fd29f07e, "default", 2, 0x62f2c77ec4ede41c),
    (36, 0x1715609f7c746c93, "default", 4, 0xcd3d57a837bec891),
    (36, 0xb54cda58fbbee8a8, "default", 2, 0x4eb2a7b9c3820ea2),
    (36, 0x538454127b0964bd, "default", 6, 0x4c878d6d5ee01ff5),
    (36, 0x2a, "long_fast", 3, 0x79d660f208936606),
    (36, 0x9e3779b97f4a7c3f, "long_fast", 3, 0x70bbee51856d5053),
    (36, 0x3c6ef372fe94f854, "long_fast", 0, 0xb6c7d3abf66d436d),
    (36, 0xdaa66d2c7ddf7469, "long_fast", 1, 0x0cf4c85bf291669e),
    (36, 0x78dde6e5fd29f07e, "long_fast", 2, 0x2ef91a1b157de8e1),
    (36, 0x1715609f7c746c93, "long_fast", 4, 0x7db2fbf58d06ee96),
    (36, 0xb54cda58fbbee8a8, "long_fast", 2, 0xed6f591d629645b9),
    (36, 0x538454127b0964bd, "long_fast", 6, 0xaa9dac69fefdff84),
    (64, 0x2a, "default", 0, 0x63a00dde8130df03),
    (64, 0x9e3779b97f4a7c3f, "default", 3, 0xb1897bdff2974ac3),
    (64, 0x3c6ef372fe94f854, "default", 1, 0xad824675aa9c0d15),
    (64, 0xdaa66d2c7ddf7469, "default", 1, 0x39f1359a9966fa33),
    (64, 0x78dde6e5fd29f07e, "default", 0, 0x7ab9086c0911ddae),
    (64, 0x1715609f7c746c93, "default", 0, 0x4537caa65d6d7a2f),
    (64, 0xb54cda58fbbee8a8, "default", 0, 0x52ff590dadfbf37d),
    (64, 0x538454127b0964bd, "default", 0, 0xd4338e7dc77312a0),
    (64, 0x2a, "long_fast", 0, 0x17cfcd865c5e5b37),
    (64, 0x9e3779b97f4a7c3f, "long_fast", 3, 0x27a6cab0c7b9a209),
    (64, 0x3c6ef372fe94f854, "long_fast", 1, 0x75379d7c9529e0f1),
    (64, 0xdaa66d2c7ddf7469, "long_fast", 1, 0xfbd0e248753705bf),
    (64, 0x78dde6e5fd29f07e, "long_fast", 0, 0x779c8fbb239a0153),
    (64, 0x1715609f7c746c93, "long_fast", 0, 0x15444668175f7486),
    (64, 0xb54cda58fbbee8a8, "long_fast", 0, 0x55cca9388e08cd51),
    (64, 0x538454127b0964bd, "long_fast", 0, 0xc0d83d3016d0d0ed),
];

#[rustfmt::skip]
const FLOOD: &[(usize, u64, &str, usize, u64)] = &[
    (256, 0x2a, "default", 0, 0x057fba3e39174b0d),
    (256, 0x7, "default", 0, 0x0da62370c3fc204e),
];

#[test]
fn sweep_small_placements_are_pinned() {
    assert_pinned(&sweep_pins(), SWEEP);
}

#[test]
fn flood_random_placements_are_pinned() {
    assert_pinned(&flood_pins(), FLOOD);
}
