//! libm canary: every golden digest in this repository covers floats
//! that `lora_phy::math` takes from the host's libm under the `std`
//! feature (`log10`, `ln`, `exp`, `powf`, `cos`, `hypot`). A libc or
//! toolchain change would move every golden at once with no code
//! change; this test pins those functions' bits on fixed inputs so such
//! a run says why. `scripts/ci.sh` runs it as its own step before the
//! workspace tests, so such a drift is reported as itself before the
//! golden table (`tests/scenarios/table.rs`) fails.

use lora_phy::math;
use testkit::fnv1a;

/// One FNV-1a digest per function, over the bits of its results on
/// [`inputs`], recorded on x86_64 glibc.
const GOLDEN: [(&str, u64); 6] = [
    ("log10", 0xa9dc_4eaf_7c49_e46e),
    ("ln", 0x8556_9a26_97ea_bea4),
    ("exp", 0xcbfc_27e0_f4c6_e1e4),
    ("powf", 0x9f2d_46fe_928f_3746),
    ("cos", 0x94a4_8d8d_5320_a993),
    ("hypot", 0x50c3_38e3_de3e_f423),
];

/// The shapes the simulator feeds these functions: distances in metres
/// (path loss, `hypot`), dB values into `10^(x/10)` (dBm → mW), uniform
/// draws into `ln` (exponential and Box–Muller samples), and angles.
fn inputs() -> impl Iterator<Item = (f64, f64)> {
    (0..256).map(|k| {
        let k = f64::from(k);
        (0.5 + k * 37.25, k / 256.0 + 1.0 / 512.0)
    })
}

fn digest(f: impl Fn(f64, f64) -> f64) -> u64 {
    let bytes: Vec<u8> = inputs()
        .flat_map(|(x, u)| f(x, u).to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn digests() -> [(&'static str, u64); 6] {
    [
        ("log10", digest(|x, _| math::log10(x))),
        ("ln", digest(|_, u| math::ln(u))),
        ("exp", digest(|x, u| math::exp(-x / 1000.0 - u))),
        (
            "powf",
            digest(|x, _| math::powf(10.0, (x / 100.0 - 48.0) / 10.0)),
        ),
        ("cos", digest(|_, u| math::cos(std::f64::consts::TAU * u))),
        ("hypot", digest(|x, u| math::hypot(x, 9000.0 * u))),
    ]
}

#[test]
fn host_libm_matches_the_goldens() {
    let got = digests();
    for ((name, want), (_, have)) in GOLDEN.iter().zip(&got) {
        assert_eq!(
            have, want,
            "host libm differs; goldens are not comparable ({name}: {have:#018x}, \
             recorded {want:#018x})"
        );
    }
}
