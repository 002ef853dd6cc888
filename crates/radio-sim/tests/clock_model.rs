//! Property tests: the integer clock against models that keep
//! [`Duration`]s, the way the engine did before [`SimTime`] became a
//! `u64` of nanoseconds.
//!
//! * [`SimTime`] ≡ a wrapper around a `Duration` for which everything at
//!   or past `u64::MAX` ns is *never* (`Duration::MAX`): ordering,
//!   `from(a) + b == from(a + b)`, `since`, `Sub`, the `as_duration` round
//!   trip (exact below the horizon), monotone saturation at and beyond it,
//!   and the `{:?}` / `{}` strings the differential suites hash.
//! * [`Radio::durations`] ≡ per-state `Duration` sums, and the four
//!   buckets add up to the instant accounting was finished at.
//! * [`Medium::begin_tx`]'s memoised airtime ≡ `time_on_air`, on the call
//!   that fills the memo and on the one that reads it.
//!
//! `scripts/ci.sh` runs this file in `--release` as well: integer
//! overflow traps in debug and wraps in release, so saturation is only
//! proved explicit on the build the benchmark measures.

use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::modulation::LoRaModulation;
use lora_phy::power::StateDurations;
use lora_phy::propagation::Position;
use radio_sim::event::FrameId;
use radio_sim::medium::{Medium, RfConfig};
use radio_sim::radio::{Radio, Reception};
use radio_sim::time::SimTime;
use radio_sim::NodeId;
use testkit::{forall, Gen};

/// The last instant the integer clock tells apart from *never*.
const HORIZON: Duration = Duration::from_nanos(u64::MAX);

/// The reference clock: the `Duration` itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Model(Duration);

impl Model {
    fn from(d: Duration) -> Model {
        Model(if d >= HORIZON { Duration::MAX } else { d })
    }

    fn add(self, d: Duration) -> Model {
        Model::from(self.0.saturating_add(d))
    }

    /// What `#[derive(Debug)]` printed for `struct SimTime(Duration)`.
    fn debug(self) -> String {
        format!("SimTime({:?})", self.0)
    }

    fn display(self) -> String {
        format!("t+{:.6}s", self.0.as_secs_f64())
    }
}

/// Durations from every regime: a run's first seconds, second boundaries,
/// arbitrary `u64` nanosecond counts, a few nanoseconds either side of the
/// horizon, and far beyond it.
fn gen_duration(g: &mut Gen) -> Duration {
    let near = |g: &mut Gen| g.int_in(0, 3);
    match g.int_in(0, 6) {
        0 => Duration::from_nanos(g.int_in(0, 10_000_000_000)),
        1 => Duration::new(g.int_in(0, 100_000), g.choose(&[0, 1, 999_999_999])),
        2 => Duration::from_nanos(g.u64()),
        3 => HORIZON - Duration::from_nanos(near(g)),
        4 => HORIZON + Duration::from_nanos(near(g)),
        5 => g.choose(&[Duration::from_secs(600 * 365 * 86_400), Duration::MAX]),
        _ => Duration::MAX - Duration::from_nanos(near(g)),
    }
}

fn check<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, model {want:?}"))
    }
}

#[test]
fn sim_time_matches_a_model_that_keeps_durations() {
    forall(
        "sim_time_matches_a_model_that_keeps_durations",
        |g| (gen_duration(g), gen_duration(g)),
        |&(a, b)| {
            let (ta, tb) = (SimTime::from(a), SimTime::from(b));
            let (ma, mb) = (Model::from(a), Model::from(b));
            check("cmp", ta.cmp(&tb), ma.cmp(&mb))?;
            check("eq", ta == tb, ma == mb)?;
            check("round trip", ta.as_duration(), ma.0)?;
            check("into", Duration::from(ta), ma.0)?;
            check("from(as_duration)", SimTime::from(ta.as_duration()), ta)?;
            check(
                "as_nanos",
                u128::from(ta.as_nanos()),
                a.as_nanos().min(HORIZON.as_nanos()),
            )?;
            check("as_micros", ta.as_micros(), ma.0.as_micros())?;
            check("as_secs_f64", ta.as_secs_f64(), ma.0.as_secs_f64())?;
            check("debug", format!("{ta:?}"), ma.debug())?;
            check(
                "pretty debug",
                format!("{ta:#?}"),
                format!("SimTime(\n    {:?},\n)", ma.0),
            )?;
            check("display", ta.to_string(), ma.display())?;
            // Adding never panics and never moves backwards; it is the
            // model's sum, and the conversion of the exact sum wherever
            // a `Duration` can hold that.
            check("add", (ta + b).as_duration(), ma.add(b).0)?;
            check("add is monotone", ta + b >= ta, true)?;
            if let Some(sum) = a.checked_add(b) {
                check("from(a) + b == from(a + b)", ta + b, SimTime::from(sum))?;
            }
            let mut assigned = ta;
            assigned += b;
            check("add_assign", assigned, ta + b)?;
            if a < HORIZON && b < HORIZON {
                check("since", ta.since(tb), a.saturating_sub(b))?;
                if a >= b {
                    check("sub", ta - tb, a - b)?;
                }
            } else if ta <= tb {
                check("since saturates at zero", ta.since(tb), Duration::ZERO)?;
            }
            Ok(())
        },
    );
}

#[test]
fn unit_constructors_match_the_duration_constructors() {
    forall(
        "unit_constructors_match_the_duration_constructors",
        |g| {
            let (small, any, top) = (g.int_in(0, 1 << 20), g.u64(), u64::MAX - g.int_in(0, 3));
            g.choose(&[small, any, top])
        },
        |&n| {
            check(
                "from_micros",
                SimTime::from_micros(n),
                SimTime::from(Duration::from_micros(n)),
            )?;
            check(
                "from_millis",
                SimTime::from_millis(n),
                SimTime::from(Duration::from_millis(n)),
            )?;
            check(
                "from_secs",
                SimTime::from_secs(n),
                SimTime::from(Duration::from_secs(n)),
            )
        },
    );
}

#[test]
fn the_horizon_is_never_and_the_strings_are_pinned() {
    assert_eq!(SimTime::default(), SimTime::ZERO);
    assert_eq!(SimTime::ZERO.as_nanos(), 0);
    assert_eq!(SimTime::MAX.as_nanos(), u64::MAX);
    // At and beyond 2^64 ns: one instant, after every other, and stable.
    let last = SimTime::from(HORIZON - Duration::from_nanos(1));
    assert_eq!(last.as_duration(), HORIZON - Duration::from_nanos(1));
    assert!(last < SimTime::MAX);
    assert_eq!(last + Duration::from_nanos(1), SimTime::MAX);
    for never in [
        HORIZON,
        HORIZON + Duration::from_nanos(1),
        Duration::from_secs(600 * 365 * 86_400),
        Duration::MAX,
    ] {
        assert_eq!(SimTime::from(never), SimTime::MAX, "{never:?}");
        assert_eq!(SimTime::from_secs(1) + never, SimTime::MAX, "{never:?}");
    }
    assert_eq!(SimTime::MAX + Duration::from_nanos(1), SimTime::MAX);
    assert_eq!(SimTime::MAX + Duration::MAX, SimTime::MAX);
    assert_eq!(SimTime::MAX.as_duration(), Duration::MAX);
    assert_eq!(SimTime::ZERO.since(SimTime::MAX), Duration::ZERO);
    // The goldens hash these.
    assert_eq!(format!("{:?}", SimTime::from_millis(1500)), "SimTime(1.5s)");
    assert_eq!(format!("{:?}", SimTime::ZERO), "SimTime(0ns)");
    assert_eq!(SimTime::from_millis(1500).to_string(), "t+1.500000s");
}

#[test]
#[should_panic(expected = "overflow when subtracting")]
fn subtracting_a_later_instant_panics() {
    let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
}

/// One radio transition at `at`.
#[derive(Clone, Copy, Debug)]
enum Step {
    Tx,
    Rx,
    Cad,
    Idle,
    Off,
}

/// The state whose time the model books next: what [`Radio`] is in.
#[derive(Clone, Copy)]
enum In {
    Listening,
    Tx,
    Rx,
    Cad,
    Off,
}

#[test]
fn radio_durations_match_per_state_duration_sums() {
    forall(
        "radio_durations_match_per_state_duration_sums",
        |g| {
            g.vec_of(0, 60, |g| {
                let step = g.choose(&[Step::Tx, Step::Rx, Step::Cad, Step::Idle, Step::Off]);
                // Gaps from zero (same-instant transitions) to hours, off
                // the second grid.
                let (short, long) = (g.int_in(1, 999), g.int_in(1, 5_000_000_000_000));
                let gap = g.choose(&[0, short, long]);
                (step, Duration::from_nanos(gap))
            })
        },
        |steps| {
            let mut radio = Radio::new();
            let (mut now, mut since) = (Duration::ZERO, Duration::ZERO);
            let (mut state, mut model) = (In::Listening, StateDurations::default());
            let book = |model: &mut StateDurations, state: In, elapsed: Duration| match state {
                In::Off => model.sleep += elapsed,
                In::Listening | In::Rx => model.rx += elapsed,
                In::Tx => model.tx += elapsed,
                In::Cad => model.idle += elapsed,
            };
            for (k, &(step, gap)) in steps.iter().enumerate() {
                now += gap;
                let (at, until) = (SimTime::from(now), SimTime::from(now + gap));
                // The simulator only starts something on an idle radio
                // and only powers on one that is off.
                let next = match (step, state) {
                    (Step::Off, _) => In::Off,
                    (_, In::Off) | (Step::Idle, _) => In::Listening,
                    (Step::Tx, In::Listening) => In::Tx,
                    (Step::Rx, In::Listening) => In::Rx,
                    (Step::Cad, In::Listening) => In::Cad,
                    (_, busy) => busy,
                };
                match (next, state) {
                    (In::Off, _) => radio.power_off(at),
                    (In::Listening, In::Off) => radio.power_on(at),
                    (In::Listening, _) => radio.to_idle(at),
                    (In::Tx, In::Listening) => radio.begin_tx(at, FrameId(k as u64), until),
                    (In::Rx, In::Listening) => {
                        let (frame, q) = (FrameId(k as u64), SignalQuality::ideal());
                        let locked = Reception::new(frame, NodeId(0), q, 1e-9, vec![]);
                        radio.begin_rx(at, locked, until);
                    }
                    (In::Cad, In::Listening) => radio.begin_cad(at, until, false),
                    _ => continue,
                }
                book(&mut model, state, now - since);
                (state, since) = (next, now);
            }
            now += Duration::from_nanos(7);
            radio.finish(SimTime::from(now));
            book(&mut model, state, now - since);
            let got = radio.durations();
            check("durations", got, model)?;
            check("sum", got.tx + got.rx + got.idle + got.sleep, now)
        },
    );
}

#[test]
fn memoised_airtime_equals_time_on_air_for_every_length() {
    for modulation in [LoRaModulation::long_fast(), LoRaModulation::long_slow()] {
        let mut medium = Medium::new(RfConfig {
            modulation,
            ..RfConfig::default()
        });
        let origin = Position::new(0.0, 0.0);
        // Descending, so a memo slot shared by neighbouring lengths
        // would be filled by the wrong one first.
        for pass in ["fill", "read"] {
            for len in (0..=LoRaModulation::MAX_PHY_PAYLOAD).rev() {
                let start = SimTime::from_millis(len as u64);
                let want = modulation.time_on_air(len);
                let tx = medium.begin_tx(NodeId(len), origin, start, vec![0; len]);
                assert_eq!((tx.airtime, tx.len), (want, len), "{pass}, {len} bytes");
                assert_eq!(medium.airtime(len), want);
                let on_air = medium.end_tx(tx.frame).expect("just begun");
                assert_eq!((on_air.start, on_air.end), (start, start + want), "{pass}");
            }
        }
    }
}
