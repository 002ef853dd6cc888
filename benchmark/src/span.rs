//! Timing shims that measure the protocol node and the scenario
//! adapter from outside: [`SpanFw`] wraps whatever firmware the
//! simulator hosts, [`SpanNode`] wraps the [`ProtocolNode`] inside the
//! adapter. With both in place
//!
//! * protocol self = Σ `SpanNode`,
//! * adapter self  = Σ `SpanFw` − Σ `SpanNode`,
//! * engine self   = run − Σ `SpanFw`.
//!
//! Counters are process-wide relaxed atomics: `cluster_commit` runs
//! callbacks on scoped worker threads and `sweep_small` on sweep
//! workers, and a statistic publishes no other data. Each thread adds
//! into one of [`LANES`] copies on cache lines of their own, or two
//! sweep workers would spend more time passing the counters' cache
//! line back and forth than simulating.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use lora_phy::link::SignalQuality;
use loramesher::addr::Address;
use loramesher::driver::NodeProtocol;
use loramesher::error::SendError;
use radio_sim::firmware::{Context, Firmware};
use scenario::adapter::{AppEvent, HostedProtocol, ProtocolNode};

/// Copies of every counter; a thread uses the one its index selects.
const LANES: usize = 4;

#[repr(align(64))]
struct Lane {
    calls: AtomicU64,
    ns: AtomicU64,
}

thread_local! {
    /// This thread's lane: threads take them round-robin as they first
    /// time something, so the two threads alive at a time differ.
    static LANE: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Relaxed) % LANES
    };
}

/// Calls into one boundary and the host time spent inside them.
pub struct Span([Lane; LANES]);

impl Span {
    const fn new() -> Span {
        Span(
            [const {
                Lane {
                    calls: AtomicU64::new(0),
                    ns: AtomicU64::new(0),
                }
            }; LANES],
        )
    }

    fn enter(&self) -> Guard<'_> {
        Guard {
            lane: &self.0[LANE.with(|lane| *lane)],
            start: Instant::now(),
        }
    }

    pub fn calls(&self) -> u64 {
        self.0.iter().map(|lane| lane.calls.load(Relaxed)).sum()
    }

    pub fn ns(&self) -> u64 {
        self.0.iter().map(|lane| lane.ns.load(Relaxed)).sum()
    }

    pub fn ns_per_call(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            calls => self.ns() as f64 / calls as f64,
        }
    }

    fn reset(&self) {
        for lane in &self.0 {
            lane.calls.store(0, Relaxed);
            lane.ns.store(0, Relaxed);
        }
    }
}

struct Guard<'a> {
    lane: &'a Lane,
    start: Instant,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.lane.calls.fetch_add(1, Relaxed);
        self.lane
            .ns
            .fetch_add(self.start.elapsed().as_nanos() as u64, Relaxed);
    }
}

/// The protocol-node boundaries, in reporting order. `OnApp` is the
/// adapter's `submit_*` call (the adapter handles `on_app` itself) and
/// `Drain` its event drain after every callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cb {
    OnFrame,
    OnTimer,
    OnCadDone,
    OnTxDone,
    OnApp,
    Drain,
    NextWake,
}

impl Cb {
    pub const ALL: [Cb; 7] = [
        Cb::OnFrame,
        Cb::OnTimer,
        Cb::OnCadDone,
        Cb::OnTxDone,
        Cb::OnApp,
        Cb::Drain,
        Cb::NextWake,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Cb::OnFrame => "on_frame",
            Cb::OnTimer => "on_timer",
            Cb::OnCadDone => "on_cad_done",
            Cb::OnTxDone => "on_tx_done",
            Cb::OnApp => "on_app",
            Cb::Drain => "drain",
            Cb::NextWake => "next_wake",
        }
    }
}

/// Firmware callbacks (everything but `next_wake`) seen by [`SpanFw`].
pub static FW_CALLBACKS: Span = Span::new();
/// `next_wake` queries seen by [`SpanFw`]: the engine asks after every
/// callback, so they are timed but not counted as adapter calls.
pub static FW_NEXT_WAKE: Span = Span::new();
static NODE: [Span; 7] = [const { Span::new() }; 7];

/// The protocol-node span of one boundary.
pub fn node(cb: Cb) -> &'static Span {
    &NODE[cb as usize]
}

/// What the spans hold, read once a window has closed.
#[derive(Clone, Copy, Debug)]
pub struct Totals {
    /// Time and calls inside [`SpanFw`], `next_wake` queries included.
    pub fw_ns: f64,
    pub fw_calls: u64,
    /// Time and calls inside [`SpanNode`], all boundaries.
    pub node_ns: f64,
    pub node_calls: u64,
}

pub fn totals() -> Totals {
    Totals {
        fw_ns: (FW_CALLBACKS.ns() + FW_NEXT_WAKE.ns()) as f64,
        fw_calls: FW_CALLBACKS.calls() + FW_NEXT_WAKE.calls(),
        node_ns: NODE.iter().map(Span::ns).sum::<u64>() as f64,
        node_calls: NODE.iter().map(Span::calls).sum(),
    }
}

/// What timing costs: an empty span records `inside_ns` and delays its
/// caller by `total_ns` (two clock reads and two atomic adds). Every
/// `SpanNode` span runs inside a `SpanFw` span, so the budget subtracts
/// `inside_ns` per call from a span's own time and `total_ns` per
/// nested call from the span around it.
#[derive(Clone, Copy, Debug)]
pub struct Overhead {
    pub inside_ns: f64,
    pub total_ns: f64,
}

/// Measures [`Overhead`] as it was while the host ran at `host_speed`
/// (the window's): the median of 15 batches of 10 000 empty spans,
/// taken to nominal speed by host-speed samples between the batches
/// and from there to the window's.
pub fn calibrate(host_speed: f64) -> Overhead {
    static SCRATCH: Span = Span::new();
    const BATCH: u64 = 10_000;
    let speed = crate::calib::HostSpeed::default();
    let (mut inside, mut total) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        speed.sample();
        let before = SCRATCH.ns();
        let start = Instant::now();
        for _ in 0..BATCH {
            drop(std::hint::black_box(SCRATCH.enter()));
        }
        total.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
        inside.push((SCRATCH.ns() - before) as f64 / BATCH as f64);
    }
    let scale = speed.factor() / host_speed;
    Overhead {
        inside_ns: crate::stats::median_of(&inside) * scale,
        total_ns: crate::stats::median_of(&total) * scale,
    }
}

/// Zeroes every span: called where the measured window opens, so
/// start-up and warm-up callbacks are not in the budget.
pub fn reset() {
    for span in NODE.iter().chain([&FW_CALLBACKS, &FW_NEXT_WAKE]) {
        span.reset();
    }
}

/// Times every call the simulator makes into the hosted firmware.
#[derive(Debug)]
pub struct SpanFw<F>(pub F);

impl<F: Firmware> Firmware for SpanFw<F> {
    fn on_start(&mut self, ctx: &mut Context) {
        let _g = FW_CALLBACKS.enter();
        self.0.on_start(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Context) {
        let _g = FW_CALLBACKS.enter();
        self.0.on_timer(ctx);
    }
    fn on_frame(&mut self, frame: &[u8], quality: SignalQuality, ctx: &mut Context) {
        let _g = FW_CALLBACKS.enter();
        self.0.on_frame(frame, quality, ctx);
    }
    fn on_tx_done(&mut self, ctx: &mut Context) {
        let _g = FW_CALLBACKS.enter();
        self.0.on_tx_done(ctx);
    }
    fn on_cad_done(&mut self, busy: bool, ctx: &mut Context) {
        let _g = FW_CALLBACKS.enter();
        self.0.on_cad_done(busy, ctx);
    }
    fn on_app(&mut self, tag: u64, ctx: &mut Context) {
        let _g = FW_CALLBACKS.enter();
        self.0.on_app(tag, ctx);
    }
    fn next_wake(&self) -> Option<Duration> {
        let _g = FW_NEXT_WAKE.enter();
        self.0.next_wake()
    }
}

/// Times every call the adapter makes into the protocol node.
#[derive(Debug)]
pub struct SpanNode(pub ProtocolNode);

impl NodeProtocol for SpanNode {
    /// Not timed: start-up is outside every window.
    fn on_start(&mut self, io: &mut Context) {
        self.0.on_start(io);
    }
    fn on_timer(&mut self, io: &mut Context) {
        let _g = node(Cb::OnTimer).enter();
        self.0.on_timer(io);
    }
    fn on_frame(&mut self, frame: &[u8], quality: SignalQuality, io: &mut Context) {
        let _g = node(Cb::OnFrame).enter();
        self.0.on_frame(frame, quality, io);
    }
    fn on_tx_done(&mut self, io: &mut Context) {
        let _g = node(Cb::OnTxDone).enter();
        self.0.on_tx_done(io);
    }
    fn on_cad_done(&mut self, busy: bool, io: &mut Context) {
        let _g = node(Cb::OnCadDone).enter();
        self.0.on_cad_done(busy, io);
    }
    fn next_wake(&self) -> Option<Duration> {
        let _g = node(Cb::NextWake).enter();
        self.0.next_wake()
    }
}

impl HostedProtocol for SpanNode {
    fn drain(&mut self) -> Vec<AppEvent> {
        let _g = node(Cb::Drain).enter();
        self.0.drain()
    }
    fn submit_datagram(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        let _g = node(Cb::OnApp).enter();
        self.0.submit_datagram(dst, payload, now)
    }
    fn submit_reliable(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        let _g = node(Cb::OnApp).enter();
        self.0.submit_reliable(dst, payload, now)
    }
}
