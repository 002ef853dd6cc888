//! What a child reports: its record, the per-layer values in it and
//! the fingerprint of what it simulated.

use std::time::Duration;

use radio_sim::metrics::Metrics;

use crate::json::Json;
use crate::net::Traffic;

/// Named per-layer values in emission order. Their units are in
/// [`crate::metrics::PER_LAYER`], and only there.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers(pub Vec<(String, f64)>);

impl Layers {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64);
    }
    /// `part / whole`, 0 when there is no whole.
    pub fn ratio(&mut self, name: &str, part: f64, whole: f64) {
        self.put(name, if whole > 0.0 { part / whole } else { 0.0 });
    }
}

/// What one child measured.
#[derive(Clone, Debug)]
pub struct Record {
    /// Raw host seconds; the parent normalises them by `host_speed`.
    pub setup_s: f64,
    pub run_s: f64,
    /// [`crate::calib::HostSpeed::factor`] during the window; the host-time layers
    /// below are already multiplied by it.
    pub host_speed: f64,
    pub events: u64,
    pub peak_rss_mib: f64,
    pub fingerprint: u64,
    pub layers: Layers,
}

impl Record {
    /// Host ns per event of the window, at nominal host speed.
    pub fn ns_per_event(&self) -> f64 {
        self.run_s * self.host_speed * 1e9 / self.events as f64
    }

    pub fn to_json(&self) -> Json {
        let mut layers = Json::obj();
        for (name, value) in &self.layers.0 {
            layers.set(name, *value);
        }
        let mut out = Json::obj();
        out.set("setup_s", self.setup_s)
            .set("run_s", self.run_s)
            .set("host_speed", self.host_speed)
            .set("events", self.events)
            .set("peak_rss_mib", self.peak_rss_mib)
            .set("fingerprint", format!("{:016x}", self.fingerprint))
            .set("layers", layers);
        out
    }

    pub fn from_json(json: &Json) -> Result<Record, String> {
        let mut layers = Layers::default();
        for (name, value) in json.get("layers").ok_or("missing 'layers'")?.fields() {
            let value = value
                .num()
                .ok_or_else(|| format!("layer '{name}' has no value"))?;
            layers.put(name, value);
        }
        Ok(Record {
            setup_s: json.num_at("setup_s")?,
            run_s: json.num_at("run_s")?,
            host_speed: json.num_at("host_speed")?,
            events: json.num_at("events")? as u64,
            peak_rss_mib: json.num_at("peak_rss_mib")?,
            fingerprint: u64::from_str_radix(json.str_at("fingerprint")?, 16)
                .map_err(|e| format!("bad fingerprint: {e}"))?,
            layers,
        })
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` does not say).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over 64-bit words: the simulated-statistics fingerprint.
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn duration(&mut self, d: Duration) {
        self.word(d.as_secs());
        self.word(u64::from(d.subsec_nanos()));
    }
    /// Every field of `Metrics` but `stale_timers_dropped` (the engines
    /// may drop superseded timers on different sides of the horizon).
    pub fn metrics(&mut self, m: &Metrics) {
        for w in [
            m.frames_transmitted,
            m.frames_delivered,
            m.lost_below_floor,
            m.lost_collision,
            m.lost_truncated,
            m.lost_injected,
            m.tx_while_busy,
            m.tx_while_dead,
            m.tx_oversized,
            m.rx_aborted_by_tx,
        ] {
            self.word(w);
        }
        self.duration(m.total_airtime);
        for n in &m.per_node {
            for w in [n.transmitted, n.received, n.lost, n.cad_scans, n.cad_busy] {
                self.word(w);
            }
            self.duration(n.airtime);
        }
    }
    pub fn traffic(&mut self, t: &Traffic) {
        self.word(t.sent as u64);
        self.word(t.delivered as u64);
        self.word(t.duplicates);
        self.word(t.send_errors);
    }
    pub fn value(self) -> u64 {
        self.0
    }
}
