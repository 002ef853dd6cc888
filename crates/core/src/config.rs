//! Node configuration.

use core::time::Duration;

use lora_phy::modulation::LoRaModulation;
use lora_phy::region::Region;

use crate::addr::Address;

/// What a caller may vary about a [`crate::MeshNode`].
///
/// Construct with [`MeshConfig::builder`]; the defaults follow the
/// LoRaMesher firmware (2-minute hellos, 10-minute route timeout, SF7
/// radio profile, EU868 1 % duty cycle). The rest of the protocol is
/// fixed and shared with the other stacks: the MAC's backoff and CAD
/// retries ([`crate::mac`]), the transmit queue
/// ([`crate::queue::TX_QUEUE_CAPACITY`]), the originated TTL
/// ([`crate::stack::MAX_TTL`]), the datagram payload bound
/// ([`crate::codec::MAX_DATA_PAYLOAD`]) and the reliable-transfer
/// timers ([`crate::reliable`]).
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// This node's address.
    pub address: Address,
    /// Role bits advertised in Hello broadcasts (0 = plain node).
    pub role: u8,
    /// The radio profile, used for airtime/duty-cycle arithmetic.
    pub modulation: LoRaModulation,
    /// Regulatory region providing the duty-cycle limit.
    pub region: Region,
    /// Interval between routing broadcasts (jittered ±10 %).
    pub hello_interval: Duration,
    /// Age after which an unrefreshed route is purged.
    pub route_timeout: Duration,
    /// Seed of the protocol's jitter/backoff randomness (defaults to the
    /// node address so every node draws a distinct sequence).
    pub seed: u64,
    /// Listen-before-talk (CAD + backoff). Disabling it degrades the MAC
    /// to pure ALOHA — an ablation knob, not a deployment option.
    pub csma: bool,
    /// Randomise hello timing (±10 % interval, randomised first hello).
    /// Disabling it synchronises co-booted nodes — an ablation knob.
    pub hello_jitter: bool,
    /// Route-selection policy (hop count only by default; optionally
    /// SNR-tie-broken, the LoRaMesher v2 extension).
    pub routing_policy: crate::routing::RoutingPolicy,
}

impl MeshConfig {
    /// Starts building a configuration for `address`.
    #[must_use]
    pub fn builder(address: Address) -> MeshConfigBuilder {
        MeshConfigBuilder {
            config: MeshConfig {
                address,
                role: 0,
                modulation: LoRaModulation::default(),
                region: Region::Eu868,
                hello_interval: Duration::from_secs(120),
                route_timeout: Duration::from_secs(600),
                seed: u64::from(address.value()),
                csma: true,
                hello_jitter: true,
                routing_policy: crate::routing::RoutingPolicy::default(),
            },
        }
    }
}

/// Builder for [`MeshConfig`].
///
/// ```
/// use loramesher::{Address, MeshConfig};
/// use core::time::Duration;
///
/// let cfg = MeshConfig::builder(Address::new(7))
///     .hello_interval(Duration::from_secs(60))
///     .role(1)
///     .build();
/// assert_eq!(cfg.hello_interval, Duration::from_secs(60));
/// assert_eq!(cfg.role, 1);
/// ```
#[derive(Clone, Debug)]
pub struct MeshConfigBuilder {
    config: MeshConfig,
}

impl MeshConfigBuilder {
    /// Sets the role bits advertised by this node.
    #[must_use]
    pub fn role(mut self, role: u8) -> Self {
        self.config.role = role;
        self
    }

    /// Sets the radio profile.
    #[must_use]
    pub fn modulation(mut self, m: LoRaModulation) -> Self {
        self.config.modulation = m;
        self
    }

    /// Sets the regulatory region.
    #[must_use]
    pub fn region(mut self, r: Region) -> Self {
        self.config.region = r;
        self
    }

    /// Sets the routing broadcast interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero.
    #[must_use]
    pub fn hello_interval(mut self, d: Duration) -> Self {
        assert!(!d.is_zero(), "hello interval must be non-zero");
        self.config.hello_interval = d;
        self
    }

    /// Sets the route timeout.
    ///
    /// # Panics
    ///
    /// Panics if the timeout is zero.
    #[must_use]
    pub fn route_timeout(mut self, d: Duration) -> Self {
        assert!(!d.is_zero(), "route timeout must be non-zero");
        self.config.route_timeout = d;
        self
    }

    /// Overrides the protocol randomness seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Enables or disables listen-before-talk (ablation).
    #[must_use]
    pub fn csma(mut self, on: bool) -> Self {
        self.config.csma = on;
        self
    }

    /// Enables or disables hello timing jitter (ablation).
    #[must_use]
    pub fn hello_jitter(mut self, on: bool) -> Self {
        self.config.hello_jitter = on;
        self
    }

    /// Sets the route-selection policy.
    #[must_use]
    pub fn routing_policy(mut self, policy: crate::routing::RoutingPolicy) -> Self {
        self.config.routing_policy = policy;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> MeshConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_firmware() {
        let c = MeshConfig::builder(Address::new(0x0042)).build();
        assert_eq!(c.hello_interval, Duration::from_secs(120));
        assert_eq!(c.route_timeout, Duration::from_secs(600));
        assert_eq!(c.region, Region::Eu868);
        assert_eq!(c.seed, 0x42);
    }

    #[test]
    fn builder_overrides() {
        let c = MeshConfig::builder(Address::new(1))
            .role(2)
            .seed(99)
            .build();
        assert_eq!(c.role, 2);
        assert_eq!(c.seed, 99);
    }

    #[test]
    #[should_panic(expected = "hello interval")]
    fn zero_hello_interval_rejected() {
        let _ = MeshConfig::builder(Address::new(1)).hello_interval(Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "route timeout")]
    fn zero_route_timeout_rejected() {
        let _ = MeshConfig::builder(Address::new(1)).route_timeout(Duration::ZERO);
    }
}
