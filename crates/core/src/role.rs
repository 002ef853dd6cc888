//! Node roles.
//!
//! LoRaMesher advertises a role byte with every node so applications can
//! discover infrastructure through the mesh — most importantly gateways
//! (nodes bridging the mesh to the Internet), which the routing table
//! then lets any node address without knowing the topology.

use alloc::vec::Vec;

use crate::addr::Address;
use crate::routing::{Route, RoutingTable};

/// Role bit flags carried in Hello broadcasts.
///
/// A plain `u8` on the wire; these constants name the assigned bits.
/// Undefined bits are application-specific and forwarded untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Role(u8);

impl Role {
    /// No special role.
    pub const NONE: Role = Role(0);
    /// The node bridges the mesh to an external network.
    pub const GATEWAY: Role = Role(0b0000_0001);
    /// The node is a data collector/sink for sensor reports.
    pub const COLLECTOR: Role = Role(0b0000_0010);

    /// Builds a role from raw bits.
    #[must_use]
    pub const fn from_bits(bits: u8) -> Self {
        Role(bits)
    }

    /// The raw wire byte.
    #[must_use]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Whether every bit of `other` is set in `self`.
    #[must_use]
    pub const fn contains(self, other: Role) -> bool {
        self.0 & other.0 == other.0
    }

    /// The union of two roles.
    #[must_use]
    pub const fn union(self, other: Role) -> Role {
        Role(self.0 | other.0)
    }
}

impl core::ops::BitOr for Role {
    type Output = Role;
    fn bitor(self, rhs: Role) -> Role {
        self.union(rhs)
    }
}

/// Role-aware queries over a routing table.
impl RoutingTable {
    /// All known nodes advertising every bit of `role`, nearest first.
    #[must_use]
    pub fn nodes_with_role(&self, role: Role) -> Vec<&Route> {
        let mut matches: Vec<&Route> = self
            .routes()
            .filter(|r| Role::from_bits(r.role).contains(role))
            .collect();
        matches.sort_by_key(|r| (r.metric, r.destination));
        matches
    }

    /// The nearest known gateway, if any.
    #[must_use]
    pub fn closest_gateway(&self) -> Option<Address> {
        self.routes()
            .filter(|r| Role::from_bits(r.role).contains(Role::GATEWAY))
            .min_by_key(|r| (r.metric, r.destination))
            .map(|r| r.destination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::RouteEntry;
    use std::time::Duration;

    const ME: Address = Address::new(1);

    #[test]
    fn role_bit_operations() {
        let r = Role::GATEWAY | Role::COLLECTOR;
        assert!(r.contains(Role::GATEWAY));
        assert!(r.contains(Role::COLLECTOR));
        assert!(r.contains(Role::NONE));
        assert!(!Role::GATEWAY.contains(Role::COLLECTOR));
        assert_eq!(r.bits(), 0b11);
        assert_eq!(Role::from_bits(0b11), r);
    }

    #[test]
    fn closest_gateway_prefers_lowest_metric() {
        let mut table = RoutingTable::new();
        let now = Duration::from_secs(1);
        // A gateway 3 hops away via neighbour 2...
        table.apply_hello(
            ME,
            Address::new(2),
            0,
            &[RouteEntry {
                address: Address::new(10),
                metric: 2,
                role: Role::GATEWAY.bits(),
            }],
            0.0,
            now,
        );
        assert_eq!(table.closest_gateway(), Some(Address::new(10)));
        // ...then a direct neighbour that is itself a gateway.
        table.apply_hello(ME, Address::new(3), Role::GATEWAY.bits(), &[], 0.0, now);
        assert_eq!(table.closest_gateway(), Some(Address::new(3)));
        // Equal metric: the lower address wins, whichever was learned first.
        table.apply_hello(ME, Address::new(4), Role::GATEWAY.bits(), &[], 0.0, now);
        assert_eq!(table.closest_gateway(), Some(Address::new(3)));
        table.apply_hello(ME, Address::new(2), Role::GATEWAY.bits(), &[], 0.0, now);
        assert_eq!(table.closest_gateway(), Some(Address::new(2)));
    }

    #[test]
    fn nodes_with_role_filters_and_orders() {
        let mut table = RoutingTable::new();
        let now = Duration::from_secs(1);
        table.apply_hello(
            ME,
            Address::new(2),
            0,
            &[
                RouteEntry {
                    address: Address::new(20),
                    metric: 3,
                    role: Role::COLLECTOR.bits(),
                },
                RouteEntry {
                    address: Address::new(21),
                    metric: 1,
                    role: Role::COLLECTOR.bits(),
                },
                RouteEntry {
                    address: Address::new(22),
                    metric: 2,
                    role: 0,
                },
            ],
            0.0,
            now,
        );
        let collectors = table.nodes_with_role(Role::COLLECTOR);
        assert_eq!(collectors.len(), 2);
        assert_eq!(collectors[0].destination, Address::new(21)); // metric 2
        assert_eq!(collectors[1].destination, Address::new(20)); // metric 4
        assert!(table.closest_gateway().is_none());
    }

    #[test]
    fn none_role_matches_everything() {
        let mut table = RoutingTable::new();
        table.heard_from(Address::new(5), 0.0, Duration::from_secs(1));
        assert_eq!(table.nodes_with_role(Role::NONE).len(), 1);
    }
}
