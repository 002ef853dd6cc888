//! End-to-end role propagation: gateways advertise their role bit in
//! every hello, and any node can discover the nearest gateway through
//! the routing table — without knowing the topology.

use std::time::Duration;

use loramesher_repro::loramesher::Role;
use loramesher_repro::radio_sim::topology;
use loramesher_repro::scenario::experiments::default_spacing;
use loramesher_repro::scenario::runner::{NetworkBuilder, Runner};
use loramesher_repro::scenario::workload::{self, Target};

#[test]
fn gateway_role_propagates_across_hops() {
    // Line of 5; the far end (node 4) is a gateway.
    let spacing = default_spacing();
    let mut roles = vec![0u8; 5];
    roles[4] = Role::GATEWAY.bits();
    let mut net = NetworkBuilder::mesh(topology::line(5, spacing), 1)
        .roles(roles)
        .build();
    net.run_until_converged(Duration::from_secs(2), Duration::from_secs(1200))
        .expect("line converges");
    // Node 0, four hops away, discovers the gateway through hellos alone.
    let table = net.mesh_node(0).unwrap().routing_table();
    assert_eq!(table.closest_gateway(), Some(Runner::address_of(4)));
    let gw_route = table.route(Runner::address_of(4)).unwrap();
    assert_eq!(gw_route.metric, 4);
    assert!(Role::from_bits(gw_route.role).contains(Role::GATEWAY));
}

#[test]
fn closest_of_several_gateways_wins() {
    // Line of 6 with gateways at both ends; the node at index 4 is
    // closer to the right-hand gateway.
    let spacing = default_spacing();
    let mut roles = vec![0u8; 6];
    roles[0] = Role::GATEWAY.bits();
    roles[5] = Role::GATEWAY.bits();
    let mut net = NetworkBuilder::mesh(topology::line(6, spacing), 2)
        .roles(roles)
        .build();
    net.run_until_converged(Duration::from_secs(2), Duration::from_secs(1200))
        .expect("line converges");
    let table = net.mesh_node(4).unwrap().routing_table();
    assert_eq!(table.closest_gateway(), Some(Runner::address_of(5)));
    // And the node at index 1 prefers the left one.
    let table = net.mesh_node(1).unwrap().routing_table();
    assert_eq!(table.closest_gateway(), Some(Runner::address_of(0)));
    // Both gateways are visible to everyone.
    for i in 1..5 {
        let found = net
            .mesh_node(i)
            .unwrap()
            .routing_table()
            .nodes_with_role(Role::GATEWAY)
            .len();
        assert_eq!(found, 2, "node {i} sees {found} gateways");
    }
}

#[test]
fn sensor_reports_route_to_discovered_gateway() {
    // The application pattern the roles exist for: sensors discover the
    // gateway via the role bit and send readings there, with no
    // addressing configuration at all.
    let spacing = default_spacing();
    let mut roles = vec![0u8; 4];
    roles[3] = Role::GATEWAY.bits();
    let mut net = NetworkBuilder::mesh(topology::line(4, spacing), 3)
        .roles(roles)
        .build();
    net.run_until_converged(Duration::from_secs(2), Duration::from_secs(1200))
        .expect("line converges");
    // Node 0 looks the gateway up and addresses it.
    let gw = net
        .mesh_node(0)
        .unwrap()
        .routing_table()
        .closest_gateway()
        .expect("gateway discovered");
    assert_eq!(gw, Runner::address_of(3));
    let start = net.now() + Duration::from_secs(1);
    net.apply(&workload::periodic(
        0,
        Target::Node(3),
        16,
        start,
        Duration::from_secs(10),
        5,
    ));
    net.run_until(start + Duration::from_secs(120));
    assert_eq!(net.report().pdr(), Some(1.0));
}

#[test]
fn plain_nodes_have_no_gateway() {
    let spacing = default_spacing();
    let mut net = NetworkBuilder::mesh(topology::line(3, spacing), 4).build();
    net.run_until_converged(Duration::from_secs(2), Duration::from_secs(1200))
        .expect("line converges");
    assert_eq!(
        net.mesh_node(0).unwrap().routing_table().closest_gateway(),
        None
    );
}
