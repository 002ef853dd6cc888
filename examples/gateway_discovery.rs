//! Gateway discovery through node roles.
//!
//! LoRaMesher hellos carry a role byte, so infrastructure announces
//! itself through the same broadcasts that build the routing table: no
//! provisioning, no directory service. Here a 10-node field contains one
//! Internet gateway; every sensor discovers it (address *and* hop
//! distance) purely from routing state and uploads its readings there.
//!
//! Run with:
//!
//! ```text
//! cargo run --example gateway_discovery
//! ```

use std::time::Duration;

use loramesher_repro::loramesher::Role;
use loramesher_repro::radio_sim::rng::SimRng;
use loramesher_repro::radio_sim::topology;
use loramesher_repro::scenario::experiments::default_spacing;
use loramesher_repro::scenario::runner::NetworkBuilder;
use loramesher_repro::scenario::workload;

const NODES: usize = 10;
const GATEWAY: usize = 7;

fn main() {
    let spacing = default_spacing();
    let side = spacing * (NODES as f64).sqrt() * 0.85;
    let mut rng = SimRng::new(23);
    let positions = topology::connected_random(NODES, side, side, spacing, &mut rng, 2000)
        .expect("connected field");

    // Only the gateway's configuration differs: one role bit.
    let mut roles = vec![0u8; NODES];
    roles[GATEWAY] = Role::GATEWAY.bits();

    let mut net = NetworkBuilder::mesh(positions, 23).roles(roles).build();
    let converged = net
        .run_until_converged(Duration::from_secs(5), Duration::from_secs(1800))
        .expect("field converges");
    println!(
        "{NODES}-node field converged in {:.0} s; node {GATEWAY} advertises the GATEWAY role.\n",
        converged.as_secs_f64()
    );

    // Every node discovers the gateway from its routing table alone.
    println!("gateway as seen by each node:");
    for i in 0..NODES {
        if i == GATEWAY {
            continue;
        }
        let table = net.mesh_node(i).unwrap().routing_table();
        match table.closest_gateway() {
            Some(gw) => {
                let route = table.route(gw).unwrap();
                println!(
                    "  node {i}: gateway {gw} at {} hop(s) via {}",
                    route.metric, route.via
                );
            }
            None => println!("  node {i}: no gateway known (!)"),
        }
    }

    // Sensors upload to the *discovered* address — here they all found
    // node 7, so the workload targets it.
    let start = net.now() + Duration::from_secs(5);
    net.apply(&workload::all_to_one(
        NODES,
        GATEWAY,
        24,
        start,
        Duration::from_secs(60),
        5,
    ));
    net.run_until(start + Duration::from_secs(5 * 60 + 120));
    let report = net.report();
    println!(
        "\nuploads: {} sent, {} delivered to the gateway (PDR {:.1} %)",
        report.sent,
        report.delivered,
        report.pdr().unwrap_or(0.0) * 100.0
    );
}
