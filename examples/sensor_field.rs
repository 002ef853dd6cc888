//! Sensor field: the IoT workload the paper's introduction motivates.
//!
//! Sixteen battery-powered sensors are scattered over a field; only some
//! are within radio range of the collector. Each sensor periodically
//! reports a 16-byte reading to the collector (node 0). The mesh routes
//! every report over multiple hops — something the LoRaWAN star model
//! cannot do without extra gateways — and the example also prints an
//! energy estimate per node from the radio's state accounting.
//!
//! Run with:
//!
//! ```text
//! cargo run --example sensor_field
//! ```

use std::time::Duration;

use loramesher_repro::lora_phy::battery::{Battery, ConsumptionProfile};
use loramesher_repro::lora_phy::power::EnergyModel;
use loramesher_repro::radio_sim::rng::SimRng;
use loramesher_repro::radio_sim::topology;
use loramesher_repro::scenario::experiments::default_spacing;
use loramesher_repro::scenario::runner::NetworkBuilder;
use loramesher_repro::scenario::workload;

const SENSORS: usize = 16;

fn main() {
    let spacing = default_spacing();
    let side = spacing * (SENSORS as f64).sqrt() * 0.85;
    let mut rng = SimRng::new(7);
    let positions = topology::connected_random(SENSORS, side, side, spacing, &mut rng, 2000)
        .expect("connected field");
    println!("{SENSORS} sensors over a {side:.0} m × {side:.0} m field; collector at node 0\n");

    let mut net = NetworkBuilder::mesh(positions, 7).build();
    let converged = net
        .run_until_converged(Duration::from_secs(5), Duration::from_secs(1800))
        .expect("field must converge");
    println!("Mesh converged in {:.0} s.", converged.as_secs_f64());

    // Hop distribution from the collector's perspective.
    let collector = net.mesh_node(0).unwrap();
    let mut hops: Vec<u8> = collector
        .routing_table()
        .routes()
        .map(|r| r.metric)
        .collect();
    hops.sort_unstable();
    println!(
        "Collector reaches {} sensors; hop counts: {:?}",
        hops.len(),
        hops
    );

    // One hour of periodic reporting: every sensor reports each 5 min.
    let start = net.now() + Duration::from_secs(10);
    net.apply(&workload::all_to_one(
        SENSORS,
        0,
        16,
        start,
        Duration::from_secs(300),
        12,
    ));
    net.run_until(start + Duration::from_secs(3600) + Duration::from_secs(120));

    let report = net.report();
    println!("\nOne hour of sensor reports:");
    println!("  reports sent      : {}", report.sent);
    println!("  reports delivered : {}", report.delivered);
    println!(
        "  delivery ratio    : {:.1} %",
        report.pdr().unwrap_or(0.0) * 100.0
    );
    println!(
        "  mean latency      : {:.0} ms",
        report
            .mean_latency()
            .map_or(0.0, |d| d.as_secs_f64() * 1000.0)
    );
    println!(
        "  network airtime   : {:.1} s ({:.2} % of the hour)",
        report.total_airtime.as_secs_f64(),
        report.channel_utilisation() * 100.0
    );

    // Energy: finalise radio accounting and price each node's hour.
    net.sim_mut().finish();
    let model = EnergyModel::default();
    let mut worst = (0usize, 0.0f64);
    let mut total = 0.0;
    for i in 0..net.len() {
        let durations = net.sim().radio(net.id(i)).durations();
        let millijoules = model.energy_millijoules(&durations);
        total += millijoules;
        if millijoules > worst.1 {
            worst = (i, millijoules);
        }
    }
    println!("\nEnergy over the run (SX1276 @3.3 V, receiver always on):");
    println!("  mean per node : {:.0} mJ", total / net.len() as f64);
    println!("  busiest node  : node {} at {:.0} mJ", worst.0, worst.1);

    // What does that mean for a battery-powered deployment?
    let durations = net.sim().radio(net.id(worst.0)).durations();
    if let Some(profile) = ConsumptionProfile::from_durations(&model, &durations) {
        let life = profile.lifetime_on(&Battery::cell_18650());
        println!(
            "  busiest node draws {:.1} mA on average ({:.0} % of it listening);",
            profile.average_milliamps,
            profile.rx_share * 100.0
        );
        println!(
            "  one 18650 cell would last ~{:.1} days as a mesh router.",
            life.as_secs_f64() / 86_400.0
        );
    }
    println!("  (receive-mode listening dominates — the known cost of an");
    println!("   always-on LoRa mesh, as the paper notes for future work)");
}
