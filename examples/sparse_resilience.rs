//! Static resilience over a sparsely occupied identifier space: build the
//! ring, XOR and hypercube overlays at several occupancies of the same
//! `d`-bit space and watch which geometries survive sparseness.
//!
//! The ring and XOR tables *resolve* against the occupied set (successors,
//! bucket members), so their intact routability stays at 100% no matter how
//! sparse the space; the hypercube has no resolution rule and collapses.
//!
//! Run with: `cargo run --release --example sparse_resilience [bits]`
//! (the paper-scale `2^20` space with `2^18` occupied nodes: pass `20`).

use dht_rcm::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bits: u32 = std::env::args()
        .nth(1)
        .map(|arg| arg.parse())
        .transpose()?
        .unwrap_or(14);
    let space = KeySpace::new(bits)?;
    let q = 0.3;
    println!(
        "Routability at q = {q} in a 2^{bits} identifier space, by occupancy\n\
         (pairs are sampled among surviving occupied nodes)\n"
    );
    println!(
        "{:<12} {:>12} {:>10} {:>14} {:>14}",
        "geometry", "occupied", "occupancy", "intact %", "q=0.3 %"
    );

    let mut rng = ChaCha8Rng::seed_from_u64(2006);
    for occupied_shift in [0u32, 2, 4] {
        if occupied_shift >= bits {
            // A 2^{bits - shift} population needs at least one bit left;
            // small spaces simply show fewer occupancy rows.
            continue;
        }
        let occupied = 1u64 << (bits - occupied_shift);
        let population = if occupied_shift == 0 {
            Population::full(space)
        } else {
            Population::sample_uniform(space, occupied, &mut rng)?
        };
        let overlays: Vec<Box<dyn Overlay + Sync>> = vec![
            Box::new(ChordOverlay::build_over(
                population.clone(),
                ChordVariant::Deterministic,
                &mut rng,
            )?),
            Box::new(KademliaOverlay::build_over(population.clone(), &mut rng)?),
            Box::new(CanOverlay::build_over(population.clone())?),
        ];
        for overlay in &overlays {
            let config = StaticResilienceConfig::new(0.0)?
                .with_pairs(5_000)
                .with_threads(2)
                .with_seed(42);
            let points = sweep_failure_grid(overlay.as_ref(), &config, &[0.0, q])?;
            println!(
                "{:<12} {:>12} {:>9.1}% {:>13.2}% {:>13.2}%",
                overlay.geometry_name(),
                overlay.node_count(),
                100.0 * overlay.population().occupancy(),
                100.0 * points[0].routability,
                100.0 * points[1].routability,
            );
        }
        println!();
    }

    println!(
        "Reading the table: ring and XOR overlays resolve their tables against\n\
         the occupied set, so occupancy costs them nothing when intact and\n\
         little under failure. The hypercube's degree shrinks with occupancy —\n\
         sparseness alone strands its messages, failures only add to it."
    );
    Ok(())
}
