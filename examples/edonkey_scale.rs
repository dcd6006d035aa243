//! The paper's motivating deployment: eDonkey/Kad, a Kademlia-based network
//! with millions of transient users.
//!
//! This example asks the question a deployment engineer would ask: *how much
//! of the network remains mutually routable as the user population churns in
//! and out?* It answers it twice — analytically from 10^3 up to 10^9 nodes
//! via the RCM closed forms, and **by measurement at true eDonkey scale**:
//! the implicit routing backend regenerates each table row from the seed on
//! demand, so full XOR overlays with `2^26`–`2^30` nodes route end to end
//! from a resident set of little more than the failure-mask bitset, where
//! materialized tables would need hundreds of gigabytes.
//!
//! Run with: `cargo run --release --example edonkey_scale`

use dht_rcm::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Transient P2P users: a sizeable fraction is unreachable at any moment.
    let failure_probability = 0.25;

    println!("== eDonkey-scale analysis (Kademlia / XOR geometry) ==\n");

    // 1. Analytical routability from 10^3 up to 10^9 nodes.
    println!("Analytical routability at q = {failure_probability} as the network grows:");
    println!(
        "{:>14} {:>12} {:>12} {:>12}",
        "nodes", "xor", "tree", "symphony"
    );
    for bits in [10u32, 14, 18, 22, 26, 30] {
        let size = SystemSize::power_of_two(bits)?;
        let xor = Geometry::xor().routability(size, failure_probability)?;
        let tree = Geometry::tree().routability(size, failure_probability)?;
        let symphony = Geometry::symphony(1, 1)?.routability(size, failure_probability)?;
        println!(
            "{:>14} {:>12.4} {:>12.4} {:>12.4}",
            format!("2^{bits}"),
            xor.routability,
            tree.routability,
            symphony.routability
        );
    }
    println!(
        "\nThe XOR column barely moves while tree and Symphony collapse — the\n\
         scalable/unscalable split that lets eDonkey operate at global scale.\n"
    );

    // 2. Measure executable Kademlia overlays at eDonkey scale — 2^26 up to
    //    2^30 nodes — through the implicit backend. The materialized ceiling
    //    is 2^24; these tables are never stored, only replayed.
    println!(
        "Measuring full XOR overlays through the implicit backend (2^26-2^{MAX_IMPLICIT_OVERLAY_BITS}):"
    );
    println!(
        "{:>6} {:>12} {:>10} {:>10} {:>12} {:>14} {:>16}",
        "bits", "predicted", "measured", "hops", "resident", "mask", "if materialized"
    );
    let pairs = 20_000u64;
    for bits in [26u32, 28, 30] {
        let overlay = ImplicitOverlay::xor(bits, 2006)?;
        let mask = FailureMask::sample(
            overlay.key_space(),
            failure_probability,
            &mut ChaCha8Rng::seed_from_u64(u64::from(bits)),
        );
        let tally = TrialEngine::new(8)
            .run_trial(&overlay, &mask, pairs, 11)
            .expect("2^bits nodes at q = 0.25 leave ample survivors");
        let predicted =
            Geometry::xor().routability(SystemSize::power_of_two(bits)?, failure_probability)?;
        let resident =
            overlay.resident_bytes() + overlay.routing_kernel().row_cache().resident_bytes();
        let mask_bytes = std::mem::size_of_val(mask.words());
        let edge_bytes = overlay.edge_count() * std::mem::size_of::<u64>() as u64;
        println!(
            "{:>6} {:>12.4} {:>10.4} {:>10.2} {:>10} KiB {:>10} MiB {:>12} GiB",
            format!("2^{bits}"),
            predicted.routability,
            tally.routability(),
            tally.hop_stats.mean(),
            resident / 1024,
            mask_bytes >> 20,
            edge_bytes >> 30,
        );
    }
    println!(
        "\nThe \"resident\" column is all the routing state the implicit backend\n\
         keeps (generator + row cache); the failure mask dominates the footprint\n\
         at 128 MiB for 2^30 nodes, plus a 16 MiB survivor index (one eighth\n\
         of the mask), while materialized tables would need the\n\
         \"if materialized\" column. Measurement now reaches the population the\n\
         paper could only treat analytically.\n"
    );

    // 3. What would it take for Symphony to serve the same population?
    println!("Symphony connections needed for 95% routability at q = {failure_probability}:");
    for bits in [16u32, 20, 24] {
        let size = SystemSize::power_of_two(bits)?;
        let mut found = None;
        'search: for total in 2..=24u32 {
            for shortcuts in 1..total {
                let near = total - shortcuts;
                let geometry = Geometry::symphony(near, shortcuts)?;
                if geometry.routability(size, failure_probability)?.routability >= 0.95 {
                    found = Some((near, shortcuts));
                    break 'search;
                }
            }
        }
        match found {
            Some((near, shortcuts)) => println!(
                "  2^{bits} nodes: k_n = {near}, k_s = {shortcuts} (degree {})",
                near + shortcuts
            ),
            None => println!("  2^{bits} nodes: not reachable with 24 connections"),
        }
    }
    println!(
        "\nThe required degree keeps growing with the population — Symphony can be\n\
         provisioned for a target size but not for unbounded growth, which is\n\
         exactly Definition 2's notion of unscalability."
    );
    Ok(())
}
