//! Stream-compile properties: the plan a seeded overlay compiles from its
//! construction stream, in rank chunks on any thread budget, is byte for
//! byte the plan compiled from the arena an eager build of the same seed
//! stores — and compiling it builds no arena.
//!
//! Every size here holds at least two 512-rank chunk floors, so every
//! budget above one really splits the compile (the kernel's unit tests pin
//! where the cuts fall). XOR and tree rows are fixed-width and fill slices
//! of one preallocated plan; randomized-ring and Symphony rows go through
//! per-chunk buffers. The 2^20 check is ignored in the debug test run and
//! runs in CI's release equivalence step.

use dht_id::{KeySpace, Population};
use dht_overlay::chord::ChordStrategy;
use dht_overlay::kademlia::KademliaStrategy;
use dht_overlay::plaxton::PlaxtonStrategy;
use dht_overlay::symphony::SymphonyStrategy;
use dht_overlay::{ChordVariant, GeometryOverlay, GeometryStrategy, Overlay};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Compiles `strategy`'s plan over the full `bits`-bit population once from
/// an eager build's arena and once from the stream at each thread count,
/// and asserts equal digests and a plan-only resident set.
fn assert_stream_compile_matches<S: GeometryStrategy + Clone>(
    strategy: &S,
    bits: u32,
    seed: u64,
    thread_counts: &[usize],
) {
    let name = strategy.geometry_name();
    let expected = {
        let full = Population::full(KeySpace::new(bits).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let eager = GeometryOverlay::over(full, strategy.clone(), &mut rng).unwrap();
        let kernel = eager.kernel().expect("every geometry compiles");
        assert!(
            kernel.plan_bytes() > 0,
            "{name} at 2^{bits} compiles a plan"
        );
        kernel.plan_digest()
    };
    for &threads in thread_counts {
        let seeded = GeometryOverlay::seeded(bits, strategy.clone(), seed, threads).unwrap();
        let kernel = seeded.kernel().expect("every geometry compiles");
        assert_eq!(
            kernel.plan_digest(),
            expected,
            "{name} at 2^{bits} on {threads} threads"
        );
        assert_eq!(
            seeded.resident_bytes(),
            kernel.plan_bytes(),
            "{name} at 2^{bits}: the stream compile builds no arena"
        );
    }
}

/// Checks the four geometries whose plans compile from rows (the
/// deterministic ring and the hypercube route in closed form).
fn assert_every_plan_geometry(bits: u32, thread_counts: &[usize]) {
    let seed = 1_000_003 * u64::from(bits);
    let randomized = ChordStrategy::new(ChordVariant::Randomized);
    assert_stream_compile_matches(&randomized, bits, seed, thread_counts);
    assert_stream_compile_matches(&KademliaStrategy, bits, seed, thread_counts);
    assert_stream_compile_matches(&PlaxtonStrategy, bits, seed, thread_counts);
    assert_stream_compile_matches(&SymphonyStrategy::new(1, 1), bits, seed, thread_counts);
}

#[test]
fn stream_compiles_equal_the_arena_compile_at_every_thread_count() {
    for bits in [10, 13, 16] {
        assert_every_plan_geometry(bits, &[1, 2, 3, 8]);
    }
    // Wider Symphony rows, some of them shortened by duplicate advances.
    assert_stream_compile_matches(&SymphonyStrategy::new(2, 3), 12, 5, &[1, 3]);
}

#[test]
#[ignore = "holds a 2^20 arena (324 MiB) and plan; CI's release equivalence step runs it"]
fn stream_compiles_split_2_20_plans_like_the_arena_compile() {
    assert_every_plan_geometry(20, &[1, 2, 3]);
}
