//! Streaming compaction up close: the §6 primitive that keeps spawn
//! buckets dense without per-lane branches. Shows the scalar
//! cursor-advance version and the dispatching 8×i64 kernel spec spawn
//! columns run (AVX-512 `vpcompressq`, AVX2 `vpermd` pairs, or scalar)
//! agreeing, and times them head to head on this machine.
//!
//! ```sh
//! cargo run --release --example compaction
//! ```

use std::time::Instant;

use taskblocks::prelude::*;
use taskblocks::simd::compact::compact_append_i64;
use taskblocks::simd::CpuFeatures;

fn main() {
    let feats = CpuFeatures::detect();
    println!("CPU features: {feats:?} (widest vector: {} bits)\n", feats.vector_bits());

    // A blocked step's typical situation: a vector of candidate children
    // and a survival mask from the base-case test.
    let children = Lanes([10i64, 11, 12, 13, 14, 15, 16, 17]);
    let survivors = Mask([true, false, true, true, false, true, false, true]);
    let mut bucket = Vec::new();
    compact_append(&mut bucket, &children, &survivors);
    println!("lanes     : {:?}", children.0);
    println!("mask      : {:?}", survivors.0);
    println!("compacted : {bucket:?}  (dense, order-preserving)\n");

    // Correctness: the dispatching kernel agrees on every one of the 256 masks.
    let mut disagreements = 0;
    for bits in 0u32..256 {
        let mut m = [false; 8];
        for (lane, b) in m.iter_mut().enumerate() {
            *b = bits & (1 << lane) != 0;
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        compact_append(&mut a, &children, &Mask(m));
        compact_append_i64(&mut b, &children, &Mask(m));
        disagreements += usize::from(a != b);
    }
    println!("vector vs scalar across all 256 masks: {disagreements} disagreements");

    // Throughput comparison.
    const ROUNDS: usize = 2_000_000;
    let mut out = Vec::with_capacity(ROUNDS * 8 + 8);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        compact_append(&mut out, &children, &survivors);
    }
    let scalar_t = t.elapsed();
    let kept = out.len();
    out.clear();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        compact_append_i64(&mut out, &children, &survivors);
    }
    let simd_t = t.elapsed();
    assert_eq!(out.len(), kept);
    println!(
        "\n{} compactions of 8 lanes: scalar {scalar_t:?}, vector {simd_t:?} ({:.2}x)",
        ROUNDS,
        scalar_t.as_secs_f64() / simd_t.as_secs_f64()
    );
}
