//! Property tests for streaming compaction: the vectorized paths must be
//! indistinguishable from the obvious filter, for every mask and payload.

use proptest::prelude::*;
use tb_simd::compact::{compact_append_i64, compact_slice};
use tb_simd::{compact_append, Lanes, Mask};

proptest! {
    #[test]
    fn compact_append_equals_filter(vals in proptest::array::uniform8(any::<u32>()),
                                    mask in proptest::array::uniform8(any::<bool>())) {
        let lanes = Lanes(vals);
        let m = Mask(mask);
        let mut out = Vec::new();
        let n = compact_append(&mut out, &lanes, &m);
        let expect: Vec<u32> = vals.iter().zip(mask).filter(|(_, k)| *k).map(|(&v, _)| v).collect();
        prop_assert_eq!(&out, &expect);
        prop_assert_eq!(n, expect.len());
    }

    #[test]
    fn avx2_path_equals_scalar_path(vals in proptest::array::uniform8(any::<i64>()),
                                    mask in proptest::array::uniform8(any::<bool>())) {
        // The dispatching 8×i64 kernel spec spawn columns run: vpcompressq,
        // paired vpermd or scalar, whichever this host selects.
        let lanes = Lanes(vals);
        let m = Mask(mask);
        let mut scalar = vec![7i64]; // non-empty prefix must be preserved
        let mut fast = vec![7i64];
        compact_append(&mut scalar, &lanes, &m);
        compact_append_i64::<8>(&mut fast, &lanes, &m);
        prop_assert_eq!(scalar, fast);
    }

    #[test]
    fn slice_compaction_equals_filter(src in proptest::collection::vec(any::<i16>(), 0..100),
                                      seed in any::<u64>()) {
        // Derive a deterministic keep-mask from the seed.
        let keep: Vec<bool> = (0..src.len()).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let mut out = Vec::new();
        compact_slice::<i16, 8>(&mut out, &src, &keep);
        let expect: Vec<i16> = src.iter().zip(&keep).filter(|(_, &k)| k).map(|(&v, _)| v).collect();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn repeated_compaction_is_append_only(rounds in 1usize..20,
                                          vals in proptest::array::uniform8(any::<u64>())) {
        let lanes = Lanes(vals);
        let mut out = Vec::new();
        let mut lens = Vec::new();
        for r in 0..rounds {
            let mut m = [false; 8];
            for (i, slot) in m.iter_mut().enumerate() {
                *slot = (r + i) % 3 == 0;
            }
            compact_append(&mut out, &lanes, &Mask(m));
            lens.push(out.len());
        }
        prop_assert!(lens.windows(2).all(|w| w[0] <= w[1]), "length must be monotone");
    }
}
