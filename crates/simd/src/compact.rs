//! Streaming compaction: densely appending selected lanes.
//!
//! After a blocked step decides, per lane, whether a child task is spawned,
//! the surviving lanes must be written *densely* into the spawn bucket —
//! otherwise every block execution would scatter holes through the next
//! block and destroy vectorizability. §6: "the process of adding new tasks
//! to blocks can be vectorized using Streaming Compaction."
//!
//! [`compact_append`] is the portable scalar version (branch-light,
//! cursor-advance style, which LLVM lowers well). [`compact_append_i64`],
//! the kernel behind spec spawn-column writes, adds two hardware
//! specialisations selected at runtime: an AVX2 `vpermd` table walk for
//! 4/8×i64 (each 64-bit lane permuted as a dword pair) and an AVX-512
//! `vpcompressq` path for 8×i64. The property tests assert every path
//! agrees with the scalar version.

use crate::lanes::{Lanes, Mask};

/// Append `src[i]` to `out` for every lane `i` where `mask` is true,
/// preserving lane order. Returns the number of elements appended.
#[inline]
pub fn compact_append<T: Copy, const N: usize>(out: &mut Vec<T>, src: &Lanes<T, N>, mask: &Mask<N>) -> usize {
    let before = out.len();
    out.reserve(N);
    // Cursor-advance compaction: unconditional write, conditional bump.
    // This keeps the loop branchless apart from the final truncate.
    unsafe {
        let mut cursor = out.len();
        let base = out.as_mut_ptr();
        for i in 0..N {
            // SAFETY: reserve(N) above guarantees room for N more writes.
            base.add(cursor).write(src.0[i]);
            cursor += usize::from(mask.0[i]);
        }
        out.set_len(cursor);
    }
    out.len() - before
}

/// Compact a full slice through `N`-lane chunks: appends `src[i]` for every
/// `i` with `keep[i]`, handling the ragged tail scalar-wise.
pub fn compact_slice<T: Copy, const N: usize>(out: &mut Vec<T>, src: &[T], keep: &[bool]) -> usize {
    assert_eq!(src.len(), keep.len());
    let before = out.len();
    let mut i = 0;
    while i + N <= src.len() {
        let lanes = Lanes::<T, N>::from_slice(&src[i..]);
        let mut m = [false; N];
        m.copy_from_slice(&keep[i..i + N]);
        compact_append(out, &lanes, &Mask(m));
        i += N;
    }
    for j in i..src.len() {
        if keep[j] {
            out.push(src[j]);
        }
    }
    out.len() - before
}

/// Masked compaction of `Q` `i64` lanes — the kernel behind every spec
/// spawn column write (`ArgBlock::push_lane_tuples` calls this once per
/// parameter column, for any parameter count).
///
/// Dispatches at runtime: AVX-512 `vpcompressq` when available (one
/// instruction for 8 lanes), an AVX2 `vpermd` table walk otherwise (each
/// 64-bit lane is permuted as a pair of dwords), and the portable scalar
/// cursor loop as the final fallback and for widths the vector paths
/// don't cover.
#[inline]
pub fn compact_append_i64<const N: usize>(out: &mut Vec<i64>, src: &Lanes<i64, N>, mask: &Mask<N>) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        // `Lanes`/`Mask` are plain arrays, so when the width matches the
        // casts below only rename the const parameter.
        if N == 8 {
            let src8 = unsafe { &*(src as *const Lanes<i64, N>).cast::<Lanes<i64, 8>>() };
            let mask8 = unsafe { &*(mask as *const Mask<N>).cast::<Mask<8>>() };
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F presence just checked.
                return unsafe { avx2::compress_i64x8(out, src8, mask8) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 presence just checked.
                return unsafe { avx2::compact_i64x8(out, src8, mask8) };
            }
        }
        if N == 4 && std::arch::is_x86_feature_detected!("avx2") {
            let src4 = unsafe { &*(src as *const Lanes<i64, N>).cast::<Lanes<i64, 4>>() };
            let mask4 = unsafe { &*(mask as *const Mask<N>).cast::<Mask<4>>() };
            // SAFETY: AVX2 presence just checked.
            return unsafe { avx2::compact_i64x4(out, src4, mask4) };
        }
    }
    compact_append(out, src, mask)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// For each 4-bit mask over 64-bit lanes, the `vpermd` control that
    /// gathers the set lanes' dword halves to the front: set lane `l`
    /// contributes dword indices `2l` and `2l + 1`, in lane order.
    const PERMS64: [[u32; 8]; 16] = {
        let mut table = [[0u32; 8]; 16];
        let mut m = 0;
        while m < 16 {
            let mut k = 0;
            let mut lane = 0;
            while lane < 4 {
                if m & (1 << lane) != 0 {
                    table[m][k] = 2 * lane as u32;
                    table[m][k + 1] = 2 * lane as u32 + 1;
                    k += 2;
                }
                lane += 1;
            }
            m += 1;
        }
        table
    };

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn compact_i64x4(out: &mut Vec<i64>, src: &Lanes<i64, 4>, mask: &Mask<4>) -> usize {
        let bits = mask.to_bitmask() as usize;
        let kept = (bits as u32).count_ones() as usize;
        out.reserve(4);
        let perm_arr = PERMS64[bits];
        // SAFETY (within target_feature fn): the load reads 32 bytes from a
        // 4×i64 array; the store has 4 i64 of headroom via reserve(4).
        unsafe {
            let v = _mm256_loadu_si256(src.0.as_ptr().cast());
            let perm = _mm256_loadu_si256(perm_arr.as_ptr().cast());
            let packed = _mm256_permutevar8x32_epi32(v, perm);
            let cursor = out.len();
            _mm256_storeu_si256(out.as_mut_ptr().add(cursor).cast(), packed);
            out.set_len(cursor + kept);
        }
        kept
    }

    /// Two `vpermd` half-compactions cover 8×i64 on AVX2-only hardware.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn compact_i64x8(out: &mut Vec<i64>, src: &Lanes<i64, 8>, mask: &Mask<8>) -> usize {
        let lo = Lanes([src.0[0], src.0[1], src.0[2], src.0[3]]);
        let hi = Lanes([src.0[4], src.0[5], src.0[6], src.0[7]]);
        let mlo = Mask([mask.0[0], mask.0[1], mask.0[2], mask.0[3]]);
        let mhi = Mask([mask.0[4], mask.0[5], mask.0[6], mask.0[7]]);
        // SAFETY: caller guarantees AVX2.
        unsafe { compact_i64x4(out, &lo, &mlo) + compact_i64x4(out, &hi, &mhi) }
    }

    /// One `vpcompressq` does the whole 8×i64 compaction on AVX-512F.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F is available.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn compress_i64x8(out: &mut Vec<i64>, src: &Lanes<i64, 8>, mask: &Mask<8>) -> usize {
        let bits = mask.to_bitmask() as u8;
        let kept = bits.count_ones() as usize;
        out.reserve(8);
        // SAFETY (within target_feature fn): the load reads 64 bytes from an
        // 8×i64 array; the masked compress-store writes exactly `kept`
        // elements, for which reserve(8) guarantees headroom.
        unsafe {
            let v = _mm512_loadu_si512(src.0.as_ptr().cast());
            let cursor = out.len();
            _mm512_mask_compressstoreu_epi64(out.as_mut_ptr().add(cursor).cast(), bits, v);
            out.set_len(cursor + kept);
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compacts_in_lane_order() {
        let mut out = vec![99u32];
        let src = Lanes([10, 11, 12, 13, 14, 15, 16, 17]);
        let mask = Mask([true, false, false, true, true, false, false, true]);
        let n = compact_append(&mut out, &src, &mask);
        assert_eq!(n, 4);
        assert_eq!(out, vec![99, 10, 13, 14, 17]);
    }

    #[test]
    fn empty_and_full_masks() {
        let src = Lanes([1u8, 2, 3, 4]);
        let mut out = Vec::new();
        assert_eq!(compact_append(&mut out, &src, &Mask::none()), 0);
        assert!(out.is_empty());
        assert_eq!(compact_append(&mut out, &src, &Mask::all_set()), 4);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn slice_compaction_handles_ragged_tail() {
        let src: Vec<u32> = (0..19).collect();
        let keep: Vec<bool> = (0..19).map(|i| i % 3 == 0).collect();
        let mut out = Vec::new();
        let n = compact_slice::<u32, 8>(&mut out, &src, &keep);
        assert_eq!(out, vec![0, 3, 6, 9, 12, 15, 18]);
        assert_eq!(n, 7);
    }

    #[test]
    fn i64x4_matches_scalar_exhaustively() {
        let src = Lanes([i64::MIN, -2, 3, i64::MAX]);
        for bits in 0u32..16 {
            let mut m = [false; 4];
            for (lane, b) in m.iter_mut().enumerate() {
                *b = bits & (1 << lane) != 0;
            }
            let mask = Mask(m);
            let mut scalar = vec![42i64]; // non-empty prefix must survive
            compact_append(&mut scalar, &src, &mask);
            let mut fast = vec![42i64];
            compact_append_i64(&mut fast, &src, &mask);
            assert_eq!(scalar, fast, "mask {bits:#06b}");
        }
    }

    #[test]
    fn i64x8_matches_scalar_exhaustively() {
        // All 256 masks: whichever hardware path dispatch picks
        // (vpcompressq, paired vpermd, or scalar) must agree bit-for-bit.
        let src = Lanes([i64::MIN, -7, -1, 0, 1, 2, 1 << 40, i64::MAX]);
        for bits in 0u32..256 {
            let mut m = [false; 8];
            for (lane, b) in m.iter_mut().enumerate() {
                *b = bits & (1 << lane) != 0;
            }
            let mask = Mask(m);
            let mut scalar = Vec::new();
            compact_append(&mut scalar, &src, &mask);
            let mut fast = Vec::new();
            compact_append_i64(&mut fast, &src, &mask);
            assert_eq!(scalar, fast, "mask {bits:#010b}");
        }
    }

    #[test]
    fn i64_odd_widths_take_the_scalar_path() {
        let src = Lanes([10i64, 20]);
        let mut out = vec![1i64];
        let n = compact_append_i64(&mut out, &src, &Mask([false, true]));
        assert_eq!(n, 1);
        assert_eq!(out, vec![1, 20]);
    }

    #[test]
    fn repeated_compaction_grows_monotonically() {
        let mut out = Vec::new();
        let src = Lanes([1u16, 2, 3, 4, 5, 6, 7, 8]);
        for _ in 0..100 {
            compact_append(&mut out, &src, &Mask([true; 8]));
        }
        assert_eq!(out.len(), 800);
    }
}
