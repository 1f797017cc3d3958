//! Group-probe primitive for SIMD-probed open-addressing tables.
//!
//! A swiss-table-style flow table keeps one *control byte* per slot and
//! groups 16 of them into a cache-line-resident block. Every probe —
//! lookup, insert, delete — reduces to one question per group: *which of
//! these 16 bytes equal this tag?* [`ProbeKernel::match_byte`] answers
//! it with a 16-bit mask (bit `i` set ⇔ `group[i] == tag`), dispatched
//! to a 16-lane byte compare where the hardware has one:
//!
//! * **x86_64** — `pcmpeqb` + `pmovmskb` (SSE2). SSE2 is baseline on
//!   x86_64, so the same 16-byte path serves every vector tier the
//!   [`super::Kernel`] dispatch distinguishes (AVX-512F, AVX2); the
//!   probe never needs wider registers because a group *is* 16 bytes.
//! * **aarch64** — `cmeq.16b` + weighted horizontal adds (`addv`)
//!   reproducing `pmovmskb`'s exact bit order.
//! * **scalar** — a branch-free per-byte loop; the reference the SIMD
//!   paths must match bit-for-bit, and the path taken under Miri and
//!   on CPUs where runtime detection reports no vector tier (with
//!   glibc, `GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX512F,-AVX2` masks both
//!   tiers and so takes it too).
//!
//! Dispatch mirrors [`super::Kernel`]: resolved once per table
//! ([`ProbeKernel::detect`]), pinned to the portable path by
//! [`ProbeKernel::scalar`]. Differential property tests in
//! `tests/proptest_kernels.rs` pin scalar ≡ SIMD over adversarial
//! group contents (all-match, no-match, sentinel-heavy).

use super::{detected_kind, KernelKind};

/// Number of control bytes (slots) per probe group: one 16-byte vector,
/// a quarter cache line.
pub const GROUP_WIDTH: usize = 16;

/// A per-table dispatch handle for the 16-byte group probe.
///
/// Resolve once with [`ProbeKernel::detect`] or pin the portable path
/// with [`ProbeKernel::scalar`]; [`match_byte`](ProbeKernel::match_byte)
/// then routes every group compare through the best available
/// implementation. All implementations produce **identical** masks, so
/// swapping kernels never changes a table's observable behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeKernel {
    kind: KernelKind,
}

impl ProbeKernel {
    /// Resolves the best probe kernel for this CPU from the tier
    /// [`Kernel::detect`](super::Kernel::detect) uses (on x86_64 Linux
    /// with glibc read from its start-up CPUID table, elsewhere from the
    /// standard library's cached detection). Any vector tier selects the
    /// 16-lane byte-compare path — the probe needs only baseline 128-bit
    /// compares, so the tiers all map to the same implementation per
    /// architecture — scalar otherwise.
    pub fn detect() -> Self {
        ProbeKernel {
            kind: detected_kind(),
        }
    }

    /// The portable scalar probe, unconditionally.
    pub fn scalar() -> Self {
        ProbeKernel {
            kind: KernelKind::Scalar,
        }
    }

    /// Which implementation this handle dispatches to.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Whether probes dispatch to a SIMD implementation.
    pub fn is_vectorized(&self) -> bool {
        self.kind != KernelKind::Scalar
    }

    /// Bit `i` of the result is set iff `group[i] == tag`.
    #[inline]
    pub fn match_byte(&self, group: &[u8; GROUP_WIDTH], tag: u8) -> u16 {
        #[cfg(target_arch = "x86_64")]
        if self.kind != KernelKind::Scalar {
            // SAFETY: SSE2 is part of the x86_64 baseline, so the
            // intrinsics are always available; the load reads exactly
            // the 16 bytes of `group`.
            return unsafe { match_byte_sse2(group, tag) };
        }
        #[cfg(target_arch = "aarch64")]
        if self.kind == KernelKind::Neon {
            // SAFETY: kind == Neon implies the runtime check passed;
            // the load reads exactly the 16 bytes of `group`.
            return unsafe { match_byte_neon(group, tag) };
        }
        match_byte_scalar(group, tag)
    }
}

/// Portable reference: defines the exact mask semantics.
#[inline]
pub(super) fn match_byte_scalar(group: &[u8; GROUP_WIDTH], tag: u8) -> u16 {
    let mut mask = 0u16;
    for (i, &b) in group.iter().enumerate() {
        mask |= u16::from(b == tag) << i;
    }
    mask
}

#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn match_byte_sse2(group: &[u8; GROUP_WIDTH], tag: u8) -> u16 {
    use core::arch::x86_64::*;
    // SAFETY (caller): SSE2 is baseline on x86_64. The unaligned load
    // covers group[0..16] exactly.
    let g = _mm_loadu_si128(group.as_ptr() as *const __m128i);
    let t = _mm_set1_epi8(tag as i8);
    let eq = _mm_cmpeq_epi8(g, t);
    _mm_movemask_epi8(eq) as u16
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn match_byte_neon(group: &[u8; GROUP_WIDTH], tag: u8) -> u16 {
    use core::arch::aarch64::*;
    // SAFETY (caller): NEON was runtime-detected. The load covers
    // group[0..16] exactly.
    let g = vld1q_u8(group.as_ptr());
    let eq = vceqq_u8(g, vdupq_n_u8(tag));
    // pmovmskb equivalent: weight each matching lane (0xFF) by its bit
    // value, then horizontally add each half. Weights fit in a byte, and
    // at most all eight can be set per half: 0xFF & weight sums to 255.
    let weights: [u8; 16] = [1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128];
    let w = vld1q_u8(weights.as_ptr());
    let bits = vandq_u8(eq, w);
    let lo = vaddv_u8(vget_low_u8(bits)) as u16;
    let hi = vaddv_u8(vget_high_u8(bits)) as u16;
    lo | (hi << 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels() -> Vec<ProbeKernel> {
        let mut ks = vec![ProbeKernel::scalar()];
        let auto = ProbeKernel::detect();
        if auto.is_vectorized() {
            ks.push(auto);
        }
        ks
    }

    #[test]
    fn scalar_reference_is_exact() {
        let mut g = [0u8; GROUP_WIDTH];
        g[3] = 0x7F;
        g[15] = 0x7F;
        assert_eq!(match_byte_scalar(&g, 0x7F), (1 << 3) | (1 << 15));
        assert_eq!(match_byte_scalar(&g, 0), !((1u16 << 3) | (1 << 15)));
        assert_eq!(match_byte_scalar(&g, 1), 0);
    }

    #[test]
    fn simd_matches_scalar_on_adversarial_groups() {
        let mut s = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for k in kernels() {
            // Dense random groups, plus all-equal and sentinel-heavy.
            for case in 0..2000 {
                let mut g = [0u8; GROUP_WIDTH];
                match case % 4 {
                    0 => g.iter_mut().for_each(|b| *b = next() as u8),
                    1 => g = [0x80; GROUP_WIDTH],
                    2 => g.iter_mut().for_each(|b| *b = (next() as u8) & 0x81),
                    _ => g.iter_mut().for_each(|b| *b = (next() % 3) as u8),
                }
                for tag in [0u8, 1, 2, 0x7F, 0x80, 0x81, 0xFF, next() as u8] {
                    assert_eq!(
                        k.match_byte(&g, tag),
                        match_byte_scalar(&g, tag),
                        "{k:?} diverged on group {g:?} tag {tag:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn scalar_never_vectorizes() {
        assert_eq!(ProbeKernel::scalar().kind(), KernelKind::Scalar);
        assert!(!ProbeKernel::scalar().is_vectorized());
    }
}
