//! Vectorized hot-loop kernels with runtime SIMD dispatch.
//!
//! q-MAX's three hot loops are all branch-light linear scans — exactly
//! the shape that vectorizes:
//!
//! * **(a) Ψ-filter batch admit** — compress the values `> Ψ` of an
//!   arrival batch into the buffer lanes ([`Kernel::admit_pairs`]);
//! * **(b) three-way partition** — split a value lane around a pivot
//!   with the same permutation mirrored into the id lane
//!   ([`Kernel::partition3_desc`], plus the counting pass
//!   [`Kernel::count_gt_eq`] and the machine assist
//!   [`Kernel::prefix_class_run`]);
//! * **(c) pivot-sample scan** — min/max sweep plus a deterministic
//!   `O(√n)` quantile sample that yields a near-exact compaction pivot
//!   ([`Kernel::min_max`], [`Kernel::sample_pivot`]; the SQUID approach
//!   of Ben Basat et al., see PAPERS.md).
//!
//! A [`Kernel`] is resolved **once per structure** ([`Kernel::detect`])
//! and then dispatches each call to an AVX-512F or AVX2 (x86_64) or
//! NEON (aarch64) implementation when
//!
//! 1. the CPU and OS report the feature at runtime. On x86_64 a
//!    direct probe reads only the bits the dispatch branches on:
//!    `CPUID.1:ECX` XSAVE and OSXSAVE, then `XGETBV(0)` for the SSE/AVX
//!    state (XCR0 bits 1–2) and the opmask/ZMM state (bits 5–7), then
//!    `CPUID.(7,0):EBX` AVX2 (bit 5) and AVX-512F (bit 16). On aarch64
//!    it is `is_aarch64_feature_detected!("neon")`. The probe runs at
//!    most once per process; its answer, with rule 3 folded in, is
//!    cached in one static;
//! 2. the lane type is exactly `u64` (checked via [`TypeId`]; the SIMD
//!    paths compare unsigned 64-bit lanes), and
//! 3. `QMAX_FORCE_SCALAR` is unset or `"0"` in the environment (CI
//!    sets it to pin the portable path).
//!
//! Otherwise every call runs the always-correct scalar fallback in
//! `scalar` — the *same* code the SIMD paths must match bit-for-bit
//! on the defined output region (differential property tests in
//! `tests/proptest_kernels.rs` pin this down).
//!
//! # Safety
//!
//! This is the only module in the crate allowed to use `unsafe` (the
//! crate root is `#![deny(unsafe_code)]`). The obligations are local
//! and uniform:
//!
//! * every `#[target_feature]` function is only reachable through a
//!   [`Kernel`] whose `kind` was set from the process-wide probe
//!   result, which names a tier only when its CPUID and XCR0 bits are
//!   all set (or, on aarch64, NEON was detected);
//! * every slice reinterpretation is gated on a `TypeId` equality
//!   proving the cast is an identity (`V == u64`);
//! * every SIMD store stays inside the caller-provided bounds: wide
//!   stores are only issued when `cursor + LANES <= limit`, with a
//!   scalar tail for the remainder.

#![allow(unsafe_code)]

use crate::machine::Lanes;
use core::any::TypeId;
use core::marker::PhantomData;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
#[cfg(target_arch = "aarch64")]
mod neon;
mod probe;
mod scalar;

pub use probe::{prefetch_read, ProbeKernel, GROUP_WIDTH};

/// Which implementation a [`Kernel`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable scalar code (always available, always correct).
    Scalar,
    /// AVX2 over 4×u64 lanes (x86_64, runtime-detected).
    Avx2,
    /// AVX-512F over 8×u64 lanes with native masked compress stores
    /// (x86_64, runtime-detected, preferred over AVX2 when present).
    Avx512,
    /// NEON over 2×u64 lanes (aarch64, runtime-detected).
    Neon,
}

/// Predicate for [`Kernel::prefix_class_run`]: which class of elements
/// (relative to the pivot) the run counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPred {
    /// Elements strictly below the pivot.
    Lt,
    /// Elements strictly above the pivot.
    Gt,
    /// Elements equal to the pivot.
    Eq,
}

/// Seed base for the deterministic pivot sample; a structure's k-th
/// compaction samples with `PIVOT_SEED ^ k`, so replays are exact.
pub const PIVOT_SEED: u64 = 0x5A3C_F70D_9E1B_2468;

/// Buffers below this size skip sampled-pivot compaction entirely: the
/// sample would be a sizable fraction of the buffer and plain exact
/// selection is already cheap.
pub const SAMPLED_COMPACT_MIN: usize = 1024;

/// Residual tolerance for a sampled pivot on an `n`-element buffer:
/// when the partition leaves an exact-select residue larger than this,
/// the compaction counts as a fallback to exact selection (the result
/// is exact either way; the counter tracks sample quality).
#[inline]
pub fn pivot_band(n: usize) -> usize {
    core::cmp::max(64, n / 8)
}

/// Sample size for an `n`-element buffer: `O(√n)`, clamped so tiny
/// buffers are not over-sampled and huge ones stay cheap.
#[inline]
pub fn sample_size(n: usize) -> usize {
    (4 * n.isqrt()).clamp(64, 2048).min(n)
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic positions `sample_pivot` draws for an `n`-element
/// buffer under `seed` (duplicates allowed). Exposed so tests can
/// predict — and adversarially defeat — the sample.
pub fn sample_positions(n: usize, seed: u64, out: &mut Vec<usize>) {
    out.clear();
    let mut s = seed;
    for _ in 0..sample_size(n) {
        out.push((splitmix64(&mut s) % n as u64) as usize);
    }
}

/// Estimates the key with ascending rank `rank` among slots `[0, n)` of
/// `buf` from the deterministic `O(√n)` sample at the positions
/// [`sample_positions`] yields for `(n, seed)`, selecting the
/// proportionally scaled rank within the sample. `scratch` holds the
/// sample, so repeated compactions reuse its allocation. Requires
/// `rank < n` (debug-asserted).
pub fn sample_rank<L: Lanes + ?Sized>(
    buf: &L,
    n: usize,
    rank: usize,
    seed: u64,
    scratch: &mut Vec<L::Key>,
) -> L::Key {
    debug_assert!(rank < n, "sample rank {rank} out of range {n}");
    let m = sample_size(n);
    scratch.clear();
    let mut s = seed;
    for _ in 0..m {
        scratch.push(buf.key((splitmix64(&mut s) % n as u64) as usize).clone());
    }
    let srank = (((rank as u128) * (m as u128)) / (n as u128)) as usize;
    let srank = srank.min(m - 1);
    crate::nth_smallest(scratch, srank);
    scratch[srank].clone()
}

/// The vector tier every `detect` resolves to: the probed tier, or
/// `Scalar` when `QMAX_FORCE_SCALAR` is set to anything but `"0"`.
/// Probed on first use and cached for the process, so every later call
/// is a single load.
fn detected_kind() -> KernelKind {
    static KIND: OnceLock<KernelKind> = OnceLock::new();
    *KIND.get_or_init(|| {
        if std::env::var_os("QMAX_FORCE_SCALAR").is_some_and(|v| v != "0") {
            KernelKind::Scalar
        } else {
            probe_arch_kind()
        }
    })
}

/// Uncached x86_64 probe for the `u64` lane kernels. It applies the
/// conditions the standard library applies to `avx2` and `avx512f`, but
/// issues only `CPUID` leaves 1 and (7,0) plus one `XGETBV`, where the
/// standard library's first query sweeps about seven leaves (each a VM
/// exit under virtualization).
#[cfg(all(target_arch = "x86_64", not(miri)))]
fn probe_arch_kind() -> KernelKind {
    use core::arch::x86_64::{__cpuid, __cpuid_count, _xgetbv};
    const XSAVE: u32 = 1 << 26;
    const OSXSAVE: u32 = 1 << 27;
    // SSE and AVX (YMM upper half) state.
    const XCR0_AVX: u64 = 0b110;
    // Opmask, ZMM_Hi256 and Hi16_ZMM state.
    const XCR0_AVX512: u64 = 0b1110_0000;
    const AVX2: u32 = 1 << 5;
    const AVX512F: u32 = 1 << 16;

    if __cpuid(1).ecx & (XSAVE | OSXSAVE) != XSAVE | OSXSAVE {
        return KernelKind::Scalar;
    }
    // SAFETY: OSXSAVE says the OS has enabled XSAVE, which makes XGETBV
    // executable (it raises #UD only while CR4.OSXSAVE is clear).
    let xcr0 = unsafe { _xgetbv(0) };
    if xcr0 & XCR0_AVX != XCR0_AVX {
        return KernelKind::Scalar;
    }
    // SAFETY: the tier returned here licenses `#[target_feature]` calls,
    // so leaf 7 must be a real leaf: above the maximum basic leaf, Intel
    // CPUs answer with the highest basic leaf's data, whose EBX bits 5
    // and 16 mean something else. No `CPUID.0` max-leaf guard is needed:
    // XSAVE (checked above) implies leaf 0xD, the XSAVE state
    // enumeration, exists, so the maximum basic leaf is at least 0xD > 7.
    let ebx = __cpuid_count(7, 0).ebx;
    if ebx & AVX512F != 0 && xcr0 & XCR0_AVX512 == XCR0_AVX512 {
        KernelKind::Avx512
    } else if ebx & AVX2 != 0 {
        KernelKind::Avx2
    } else {
        KernelKind::Scalar
    }
}

/// Uncached aarch64 probe: the auxiliary-vector read behind the
/// standard library's NEON check does not trap.
#[cfg(target_arch = "aarch64")]
fn probe_arch_kind() -> KernelKind {
    if std::arch::is_aarch64_feature_detected!("neon") {
        KernelKind::Neon
    } else {
        KernelKind::Scalar
    }
}

/// No vector tier elsewhere, nor under Miri, which cannot execute a raw
/// `CPUID` (the standard library's detection reports nothing there).
#[cfg(not(any(all(target_arch = "x86_64", not(miri)), target_arch = "aarch64")))]
fn probe_arch_kind() -> KernelKind {
    KernelKind::Scalar
}

#[inline]
fn is_u64_lane<T: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<u64>()
}

/// Reinterprets a `&[V]` as `&[u64]` when `V` *is* `u64`.
#[inline]
fn lane_u64<V: 'static>(v: &[V]) -> Option<&[u64]> {
    if is_u64_lane::<V>() {
        // SAFETY: TypeId equality proves V is exactly u64, so this is
        // an identity cast (same layout, same provenance, same length).
        Some(unsafe { core::slice::from_raw_parts(v.as_ptr() as *const u64, v.len()) })
    } else {
        None
    }
}

/// Reinterprets a `&mut [V]` as `&mut [u64]` when `V` *is* `u64`.
#[inline]
fn lane_u64_mut<V: 'static>(v: &mut [V]) -> Option<&mut [u64]> {
    if is_u64_lane::<V>() {
        // SAFETY: as in `lane_u64`; the unique borrow is carried over.
        Some(unsafe { core::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut u64, v.len()) })
    } else {
        None
    }
}

/// Reinterprets `&[(I, V)]` as `&[(u64, u64)]` when both are `u64`.
#[inline]
fn pairs_u64<I: 'static, V: 'static>(p: &[(I, V)]) -> Option<&[(u64, u64)]> {
    if is_u64_lane::<I>() && is_u64_lane::<V>() {
        // SAFETY: TypeId equality proves (I, V) is exactly (u64, u64).
        Some(unsafe { core::slice::from_raw_parts(p.as_ptr() as *const (u64, u64), p.len()) })
    } else {
        None
    }
}

/// Bit-copies a `V` into a `u64`; only called behind `is_u64_lane::<V>`.
#[inline]
fn val_u64<V: Copy + 'static>(v: V) -> u64 {
    debug_assert!(is_u64_lane::<V>());
    // SAFETY: guarded by the TypeId check at every call site, so V is
    // u64 and the copy is an identity.
    unsafe { core::mem::transmute_copy(&v) }
}

/// A per-structure dispatch handle for the vectorized kernels.
///
/// Resolve once with [`Kernel::detect`] (runtime feature detection) or
/// pin the portable path with [`Kernel::scalar`]; each method then
/// routes to the best implementation for the lane type. All methods
/// produce output **identical** to the scalar reference on the defined
/// region, so swapping kernels never changes a caller's observable
/// behavior.
pub struct Kernel<V> {
    kind: KernelKind,
    _lane: PhantomData<fn() -> V>,
}

impl<V> Clone for Kernel<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for Kernel<V> {}
impl<V> core::fmt::Debug for Kernel<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Kernel").field("kind", &self.kind).finish()
    }
}

impl<V: Ord + Copy + 'static> Kernel<V> {
    /// Resolves the best kernel for `V` on this CPU: AVX-512F, AVX2,
    /// or NEON (in that preference order) when the feature is present
    /// *and* `V` is `u64`, scalar otherwise (or when the
    /// `QMAX_FORCE_SCALAR` environment variable is set).
    pub fn detect() -> Self {
        let kind = if is_u64_lane::<V>() {
            detected_kind()
        } else {
            KernelKind::Scalar
        };
        Kernel {
            kind,
            _lane: PhantomData,
        }
    }

    /// The portable scalar kernel, unconditionally.
    pub fn scalar() -> Self {
        Kernel {
            kind: KernelKind::Scalar,
            _lane: PhantomData,
        }
    }

    /// Which implementation this handle dispatches to.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Whether calls dispatch to a SIMD implementation.
    pub fn is_vectorized(&self) -> bool {
        self.kind != KernelKind::Scalar
    }

    /// Kernel (a): Ψ-filter batch admit. Streams `items` into the
    /// parallel lanes starting at write cursor `w`: every item is
    /// conceptually stored at the cursor and the cursor advances only
    /// for survivors (`val > threshold`; everything survives when
    /// `threshold` is `None`). Returns the new cursor.
    ///
    /// Only `vals[w..ret]` / `ids[w..ret]` are defined output; slots at
    /// and beyond the returned cursor (up to `hard_end`) may hold
    /// arbitrary rejected-item residue, exactly like the scalar
    /// overwrite trick. No store ever touches `vals[hard_end..]`.
    ///
    /// Caller contract (debug-asserted): `w + items.len() <= hard_end
    /// <= min(vals.len(), ids.len())`.
    pub fn admit_pairs<I: Copy + 'static>(
        &self,
        items: &[(I, V)],
        threshold: Option<V>,
        vals: &mut [V],
        ids: &mut [I],
        w: usize,
        hard_end: usize,
    ) -> usize {
        #[cfg(target_arch = "x86_64")]
        if matches!(self.kind, KernelKind::Avx2 | KernelKind::Avx512) {
            if let (Some(t), Some(items), Some(vals), Some(ids)) = (
                threshold,
                pairs_u64(items),
                lane_u64_mut(vals),
                lane_u64_mut(ids),
            ) {
                // SAFETY: the kind implies the matching runtime check
                // passed.
                return unsafe {
                    if self.kind == KernelKind::Avx512 {
                        avx512::admit_pairs_u64(items, val_u64(t), vals, ids, w, hard_end)
                    } else {
                        avx2::admit_pairs_u64(items, val_u64(t), vals, ids, w, hard_end)
                    }
                };
            }
        }
        #[cfg(target_arch = "aarch64")]
        if self.kind == KernelKind::Neon {
            if let (Some(t), Some(items), Some(vals), Some(ids)) = (
                threshold,
                pairs_u64(items),
                lane_u64_mut(vals),
                lane_u64_mut(ids),
            ) {
                // SAFETY: kind == Neon implies the runtime check passed.
                return unsafe { neon::admit_pairs_u64(items, val_u64(t), vals, ids, w, hard_end) };
            }
        }
        scalar::admit_pairs(items, threshold, vals, ids, w, hard_end)
    }

    /// Kernel (b), counting pass: `(#elements > pivot, #elements ==
    /// pivot)` over the value lane.
    pub fn count_gt_eq(&self, vals: &[V], pivot: V) -> (usize, usize) {
        #[cfg(target_arch = "x86_64")]
        if matches!(self.kind, KernelKind::Avx2 | KernelKind::Avx512) {
            if let Some(vals) = lane_u64(vals) {
                // SAFETY: the kind implies the matching runtime check
                // passed.
                return unsafe {
                    if self.kind == KernelKind::Avx512 {
                        avx512::count_gt_eq_u64(vals, val_u64(pivot))
                    } else {
                        avx2::count_gt_eq_u64(vals, val_u64(pivot))
                    }
                };
            }
        }
        #[cfg(target_arch = "aarch64")]
        if self.kind == KernelKind::Neon {
            if let Some(vals) = lane_u64(vals) {
                // SAFETY: kind == Neon implies the runtime check passed.
                return unsafe { neon::count_gt_eq_u64(vals, val_u64(pivot)) };
            }
        }
        scalar::count_gt_eq(vals, pivot)
    }

    /// Kernel (c), sweep pass: `(min, max)` of the value lane, `None`
    /// when empty.
    pub fn min_max(&self, vals: &[V]) -> Option<(V, V)> {
        #[cfg(target_arch = "x86_64")]
        if matches!(self.kind, KernelKind::Avx2 | KernelKind::Avx512) && !vals.is_empty() {
            if let Some(lane) = lane_u64(vals) {
                // SAFETY: the kind implies the matching runtime check
                // passed; the lane is non-empty. The result cast back
                // to V is the identity (V == u64) via transmute_copy.
                let (mn, mx) = unsafe {
                    if self.kind == KernelKind::Avx512 {
                        avx512::min_max_u64(lane)
                    } else {
                        avx2::min_max_u64(lane)
                    }
                };
                return Some((u64_val::<V>(mn), u64_val::<V>(mx)));
            }
        }
        #[cfg(target_arch = "aarch64")]
        if self.kind == KernelKind::Neon && !vals.is_empty() {
            if let Some(lane) = lane_u64(vals) {
                // SAFETY: kind == Neon implies the runtime check passed;
                // the lane is non-empty.
                let (mn, mx) = unsafe { neon::min_max_u64(lane) };
                return Some((u64_val::<V>(mn), u64_val::<V>(mx)));
            }
        }
        scalar::min_max(vals)
    }

    /// Kernel (b): stable three-way partition of `(vals, ids)` around
    /// `pivot` into the output lanes, **descending** region order —
    /// `out[0..ngt)` holds the elements `> pivot`, `out[ngt..eq_end)`
    /// the ones `== pivot`, `out[eq_end..n)` the ones `< pivot`, each
    /// region in input order. Returns `(ngt, eq_end)`.
    ///
    /// The descending order makes a q-MAX compaction's survivors a
    /// *prefix* of the output, so keeping them is a lane swap instead
    /// of an overlapping `copy_within`.
    ///
    /// # Panics
    ///
    /// Panics (debug) unless all four slices have equal length.
    pub fn partition3_desc<I: Copy + 'static>(
        &self,
        vals: &[V],
        ids: &[I],
        pivot: V,
        out_vals: &mut [V],
        out_ids: &mut [I],
    ) -> (usize, usize) {
        debug_assert!(
            vals.len() == ids.len() && vals.len() == out_vals.len() && vals.len() == out_ids.len(),
            "partition lanes differ in length"
        );
        let (ngt, neq) = self.count_gt_eq(vals, pivot);
        #[cfg(target_arch = "x86_64")]
        if matches!(self.kind, KernelKind::Avx2 | KernelKind::Avx512) {
            if let (Some(v), Some(i), Some(ov), Some(oi)) = (
                lane_u64(vals),
                lane_u64(ids),
                lane_u64_mut(out_vals),
                lane_u64_mut(out_ids),
            ) {
                // SAFETY: the kind implies the matching runtime check
                // passed.
                unsafe {
                    if self.kind == KernelKind::Avx512 {
                        avx512::partition3_desc_u64(v, i, val_u64(pivot), ngt, neq, ov, oi)
                    } else {
                        avx2::partition3_desc_u64(v, i, val_u64(pivot), ngt, neq, ov, oi)
                    }
                };
                return (ngt, ngt + neq);
            }
        }
        // NEON: the 2-lane compress does not pay for the three-stream
        // bookkeeping; aarch64 partitions take the scalar path.
        scalar::partition3_desc(vals, ids, pivot, ngt, neq, out_vals, out_ids)
    }

    /// Machine assist for kernel (b): length of the longest prefix of
    /// `vals` whose elements all satisfy `pred` relative to `pivot`.
    pub fn prefix_class_run(&self, vals: &[V], pivot: V, pred: RunPred) -> usize {
        #[cfg(target_arch = "x86_64")]
        if matches!(self.kind, KernelKind::Avx2 | KernelKind::Avx512) {
            if let Some(lane) = lane_u64(vals) {
                // SAFETY: the kind implies the matching runtime check
                // passed.
                return unsafe {
                    if self.kind == KernelKind::Avx512 {
                        avx512::prefix_class_run_u64(lane, val_u64(pivot), pred)
                    } else {
                        avx2::prefix_class_run_u64(lane, val_u64(pivot), pred)
                    }
                };
            }
        }
        #[cfg(target_arch = "aarch64")]
        if self.kind == KernelKind::Neon {
            if let Some(lane) = lane_u64(vals) {
                // SAFETY: kind == Neon implies the runtime check passed.
                return unsafe { neon::prefix_class_run_u64(lane, val_u64(pivot), pred) };
            }
        }
        scalar::prefix_class_run(vals, pivot, pred)
    }

    /// Kernel (c): [`sample_rank`] over the whole value lane.
    pub fn sample_pivot(&self, vals: &[V], rank: usize, seed: u64, scratch: &mut Vec<V>) -> V {
        sample_rank(vals, vals.len(), rank, seed, scratch)
    }
}

/// Bit-copies a `u64` back into `V`; only called behind `is_u64_lane`.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline]
fn u64_val<V: Copy + 'static>(v: u64) -> V {
    debug_assert!(is_u64_lane::<V>());
    // SAFETY: guarded by the TypeId check at every call site, so V is
    // u64 and the copy is an identity.
    unsafe { core::mem::transmute_copy(&v) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        splitmix64(state)
    }

    fn zipfish(n: usize, seed: u64) -> Vec<u64> {
        // Heavy-tailed-ish deterministic values: many small, few huge.
        let mut s = seed;
        (0..n)
            .map(|_| {
                let r = splitmix(&mut s);
                let shift = (r % 48) as u32;
                r >> shift
            })
            .collect()
    }

    fn kernels() -> Vec<Kernel<u64>> {
        let mut ks = vec![Kernel::<u64>::scalar()];
        let auto = Kernel::<u64>::detect();
        if auto.is_vectorized() {
            ks.push(auto);
        }
        ks
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn probe_matches_std_detection_and_is_cached() {
        let std_kind = if std::arch::is_x86_feature_detected!("avx512f") {
            KernelKind::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            KernelKind::Avx2
        } else {
            KernelKind::Scalar
        };
        assert_eq!(probe_arch_kind(), std_kind);
        let forced = std::env::var_os("QMAX_FORCE_SCALAR").is_some_and(|v| v != "0");
        let want = if forced { KernelKind::Scalar } else { std_kind };
        for _ in 0..2 {
            assert_eq!(Kernel::<u64>::detect().kind(), want);
            assert_eq!(ProbeKernel::detect().kind(), want);
        }
    }

    #[test]
    fn non_u64_lane_always_scalar() {
        assert_eq!(Kernel::<u32>::detect().kind(), KernelKind::Scalar);
        assert_eq!(Kernel::<i64>::detect().kind(), KernelKind::Scalar);
        assert!(!Kernel::<u32>::detect().is_vectorized());
    }

    #[test]
    fn admit_matches_scalar_reference() {
        let scalar = Kernel::<u64>::scalar();
        for k in kernels() {
            for n in [0usize, 1, 3, 4, 5, 16, 127, 1024] {
                let items: Vec<(u64, u64)> = zipfish(n, 11)
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (i as u64, v))
                    .collect();
                for t in [None, Some(0u64), Some(1 << 40), Some(u64::MAX)] {
                    let cap = n + 8;
                    let mut v1 = vec![0u64; cap];
                    let mut i1 = vec![0u64; cap];
                    let mut v2 = vec![0u64; cap];
                    let mut i2 = vec![0u64; cap];
                    let w1 = scalar.admit_pairs(&items, t, &mut v1, &mut i1, 3, 3 + n);
                    let w2 = k.admit_pairs(&items, t, &mut v2, &mut i2, 3, 3 + n);
                    assert_eq!(w1, w2, "cursor diverged: n={n} t={t:?} {k:?}");
                    assert_eq!(&v1[3..w1], &v2[3..w2], "values diverged");
                    assert_eq!(&i1[3..w1], &i2[3..w2], "ids diverged");
                    // Nothing past hard_end is ever touched.
                    assert!(v2[3 + n..].iter().all(|&x| x == 0));
                    assert!(i2[3 + n..].iter().all(|&x| x == 0));
                }
            }
        }
    }

    #[test]
    fn count_and_minmax_match_scalar() {
        let scalar = Kernel::<u64>::scalar();
        for k in kernels() {
            for n in [0usize, 1, 4, 7, 100, 4097] {
                let vals = zipfish(n, 5);
                for pivot in [0u64, 1, 1 << 20, u64::MAX] {
                    assert_eq!(
                        scalar.count_gt_eq(&vals, pivot),
                        k.count_gt_eq(&vals, pivot),
                        "count diverged n={n} pivot={pivot}"
                    );
                }
                assert_eq!(scalar.min_max(&vals), k.min_max(&vals), "minmax n={n}");
            }
        }
    }

    #[test]
    fn partition_is_stable_and_regions_ordered() {
        for k in kernels() {
            for n in [0usize, 1, 5, 64, 999, 4096] {
                let vals: Vec<u64> = zipfish(n, 3).into_iter().map(|v| v % 17).collect();
                let ids: Vec<u64> = (0..n as u64).collect();
                let pivot = 8u64;
                let mut ov = vec![0u64; n];
                let mut oi = vec![0u64; n];
                let (ngt, eq_end) = k.partition3_desc(&vals, &ids, pivot, &mut ov, &mut oi);
                assert!(ov[..ngt].iter().all(|&v| v > pivot), "{k:?}");
                assert!(ov[ngt..eq_end].iter().all(|&v| v == pivot));
                assert!(ov[eq_end..].iter().all(|&v| v < pivot));
                // Pairs intact and each region stable (ids ascending,
                // because the input ids were ascending).
                for (i, (&v, &id)) in ov.iter().zip(&oi).enumerate() {
                    assert_eq!(v, vals[id as usize], "pair broken at {i}");
                }
                for region in [&oi[..ngt], &oi[ngt..eq_end], &oi[eq_end..]] {
                    assert!(region.windows(2).all(|w| w[0] < w[1]), "region not stable");
                }
            }
        }
    }

    #[test]
    fn prefix_runs_match_scalar() {
        let scalar = Kernel::<u64>::scalar();
        for k in kernels() {
            for n in [0usize, 1, 7, 8, 64, 1000] {
                for pat in 0..4u64 {
                    let vals: Vec<u64> = (0..n as u64)
                        .map(|i| match pat {
                            0 => 5,
                            1 => i % 11,
                            2 => 10 - (i % 11).min(10),
                            _ => 5 + (i >= (n as u64) / 2) as u64,
                        })
                        .collect();
                    for pred in [RunPred::Lt, RunPred::Gt, RunPred::Eq] {
                        for pivot in [0u64, 5, 6, u64::MAX] {
                            assert_eq!(
                                scalar.prefix_class_run(&vals, pivot, pred),
                                k.prefix_class_run(&vals, pivot, pred),
                                "run diverged n={n} pat={pat} pred={pred:?} pivot={pivot}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sample_pivot_is_deterministic_and_in_range() {
        let k = Kernel::<u64>::detect();
        let vals = zipfish(10_000, 77);
        let mut scratch = Vec::new();
        let p1 = k.sample_pivot(&vals, 2_000, PIVOT_SEED, &mut scratch);
        let p2 = k.sample_pivot(&vals, 2_000, PIVOT_SEED, &mut scratch);
        assert_eq!(p1, p2, "same seed must sample the same pivot");
        assert!(vals.contains(&p1), "pivot must be a buffer value");
        let p3 = k.sample_pivot(&vals, 2_000, PIVOT_SEED ^ 1, &mut scratch);
        // Different seed *may* coincide, but the positions must differ.
        let mut a = Vec::new();
        let mut b = Vec::new();
        sample_positions(vals.len(), PIVOT_SEED, &mut a);
        sample_positions(vals.len(), PIVOT_SEED ^ 1, &mut b);
        assert_ne!(a, b);
        let _ = p3;
    }

    #[test]
    fn sample_pivot_tracks_rank() {
        // On a uniform permutation the sampled quantile should land
        // within the tolerance band of the true rank.
        let k = Kernel::<u64>::detect();
        let n = 10_000usize;
        let mut vals: Vec<u64> = (0..n as u64).collect();
        // Deterministic shuffle.
        let mut s = 42u64;
        for i in (1..n).rev() {
            let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
            vals.swap(i, j);
        }
        let mut scratch = Vec::new();
        for rank in [100usize, n / 4, n / 2, n - n / 8] {
            let p = k.sample_pivot(&vals, rank, PIVOT_SEED, &mut scratch) as usize;
            assert!(
                p.abs_diff(rank) <= pivot_band(n) * 4,
                "pivot {p} too far from rank {rank}"
            );
        }
    }
}
