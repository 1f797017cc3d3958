//! Portable reference kernels.
//!
//! These define the semantics the SIMD paths must reproduce exactly on
//! the defined output region: same cursors, same counts, same region
//! contents in the same order. They are also the fallback for lane
//! types other than `u64`, for CPUs without the vector features (or,
//! with glibc, whose tiers `GLIBC_TUNABLES` masks), and under Miri.

use super::RunPred;

/// Ψ-filter batch admit: branchless store-then-conditionally-advance,
/// identical to the hand-rolled loops previously inlined in
/// `qmax-core`'s SoA backends.
#[inline]
pub(super) fn admit_pairs<I: Copy, V: Ord + Copy>(
    items: &[(I, V)],
    threshold: Option<V>,
    vals: &mut [V],
    ids: &mut [I],
    mut w: usize,
    hard_end: usize,
) -> usize {
    debug_assert!(
        w + items.len() <= hard_end && hard_end <= vals.len().min(ids.len()),
        "admit window out of bounds: w={w} items={} hard_end={hard_end}",
        items.len()
    );
    match threshold {
        Some(t) => {
            for &(id, v) in items {
                vals[w] = v;
                ids[w] = id;
                w += usize::from(v > t);
            }
        }
        None => {
            for &(id, v) in items {
                vals[w] = v;
                ids[w] = id;
                w += 1;
            }
        }
    }
    w
}

#[inline]
pub(super) fn count_gt_eq<V: Ord + Copy>(vals: &[V], pivot: V) -> (usize, usize) {
    let mut gt = 0usize;
    let mut eq = 0usize;
    for &v in vals {
        gt += usize::from(v > pivot);
        eq += usize::from(v == pivot);
    }
    (gt, eq)
}

#[inline]
pub(super) fn min_max<V: Ord + Copy>(vals: &[V]) -> Option<(V, V)> {
    let mut it = vals.iter();
    let &first = it.next()?;
    let (mut mn, mut mx) = (first, first);
    for &v in it {
        if v < mn {
            mn = v;
        }
        if v > mx {
            mx = v;
        }
    }
    Some((mn, mx))
}

/// Stable three-way partition into descending region order; `ngt`/`neq`
/// are the pre-computed class counts (from [`count_gt_eq`]).
#[inline]
pub(super) fn partition3_desc<I: Copy, V: Ord + Copy>(
    vals: &[V],
    ids: &[I],
    pivot: V,
    ngt: usize,
    neq: usize,
    out_vals: &mut [V],
    out_ids: &mut [I],
) -> (usize, usize) {
    let n = vals.len();
    let eq_end = ngt + neq;
    let (mut wg, mut we, mut wl) = (0usize, ngt, eq_end);
    for i in 0..n {
        let (v, id) = (vals[i], ids[i]);
        match v.cmp(&pivot) {
            core::cmp::Ordering::Greater => {
                out_vals[wg] = v;
                out_ids[wg] = id;
                wg += 1;
            }
            core::cmp::Ordering::Equal => {
                out_vals[we] = v;
                out_ids[we] = id;
                we += 1;
            }
            core::cmp::Ordering::Less => {
                out_vals[wl] = v;
                out_ids[wl] = id;
                wl += 1;
            }
        }
    }
    debug_assert!(
        wg == ngt && we == eq_end && wl == n,
        "partition counts inconsistent: wg={wg}/{ngt} we={we}/{eq_end} wl={wl}/{n}"
    );
    (ngt, eq_end)
}

#[inline]
pub(super) fn prefix_class_run<V: Ord + Copy>(vals: &[V], pivot: V, pred: RunPred) -> usize {
    let mut run = 0usize;
    for &v in vals {
        let hit = match pred {
            RunPred::Lt => v < pivot,
            RunPred::Gt => v > pivot,
            RunPred::Eq => v == pivot,
        };
        if !hit {
            break;
        }
        run += 1;
    }
    run
}
