//! Slot storage shared by the amortized and de-amortized q-MAX: the only
//! part of either algorithm that depends on the buffer layout.

use crate::entry::Entry;
use qmax_select::kernels::pivot_band;
use qmax_select::{nth_smallest, partition3, Lanes};

/// Slot storage of a q-MAX buffer.
///
/// Implemented by `Vec<Entry<I, V>>` ([`AmortizedQMax`](crate::AmortizedQMax),
/// [`DeamortizedQMax`](crate::DeamortizedQMax)), which the selection
/// machine sees as a plain slice and which compacts in place, and by
/// [`qmax_select::PairedLanes`] ([`SoaAmortizedQMax`](crate::SoaAmortizedQMax),
/// [`SoaDeamortizedQMax`](crate::SoaDeamortizedQMax)), whose batch admit
/// is the vectorized Ψ-filter and whose compaction partitions out of place.
pub trait Slots<I, V> {
    /// The type the selection orders slots by.
    type Key: Ord + Clone;

    /// The buffer the selection machine runs over.
    type View: Lanes<Key = Self::Key> + ?Sized;

    /// Working storage of [`Slots::keep_top`], kept between compactions.
    type Scratch: Default;

    /// [`QMax::name`](crate::QMax::name) of the amortized q-MAX over
    /// this layout.
    const AMORTIZED_NAME: &'static str;

    /// [`QMax::name`](crate::QMax::name) of the de-amortized q-MAX over
    /// this layout.
    const DEAMORTIZED_NAME: &'static str;

    /// The slots as the selection machine's buffer.
    fn view(&mut self) -> &mut Self::View;

    /// Empty storage with room for `n` slots.
    fn with_capacity(n: usize) -> Self;

    /// Empty storage with room for `n` slots and this one's settings.
    fn empty_like(&self, n: usize) -> Self;

    /// Number of slots written so far.
    fn filled(&self) -> usize;

    /// Drops every slot, keeping the allocation.
    fn clear(&mut self);

    /// Writes slot `i`; `i == filled()` appends.
    fn store(&mut self, i: usize, id: I, val: V);

    /// The item in slot `i`.
    fn entry(&self, i: usize) -> Entry<I, V>;

    /// Writes the `items` whose value exceeds `threshold` (all of them
    /// when `None`) to consecutive slots from `w`, never at or past
    /// `end`, and returns the cursor after the last survivor. Slots from
    /// there up to `end` may hold rejected items.
    fn admit(&mut self, items: &[(I, V)], threshold: Option<&V>, w: usize, end: usize) -> usize;

    /// Grows the storage to exactly `n > filled()` slots, filling the
    /// new ones with copies of the given item.
    fn resize(&mut self, n: usize, id: &I, val: &V);

    /// Moves the `q` largest of slots `[0, len)` to `[0, q)` and returns
    /// the q-th largest value. With a `pivot`, the layout first
    /// partitions around it and exact-selects only the region the cut
    /// fell in; the flag reports whether that region exceeded
    /// [`pivot_band`]`(len)`. The result is exact either way.
    fn keep_top(
        &mut self,
        len: usize,
        q: usize,
        pivot: Option<&Self::Key>,
        scratch: &mut Self::Scratch,
    ) -> (V, bool);
}

impl<I: Clone, V: Ord + Clone> Slots<I, V> for Vec<Entry<I, V>> {
    type Key = Entry<I, V>;

    type View = [Entry<I, V>];

    type Scratch = ();

    const AMORTIZED_NAME: &'static str = "qmax-amortized";

    const DEAMORTIZED_NAME: &'static str = "qmax-deamortized";

    #[inline]
    fn view(&mut self) -> &mut [Entry<I, V>] {
        self
    }

    fn with_capacity(n: usize) -> Self {
        Vec::with_capacity(n)
    }

    fn empty_like(&self, n: usize) -> Self {
        Vec::with_capacity(n)
    }

    #[inline]
    fn filled(&self) -> usize {
        self.len()
    }

    fn clear(&mut self) {
        Vec::clear(self);
    }

    #[inline]
    fn store(&mut self, i: usize, id: I, val: V) {
        if i == self.len() {
            self.push(Entry::new(id, val));
        } else {
            self[i] = Entry::new(id, val);
        }
    }

    fn entry(&self, i: usize) -> Entry<I, V> {
        self[i].clone()
    }

    #[inline]
    fn admit(&mut self, items: &[(I, V)], threshold: Option<&V>, w: usize, end: usize) -> usize {
        let out = &mut self[w..end];
        let Some(t) = threshold else {
            // Everything survives: a straight copy, the append-only case.
            for (slot, (id, val)) in out.iter_mut().zip(items) {
                *slot = Entry::new(id.clone(), val.clone());
            }
            return w + items.len();
        };
        let mut kept = 0;
        for (id, val) in items {
            if val > t {
                out[kept] = Entry::new(id.clone(), val.clone());
                kept += 1;
            }
        }
        w + kept
    }

    fn resize(&mut self, n: usize, id: &I, val: &V) {
        self.reserve_exact(n - self.len());
        Vec::resize(self, n, Entry::new(id.clone(), val.clone()));
    }

    /// In place: an ascending three-way partition around the pivot,
    /// then `nth_smallest` at the cut, then a rotation that brings the
    /// q largest to the front in their selected order.
    fn keep_top(
        &mut self,
        len: usize,
        q: usize,
        pivot: Option<&Entry<I, V>>,
        _: &mut (),
    ) -> (V, bool) {
        let buf = &mut self[..len];
        let cut = len - q;
        let fallback = match pivot {
            None => {
                nth_smallest(buf, cut);
                false
            }
            Some(pivot) => {
                let (lt, gt) = partition3(buf, 0, len, pivot);
                let band = pivot_band(len);
                if cut < lt {
                    // Pivot landed high: the cut is inside the `<` region.
                    nth_smallest(&mut buf[..lt], cut);
                    lt - cut > band
                } else if cut >= gt {
                    // Pivot landed low: the cut is inside the `>` region.
                    nth_smallest(&mut buf[gt..], cut - gt);
                    cut - gt > band
                } else {
                    // The cut fell in the `==` run, so already
                    // buf[..cut] <= buf[cut] == pivot <= buf[cut..].
                    false
                }
            }
        };
        // buf[cut] is the q-th largest overall and buf[cut..] the q largest.
        let psi = buf[cut].val.clone();
        buf.rotate_left(cut);
        (psi, fallback)
    }
}
