//! The historical name of the structure-of-arrays interval backend.
//! Layout is fixed by type: `u64` lanes run [`SoaAmortizedQMax`],
//! non-`u64` lanes name [`AmortizedQMax`](crate::AmortizedQMax)
//! (DESIGN.md §4.6).

use crate::soa::SoaAmortizedQMax;

/// The structure-of-arrays interval backend, under the name the `qbench`
/// benchmark binary builds its engines with. New code names
/// [`SoaAmortizedQMax`] directly; this alias is kept only so that
/// benchmark keeps compiling unchanged.
///
/// ```
/// use qmax_core::{AdaptiveBackend, BatchInsert, QMax};
/// let mut qm = AdaptiveBackend::new(2, 0.5);
/// let items: Vec<(u32, u64)> = (0u64..100).map(|v| (v as u32, v)).collect();
/// qm.insert_batch(&items);
/// assert_eq!(qm.backend_label(), "qmax-soa-amortized");
/// ```
pub type AdaptiveBackend<I, V> = SoaAmortizedQMax<I, V>;
