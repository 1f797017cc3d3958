//! Selection algorithms used by the q-MAX data structures.
//!
//! The q-MAX algorithm (Ben Basat et al., IMC 2019) maintains the `q`
//! largest items of a stream in worst-case constant time per update. Its
//! core trick is that finding an order statistic of an `O(q)`-sized array
//! takes `O(q)` time ([`nth_smallest`] / [`mom_nth_smallest`]), and that
//! this linear-time computation can be *de-amortized*: broken into many
//! small, bounded-work steps that are interleaved with arrivals
//! ([`NthElementMachine`]).
//!
//! This crate provides:
//!
//! * [`nth_smallest`] — introselect (quickselect with a median-of-medians
//!   fallback): expected linear, worst-case linear.
//! * [`mom_nth_smallest`] — pure BFPRT median-of-medians selection:
//!   worst-case linear with a larger constant.
//! * [`NthElementMachine`] — a suspendable selection machine. Each call to
//!   [`NthElementMachine::step`] performs at most `budget` elementary
//!   operations and returns whether the selection has completed. Total
//!   work is bounded by `WORK_BOUND_FACTOR * n`, so running the machine
//!   with a per-step budget of `WORK_BOUND_FACTOR * n / s` completes it
//!   within `s` steps.
//! * [`PartitionMachine`] — a suspendable three-way partition around a
//!   fixed pivot value.
//! * [`paired_nth_smallest`] / [`PairedNthElementMachine`] —
//!   structure-of-arrays variants that select on a dense value lane and
//!   mirror the permutation into a parallel id lane, so pivot scans
//!   stream over 8-byte elements instead of 16-byte structs.
//! * low-level helpers: [`partition3`], [`insertion_sort`],
//!   [`median_of_five`].
//!
//! All algorithms operate in place on caller-owned slices; the machines
//! hold only indices, never borrows, so the caller may mutate *other*
//! regions of the same buffer between steps (this is exactly how q-MAX
//! inserts arrivals into one region while selection runs on another).

#![warn(missing_docs)]
// `unsafe` is denied crate-wide rather than forbidden: the only
// exception is the `kernels` module, whose SIMD intrinsics require it
// (each block carries a SAFETY argument; see DESIGN.md §4.3).
#![deny(unsafe_code)]

pub mod kernels;
mod machine;
mod partition;
pub mod policy;
mod quickselect;
mod soa;
mod topk;

pub use kernels::{prefetch_read, Kernel, KernelKind, ProbeKernel, RunPred, GROUP_WIDTH};
pub use machine::{
    Direction, MachineStatus, NthElementMachine, PartitionMachine, WORK_BOUND_FACTOR,
};
pub use partition::{insertion_sort, median_of_five, partition3};
pub use policy::{BackendChoice, PolicyMode};
pub use quickselect::{mom_nth_smallest, nth_largest, nth_smallest};
pub use soa::{
    paired_insertion_sort, paired_nth_smallest, paired_partition3, PairedNthElementMachine,
};
pub use topk::{top_k_indices, top_k_suffix};
