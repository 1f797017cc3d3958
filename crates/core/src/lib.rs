//! # q-MAX: constant-time maintenance of the `q` largest stream items
//!
//! This crate implements the data structures from *"q-MAX: A Unified
//! Scheme for Improving Network Measurement Throughput"* (Ben Basat,
//! Einziger, Gong, Moraney, Raz — IMC 2019).
//!
//! Many network-measurement algorithms maintain a reservoir of the `q`
//! largest `(id, value)` items of a stream and only ever *list* them on
//! demand. That interface is strictly weaker than a heap's or a skip
//! list's, and can be served in **worst-case constant time** per update
//! using `q(1 + γ)` space for any constant γ > 0:
//!
//! * [`AmortizedQMax`] — Algorithm 1 with amortized compaction: a
//!   `q(1+γ)`-slot buffer is filled lazily (items below the admission
//!   threshold Ψ are dropped outright) and compacted with a linear-time
//!   selection once full. `O(1)` amortized update, `O(q)` worst case.
//! * [`DeamortizedQMax`] — Algorithm 1 proper: the compaction is broken
//!   into `O(γ⁻¹)`-operation steps interleaved with arrivals using the
//!   suspendable selection machine from [`qmax_select`], yielding an
//!   `O(γ⁻¹)` **worst-case** update time.
//! * [`SoaAmortizedQMax`], [`SoaDeamortizedQMax`] — the same two
//!   algorithms ([`Amortized`], [`Deamortized`], each written once over
//!   a [`Slots`] layout) over split `vals`/`ids` lanes for `Copy`
//!   primitive ids/values, with a branchless chunked Ψ-filter for
//!   [`BatchInsert::insert_batch`] and value-only selection.
//! * [`HeapQMax`], [`SkipListQMax`], [`SortedVecQMax`] — the classical
//!   `O(log q)` (or worse) baselines the paper compares against, built
//!   from scratch on our own [`heap::MinHeap`] and [`skiplist::SkipList`].
//! * [`BasicSlackQMax`], [`HierSlackQMax`], [`LazySlackQMax`],
//!   [`TimeSlackQMax`] — sliding window variants over `(W, τ)`-*slack
//!   windows* (Algorithms 3–4, Theorem 7 and the time-based windows of
//!   Section 4.3.4), all on one epoch-stamped ring of interval blocks.
//! * [`ExpDecayQMax`] — exponential-decay weighting (Section 5) via a
//!   numerically stable log-domain transform.
//!
//! ## Quick start
//!
//! ```
//! use qmax_core::{AmortizedQMax, QMax};
//!
//! // Track the 3 largest flows, with 50% space slack (γ = 0.5).
//! let mut top = AmortizedQMax::new(3, 0.5);
//! for (flow, bytes) in [(1u32, 900u64), (2, 15), (3, 7000), (4, 42), (5, 1200)] {
//!     top.insert(flow, bytes);
//! }
//! let mut ids: Vec<u32> = top.query().into_iter().map(|(id, _)| id).collect();
//! ids.sort();
//! assert_eq!(ids, vec![1, 3, 5]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adaptive;
mod amortized;
mod checkpoint;
mod deamortized;
mod dedup;
mod entry;
mod error;
mod exp_decay;
pub mod flow_table;
pub mod heap;
pub mod indexed_heap;
pub mod skiplist;
mod slots;
mod soa;
mod sorted_vec;
mod time_window;
mod traits;
pub mod window;

pub use adaptive::{AdaptiveBackend, BackendChoice};
pub use amortized::{Amortized, AmortizedQMax};
pub use checkpoint::{BackendSnapshot, Checkpoint};
pub use deamortized::{Deamortized, DeamortizedQMax, DeamortizedStats};
pub use dedup::DedupQMax;
pub use entry::{retain_top_q, Entry, Minimal, OrderedF64};
pub use error::QMaxError;
pub use exp_decay::ExpDecayQMax;
pub use flow_table::{FixedState, FlowTable};
pub use heap::HeapQMax;
pub use indexed_heap::{IndexedHeapQMax, IndexedMinHeap};
pub use skiplist::{KeyedSkipListQMax, SkipListQMax};
pub use slots::Slots;
pub use soa::{SoaAmortizedQMax, SoaDeamortizedQMax};
pub use sorted_vec::SortedVecQMax;
pub use time_window::TimeSlackQMax;
pub use traits::{BatchInsert, IntervalBackend, QMax};
pub use window::{AdaptiveBasicSlackQMax, BasicSlackQMax, HierSlackQMax, LazySlackQMax};
