//! A virtual-switch datapath simulator standing in for the paper's
//! DPDK-enabled Open vSwitch testbed (Section 6.6).
//!
//! The paper's OVS experiments answer one question: *how much of the
//! per-packet time budget at line rate does the measurement structure
//! consume?* The moving parts are (a) a software datapath that must
//! touch a flow table per packet, (b) a measurement hook fed with
//! `(flow, packet id, length)` per packet — exactly what the paper's
//! modified OVS copies into shared memory — and (c) a line-rate packet
//! source whose inter-arrival budget the sum of (a) and (b) must fit.
//!
//! This crate rebuilds those parts in software:
//!
//! * [`Switch`] — an OVS-style two-tier datapath: an exact-match cache
//!   ([`Emc`]) in front of a tuple-space-search megaflow classifier
//!   ([`Megaflow`]), with first-packet "upcalls" installing entries.
//! * [`MeasurementHook`] — the per-packet measurement interface.
//! * [`LineRate`] / [`evaluate_throughput`] — the achievable-throughput
//!   model: the datapath + hook is timed over a real packet batch, and
//!   the achieved rate is the offered line rate capped by the measured
//!   per-packet cost (10G/40G, minimal or trace-derived frame sizes —
//!   the configurations of Figures 12–17).
//!
//! What is *not* simulated: NIC DMA, PCIe, and kernel bypass details —
//! these contribute a constant per-packet cost identical across the
//! compared configurations, so they shift all curves equally and do not
//! change who fits the budget (see DESIGN.md for the substitution
//! argument).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod datapath;
mod linerate;
mod pmd;
mod topology;

pub use datapath::{Action, Emc, FlowMask, Megaflow, Switch, SwitchStats};
pub use linerate::{evaluate_throughput, LineRate, NullHook, ThroughputReport};
pub use pmd::PmdPool;
use qmax_traces::FlowKey;
pub use topology::{LeafSpine, Path};

/// Per-packet measurement callback: receives what the paper's modified
/// OVS records for each packet (source flow, packet id, byte length).
pub trait MeasurementHook {
    /// Called once per forwarded packet.
    fn on_packet(&mut self, flow: FlowKey, packet_id: u64, len: u16);

    /// Label used in benchmark output.
    fn name(&self) -> &'static str {
        "hook"
    }
}
