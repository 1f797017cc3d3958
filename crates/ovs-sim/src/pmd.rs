//! Multi-PMD (poll-mode-driver) deployment model.
//!
//! DPDK-OVS scales by running several PMD threads, each polling its own
//! RX queues; the NIC spreads flows over queues with RSS (a hash of the
//! 5-tuple). The paper's integration mirrors that: "we build one shared
//! memory block for each PMD thread of OVS" — i.e. one measurement
//! instance per PMD, merged at query time. This module reproduces the
//! sharding: packets are RSS-hashed onto `n` pipelines, each with its
//! own [`Switch`] and [`MeasurementHook`], and aggregate throughput is
//! limited by the most loaded PMD.

use crate::datapath::Switch;
use crate::linerate::{LineRate, ThroughputReport, WIRE_OVERHEAD_BYTES};
use crate::MeasurementHook;
use qmax_traces::{hash, Packet};
use std::time::Instant;

/// A pool of PMD pipelines, each an independent switch datapath plus a
/// measurement hook, fed by RSS.
#[derive(Debug)]
pub struct PmdPool<H> {
    switches: Vec<Switch>,
    hooks: Vec<H>,
    /// Packets dispatched to each PMD.
    loads: Vec<u64>,
}

impl<H: MeasurementHook> PmdPool<H> {
    /// Creates a pool of `n` PMDs whose hooks come from `make_hook`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new<F: FnMut() -> H>(n: usize, mut make_hook: F) -> Self {
        assert!(n > 0, "need at least one PMD");
        PmdPool {
            switches: (0..n).map(|_| Switch::new(8)).collect(),
            hooks: (0..n).map(|_| make_hook()).collect(),
            loads: vec![0; n],
        }
    }

    /// The RSS queue (PMD index) for a packet: a 5-tuple hash, so all
    /// packets of a flow hit the same PMD — which is what lets each
    /// PMD's measurement instance see complete flows.
    #[inline]
    pub fn rss(&self, pkt: &Packet) -> usize {
        (hash::hash64(pkt.flow().as_u64(), 0x0055_0055) % self.switches.len() as u64) as usize
    }

    /// Dispatches one packet to its PMD.
    pub fn process(&mut self, pkt: &Packet) {
        let i = self.rss(pkt);
        self.loads[i] += 1;
        self.switches[i].process(pkt);
        self.hooks[i].on_packet(pkt.flow(), pkt.packet_id(), pkt.len);
    }

    /// Per-PMD packet loads.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Access to the per-PMD hooks (e.g. to merge their reports).
    pub fn hooks_mut(&mut self) -> &mut [H] {
        &mut self.hooks
    }

    /// Runs `packets` through the pool, timing each PMD's share
    /// separately, and reports the aggregate achievable throughput: the
    /// pool keeps line rate iff the *most loaded* PMD fits its share of
    /// the per-packet budget.
    pub fn evaluate_throughput(&mut self, packets: &[Packet], rate: LineRate) -> ThroughputReport {
        assert!(!packets.is_empty(), "need packets to measure");
        let n = self.switches.len();
        debug_assert!(n >= 1);
        // Pre-shard so each PMD's cost is timed in isolation.
        let mut shards: Vec<Vec<&Packet>> = vec![Vec::new(); n];
        for p in packets {
            shards[self.rss(p)].push(p);
        }
        // PMD i receives a share s_i of arrivals and spends c_i ns per
        // packet, so it keeps up with a total arrival rate R as long as
        // R * s_i * c_i <= 1; the pool's capacity is the minimum over
        // PMDs of 1 / (s_i * c_i).
        let mut capacity_pps = f64::INFINITY;
        let mut max_cost_ns = 0.0f64;
        for (i, shard) in shards.iter().enumerate() {
            if shard.is_empty() {
                continue;
            }
            let start = Instant::now();
            for p in shard {
                self.loads[i] += 1;
                self.switches[i].process(p);
                self.hooks[i].on_packet(p.flow(), p.packet_id(), p.len);
            }
            let cost_ns = start.elapsed().as_nanos() as f64 / shard.len() as f64;
            let share = shard.len() as f64 / packets.len() as f64;
            capacity_pps = capacity_pps.min(1e9 / (cost_ns * share));
            max_cost_ns = max_cost_ns.max(cost_ns);
        }
        let offered = rate.offered_pps();
        let achieved = offered.min(capacity_pps);
        ThroughputReport {
            offered_mpps: offered / 1e6,
            achieved_mpps: achieved / 1e6,
            achieved_gbps: achieved * 8.0 * (rate.frame_bytes + WIRE_OVERHEAD_BYTES) as f64 / 1e9,
            cost_ns_per_packet: max_cost_ns,
            budget_utilization: offered / capacity_pps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullHook;
    use qmax_traces::gen::caida_like;

    #[test]
    fn rss_is_per_flow_stable() {
        let pool: PmdPool<NullHook> = PmdPool::new(4, || NullHook);
        let pkts: Vec<Packet> = caida_like(5000, 1).collect();
        let mut assignment = std::collections::HashMap::new();
        for p in &pkts {
            let e = assignment
                .entry(p.flow().as_u64())
                .or_insert_with(|| pool.rss(p));
            assert_eq!(*e, pool.rss(p), "flow changed PMD");
        }
    }

    #[test]
    fn loads_are_roughly_balanced() {
        let mut pool: PmdPool<NullHook> = PmdPool::new(4, || NullHook);
        for p in caida_like(40_000, 2) {
            pool.process(&p);
        }
        let total: u64 = pool.loads().iter().sum();
        assert_eq!(total, 40_000);
        for (i, &l) in pool.loads().iter().enumerate() {
            // Flow-level RSS skews with flow sizes; allow a wide band.
            assert!(
                l > total / 20 && l < total * 3 / 4,
                "PMD {i} load {l} badly unbalanced"
            );
        }
    }

    #[test]
    fn more_pmds_do_not_reduce_throughput() {
        let pkts: Vec<Packet> = caida_like(60_000, 3).collect();
        let rate = LineRate {
            gbps: 40.0,
            frame_bytes: 64,
        };
        let mut one: PmdPool<NullHook> = PmdPool::new(1, || NullHook);
        let r1 = one.evaluate_throughput(&pkts, rate);
        let mut four: PmdPool<NullHook> = PmdPool::new(4, || NullHook);
        let r4 = four.evaluate_throughput(&pkts, rate);
        assert!(
            r4.achieved_mpps >= r1.achieved_mpps * 0.5,
            "scaling collapsed: 1 PMD {} vs 4 PMDs {}",
            r1.achieved_mpps,
            r4.achieved_mpps
        );
        assert!(r4.achieved_mpps <= r4.offered_mpps + 1e-9);
    }

    #[test]
    fn per_pmd_hooks_observe_disjoint_flows() {
        #[derive(Default)]
        struct FlowsHook(std::collections::HashSet<u64>);
        impl MeasurementHook for FlowsHook {
            fn on_packet(&mut self, flow: qmax_traces::FlowKey, _id: u64, _len: u16) {
                self.0.insert(flow.as_u64());
            }
        }
        let mut pool: PmdPool<FlowsHook> = PmdPool::new(3, FlowsHook::default);
        for p in caida_like(20_000, 4) {
            pool.process(&p);
        }
        let sets: Vec<&std::collections::HashSet<u64>> =
            pool.hooks_mut().iter().map(|h| &h.0).collect();
        for i in 0..sets.len() {
            for j in i + 1..sets.len() {
                assert!(
                    sets[i].is_disjoint(sets[j]),
                    "PMDs {i} and {j} observed overlapping flows"
                );
            }
        }
    }
}
