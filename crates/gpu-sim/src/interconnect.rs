//! Multi-device interconnect: N simulated GPUs joined by a
//! latency/bandwidth link model on a shared discrete-event clock.
//!
//! # Model (DESIGN.md §11)
//!
//! A [`Cluster`] owns `P` [`Gpu`] devices plus one cluster-side clock per
//! device. Compute time accrues on each device's own ledger exactly as in
//! single-device runs and is *folded* into that device's cluster clock at
//! every [`Cluster::sync_device`]; communication time exists only on the
//! cluster clocks, so all single-device accounting invariants (flop
//! conservation, launch-count formulas, PCIe-free residency) hold verbatim
//! per device.
//!
//! A message of `b` payload bytes routed over `h` link hops costs
//!
//! ```text
//! alpha + h * hop + b / beta
//! ```
//!
//! — the classic latency/bandwidth (alpha-beta) model with a per-hop
//! store-and-forward term. Zero-byte messages still pay `alpha` (and the
//! hop latency): latency is exactly the term the CAQR reduction tree is
//! shaped to avoid, so it must never round to free. Hop counts come from
//! the [`Topology`]: a bidirectional ring uses the shorter arc, a binomial
//! tree embeds in the hypercube so the hop count between ranks is the
//! Hamming distance of their labels.
//!
//! Transfers are one-sided sends with rendezvous receives, after the simpy
//! HPL-AI simulator this module is patterned on: [`Cluster::send`] occupies
//! the sender's port for the full message duration and posts the arrival
//! time on the `(from, to)` channel; [`Cluster::recv`] advances the
//! receiver to that arrival (no cost if the message already landed).
//! [`Cluster::broadcast`] and [`Cluster::reduce`] compose these
//! point-to-point events along the topology (pipelined around the ring,
//! recursive doubling/halving on the binomial tree), so collectives are
//! first-class *timed* events, not analytic formulas.
//!
//! Every send is also counted (messages, bytes, hops, port seconds) on the
//! sending device's [`crate::CostLedger`] and appended to the cluster's
//! [`CommEvent`] log; `tests/simulator_invariants.rs` reconciles the two.

use crate::device::Gpu;
use crate::spec::DeviceSpec;
use crate::timeline::Interval;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};

/// Latency/bandwidth description of one interconnect link.
///
/// The shape mirrors [`crate::PcieSpec`]: a fixed per-message latency plus
/// a streaming bandwidth, extended with a per-hop store-and-forward term
/// for multi-hop routes.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Per-message software/injection latency (the alpha term), µs.
    pub alpha_us: f64,
    /// Streaming bandwidth (the 1/beta term), GB/s.
    pub beta_gbs: f64,
    /// Additional store-and-forward latency per link hop, µs.
    pub hop_us: f64,
}

impl LinkSpec {
    /// QDR InfiniBand as deployed on the 2010-era GPU clusters the paper's
    /// hardware lived in: ~2 µs injection latency, ~3.2 GB/s effective
    /// per-link bandwidth, ~0.5 µs per switch hop.
    pub fn infiniband_qdr() -> Self {
        LinkSpec {
            alpha_us: 2.0,
            beta_gbs: 3.2,
            hop_us: 0.5,
        }
    }

    /// Modelled wall-clock seconds for one message of `bytes` payload over
    /// `hops` link hops: `alpha + hops*hop + bytes/beta`. Zero-byte
    /// messages still pay the latency terms.
    pub fn transfer_seconds(&self, bytes: u64, hops: usize) -> f64 {
        self.alpha_us * 1.0e-6
            + hops as f64 * self.hop_us * 1.0e-6
            + bytes as f64 / (self.beta_gbs * 1.0e9)
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self::infiniband_qdr()
    }
}

/// How the devices are wired: decides the hop count of each route and the
/// shape of the composed collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Bidirectional ring: route along the shorter arc; collectives
    /// pipeline around the ring (P−1 sequential point-to-point steps).
    Ring,
    /// Binomial tree embedded in the hypercube: the hop count between two
    /// ranks is the Hamming distance of their labels; collectives use
    /// recursive doubling/halving (⌈log₂ P⌉ rounds).
    BinomialTree,
}

impl Topology {
    /// Link hops on the route from `from` to `to` in a `p`-device cluster
    /// (0 when `from == to`).
    pub fn hops(&self, p: usize, from: usize, to: usize) -> usize {
        debug_assert!(from < p && to < p);
        if from == to {
            return 0;
        }
        match self {
            Topology::Ring => {
                let d = from.abs_diff(to);
                d.min(p - d)
            }
            Topology::BinomialTree => (from ^ to).count_ones() as usize,
        }
    }
}

/// One timed interconnect message, as recorded in the cluster's event log.
#[derive(Clone, Copy, Debug)]
pub struct CommEvent {
    /// Which collective (or plain send) produced this message.
    pub kind: &'static str,
    /// Sending device index.
    pub from: usize,
    /// Receiving device index.
    pub to: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Link hops on the route.
    pub hops: usize,
    /// Cluster-clock start time, seconds (the sender's clock at injection).
    pub start: f64,
    /// Cluster-clock completion time, seconds (arrival at the receiver).
    pub end: f64,
}

/// Totals over the cluster's communication event log.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetTotals {
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Link hops traversed, summed over messages.
    pub hops: u64,
    /// Seconds of port occupancy, summed over messages.
    pub seconds: f64,
}

/// Cluster-side mutable state, behind one lock: the per-device clocks and
/// the communication bookkeeping.
struct ClusterState {
    /// Cluster-absolute clock per device, seconds.
    clock: Vec<f64>,
    /// How much of each device's `Gpu::elapsed()` has been folded into its
    /// cluster clock (device ledgers keep running totals; the cluster
    /// folds deltas).
    folded: Vec<f64>,
    /// Total device-local compute/stall seconds folded per device.
    compute: Vec<f64>,
    /// Every message, in injection order.
    events: Vec<CommEvent>,
    /// Posted-but-unreceived arrival times per `(from, to)` channel.
    in_flight: BTreeMap<(usize, usize), VecDeque<f64>>,
    /// Resolved kernel intervals with their device and cluster-absolute
    /// offset (µs), for the multi-process chrome trace.
    spans: Vec<(usize, f64, Interval)>,
}

/// `P` simulated devices joined by a [`LinkSpec`] link model over a
/// [`Topology`], sharing one discrete-event cluster clock.
///
/// See the module docs for the timing model. The intended driving pattern
/// (used by `caqr::distributed`) is phase-structured: launch work on each
/// device's streams, [`Cluster::sync_device`] each device to fold its
/// modelled compute time onto the cluster clock, then exchange data with
/// [`Cluster::transfer`] / the collectives before the next phase.
pub struct Cluster {
    devices: Vec<Gpu>,
    link: LinkSpec,
    topology: Topology,
    state: Mutex<ClusterState>,
}

impl Cluster {
    /// Build a cluster of `p` identical devices (`p ≥ 1`).
    pub fn new(p: usize, spec: DeviceSpec, link: LinkSpec, topology: Topology) -> Self {
        assert!(p >= 1, "a cluster needs at least one device");
        Cluster {
            devices: (0..p).map(|_| Gpu::new(spec.clone())).collect(),
            link,
            topology,
            state: Mutex::new(ClusterState {
                clock: vec![0.0; p],
                folded: vec![0.0; p],
                compute: vec![0.0; p],
                events: Vec::new(),
                in_flight: BTreeMap::new(),
                spans: Vec::new(),
            }),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True iff the cluster has no devices (never: `new` requires `p ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device `d`.
    pub fn device(&self, d: usize) -> &Gpu {
        &self.devices[d]
    }

    /// All devices, indexed by rank.
    pub fn devices(&self) -> &[Gpu] {
        &self.devices
    }

    /// The link model.
    pub fn link(&self) -> &LinkSpec {
        &self.link
    }

    /// The wiring.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Fold any device-ledger seconds not yet on the cluster clock of `d`.
    fn fold(&self, st: &mut ClusterState, d: usize) {
        let elapsed = self.devices[d].elapsed();
        let delta = elapsed - st.folded[d];
        if delta > 0.0 {
            st.clock[d] += delta;
            st.compute[d] += delta;
            st.folded[d] = elapsed;
        }
    }

    /// Synchronize device `d`'s streams, fold the resolved batch onto its
    /// cluster clock, and record the batch's intervals at cluster-absolute
    /// time for the trace. Returns the resolved [`crate::Timeline`].
    ///
    /// # Panics
    /// Panics if the device's stream queues deadlock (as
    /// [`Gpu::synchronize`] does).
    pub fn sync_device(&self, d: usize) -> crate::Timeline {
        let mut st = self.state.lock();
        // Fold everything charged before this batch (sync launches,
        // transfer costs, failed launches) so the batch lands after it.
        self.fold(&mut st, d);
        let offset_us = st.clock[d] * 1e6;
        let tl = self.devices[d].synchronize();
        for iv in &tl.intervals {
            st.spans.push((d, offset_us, iv.clone()));
        }
        self.fold(&mut st, d);
        tl
    }

    /// Post one message from `from` to `to` (`kind` labels it in the event
    /// log). The sender's port is occupied for the full modelled duration;
    /// the arrival is queued for a matching [`Cluster::recv`]. Returns the
    /// arrival time on the cluster clock. A self-send is free and posts no
    /// event.
    fn post(&self, kind: &'static str, from: usize, to: usize, bytes: u64) -> f64 {
        let mut st = self.state.lock();
        self.fold(&mut st, from);
        if from == to {
            return st.clock[from];
        }
        let hops = self.topology.hops(self.len(), from, to);
        let dur = self.link.transfer_seconds(bytes, hops);
        let start = st.clock[from];
        let end = start + dur;
        st.clock[from] = end;
        st.events.push(CommEvent {
            kind,
            from,
            to,
            bytes,
            hops,
            start,
            end,
        });
        st.in_flight.entry((from, to)).or_default().push_back(end);
        drop(st);
        self.devices[from].note_net_send(bytes, hops as u64, dur);
        end
    }

    /// Send `bytes` from device `from` to device `to` as one timed message.
    /// Occupies the sender until injection completes; pair with
    /// [`Cluster::recv`] on the receiving side. Returns the arrival time.
    pub fn send(&self, from: usize, to: usize, bytes: u64) -> f64 {
        self.post("send", from, to, bytes)
    }

    /// Receive the oldest in-flight message from `from` on device `to`:
    /// advances `to`'s cluster clock to the arrival time (no cost if it
    /// already passed). Returns `to`'s clock after the receive.
    ///
    /// # Panics
    /// Panics if no message from `from` to `to` is in flight — a matching
    /// [`Cluster::send`] must precede every `recv`.
    pub fn recv(&self, to: usize, from: usize) -> f64 {
        let mut st = self.state.lock();
        self.fold(&mut st, to);
        if from == to {
            return st.clock[to];
        }
        let arrival = st
            .in_flight
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
            .unwrap_or_else(|| panic!("recv({to} <- {from}) without a matching send"));
        st.clock[to] = st.clock[to].max(arrival);
        st.clock[to]
    }

    /// One rendezvous transfer: [`Cluster::send`] + [`Cluster::recv`].
    /// Returns the receiver's clock after arrival.
    pub fn transfer(&self, from: usize, to: usize, bytes: u64) -> f64 {
        let _ = self.send(from, to, bytes);
        self.recv(to, from)
    }

    /// Broadcast `bytes` from `root` to every device, as timed
    /// point-to-point messages shaped by the topology: pipelined around
    /// the ring, recursive doubling on the binomial tree. Returns the time
    /// the last device finishes.
    pub fn broadcast(&self, root: usize, bytes: u64) -> f64 {
        let p = self.len();
        match self.topology {
            Topology::Ring => {
                let mut cur = root;
                for i in 1..p {
                    let next = (root + i) % p;
                    let _ = self.post("bcast", cur, next, bytes);
                    self.recv(next, cur);
                    cur = next;
                }
            }
            Topology::BinomialTree => {
                // Round k: every rank within distance k of the root relays
                // to the rank k further along — ⌈log₂ p⌉ rounds.
                let mut k = 1usize;
                while k < p {
                    for r in 0..k.min(p) {
                        if r + k < p {
                            let src = (root + r) % p;
                            let dst = (root + r + k) % p;
                            let _ = self.post("bcast", src, dst, bytes);
                            self.recv(dst, src);
                        }
                    }
                    k <<= 1;
                }
            }
        }
        self.makespan()
    }

    /// Reduce `bytes`-sized contributions from every device onto `root`,
    /// as timed point-to-point messages shaped by the topology: a pipeline
    /// toward the root on the ring, recursive halving on the binomial
    /// tree (the shape CAQR's R-reduction uses). Returns the time the root
    /// holds the result.
    pub fn reduce(&self, root: usize, bytes: u64) -> f64 {
        let p = self.len();
        match self.topology {
            Topology::Ring => {
                for i in (1..p).rev() {
                    let src = (root + i) % p;
                    let dst = (root + i - 1) % p;
                    let _ = self.post("reduce", src, dst, bytes);
                    self.recv(dst, src);
                }
            }
            Topology::BinomialTree => {
                let mut k = 1usize;
                while k < p {
                    k <<= 1;
                }
                k >>= 1;
                // Rounds of recursive halving: ranks [k, 2k) fold into
                // ranks [0, k), relative to the root.
                while k >= 1 {
                    for r in k..(2 * k).min(p) {
                        let src = (root + r) % p;
                        let dst = (root + r - k) % p;
                        let _ = self.post("reduce", src, dst, bytes);
                        self.recv(dst, src);
                    }
                    if k == 1 {
                        break;
                    }
                    k >>= 1;
                }
            }
        }
        let mut st = self.state.lock();
        self.fold(&mut st, root);
        st.clock[root]
    }

    /// Cluster-clock time of device `d` (compute folded + communication).
    pub fn device_time(&self, d: usize) -> f64 {
        let mut st = self.state.lock();
        self.fold(&mut st, d);
        st.clock[d]
    }

    /// Cluster makespan: the maximum device clock after folding all
    /// devices' ledgers.
    pub fn makespan(&self) -> f64 {
        let mut st = self.state.lock();
        for d in 0..self.len() {
            self.fold(&mut st, d);
        }
        st.clock.iter().copied().fold(0.0, f64::max)
    }

    /// Device-local compute/stall seconds folded for device `d` so far.
    pub fn compute_seconds(&self, d: usize) -> f64 {
        let mut st = self.state.lock();
        self.fold(&mut st, d);
        st.compute[d]
    }

    /// Snapshot of the communication event log, in injection order.
    pub fn comm_events(&self) -> Vec<CommEvent> {
        self.state.lock().events.clone()
    }

    /// Totals over the event log (messages, bytes, hops, port seconds).
    pub fn net_totals(&self) -> NetTotals {
        let st = self.state.lock();
        let mut t = NetTotals::default();
        for e in &st.events {
            t.messages += 1;
            t.bytes += e.bytes;
            t.hops += e.hops as u64;
            t.seconds += e.end - e.start;
        }
        t
    }

    /// Export the whole cluster run as Chrome trace-event JSON: one
    /// process row per device (named after its spec), kernel intervals on
    /// their stream lanes at cluster-absolute time, plus an `interconnect`
    /// process whose named lanes are the active `(from, to)` channels.
    pub fn chrome_trace(&self) -> String {
        let st = self.state.lock();
        let p = self.len();
        let mut events: Vec<String> = Vec::new();
        for (d, gpu) in self.devices.iter().enumerate() {
            events.push(format!(
                "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \
                 \"args\": {{\"name\": \"device{} ({})\"}}}}",
                d,
                d,
                gpu.spec().name
            ));
        }
        events.push(format!(
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {p}, \
             \"args\": {{\"name\": \"interconnect\"}}}}"
        ));
        // Channel lanes in first-use order.
        let mut lanes: Vec<(usize, usize)> = Vec::new();
        for e in &st.events {
            if !lanes.contains(&(e.from, e.to)) {
                lanes.push((e.from, e.to));
            }
        }
        for (tid, &(from, to)) in lanes.iter().enumerate() {
            events.push(format!(
                "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {p}, \
                 \"tid\": {tid}, \"args\": {{\"name\": \"d{from}->d{to}\"}}}}"
            ));
        }
        for (d, offset_us, iv) in &st.spans {
            events.push(iv.chrome_event(*d, *offset_us));
        }
        for e in &st.events {
            let tid = lanes.iter().position(|l| *l == (e.from, e.to)).unwrap();
            events.push(format!(
                "  {{\"name\": \"{}\", \"cat\": \"net\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \"tid\": {}, \
                 \"args\": {{\"from\": {}, \"to\": {}, \"bytes\": {}, \"hops\": {}}}}}",
                e.kind,
                e.start * 1e6,
                (e.end - e.start) * 1e6,
                p,
                tid,
                e.from,
                e.to,
                e.bytes,
                e.hops
            ));
        }
        format!("[\n{}\n]", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(p: usize, topo: Topology) -> Cluster {
        Cluster::new(p, DeviceSpec::c2050(), LinkSpec::infiniband_qdr(), topo)
    }

    #[test]
    fn ring_hops_take_the_shorter_arc() {
        let t = Topology::Ring;
        assert_eq!(t.hops(8, 0, 1), 1);
        assert_eq!(t.hops(8, 0, 7), 1, "wrap-around is one hop");
        assert_eq!(t.hops(8, 1, 5), 4);
        assert_eq!(t.hops(8, 3, 3), 0);
        // Symmetric.
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(t.hops(8, a, b), t.hops(8, b, a));
            }
        }
    }

    #[test]
    fn binomial_hops_are_hamming_distance() {
        let t = Topology::BinomialTree;
        assert_eq!(t.hops(8, 0, 1), 1);
        assert_eq!(t.hops(8, 0, 7), 3);
        assert_eq!(t.hops(8, 5, 6), 2); // 101 ^ 110 = 011
        assert_eq!(t.hops(8, 2, 2), 0);
    }

    #[test]
    fn send_recv_advances_both_clocks_by_the_alpha_beta_cost() {
        let c = cluster(2, Topology::Ring);
        let bytes = 1 << 20;
        let want = c.link().transfer_seconds(bytes, 1);
        let arrival = c.send(0, 1, bytes);
        assert!((arrival - want).abs() < 1e-15);
        let t1 = c.recv(1, 0);
        assert!((t1 - want).abs() < 1e-15);
        assert!((c.device_time(0) - want).abs() < 1e-15, "sender blocked");
    }

    #[test]
    fn recv_after_arrival_costs_nothing_extra() {
        let c = cluster(2, Topology::Ring);
        c.send(0, 1, 100);
        c.send(1, 0, 1 << 22); // receiver is busy sending a big message
        let busy = c.device_time(1);
        let t = c.recv(1, 0);
        assert!((t - busy).abs() < 1e-15, "message already landed");
    }

    #[test]
    fn zero_byte_message_still_pays_latency() {
        let c = cluster(4, Topology::BinomialTree);
        let t = c.transfer(0, 3, 0);
        let want = c.link().transfer_seconds(0, 2);
        assert!(t > 0.0);
        assert!((t - want).abs() < 1e-15);
    }

    #[test]
    fn self_send_is_free_and_unlogged() {
        let c = cluster(3, Topology::Ring);
        let t = c.transfer(1, 1, 1 << 20);
        assert_eq!(t, 0.0);
        assert!(c.comm_events().is_empty());
        assert_eq!(c.device(1).ledger().net_messages, 0);
    }

    #[test]
    #[should_panic(expected = "without a matching send")]
    fn recv_without_send_panics() {
        let c = cluster(2, Topology::Ring);
        c.recv(1, 0);
    }

    #[test]
    fn broadcast_reaches_every_device_on_both_topologies() {
        for topo in [Topology::Ring, Topology::BinomialTree] {
            let c = cluster(8, topo);
            let t = c.broadcast(0, 4096);
            assert!(t > 0.0);
            // Every non-root device received something.
            let ev = c.comm_events();
            for d in 1..8 {
                assert!(
                    ev.iter().any(|e| e.to == d),
                    "{topo:?}: device {d} never reached"
                );
            }
            // Binomial broadcast is log-depth: it beats the ring pipeline.
        }
        let ring = cluster(8, Topology::Ring);
        let tree = cluster(8, Topology::BinomialTree);
        assert!(tree.broadcast(0, 4096) < ring.broadcast(0, 4096));
    }

    #[test]
    fn reduce_collects_every_contribution_at_the_root() {
        for topo in [Topology::Ring, Topology::BinomialTree] {
            let c = cluster(8, topo);
            let t = c.reduce(2, 1024);
            assert!(t > 0.0);
            let ev = c.comm_events();
            // Every non-root rank sent exactly once.
            for r in 1..8 {
                let src = (2 + r) % 8;
                assert_eq!(
                    ev.iter().filter(|e| e.from == src).count(),
                    1,
                    "{topo:?}: rank {src}"
                );
            }
            assert!(ev.iter().all(|e| e.from != 2), "root only receives");
        }
    }

    #[test]
    fn ledger_counters_match_the_event_log() {
        let c = cluster(4, Topology::BinomialTree);
        c.broadcast(0, 1 << 16);
        c.reduce(0, 1 << 10);
        c.transfer(3, 1, 777);
        let ev = c.comm_events();
        for d in 0..4 {
            let l = c.device(d).ledger();
            let sent: Vec<_> = ev.iter().filter(|e| e.from == d).collect();
            assert_eq!(l.net_messages, sent.len() as u64);
            assert_eq!(l.net_bytes, sent.iter().map(|e| e.bytes).sum::<u64>());
            assert_eq!(l.net_hops, sent.iter().map(|e| e.hops as u64).sum::<u64>());
        }
    }

    #[test]
    fn comm_time_never_leaks_into_device_ledgers() {
        let c = cluster(4, Topology::Ring);
        c.broadcast(0, 1 << 20);
        for d in 0..4 {
            assert_eq!(c.device(d).ledger().seconds, 0.0);
        }
        assert!(c.makespan() > 0.0);
    }

    #[test]
    fn chrome_trace_names_devices_and_channels() {
        let c = cluster(2, Topology::Ring);
        c.transfer(0, 1, 4096);
        let s = c.chrome_trace();
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("\"interconnect\""));
        assert!(s.contains("d0->d1"));
        assert!(s.contains("device0 (C2050)"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
