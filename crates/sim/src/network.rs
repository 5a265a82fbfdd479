//! The cycle-accurate network state and its per-cycle update.
//!
//! The router model follows the classic wormhole pipeline, evaluated once per
//! cycle for every node:
//!
//! 1. **Generation** — each node's Poisson source may append messages to the
//!    local source queue.
//! 2. **Injection** — queued messages claim free injection slots (up to `V`
//!    per node by default), from which their flits are supplied.
//! 3. **Routing & virtual-channel allocation** — every occupied input virtual
//!    channel whose header has not yet been routed asks the routing algorithm
//!    for its admissible `(port, vc)` candidates and tries to allocate a free
//!    output virtual channel.
//! 4. **Switch allocation & flit transfer** — every output physical channel
//!    forwards at most one flit per cycle, chosen round-robin among its
//!    virtual channels that have a flit ready and a downstream credit.
//! 5. **End of cycle** — staged flit arrivals, credit returns and message
//!    deliveries are applied, so a flit moves at most one hop per cycle.
//!
//! Flits arriving at their destination are consumed immediately (the paper's
//! ejection-channel assumption), and messages whose tail has been consumed are
//! reported to the driving [`Simulation`](crate::sim::Simulation).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use star_graph::{NodeId, Topology};
use star_queueing::sampling::{seeded_rng, PoissonProcess};
use star_routing::RoutingAlgorithm;

use crate::channel::{InputVc, OutputVc};
use crate::config::{SelectionPolicy, SimConfig};
use crate::message::{Message, MessageId};
use crate::traffic::TrafficPattern;

/// A staged flit arrival, applied at the end of the cycle.  `port` is the
/// *input* port at the arriving node (`reverse_port` of the sender's output
/// port).
#[derive(Debug, Clone, Copy)]
struct StagedArrival {
    node: NodeId,
    port: usize,
    vc: usize,
    message: MessageId,
}

/// Per-stage skip counters: how many *active* cycles found a given pipeline
/// stage with an empty work set.
///
/// Both engines account these identically from the same per-cycle facts —
/// "did this stage have any work when it started?" — so the counters are
/// part of the byte-identity contract even though only the event-driven
/// engine turns an empty stage into an actual skipped branch.  Cycles where
/// *every* stage is empty (a fully idle network) count nothing: the event
/// engine fast-forwards over them while the ticking engine burns them, and
/// the contract must not see the difference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSkips {
    /// Active cycles with no source arrival due (`generate_messages` empty).
    pub generation: u64,
    /// Active cycles with every source queue empty (`fill_injection_slots`
    /// empty).
    pub injection: u64,
    /// Active cycles with no unrouted header pending (`route_and_allocate`
    /// empty).
    pub routing: u64,
    /// Active cycles with no owned output VC anywhere (`switch_and_transfer`
    /// empty).
    pub switching: u64,
    /// Active cycles with no staged arrival or credit (`apply_staged` empty).
    pub staged: u64,
}

impl StageSkips {
    /// Total stage skips across all five stages.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.generation + self.injection + self.routing + self.switching + self.staged
    }
}

/// Aggregate counters maintained by the network while it runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkCounters {
    /// Messages generated so far.
    pub generated: u64,
    /// Flit transfers on network channels so far.
    pub flit_transfers: u64,
    /// Header allocation attempts that found no free admissible channel.
    pub blocked_header_cycles: u64,
    /// Header allocation attempts in total.
    pub header_allocation_attempts: u64,
    /// Sum of busy-VC counts over sampled physical channels.
    pub busy_vc_sum: u64,
    /// Sum of squared busy-VC counts over sampled physical channels.
    pub busy_vc_sq_sum: u64,
    /// Number of (channel, sample) observations taken.
    pub busy_vc_samples: u64,
    /// Cycle at which the last flit transfer happened (deadlock watchdog).
    pub last_transfer_cycle: u64,
    /// Cycles in which at least one pipeline stage had work.
    pub active_cycles: u64,
    /// Per-stage skip counts over the active cycles.
    pub stage_skips: StageSkips,
}

impl NetworkCounters {
    /// Folds one cycle's stage-activity facts into `active_cycles` and
    /// `stage_skips`.  Each flag says whether the stage had any work when it
    /// started; a cycle with no work anywhere is idle and counts nothing.
    /// Both engines call this with identically defined flags, which is what
    /// keeps the counters inside the byte-identity contract.
    pub fn record_stage_activity(
        &mut self,
        generation: bool,
        injection: bool,
        routing: bool,
        switching: bool,
        staged: bool,
    ) {
        if !(generation || injection || routing || switching || staged) {
            return;
        }
        self.active_cycles += 1;
        self.stage_skips.generation += u64::from(!generation);
        self.stage_skips.injection += u64::from(!injection);
        self.stage_skips.routing += u64::from(!routing);
        self.stage_skips.switching += u64::from(!switching);
        self.stage_skips.staged += u64::from(!staged);
    }
}

/// The full mutable state of the simulated network.
pub struct Network {
    topology: Arc<dyn Topology>,
    routing: Arc<dyn RoutingAlgorithm>,
    config: SimConfig,
    pattern: TrafficPattern,
    nodes: usize,
    degree: usize,
    vcs: usize,
    inj_slots: usize,
    input_stride: usize,
    input_vcs: Vec<InputVc>,
    output_vcs: Vec<OutputVc>,
    rr_pointers: Vec<usize>,
    source_queues: Vec<VecDeque<MessageId>>,
    messages: HashMap<MessageId, Message>,
    next_message_id: MessageId,
    sources: Vec<PoissonProcess>,
    dest_rng: StdRng,
    select_rng: StdRng,
    staged_arrivals: Vec<StagedArrival>,
    staged_credits: Vec<usize>,
    delivered: Vec<Message>,
    counters: NetworkCounters,
    /// Output VCs currently owned by a message, across the whole network —
    /// maintained on allocate/release so the stage-activity accounting can
    /// ask "did the switch stage have work?" without a scan.
    owned_outputs: u64,
}

impl Network {
    /// Builds the network state for a topology, routing algorithm and
    /// configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or the topology's
    /// [`reverse_port`](Topology::reverse_port) mapping does not invert its
    /// links (all topologies in this workspace honour the contract).
    #[must_use]
    pub fn new(
        topology: Arc<dyn Topology>,
        routing: Arc<dyn RoutingAlgorithm>,
        config: SimConfig,
        pattern: TrafficPattern,
    ) -> Self {
        config.validate();
        let nodes = topology.node_count();
        let degree = topology.degree();
        let vcs = routing.virtual_channels();
        let inj_slots = if config.injection_slots == 0 { vcs } else { config.injection_slots };
        // The simulator routes credits upstream through reverse_port, so the
        // mapping must invert every link.
        for node in 0..nodes as NodeId {
            for port in 0..degree {
                let nb = topology.neighbor(node, port);
                assert_eq!(
                    topology.neighbor(nb, topology.reverse_port(node, port)),
                    node,
                    "reverse_port must lead back across the link"
                );
            }
        }
        let input_stride = degree * vcs + inj_slots;
        let input_vcs = vec![InputVc::default(); nodes * input_stride];
        let output_vcs = vec![OutputVc::new(config.buffer_depth); nodes * degree * vcs];
        let sources = (0..nodes)
            .map(|node| PoissonProcess::new(config.traffic_rate, config.seed, node as u64))
            .collect();
        let dest_rng = seeded_rng(config.seed, 0xDE57_1A71);
        let select_rng = seeded_rng(config.seed, 0x5E1E_C700);
        Self {
            topology,
            routing,
            config,
            pattern,
            nodes,
            degree,
            vcs,
            inj_slots,
            input_stride,
            input_vcs,
            output_vcs,
            rr_pointers: vec![0; nodes * degree],
            source_queues: vec![VecDeque::new(); nodes],
            messages: HashMap::new(),
            next_message_id: 0,
            sources,
            dest_rng,
            select_rng,
            staged_arrivals: Vec::new(),
            staged_credits: Vec::new(),
            delivered: Vec::new(),
            counters: NetworkCounters::default(),
            owned_outputs: 0,
        }
    }

    #[inline]
    fn in_idx(&self, node: NodeId, port: usize, vc: usize) -> usize {
        debug_assert!(port < self.degree && vc < self.vcs);
        node as usize * self.input_stride + port * self.vcs + vc
    }

    #[inline]
    fn inj_idx(&self, node: NodeId, slot: usize) -> usize {
        debug_assert!(slot < self.inj_slots);
        node as usize * self.input_stride + self.degree * self.vcs + slot
    }

    #[inline]
    fn out_idx(&self, node: NodeId, port: usize, vc: usize) -> usize {
        debug_assert!(port < self.degree && vc < self.vcs);
        (node as usize * self.degree + port) * self.vcs + vc
    }

    /// Index of the input VC that the given `(node, in_port, in_vc)` triple
    /// denotes, where `in_port == degree` means an injection slot.
    #[inline]
    fn source_input_idx(&self, node: NodeId, in_port: usize, in_vc: usize) -> usize {
        if in_port == self.degree {
            self.inj_idx(node, in_vc)
        } else {
            self.in_idx(node, in_port, in_vc)
        }
    }

    /// The topology being simulated.
    #[must_use]
    pub fn topology(&self) -> &dyn Topology {
        self.topology.as_ref()
    }

    /// Aggregate counters.
    #[must_use]
    pub fn counters(&self) -> &NetworkCounters {
        &self.counters
    }

    /// Number of messages currently in flight or queued.
    #[must_use]
    pub fn outstanding_messages(&self) -> usize {
        self.messages.len()
    }

    /// Length of the longest source queue.
    #[must_use]
    pub fn max_source_queue(&self) -> usize {
        self.source_queues.iter().map(VecDeque::len).max().unwrap_or(0)
    }

    /// Total number of messages waiting in source queues.
    #[must_use]
    pub fn total_queued(&self) -> usize {
        self.source_queues.iter().map(VecDeque::len).sum()
    }

    /// Drains the messages delivered during the last call to [`Self::step`].
    pub fn take_delivered(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.delivered)
    }

    /// Advances the network by one cycle.
    ///
    /// The stage-activity flags feeding
    /// [`NetworkCounters::record_stage_activity`] are sampled at each stage's
    /// entry, exactly where the event-driven engine tests its active sets, so
    /// both engines account identical skip counters.
    pub fn step(&mut self, cycle: u64) {
        let generated = self.generate_messages(cycle);
        let had_queued = self.source_queues.iter().any(|q| !q.is_empty());
        self.fill_injection_slots();
        let had_pending = self.route_and_allocate(cycle);
        let had_owned = self.owned_outputs > 0;
        self.switch_and_transfer(cycle);
        let had_staged = !self.staged_arrivals.is_empty() || !self.staged_credits.is_empty();
        self.apply_staged(cycle);
        self.counters.record_stage_activity(
            generated,
            had_queued,
            had_pending,
            had_owned,
            had_staged,
        );
        if cycle % 8 == 0 {
            self.sample_vc_occupancy();
        }
    }

    /// Returns whether any message was generated this cycle (the generation
    /// stage had work).
    fn generate_messages(&mut self, cycle: u64) -> bool {
        let mut generated = false;
        for node in 0..self.nodes as NodeId {
            let count = self.sources[node as usize].arrivals_at(cycle);
            generated |= count > 0;
            for _ in 0..count {
                let dest =
                    self.pattern.pick_destination(self.topology.as_ref(), node, &mut self.dest_rng);
                let id = self.next_message_id;
                self.next_message_id += 1;
                let measured = cycle >= self.config.warmup_cycles;
                let msg = Message::new(id, node, dest, self.config.message_length, cycle, measured);
                self.messages.insert(id, msg);
                self.source_queues[node as usize].push_back(id);
                self.counters.generated += 1;
            }
        }
        generated
    }

    fn fill_injection_slots(&mut self) {
        for node in 0..self.nodes as NodeId {
            if self.source_queues[node as usize].is_empty() {
                continue;
            }
            for slot in 0..self.inj_slots {
                let idx = self.inj_idx(node, slot);
                if !self.input_vcs[idx].is_free() {
                    continue;
                }
                let Some(id) = self.source_queues[node as usize].pop_front() else { break };
                self.input_vcs[idx].claim_for_injection(id, self.config.message_length);
            }
        }
    }

    /// Returns whether any unrouted header was pending this cycle (the
    /// routing stage had work).
    fn route_and_allocate(&mut self, cycle: u64) -> bool {
        let mut had_pending = false;
        let layout = self.routing.layout();
        for node in 0..self.nodes as NodeId {
            // network input ports first, then injection slots
            let mut pending: Vec<(usize, usize, usize)> = Vec::new(); // (in_port, in_vc, idx)
            for port in 0..self.degree {
                for vc in 0..self.vcs {
                    let idx = self.in_idx(node, port, vc);
                    let ivc = &self.input_vcs[idx];
                    if ivc.owner.is_some() && ivc.route.is_none() && ivc.buffered > 0 {
                        pending.push((port, vc, idx));
                    }
                }
            }
            for slot in 0..self.inj_slots {
                let idx = self.inj_idx(node, slot);
                let ivc = &self.input_vcs[idx];
                if ivc.owner.is_some() && ivc.route.is_none() && ivc.buffered > 0 {
                    pending.push((self.degree, slot, idx));
                }
            }
            had_pending |= !pending.is_empty();
            for (in_port, in_vc, idx) in pending {
                let msg_id = self.input_vcs[idx].owner.expect("pending input VC has an owner");
                let (dest, state) = {
                    let msg = self
                        .messages
                        .get(&msg_id)
                        .expect("input VC owners always reference in-flight messages");
                    (msg.dest, msg.routing)
                };
                debug_assert_ne!(node, dest, "flits at the destination are consumed, not routed");
                self.counters.header_allocation_attempts += 1;
                let candidates =
                    self.routing.candidates(self.topology.as_ref(), node, dest, &state);
                let free: Vec<_> = candidates
                    .iter()
                    .copied()
                    .filter(|c| self.output_vcs[self.out_idx(node, c.port, c.vc)].is_free())
                    .collect();
                if free.is_empty() {
                    self.counters.blocked_header_cycles += 1;
                    continue;
                }
                let choice = match self.config.selection {
                    SelectionPolicy::FirstFree => free[0],
                    SelectionPolicy::Random => {
                        *free.choose(&mut self.select_rng).expect("non-empty")
                    }
                    SelectionPolicy::AdaptiveFirst => {
                        let adaptive: Vec<_> =
                            free.iter().copied().filter(|c| layout.is_adaptive(c.vc)).collect();
                        if adaptive.is_empty() {
                            let min_vc = free.iter().map(|c| c.vc).min().expect("non-empty");
                            let lowest: Vec<_> =
                                free.iter().copied().filter(|c| c.vc == min_vc).collect();
                            *lowest.choose(&mut self.select_rng).expect("non-empty")
                        } else {
                            *adaptive.choose(&mut self.select_rng).expect("non-empty")
                        }
                    }
                };
                let out = self.out_idx(node, choice.port, choice.vc);
                let length = self.messages[&msg_id].length;
                self.output_vcs[out].allocate(msg_id, (in_port, in_vc), length);
                self.owned_outputs += 1;
                self.input_vcs[idx].route = Some((choice.port, choice.vc));
                // Update the message's routing state to reflect the hop it is
                // now committed to.
                let next = self.topology.neighbor(node, choice.port);
                let escape_level = if layout.is_adaptive(choice.vc) {
                    None
                } else {
                    Some(choice.vc - layout.adaptive)
                };
                let msg = self.messages.get_mut(&msg_id).expect("message exists");
                msg.routing =
                    msg.routing.after_hop(self.topology.as_ref(), node, next, escape_level);
                if msg.injected_at.is_none() {
                    msg.injected_at = Some(cycle);
                }
            }
        }
        had_pending
    }

    fn switch_and_transfer(&mut self, cycle: u64) {
        for node in 0..self.nodes as NodeId {
            for port in 0..self.degree {
                let rr_idx = node as usize * self.degree + port;
                let start = self.rr_pointers[rr_idx];
                for offset in 0..self.vcs {
                    let vc = (start + offset) % self.vcs;
                    let out = self.out_idx(node, port, vc);
                    let (msg_id, source) = {
                        let ovc = &self.output_vcs[out];
                        // An output VC whose tail has already been sent keeps
                        // its allocation until the downstream buffer drains,
                        // but it must never pull further flits (its source
                        // input VC may already belong to a new message).
                        match (ovc.owner, ovc.source) {
                            (Some(m), Some(s))
                                if ovc.credits > 0 && ovc.flits_sent < ovc.length =>
                            {
                                (m, s)
                            }
                            _ => continue,
                        }
                    };
                    let src_idx = self.source_input_idx(node, source.0, source.1);
                    if self.input_vcs[src_idx].buffered == 0 {
                        continue;
                    }
                    // --- transfer one flit ---
                    self.input_vcs[src_idx].buffered -= 1;
                    if source.0 < self.degree {
                        // return a credit to the upstream output VC feeding this input
                        let upstream_node = self.topology.neighbor(node, source.0);
                        let upstream_port = self.topology.reverse_port(node, source.0);
                        let upstream = self.out_idx(upstream_node, upstream_port, source.1);
                        self.staged_credits.push(upstream);
                    }
                    let length = self.messages[&msg_id].length;
                    {
                        // The output VC is *not* released yet even when this
                        // was the tail flit: it returns to the idle pool only
                        // once the downstream buffer has drained (all credits
                        // back), which `apply_staged` checks.
                        let ovc = &mut self.output_vcs[out];
                        ovc.credits -= 1;
                        ovc.flits_sent += 1;
                    }
                    // release the input VC once its tail has moved on
                    {
                        let ivc = &mut self.input_vcs[src_idx];
                        if ivc.received == length && ivc.buffered == 0 {
                            ivc.release();
                        }
                    }
                    let downstream = self.topology.neighbor(node, port);
                    self.staged_arrivals.push(StagedArrival {
                        node: downstream,
                        // the *input* port at the downstream router
                        port: self.topology.reverse_port(node, port),
                        vc,
                        message: msg_id,
                    });
                    self.counters.flit_transfers += 1;
                    self.counters.last_transfer_cycle = cycle;
                    self.rr_pointers[rr_idx] = (vc + 1) % self.vcs;
                    break;
                }
            }
        }
    }

    fn apply_staged(&mut self, cycle: u64) {
        let arrivals = std::mem::take(&mut self.staged_arrivals);
        for arrival in arrivals {
            let dest = self.messages[&arrival.message].dest;
            if arrival.node == dest {
                // consumed by the local processor immediately; the buffer slot
                // is never occupied, so the credit flows straight back
                let upstream_node = self.topology.neighbor(arrival.node, arrival.port);
                let upstream_port = self.topology.reverse_port(arrival.node, arrival.port);
                let upstream = self.out_idx(upstream_node, upstream_port, arrival.vc);
                self.staged_credits.push(upstream);
                let finished = {
                    let msg = self.messages.get_mut(&arrival.message).expect("in flight");
                    msg.flits_consumed += 1;
                    msg.flits_consumed == msg.length
                };
                if finished {
                    let mut msg = self.messages.remove(&arrival.message).expect("in flight");
                    msg.delivered_at = Some(cycle + 1);
                    self.delivered.push(msg);
                }
            } else {
                let idx = self.in_idx(arrival.node, arrival.port, arrival.vc);
                let ivc = &mut self.input_vcs[idx];
                if ivc.owner.is_none() {
                    ivc.owner = Some(arrival.message);
                    ivc.buffered = 0;
                    ivc.received = 0;
                    ivc.route = None;
                }
                debug_assert_eq!(
                    ivc.owner,
                    Some(arrival.message),
                    "one message per virtual channel"
                );
                ivc.buffered += 1;
                ivc.received += 1;
            }
        }
        let credits = std::mem::take(&mut self.staged_credits);
        for out in credits {
            let ovc = &mut self.output_vcs[out];
            ovc.credits += 1;
            debug_assert!(ovc.credits <= self.config.buffer_depth);
            // A virtual channel returns to the idle pool once its tail has
            // been sent and the downstream buffer has fully drained.
            if ovc.tail_sent() && ovc.credits == self.config.buffer_depth {
                ovc.release();
                self.owned_outputs -= 1;
            }
        }
    }

    fn sample_vc_occupancy(&mut self) {
        for node in 0..self.nodes as NodeId {
            for port in 0..self.degree {
                let busy = (0..self.vcs)
                    .filter(|&vc| self.output_vcs[self.out_idx(node, port, vc)].owner.is_some())
                    .count() as u64;
                self.counters.busy_vc_sum += busy;
                self.counters.busy_vc_sq_sum += busy * busy;
                self.counters.busy_vc_samples += 1;
            }
        }
    }

    /// Observed average degree of virtual-channel multiplexing
    /// (`Σ v² / Σ v` over the sampled busy-VC counts), 1.0 when no channel was
    /// ever busy.
    #[must_use]
    pub fn observed_multiplexing(&self) -> f64 {
        if self.counters.busy_vc_sum == 0 {
            1.0
        } else {
            self.counters.busy_vc_sq_sum as f64 / self.counters.busy_vc_sum as f64
        }
    }

    /// Consistency check used by tests and debug assertions: the number of
    /// flits buffered plus credits available on every channel never exceeds
    /// the buffer depth, and every owned output VC has an owning message.
    ///
    /// # Panics
    /// Panics when an invariant is violated.
    pub fn check_invariants(&self) {
        for node in 0..self.nodes as NodeId {
            for port in 0..self.degree {
                for vc in 0..self.vcs {
                    let out = &self.output_vcs[self.out_idx(node, port, vc)];
                    assert!(out.credits <= self.config.buffer_depth, "credit overflow");
                    let downstream = self.topology.neighbor(node, port);
                    let down_port = self.topology.reverse_port(node, port);
                    let ivc = &self.input_vcs[self.in_idx(downstream, down_port, vc)];
                    assert!(
                        ivc.buffered + out.credits <= self.config.buffer_depth,
                        "buffered flits plus credits exceed the buffer depth"
                    );
                    if let Some(owner) = out.owner {
                        assert!(
                            self.messages.contains_key(&owner),
                            "output VC owned by a vanished message"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::StarGraph;
    use star_routing::EnhancedNbc;

    fn small_network(rate: f64, seed: u64) -> Network {
        let topology = Arc::new(StarGraph::new(4));
        let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 5));
        let config = SimConfig::builder()
            .message_length(8)
            .traffic_rate(rate)
            .buffer_depth(2)
            .warmup_cycles(0)
            .measured_messages(100)
            .max_cycles(100_000)
            .seed(seed)
            .build();
        Network::new(topology, routing, config, TrafficPattern::Uniform)
    }

    #[test]
    fn single_message_zero_load_latency_is_length_plus_distance() {
        // Drive the network by hand with exactly one message.
        let topology = Arc::new(StarGraph::new(4));
        let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 5));
        let config = SimConfig::builder()
            .message_length(8)
            .traffic_rate(0.0)
            .buffer_depth(2)
            .warmup_cycles(0)
            .measured_messages(1)
            .max_cycles(10_000)
            .seed(1)
            .build();
        let mut net = Network::new(topology.clone(), routing, config, TrafficPattern::Uniform);
        // inject one message from node 0 to a diameter-distant node
        let dest = (0..24u32).max_by_key(|&v| topology.distance(0, v)).unwrap();
        let hops = topology.distance(0, dest);
        let msg = Message::new(0, 0, dest, 8, 0, true);
        net.messages.insert(0, msg);
        net.source_queues[0].push_back(0);
        let mut delivered = Vec::new();
        for cycle in 0..500 {
            net.step(cycle);
            delivered.extend(net.take_delivered());
            if !delivered.is_empty() {
                break;
            }
        }
        assert_eq!(delivered.len(), 1);
        let latency = delivered[0].total_latency().unwrap();
        // ideal wormhole latency M + h (Eq. 4 of the paper at zero blocking);
        // injection happening in the generation cycle makes the simulator one
        // cycle faster, so accept [ideal - 1, ideal + 2].
        let ideal = (hops + 8) as u64;
        assert!(
            latency + 1 >= ideal && latency <= ideal + 2,
            "zero-load latency {latency} should be within 2 cycles of ideal {ideal}"
        );
        assert_eq!(delivered[0].routing.hops_taken, hops);
    }

    #[test]
    fn flit_conservation_and_invariants_under_load() {
        let mut net = small_network(0.01, 7);
        let mut delivered_flits = 0u64;
        for cycle in 0..20_000 {
            net.step(cycle);
            for m in net.take_delivered() {
                assert_eq!(m.flits_consumed, m.length);
                delivered_flits += m.length as u64;
            }
            if cycle % 500 == 0 {
                net.check_invariants();
            }
        }
        assert!(delivered_flits > 0, "the network must deliver traffic");
        // every transferred flit is eventually accounted for: transfers are at
        // least (hops) per delivered flit and finite
        assert!(net.counters().flit_transfers >= delivered_flits);
    }

    #[test]
    fn no_transfer_happens_without_traffic() {
        let mut net = small_network(0.0, 3);
        for cycle in 0..1_000 {
            net.step(cycle);
        }
        assert_eq!(net.counters().flit_transfers, 0);
        assert_eq!(net.counters().generated, 0);
        assert_eq!(net.observed_multiplexing(), 1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut net = small_network(0.02, seed);
            let mut latencies = Vec::new();
            for cycle in 0..15_000 {
                net.step(cycle);
                latencies.extend(net.take_delivered().iter().map(|m| m.total_latency().unwrap()));
            }
            latencies
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn messages_are_delivered_in_bounded_time_at_low_load() {
        let mut net = small_network(0.005, 5);
        let mut max_latency = 0;
        let mut count = 0;
        for cycle in 0..30_000 {
            net.step(cycle);
            for m in net.take_delivered() {
                max_latency = max_latency.max(m.total_latency().unwrap());
                count += 1;
            }
        }
        assert!(count > 100);
        // at this load S4 latencies stay far below 10x the zero-load value
        assert!(max_latency < 300, "latency {max_latency} too large for low load");
        // the network drains: outstanding messages stay bounded
        assert!(net.outstanding_messages() < 50);
    }
}
