//! SCOAP testability measures (Goldstein & Thigpen, DAC 1980).
//!
//! SCOAP assigns every signal three integer costs:
//!
//! * `CC0(v)` / `CC1(v)` — *controllability*: how many signal assignments it
//!   takes to force `v` to 0 / 1 from the (pseudo) primary inputs.
//! * `CO(v)` — *observability*: how many assignments it takes to propagate
//!   the value of `v` to a (pseudo) primary output.
//!
//! These three numbers, together with the logic level, are the node
//! attributes `[LL, C0, C1, O]` the paper feeds into the GCN (§3.1). The
//! iterative OP-insertion flow also relies on the *incremental* refresh
//! implemented by [`Scoap::observe`] (§4: "only the attributes of the nodes
//! in the fan-in cone of the new node should be updated based on SCOAP").

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::{CellKind, Netlist, NodeId, Result};

/// Saturation bound for SCOAP costs: effectively "uncontrollable" /
/// "unobservable". Kept far below `u32::MAX` so sums cannot overflow.
pub const SCOAP_INF: u32 = u32::MAX / 8;

/// Scan-chain access cost: controlling a flip-flop output or observing a
/// flip-flop input through the scan chain costs one shift operation.
const SCAN_COST: u32 = 1;

fn sat_add(a: u32, b: u32) -> u32 {
    a.saturating_add(b).min(SCOAP_INF)
}

/// SCOAP measures for every node of a netlist, indexed by
/// [`NodeId::index`].
///
/// # Examples
///
/// ```
/// use gcnt_netlist::{CellKind, NetlistBuilder, Scoap};
///
/// let mut net = NetlistBuilder::new("and2");
/// let a = net.add_cell(CellKind::Input);
/// let b = net.add_cell(CellKind::Input);
/// let g = net.add_cell(CellKind::And);
/// let o = net.add_cell(CellKind::Output);
/// net.connect(a, g)?;
/// net.connect(b, g)?;
/// net.connect(g, o)?;
/// let scoap = Scoap::compute(&net.build()?)?;
/// assert_eq!(scoap.cc1(g), 3); // both inputs must be 1: 1 + 1 + 1
/// assert_eq!(scoap.cc0(g), 2); // one controlling 0 suffices: 1 + 1
/// assert_eq!(scoap.co(g), 0);  // g drives a primary output directly
/// # Ok::<(), gcnt_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scoap {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

impl Scoap {
    /// Computes SCOAP measures for the whole netlist: controllability in
    /// topological order, then observability in reverse topological order.
    ///
    /// # Errors
    ///
    /// None: a [`Netlist`] has valid arities (the controllability rules
    /// below read a one-input cell's driver unconditionally) and a stored
    /// topological order. The `Result` is kept for callers written against
    /// the fallible signature.
    pub fn compute(net: &Netlist) -> Result<Self> {
        gcnt_obs::global().incr(gcnt_obs::counters::NETLIST_SCOAP_COMPUTES);
        let order = net.topo_order();
        let n = net.node_count();
        let mut scoap = Scoap {
            cc0: vec![SCOAP_INF; n],
            cc1: vec![SCOAP_INF; n],
            co: vec![SCOAP_INF; n],
        };
        for &id in order {
            let (c0, c1) = scoap.controllability_of(net, id);
            scoap.cc0[id.index()] = c0;
            scoap.cc1[id.index()] = c1;
        }
        // Observability, pushed from each sink to its fanins: the constant
        // branches of the pseudo outputs first (a DFF leads the order), then
        // every gate in reverse topological order, its own CO final by then.
        for id in net.nodes() {
            let kind = net.kind(id);
            if kind == CellKind::Output {
                scoap.co[id.index()] = 0;
            }
            if kind.is_pseudo_output() {
                scoap.lower_fanins(net, id, 0);
            }
        }
        for &id in order.iter().rev() {
            if !net.kind(id).is_pseudo_output() {
                scoap.lower_fanins(net, id, scoap.co[id.index()]);
            }
        }
        Ok(scoap)
    }

    /// Controllability-to-0 of node `v`.
    pub fn cc0(&self, v: NodeId) -> u32 {
        self.cc0[v.index()]
    }

    /// Controllability-to-1 of node `v`.
    pub fn cc1(&self, v: NodeId) -> u32 {
        self.cc1[v.index()]
    }

    /// Observability of node `v`.
    pub fn co(&self, v: NodeId) -> u32 {
        self.co[v.index()]
    }

    /// All CC0 values, indexed by node index.
    pub fn cc0_all(&self) -> &[u32] {
        &self.cc0
    }

    /// All CC1 values, indexed by node index.
    pub fn cc1_all(&self) -> &[u32] {
        &self.cc1
    }

    /// All CO values, indexed by node index.
    pub fn co_all(&self) -> &[u32] {
        &self.co
    }

    /// Incrementally updates observability after an observation point has
    /// been inserted at `target` (whose new `Output` cell is `op`).
    ///
    /// Appends entries for any nodes added to the netlist since this
    /// `Scoap` was computed (the OP cell itself), sets `CO(target) = 0`,
    /// and propagates the improvement through the fan-in cone with a
    /// worklist — observability can only decrease, so the propagation
    /// terminates. Returns the ids whose `CO` changed.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an `Output` cell driven by `target`.
    pub fn observe(&mut self, net: &Netlist, target: NodeId, op: NodeId) -> Vec<NodeId> {
        assert_eq!(net.kind(op), CellKind::Output, "op must be an Output cell");
        assert_eq!(net.fanin(op), &[target], "op must be driven by target");
        // Extend the vectors for nodes created after the initial compute.
        while self.cc0.len() < net.node_count() {
            let id = NodeId::from_index(self.cc0.len());
            let (c0, c1) = self.controllability_of(net, id);
            self.cc0.push(c0);
            self.cc1.push(c1);
            self.co.push(SCOAP_INF);
        }
        self.co[op.index()] = 0;
        let mut changed = Vec::new();
        let mut queue = VecDeque::new();
        if self.co[target.index()] > 0 {
            self.co[target.index()] = 0;
            changed.push(target);
            queue.push_back(target);
        }
        while let Some(v) = queue.pop_front() {
            if net.kind(v).is_pseudo_input() {
                continue; // improvement does not cross scan cells / PIs
            }
            for &u in net.fanin(v) {
                let new_co = self.observability_of(net, u);
                if new_co < self.co[u.index()] {
                    self.co[u.index()] = new_co;
                    changed.push(u);
                    queue.push_back(u);
                }
            }
        }
        changed
    }

    /// Computes what [`Scoap::observe`] *would* change — `(node, new_co)`
    /// pairs for the fan-in cone of `target` — without mutating `self` and
    /// without requiring the observation point to exist in the netlist.
    ///
    /// This powers the paper's impact evaluation (Fig. 6): the iterative
    /// flow previews the observability improvement of a hypothetical OP at
    /// every candidate before committing to the highest-impact ones.
    ///
    /// The pairs are sorted by node index, so the result doubles as a
    /// deterministic dirty-row set for incremental inference.
    pub fn preview_observe(&self, net: &Netlist, target: NodeId) -> Vec<(NodeId, u32)> {
        use std::collections::HashMap;
        let mut overlay: HashMap<usize, u32> = HashMap::new();
        if self.co[target.index()] == 0 {
            return Vec::new();
        }
        overlay.insert(target.index(), 0);
        let mut queue = VecDeque::new();
        queue.push_back(target);
        while let Some(v) = queue.pop_front() {
            if net.kind(v).is_pseudo_input() {
                continue;
            }
            for &u in net.fanin(v) {
                let new_co = self.observability_with(net, u, |w| {
                    overlay
                        .get(&w.index())
                        .copied()
                        .unwrap_or(self.co[w.index()])
                });
                let cur = overlay
                    .get(&u.index())
                    .copied()
                    .unwrap_or(self.co[u.index()]);
                if new_co < cur {
                    overlay.insert(u.index(), new_co);
                    queue.push_back(u);
                }
            }
        }
        let mut out: Vec<(NodeId, u32)> = overlay
            .into_iter()
            .map(|(i, c)| (NodeId::from_index(i), c))
            .collect();
        out.sort_unstable_by_key(|&(v, _)| v.index());
        out
    }

    /// Controllability of a single node from its fanins' values.
    fn controllability_of(&self, net: &Netlist, id: NodeId) -> (u32, u32) {
        let fanin = net.fanin(id);
        let c0 = |f: &NodeId| self.cc0[f.index()];
        let c1 = |f: &NodeId| self.cc1[f.index()];
        match net.kind(id) {
            CellKind::Input | CellKind::Dff => (SCAN_COST, SCAN_COST),
            CellKind::Output => {
                // Sink marker: inherits its driver's controllability.
                let f = fanin[0];
                (self.cc0[f.index()], self.cc1[f.index()])
            }
            CellKind::Buf => (sat_add(c0(&fanin[0]), 1), sat_add(c1(&fanin[0]), 1)),
            CellKind::Not => (sat_add(c1(&fanin[0]), 1), sat_add(c0(&fanin[0]), 1)),
            CellKind::And => (
                sat_add(fanin.iter().map(c0).min().unwrap_or(SCOAP_INF), 1),
                sat_add(fanin.iter().map(c1).fold(0, sat_add), 1),
            ),
            CellKind::Nand => (
                sat_add(fanin.iter().map(c1).fold(0, sat_add), 1),
                sat_add(fanin.iter().map(c0).min().unwrap_or(SCOAP_INF), 1),
            ),
            CellKind::Or => (
                sat_add(fanin.iter().map(c0).fold(0, sat_add), 1),
                sat_add(fanin.iter().map(c1).min().unwrap_or(SCOAP_INF), 1),
            ),
            CellKind::Nor => (
                sat_add(fanin.iter().map(c1).min().unwrap_or(SCOAP_INF), 1),
                sat_add(fanin.iter().map(c0).fold(0, sat_add), 1),
            ),
            CellKind::Xor => {
                let (even, odd) = self.parity_costs(fanin);
                (sat_add(even, 1), sat_add(odd, 1))
            }
            CellKind::Xnor => {
                let (even, odd) = self.parity_costs(fanin);
                (sat_add(odd, 1), sat_add(even, 1))
            }
        }
    }

    /// Cheapest cost of driving the fanins to even / odd parity of ones
    /// (dynamic program over the inputs; exact for any arity).
    fn parity_costs(&self, fanin: &[NodeId]) -> (u32, u32) {
        let mut even = 0u32;
        let mut odd = SCOAP_INF;
        for f in fanin {
            let c0 = self.cc0[f.index()];
            let c1 = self.cc1[f.index()];
            let new_even = sat_add(even, c0).min(sat_add(odd, c1));
            let new_odd = sat_add(even, c1).min(sat_add(odd, c0));
            even = new_even;
            odd = new_odd;
        }
        (even, odd)
    }

    /// Observability of node `v` as the minimum over its fanout branches.
    fn observability_of(&self, net: &Netlist, v: NodeId) -> u32 {
        self.observability_with(net, v, |w| self.co[w.index()])
    }

    /// Observability of `v` with fanout observabilities supplied by a
    /// lookup (lets [`Scoap::preview_observe`] overlay hypothetical values):
    /// the cheapest [`branch`] over its fanouts, pulled.
    fn observability_with(&self, net: &Netlist, v: NodeId, co: impl Fn(NodeId) -> u32) -> u32 {
        if net.kind(v) == CellKind::Output {
            return 0;
        }
        let mut best = SCOAP_INF;
        for &u in net.fanout(v) {
            let kind = net.kind(u);
            let side = net
                .fanin(u)
                .iter()
                .filter(|&&w| w != v)
                .map(|&w| self.side_cost(kind, w))
                .sum();
            best = best.min(branch(kind, co(u), side));
        }
        best
    }

    /// Lowers each fanin's CO to its [`branch`] through `id`, whose CO is
    /// `co_id`: one side sum per cell, each fanin's own cost taken back
    /// out of it.
    fn lower_fanins(&mut self, net: &Netlist, id: NodeId, co_id: u32) {
        let (kind, fanin) = (net.kind(id), net.fanin(id));
        let total: u64 = fanin.iter().map(|&w| self.side_cost(kind, w)).sum();
        for &f in fanin {
            let co = branch(kind, co_id, total - self.side_cost(kind, f));
            self.co[f.index()] = self.co[f.index()].min(co);
        }
    }

    /// What side input `w` of a `kind` cell costs to sensitise the cell to
    /// another input: its non-controlling value (1 for AND/NAND, 0 for
    /// OR/NOR), either value for XOR/XNOR, nothing for one-input cells.
    fn side_cost(&self, kind: CellKind, w: NodeId) -> u64 {
        let w = w.index();
        u64::from(match kind {
            CellKind::And | CellKind::Nand => self.cc1[w],
            CellKind::Or | CellKind::Nor => self.cc0[w],
            CellKind::Xor | CellKind::Xnor => self.cc0[w].min(self.cc1[w]),
            _ => 0,
        })
    }
}

/// The observability a fanin gets through one sink of `kind`, whose own
/// observability is `co_sink` and whose other inputs cost `side` in sum
/// ([`Scoap::side_cost`]), capped at [`SCOAP_INF`] — the SCOAP branch rule
/// that the full compute pushes and [`Scoap::observe`] pulls.
fn branch(kind: CellKind, co_sink: u32, side: u64) -> u32 {
    match kind {
        CellKind::Output => 0,
        CellKind::Dff => SCAN_COST,
        CellKind::Input => SCOAP_INF, // cannot drive an input; unreachable
        _ => {
            let side = u32::try_from(side.min(u64::from(SCOAP_INF))).unwrap_or(SCOAP_INF);
            sat_add(sat_add(co_sink, side), 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn chain(kinds: &[CellKind]) -> (Netlist, Vec<NodeId>) {
        let mut net = NetlistBuilder::new("chain");
        let mut ids = vec![net.add_cell(CellKind::Input)];
        for &k in kinds {
            let id = net.add_cell(k);
            let prev = *ids.last().unwrap();
            net.connect(prev, id).unwrap();
            ids.push(id);
        }
        let net = net.build().unwrap();
        (net, ids)
    }

    #[test]
    fn input_base_costs() {
        let (net, ids) = chain(&[CellKind::Output]);
        let s = Scoap::compute(&net).unwrap();
        assert_eq!(s.cc0(ids[0]), 1);
        assert_eq!(s.cc1(ids[0]), 1);
        assert_eq!(s.co(ids[0]), 0);
    }

    #[test]
    fn inverter_swaps_controllability() {
        let (net, ids) = chain(&[CellKind::Not, CellKind::Output]);
        let s = Scoap::compute(&net).unwrap();
        assert_eq!(s.cc0(ids[1]), 2); // needs input at 1
        assert_eq!(s.cc1(ids[1]), 2);
        assert_eq!(s.co(ids[0]), 1); // through the inverter
    }

    #[test]
    fn and_gate_scoap() {
        let mut net = NetlistBuilder::new("and3");
        let ins: Vec<_> = (0..3).map(|_| net.add_cell(CellKind::Input)).collect();
        let g = net.add_cell(CellKind::And);
        let o = net.add_cell(CellKind::Output);
        for &i in &ins {
            net.connect(i, g).unwrap();
        }
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        let s = Scoap::compute(&net).unwrap();
        assert_eq!(s.cc1(g), 4); // 1+1+1 inputs + 1
        assert_eq!(s.cc0(g), 2); // min(1,1,1) + 1
                                 // Observing an input requires the two side inputs at 1.
        assert_eq!(s.co(ins[0]), 3); // co(g)=0 + two side inputs at 1 + 1
    }

    #[test]
    fn or_gate_scoap() {
        let mut net = NetlistBuilder::new("or2");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Or);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(b, g).unwrap();
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        let s = Scoap::compute(&net).unwrap();
        assert_eq!(s.cc0(g), 3);
        assert_eq!(s.cc1(g), 2);
        assert_eq!(s.co(a), 2); // side input at 0: cost 1, plus 1
    }

    #[test]
    fn xor_parity_dp_matches_two_input_formula() {
        let mut net = NetlistBuilder::new("xor2");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Xor);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(b, g).unwrap();
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        let s = Scoap::compute(&net).unwrap();
        // CC1 = min(cc0a+cc1b, cc1a+cc0b) + 1 = 2 + 1
        assert_eq!(s.cc1(g), 3);
        assert_eq!(s.cc0(g), 3);
        // Observing a through XOR: side input at min(cc0,cc1) = 1, +1.
        assert_eq!(s.co(a), 2);
    }

    #[test]
    fn nand_nor_duality() {
        let mut net = NetlistBuilder::new("nandnor");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Input);
        let nand = net.add_cell(CellKind::Nand);
        let nor = net.add_cell(CellKind::Nor);
        let o1 = net.add_cell(CellKind::Output);
        let o2 = net.add_cell(CellKind::Output);
        net.connect(a, nand).unwrap();
        net.connect(b, nand).unwrap();
        net.connect(a, nor).unwrap();
        net.connect(b, nor).unwrap();
        net.connect(nand, o1).unwrap();
        net.connect(nor, o2).unwrap();
        let net = net.build().unwrap();
        let s = Scoap::compute(&net).unwrap();
        assert_eq!(s.cc0(nand), 3); // all inputs 1
        assert_eq!(s.cc1(nand), 2); // one input 0
        assert_eq!(s.cc1(nor), 3); // all inputs 0
        assert_eq!(s.cc0(nor), 2); // one input 1
    }

    #[test]
    fn dff_is_scan_accessible() {
        let mut net = NetlistBuilder::new("scan");
        let a = net.add_cell(CellKind::Input);
        let d = net.add_cell(CellKind::Dff);
        let g = net.add_cell(CellKind::Not);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, d).unwrap();
        net.connect(d, g).unwrap();
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        let s = Scoap::compute(&net).unwrap();
        assert_eq!(s.cc0(d), 1);
        assert_eq!(s.cc1(d), 1);
        // `a` is observable through the scan chain at cost 1.
        assert_eq!(s.co(a), 1);
    }

    #[test]
    fn unobservable_dangling_node() {
        let mut net = NetlistBuilder::new("dangling");
        let a = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Not);
        net.connect(a, g).unwrap();
        let net = net.build().unwrap();
        let s = Scoap::compute(&net).unwrap();
        assert_eq!(s.co(g), SCOAP_INF);
    }

    #[test]
    fn deep_and_tree_has_poor_observability() {
        // A chain of AND gates each with a fresh side input: observability
        // of the first signal grows with depth.
        let mut net = NetlistBuilder::new("deep");
        let mut cur = net.add_cell(CellKind::Input);
        let first = cur;
        for _ in 0..8 {
            let side = net.add_cell(CellKind::Input);
            let g = net.add_cell(CellKind::And);
            net.connect(cur, g).unwrap();
            net.connect(side, g).unwrap();
            cur = g;
        }
        let o = net.add_cell(CellKind::Output);
        net.connect(cur, o).unwrap();
        let net = net.build().unwrap();
        let s = Scoap::compute(&net).unwrap();
        assert!(s.co(first) >= 16, "co = {}", s.co(first));
    }

    #[test]
    fn observe_zeroes_target_and_improves_cone() {
        let mut net = NetlistBuilder::new("obs");
        let mut cur = net.add_cell(CellKind::Input);
        let first = cur;
        let mut mids = Vec::new();
        for _ in 0..5 {
            let side = net.add_cell(CellKind::Input);
            let g = net.add_cell(CellKind::And);
            net.connect(cur, g).unwrap();
            net.connect(side, g).unwrap();
            mids.push(g);
            cur = g;
        }
        let o = net.add_cell(CellKind::Output);
        net.connect(cur, o).unwrap();
        let mut net = net.build().unwrap();
        let mut s = Scoap::compute(&net).unwrap();
        let co_first_before = s.co(first);
        let target = mids[2];
        let op = net.insert_observation_point(target).unwrap();
        let changed = s.observe(&net, target, op);
        assert_eq!(s.co(target), 0);
        assert!(s.co(first) < co_first_before);
        assert!(changed.contains(&target));
        // Incremental result matches a full recompute.
        let full = Scoap::compute(&net).unwrap();
        assert_eq!(s, full);
    }

    #[test]
    fn observe_matches_full_recompute_with_reconvergence() {
        // Diamond with reconvergent fanout to stress the worklist.
        let mut net = NetlistBuilder::new("reconv");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Not);
        let c = net.add_cell(CellKind::Not);
        let d = net.add_cell(CellKind::And);
        let e = net.add_cell(CellKind::And);
        let side = net.add_cell(CellKind::Input);
        net.connect(a, b).unwrap();
        net.connect(a, c).unwrap();
        net.connect(b, d).unwrap();
        net.connect(c, d).unwrap();
        net.connect(d, e).unwrap();
        net.connect(side, e).unwrap();
        let mut net = net.build().unwrap();
        // No primary output at all: everything unobservable.
        let mut s = Scoap::compute(&net).unwrap();
        assert_eq!(s.co(a), SCOAP_INF);
        let op = net.insert_observation_point(e).unwrap();
        s.observe(&net, e, op);
        let full = Scoap::compute(&net).unwrap();
        assert_eq!(s, full);
        assert!(s.co(a) < SCOAP_INF);
    }

    #[test]
    fn preview_observe_matches_actual_observe() {
        let mut net = NetlistBuilder::new("preview");
        let mut cur = net.add_cell(CellKind::Input);
        let mut mids = Vec::new();
        for i in 0..6 {
            let side = net.add_cell(CellKind::Input);
            let g = net.add_cell(if i % 2 == 0 {
                CellKind::And
            } else {
                CellKind::Or
            });
            net.connect(cur, g).unwrap();
            net.connect(side, g).unwrap();
            mids.push(g);
            cur = g;
        }
        let o = net.add_cell(CellKind::Output);
        net.connect(cur, o).unwrap();
        let mut net = net.build().unwrap();
        let s = Scoap::compute(&net).unwrap();
        let target = mids[3];
        let mut preview = s.preview_observe(&net, target);
        preview.sort_unstable_by_key(|&(n, _)| n);

        let mut s2 = s.clone();
        let op = net.insert_observation_point(target).unwrap();
        let mut changed = s2.observe(&net, target, op);
        changed.sort_unstable();
        let mut actual: Vec<(NodeId, u32)> = changed.iter().map(|&n| (n, s2.co(n))).collect();
        actual.sort_unstable_by_key(|&(n, _)| n);
        assert_eq!(preview, actual);
    }

    #[test]
    fn preview_observe_on_already_observable_is_empty() {
        let (net, ids) = chain(&[CellKind::Output]);
        let s = Scoap::compute(&net).unwrap();
        assert!(s.preview_observe(&net, ids[0]).is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let (net, _) = chain(&[CellKind::Not, CellKind::Output]);
        let s = Scoap::compute(&net).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: Scoap = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
