use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{CellKind, NetlistError, Result};

/// Identifier of a node (cell) inside a [`Netlist`].
///
/// Ids are dense indices assigned in insertion order, which gives every
/// netlist a canonical node numbering shared with the feature/adjacency
/// matrices built on top of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Aggregate statistics of a netlist (Table 1 of the paper reports these
/// for the benchmark designs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetlistStats {
    /// Total number of cells.
    pub nodes: usize,
    /// Total number of wires (edges).
    pub edges: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs (including inserted observation points).
    pub outputs: usize,
    /// Number of scan flip-flops.
    pub dffs: usize,
    /// Maximum logic level (combinational depth).
    pub max_level: u32,
}

/// A gate-level netlist represented as a directed graph.
///
/// Nodes are cells, edges are wires from a driver to a sink. Under the
/// full-scan assumption, DFFs act as pseudo primary inputs (their Q output
/// is controllable from the scan chain) and pseudo primary outputs (their D
/// input is observable through the scan chain); the combinational logic
/// between scan elements must be acyclic, which [`Netlist::validate`]
/// checks.
///
/// # Examples
///
/// ```
/// use gcnt_netlist::{CellKind, Netlist};
///
/// let mut net = Netlist::new("demo");
/// let a = net.add_cell(CellKind::Input);
/// let g = net.add_cell(CellKind::Not);
/// let o = net.add_cell(CellKind::Output);
/// net.connect(a, g)?;
/// net.connect(g, o)?;
/// net.validate()?;
/// # Ok::<(), gcnt_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    kinds: Vec<CellKind>,
    fanin: Vec<Vec<NodeId>>,
    fanout: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            kinds: Vec::new(),
            fanin: Vec::new(),
            fanout: Vec::new(),
            edge_count: 0,
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an unconnected cell and returns its id.
    pub fn add_cell(&mut self, kind: CellKind) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.fanin.push(Vec::new());
        self.fanout.push(Vec::new());
        id
    }

    /// Connects `from`'s output to one input of `to`.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UnknownNode`] if either id is stale.
    /// * [`NetlistError::DuplicateEdge`] if the edge already exists.
    /// * [`NetlistError::OutputHasFanout`] if `from` is an `Output` cell.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        self.check_node(from)?;
        self.check_node(to)?;
        if self.kinds[from.index()] == CellKind::Output {
            return Err(NetlistError::OutputHasFanout(from));
        }
        if self.fanin[to.index()].contains(&from) {
            return Err(NetlistError::DuplicateEdge { from, to });
        }
        self.fanin[to.index()].push(from);
        self.fanout[from.index()].push(to);
        self.edge_count += 1;
        Ok(())
    }

    /// Number of cells.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of wires.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The kind of cell `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn kind(&self, id: NodeId) -> CellKind {
        self.kinds[id.index()]
    }

    /// The fanin (driver) list of `id`, in connection order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn fanin(&self, id: NodeId) -> &[NodeId] {
        &self.fanin[id.index()]
    }

    /// The fanout (sink) list of `id`, in connection order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn fanout(&self, id: NodeId) -> &[NodeId] {
        &self.fanout[id.index()]
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len()).map(NodeId::from_index)
    }

    /// Ids of all cells of the given kind.
    pub fn cells_of_kind(&self, kind: CellKind) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.kind(n) == kind).collect()
    }

    /// Primary inputs.
    pub fn primary_inputs(&self) -> Vec<NodeId> {
        self.cells_of_kind(CellKind::Input)
    }

    /// Primary outputs (including observation points inserted later).
    pub fn primary_outputs(&self) -> Vec<NodeId> {
        self.cells_of_kind(CellKind::Output)
    }

    /// Scan flip-flops.
    pub fn flip_flops(&self) -> Vec<NodeId> {
        self.cells_of_kind(CellKind::Dff)
    }

    /// Validates arities and combinational acyclicity.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::BadArity`] if a cell's fanin count is outside the
    ///   bounds of [`CellKind::arity`].
    /// * [`NetlistError::CombinationalCycle`] if the combinational logic
    ///   (with DFFs cut) contains a cycle.
    pub fn validate(&self) -> Result<()> {
        self.check_arity()?;
        self.topo_order().map(|_| ())
    }

    /// Checks every cell's fanin count against [`CellKind::arity`] — the
    /// precondition of anything that reads "the" driver of a one-input
    /// cell, such as [`crate::Scoap::compute`]. The parser does not
    /// establish it: `y = NOT()` is a well-formed line.
    ///
    /// # Errors
    ///
    /// [`NetlistError::BadArity`] for the first offending cell.
    pub(crate) fn check_arity(&self) -> Result<()> {
        for id in self.nodes() {
            let kind = self.kind(id);
            let (lo, hi) = kind.arity();
            let n = self.fanin(id).len();
            if n < lo || n > hi {
                return Err(NetlistError::BadArity {
                    node: id,
                    kind,
                    fanins: n,
                });
            }
        }
        Ok(())
    }

    /// Returns the cells in a combinational evaluation order: every non-DFF
    /// cell appears after all of its fanins, with DFFs and primary inputs
    /// first (their values are state, not computed).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if no such order exists.
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let n = self.node_count();
        let mut indegree = vec![0u32; n];
        for id in self.nodes() {
            if self.kind(id).is_pseudo_input() {
                continue; // sources: value known before evaluation
            }
            indegree[id.index()] = self.fanin(id).len() as u32;
        }
        let mut queue: VecDeque<NodeId> = self
            .nodes()
            .filter(|&id| indegree[id.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &sink in self.fanout(id) {
                if self.kind(sink).is_pseudo_input() {
                    continue; // edge into a DFF does not gate evaluation
                }
                let d = &mut indegree[sink.index()];
                *d -= 1;
                if *d == 0 {
                    queue.push_back(sink);
                }
            }
        }
        if order.len() != n {
            let culprit = self
                .nodes()
                .find(|&id| indegree[id.index()] > 0)
                .expect("some node must remain in a cycle");
            return Err(NetlistError::CombinationalCycle { node: culprit });
        }
        Ok(order)
    }

    /// Collects the transitive fanin cone of `root` (excluding `root`
    /// itself), stopping the traversal at pseudo inputs but including them.
    ///
    /// `limit` caps the number of collected nodes; `usize::MAX` disables
    /// the cap. Used by impact evaluation (paper Fig. 6) and by the cone
    /// feature extraction for classical baselines (paper §5).
    pub fn fanin_cone(&self, root: NodeId, limit: usize) -> Vec<NodeId> {
        self.cone(root, limit, true)
    }

    /// Collects the transitive fanout cone of `root` (excluding `root`),
    /// stopping at pseudo outputs but including them.
    pub fn fanout_cone(&self, root: NodeId, limit: usize) -> Vec<NodeId> {
        self.cone(root, limit, false)
    }

    fn cone(&self, root: NodeId, limit: usize, backwards: bool) -> Vec<NodeId> {
        let mut seen = vec![false; self.node_count()];
        seen[root.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(root);
        let mut out = Vec::new();
        while let Some(id) = queue.pop_front() {
            let stop = if backwards {
                id != root && self.kind(id).is_pseudo_input()
            } else {
                id != root && self.kind(id).is_pseudo_output()
            };
            if stop {
                continue;
            }
            let next = if backwards {
                self.fanin(id)
            } else {
                self.fanout(id)
            };
            for &nb in next {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    out.push(nb);
                    if out.len() >= limit {
                        return out;
                    }
                    queue.push_back(nb);
                }
            }
        }
        out
    }

    /// Inserts an observation point at `target`: a new `Output` cell `p`
    /// plus the wire `target -> p`. Returns the id of `p`.
    ///
    /// This is the graph-modification primitive of the paper's iterative
    /// flow (§4): the adjacency matrix of the modified graph differs from
    /// the original by exactly the three COO tuples `(w_pr, p, target)`,
    /// `(w_su, target, p)` and `(1, p, p)`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNode`] if `target` is stale, or
    /// [`NetlistError::OutputHasFanout`] if `target` is itself an `Output`
    /// cell.
    pub fn insert_observation_point(&mut self, target: NodeId) -> Result<NodeId> {
        self.check_node(target)?;
        if self.kind(target) == CellKind::Output {
            return Err(NetlistError::OutputHasFanout(target));
        }
        let op = self.add_cell(CellKind::Output);
        self.connect(target, op)?;
        Ok(op)
    }

    /// Computes aggregate statistics. `max_level` requires a valid
    /// topological order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the netlist is
    /// cyclic.
    pub fn stats(&self) -> Result<NetlistStats> {
        let levels = crate::logic_levels(self)?;
        Ok(NetlistStats {
            nodes: self.node_count(),
            edges: self.edge_count(),
            inputs: self.primary_inputs().len(),
            outputs: self.primary_outputs().len(),
            dffs: self.flip_flops().len(),
            max_level: levels.iter().copied().max().unwrap_or(0),
        })
    }

    fn check_node(&self, id: NodeId) -> Result<()> {
        if id.index() >= self.kinds.len() {
            return Err(NetlistError::UnknownNode(id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// in0 ─┬─ and ── out
    /// in1 ─┘
    fn and_net() -> (Netlist, NodeId, NodeId, NodeId, NodeId) {
        let mut net = Netlist::new("and2");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::And);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(b, g).unwrap();
        net.connect(g, o).unwrap();
        (net, a, b, g, o)
    }

    #[test]
    fn build_and_query() {
        let (net, a, b, g, o) = and_net();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.edge_count(), 3);
        assert_eq!(net.fanin(g), &[a, b]);
        assert_eq!(net.fanout(g), &[o]);
        assert_eq!(net.kind(o), CellKind::Output);
        net.validate().unwrap();
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (mut net, a, _, g, _) = and_net();
        assert!(matches!(
            net.connect(a, g),
            Err(NetlistError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn output_cannot_drive() {
        let (mut net, _, _, _, o) = and_net();
        let g2 = net.add_cell(CellKind::Buf);
        assert!(matches!(
            net.connect(o, g2),
            Err(NetlistError::OutputHasFanout(_))
        ));
    }

    #[test]
    fn arity_violation_detected() {
        let mut net = Netlist::new("bad");
        let a = net.add_cell(CellKind::Input);
        let inv = net.add_cell(CellKind::Not);
        let b = net.add_cell(CellKind::Input);
        net.connect(a, inv).unwrap();
        net.connect(b, inv).unwrap();
        assert!(matches!(
            net.validate(),
            Err(NetlistError::BadArity { fanins: 2, .. })
        ));
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut net = Netlist::new("cyc");
        let g1 = net.add_cell(CellKind::Buf);
        let g2 = net.add_cell(CellKind::Buf);
        net.connect(g1, g2).unwrap();
        net.connect(g2, g1).unwrap();
        assert!(matches!(
            net.topo_order(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn dff_breaks_cycles() {
        // g -> dff -> g is a legal sequential loop.
        let mut net = Netlist::new("seq");
        let d = net.add_cell(CellKind::Dff);
        let a = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::And);
        net.connect(d, g).unwrap();
        net.connect(a, g).unwrap();
        net.connect(g, d).unwrap();
        let order = net.topo_order().unwrap();
        assert_eq!(order.len(), 3);
        // The DFF must appear before the gate it feeds.
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(d) < pos(g));
        net.validate().unwrap();
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let (net, a, b, g, o) = and_net();
        let order = net.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(g));
        assert!(pos(b) < pos(g));
        assert!(pos(g) < pos(o));
    }

    #[test]
    fn fanin_cone_collects_transitively() {
        let (net, a, b, g, o) = and_net();
        let cone = net.fanin_cone(o, usize::MAX);
        assert_eq!(cone.len(), 3);
        assert!(cone.contains(&a) && cone.contains(&b) && cone.contains(&g));
    }

    #[test]
    fn fanin_cone_stops_at_dff() {
        let mut net = Netlist::new("seq");
        let pi = net.add_cell(CellKind::Input);
        let d = net.add_cell(CellKind::Dff);
        let inv = net.add_cell(CellKind::Not);
        let o = net.add_cell(CellKind::Output);
        net.connect(pi, d).unwrap();
        net.connect(d, inv).unwrap();
        net.connect(inv, o).unwrap();
        let cone = net.fanin_cone(o, usize::MAX);
        // The DFF is included but the traversal does not pass through it.
        assert!(cone.contains(&d));
        assert!(!cone.contains(&pi));
    }

    #[test]
    fn fanin_cone_respects_limit() {
        let (net, _, _, _, o) = and_net();
        assert_eq!(net.fanin_cone(o, 1).len(), 1);
    }

    #[test]
    fn fanout_cone_collects_sinks() {
        let (net, a, _, g, o) = and_net();
        let cone = net.fanout_cone(a, usize::MAX);
        assert!(cone.contains(&g) && cone.contains(&o));
    }

    #[test]
    fn observation_point_insertion() {
        let (mut net, _, _, g, _) = and_net();
        let before_nodes = net.node_count();
        let before_edges = net.edge_count();
        let op = net.insert_observation_point(g).unwrap();
        assert_eq!(net.kind(op), CellKind::Output);
        assert_eq!(net.node_count(), before_nodes + 1);
        assert_eq!(net.edge_count(), before_edges + 1);
        assert!(net.fanout(g).contains(&op));
        net.validate().unwrap();
    }

    #[test]
    fn observation_point_on_output_rejected() {
        let (mut net, _, _, _, o) = and_net();
        assert!(net.insert_observation_point(o).is_err());
    }

    #[test]
    fn stats_reports_counts() {
        let (net, ..) = and_net();
        let stats = net.stats().unwrap();
        assert_eq!(stats.nodes, 4);
        assert_eq!(stats.edges, 3);
        assert_eq!(stats.inputs, 2);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.dffs, 0);
        assert_eq!(stats.max_level, 2);
    }

    #[test]
    fn serde_round_trip() {
        let (net, ..) = and_net();
        let json = serde_json::to_string(&net).unwrap();
        let back: Netlist = serde_json::from_str(&json).unwrap();
        assert_eq!(net, back);
    }
}
