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
/// between scan elements must be acyclic.
///
/// A `Netlist` is valid by construction: [`NetlistBuilder::build`],
/// [`crate::format::read`] and [`crate::generate`] are the only ways to
/// make one, and each ends in one validator that checks every cell's
/// arity and proves the combinational logic acyclic. The topological
/// order that proof finds is kept ([`Netlist::topo_order`]), so levels,
/// SCOAP and simulation never recompute it.
///
/// # Examples
///
/// ```
/// use gcnt_netlist::{CellKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("demo");
/// let a = b.add_cell(CellKind::Input);
/// let g = b.add_cell(CellKind::Not);
/// let o = b.add_cell(CellKind::Output);
/// b.connect(a, g)?;
/// b.connect(g, o)?;
/// let net = b.build()?;
/// assert_eq!(net.topo_order(), &[a, g, o]);
/// # Ok::<(), gcnt_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    kinds: Vec<CellKind>,
    fanin: Vec<Vec<NodeId>>,
    fanout: Vec<Vec<NodeId>>,
    edge_count: usize,
    order: Vec<NodeId>,
}

/// Why a netlist failed to build: one entry per offending cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A cell's fanin count is outside the bounds of [`CellKind::arity`].
    BadArity {
        /// The offending node.
        node: NodeId,
        /// Its cell kind.
        kind: CellKind,
        /// Number of fanins it actually has.
        fanins: usize,
    },
    /// The combinational logic (DFFs cut) has a cycle through `node`.
    Cycle {
        /// A node on the cycle.
        node: NodeId,
        /// Its cell kind.
        kind: CellKind,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::BadArity { node, kind, fanins } => write!(
                f,
                "node {node} of kind {kind} has {fanins} fanins, outside its arity bounds"
            ),
            Violation::Cycle { node, .. } => write!(f, "combinational cycle through node {node}"),
        }
    }
}

/// Assembles a [`Netlist`] cell by cell; [`NetlistBuilder::build`] is
/// where it is validated.
#[derive(Debug, Clone)]
pub struct NetlistBuilder(Netlist);

impl NetlistBuilder {
    /// Starts an empty design with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder(Netlist::new(name))
    }

    /// Adds an unconnected cell and returns its id.
    pub fn add_cell(&mut self, kind: CellKind) -> NodeId {
        self.0.add_cell(kind)
    }

    /// Connects `from`'s output to one input of `to`.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UnknownNode`] if either id is stale.
    /// * [`NetlistError::DuplicateEdge`] if the edge already exists.
    /// * [`NetlistError::OutputHasFanout`] if `from` is an `Output` cell.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        self.0.connect(from, to)
    }

    /// Validates the design and returns it.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Invalid`] listing every arity violation in node
    /// order, then the combinational cycle, if there is one.
    pub fn build(self) -> Result<Netlist> {
        self.0.validated()
    }
}

impl Netlist {
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            kinds: Vec::new(),
            fanin: Vec::new(),
            fanout: Vec::new(),
            edge_count: 0,
            order: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn add_cell(&mut self, kind: CellKind) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.fanin.push(Vec::new());
        self.fanout.push(Vec::new());
        id
    }

    pub(crate) fn connect(&mut self, from: NodeId, to: NodeId) -> Result<()> {
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

    /// The one validator: collects every arity violation in node order,
    /// then runs Kahn's algorithm once and keeps the order it finds.
    pub(crate) fn validated(mut self) -> Result<Self> {
        let mut violations: Vec<Violation> = self
            .nodes()
            .filter_map(|node| {
                let kind = self.kind(node);
                let (lo, hi) = kind.arity();
                let fanins = self.fanin(node).len();
                (fanins < lo || fanins > hi).then_some(Violation::BadArity { node, kind, fanins })
            })
            .collect();
        match self.kahn() {
            Ok(order) => self.order = order,
            Err(node) => violations.push(Violation::Cycle {
                node,
                kind: self.kind(node),
            }),
        }
        if violations.is_empty() {
            Ok(self)
        } else {
            Err(NetlistError::Invalid(violations))
        }
    }

    /// Kahn's algorithm over the combinational edges: pseudo inputs are
    /// sources, and an edge into one does not gate evaluation. On a cycle,
    /// returns a node on it, found by walking unordered fanins from the
    /// first unordered node until one repeats.
    fn kahn(&self) -> std::result::Result<Vec<NodeId>, NodeId> {
        let n = self.node_count();
        let mut indegree: Vec<u32> = self
            .nodes()
            .map(|id| {
                if self.kind(id).is_pseudo_input() {
                    0
                } else {
                    self.fanin(id).len() as u32
                }
            })
            .collect();
        // `order` doubles as the FIFO queue: `head` is its front.
        let mut order = Vec::with_capacity(n);
        order.extend(self.nodes().filter(|&id| indegree[id.index()] == 0));
        let mut head = 0;
        while let Some(&id) = order.get(head) {
            head += 1;
            for &sink in self.fanout(id) {
                if self.kind(sink).is_pseudo_input() {
                    continue;
                }
                let d = &mut indegree[sink.index()];
                *d -= 1;
                if *d == 0 {
                    order.push(sink);
                }
            }
        }
        if order.len() == n {
            return Ok(order);
        }
        // An unordered node keeps an unordered fanin, so the walk never
        // ends early and must revisit a node of the cycle it ran into.
        let unordered = |id: NodeId| indegree[id.index()] > 0;
        let mut seen = vec![false; n];
        let mut node = self
            .nodes()
            .find(|&id| unordered(id))
            .expect("order is short");
        while !std::mem::replace(&mut seen[node.index()], true) {
            node = self
                .fanin(node)
                .iter()
                .copied()
                .find(|&f| unordered(f))
                .expect("an unordered node has an unordered fanin");
        }
        Err(node)
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

    /// The cells in a combinational evaluation order: every non-DFF cell
    /// appears after all of its fanins, with DFFs and primary inputs first
    /// (their values are state, not computed). Inserted observation points
    /// are appended.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.order
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
        self.order.push(op);
        Ok(op)
    }

    /// Computes aggregate statistics.
    pub fn stats(&self) -> NetlistStats {
        let levels = crate::levels::levels(self);
        NetlistStats {
            nodes: self.node_count(),
            edges: self.edge_count(),
            inputs: self.primary_inputs().len(),
            outputs: self.primary_outputs().len(),
            dffs: self.flip_flops().len(),
            max_level: levels.iter().copied().max().unwrap_or(0),
        }
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
        let mut b = NetlistBuilder::new("and2");
        let a = b.add_cell(CellKind::Input);
        let i1 = b.add_cell(CellKind::Input);
        let g = b.add_cell(CellKind::And);
        let o = b.add_cell(CellKind::Output);
        b.connect(a, g).unwrap();
        b.connect(i1, g).unwrap();
        b.connect(g, o).unwrap();
        (b.build().unwrap(), a, i1, g, o)
    }

    fn violations(b: NetlistBuilder) -> Vec<Violation> {
        match b.build() {
            Err(NetlistError::Invalid(v)) => v,
            other => panic!("expected violations, got {other:?}"),
        }
    }

    #[test]
    fn build_and_query() {
        let (net, a, b, g, o) = and_net();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.edge_count(), 3);
        assert_eq!(net.fanin(g), &[a, b]);
        assert_eq!(net.fanout(g), &[o]);
        assert_eq!(net.kind(o), CellKind::Output);
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.add_cell(CellKind::Input);
        let g = b.add_cell(CellKind::And);
        b.connect(a, g).unwrap();
        assert!(matches!(
            b.connect(a, g),
            Err(NetlistError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn output_cannot_drive() {
        let mut b = NetlistBuilder::new("out");
        let o = b.add_cell(CellKind::Output);
        let g = b.add_cell(CellKind::Buf);
        assert!(matches!(
            b.connect(o, g),
            Err(NetlistError::OutputHasFanout(_))
        ));
    }

    #[test]
    fn every_arity_violation_is_listed_in_node_order() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.add_cell(CellKind::Input);
        let inv = b.add_cell(CellKind::Not);
        let i1 = b.add_cell(CellKind::Input);
        let floating = b.add_cell(CellKind::Buf);
        b.connect(a, inv).unwrap();
        b.connect(i1, inv).unwrap();
        let found = violations(b);
        assert_eq!(
            found,
            [
                Violation::BadArity {
                    node: inv,
                    kind: CellKind::Not,
                    fanins: 2
                },
                Violation::BadArity {
                    node: floating,
                    kind: CellKind::Buf,
                    fanins: 0
                },
            ]
        );
        let err = NetlistError::Invalid(found).to_string();
        assert_eq!(
            err,
            "node n1 of kind not has 2 fanins, outside its arity bounds (and 1 more)"
        );
    }

    /// `y` reads the `x1`/`x2` loop without being on it; the cycle entry
    /// must name a node that is.
    #[test]
    fn a_cycle_is_reported_through_a_node_on_it() {
        let mut b = NetlistBuilder::new("cyc");
        let a = b.add_cell(CellKind::Input);
        let y = b.add_cell(CellKind::And);
        let x1 = b.add_cell(CellKind::And);
        let x2 = b.add_cell(CellKind::Or);
        for (from, to) in [(a, y), (x1, y), (a, x1), (x2, x1), (a, x2), (x1, x2)] {
            b.connect(from, to).unwrap();
        }
        let found = violations(b);
        assert_eq!(
            found,
            [Violation::Cycle {
                node: x1,
                kind: CellKind::And
            }]
        );
        assert_eq!(
            NetlistError::Invalid(found).to_string(),
            "combinational cycle through node n2"
        );
    }

    #[test]
    fn dff_breaks_cycles() {
        // g -> dff -> g is a legal sequential loop.
        let mut b = NetlistBuilder::new("seq");
        let d = b.add_cell(CellKind::Dff);
        let a = b.add_cell(CellKind::Input);
        let g = b.add_cell(CellKind::And);
        b.connect(d, g).unwrap();
        b.connect(a, g).unwrap();
        b.connect(g, d).unwrap();
        let net = b.build().unwrap();
        let order = net.topo_order();
        assert_eq!(order.len(), 3);
        // The DFF must appear before the gate it feeds.
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(d) < pos(g));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let (net, a, b, g, o) = and_net();
        let order = net.topo_order();
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
        let mut b = NetlistBuilder::new("seq");
        let pi = b.add_cell(CellKind::Input);
        let d = b.add_cell(CellKind::Dff);
        let inv = b.add_cell(CellKind::Not);
        let o = b.add_cell(CellKind::Output);
        b.connect(pi, d).unwrap();
        b.connect(d, inv).unwrap();
        b.connect(inv, o).unwrap();
        let net = b.build().unwrap();
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
        assert_eq!(net.topo_order().last(), Some(&op));
    }

    #[test]
    fn observation_point_on_output_rejected() {
        let (mut net, _, _, _, o) = and_net();
        assert!(net.insert_observation_point(o).is_err());
    }

    #[test]
    fn stats_reports_counts() {
        let (net, ..) = and_net();
        let stats = net.stats();
        assert_eq!(stats.nodes, 4);
        assert_eq!(stats.edges, 3);
        assert_eq!(stats.inputs, 2);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.dffs, 0);
        assert_eq!(stats.max_level, 2);
    }
}
