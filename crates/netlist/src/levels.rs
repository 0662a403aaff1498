use crate::{Netlist, Result};

/// Computes the logic level `LL` of every node: primary inputs and scan
/// flip-flops are level 0, every other cell is one more than the maximum
/// level of its fanins.
///
/// This is the first component of the paper's node attribute vector
/// `[LL, C0, C1, O]` (§3.1). The result is indexed by `NodeId::index()`.
///
/// # Errors
///
/// None: a [`Netlist`] is acyclic by construction. The `Result` is kept
/// for callers written against the fallible signature.
///
/// # Examples
///
/// ```
/// use gcnt_netlist::{logic_levels, CellKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("chain");
/// let a = b.add_cell(CellKind::Input);
/// let g = b.add_cell(CellKind::Not);
/// let o = b.add_cell(CellKind::Output);
/// b.connect(a, g)?;
/// b.connect(g, o)?;
/// let levels = logic_levels(&b.build()?)?;
/// assert_eq!(levels, vec![0, 1, 2]);
/// # Ok::<(), gcnt_netlist::NetlistError>(())
/// ```
pub fn logic_levels(net: &Netlist) -> Result<Vec<u32>> {
    Ok(levels(net))
}

pub(crate) fn levels(net: &Netlist) -> Vec<u32> {
    let mut levels = vec![0u32; net.node_count()];
    for &id in net.topo_order() {
        if net.kind(id).is_pseudo_input() {
            continue;
        }
        let max_in = net
            .fanin(id)
            .iter()
            .map(|&f| levels[f.index()])
            .max()
            .unwrap_or(0);
        levels[id.index()] = max_in + 1;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellKind, NetlistBuilder};

    #[test]
    fn diamond_takes_max() {
        // a -> b -> d, a -> c -> e -> d  => level(d) = 3
        let mut net = NetlistBuilder::new("diamond");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Buf);
        let c = net.add_cell(CellKind::Buf);
        let e = net.add_cell(CellKind::Buf);
        let d = net.add_cell(CellKind::And);
        net.connect(a, b).unwrap();
        net.connect(a, c).unwrap();
        net.connect(c, e).unwrap();
        net.connect(b, d).unwrap();
        net.connect(e, d).unwrap();
        let levels = logic_levels(&net.build().unwrap()).unwrap();
        assert_eq!(levels[d.index()], 3);
    }

    #[test]
    fn dff_resets_level() {
        let mut net = NetlistBuilder::new("seq");
        let a = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Not);
        let d = net.add_cell(CellKind::Dff);
        let h = net.add_cell(CellKind::Not);
        net.connect(a, g).unwrap();
        net.connect(g, d).unwrap();
        net.connect(d, h).unwrap();
        let levels = logic_levels(&net.build().unwrap()).unwrap();
        assert_eq!(levels[g.index()], 1);
        assert_eq!(levels[d.index()], 0);
        assert_eq!(levels[h.index()], 1);
    }

    #[test]
    fn empty_netlist() {
        let net = NetlistBuilder::new("empty").build().unwrap();
        assert!(logic_levels(&net).unwrap().is_empty());
    }
}
