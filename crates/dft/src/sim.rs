//! 64-way parallel-pattern logic simulation.
//!
//! Each node carries one `u64` word; bit `i` of the word is the node's
//! value under pattern `i`. One pass over the levelised netlist therefore
//! simulates 64 test patterns at once — the classic trick that makes
//! random-pattern fault grading tractable on large designs.
//!
//! Scan semantics: primary inputs *and* flip-flop outputs are free pattern
//! bits (the scan chain can load any state); flip-flop D-inputs and primary
//! outputs are the observation sites.

use rand::RngCore;

use gcnt_netlist::{CellKind, Netlist, NodeId};

/// Simulates one batch of 64 patterns in the netlist's stored topological
/// order. `stimuli(v)` supplies the pattern word of each pseudo input `v`
/// (primary input or flip-flop); it is not called for other nodes.
/// Returns one word per node.
///
/// # Examples
///
/// ```
/// use gcnt_dft::sim;
/// use gcnt_netlist::{CellKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("inv");
/// let a = b.add_cell(CellKind::Input);
/// let g = b.add_cell(CellKind::Not);
/// let o = b.add_cell(CellKind::Output);
/// b.connect(a, g)?;
/// b.connect(g, o)?;
/// let values = sim::simulate(&b.build()?, |_| 0b1010);
/// assert_eq!(values[g.index()] & 0b1111, 0b0101);
/// # Ok::<(), gcnt_netlist::NetlistError>(())
/// ```
#[expect(
    clippy::indexing_slicing,
    reason = "node-indexed simulation words: every `NodeId` of the simulated netlist is below its node count"
)]
pub fn simulate(net: &Netlist, stimuli: impl Fn(NodeId) -> u64) -> Vec<u64> {
    let mut values = vec![0u64; net.node_count()];
    for &id in net.topo_order() {
        let kind = net.kind(id);
        values[id.index()] = if kind.is_pseudo_input() {
            stimuli(id)
        } else {
            eval_gate(kind, net.fanin(id), &values)
        };
    }
    values
}

/// Simulates a batch with uniformly random stimuli from `rng`, drawn for
/// the pseudo inputs in topological order.
#[expect(
    clippy::indexing_slicing,
    reason = "node-indexed simulation words: every `NodeId` of the simulated netlist is below its node count"
)]
pub fn simulate_random(net: &Netlist, rng: &mut impl RngCore) -> Vec<u64> {
    let mut words = vec![0u64; net.node_count()];
    for &id in net.topo_order() {
        if net.kind(id).is_pseudo_input() {
            words[id.index()] = rng.next_u64();
        }
    }
    simulate(net, |v| words[v.index()])
}

/// Evaluates one gate over pattern words. `fanin` is non-empty: every
/// non-pseudo-input cell of a [`Netlist`] has a driver.
#[expect(
    clippy::indexing_slicing,
    reason = "node-indexed simulation words: every `NodeId` of the simulated netlist is below its node count"
)]
#[expect(clippy::unreachable, reason = "the caller handles pseudo inputs")]
fn eval_gate(kind: CellKind, fanin: &[NodeId], values: &[u64]) -> u64 {
    let f = |i: usize| values[fanin[i].index()];
    match kind {
        CellKind::Input | CellKind::Dff => unreachable!("pseudo inputs handled by caller"),
        CellKind::Output | CellKind::Buf => f(0),
        CellKind::Not => !f(0),
        CellKind::And => fanin.iter().fold(!0u64, |acc, v| acc & values[v.index()]),
        CellKind::Nand => !fanin.iter().fold(!0u64, |acc, v| acc & values[v.index()]),
        CellKind::Or => fanin.iter().fold(0u64, |acc, v| acc | values[v.index()]),
        CellKind::Nor => !fanin.iter().fold(0u64, |acc, v| acc | values[v.index()]),
        CellKind::Xor => fanin.iter().fold(0u64, |acc, v| acc ^ values[v.index()]),
        CellKind::Xnor => !fanin.iter().fold(0u64, |acc, v| acc ^ values[v.index()]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{generate, GeneratorConfig, NetlistBuilder};

    fn two_input(kind: CellKind) -> (Netlist, NodeId, NodeId, NodeId) {
        let mut net = NetlistBuilder::new("g");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Input);
        let g = net.add_cell(kind);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(b, g).unwrap();
        net.connect(g, o).unwrap();
        (net.build().unwrap(), a, b, g)
    }

    /// Exhaustive truth-table check for every 2-input gate: patterns
    /// 0..4 enumerate (a, b) = (0,0), (1,0), (0,1), (1,1).
    #[test]
    fn truth_tables() {
        let cases = [
            (CellKind::And, 0b1000u64),
            (CellKind::Nand, 0b0111),
            (CellKind::Or, 0b1110),
            (CellKind::Nor, 0b0001),
            (CellKind::Xor, 0b0110),
            (CellKind::Xnor, 0b1001),
        ];
        for (kind, expected) in cases {
            let (net, a, _, g) = two_input(kind);
            let values = simulate(&net, |v| if v == a { 0b1010 } else { 0b1100 });
            assert_eq!(
                values[g.index()] & 0b1111,
                expected,
                "truth table mismatch for {kind}"
            );
        }
    }

    #[test]
    fn not_and_buf() {
        let mut net = NetlistBuilder::new("nb");
        let a = net.add_cell(CellKind::Input);
        let n = net.add_cell(CellKind::Not);
        let b = net.add_cell(CellKind::Buf);
        let o1 = net.add_cell(CellKind::Output);
        let o2 = net.add_cell(CellKind::Output);
        net.connect(a, n).unwrap();
        net.connect(a, b).unwrap();
        net.connect(n, o1).unwrap();
        net.connect(b, o2).unwrap();
        let v = simulate(&net.build().unwrap(), |_| 0xF0F0);
        assert_eq!(v[n.index()], !0xF0F0u64);
        assert_eq!(v[b.index()], 0xF0F0);
        assert_eq!(v[o1.index()], !0xF0F0u64);
    }

    #[test]
    fn dff_value_is_scan_state_not_d_input() {
        let mut net = NetlistBuilder::new("scan");
        let a = net.add_cell(CellKind::Input);
        let d = net.add_cell(CellKind::Dff);
        let g = net.add_cell(CellKind::And);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, d).unwrap(); // D input driven by a
        net.connect(d, g).unwrap();
        net.connect(a, g).unwrap();
        net.connect(g, o).unwrap();
        // a = all ones, scan state of d = 0: d's value must be the scan
        // state, not its D input.
        let v = simulate(&net.build().unwrap(), |x| if x == a { !0 } else { 0 });
        assert_eq!(v[d.index()], 0);
        assert_eq!(v[g.index()], 0);
    }

    #[test]
    fn three_input_gate() {
        let mut net = NetlistBuilder::new("and3");
        let ins: Vec<_> = (0..3).map(|_| net.add_cell(CellKind::Input)).collect();
        let g = net.add_cell(CellKind::And);
        let o = net.add_cell(CellKind::Output);
        for &i in &ins {
            net.connect(i, g).unwrap();
        }
        net.connect(g, o).unwrap();
        let v = simulate(&net.build().unwrap(), |x| {
            if x == ins[0] {
                0b1111
            } else if x == ins[1] {
                0b1010
            } else {
                0b1100
            }
        });
        assert_eq!(v[g.index()] & 0b1111, 0b1000);
    }

    #[test]
    fn random_simulation_is_deterministic() {
        let net = generate(&GeneratorConfig::sized("s", 17, 600));
        let v1 = simulate_random(&net, &mut gcnt_nn_rng(7));
        let v2 = simulate_random(&net, &mut gcnt_nn_rng(7));
        assert_eq!(v1, v2);
        let v3 = simulate_random(&net, &mut gcnt_nn_rng(8));
        assert_ne!(v1, v3);
    }

    fn gcnt_nn_rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        use rand::SeedableRng;
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }
}
