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

use gcnt_netlist::{CellKind, Netlist, NetlistError, NodeId, Result};

use crate::error::DftError;

/// A levelised simulator bound to one netlist.
///
/// # Examples
///
/// ```
/// use gcnt_dft::sim::PatternSim;
/// use gcnt_netlist::{CellKind, Netlist};
///
/// let mut net = Netlist::new("inv");
/// let a = net.add_cell(CellKind::Input);
/// let g = net.add_cell(CellKind::Not);
/// let o = net.add_cell(CellKind::Output);
/// net.connect(a, g)?;
/// net.connect(g, o)?;
/// let sim = PatternSim::new(&net)?;
/// let values = sim.simulate(|_| 0b1010);
/// assert_eq!(values[g.index()] & 0b1111, 0b0101);
/// # Ok::<(), gcnt_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PatternSim<'a> {
    net: &'a Netlist,
    order: Vec<NodeId>,
}

impl<'a> PatternSim<'a> {
    /// Levelises the netlist and validates that every gate has at least
    /// one fanin, so the evaluation kernels (and the CPT sweep that reuses
    /// this simulator) can index `fanin[0]` without re-checking per gate.
    ///
    /// # Errors
    ///
    /// Returns a netlist error if the combinational logic is cyclic or a
    /// non-pseudo-input cell has no fanin.
    pub fn new(net: &'a Netlist) -> Result<Self> {
        let order = net.topo_order()?;
        for id in net.nodes() {
            let kind = net.kind(id);
            if !kind.is_pseudo_input() && net.fanin(id).is_empty() {
                return Err(NetlistError::BadArity {
                    node: id,
                    kind,
                    fanins: 0,
                });
            }
        }
        Ok(PatternSim { net, order })
    }

    /// The netlist this simulator is bound to.
    pub fn netlist(&self) -> &Netlist {
        self.net
    }

    /// The evaluation order used.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Simulates one batch of 64 patterns. `stimuli(v)` supplies the
    /// pattern word of each pseudo input `v` (primary input or flip-flop);
    /// it is not called for other nodes. Returns one word per node.
    pub fn simulate(&self, stimuli: impl Fn(NodeId) -> u64) -> Vec<u64> {
        let mut values = vec![0u64; self.net.node_count()];
        self.simulate_into(&stimuli, &mut values);
        values
    }

    /// Like [`PatternSim::simulate`] but reuses an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the node count. Call sites
    /// that cannot prove the length locally should use
    /// [`PatternSim::try_simulate_into`].
    pub fn simulate_into(&self, stimuli: &impl Fn(NodeId) -> u64, values: &mut [u64]) {
        assert_eq!(values.len(), self.net.node_count(), "one word per node");
        self.fill(stimuli, values);
    }

    /// Fallible variant of [`PatternSim::simulate_into`]: a wrong buffer
    /// length becomes a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`DftError::WordCount`] if `values.len()` differs from the
    /// node count.
    pub fn try_simulate_into(
        &self,
        stimuli: &impl Fn(NodeId) -> u64,
        values: &mut [u64],
    ) -> std::result::Result<(), DftError> {
        if values.len() != self.net.node_count() {
            return Err(DftError::WordCount {
                expected: self.net.node_count(),
                actual: values.len(),
            });
        }
        self.fill(stimuli, values);
        Ok(())
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "node-indexed simulation words: every `NodeId` of the simulated netlist is below its node count"
    )]
    fn fill(&self, stimuli: &impl Fn(NodeId) -> u64, values: &mut [u64]) {
        for &id in &self.order {
            let kind = self.net.kind(id);
            if kind.is_pseudo_input() {
                values[id.index()] = stimuli(id);
                continue;
            }
            values[id.index()] = eval_gate(kind, self.net.fanin(id), values);
        }
    }

    /// Simulates a batch with uniformly random stimuli from `rng`.
    #[expect(
        clippy::indexing_slicing,
        reason = "node-indexed simulation words: every `NodeId` of the simulated netlist is below its node count"
    )]
    pub fn simulate_random(&self, rng: &mut impl RngCore) -> Vec<u64> {
        // Draw per-node words deterministically in node order.
        let mut words = vec![0u64; self.net.node_count()];
        for &id in &self.order {
            if self.net.kind(id).is_pseudo_input() {
                words[id.index()] = rng.next_u64();
            }
        }
        self.simulate(|v| words[v.index()])
    }
}

/// Evaluates one gate over pattern words. `fanin` is non-empty for every
/// kind this is called with: [`PatternSim::new`] rejects fanin-less gates.
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
    use gcnt_netlist::{generate, GeneratorConfig};

    fn two_input(kind: CellKind) -> (Netlist, NodeId, NodeId, NodeId) {
        let mut net = Netlist::new("g");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Input);
        let g = net.add_cell(kind);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(b, g).unwrap();
        net.connect(g, o).unwrap();
        (net, a, b, g)
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
            let sim = PatternSim::new(&net).unwrap();
            let values = sim.simulate(|v| if v == a { 0b1010 } else { 0b1100 });
            assert_eq!(
                values[g.index()] & 0b1111,
                expected,
                "truth table mismatch for {kind}"
            );
        }
    }

    #[test]
    fn not_and_buf() {
        let mut net = Netlist::new("nb");
        let a = net.add_cell(CellKind::Input);
        let n = net.add_cell(CellKind::Not);
        let b = net.add_cell(CellKind::Buf);
        let o1 = net.add_cell(CellKind::Output);
        let o2 = net.add_cell(CellKind::Output);
        net.connect(a, n).unwrap();
        net.connect(a, b).unwrap();
        net.connect(n, o1).unwrap();
        net.connect(b, o2).unwrap();
        let sim = PatternSim::new(&net).unwrap();
        let v = sim.simulate(|_| 0xF0F0);
        assert_eq!(v[n.index()], !0xF0F0u64);
        assert_eq!(v[b.index()], 0xF0F0);
        assert_eq!(v[o1.index()], !0xF0F0u64);
    }

    #[test]
    fn dff_value_is_scan_state_not_d_input() {
        let mut net = Netlist::new("scan");
        let a = net.add_cell(CellKind::Input);
        let d = net.add_cell(CellKind::Dff);
        let g = net.add_cell(CellKind::And);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, d).unwrap(); // D input driven by a
        net.connect(d, g).unwrap();
        net.connect(a, g).unwrap();
        net.connect(g, o).unwrap();
        let sim = PatternSim::new(&net).unwrap();
        // a = all ones, scan state of d = 0: d's value must be the scan
        // state, not its D input.
        let v = sim.simulate(|x| if x == a { !0 } else { 0 });
        assert_eq!(v[d.index()], 0);
        assert_eq!(v[g.index()], 0);
    }

    #[test]
    fn three_input_gate() {
        let mut net = Netlist::new("and3");
        let ins: Vec<_> = (0..3).map(|_| net.add_cell(CellKind::Input)).collect();
        let g = net.add_cell(CellKind::And);
        let o = net.add_cell(CellKind::Output);
        for &i in &ins {
            net.connect(i, g).unwrap();
        }
        net.connect(g, o).unwrap();
        let sim = PatternSim::new(&net).unwrap();
        let v = sim.simulate(|x| {
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
        let sim = PatternSim::new(&net).unwrap();
        let v1 = sim.simulate_random(&mut gcnt_nn_rng(7));
        let v2 = sim.simulate_random(&mut gcnt_nn_rng(7));
        assert_eq!(v1, v2);
        let v3 = sim.simulate_random(&mut gcnt_nn_rng(8));
        assert_ne!(v1, v3);
    }

    fn gcnt_nn_rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        use rand::SeedableRng;
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn simulate_into_reuses_buffer() {
        let (net, a, ..) = two_input(CellKind::Or);
        let sim = PatternSim::new(&net).unwrap();
        let mut buf = vec![0u64; net.node_count()];
        sim.simulate_into(&|v: NodeId| if v == a { 1 } else { 0 }, &mut buf);
        assert_eq!(buf[2] & 1, 1);
    }

    #[test]
    #[should_panic(expected = "one word per node")]
    fn wrong_buffer_size_panics() {
        let (net, ..) = two_input(CellKind::And);
        let sim = PatternSim::new(&net).unwrap();
        let mut buf = vec![0u64; 1];
        sim.simulate_into(&|_| 0, &mut buf);
    }

    #[test]
    fn try_simulate_into_reports_wrong_buffer_size() {
        let (net, a, ..) = two_input(CellKind::Or);
        let sim = PatternSim::new(&net).unwrap();
        let mut short = vec![0u64; 1];
        let err = sim.try_simulate_into(&|_| 0, &mut short).unwrap_err();
        assert_eq!(
            err,
            DftError::WordCount {
                expected: net.node_count(),
                actual: 1
            }
        );
        let mut buf = vec![0u64; net.node_count()];
        sim.try_simulate_into(&|v: NodeId| if v == a { 1 } else { 0 }, &mut buf)
            .unwrap();
        assert_eq!(buf[2] & 1, 1);
    }

    #[test]
    fn fanin_less_gate_is_rejected_at_construction() {
        let mut net = Netlist::new("floating");
        net.add_cell(CellKind::Input);
        net.add_cell(CellKind::Not); // never connected
        let err = PatternSim::new(&net).unwrap_err();
        assert!(
            matches!(err, NetlistError::BadArity { fanins: 0, .. }),
            "{err}"
        );
    }
}
