//! Critical path tracing (CPT): per-pattern observability in one backward
//! pass.
//!
//! For a batch of 64 simulated patterns, `sensitivity` computes for every
//! node `v` a word whose bit `i` is 1 iff flipping `v` under pattern `i`
//! would change some observable point (primary output or scan flip-flop
//! input). A fault `v stuck-at-b` is then graded *detected by pattern `i`*
//! iff `v`'s good value under `i` is `!b` (the fault is excited) and bit
//! `i` of the sensitivity word is set (the fault effect propagates).
//!
//! With reconvergent fanout CPT is the standard industry approximation
//! (it ORs path sensitivities instead of solving the exact multi-path
//! Boolean difference, which can both over- and under-count when fault
//! effects reconverge). The test suite cross-checks it against exact
//! single-fault simulation on small circuits.

use gcnt_netlist::{CellKind, Netlist, NodeId};

/// Computes the 64-pattern sensitivity word of every node given the good
/// simulation values of the same batch.
///
/// # Panics
///
/// Panics if `values.len()` differs from the node count, which cannot
/// happen when `values` came from [`crate::sim::simulate`] on `net`.
#[expect(
    clippy::indexing_slicing,
    reason = "node-indexed simulation words: every `NodeId` of the simulated netlist is below its node count"
)]
pub fn sensitivity(net: &Netlist, values: &[u64]) -> Vec<u64> {
    assert_eq!(values.len(), net.node_count(), "one word per node");
    let mut sens = vec![0u64; net.node_count()];
    // Observable sinks are fully sensitive. DFF D-input drivers must be
    // marked *before* the sweep: a DFF is a pseudo-source, so it sits early
    // in topological order and its driver is popped before it in the
    // reverse sweep.
    for id in net.nodes() {
        match net.kind(id) {
            CellKind::Output => sens[id.index()] = !0,
            CellKind::Dff => {
                // The D input is observed through the scan chain under
                // every pattern.
                if let Some(&d) = net.fanin(id).first() {
                    sens[d.index()] = !0;
                }
            }
            _ => {}
        }
    }
    // Reverse topological sweep: when a node is popped its sensitivity is
    // final; push edge-sensitivities to its fanins.
    for &u in net.topo_order().iter().rev() {
        let kind = net.kind(u);
        if kind == CellKind::Input || kind == CellKind::Dff {
            continue;
        }
        let su = sens[u.index()];
        if su == 0 {
            continue;
        }
        propagate_to_fanins(net, u, kind, su, values, &mut sens);
    }
    sens
}

#[expect(
    clippy::indexing_slicing,
    reason = "node-indexed simulation words: every `NodeId` of the simulated netlist is below its node count"
)]
#[expect(clippy::unreachable, reason = "the caller skips pseudo inputs")]
fn propagate_to_fanins(
    net: &Netlist,
    u: NodeId,
    kind: CellKind,
    su: u64,
    values: &[u64],
    sens: &mut [u64],
) {
    let fanin = net.fanin(u);
    match kind {
        CellKind::Output | CellKind::Buf | CellKind::Not => {
            sens[fanin[0].index()] |= su;
        }
        CellKind::Xor | CellKind::Xnor => {
            // XOR edges are always sensitive.
            for &v in fanin {
                sens[v.index()] |= su;
            }
        }
        CellKind::And | CellKind::Nand | CellKind::Or | CellKind::Nor => {
            // An input is sensitive where all *other* inputs are at the
            // non-controlling value. Computed with prefix/suffix products
            // so a k-input gate costs O(k), not O(k^2).
            let controlling_zero = matches!(kind, CellKind::And | CellKind::Nand);
            let word_of = |v: NodeId| {
                let w = values[v.index()];
                if controlling_zero {
                    w // non-controlling value is 1
                } else {
                    !w // non-controlling value is 0
                }
            };
            let k = fanin.len();
            if k == 1 {
                sens[fanin[0].index()] |= su;
                return;
            }
            let mut prefix = vec![!0u64; k + 1];
            for i in 0..k {
                prefix[i + 1] = prefix[i] & word_of(fanin[i]);
            }
            let mut suffix = !0u64;
            for i in (0..k).rev() {
                let others = prefix[i] & suffix;
                sens[fanin[i].index()] |= su & others;
                suffix &= word_of(fanin[i]);
            }
        }
        CellKind::Input | CellKind::Dff => unreachable!("handled by caller"),
    }
}

/// Exact single-fault simulation (reference implementation for tests and
/// small-circuit validation): returns the word of patterns under which the
/// given stuck-at fault is detected at any observable point.
///
/// # Panics
///
/// Panics if `good.len()` differs from the node count.
#[expect(
    clippy::indexing_slicing,
    reason = "node-indexed simulation words: every `NodeId` of the simulated netlist is below its node count"
)]
pub fn exact_detection(net: &Netlist, good: &[u64], fault_node: NodeId, stuck_at: bool) -> u64 {
    assert_eq!(good.len(), net.node_count(), "one word per node");
    let mut faulty = good.to_vec();
    faulty[fault_node.index()] = if stuck_at { !0u64 } else { 0u64 };
    // Re-evaluate everything downstream of the fault in topo order.
    for &id in net.topo_order() {
        if id == fault_node || net.kind(id).is_pseudo_input() {
            continue;
        }
        faulty[id.index()] = eval(net, id, &faulty);
    }
    let mut detected = 0u64;
    for id in net.nodes() {
        let observed = match net.kind(id) {
            CellKind::Output => faulty[id.index()] ^ good[id.index()],
            // A DFF's D input is observed through the scan chain. A DFF
            // with no driver observes nothing (its scan state is free).
            CellKind::Dff => match net.fanin(id).first() {
                Some(&d) => faulty[d.index()] ^ good[d.index()],
                None => 0,
            },
            _ => 0,
        };
        detected |= observed;
    }
    detected
}

#[expect(
    clippy::indexing_slicing,
    reason = "node-indexed simulation words: every `NodeId` of the simulated netlist is below its node count"
)]
fn eval(net: &Netlist, id: NodeId, values: &[u64]) -> u64 {
    let fanin = net.fanin(id);
    match net.kind(id) {
        CellKind::Input | CellKind::Dff => values[id.index()],
        CellKind::Output | CellKind::Buf => values[fanin[0].index()],
        CellKind::Not => !values[fanin[0].index()],
        CellKind::And => fanin.iter().fold(!0u64, |a, v| a & values[v.index()]),
        CellKind::Nand => !fanin.iter().fold(!0u64, |a, v| a & values[v.index()]),
        CellKind::Or => fanin.iter().fold(0u64, |a, v| a | values[v.index()]),
        CellKind::Nor => !fanin.iter().fold(0u64, |a, v| a | values[v.index()]),
        CellKind::Xor => fanin.iter().fold(0u64, |a, v| a ^ values[v.index()]),
        CellKind::Xnor => !fanin.iter().fold(0u64, |a, v| a ^ values[v.index()]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, simulate_random};
    use gcnt_netlist::NetlistBuilder;
    use rand::SeedableRng;

    #[test]
    fn and_gate_sensitivity() {
        let mut net = NetlistBuilder::new("and2");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::And);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(b, g).unwrap();
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        // patterns: (a,b) = (0,0),(1,0),(0,1),(1,1)
        let values = simulate(&net, |v| if v == a { 0b1010 } else { 0b1100 });
        let sens = sensitivity(&net, &values);
        // a is sensitive where b = 1: patterns 2 and 3.
        assert_eq!(sens[a.index()] & 0b1111, 0b1100);
        // b is sensitive where a = 1: patterns 1 and 3.
        assert_eq!(sens[b.index()] & 0b1111, 0b1010);
        // The gate output drives a PO directly: always sensitive.
        assert_eq!(sens[g.index()] & 0b1111, 0b1111);
    }

    #[test]
    fn or_gate_sensitivity() {
        let mut net = NetlistBuilder::new("or2");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Or);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(b, g).unwrap();
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        let values = simulate(&net, |v| if v == a { 0b1010 } else { 0b1100 });
        let sens = sensitivity(&net, &values);
        // a is sensitive where b = 0: patterns 0 and 1.
        assert_eq!(sens[a.index()] & 0b1111, 0b0011);
    }

    #[test]
    fn xor_always_sensitive() {
        let mut net = NetlistBuilder::new("xor2");
        let a = net.add_cell(CellKind::Input);
        let b = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Xor);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(b, g).unwrap();
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        let values = simulate(&net, |v| if v == a { 0b1010 } else { 0b1100 });
        let sens = sensitivity(&net, &values);
        assert_eq!(sens[a.index()] & 0b1111, 0b1111);
        assert_eq!(sens[b.index()] & 0b1111, 0b1111);
    }

    #[test]
    fn dff_input_is_observable() {
        let mut net = NetlistBuilder::new("scan");
        let a = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Not);
        let d = net.add_cell(CellKind::Dff);
        net.connect(a, g).unwrap();
        net.connect(g, d).unwrap();
        let net = net.build().unwrap();
        // No primary output at all; observability comes from the scan cell.
        let values = simulate(&net, |_| 0b10);
        let sens = sensitivity(&net, &values);
        assert_eq!(sens[g.index()], !0u64);
        assert_eq!(sens[a.index()], !0u64);
    }

    #[test]
    fn unobservable_node_has_zero_sensitivity() {
        let mut net = NetlistBuilder::new("dangling");
        let a = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Not);
        net.connect(a, g).unwrap();
        let net = net.build().unwrap();
        let values = simulate(&net, |_| 0b1);
        let sens = sensitivity(&net, &values);
        assert_eq!(sens[g.index()], 0);
    }

    #[test]
    fn deep_and_chain_rarely_sensitive() {
        // a buried signal behind a wide AND is sensitive only when all
        // side inputs are 1.
        let mut net = NetlistBuilder::new("deep");
        let first = net.add_cell(CellKind::Input);
        let mut cur = first;
        let mut sides = Vec::new();
        for _ in 0..3 {
            let s = net.add_cell(CellKind::Input);
            let g = net.add_cell(CellKind::And);
            net.connect(cur, g).unwrap();
            net.connect(s, g).unwrap();
            sides.push(s);
            cur = g;
        }
        let o = net.add_cell(CellKind::Output);
        net.connect(cur, o).unwrap();
        let net = net.build().unwrap();
        // side inputs: only pattern 0 has all three at 1.
        let values = simulate(&net, |v| {
            if v == sides[0] {
                0b0101
            } else if v == sides[1] {
                0b0011
            } else if v == sides[2] {
                0b0001
            } else {
                0b1111
            }
        });
        let sens = sensitivity(&net, &values);
        assert_eq!(sens[first.index()] & 0b1111, 0b0001);
    }

    /// CPT must agree with exact single-fault simulation on fanout-free
    /// circuits (where it is provably exact).
    #[test]
    fn cpt_matches_exact_on_fanout_free_circuit() {
        let mut net = NetlistBuilder::new("fof");
        let ins: Vec<_> = (0..4).map(|_| net.add_cell(CellKind::Input)).collect();
        let g1 = net.add_cell(CellKind::And);
        let g2 = net.add_cell(CellKind::Or);
        let g3 = net.add_cell(CellKind::Xor);
        let o = net.add_cell(CellKind::Output);
        net.connect(ins[0], g1).unwrap();
        net.connect(ins[1], g1).unwrap();
        net.connect(ins[2], g2).unwrap();
        net.connect(ins[3], g2).unwrap();
        net.connect(g1, g3).unwrap();
        net.connect(g2, g3).unwrap();
        net.connect(g3, o).unwrap();
        let net = net.build().unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let good = simulate_random(&net, &mut rng);
        let sens = sensitivity(&net, &good);
        for id in net.nodes() {
            if net.kind(id) == CellKind::Output {
                continue;
            }
            for stuck in [false, true] {
                let exact = exact_detection(&net, &good, id, stuck);
                // CPT grading: excited & sensitive.
                let excited = if stuck {
                    !good[id.index()]
                } else {
                    good[id.index()]
                };
                let cpt = excited & sens[id.index()];
                assert_eq!(cpt, exact, "fault {id} sa{} mismatch", u8::from(stuck));
            }
        }
    }

    /// On reconvergent circuits CPT is approximate but must still agree
    /// with exact simulation most of the time.
    #[test]
    fn cpt_close_to_exact_with_reconvergence() {
        let net = gcnt_netlist::generate(&gcnt_netlist::GeneratorConfig {
            gates: 200,
            inputs: 24,
            ..Default::default()
        });
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let good = simulate_random(&net, &mut rng);
        let sens = sensitivity(&net, &good);
        let mut agree = 0u64;
        let mut total = 0u64;
        for id in net.nodes().take(120) {
            if net.kind(id) == CellKind::Output {
                continue;
            }
            let exact = exact_detection(&net, &good, id, false);
            let cpt = good[id.index()] & sens[id.index()];
            agree += (!(exact ^ cpt)).count_ones() as u64;
            total += 64;
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.95, "CPT agreement rate {rate}");
    }
}
