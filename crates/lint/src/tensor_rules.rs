//! Sparse-tensor rules (`TS...`): CSR structural invariants, value
//! sanity, and tensor-vs-netlist consistency.

use gcnt_core::GraphTensors;
use gcnt_netlist::Netlist;
use gcnt_tensor::CsrMatrix;

use crate::netlist_rules::Capped;
use crate::report::{LintReport, RuleId};

/// Checks the structural invariants of a CSR matrix (`TS002`) and the
/// finiteness of its values (`TS003`). `context` names the matrix in the
/// findings, e.g. `"tensors.pred"`.
pub fn lint_csr(csr: &CsrMatrix, context: &'static str) -> LintReport {
    let mut report = LintReport::new();

    let indptr = csr.indptr();
    let structural_ok = {
        let mut capped = Capped::new(&mut report, RuleId::CsrSortedIndices, context);
        let mut ok = true;
        if indptr.len() != csr.rows() + 1 {
            capped.report(format!(
                "indptr has {} entries for {} rows, expected {}",
                indptr.len(),
                csr.rows(),
                csr.rows() + 1
            ));
            ok = false;
        }
        if indptr.first().copied() != Some(0) {
            capped.report(format!("indptr starts at {:?}, expected 0", indptr.first()));
            ok = false;
        }
        if indptr.last().copied() != Some(csr.indices().len()) {
            capped.report(format!(
                "indptr ends at {:?}, expected nnz = {}",
                indptr.last(),
                csr.indices().len()
            ));
            ok = false;
        }
        if csr.indices().len() != csr.values().len() {
            capped.report(format!(
                "{} column indices but {} values",
                csr.indices().len(),
                csr.values().len()
            ));
            ok = false;
        }
        for (r, w) in indptr.windows(2).enumerate() {
            if w[0] > w[1] {
                capped.report(format!(
                    "indptr not monotone at row {r}: {} > {}",
                    w[0], w[1]
                ));
                ok = false;
            }
        }
        ok
    };

    // Per-row checks need a coherent indptr to slice with.
    if structural_ok {
        let mut capped = Capped::new(&mut report, RuleId::CsrSortedIndices, context);
        for r in 0..csr.rows() {
            let row = &csr.indices()[indptr[r]..indptr[r + 1]];
            for &c in row {
                if c as usize >= csr.cols() {
                    capped.report(format!(
                        "row {r} references column {c}, but the matrix has {} columns",
                        csr.cols()
                    ));
                }
            }
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    capped.report(format!(
                        "row {r} columns not strictly increasing: {} then {}",
                        w[0], w[1]
                    ));
                }
            }
        }
    }

    {
        let mut capped = Capped::new(&mut report, RuleId::NanOrInfValue, context);
        for (k, v) in csr.values().iter().enumerate() {
            if !v.is_finite() {
                capped.report(format!("non-finite value {v} at nnz position {k}"));
            }
        }
    }

    report
}

/// Checks graph tensors against the netlist they model (`TS001`), then
/// runs the CSR checks on both adjacency matrices.
///
/// This is the independent check on the stored structure: it compares
/// every CSR row with the netlist's own fanin/fanout lists, whichever way
/// the tensors were built or extended.
pub fn lint_graph_tensors(net: &Netlist, t: &GraphTensors) -> LintReport {
    let mut report = LintReport::new();
    let context = "tensors";

    if t.node_count() != net.node_count() {
        report.report(
            RuleId::AdjacencyNetlistMismatch,
            context,
            format!(
                "tensors model {} nodes, netlist has {}",
                t.node_count(),
                net.node_count()
            ),
        );
        // Everything below indexes by node id; stop at a shape mismatch.
        return report;
    }
    if t.edge_count() != net.edge_count() {
        report.report(
            RuleId::AdjacencyNetlistMismatch,
            context,
            format!(
                "tensors hold {} edges, netlist has {}",
                t.edge_count(),
                net.edge_count()
            ),
        );
    }

    {
        let mut capped = Capped::new(&mut report, RuleId::AdjacencyNetlistMismatch, context);
        for v in net.nodes() {
            let mut fanin: Vec<u32> = net.fanin(v).iter().map(|u| u.index() as u32).collect();
            fanin.sort_unstable();
            let mut pred: Vec<u32> = t.pred().row(v.index()).map(|(c, _)| c as u32).collect();
            pred.sort_unstable();
            if fanin != pred {
                capped.report(format!(
                    "pred row {} disagrees with netlist fanin ({} vs {} drivers)",
                    v.index(),
                    pred.len(),
                    fanin.len()
                ));
            }
            let mut fanout: Vec<u32> = net.fanout(v).iter().map(|u| u.index() as u32).collect();
            fanout.sort_unstable();
            let mut succ: Vec<u32> = t.succ().row(v.index()).map(|(c, _)| c as u32).collect();
            succ.sort_unstable();
            if fanout != succ {
                capped.report(format!(
                    "succ row {} disagrees with netlist fanout ({} vs {} sinks)",
                    v.index(),
                    succ.len(),
                    fanout.len()
                ));
            }
        }
    }

    report.merge(lint_csr(t.pred(), "tensors.pred"));
    report.merge(lint_csr(t.succ(), "tensors.succ"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{generate, CellKind, GeneratorConfig};

    /// Entries (0, 1) = 1, (1, 0) = 2 and (2, 2) = 3.
    fn sample_csr() -> CsrMatrix {
        CsrMatrix::from_raw_parts_unchecked(
            3,
            3,
            vec![0, 1, 2, 3],
            vec![1, 0, 2],
            vec![1.0, 2.0, 3.0],
        )
    }

    #[test]
    fn well_formed_csr_is_clean() {
        assert!(lint_csr(&sample_csr(), "test").is_clean());
    }

    #[test]
    fn shuffled_columns_fire_ts002() {
        let good = sample_csr();
        let bad = CsrMatrix::from_raw_parts_unchecked(
            3,
            3,
            vec![0, 2, 3, 3],
            vec![1, 0, 0], // row 0 now has columns [1, 0]: unsorted
            good.values().to_vec(),
        );
        let report = lint_csr(&bad, "test");
        assert!(report.fired(RuleId::CsrSortedIndices));
    }

    #[test]
    fn out_of_bounds_column_fires_ts002() {
        let bad = CsrMatrix::from_raw_parts_unchecked(2, 2, vec![0, 1, 1], vec![9], vec![1.0]);
        let report = lint_csr(&bad, "test");
        assert!(report.fired(RuleId::CsrSortedIndices));
    }

    #[test]
    fn broken_indptr_fires_ts002() {
        let bad =
            CsrMatrix::from_raw_parts_unchecked(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
        let report = lint_csr(&bad, "test");
        assert!(report.fired(RuleId::CsrSortedIndices));
    }

    #[test]
    fn nan_value_fires_ts003() {
        let bad = CsrMatrix::from_raw_parts_unchecked(
            2,
            2,
            vec![0, 1, 2],
            vec![0, 1],
            vec![1.0, f32::NAN],
        );
        let report = lint_csr(&bad, "test");
        assert!(report.fired(RuleId::NanOrInfValue));
        assert!(!report.fired(RuleId::CsrSortedIndices));
    }

    #[test]
    fn tensors_match_their_netlist() {
        let net = generate(&GeneratorConfig::sized("ok", 5, 60));
        let t = GraphTensors::from_netlist(&net);
        let report = lint_graph_tensors(&net, &t);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn stale_tensors_fire_ts001() {
        let mut net = generate(&GeneratorConfig::sized("stale", 5, 60));
        let t = GraphTensors::from_netlist(&net);
        // Grow the netlist without updating the tensors.
        let target = net
            .nodes()
            .find(|&v| net.kind(v) != CellKind::Output)
            .unwrap();
        net.insert_observation_point(target).unwrap();
        let report = lint_graph_tensors(&net, &t);
        assert!(report.fired(RuleId::AdjacencyNetlistMismatch));
    }

    #[test]
    fn wrong_netlists_tensors_fire_ts001() {
        // Tensors built for a differently seeded netlist of the same target
        // size: counts can collide, the per-row comparison cannot.
        let net = generate(&GeneratorConfig::sized("drop", 5, 60));
        let other = generate(&GeneratorConfig::sized("other", 17, 60));
        let t = GraphTensors::from_netlist(&other);
        let report = lint_graph_tensors(&net, &t);
        assert!(report.fired(RuleId::AdjacencyNetlistMismatch));
    }
}
