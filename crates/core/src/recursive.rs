//! Recursion-based inference — the *baseline* the paper's matrix-form
//! scheme is benchmarked against (Fig. 10).
//!
//! This is Algorithm 1 executed literally, per node: to classify node `v`,
//! its depth-`D` embedding is computed by recursively expanding the
//! neighbourhood, exactly like the released GraphSAGE implementation the
//! paper compares to (\[12\]). Representations are memoised only *within*
//! one node's expansion, so overlapping neighbourhoods of different nodes
//! are recomputed from scratch — the duplicated work that makes this
//! approach three orders of magnitude slower at 10^6 nodes (§3.4.1).
//!
//! Keep this for benchmarking and cross-validation; use
//! [`crate::Gcn::predict`] for anything real.

use std::collections::HashMap;

use gcnt_nn::Linear;
use gcnt_tensor::{Matrix, Result};

use crate::{Gcn, GraphTensors};

/// Computes the depth-`D` embedding of a single node by recursive
/// neighbourhood expansion.
///
/// # Errors
///
/// Returns a shape error if `x` does not match the model input dimension.
pub fn embed_node(gcn: &Gcn, t: &GraphTensors, x: &Matrix, node: usize) -> Result<Vec<f32>> {
    let mut memo: HashMap<(u32, usize), Vec<f32>> = HashMap::new();
    representation(gcn, t, x, node as u32, gcn.encoders(), &mut memo)
}

/// Classifies the listed nodes with recursion-based inference; returns
/// their logits in input order.
///
/// # Errors
///
/// Returns a shape error if `x` does not match the model input dimension.
pub fn predict_nodes(gcn: &Gcn, t: &GraphTensors, x: &Matrix, nodes: &[usize]) -> Result<Matrix> {
    let k = gcn.encoders().last().map_or(x.cols(), |enc| enc.fan_out());
    let mut embeddings = Matrix::zeros(nodes.len(), k);
    for (i, &node) in nodes.iter().enumerate() {
        let e = embed_node(gcn, t, x, node)?;
        embeddings.row_mut(i).copy_from_slice(&e);
    }
    gcn.head().predict(&embeddings)
}

/// Classifies the listed nodes with *unmemoised* recursion: the literal
/// per-node neighbourhood-tree expansion of the released GraphSAGE
/// implementation, which recomputes a representation for every *path* to a
/// neighbour rather than every distinct neighbour. This is the Fig. 10
/// baseline; [`predict_nodes`] is the charitable variant that at least
/// memoises within one node's expansion.
///
/// # Errors
///
/// Returns a shape error if `x` does not match the model input dimension.
pub fn predict_nodes_unmemoized(
    gcn: &Gcn,
    t: &GraphTensors,
    x: &Matrix,
    nodes: &[usize],
) -> Result<Matrix> {
    let k = gcn.encoders().last().map_or(x.cols(), |enc| enc.fan_out());
    let mut embeddings = Matrix::zeros(nodes.len(), k);
    for (i, &node) in nodes.iter().enumerate() {
        let e = representation_tree(gcn, t, x, node as u32, gcn.encoders())?;
        embeddings.row_mut(i).copy_from_slice(&e);
    }
    gcn.head().predict(&embeddings)
}

/// The depth-`layers.len()` embedding of `node`, whose last layer is
/// `layers`' last encoder; no layers is the input row itself.
fn representation_tree(
    gcn: &Gcn,
    t: &GraphTensors,
    x: &Matrix,
    node: u32,
    layers: &[Linear],
) -> Result<Vec<f32>> {
    let Some((enc, inner)) = layers.split_last() else {
        return Ok(x.row(node as usize).to_vec());
    };
    let mut g = representation_tree(gcn, t, x, node, inner)?;
    for (w, m) in [(gcn.w_pr(), t.pred()), (gcn.w_su(), t.succ())] {
        for (u, coeff) in m.row(node as usize) {
            // CAST: a CSR column index is stored as u32.
            let r = representation_tree(gcn, t, x, u as u32, inner)?;
            for (gi, ri) in g.iter_mut().zip(&r) {
                *gi += w * coeff * ri;
            }
        }
    }
    let g_mat = Matrix::from_vec(1, g.len(), g)?;
    let z = enc.forward(&g_mat)?;
    Ok(z.row(0).iter().map(|&v| v.max(0.0)).collect())
}

fn representation(
    gcn: &Gcn,
    t: &GraphTensors,
    x: &Matrix,
    node: u32,
    layers: &[Linear],
    memo: &mut HashMap<(u32, usize), Vec<f32>>,
) -> Result<Vec<f32>> {
    let Some((enc, inner)) = layers.split_last() else {
        return Ok(x.row(node as usize).to_vec());
    };
    let depth = layers.len();
    if let Some(cached) = memo.get(&(node, depth)) {
        return Ok(cached.clone());
    }
    // Aggregation: g = e_v + w_pr * sum(pred) + w_su * sum(succ).
    let mut g = representation(gcn, t, x, node, inner, memo)?;
    for (w, m) in [(gcn.w_pr(), t.pred()), (gcn.w_su(), t.succ())] {
        for (u, coeff) in m.row(node as usize) {
            // CAST: a CSR column index is stored as u32.
            let r = representation(gcn, t, x, u as u32, inner, memo)?;
            for (gi, ri) in g.iter_mut().zip(&r) {
                *gi += w * coeff * ri;
            }
        }
    }
    // Encoding: e = ReLU(g W_d + b).
    let g_mat = Matrix::from_vec(1, g.len(), g)?;
    let z = enc.forward(&g_mat)?;
    let e: Vec<f32> = z.row(0).iter().map(|&v| v.max(0.0)).collect();
    memo.insert((node, depth), e.clone());
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GcnConfig, GraphData};
    use gcnt_netlist::{generate, GeneratorConfig};
    use gcnt_nn::seeded_rng;

    fn setup(depth: usize) -> (Gcn, GraphData) {
        let net = generate(&GeneratorConfig::sized("r", 61, 300));
        let data = GraphData::from_netlist(&net, None).unwrap();
        let gcn = Gcn::new(
            &GcnConfig {
                embed_dims: vec![6, 7, 8][..depth].to_vec(),
                fc_dims: vec![5],
                ..GcnConfig::default()
            },
            &mut seeded_rng(9),
        );
        (gcn, data)
    }

    /// The headline correctness property: recursion-based inference and
    /// matrix-form inference are the *same function*.
    #[test]
    fn recursive_matches_matrix_form() {
        for depth in 1..=3 {
            let (gcn, data) = setup(depth);
            let fast = gcn.predict(&data.tensors, &data.features).unwrap();
            let nodes: Vec<usize> = (0..data.node_count()).step_by(17).collect();
            let slow = predict_nodes(&gcn, &data.tensors, &data.features, &nodes).unwrap();
            for (i, &node) in nodes.iter().enumerate() {
                for c in 0..2 {
                    let a = fast.get(node, c);
                    let b = slow.get(i, c);
                    assert!(
                        (a - b).abs() < 1e-3 * (1.0 + a.abs()),
                        "depth {depth} node {node} class {c}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn embed_node_matches_matrix_embedding() {
        let (gcn, data) = setup(2);
        let full = gcn.embed(&data.tensors, &data.features).unwrap();
        for node in [0usize, 5, 50] {
            let e = embed_node(&gcn, &data.tensors, &data.features, node).unwrap();
            for (j, &v) in e.iter().enumerate() {
                let a = full.get(node, j);
                assert!(
                    (a - v).abs() < 1e-3 * (1.0 + a.abs()),
                    "node {node} dim {j}"
                );
            }
        }
    }

    /// Unmemoised and memoised recursion are the same mathematical
    /// function (the memo only removes duplicated work).
    #[test]
    fn unmemoized_matches_memoized() {
        let (gcn, data) = setup(3);
        let nodes: Vec<usize> = (0..data.node_count()).step_by(23).collect();
        let a = predict_nodes(&gcn, &data.tensors, &data.features, &nodes).unwrap();
        let b = predict_nodes_unmemoized(&gcn, &data.tensors, &data.features, &nodes).unwrap();
        for i in 0..nodes.len() {
            for c in 0..2 {
                let x = a.get(i, c);
                let y = b.get(i, c);
                assert!(
                    (x - y).abs() < 1e-3 * (1.0 + x.abs()),
                    "node {i} class {c}: {x} vs {y}"
                );
            }
        }
    }
}
