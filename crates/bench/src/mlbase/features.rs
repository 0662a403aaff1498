//! Handcrafted cone features for classical models.
//!
//! The paper (§5): "we integrate neighborhood features by collecting the
//! features of the nodes in the fan-in cone and fan-out cone. 500 nodes in
//! fan-in cone and 500 nodes in fan-out cone are collected. Starting from
//! the target node, breadth-first-search is performed ... Every time a
//! node is visited, the feature of this node is concatenated to the
//! current feature vector. Therefore, the dimension of the feature vector
//! ... is (500 + 500 + 1) × 4 = 4004."

use gcnt_netlist::{Netlist, NodeId};
use gcnt_tensor::Matrix;

/// Cone-collection settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConeFeatureConfig {
    /// Nodes collected per cone (the paper uses 500).
    pub cone_size: usize,
}

impl Default for ConeFeatureConfig {
    fn default() -> Self {
        ConeFeatureConfig { cone_size: 500 }
    }
}

impl ConeFeatureConfig {
    /// Output dimensionality: `(2 * cone_size + 1) * attrs`.
    pub fn feature_dim(&self, attr_dim: usize) -> usize {
        (2 * self.cone_size + 1) * attr_dim
    }
}

/// Builds the concatenated cone feature matrix for the listed nodes.
///
/// `node_attrs` holds one attribute row per netlist node (typically the
/// normalised `[LL, C0, C1, O]` matrix). Cones shorter than `cone_size`
/// are zero-padded, so every output row has the same dimension.
///
/// # Panics
///
/// Panics if `node_attrs.rows()` differs from the node count or an index
/// is out of bounds.
///
/// # Examples
///
/// ```
/// use gcnt_bench::mlbase::features::{cone_features, ConeFeatureConfig};
/// use gcnt_netlist::{generate, GeneratorConfig};
/// use gcnt_core::features::raw_features_of;
///
/// let net = generate(&GeneratorConfig::sized("c", 3, 300));
/// let attrs = raw_features_of(&net).unwrap();
/// let cfg = ConeFeatureConfig { cone_size: 8 };
/// let f = cone_features(&net, &attrs, &[0, 1, 2], &cfg);
/// assert_eq!(f.shape(), (3, cfg.feature_dim(4)));
/// ```
pub fn cone_features(
    net: &Netlist,
    node_attrs: &Matrix,
    nodes: &[usize],
    cfg: &ConeFeatureConfig,
) -> Matrix {
    assert_eq!(
        node_attrs.rows(),
        net.node_count(),
        "one attribute row per node"
    );
    let attr_dim = node_attrs.cols();
    let dim = cfg.feature_dim(attr_dim);
    let mut out = Matrix::zeros(nodes.len(), dim);
    for (row, &node) in nodes.iter().enumerate() {
        let id = NodeId::from_index(node);
        let dst = out.row_mut(row);
        // Target node first.
        dst[..attr_dim].copy_from_slice(node_attrs.row(node));
        // Fan-in cone in BFS order.
        let fanin = net.fanin_cone(id, cfg.cone_size);
        for (i, v) in fanin.iter().enumerate() {
            let off = (1 + i) * attr_dim;
            dst[off..off + attr_dim].copy_from_slice(node_attrs.row(v.index()));
        }
        // Fan-out cone in BFS order.
        let fanout = net.fanout_cone(id, cfg.cone_size);
        for (i, v) in fanout.iter().enumerate() {
            let off = (1 + cfg.cone_size + i) * attr_dim;
            dst[off..off + attr_dim].copy_from_slice(node_attrs.row(v.index()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_core::features::raw_features_of;
    use gcnt_netlist::{generate, CellKind, GeneratorConfig, NetlistBuilder};

    #[test]
    fn paper_dimension() {
        let cfg = ConeFeatureConfig::default();
        assert_eq!(cfg.feature_dim(4), 4004);
    }

    #[test]
    fn target_attrs_lead_the_vector() {
        let mut net = NetlistBuilder::new("t");
        let a = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Not);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        let attrs = raw_features_of(&net).unwrap();
        let cfg = ConeFeatureConfig { cone_size: 2 };
        let f = cone_features(&net, &attrs, &[g.index()], &cfg);
        assert_eq!(&f.row(0)[..4], attrs.row(g.index()));
        // Fan-in cone of g = [a].
        assert_eq!(&f.row(0)[4..8], attrs.row(a.index()));
        // Fan-out cone of g = [o], placed after the fan-in block.
        let off = (1 + 2) * 4;
        assert_eq!(&f.row(0)[off..off + 4], attrs.row(o.index()));
    }

    #[test]
    fn short_cones_are_zero_padded() {
        let mut net = NetlistBuilder::new("pi");
        let a = net.add_cell(CellKind::Input);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, o).unwrap();
        let net = net.build().unwrap();
        let attrs = raw_features_of(&net).unwrap();
        let cfg = ConeFeatureConfig { cone_size: 3 };
        let f = cone_features(&net, &attrs, &[a.index()], &cfg);
        // a has no fan-in: that whole block is zeros.
        assert!(f.row(0)[4..16].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cone_size_caps_collection() {
        let net = generate(&GeneratorConfig::sized("cap", 7, 400));
        let attrs = raw_features_of(&net).unwrap();
        let cfg = ConeFeatureConfig { cone_size: 4 };
        let f = cone_features(&net, &attrs, &[net.node_count() / 2], &cfg);
        assert_eq!(f.cols(), (2 * 4 + 1) * 4);
    }

    #[test]
    fn cone_features_track_graph_edits() {
        // After inserting an observation point, the target's fan-out cone
        // (and hence its cone feature vector) changes.
        let mut net = generate(&GeneratorConfig::sized("edit", 10, 300));
        let target = net
            .nodes()
            .find(|&v| !net.fanout(v).is_empty() && !net.fanin(v).is_empty())
            .unwrap();
        let cfg = ConeFeatureConfig { cone_size: 8 };
        let attrs_before = raw_features_of(&net).unwrap();
        let before = cone_features(&net, &attrs_before, &[target.index()], &cfg);
        net.insert_observation_point(target).unwrap();
        let attrs_after = raw_features_of(&net).unwrap();
        let after = cone_features(&net, &attrs_after, &[target.index()], &cfg);
        assert_ne!(before, after);
    }

    #[test]
    fn deterministic() {
        let net = generate(&GeneratorConfig::sized("det", 9, 300));
        let attrs = raw_features_of(&net).unwrap();
        let cfg = ConeFeatureConfig { cone_size: 16 };
        let nodes: Vec<usize> = (0..20).collect();
        let a = cone_features(&net, &attrs, &nodes, &cfg);
        let b = cone_features(&net, &attrs, &nodes, &cfg);
        assert_eq!(a, b);
    }
}
