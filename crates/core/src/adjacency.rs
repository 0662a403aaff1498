use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use gcnt_netlist::{Netlist, NodeId};
use gcnt_tensor::{CsrMatrix, Matrix, Result, TensorError};

/// Sparse-tensor view of a netlist graph, ready for matrix-form GCN
/// inference and training.
///
/// The paper's aggregation (Eq. (1)) is
///
/// ```text
/// g_v = e_v + w_pr * sum_{u in PR(v)} e_u + w_su * sum_{u in SU(v)} e_u
/// ```
///
/// which in matrix form is `G = (I + w_pr * P + w_su * S) · E`, where
/// `P[v][u] = 1` iff `u` drives `v` and `S[v][u] = 1` iff `v` drives `u`.
/// Because `w_pr` / `w_su` are *learned*, `P` and `S` are kept as separate
/// unweighted matrices; the scalars are applied per multiplication.
///
/// The graph is stored once per reading direction: CSR rows are cheap to
/// read and expensive to read transposed, and every consumer needs both —
/// the forward pass reads the rows of `P` and `S`, the backward pass
/// multiplies by `Pᵀ` and `Sᵀ`, and the dirty-halo expansion asks who
/// *reads* a node. `S ≡ Pᵀ` (a wire `u → v` is `P[v][u]` and `S[u][v]`),
/// so `succ` serves as `Pᵀ` and `pred` as `Sᵀ`. That is an invariant of
/// the type, not a cache: both matrices are built from the netlist and an
/// observation point is appended to both in place
/// ([`GraphTensors::insert_observation_point`], the update of §4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphTensors {
    n: usize,
    pred: CsrMatrix,
    succ: CsrMatrix,
    /// Whether each direction takes part in aggregation; both `true`
    /// except for [`GraphTensors::with_directions`] ablations.
    use_pred: bool,
    use_succ: bool,
    /// Structural-update counter, bumped by every successful
    /// [`GraphTensors::insert_observation_point`]. Embedding caches record
    /// the generation they were built against and refuse to serve a graph
    /// whose counter has moved on.
    generation: u64,
}

/// Equality compares graph *content* only; `generation` is bookkeeping
/// (how many structural updates a particular value has absorbed), so an
/// incrementally extended graph still compares equal to a from-scratch
/// rebuild of the same netlist.
impl PartialEq for GraphTensors {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.pred == other.pred
            && self.succ == other.succ
            && self.use_pred == other.use_pred
            && self.use_succ == other.use_succ
    }
}

/// The matrix a direction multiplies by: the stored one, or an empty one
/// of the same shape when [`GraphTensors::with_directions`] disabled it.
fn active(m: &CsrMatrix, enabled: bool) -> Cow<'_, CsrMatrix> {
    if enabled {
        Cow::Borrowed(m)
    } else {
        Cow::Owned(CsrMatrix::new(m.rows(), m.cols()))
    }
}

/// The aggregation combine over a block of rows, in place: row `i` of `a`
/// becomes `(src[rows[i]] + wa·a[i]) + wb·b[i]`, element by element — the
/// order of [`Matrix::add_scaled2`] and of `clone` + two
/// [`Matrix::axpy`]s, so every row form is bit for bit its whole-matrix
/// twin.
fn combine_rows(src: &Matrix, rows: &[usize], wa: f32, wb: f32, a: &mut [f32], b: &[f32]) {
    let cols = src.cols().max(1);
    for ((a_row, b_row), &r) in a.chunks_exact_mut(cols).zip(b.chunks_exact(cols)).zip(rows) {
        for ((p, &s), &e) in a_row.iter_mut().zip(b_row).zip(src.row(r)) {
            let t = e + wa * *p;
            *p = t + wb * s;
        }
    }
}

/// The unweighted `n x n` CSR whose row `v` holds `list(net, v)`: copied
/// straight from the netlist's adjacency lists and sorted in place row by
/// row. A netlist never repeats a wire, so nothing needs merging.
fn adjacency_csr(net: &Netlist, list: impl Fn(&Netlist, NodeId) -> &[NodeId]) -> CsrMatrix {
    let n = net.node_count();
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices: Vec<u32> = Vec::with_capacity(net.edge_count());
    indptr.push(0);
    for v in net.nodes() {
        let start = indices.len();
        indices.extend(list(net, v).iter().map(|u| u.index() as u32));
        if let Some(row) = indices.get_mut(start..) {
            row.sort_unstable();
        }
        indptr.push(indices.len());
    }
    let values = vec![1.0; indices.len()];
    let csr = CsrMatrix::from_raw_parts_unchecked(n, n, indptr, indices, values);
    debug_assert!(csr.structure_ok());
    csr
}

impl GraphTensors {
    /// Builds the tensors from a netlist.
    pub fn from_netlist(net: &Netlist) -> Self {
        GraphTensors::with_directions(net, true, true)
    }

    /// Builds the tensors with one aggregation direction optionally
    /// disabled — the ablation of Eq. (1): does the model need
    /// predecessors, successors, or both?
    ///
    /// The structure is stored complete either way ([`GraphTensors::pred`]
    /// and [`GraphTensors::succ`] return it, and so does anything built
    /// from them); a disabled direction contributes an all-zero product
    /// to the `aggregate*` methods of this value.
    pub fn with_directions(net: &Netlist, use_pred: bool, use_succ: bool) -> Self {
        GraphTensors {
            n: net.node_count(),
            pred: adjacency_csr(net, Netlist::fanin),
            succ: adjacency_csr(net, Netlist::fanout),
            use_pred,
            use_succ,
            generation: 0,
        }
    }

    /// Structural-update counter; see the field docs. Starts at 0 and is
    /// bumped by every successful observation-point insertion.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.pred.nnz()
    }

    /// Sparsity of the combined adjacency (the `> 99.95%` the paper
    /// reports).
    pub fn sparsity(&self) -> f64 {
        let total = self.n as f64 * self.n as f64;
        if total == 0.0 {
            return 1.0;
        }
        1.0 - self.pred.nnz() as f64 / total
    }

    /// The predecessor matrix `P` in CSR form.
    pub fn pred(&self) -> &CsrMatrix {
        &self.pred
    }

    /// The successor matrix `S` in CSR form.
    pub fn succ(&self) -> &CsrMatrix {
        &self.succ
    }

    /// Computes one aggregation step `G = E + w_pr * P·E + w_su * S·E`.
    ///
    /// Also returns the intermediate products `P·E` and `S·E`, which the
    /// backward pass needs for the `w_pr` / `w_su` gradients
    /// (C-INTERMEDIATE: callers that only want `G` can drop them).
    ///
    /// # Errors
    ///
    /// Returns a shape error unless `e.rows()` equals the node count.
    pub fn aggregate(&self, e: &Matrix, w_pr: f32, w_su: f32) -> Result<(Matrix, Matrix, Matrix)> {
        let pe = active(&self.pred, self.use_pred).spmm(e)?;
        let se = active(&self.succ, self.use_succ).spmm(e)?;
        let g = e.add_scaled2(w_pr, &pe, w_su, &se)?;
        Ok((g, pe, se))
    }

    /// [`GraphTensors::aggregate`] without the intermediates: computes
    /// `G` alone, row-fused — each output row zeroes two scratch rows,
    /// accumulates its `P·E` / `S·E` rows through the same per-row SpMM
    /// kernel as the full products, and combines them with `E` in the
    /// same `(e + w_pr·pe) + w_su·se` element order. The result is
    /// bit-for-bit the `g` of [`GraphTensors::aggregate`], but the pass
    /// never materialises (or allocates) the `P·E` / `S·E` matrices —
    /// this is the inference path, where the backward pass will never
    /// ask for them.
    ///
    /// # Errors
    ///
    /// Returns a shape error unless `e.rows()` equals the node count.
    pub fn aggregate_g(&self, e: &Matrix, w_pr: f32, w_su: f32) -> Result<Matrix> {
        let cols = e.cols();
        // Narrow embeddings spend more on per-row dispatch than on the
        // arithmetic it saves; the whole-matrix SpMM amortises that
        // machinery across rows and the fused combine stays bit-identical
        // (same per-row k-order, same `(e + w_pr·pe) + w_su·se` element
        // order), so below this width take the materialising path — as
        // does a direction ablation, which only that path knows about.
        if cols < 16 || !(self.use_pred && self.use_succ) {
            let pe = active(&self.pred, self.use_pred).spmm(e)?;
            let se = active(&self.succ, self.use_succ).spmm(e)?;
            return e.add_scaled2(w_pr, &pe, w_su, &se);
        }
        let mut pe_row = vec![0.0f32; cols];
        let mut se_row = vec![0.0f32; cols];
        let mut data = Vec::with_capacity(self.n * cols);
        for r in 0..self.n {
            pe_row.fill(0.0);
            se_row.fill(0.0);
            self.pred.spmm_row_into(r, e, &mut pe_row)?;
            self.succ.spmm_row_into(r, e, &mut se_row)?;
            data.extend(
                e.row(r)
                    .iter()
                    .zip(&pe_row)
                    .zip(&se_row)
                    .map(|((&ev, &pv), &sv)| {
                        let t = ev + w_pr * pv;
                        t + w_su * sv
                    }),
            );
        }
        Matrix::from_vec(self.n, cols, data)
    }

    /// Row-sliced variant of [`GraphTensors::aggregate`] into
    /// caller-provided row blocks: `g` (one row of `e.cols()` values per
    /// entry of `rows`, overwritten) receives those rows of
    /// `G = E + w_pr * P·E + w_su * S·E`, and `scratch`, of the same
    /// length, holds `S·E` on the way. Nothing is allocated, and only the
    /// listed rows of `e` and their one-hop neighbours are read — the rest
    /// of `e` may hold anything.
    ///
    /// Uses the same per-row kernels and the same accumulation order
    /// (`(e + w_pr·pe) + w_su·se` per element) as the full aggregation, so
    /// each row is bit-for-bit equal to the corresponding row of the full
    /// `G` — the contract [`crate::incremental`] depends on.
    ///
    /// # Errors
    ///
    /// Returns a shape error unless `e.rows()` equals the node count, an
    /// index error if any requested row is out of range, and a length
    /// error unless `g` and `scratch` hold `rows.len() * e.cols()` values.
    pub fn aggregate_rows_into(
        &self,
        e: &Matrix,
        rows: &[usize],
        w_pr: f32,
        w_su: f32,
        g: &mut [f32],
        scratch: &mut [f32],
    ) -> Result<()> {
        let forward = [(&self.pred, self.use_pred), (&self.succ, self.use_succ)];
        self.row_products("aggregate_rows", e, rows, forward, g, scratch)?;
        // `g` holds `P·E`.
        combine_rows(e, rows, w_pr, w_su, g, scratch);
        Ok(())
    }

    /// [`GraphTensors::aggregate_rows_into`] that hands back the
    /// intermediates beside `G`: `pe` and `se` receive the rows of `P·E`
    /// and `S·E`, and `g` their combine — all three, row for row, the bits
    /// [`GraphTensors::aggregate`] returns. A training step rebuilds a
    /// tile's aggregate from the retained embedding this way, and needs
    /// `P·E`/`S·E` for the `w_pr`/`w_su` gradients.
    ///
    /// # Errors
    ///
    /// As [`GraphTensors::aggregate_rows_into`], with all three blocks
    /// checked.
    #[expect(clippy::too_many_arguments, reason = "three output blocks")]
    pub fn aggregate_rows_parts_into(
        &self,
        e: &Matrix,
        rows: &[usize],
        w_pr: f32,
        w_su: f32,
        pe: &mut [f32],
        se: &mut [f32],
        g: &mut [f32],
    ) -> Result<()> {
        let forward = [(&self.pred, self.use_pred), (&self.succ, self.use_succ)];
        self.row_products("aggregate_rows", e, rows, forward, pe, se)?;
        if g.len() != pe.len() {
            return Err(TensorError::LengthMismatch {
                expected: pe.len(),
                actual: g.len(),
            });
        }
        g.copy_from_slice(pe);
        combine_rows(e, rows, w_pr, w_su, g, se);
        Ok(())
    }

    /// The listed rows of [`GraphTensors::aggregate_backward`] into a
    /// caller-provided block: `de` (one row of `dg.cols()` values per entry
    /// of `rows`, overwritten) receives `dG + w_pr·Pᵀ·dG + w_su·Sᵀ·dG`, and
    /// `scratch`, of the same length, holds `Sᵀ·dG` on the way. Same
    /// per-row kernels and element order as the whole-matrix form, so each
    /// row is its row bit for bit. The rows of `Pᵀ·dG` gather `dG` from
    /// every reader of the row, which is why a training step keeps `dG`
    /// at `n` rows.
    ///
    /// # Errors
    ///
    /// As [`GraphTensors::aggregate_rows_into`], with `dg` in place of `e`.
    pub fn aggregate_backward_rows_into(
        &self,
        dg: &Matrix,
        rows: &[usize],
        w_pr: f32,
        w_su: f32,
        de: &mut [f32],
        scratch: &mut [f32],
    ) -> Result<()> {
        // `succ` serves as `Pᵀ` and `pred` as `Sᵀ`, each gated by the
        // direction it stands for.
        let backward = [(&self.succ, self.use_pred), (&self.pred, self.use_succ)];
        self.row_products("aggregate_backward_rows", dg, rows, backward, de, scratch)?;
        combine_rows(dg, rows, w_pr, w_su, de, scratch);
        Ok(())
    }

    /// The listed rows of the two products `first·src` into `a` and
    /// `second·src` into `b` (blocks of `rows.len()` rows of `src.cols()`
    /// values, overwritten), a disabled product as all `+0.0` — after
    /// checking `src`, `rows` and both block lengths.
    fn row_products(
        &self,
        op: &'static str,
        src: &Matrix,
        rows: &[usize],
        [first, second]: [(&CsrMatrix, bool); 2],
        a: &mut [f32],
        b: &mut [f32],
    ) -> Result<()> {
        // Checked here as well as by the products: a disabled direction
        // runs none.
        if src.rows() != self.n {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: (self.n, self.n),
                rhs: src.shape(),
            });
        }
        if let Some(&bad) = rows.iter().find(|&&r| r >= self.n) {
            return Err(TensorError::IndexOutOfBounds {
                index: (bad, 0),
                shape: (self.n, self.n),
            });
        }
        for len in [a.len(), b.len()] {
            if len != rows.len() * src.cols() {
                return Err(TensorError::LengthMismatch {
                    expected: rows.len() * src.cols(),
                    actual: len,
                });
            }
        }
        for ((m, enabled), out) in [(first, a), (second, b)] {
            if enabled {
                m.spmm_rows_into(src, rows, out)?;
            } else {
                out.fill(0.0);
            }
        }
        Ok(())
    }

    /// Expands a dirty-node set by one aggregation hop: the result contains
    /// every input node plus every node that reads one of them through
    /// either the predecessor or the successor matrix (both directions,
    /// because [`GraphTensors::aggregate`] sums over both).
    ///
    /// Input indices must be in bounds and the output is sorted and
    /// deduplicated; the expansion is monotone (`rows ⊆ halo_step(rows)`),
    /// which is what lets the incremental engine recompute a growing halo
    /// per layer and stay exact.
    ///
    /// The rows are marked in a bitset and emitted a 64-row word at a
    /// time, so a call costs the rows' adjacency plus `n / 64` words, not a
    /// pass over `n` flags.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= node_count()`.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented-panic API; an out-of-range row is caller misuse, not data"
    )]
    pub fn halo_step(&self, rows: &[usize]) -> Vec<usize> {
        let mut words = vec![0u64; self.n.div_ceil(64)];
        let mut mark = |v: usize| words[v / 64] |= 1 << (v % 64);
        for &u in rows {
            assert!(u < self.n, "row {u} of a {}-node graph", self.n);
            mark(u);
            // Readers of u: the nodes v with u in PR(v) are row u of
            // P^T = S, and those with u in SU(v) are row u of S^T = P.
            for v in self.neighbours(u) {
                mark(v);
            }
        }
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        let mut out = Vec::with_capacity(len);
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Row `u`'s one-hop halo without itself: the nodes that read `u`
    /// through either matrix — also the nodes `u` reads, as `succ ≡ predᵀ`.
    pub(crate) fn neighbours(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.succ.row(u).chain(self.pred.row(u)).map(|(v, _)| v)
    }

    /// Backward of [`GraphTensors::aggregate`] w.r.t. `E`:
    /// `dE = dG + w_pr * Pᵀ·dG + w_su * Sᵀ·dG`.
    ///
    /// # Errors
    ///
    /// Returns a shape error unless `dg.rows()` equals the node count.
    pub fn aggregate_backward(&self, dg: &Matrix, w_pr: f32, w_su: f32) -> Result<Matrix> {
        let pt = active(&self.succ, self.use_pred).spmm(dg)?;
        let st = active(&self.pred, self.use_succ).spmm(dg)?;
        let mut de = dg.clone();
        de.axpy(w_pr, &pt)?;
        de.axpy(w_su, &st)?;
        Ok(de)
    }

    /// Extends the tensors in place after an observation point `op` has
    /// been inserted at `target` in the netlist: the paper's three-tuple
    /// update (§4: `(w_pr, p, v)`, `(w_su, v, p)` — the identity diagonal
    /// is implicit here because aggregation adds `E` directly), applied to
    /// both CSR forms. `op` is the largest index on both axes, so `pred`
    /// gains the last row `[target]` and `succ` an entry at the end of row
    /// `target` — what a rebuild from the netlist would produce.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `op` is not
    /// the next node index after the current node count (i.e. the tensors
    /// are out of sync with the netlist), and
    /// [`TensorError::IndexOutOfBounds`] if `target` is not an
    /// existing node; the tensors are left untouched.
    pub fn insert_observation_point(&mut self, target: NodeId, op: NodeId) -> Result<()> {
        if op.index() != self.n {
            return Err(TensorError::LengthMismatch {
                expected: self.n,
                actual: op.index(),
            });
        }
        if target.index() >= self.n {
            return Err(TensorError::IndexOutOfBounds {
                index: (op.index(), target.index()),
                shape: (self.n, self.n),
            });
        }
        self.pred.append_node(Some(target.index()), None)?;
        self.succ.append_node(None, Some(target.index()))?;
        self.n += 1;
        self.generation += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_netlist::{CellKind, Netlist, NetlistBuilder};

    fn tiny_net() -> (Netlist, NodeId, NodeId, NodeId) {
        let mut net = NetlistBuilder::new("t");
        let a = net.add_cell(CellKind::Input);
        let g = net.add_cell(CellKind::Not);
        let o = net.add_cell(CellKind::Output);
        net.connect(a, g).unwrap();
        net.connect(g, o).unwrap();
        let net = net.build().unwrap();
        (net, a, g, o)
    }

    /// The listed rows of `G`, through [`GraphTensors::aggregate_rows_into`].
    fn aggregate_rows(t: &GraphTensors, e: &Matrix, rows: &[usize], w: (f32, f32)) -> Matrix {
        let mut g = Matrix::zeros(rows.len(), e.cols());
        let mut scratch = vec![0.0; rows.len() * e.cols()];
        t.aggregate_rows_into(e, rows, w.0, w.1, g.as_mut_slice(), &mut scratch)
            .unwrap();
        g
    }

    #[test]
    fn pred_succ_are_transposes_of_each_other() {
        let (net, ..) = tiny_net();
        let t = GraphTensors::from_netlist(&net);
        assert_eq!(*t.pred(), t.succ().transpose());
    }

    #[test]
    fn adjacency_rows_match_netlist() {
        let (net, a, g, o) = tiny_net();
        let t = GraphTensors::from_netlist(&net);
        let cols = |m: &CsrMatrix, v: NodeId| m.row(v.index()).map(|(c, _)| c).collect::<Vec<_>>();
        assert_eq!(cols(t.pred(), g), vec![a.index()]);
        assert_eq!(cols(t.succ(), g), vec![o.index()]);
        assert!(cols(t.pred(), a).is_empty());
    }

    #[test]
    fn aggregate_matches_hand_computation() {
        let (net, a, g, o) = tiny_net();
        let t = GraphTensors::from_netlist(&net);
        let e = Matrix::from_rows(&[&[1.0], &[10.0], &[100.0]]).unwrap();
        let (gm, _, _) = t.aggregate(&e, 0.5, 0.25).unwrap();
        // a: e_a + 0.25 * e_g (successor)
        assert_eq!(gm.get(a.index(), 0), 1.0 + 0.25 * 10.0);
        // g: e_g + 0.5 * e_a + 0.25 * e_o
        assert_eq!(gm.get(g.index(), 0), 10.0 + 0.5 * 1.0 + 0.25 * 100.0);
        // o: e_o + 0.5 * e_g
        assert_eq!(gm.get(o.index(), 0), 100.0 + 0.5 * 10.0);
    }

    #[test]
    fn aggregate_backward_is_adjoint() {
        // <aggregate(E), D> == <E, aggregate_backward(D)> for random E, D.
        let (net, ..) = tiny_net();
        let t = GraphTensors::from_netlist(&net);
        let e = Matrix::from_fn(3, 2, |r, c| (r as f32 + 1.0) * (c as f32 + 0.5));
        let d = Matrix::from_fn(3, 2, |r, c| (r as f32 - 1.0) * (c as f32 + 1.5));
        let (g, _, _) = t.aggregate(&e, 0.7, 0.3).unwrap();
        let de = t.aggregate_backward(&d, 0.7, 0.3).unwrap();
        let lhs = g.dot(&d).unwrap();
        let rhs = e.dot(&de).unwrap();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn insert_observation_point_extends_graph() {
        let (mut net, _, g, _) = tiny_net();
        let mut t = GraphTensors::from_netlist(&net);
        let op = net.insert_observation_point(g).unwrap();
        t.insert_observation_point(g, op).unwrap();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.pred().row(op.index()).next(), Some((g.index(), 1.0)));
        assert_eq!(t.succ().row(g.index()).last(), Some((op.index(), 1.0)));
        // Incremental result equals a from-scratch rebuild.
        let fresh = GraphTensors::from_netlist(&net);
        assert_eq!(t, fresh);
    }

    #[test]
    fn out_of_sync_insert_is_an_error() {
        let (net, _, g, _) = tiny_net();
        let mut t = GraphTensors::from_netlist(&net);
        let before = t.clone();
        // Claim an op id that skips an index.
        let err = t.insert_observation_point(g, NodeId::from_index(10));
        assert!(matches!(
            err,
            Err(TensorError::LengthMismatch {
                expected: 3,
                actual: 10
            })
        ));
        // A target that is not an existing node: beyond the graph, or the
        // new node itself (which would record a self-loop).
        for target in [7, 3] {
            let err = t.insert_observation_point(NodeId::from_index(target), NodeId::from_index(3));
            assert!(
                matches!(err, Err(TensorError::IndexOutOfBounds { .. })),
                "target {target}: {err:?}"
            );
        }
        // The tensors are untouched after the rejected inserts.
        assert_eq!(t, before);
        assert_eq!(t.generation(), 0);
    }

    #[test]
    fn aggregate_rows_matches_full_aggregate_bitwise() {
        let (net, ..) = tiny_net();
        let t = GraphTensors::from_netlist(&net);
        let e = Matrix::from_fn(3, 2, |r, c| (r as f32 + 0.3) * (c as f32 - 1.7));
        let (full, _, _) = t.aggregate(&e, 0.62, 0.31).unwrap();
        let sliced = aggregate_rows(&t, &e, &[2, 0], (0.62, 0.31));
        assert_eq!(sliced.row(0), full.row(2));
        assert_eq!(sliced.row(1), full.row(0));

        // The parts and the backward rows, with each direction on and off.
        let rows = [2usize, 0];
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (use_pred, use_succ) in [(true, true), (true, false), (false, true), (false, false)] {
            let t = GraphTensors::with_directions(&net, use_pred, use_succ);
            let (g, pe, se) = t.aggregate(&e, -0.62, 0.31).unwrap();
            let de = t.aggregate_backward(&e, -0.62, 0.31).unwrap();
            let mut blocks = [[f32::NAN; 4]; 3];
            let [p, s, gb] = &mut blocks;
            t.aggregate_rows_parts_into(&e, &rows, -0.62, 0.31, p, s, gb)
                .unwrap();
            for (block, whole) in blocks.iter().zip([&pe, &se, &g]) {
                let block = Matrix::from_vec(2, 2, block.to_vec()).unwrap();
                assert_eq!(bits(&block), bits(&whole.gather_rows(&rows)));
            }
            let (mut d, mut scratch) = ([f32::NAN; 4], [f32::NAN; 4]);
            t.aggregate_backward_rows_into(&e, &rows, -0.62, 0.31, &mut d, &mut scratch)
                .unwrap();
            let d = Matrix::from_vec(2, 2, d.to_vec()).unwrap();
            assert_eq!(bits(&d), bits(&de.gather_rows(&rows)));
        }
    }

    #[test]
    fn halo_step_expands_both_directions() {
        let (net, a, g, o) = tiny_net();
        let t = GraphTensors::from_netlist(&net);
        // g is read by a (successor matrix) and o (predecessor matrix).
        assert_eq!(
            t.halo_step(&[g.index()]),
            vec![a.index(), g.index(), o.index()]
        );
        // a is read by g only.
        assert_eq!(t.halo_step(&[a.index()]), vec![a.index(), g.index()]);
        assert!(t.halo_step(&[]).is_empty());
    }

    /// The bitset walk against the definition it replaced: one flag per
    /// node, set for each listed row and each of its readers, emitted in
    /// index order.
    #[test]
    fn halo_step_is_the_flag_vector_definition() {
        use rand::Rng;
        let net = gcnt_netlist::generate(&gcnt_netlist::GeneratorConfig::sized("halo", 5, 300));
        let t = GraphTensors::from_netlist(&net);
        let n = t.node_count();
        assert!(n > 3 * 64, "{n} nodes: several words");
        let flags = |rows: &[usize]| {
            let mut touched = vec![false; n];
            for &u in rows {
                touched[u] = true;
                for (v, _) in t.succ().row(u).chain(t.pred().row(u)) {
                    touched[v] = true;
                }
            }
            (0..n).filter(|&v| touched[v]).collect::<Vec<_>>()
        };
        let mut rng = gcnt_nn::seeded_rng(9);
        let mut sets: Vec<Vec<usize>> = vec![Vec::new(), (0..n).collect(), vec![n - 1, 0]];
        for len in [1, 7, 64, 250] {
            sets.push((0..len).map(|_| rng.gen_range(0..n)).collect());
        }
        // Repeated and unsorted.
        sets.push([3, 3, n - 1, 64, 63, 3, 64].to_vec());
        for rows in &sets {
            let got = t.halo_step(rows);
            assert_eq!(got, flags(rows), "{rows:?}");
            assert!(rows.iter().all(|r| got.binary_search(r).is_ok()));
        }
    }

    #[test]
    #[should_panic(expected = "-node graph")]
    fn halo_step_refuses_a_row_outside_the_graph() {
        let net = gcnt_netlist::generate(&gcnt_netlist::GeneratorConfig::sized("halo", 5, 300));
        let t = GraphTensors::from_netlist(&net);
        let n = t.node_count();
        t.halo_step(&[0, n]);
    }

    #[test]
    fn generation_counts_structural_updates_but_not_equality() {
        let (mut net, _, g, _) = tiny_net();
        let mut t = GraphTensors::from_netlist(&net);
        assert_eq!(t.generation(), 0);
        let op = net.insert_observation_point(g).unwrap();
        t.insert_observation_point(g, op).unwrap();
        assert_eq!(t.generation(), 1);
        // A failed insert must not bump the counter.
        assert!(t
            .insert_observation_point(g, NodeId::from_index(99))
            .is_err());
        assert_eq!(t.generation(), 1);
        // Content equality ignores the counter: a rebuild is generation 0.
        let fresh = GraphTensors::from_netlist(&net);
        assert_eq!(fresh.generation(), 0);
        assert_eq!(t, fresh);
    }

    #[test]
    fn directions_can_be_disabled() {
        let (net, a, g, o) = tiny_net();
        let pred_only = GraphTensors::with_directions(&net, true, false);
        // Aggregation with a disabled direction ignores that direction.
        let e = Matrix::from_rows(&[&[1.0], &[10.0], &[100.0]]).unwrap();
        let (gm, _, se) = pred_only.aggregate(&e, 1.0, 1.0).unwrap();
        assert_eq!(gm.get(a.index(), 0), 1.0); // no successor term
        assert_eq!(gm.get(o.index(), 0), 110.0); // predecessor g still counted
        assert_eq!(gm, pred_only.aggregate_g(&e, 1.0, 1.0).unwrap());
        assert_eq!(
            gm.gather_rows(&[2, 0]),
            aggregate_rows(&pred_only, &e, &[2, 0], (1.0, 1.0))
        );
        // The w_su gradient is <dG, S·E>: exactly 0 with S·E all zero.
        let dg = Matrix::from_rows(&[&[2.0], &[3.0], &[5.0]]).unwrap();
        assert_eq!(se.dot(&dg).unwrap(), 0.0);
        // Backward: dE = dG + w_pr * P^T dG, with no S^T term.
        let de = pred_only.aggregate_backward(&dg, 1.0, 1.0).unwrap();
        assert_eq!(de.get(a.index(), 0), 2.0 + 3.0); // a drives g
        assert_eq!(de.get(g.index(), 0), 3.0 + 5.0); // g drives o
        assert_eq!(de.get(o.index(), 0), 5.0); // o drives nothing

        let succ_only = GraphTensors::with_directions(&net, false, true);
        let (gm, pe, _) = succ_only.aggregate(&e, 1.0, 1.0).unwrap();
        assert_eq!(gm.get(a.index(), 0), 11.0); // successor g counted
        assert_eq!(gm.get(o.index(), 0), 100.0); // no predecessor term
        assert_eq!(pe.dot(&dg).unwrap(), 0.0);
        let de = succ_only.aggregate_backward(&dg, 1.0, 1.0).unwrap();
        assert_eq!(de.get(a.index(), 0), 2.0); // nobody lists a as successor
        assert_eq!(de.get(o.index(), 0), 5.0 + 3.0); // g lists o
    }

    #[test]
    fn sparsity_reported() {
        let (net, ..) = tiny_net();
        let t = GraphTensors::from_netlist(&net);
        assert!((t.sparsity() - (1.0 - 2.0 / 9.0)).abs() < 1e-12);
    }
}
