//! Matrix-backend selection: serial CSR vs. partitioned CSR.
//!
//! A backend computes the whole-matrix aggregate
//! `G = E + w_pr·(P·E) + w_su·(S·E)` ([`MatrixBackend::aggregate`]):
//!
//! * [`MatrixBackend::Serial`] — [`GraphTensors::aggregate_g`] over
//!   [`gcnt_tensor::CsrMatrix::spmm_row_into`];
//! * [`MatrixBackend::Partitioned`] — a [`PartitionedGraph`] holding both
//!   adjacencies sharded under one fanout-balanced
//!   [`gcnt_tensor::PartitionPlan`], running one worker per partition
//!   with a halo exchange per layer ([`gcnt_tensor::PartitionedCsr`]).
//!
//! Both produce **bit-identical** aggregates: the partitioned SpMM
//! preserves the serial kernel's per-row accumulation order, and the
//! element combination is shared.
//!
//! **No forward pass aggregates through a backend any more.** Every pass
//! runs the row-tiled layer step of [`crate::pass`], which reads the
//! graph's own CSRs a tile at a time and runs tiles in parallel — one
//! address space needs contiguous row ranges, not partitions with remapped
//! columns and halo gathers. The `&mut MatrixBackend` parameter of the
//! explicit `*_budgeted_with` forms is kept because `benchmark/` names
//! it, and a pass asks one thing of it: a partitioning built for an older
//! graph state is still refused ([`gcnt_tensor::TensorError::StaleCache`]),
//! as the embedding caches refuse. The type, `PartitionedCsr` under it and
//! the parameter go together in the next change that may edit `benchmark/`
//! (ROADMAP item 2).

use gcnt_tensor::{Matrix, PartitionPlan, PartitionScratch, PartitionedCsr, Result, TensorError};

use crate::GraphTensors;

/// Designs below this node count stay serial under
/// [`MatrixBackend::auto`]: partition setup and per-layer halo gathers
/// only pay off once the adjacency stops fitting in cache.
pub const PARTITION_AUTO_THRESHOLD: usize = 50_000;

/// Most partitions [`MatrixBackend::auto`] will create; beyond ~8 blocks
/// the halo volume grows faster than the per-worker win on CPU cores.
pub const PARTITION_MAX_AUTO: usize = 8;

/// Both adjacency matrices of one design, sharded under a single shared
/// partition plan, plus reusable halo scratch.
#[derive(Debug)]
pub struct PartitionedGraph {
    pred: PartitionedCsr,
    succ: PartitionedCsr,
    pred_scratch: PartitionScratch,
    succ_scratch: PartitionScratch,
    generation: u64,
    n: usize,
}

impl PartitionedGraph {
    /// Partitions both adjacencies of `t` into `parts` blocks balanced by
    /// combined fanin+fanout row weight (one plan for both matrices, so a
    /// partition owns the same node range in either direction).
    ///
    /// # Errors
    ///
    /// Propagates [`gcnt_tensor::PartitionedCsr::from_csr_with_plan`]
    /// errors (non-square adjacency, u32 overflow).
    pub fn new(t: &GraphTensors, parts: usize) -> Result<Self> {
        let pred = t.pred();
        let succ = t.succ();
        let weights: Vec<usize> = pred
            .indptr()
            .iter()
            .zip(pred.indptr().iter().skip(1))
            .zip(succ.indptr().iter().zip(succ.indptr().iter().skip(1)))
            .map(|((&pa, &pb), (&sa, &sb))| (pb - pa) + (sb - sa))
            .collect();
        let plan = PartitionPlan::balanced(&weights, parts);
        Ok(PartitionedGraph {
            pred: PartitionedCsr::from_csr_with_plan(pred, &plan)?,
            succ: PartitionedCsr::from_csr_with_plan(succ, &plan)?,
            pred_scratch: PartitionScratch::new(),
            succ_scratch: PartitionScratch::new(),
            generation: t.generation(),
            n: t.node_count(),
        })
    }

    /// The partitioned predecessor adjacency.
    pub fn pred(&self) -> &PartitionedCsr {
        &self.pred
    }

    /// The partitioned successor adjacency.
    pub fn succ(&self) -> &PartitionedCsr {
        &self.succ
    }

    /// Graph generation this partitioning was built at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Refuses to serve against a graph state this partitioning was not
    /// built for — the same staleness discipline as [`crate::EmbeddingCache`].
    fn check_fresh(&self, t: &GraphTensors) -> Result<()> {
        if self.generation != t.generation() || self.n != t.node_count() {
            return Err(TensorError::StaleCache {
                cache: self.generation,
                graph: t.generation(),
            });
        }
        Ok(())
    }

    /// The aggregate `E + w_pr·(P·E) + w_su·(S·E)` over the partitioned
    /// kernels, bit-identical to [`GraphTensors::aggregate`]'s `g` output
    /// (identical fused `(e + w_pr·pe) + w_su·se` element combination,
    /// SpMM identical by the partition kernel's guarantee).
    ///
    /// # Errors
    ///
    /// [`TensorError::StaleCache`] if the graph moved on since
    /// [`PartitionedGraph::new`], or shape errors from the kernels.
    pub fn aggregate(
        &mut self,
        t: &GraphTensors,
        e: &Matrix,
        w_pr: f32,
        w_su: f32,
    ) -> Result<Matrix> {
        self.check_fresh(t)?;
        let pe = self.pred.spmm_with(e, &mut self.pred_scratch)?;
        let se = self.succ.spmm_with(e, &mut self.succ_scratch)?;
        e.add_scaled2(w_pr, &pe, w_su, &se)
    }
}

/// How the embed loop runs its sparse aggregates; see the module docs.
#[derive(Debug, Default)]
pub enum MatrixBackend {
    /// The original serial-CSR path.
    #[default]
    Serial,
    /// Partition-parallel path over a [`PartitionedGraph`] (boxed: the
    /// sharded arenas dwarf the empty serial variant).
    Partitioned(Box<PartitionedGraph>),
}

impl MatrixBackend {
    /// The serial-CSR backend.
    pub fn serial() -> Self {
        MatrixBackend::Serial
    }

    /// A partitioned backend with an explicit partition count.
    ///
    /// # Errors
    ///
    /// Propagates [`PartitionedGraph::new`] errors.
    pub fn partitioned(t: &GraphTensors, parts: usize) -> Result<Self> {
        Ok(MatrixBackend::Partitioned(Box::new(PartitionedGraph::new(
            t, parts,
        )?)))
    }

    /// Picks a backend from the design size and the machine: partitioned
    /// with one block per core (clamped to 2..=[`PARTITION_MAX_AUTO`])
    /// for designs of at least [`PARTITION_AUTO_THRESHOLD`] nodes on a
    /// multi-core host, serial otherwise.
    pub fn auto(t: &GraphTensors) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        if t.node_count() >= PARTITION_AUTO_THRESHOLD && cores >= 2 {
            let parts = cores.clamp(2, PARTITION_MAX_AUTO);
            // A square adjacency always partitions; fall back to serial
            // if it somehow cannot (e.g. u32 overflow on absurd graphs).
            match Self::partitioned(t, parts) {
                Ok(backend) => backend,
                Err(_) => MatrixBackend::Serial,
            }
        } else {
            MatrixBackend::Serial
        }
    }

    /// Refuses a partitioning built for another graph state — all a
    /// forward pass still asks of its backend ([`crate::pass`] aggregates
    /// through the graph's own CSRs).
    pub(crate) fn check_fresh(&self, t: &GraphTensors) -> Result<()> {
        match self {
            MatrixBackend::Serial => Ok(()),
            MatrixBackend::Partitioned(pg) => pg.check_fresh(t),
        }
    }

    /// Stable label for reports and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            MatrixBackend::Serial => "serial",
            MatrixBackend::Partitioned(_) => "partitioned",
        }
    }

    /// Runs one aggregate round through the selected backend; both arms
    /// produce bit-identical results (see the module docs).
    ///
    /// # Errors
    ///
    /// Shape errors from the kernels, plus
    /// [`TensorError::StaleCache`] from a partitioned backend whose graph
    /// moved on — a backend lives for one pass over one graph state; build
    /// a new one after insertions.
    pub fn aggregate(
        &mut self,
        t: &GraphTensors,
        e: &Matrix,
        w_pr: f32,
        w_su: f32,
    ) -> Result<Matrix> {
        match self {
            // The fused g-only pass: bit-identical to `t.aggregate`'s
            // `g`, without materialising the `P·E` / `S·E` products the
            // inference loop would immediately drop.
            MatrixBackend::Serial => t.aggregate_g(e, w_pr, w_su),
            MatrixBackend::Partitioned(pg) => pg.aggregate(t, e, w_pr, w_su),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphData;
    use gcnt_netlist::{generate, GeneratorConfig};

    fn data(nodes: usize) -> GraphData {
        let net = generate(&GeneratorConfig::sized("bk", 3, nodes));
        GraphData::from_netlist(&net, None).unwrap()
    }

    #[test]
    fn partitioned_aggregate_matches_serial_bitwise() {
        let d = data(300);
        let e = &d.features;
        let (serial, _, _) = d.tensors.aggregate(e, 0.45, 0.55).unwrap();
        for parts in [1usize, 2, 3, 5, 8] {
            let mut backend = MatrixBackend::partitioned(&d.tensors, parts).unwrap();
            assert_eq!(backend.label(), "partitioned");
            let got = backend.aggregate(&d.tensors, e, 0.45, 0.55).unwrap();
            assert_eq!(got, serial, "parts = {parts}");
        }
    }

    #[test]
    fn serial_backend_matches_graph_tensors() {
        let d = data(150);
        let (reference, _, _) = d.tensors.aggregate(&d.features, 0.5, 0.5).unwrap();
        let mut backend = MatrixBackend::serial();
        assert_eq!(backend.label(), "serial");
        let got = backend
            .aggregate(&d.tensors, &d.features, 0.5, 0.5)
            .unwrap();
        assert_eq!(got, reference);
    }

    #[test]
    fn stale_partitioning_is_refused_and_a_fresh_one_serves() {
        let mut net = generate(&GeneratorConfig::sized("bk", 5, 200));
        let d = GraphData::from_netlist(&net, None).unwrap();
        let mut t = d.tensors.clone();
        let mut backend = MatrixBackend::partitioned(&t, 4).unwrap();
        let target = net
            .nodes()
            .find(|&v| !net.fanout(v).is_empty())
            .expect("internal node");
        let op = net.insert_observation_point(target).unwrap();
        t.insert_observation_point(target, op).unwrap();
        let mut x = d.features.clone();
        x.push_row(&[0.0, 1.0, 1.0, 0.0]).unwrap();
        let err = backend.aggregate(&t, &x, 0.5, 0.5);
        assert!(matches!(err, Err(TensorError::StaleCache { .. })));
        // A partitioning built against the grown graph shares one plan
        // between both directions (a block owns the same node range in
        // either) and serves the serial bits.
        let mut fresh = PartitionedGraph::new(&t, 4).unwrap();
        assert_eq!(fresh.pred().starts(), fresh.succ().starts());
        let (reference, _, _) = t.aggregate(&x, 0.5, 0.5).unwrap();
        assert_eq!(fresh.aggregate(&t, &x, 0.5, 0.5).unwrap(), reference);
    }

    #[test]
    fn auto_stays_serial_for_small_designs() {
        let d = data(120);
        let backend = MatrixBackend::auto(&d.tensors);
        assert_eq!(backend.label(), "serial", "120 nodes must stay serial");
    }
}
