//! One row-tiled layer step: the only way a forward pass for inference
//! runs.
//!
//! A GCN layer is row-local once its input exists: row `v` of
//! `E_d = relu((E_{d-1} + w_pr·P·E_{d-1} + w_su·S·E_{d-1}) · W_d + b_d)`
//! reads row `v` of `E_{d-1}` and the rows of `v`'s neighbours, nothing
//! else, and the classifier head reads row `v` of `E_D` alone. Run whole
//! matrices at a time, a pass materialises `P·E`, `S·E`, `G`, `z` and every
//! head activation at `n` rows each — fresh pages the kernel zero-fills,
//! written once, read once, and returned. Here the same arithmetic runs
//! per *tile* of [`TILE_ROWS`] rows: aggregate into a tile buffer, encode,
//! ReLU, and write those rows of the next `E`; the last layer's tile goes
//! straight on through the head and the softmax, and only a probability
//! per row leaves. Tile buffers stay cache-resident and are reused by every
//! tile a worker runs; the only `n`-row storage is what the caller keeps:
//!
//! * a stateless pass (`predict_rows`) keeps two buffers in a
//!   `PassWorkspace` — `E_D` and the head activations never exist;
//! * `Gcn::embed*` (`embed_final`) keeps the same two until it returns
//!   `E_D`;
//! * a session open (`embed_layers`) keeps every `E_d`, because those
//!   *are* the [`crate::EmbeddingCache`], and classifies from it
//!   (`head_rows`);
//! * a dirty-halo refresh patches the cached layers in place
//!   (`embed_layer` over the halo);
//! * a training step ([`crate::train::masked_loss_grads`]) keeps
//!   `E_1..E_{D-1}` (`embed_layers` over all but the last encoder) and
//!   runs the last layer with the head in tiles of its own.
//!
//! Every step takes the rows to compute as a sorted list. A step only
//! reads the rows of its input that the step before computed for it — the
//! listed rows and their neighbours — so a later cascade stage, which
//! embeds a few percent of the graph, writes them into the workspace at
//! their own positions beside whatever an earlier stage left there, and
//! nothing is zero-filled.
//!
//! Tiles are independent, so a step cuts them into contiguous runs, one
//! worker each (`shims/rayon`); the per-row accumulation order is that of
//! the whole-matrix kernels, so every result is bit for bit theirs,
//! whatever the tile size or the number of runs — every step's first
//! argument, `PER_CORE` everywhere but this module's tests.

use gcnt_nn::{Linear, Mlp};
use gcnt_tensor::rayon::prelude::*;
use gcnt_tensor::{ops, Budget, Matrix, Result, TensorError};

use crate::{Gcn, GraphTensors};

/// Rows per tile. At the paper's widths a worker's tile buffers (aggregate
/// and `S·E` at 64 columns, encoder output and head activations at 128)
/// come to ~0.5 MB, which stays in a core's L2 beside the rows the
/// aggregate gathers. The pass reads the same from 64 to 4096 rows on a
/// 4 MB L2 and loses a quarter at 16k (sweep in EXPERIMENTS.md "Tiled
/// pass"); this is the plateau's small end, for hosts with a quarter of
/// that cache. It is not a tuning knob.
pub const TILE_ROWS: usize = 256;

/// As many runs as there are tiles: the row-parallel primitive deals them
/// out, one contiguous stretch per core. The only worker count a caller
/// outside this crate's tests gets.
pub(crate) const PER_CORE: usize = usize::MAX;

/// Per-worker tile buffers, grown on first use and reused by every tile
/// the worker runs.
#[derive(Default)]
struct Scratch {
    /// `P·E` of the tile's rows, then their aggregate `G`; and `S·E`.
    agg: [Vec<f32>; 2],
    /// The tile's encoder output, when it does not go straight to its
    /// rows of the next `E`.
    z: Vec<f32>,
    /// The head's activations.
    head: [Vec<f32>; 2],
}

/// One tile of a step: the rows it computes, where its results go, and
/// how it went.
struct Tile<'a> {
    rows: &'a [usize],
    out: &'a mut [f32],
    status: Result<()>,
}

/// Runs `body(scratch, rows, out)` on every tile and returns the first
/// error. The tiles are cut into at most `runs` contiguous runs, each one
/// worker's with one scratch — so `runs` caps the worker count.
fn run_tiles(
    runs: usize,
    mut tiles: Vec<Tile<'_>>,
    body: impl Fn(&mut Scratch, &[usize], &mut [f32]) -> Result<()> + Sync,
) -> Result<()> {
    let per_run = tiles.len().div_ceil(runs.max(1)).max(1);
    tiles
        .par_chunks_mut(per_run)
        .for_each_init(Scratch::default, |scratch, run| {
            for tile in run {
                tile.status = body(scratch, tile.rows, tile.out);
            }
        });
    tiles.into_iter().try_for_each(|tile| tile.status)
}

/// The tiles of a step that emits one value per entry of `rows`.
fn value_tiles<'a>(rows: &'a [usize], out: &'a mut [f32]) -> Vec<Tile<'a>> {
    rows.chunks(TILE_ROWS)
        .zip(out.chunks_mut(TILE_ROWS))
        .map(|(rows, out)| Tile {
            rows,
            out,
            status: Ok(()),
        })
        .collect()
}

/// The tiles of a step that writes the listed rows of `out` (one
/// `cols`-wide row per node) in place: `rows` ascend, so each tile owns
/// the stretch of `out` from its first row through its last.
fn row_tiles<'a>(rows: &'a [usize], out: &'a mut [f32], cols: usize) -> Vec<Tile<'a>> {
    let mut rest = out;
    // The node whose row `rest` starts with.
    let mut base = 0usize;
    rows.chunks(TILE_ROWS)
        .map(|tile| {
            let first = tile.first().copied().unwrap_or(base);
            let last = tile.last().copied().unwrap_or(first);
            let (_, tail) = std::mem::take(&mut rest).split_at_mut((first - base) * cols);
            let (span, tail) = tail.split_at_mut((last + 1 - first) * cols);
            rest = tail;
            base = last + 1;
            Tile {
                rows: tile,
                out: span,
                status: Ok(()),
            }
        })
        .collect()
}

/// `rows` must ascend strictly and name nodes of an `n`-node graph.
fn check_rows(rows: &[usize], n: usize) -> Result<()> {
    let ascending = rows.windows(2).all(|w| matches!(w, [a, b] if a < b));
    match rows.last() {
        Some(&last) if !ascending || last >= n => Err(TensorError::IndexOutOfBounds {
            index: (last, 0),
            shape: (n, n),
        }),
        _ => Ok(()),
    }
}

pub(crate) fn check_shape(op: &'static str, m: &Matrix, rows: usize, cols: usize) -> Result<()> {
    if m.shape() == (rows, cols) {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch {
            op,
            lhs: (rows, cols),
            rhs: m.shape(),
        })
    }
}

/// A tile's `relu(enc(aggregate(prev)))` into `z`: one row of
/// `enc.fan_out()` values per entry of `rows`.
fn encode_tile(
    agg: &mut [Vec<f32>; 2],
    gcn: &Gcn,
    enc: &Linear,
    t: &GraphTensors,
    prev: &Matrix,
    rows: &[usize],
    z: &mut [f32],
) -> Result<()> {
    let k = prev.cols();
    let [g, se] = agg;
    let g = ops::scratch(g, rows.len() * k);
    let se = ops::scratch(se, rows.len() * k);
    t.aggregate_rows_into(prev, rows, gcn.w_pr(), gcn.w_su(), g, se)?;
    enc.forward_into(g.chunks_exact(k.max(1)), z)?;
    ops::relu_slice(z);
    Ok(())
}

/// A tile's positive-class probabilities from its rows of the final
/// embedding: the head, then the softmax's class-1 column.
fn classify_tile<'a>(
    head: &Mlp,
    bufs: &mut [Vec<f32>; 2],
    e_rows: impl ExactSizeIterator<Item = &'a [f32]>,
    probs: &mut [f32],
) -> Result<()> {
    let logits = head.predict_into(e_rows, bufs)?;
    ops::softmax_col_into(logits, head.fan_out(), 1, probs);
    Ok(())
}

/// One embedding layer on the listed rows, written in place: row `r` of
/// `out` becomes `relu(enc(aggregate(prev)))[r]` for every `r` in `rows`
/// (ascending), bit for bit the whole-matrix layer's row. Other rows of
/// `out` are left alone, and of `prev` only the listed rows and their
/// neighbours are read. Everything is checked before anything is written.
///
/// # Errors
///
/// An index error unless `rows` ascends within the graph, and a shape
/// error unless `prev` and `out` have one row per node and the encoder's
/// widths.
pub(crate) fn embed_layer(
    runs: usize,
    gcn: &Gcn,
    enc: &Linear,
    t: &GraphTensors,
    prev: &Matrix,
    rows: &[usize],
    out: &mut Matrix,
) -> Result<()> {
    let n = t.node_count();
    let m = enc.fan_out();
    check_rows(rows, n)?;
    check_shape("embed_layer input", prev, n, enc.fan_in())?;
    check_shape("embed_layer output", out, n, m)?;
    let tiles = row_tiles(rows, out.as_mut_slice(), m);
    run_tiles(runs, tiles, |scratch, rows, span| {
        if span.len() == rows.len() * m {
            // Consecutive rows: the encoder writes them where they live.
            return encode_tile(&mut scratch.agg, gcn, enc, t, prev, rows, span);
        }
        let z = ops::scratch(&mut scratch.z, rows.len() * m);
        encode_tile(&mut scratch.agg, gcn, enc, t, prev, rows, z)?;
        let first = rows.first().copied().unwrap_or(0);
        for (&r, z_row) in rows.iter().zip(z.chunks_exact(m.max(1))) {
            if let Some(dst) = span.get_mut((r - first) * m..(r - first + 1) * m) {
                dst.copy_from_slice(z_row);
            }
        }
        Ok(())
    })
}

/// The head alone: `probs[i]` becomes the positive-class probability of
/// row `rows[i]` of the final embedding `e`, read in place.
///
/// # Errors
///
/// An index error if a row is outside `e`, a length error unless `probs`
/// has one slot per row, and a shape error if `e` is not as wide as the
/// head's input.
pub(crate) fn head_rows(
    runs: usize,
    head: &Mlp,
    e: &Matrix,
    rows: &[usize],
    probs: &mut [f32],
) -> Result<()> {
    if let Some(&bad) = rows.iter().find(|&&r| r >= e.rows()) {
        return Err(TensorError::IndexOutOfBounds {
            index: (bad, 0),
            shape: e.shape(),
        });
    }
    if probs.len() != rows.len() {
        return Err(TensorError::LengthMismatch {
            expected: rows.len(),
            actual: probs.len(),
        });
    }
    run_tiles(runs, value_tiles(rows, probs), |scratch, rows, probs| {
        let e_rows = rows.iter().map(|&r| e.row(r));
        classify_tile(head, &mut scratch.head, e_rows, probs)
    })
}

/// The last embedding layer fused with the head: `probs[i]` becomes the
/// positive-class probability of node `rows[i]`, its final embedding
/// going from the tile buffer straight through the head — `E_D` and the
/// head's activations never exist beyond a tile.
fn classify_layer(
    runs: usize,
    gcn: &Gcn,
    enc: &Linear,
    t: &GraphTensors,
    prev: &Matrix,
    rows: &[usize],
    probs: &mut [f32],
) -> Result<()> {
    check_shape("classify_layer input", prev, t.node_count(), enc.fan_in())?;
    let m = enc.fan_out();
    run_tiles(runs, value_tiles(rows, probs), |scratch, rows, probs| {
        let z = ops::scratch(&mut scratch.z, rows.len() * m);
        encode_tile(&mut scratch.agg, gcn, enc, t, prev, rows, z)?;
        let e_rows = z.chunks_exact(m.max(1));
        classify_tile(gcn.head(), &mut scratch.head, e_rows, probs)
    })
}

/// The `n`-row buffers of a stateless pass: a layer writes one while
/// reading the other. Made once per pass and reused by every cascade
/// stage; a buffer is reallocated only when a layer's shape differs from
/// the last one it held, and never cleared — see the module docs for why
/// stale rows are never read.
#[derive(Debug)]
pub(crate) struct PassWorkspace {
    bufs: [Matrix; 2],
}

impl PassWorkspace {
    pub(crate) fn new() -> Self {
        PassWorkspace {
            bufs: [Matrix::zeros(0, 0), Matrix::zeros(0, 0)],
        }
    }

    /// Overwrites both buffers with NaN: a step that read a row nobody
    /// computed for it would carry the NaN into its answer.
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        for buf in &mut self.bufs {
            buf.as_mut_slice().fill(f32::NAN);
        }
    }

    /// Every layer of `gcn` but the last, on what `rows` (ascending)
    /// depend on: layer `D-1` on their one-hop halo, the layer below on the
    /// halo of that, and so on down to the features
    /// ([`GraphTensors::halo_step`] is its own inverse because
    /// `succ ≡ predᵀ`). Returns the last layer's input — `E_{D-1}`, or `x`
    /// for a one-layer model — and the buffer it no longer needs. One
    /// budget unit per row a layer is about to compute.
    fn inner_layers<'a>(
        &'a mut self,
        runs: usize,
        gcn: &Gcn,
        t: &GraphTensors,
        x: &'a Matrix,
        rows: &[usize],
        budget: &Budget,
    ) -> Result<(&'a Matrix, &'a mut Matrix)> {
        let n = t.node_count();
        check_rows(rows, n)?;
        let inner = gcn.encoders();
        let inner = inner
            .get(..inner.len().saturating_sub(1))
            .unwrap_or_default();
        // halos[h] is `rows` grown by `h + 1` hops; it stops growing once
        // it is every node.
        let mut halos: Vec<Vec<usize>> = Vec::new();
        for _ in 0..inner.len() {
            let reach = halos.last().map_or(rows, Vec::as_slice);
            if reach.len() == n {
                break;
            }
            halos.push(t.halo_step(reach));
        }
        let [mut out, mut prev] = self.bufs.each_mut();
        for (d, enc) in inner.iter().enumerate() {
            // Layer `d` feeds `inner.len() - d` more aggregations.
            let hops = inner.len() - d;
            let need = halos
                .get(hops - 1)
                .or(halos.last())
                .map_or(rows, Vec::as_slice);
            budget.charge(need.len() as u64)?;
            if out.shape() != (n, enc.fan_out()) {
                // The old buffer goes before the new one comes.
                *out = Matrix::zeros(0, 0);
                *out = Matrix::zeros(n, enc.fan_out());
            }
            embed_layer(runs, gcn, enc, t, if d == 0 { x } else { prev }, need, out)?;
            std::mem::swap(&mut out, &mut prev);
        }
        Ok((if inner.is_empty() { x } else { prev }, out))
    }
}

/// The embedding layers of `encoders` — the first of `gcn`'s — over every
/// node, retained: all of them are what a session caches, all but the last
/// what a training step keeps. One budget unit per node per layer, charged
/// before the layer runs.
///
/// # Errors
///
/// A shape error if `x` does not match the graph and the model, and budget
/// errors from the checkpoints between layers.
pub(crate) fn embed_layers(
    runs: usize,
    gcn: &Gcn,
    encoders: &[Linear],
    t: &GraphTensors,
    x: &Matrix,
    budget: &Budget,
) -> Result<Vec<Matrix>> {
    let n = t.node_count();
    let rows: Vec<usize> = (0..n).collect();
    let mut layers: Vec<Matrix> = Vec::with_capacity(encoders.len());
    for enc in encoders {
        budget.charge(n as u64)?;
        let mut out = Matrix::zeros(n, enc.fan_out());
        let prev = layers.last().unwrap_or(x);
        embed_layer(runs, gcn, enc, t, prev, &rows, &mut out)?;
        layers.push(out);
    }
    Ok(layers)
}

/// The final embedding `E_D` of every node, alone: the layers below it
/// live in a workspace that goes when this returns, and `E_{D-2}` goes
/// before `E_D` comes. Charged as [`embed_layers`].
///
/// # Errors
///
/// As [`embed_layers`].
pub(crate) fn embed_final(
    runs: usize,
    gcn: &Gcn,
    t: &GraphTensors,
    x: &Matrix,
    budget: &Budget,
) -> Result<Matrix> {
    let Some(last) = gcn.encoders().last() else {
        // A depth-0 model embeds a node as its features.
        return Ok(x.clone());
    };
    let n = t.node_count();
    let rows: Vec<usize> = (0..n).collect();
    let mut ws = PassWorkspace::new();
    let (prev, spare) = ws.inner_layers(runs, gcn, t, x, &rows, budget)?;
    budget.charge(n as u64)?;
    *spare = Matrix::zeros(0, 0);
    let mut out = Matrix::zeros(n, last.fan_out());
    embed_layer(runs, gcn, last, t, prev, &rows, &mut out)?;
    Ok(out)
}

/// The positive-class probability of every node in `rows` (ascending)
/// under `gcn`, embedding only what those rows depend on
/// (`PassWorkspace::inner_layers`); with every node listed that is the
/// full pass. Inner layers live in `ws`; the last is fused with the head.
/// The budget is charged one unit per row a layer is about to compute, so
/// it stops the pass at a layer boundary with no partial result.
///
/// # Errors
///
/// An index error unless `rows` ascends within the graph, a shape error
/// if `x` does not match the graph and the model, and budget errors from
/// the checkpoints between layers.
pub(crate) fn predict_rows(
    runs: usize,
    gcn: &Gcn,
    t: &GraphTensors,
    x: &Matrix,
    rows: &[usize],
    budget: &Budget,
    ws: &mut PassWorkspace,
) -> Result<Vec<f32>> {
    let mut probs = vec![0.0f32; rows.len()];
    let Some(last) = gcn.encoders().last() else {
        // A depth-0 model embeds a node as its features.
        check_rows(rows, t.node_count())?;
        head_rows(runs, gcn.head(), x, rows, &mut probs)?;
        return Ok(probs);
    };
    let (prev, _) = ws.inner_layers(runs, gcn, t, x, rows, budget)?;
    budget.charge(rows.len() as u64)?;
    classify_layer(runs, gcn, last, t, prev, rows, &mut probs)?;
    Ok(probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multistage::cascade_rows;
    use crate::{GcnConfig, GraphData, MultiStageGcn};
    use gcnt_netlist::{generate, GeneratorConfig};
    use gcnt_nn::seeded_rng;

    /// A design of a few tiles and a cascade of mixed depths whose
    /// threshold — stage 0's median — sends about half the rows on.
    fn fixture() -> (GraphData, MultiStageGcn) {
        let net = generate(&GeneratorConfig::sized("tiles", 23, 3 * TILE_ROWS + 7));
        let data = GraphData::from_netlist(&net, None).unwrap();
        let stages: Vec<Gcn> = [3usize, 3, 2]
            .iter()
            .zip(90..)
            .map(|(&depth, seed)| {
                let cfg = GcnConfig {
                    embed_dims: [8, 16, 8][..depth].to_vec(),
                    fc_dims: vec![8, 4],
                    ..GcnConfig::default()
                };
                Gcn::new(&cfg, &mut seeded_rng(seed))
            })
            .collect();
        let mut p = whole_matrix(&stages[0], &data);
        p.sort_by(f32::total_cmp);
        let model = MultiStageGcn::from_stages(stages, p[p.len() / 2]);
        (data, model)
    }

    /// One stage over every row from the whole-matrix calls the tiles
    /// replace.
    fn whole_matrix(gcn: &Gcn, data: &GraphData) -> Vec<f32> {
        let mut e = data.features.clone();
        for enc in gcn.encoders() {
            let (g, _, _) = data.tensors.aggregate(&e, gcn.w_pr(), gcn.w_su()).unwrap();
            e = ops::relu(&enc.forward(&g).unwrap());
        }
        ops::softmax_col(&gcn.head().predict(&e).unwrap(), 1)
    }

    /// The cascade rule, node by node, over every stage on every row.
    fn oracle(model: &MultiStageGcn, data: &GraphData) -> Vec<u32> {
        let stages: Vec<Vec<f32>> = model
            .stages()
            .iter()
            .map(|gcn| whole_matrix(gcn, data))
            .collect();
        (0..data.node_count())
            .map(|v| {
                let mut answer = f32::NAN;
                for (s, probs) in stages.iter().enumerate() {
                    answer = probs[v];
                    if s + 1 < stages.len() && answer < model.filter_threshold() {
                        answer = answer.min(0.49);
                        break;
                    }
                }
                answer.to_bits()
            })
            .collect()
    }

    fn bits(probs: &[f32]) -> Vec<u32> {
        probs.iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn a_stage_reads_only_the_rows_computed_for_it() {
        let (data, model) = fixture();
        let (t, x) = (&data.tensors, &data.features);
        let want = oracle(&model, &data);
        let rows: Vec<usize> = (0..t.node_count()).collect();
        let mut ws = PassWorkspace::new();
        // The second pass starts on full-size buffers, so stage 0 too
        // runs over poison.
        for pass in 0..2 {
            let mut reached = Vec::new();
            let got = cascade_rows(
                model.stages(),
                model.filter_threshold(),
                &rows,
                |_, gcn, alive| {
                    reached.push(alive.len());
                    ws.poison();
                    predict_rows(PER_CORE, gcn, t, x, alive, &Budget::unlimited(), &mut ws)
                },
            )
            .unwrap();
            assert_eq!(bits(&got), want, "pass {pass}");
            assert!(
                reached.len() == 3 && reached[2] > 0 && reached[1] < rows.len(),
                "later stages must run on a strict subset: {reached:?}"
            );
        }
    }

    #[test]
    fn one_worker_and_many_agree() {
        let (data, model) = fixture();
        let (t, x) = (&data.tensors, &data.features);
        let want = oracle(&model, &data);
        let rows: Vec<usize> = (0..t.node_count()).collect();
        let (stages, thr) = (model.stages(), model.filter_threshold());
        let free = Budget::unlimited();
        // One run, a ragged split, more runs than tiles, one per tile.
        for runs in [1usize, 2, 3, 7, PER_CORE] {
            let mut ws = PassWorkspace::new();
            let stateless = cascade_rows(stages, thr, &rows, |_, gcn, alive| {
                predict_rows(runs, gcn, t, x, alive, &free, &mut ws)
            });
            assert_eq!(bits(&stateless.unwrap()), want, "{runs} runs, stateless");
            // A session: every layer retained, heads over survivors.
            let caches: Vec<Vec<Matrix>> = stages
                .iter()
                .map(|gcn| embed_layers(runs, gcn, gcn.encoders(), t, x, &free).unwrap())
                .collect();
            let session = cascade_rows(stages, thr, &rows, |s, gcn, alive| {
                let mut probs = vec![0.0; alive.len()];
                let e = caches[s].last().unwrap();
                head_rows(runs, gcn.head(), e, alive, &mut probs).map(|()| probs)
            });
            assert_eq!(bits(&session.unwrap()), want, "{runs} runs, session");
            for (gcn, layers) in stages.iter().zip(&caches) {
                let e = embed_final(runs, gcn, t, x, &free).unwrap();
                assert_eq!(Some(&e), layers.last(), "{runs} runs, final embedding");
            }
        }
    }

    #[test]
    fn row_tiles_cut_the_output_at_each_tiles_own_rows() {
        let cols = 3;
        let n = 5 * TILE_ROWS;
        // Every other row, then a gap, then a dense run: 2.5 tiles.
        let rows: Vec<usize> = (0..3 * TILE_ROWS)
            .step_by(2)
            .chain(4 * TILE_ROWS..5 * TILE_ROWS)
            .collect();
        let mut out = vec![0.0f32; n * cols];
        let mut tiles = row_tiles(&rows, &mut out, cols);
        assert_eq!(tiles.len(), rows.len().div_ceil(TILE_ROWS));
        for (i, tile) in tiles.iter_mut().enumerate() {
            let (first, last) = (tile.rows[0], tile.rows[tile.rows.len() - 1]);
            assert_eq!(tile.out.len(), (last + 1 - first) * cols);
            for &r in tile.rows {
                tile.out[(r - first) * cols..][..cols].fill(i as f32 + 1.0);
            }
        }
        for (r, row) in out.chunks(cols).enumerate() {
            let want = rows
                .binary_search(&r)
                .map_or(0.0, |at| (at / TILE_ROWS) as f32 + 1.0);
            assert!(row.iter().all(|&v| v == want), "row {r}: {row:?}");
        }
        assert!(row_tiles(&[], &mut out, cols).is_empty());
    }

    #[test]
    fn bad_row_lists_and_shapes_are_typed_errors() {
        let (data, model) = fixture();
        let (t, x) = (&data.tensors, &data.features);
        let (gcn, n) = (&model.stages()[0], t.node_count());
        let run = |rows: &[usize], x: &Matrix| {
            predict_rows(
                PER_CORE,
                gcn,
                t,
                x,
                rows,
                &Budget::unlimited(),
                &mut PassWorkspace::new(),
            )
        };
        for rows in [vec![3, 3], vec![5, 2], vec![0, n]] {
            assert!(
                matches!(run(&rows, x), Err(TensorError::IndexOutOfBounds { .. })),
                "{rows:?}"
            );
        }
        let short = Matrix::zeros(n - 1, x.cols());
        let narrow = Matrix::zeros(n, x.cols() - 1);
        for bad in [&short, &narrow] {
            assert!(matches!(
                run(&[0, 1], bad),
                Err(TensorError::ShapeMismatch { .. })
            ));
        }
        assert_eq!(run(&[], x).unwrap(), Vec::<f32>::new());
    }
}
