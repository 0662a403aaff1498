//! Seeded synthetic design generator.
//!
//! The paper evaluates on four industrial 12nm designs of ~1.4M cells that
//! cannot be redistributed. This generator produces scan-mode gate-level
//! netlists with the structural properties the GCN and the TPI flow
//! actually depend on:
//!
//! * random logic with local structure plus long reconvergent edges,
//! * a realistic gate mix (AND/OR families, inverter chains, XORs, scan
//!   DFFs),
//! * **observability shadows**: regions whose only path to an observable
//!   point runs through an AND gate whose side input is the output of a
//!   wide AND tree over primary inputs. Such a gate is open with
//!   probability `2^-width` under random patterns, so everything behind it
//!   is *difficult to observe* — the positive class of the paper's
//!   classification problem (§3.1).
//!
//! Generation is fully deterministic given the seed.

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::{CellKind, Netlist, NodeId};

/// Configuration for [`generate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Design name recorded on the netlist.
    pub name: String,
    /// RNG seed; equal configs produce identical netlists.
    pub seed: u64,
    /// Number of internal cells to create (excluding primary inputs and the
    /// automatically attached primary outputs).
    pub gates: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Fraction of created cells that are scan DFFs.
    pub dff_fraction: f64,
    /// Maximum fanin of AND/OR-family gates (at least 2).
    pub max_fanin: usize,
    /// Fanins are drawn from the most recent `locality` pool nodes...
    pub locality: usize,
    /// ...except with this probability, when they are drawn uniformly from
    /// the whole pool (creates long reconvergent edges).
    pub long_edge_prob: f64,
    /// Number of observability-shadow regions to embed.
    pub shadow_regions: usize,
    /// Number of hidden gates inside each shadow region.
    pub shadow_depth: usize,
    /// Width of the AND tree gating each shadow's exit (larger = rarer to
    /// open = harder to observe).
    pub shadow_gate_width: usize,
    /// Number of high-fanout *hub* nets (enable/reset-like signals whose
    /// fanout grows with design size, as in real SoCs). `0` picks
    /// `max(4, gates / 50_000)` automatically.
    pub hub_count: usize,
    /// Probability that a gate takes one of its inputs from a hub net.
    pub hub_attach_prob: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            name: "synthetic".to_string(),
            seed: 1,
            gates: 2_000,
            inputs: 128,
            // A high scan-cell share and 2-input gates keep the random
            // logic as observable as synthesized logic: the paper's
            // designs have an edge/node ratio of ~1.5 and a
            // difficult-to-observe rate of ~0.6%; these defaults land at
            // ~1.4 and ~1.5%.
            dff_fraction: 0.25,
            max_fanin: 2,
            locality: 256,
            long_edge_prob: 0.08,
            shadow_regions: 6,
            shadow_depth: 12,
            shadow_gate_width: 12,
            hub_count: 0,
            hub_attach_prob: 0.05,
        }
    }
}

impl GeneratorConfig {
    /// A config that produces roughly `target_nodes` cells in total.
    ///
    /// The generator attaches one `Output` cell per dangling signal, so the
    /// internal gate budget is derated to leave room for them.
    pub fn sized(name: impl Into<String>, seed: u64, target_nodes: usize) -> Self {
        let gates = (target_nodes as f64 * 0.78) as usize;
        let inputs = ((target_nodes as f64 * 0.04) as usize).max(8);
        // One shadow region per ~1500 nodes keeps the positive rate near
        // the paper's ~0.6%.
        let shadow_regions = (target_nodes / 1500).max(1);
        GeneratorConfig {
            name: name.into(),
            seed,
            gates,
            inputs,
            shadow_regions,
            ..GeneratorConfig::default()
        }
    }
}

/// The four benchmark designs of the paper's Table 1, as presets.
///
/// Each preset is a distinct seed and slightly different gate mix so that
/// the four generated designs are as independent as four tape-outs from
/// the same library would be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesignPreset {
    /// Benchmark design B1.
    B1,
    /// Benchmark design B2.
    B2,
    /// Benchmark design B3.
    B3,
    /// Benchmark design B4.
    B4,
}

impl DesignPreset {
    /// All presets in Table 1 order.
    pub const ALL: [DesignPreset; 4] = [
        DesignPreset::B1,
        DesignPreset::B2,
        DesignPreset::B3,
        DesignPreset::B4,
    ];

    /// The design name, e.g. `"B1"`.
    pub fn name(self) -> &'static str {
        match self {
            DesignPreset::B1 => "B1",
            DesignPreset::B2 => "B2",
            DesignPreset::B3 => "B3",
            DesignPreset::B4 => "B4",
        }
    }

    /// Builds the generator config for this preset at a given node scale.
    ///
    /// The paper's designs have ~1.4M nodes; the default experiment scale
    /// is smaller so the whole suite runs quickly. Table 1's relative
    /// proportions are preserved at any scale.
    pub fn config(self, target_nodes: usize) -> GeneratorConfig {
        let (seed, dff, fanin) = match self {
            DesignPreset::B1 => (0xB1, 0.25, 2),
            DesignPreset::B2 => (0xB2, 0.22, 2),
            DesignPreset::B3 => (0xB3, 0.28, 2),
            DesignPreset::B4 => (0xB4, 0.24, 2),
        };
        let mut cfg = GeneratorConfig::sized(self.name(), seed, target_nodes);
        cfg.dff_fraction = dff;
        cfg.max_fanin = fanin;
        cfg
    }

    /// Target node count of this preset at *paper scale* — the 10^5–10^6
    /// range of the paper's four industrial designs (Table 1 lists up to
    /// ~1.4M cells). This is the scale the partitioned matrix backend
    /// exists for.
    pub fn paper_scale(self) -> usize {
        match self {
            DesignPreset::B1 => 120_000,
            DesignPreset::B2 => 260_000,
            DesignPreset::B3 => 520_000,
            DesignPreset::B4 => 960_000,
        }
    }

    /// [`DesignPreset::config`] at [`DesignPreset::paper_scale`], with a
    /// per-preset *fanout profile*: hub-net density and attach
    /// probability, fanin locality, and long-edge rate differ per design,
    /// mimicking how four real SoCs differ in clock-gating/reset fanout
    /// structure. Larger presets carry denser hub trees — exactly the
    /// skew the fanout-balanced partition planner has to absorb.
    pub fn paper_config(self) -> GeneratorConfig {
        let mut cfg = self.config(self.paper_scale());
        match self {
            DesignPreset::B1 => {
                cfg.hub_attach_prob = 0.04;
            }
            DesignPreset::B2 => {
                cfg.hub_attach_prob = 0.06;
                cfg.locality = 384;
                cfg.long_edge_prob = 0.10;
            }
            DesignPreset::B3 => {
                cfg.hub_count = (cfg.gates / 30_000).max(8);
                cfg.hub_attach_prob = 0.08;
                cfg.locality = 512;
            }
            DesignPreset::B4 => {
                cfg.hub_count = (cfg.gates / 20_000).max(16);
                cfg.hub_attach_prob = 0.10;
                cfg.locality = 768;
                cfg.long_edge_prob = 0.12;
            }
        }
        cfg
    }
}

/// Generates a synthetic scan-mode netlist.
///
/// Arities are respected and the combinational logic is acyclic by
/// construction (fanins are only drawn from already-created cells); the
/// design still ends in the validator every [`Netlist`] passes.
///
/// # Examples
///
/// ```
/// use gcnt_netlist::{generate, GeneratorConfig};
///
/// let net = generate(&GeneratorConfig::sized("tiny", 7, 500));
/// assert!(net.node_count() >= 400);
/// assert_eq!(net.topo_order().len(), net.node_count());
/// ```
pub fn generate(cfg: &GeneratorConfig) -> Netlist {
    gcnt_obs::global().incr(gcnt_obs::counters::NETLIST_DESIGNS_GENERATED);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut net = Netlist::new(cfg.name.clone());
    // `pool` holds nodes that later gates may use as fanins; shadow-hidden
    // nodes are deliberately kept out of it.
    let mut pool: Vec<NodeId> = (0..cfg.inputs)
        .map(|_| net.add_cell(CellKind::Input))
        .collect();
    let pis: Vec<NodeId> = pool.clone();

    // High-fanout hub nets (enable/reset-style): buffers off a primary
    // input, attached as side inputs throughout the design. Their fanout
    // scales with the gate count, like clock-gating trees in real SoCs.
    let hub_count = if cfg.hub_count == 0 {
        (cfg.gates / 50_000).max(4)
    } else {
        cfg.hub_count
    };
    let hubs: Vec<NodeId> = (0..hub_count)
        .map(|_| {
            let hub = net.add_cell(CellKind::Buf);
            let src = pis[rng.gen_range(0..pis.len())];
            net.connect(src, hub)
                .expect("fresh buffer accepts a driver");
            hub
        })
        .collect();

    let mut created = hubs.len();
    // Space the shadow regions uniformly through the build.
    let shadow_interval = if cfg.shadow_regions > 0 {
        (cfg.gates / (cfg.shadow_regions + 1)).max(1)
    } else {
        usize::MAX
    };
    let mut next_shadow = shadow_interval;
    let mut shadows_left = cfg.shadow_regions;

    while created < cfg.gates {
        if shadows_left > 0 && created >= next_shadow {
            created += build_shadow(cfg, &mut rng, &mut net, &mut pool, &pis);
            shadows_left -= 1;
            next_shadow += shadow_interval;
            continue;
        }
        let kind = pick_gate_kind(cfg, &mut rng);
        let mut nin = pick_fanin_count(kind, cfg, &mut rng);
        let id = net.add_cell(kind);
        // Multi-input gates occasionally take a hub net as a side input.
        if nin >= 2 && !hubs.is_empty() && rng.gen_bool(cfg.hub_attach_prob.clamp(0.0, 1.0)) {
            let hub = hubs[rng.gen_range(0..hubs.len())];
            if net.connect(hub, id).is_ok() {
                nin -= 1;
            }
        }
        connect_random_fanins(&mut rng, &mut net, &pool, id, nin, cfg);
        pool.push(id);
        created += 1;
    }

    // Promote every dangling signal to a primary output so the design has
    // no floating logic.
    let dangling: Vec<NodeId> = net
        .nodes()
        .filter(|&id| net.fanout(id).is_empty() && net.kind(id) != CellKind::Output)
        .collect();
    for id in dangling {
        let po = net.add_cell(CellKind::Output);
        net.connect(id, po)
            .expect("dangling node accepts an output sink");
    }
    net.validated()
        .expect("generated designs are valid by construction")
}

fn pick_gate_kind(cfg: &GeneratorConfig, rng: &mut StdRng) -> CellKind {
    if rng.gen_bool(cfg.dff_fraction.clamp(0.0, 1.0)) {
        return CellKind::Dff;
    }
    // Weighted mix approximating a post-synthesis standard-cell histogram.
    const MIX: [(CellKind, u32); 9] = [
        (CellKind::And, 18),
        (CellKind::Nand, 18),
        (CellKind::Or, 16),
        (CellKind::Nor, 16),
        (CellKind::Not, 14),
        (CellKind::Buf, 6),
        (CellKind::Xor, 6),
        (CellKind::Xnor, 4),
        (CellKind::And, 2),
    ];
    let total: u32 = MIX.iter().map(|&(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for &(kind, w) in &MIX {
        if roll < w {
            return kind;
        }
        roll -= w;
    }
    CellKind::And
}

fn pick_fanin_count(kind: CellKind, cfg: &GeneratorConfig, rng: &mut StdRng) -> usize {
    let (lo, hi) = kind.arity();
    if lo == hi {
        return lo;
    }
    let max = cfg.max_fanin.clamp(2, 6);
    // Skew towards 2-input gates like real libraries.
    let candidates: Vec<usize> = (2..=max).collect();
    let weights: Vec<u32> = candidates.iter().map(|&c| 1 << (max - c)).collect();
    let total: u32 = weights.iter().sum();
    let mut roll = rng.gen_range(0..total);
    for (&c, &w) in candidates.iter().zip(&weights) {
        if roll < w {
            return c;
        }
        roll -= w;
    }
    2
}

fn connect_random_fanins(
    rng: &mut StdRng,
    net: &mut Netlist,
    pool: &[NodeId],
    id: NodeId,
    nin: usize,
    cfg: &GeneratorConfig,
) {
    let mut connected = 0;
    let mut attempts = 0;
    while connected < nin && attempts < nin * 8 {
        attempts += 1;
        let src = if pool.len() > cfg.locality && !rng.gen_bool(cfg.long_edge_prob) {
            pool[pool.len() - 1 - rng.gen_range(0..cfg.locality)]
        } else {
            pool[rng.gen_range(0..pool.len())]
        };
        if net.connect(src, id).is_ok() {
            connected += 1;
        }
    }
    // Fallback: if duplicates starved us (tiny pools), scan linearly.
    if connected < nin {
        let needed = nin - connected;
        let extra: Vec<NodeId> = pool
            .iter()
            .copied()
            .filter(|&src| !net.fanin(id).contains(&src))
            .take(needed)
            .collect();
        for src in extra {
            net.connect(src, id)
                .expect("filtered out duplicates already");
        }
    }
}

/// Builds one observability-shadow region; returns the number of cells
/// created.
///
/// Layout:
///
/// ```text
/// pi .. pi ─▶ [wide AND tree] ─▶ gate ──┐
///                                       ▼
/// pool ─▶ hidden g1 ─▶ ... ─▶ gN ─▶ [AND] ─▶ exit (joins pool)
/// ```
///
/// The hidden gates have exactly one fanout each, so their only path to an
/// observable point runs through the final AND, which is open only when
/// all `shadow_gate_width` primary inputs are 1.
fn build_shadow(
    cfg: &GeneratorConfig,
    rng: &mut StdRng,
    net: &mut Netlist,
    pool: &mut Vec<NodeId>,
    pis: &[NodeId],
) -> usize {
    let mut created = 0;
    // Gating signal: a *chain* of 2-input ANDs over distinct primary
    // inputs. The open probability is 2^-width, but the SCOAP
    // controllability-1 cost grows only linearly (~2 per level), so the
    // shadow is *SCOAP-deceptive*: single-node testability attributes look
    // ordinary, and only the neighbourhood structure reveals the
    // difficulty — the regime where the paper's GCN beats attribute-only
    // models (Table 2).
    let width = cfg.shadow_gate_width.clamp(2, pis.len());
    let leaves: Vec<NodeId> = pis.choose_multiple(rng, width).copied().collect();
    let mut gating = leaves[0];
    for &pi in &leaves[1..] {
        let g = net.add_cell(CellKind::And);
        net.connect(gating, g).expect("chain is fresh");
        net.connect(pi, g).expect("distinct primary input");
        created += 1;
        gating = g;
    }

    // Hidden chain: single-fanout gates fed from the pool.
    const HIDDEN_KINDS: [CellKind; 5] = [
        CellKind::And,
        CellKind::Or,
        CellKind::Nand,
        CellKind::Nor,
        CellKind::Not,
    ];
    let mut prev = pool[rng.gen_range(0..pool.len())];
    for _ in 0..cfg.shadow_depth {
        let kind = *HIDDEN_KINDS.choose(rng).expect("non-empty");
        let g = net.add_cell(kind);
        net.connect(prev, g).expect("chain edge is fresh");
        if kind.arity().0 >= 2 {
            // Side input from the pool, retried on duplicates.
            for _ in 0..8 {
                let side = pool[rng.gen_range(0..pool.len())];
                if net.connect(side, g).is_ok() {
                    break;
                }
            }
            if net.fanin(g).len() < 2 {
                // Degenerate tiny pool: use a PI.
                let side = pis[rng.gen_range(0..pis.len())];
                let _ = net.connect(side, g);
            }
        }
        created += 1;
        prev = g;
    }

    // Exit gate: only escape path for the hidden chain.
    let exit = net.add_cell(CellKind::And);
    net.connect(prev, exit).expect("chain end is fresh");
    net.connect(gating, exit)
        .expect("gating tree root is distinct from chain end");
    created += 1;
    pool.push(exit);
    created
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scoap;

    #[test]
    fn generated_netlist_validates() {
        let net = generate(&GeneratorConfig::default());
        assert_eq!(net.topo_order().len(), net.node_count());
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = GeneratorConfig::default();
        let a = generate(&cfg);
        cfg.seed = 99;
        let b = generate(&cfg);
        assert_ne!(a, b);
    }

    #[test]
    fn sized_config_hits_target_roughly() {
        let net = generate(&GeneratorConfig::sized("t", 3, 5_000));
        let n = net.node_count();
        assert!(
            (4_000..=6_500).contains(&n),
            "node count {n} far from target 5000"
        );
    }

    #[test]
    fn no_dangling_nodes() {
        let net = generate(&GeneratorConfig::default());
        for id in net.nodes() {
            if net.kind(id) != CellKind::Output {
                assert!(
                    !net.fanout(id).is_empty(),
                    "node {id} of kind {} is dangling",
                    net.kind(id)
                );
            }
        }
    }

    #[test]
    fn adjacency_is_sparse_like_the_paper() {
        let net = generate(&GeneratorConfig::sized("sparse", 5, 10_000));
        let n = net.node_count() as f64;
        let sparsity = 1.0 - net.edge_count() as f64 / (n * n);
        assert!(sparsity > 0.9995, "sparsity = {sparsity}");
    }

    #[test]
    fn shadows_create_unobservable_scoap_tail() {
        let cfg = GeneratorConfig::default();
        let net = generate(&cfg);
        let scoap = Scoap::compute(&net).unwrap();
        // Some internal nodes should have dramatically worse observability
        // than the median — the difficult-to-observe class.
        let mut cos: Vec<u32> = net
            .nodes()
            .filter(|&v| !net.kind(v).is_pseudo_output())
            .map(|v| scoap.co(v))
            .collect();
        cos.sort_unstable();
        let median = cos[cos.len() / 2];
        let max = *cos.last().unwrap();
        assert!(
            max >= median.saturating_mul(4),
            "max co {max} vs median {median}: no hard tail"
        );
    }

    #[test]
    fn paper_scale_targets_span_1e5_to_1e6() {
        let scales: Vec<usize> = DesignPreset::ALL.iter().map(|p| p.paper_scale()).collect();
        assert!(scales.windows(2).all(|w| w[0] < w[1]), "{scales:?}");
        assert!(scales.iter().all(|&s| (100_000..=1_000_000).contains(&s)));
    }

    #[test]
    fn paper_configs_have_distinct_fanout_profiles() {
        let cfgs: Vec<_> = DesignPreset::ALL.iter().map(|p| p.paper_config()).collect();
        for i in 0..cfgs.len() {
            for j in (i + 1)..cfgs.len() {
                let (a, b) = (&cfgs[i], &cfgs[j]);
                assert!(
                    a.hub_attach_prob != b.hub_attach_prob
                        || a.locality != b.locality
                        || a.long_edge_prob != b.long_edge_prob,
                    "presets {i} and {j} share a fanout profile"
                );
            }
        }
    }

    #[test]
    fn smallest_paper_preset_generates_at_1e5_scale() {
        let cfg = DesignPreset::B1.paper_config();
        let net = generate(&cfg);
        let n = net.node_count();
        let target = DesignPreset::B1.paper_scale();
        assert!(
            n >= target * 4 / 5 && n <= target * 13 / 10,
            "node count {n} far from target {target}"
        );
    }

    #[test]
    fn presets_are_distinct_designs() {
        let nets: Vec<_> = DesignPreset::ALL
            .iter()
            .map(|p| generate(&p.config(2_000)))
            .collect();
        for i in 0..nets.len() {
            for j in (i + 1)..nets.len() {
                assert_ne!(nets[i], nets[j]);
            }
        }
    }

    #[test]
    fn preset_names() {
        assert_eq!(DesignPreset::B1.name(), "B1");
        assert_eq!(DesignPreset::ALL.len(), 4);
    }

    #[test]
    fn dff_fraction_is_respected() {
        let mut cfg = GeneratorConfig::sized("d", 11, 4_000);
        cfg.dff_fraction = 0.2;
        let net = generate(&cfg);
        let dffs = net.flip_flops().len() as f64;
        let gates = cfg.gates as f64;
        let ratio = dffs / gates;
        assert!((0.1..0.3).contains(&ratio), "dff ratio {ratio}");
    }
}
