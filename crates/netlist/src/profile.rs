//! Structural profiling of netlists: gate mix, fanout distribution and
//! logic-depth profile.
//!
//! The generator is tuned against profiles like these (edge/node ratio,
//! hub fanouts, depth) so that synthetic designs match the structural
//! statistics the paper reports for its industrial benchmarks.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{CellKind, Netlist};

/// Structural statistics of a netlist beyond the basic
/// [`crate::NetlistStats`] counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetlistProfile {
    /// Count of cells per kind, in [`CellKind::ALL`] order (zero entries
    /// included).
    pub kind_histogram: Vec<(CellKind, usize)>,
    /// Mean fanin over all cells.
    pub avg_fanin: f64,
    /// Mean fanout over all cells.
    pub avg_fanout: f64,
    /// Largest fanout in the design (hub nets).
    pub max_fanout: usize,
    /// Fanout value at the 50th / 90th / 99th percentile.
    pub fanout_percentiles: [usize; 3],
    /// Maximum logic level.
    pub depth: u32,
    /// Logic level at the 50th / 90th / 99th percentile.
    pub level_percentiles: [u32; 3],
}

/// Computes the structural profile of a netlist.
///
/// # Examples
///
/// ```
/// use gcnt_netlist::{generate, profile, GeneratorConfig};
///
/// let net = generate(&GeneratorConfig::sized("p", 3, 1_000));
/// let profile = profile(&net);
/// assert!(profile.avg_fanin > 1.0);
/// assert!(profile.max_fanout >= profile.fanout_percentiles[2]);
/// ```
pub fn profile(net: &Netlist) -> NetlistProfile {
    let n = net.node_count().max(1);
    let mut kind_histogram: Vec<(CellKind, usize)> =
        CellKind::ALL.iter().map(|&k| (k, 0)).collect();
    let mut fanouts: Vec<usize> = Vec::with_capacity(n);
    let mut fanin_total = 0usize;
    for id in net.nodes() {
        let kind = net.kind(id);
        let slot = kind_histogram
            .iter_mut()
            .find(|(k, _)| *k == kind)
            .expect("ALL covers every kind");
        slot.1 += 1;
        fanouts.push(net.fanout(id).len());
        fanin_total += net.fanin(id).len();
    }
    fanouts.sort_unstable();
    let mut sorted_levels = crate::levels::levels(net);
    sorted_levels.sort_unstable();
    let pct = |sorted: &[usize], p: usize| {
        if sorted.is_empty() {
            0
        } else {
            sorted[(sorted.len() - 1) * p / 100]
        }
    };
    let pct_u32 = |sorted: &[u32], p: usize| {
        if sorted.is_empty() {
            0
        } else {
            sorted[(sorted.len() - 1) * p / 100]
        }
    };
    NetlistProfile {
        kind_histogram,
        avg_fanin: fanin_total as f64 / n as f64,
        avg_fanout: fanouts.iter().sum::<usize>() as f64 / n as f64,
        max_fanout: fanouts.last().copied().unwrap_or(0),
        fanout_percentiles: [pct(&fanouts, 50), pct(&fanouts, 90), pct(&fanouts, 99)],
        depth: sorted_levels.last().copied().unwrap_or(0),
        level_percentiles: [
            pct_u32(&sorted_levels, 50),
            pct_u32(&sorted_levels, 90),
            pct_u32(&sorted_levels, 99),
        ],
    }
}

impl fmt::Display for NetlistProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "gate mix:")?;
        for (kind, count) in &self.kind_histogram {
            if *count > 0 {
                writeln!(f, "  {kind:<7} {count}")?;
            }
        }
        writeln!(
            f,
            "fanin avg {:.2}; fanout avg {:.2}, p50/p90/p99 {}/{}/{}, max {}",
            self.avg_fanin,
            self.avg_fanout,
            self.fanout_percentiles[0],
            self.fanout_percentiles[1],
            self.fanout_percentiles[2],
            self.max_fanout
        )?;
        write!(
            f,
            "depth {}, level p50/p90/p99 {}/{}/{}",
            self.depth,
            self.level_percentiles[0],
            self.level_percentiles[1],
            self.level_percentiles[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig};

    #[test]
    fn profile_counts_every_cell() {
        let net = generate(&GeneratorConfig::sized("p", 5, 1_000));
        let p = profile(&net);
        let total: usize = p.kind_histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, net.node_count());
    }

    #[test]
    fn averages_match_edge_count() {
        let net = generate(&GeneratorConfig::sized("p", 6, 800));
        let p = profile(&net);
        let edges = net.edge_count() as f64;
        let n = net.node_count() as f64;
        assert!((p.avg_fanin - edges / n).abs() < 1e-9);
        assert!((p.avg_fanout - edges / n).abs() < 1e-9);
    }

    #[test]
    fn hub_nets_show_in_max_fanout() {
        let net = generate(&GeneratorConfig::sized("hubs", 7, 5_000));
        let p = profile(&net);
        // The generator plants hub nets whose fanout is far above p99.
        assert!(
            p.max_fanout > 5 * p.fanout_percentiles[2].max(1),
            "max {} vs p99 {}",
            p.max_fanout,
            p.fanout_percentiles[2]
        );
    }

    #[test]
    fn percentiles_are_monotone() {
        let net = generate(&GeneratorConfig::sized("mono", 8, 1_500));
        let p = profile(&net);
        assert!(p.fanout_percentiles[0] <= p.fanout_percentiles[1]);
        assert!(p.fanout_percentiles[1] <= p.fanout_percentiles[2]);
        assert!(p.level_percentiles[0] <= p.level_percentiles[1]);
        assert!(p.level_percentiles[1] <= p.level_percentiles[2]);
        assert!(p.level_percentiles[2] <= p.depth);
    }

    #[test]
    fn empty_netlist_profile() {
        let net = crate::NetlistBuilder::new("empty").build().unwrap();
        let p = profile(&net);
        assert_eq!(p.max_fanout, 0);
        assert_eq!(p.depth, 0);
    }

    #[test]
    fn display_is_readable() {
        let net = generate(&GeneratorConfig::sized("disp", 9, 400));
        let text = profile(&net).to_string();
        assert!(text.contains("gate mix"));
        assert!(text.contains("depth"));
    }
}
