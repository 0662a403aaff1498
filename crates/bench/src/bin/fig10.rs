//! Figure 10 — inference runtime vs graph size: recursion-based
//! computation (GraphSAGE \[12\]-style) vs the paper's sparse matrix-form pipeline
//! (§3.4.1).
//!
//! The paper measures 10^3..10^6-node graphs; the released GraphSAGE
//! implementation needs >1 hour at 10^6 nodes while the matrix form takes
//! 1.5 s. Here both sides are optimised Rust on one machine, so the gap is
//! smaller, but the shape holds: matrix-form inference stays linear in
//! edges while per-node recursion degrades as high-fanout hub nets grow
//! with design size.
//!
//! Recursion cost at large N is measured on a node sample and
//! extrapolated (running it in full is exactly the pathology being
//! demonstrated); pass `--full-recursion` to force full runs.
//!
//! ```text
//! cargo run --release -p gcnt-bench --bin fig10 -- --max-nodes 1000000
//! ```

use std::time::Instant;

use serde::Serialize;

use gcnt_bench::{write_json, Args};
use gcnt_core::{recursive, Gcn, GcnConfig, GraphData, MatrixBackend};
use gcnt_netlist::{generate, GeneratorConfig};
use gcnt_nn::seeded_rng;
use gcnt_tensor::Budget;

#[derive(Serialize)]
struct Point {
    nodes: usize,
    edges: usize,
    backend: &'static str,
    matrix_seconds: f64,
    recursion_seconds: f64,
    recursion_sampled: bool,
    speedup: f64,
}

fn main() {
    let args = Args::parse();
    let max_nodes = args.get_usize("max-nodes", 100_000);
    let full_recursion = args.get_flag("full-recursion");

    println!("Figure 10: inference runtime, recursion vs sparse matrix form\n");
    println!(
        "{:>9} {:>9} {:>12} {:>12} {:>14} {:>9}",
        "#nodes", "#edges", "backend", "matrix (s)", "recursion (s)", "speedup"
    );

    let gcn = Gcn::new(&GcnConfig::default(), &mut seeded_rng(1));
    let mut points = Vec::new();
    let mut size = 1_000usize;
    while size <= max_nodes {
        let net = generate(&GeneratorConfig::sized("fig10", 0xF16, size));
        let data = GraphData::from_netlist(&net, None).expect("generated designs are acyclic");
        let n = data.node_count();

        // The call `infer_b1_120k` times: the backend `auto` picks for
        // this size, built inside the timed region.
        let t0 = Instant::now();
        let mut backend = MatrixBackend::auto(&data.tensors);
        let probs = gcn
            .predict_proba_budgeted_with(
                &data.tensors,
                &data.features,
                &Budget::unlimited(),
                &mut backend,
            )
            .expect("shapes agree");
        let matrix_seconds = t0.elapsed().as_secs_f64();
        assert_eq!(probs.len(), n);

        // Recursion side: full below the cutoff, sampled+extrapolated above.
        let cutoff = 30_000;
        let (recursion_seconds, sampled) = if n <= cutoff || full_recursion {
            let nodes: Vec<usize> = (0..n).collect();
            let t0 = Instant::now();
            let _ =
                recursive::predict_nodes_unmemoized(&gcn, &data.tensors, &data.features, &nodes)
                    .expect("shapes agree");
            (t0.elapsed().as_secs_f64(), false)
        } else {
            let sample: Vec<usize> = (0..n).step_by((n / 500).max(1)).collect();
            let t0 = Instant::now();
            let _ =
                recursive::predict_nodes_unmemoized(&gcn, &data.tensors, &data.features, &sample)
                    .expect("shapes agree");
            let per_node = t0.elapsed().as_secs_f64() / sample.len() as f64;
            (per_node * n as f64, true)
        };
        let speedup = recursion_seconds / matrix_seconds;
        println!(
            "{:>9} {:>9} {:>12} {:>12.3} {:>13.3}{} {:>8.1}x",
            n,
            data.tensors.edge_count(),
            backend.label(),
            matrix_seconds,
            recursion_seconds,
            if sampled { "*" } else { " " },
            speedup
        );
        points.push(Point {
            nodes: n,
            edges: data.tensors.edge_count(),
            backend: backend.label(),
            matrix_seconds,
            recursion_seconds,
            recursion_sampled: sampled,
            speedup,
        });
        size *= 10;
    }
    println!("\n(*) extrapolated from a 500-node sample");
    println!("paper (Python [12] vs GPU pipeline): >1h vs 1.5s at 10^6 nodes (~3 orders)");
    write_json("fig10", &points);
}
