//! `gcnt` — command-line front end for the GCN testability flow.
//!
//! ```text
//! gcnt generate --nodes 20000 --seed 7 --out design.bench
//! gcnt stats    design.bench
//! gcnt label    design.bench --out labels.json
//! gcnt train    a.bench b.bench c.bench --model model.json
//! gcnt infer    design.bench --model model.json
//! gcnt flow     design.bench --model model.json --out modified.bench
//! gcnt atpg     design.bench
//! gcnt lint     design.bench --format json
//! gcnt loadgen  --sessions 8 --journal-dir wal/
//! ```
//!
//! Designs are stored in the plain-text `.bench`-style format of
//! [`gcn_testability::netlist::format`]; models and labels are JSON.

use std::collections::HashMap;
use std::error::Error;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use serde::{Deserialize, Serialize};

use gcn_testability::dft::atpg::{run_random_atpg, AtpgConfig};
use gcn_testability::dft::flow::{run_gcn_opi, FlowConfig};
use gcn_testability::dft::labeler::{label_difficult_to_observe, LabelConfig};
use gcn_testability::gcn::features::FeatureNormalizer;
use gcn_testability::gcn::{GraphData, MultiStageConfig, MultiStageGcn};
use gcn_testability::netlist::{format, generate, profile, GeneratorConfig, Netlist, NetlistError};
use gcn_testability::report;
use gcn_testability::runtime::{CheckpointStore, MultiStageTrainer};
use gcn_testability::store::atomic_write;

/// Handles `--metrics-out PATH`: enables the global metrics registry for
/// the rest of the process and returns where to write snapshots. Must run
/// before the instrumented work starts or the counters undercount.
fn metrics_out(options: &HashMap<String, String>) -> Option<std::path::PathBuf> {
    let path = options.get("metrics-out")?;
    gcn_testability::obs::global().enable();
    Some(std::path::PathBuf::from(path))
}

/// A trained model bundle: the cascade plus the feature normaliser it was
/// trained with (both are required for inductive reuse).
#[derive(Serialize, Deserialize)]
struct ModelBundle {
    normalizer: FeatureNormalizer,
    model: MultiStageGcn,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Some(command) = args.first() else {
        print_usage();
        return Err("missing subcommand".into());
    };
    let (positional, options) = split_args(&args[1..]);
    match command.as_str() {
        "generate" => cmd_generate(&options),
        "stats" => cmd_stats(&positional),
        "label" => cmd_label(&positional, &options),
        "train" => cmd_train(&positional, &options),
        "infer" => cmd_infer(&positional, &options),
        "flow" => cmd_flow(&positional, &options),
        "atpg" => cmd_atpg(&positional, &options),
        "lint" => cmd_lint(&positional, &options),
        "netserve" => cmd_netserve(&options),
        "loadgen" => cmd_loadgen(&options),
        "store" => cmd_store(&positional),
        "checkpoints" => cmd_checkpoints(&positional),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => {
            print_usage();
            Err(format!("unknown subcommand '{other}'").into())
        }
    }
}

fn print_usage() {
    eprintln!(
        "gcnt — GCN-based testability analysis (DAC'19 reproduction)\n\
         \n\
         usage:\n\
         \x20 gcnt generate --nodes N [--seed S] --out design.bench\n\
         \x20 gcnt stats design.bench\n\
         \x20 gcnt label design.bench [--patterns N] [--threshold F] [--out labels.json]\n\
         \x20 gcnt train a.bench [b.bench ...] --model model.json [--epochs N] [--stages N]\n\
         \x20\x20\x20\x20 [--checkpoint-dir DIR] [--resume] [--checkpoint-every N] [--keep N]\n\
         \x20 gcnt infer design.bench --model model.json [--threshold F]\n\
         \x20 gcnt flow design.bench --model model.json [--out modified.bench] [--skip-budget N]\n\
         \x20\x20\x20\x20 [--metrics-out m.json]\n\
         \x20 gcnt atpg design.bench [--patterns N]\n\
         \x20 gcnt lint design.bench [--model model.json] [--format text|json]\n\
         \x20 gcnt netserve [--addr HOST:PORT] [--shards N] [--journal-dir DIR]\n\
         \x20\x20\x20\x20 [--faults plan.json] [--metrics-out m.json]\n\
         \x20 gcnt loadgen [--addr HOST:PORT] [--sessions N] [--workers N] [--shards N]\n\
         \x20\x20\x20\x20 [--flow-jobs N] [--journal-dir DIR] [--faults plan.json]\n\
         \x20\x20\x20\x20 [--metrics-out m.json]\n\
         \x20 gcnt store stat|scrub|compact DIR\n\
         \x20 gcnt checkpoints DIR\n\
         \n\
         --metrics-out writes a metrics snapshot (JSON, or Prometheus text\n\
         for .prom/.txt paths) at shutdown. Machine-readable lines use the\n\
         NET_*/LOADGEN_*/METRICS_* prefix convention (see README, Observability)."
    );
}

fn split_args(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            // A `--option` followed by another `--option` (or by nothing)
            // is a boolean flag; only a plain token is consumed as value.
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                options.insert(key.to_string(), args[i + 1].clone());
                i += 2;
                continue;
            }
            options.insert(key.to_string(), String::new());
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }
    (positional, options)
}

/// `default` when `--key` is absent; a value that is present but does not
/// parse is a usage error naming the option and the text, never a silent
/// run at the default.
fn opt_parsed<T: std::str::FromStr>(
    options: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match options.get(key) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{text}` as a number")),
    }
}

fn opt_usize(
    options: &HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, String> {
    opt_parsed(options, key, default)
}

fn opt_f64(options: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    opt_parsed(options, key, default)
}

fn load_design(path: &str) -> Result<Netlist, Box<dyn Error>> {
    Ok(format::read(&fs::read_to_string(path)?)?)
}

fn cmd_generate(options: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let nodes = opt_usize(options, "nodes", 10_000)?;
    let seed = opt_usize(options, "seed", 1)? as u64;
    let out = options.get("out").ok_or("--out is required")?;
    let net = generate(&GeneratorConfig::sized("generated", seed, nodes));
    fs::write(out, format::write(&net))?;
    println!(
        "wrote {out}: {} nodes, {} edges",
        net.node_count(),
        net.edge_count()
    );
    Ok(())
}

fn cmd_stats(positional: &[String]) -> Result<(), Box<dyn Error>> {
    let path = positional.first().ok_or("expected a design file")?;
    let net = load_design(path)?;
    let stats = net.stats();
    println!("design   : {}", net.name());
    println!("nodes    : {}", stats.nodes);
    println!("edges    : {}", stats.edges);
    println!("inputs   : {}", stats.inputs);
    println!("outputs  : {}", stats.outputs);
    println!("flipflops: {}", stats.dffs);
    println!("depth    : {}", stats.max_level);
    println!("{}", profile(&net));
    Ok(())
}

fn cmd_label(
    positional: &[String],
    options: &HashMap<String, String>,
) -> Result<(), Box<dyn Error>> {
    let path = positional.first().ok_or("expected a design file")?;
    let net = load_design(path)?;
    let cfg = LabelConfig {
        patterns: opt_usize(options, "patterns", 8192)?,
        threshold: opt_f64(options, "threshold", 0.0005)?,
        seed: opt_usize(options, "seed", 0xDF7)? as u64,
    };
    let result = label_difficult_to_observe(&net, &cfg)?;
    println!(
        "{} of {} nodes difficult-to-observe ({:.2}%)",
        result.positive_count(),
        net.node_count(),
        100.0 * result.positive_count() as f64 / net.node_count() as f64
    );
    if let Some(out) = options.get("out") {
        fs::write(out, serde_json::to_string_pretty(&result)?)?;
        println!("wrote {out}");
    }
    Ok(())
}

fn cmd_train(
    positional: &[String],
    options: &HashMap<String, String>,
) -> Result<(), Box<dyn Error>> {
    if positional.is_empty() {
        return Err("expected at least one training design".into());
    }
    let model_path = options.get("model").ok_or("--model is required")?;
    let label_cfg = LabelConfig {
        patterns: opt_usize(options, "patterns", 8192)?,
        threshold: opt_f64(options, "threshold", 0.0005)?,
        seed: 0xDF7,
    };
    let ms_cfg = MultiStageConfig {
        stages: opt_usize(options, "stages", 3)?,
        epochs_per_stage: opt_usize(options, "epochs", 100)?,
        ..MultiStageConfig::default()
    };
    let keep = opt_usize(options, "keep", 3)?;
    let checkpoint_every = opt_usize(options, "checkpoint-every", 25)?;
    // Load, label, and prepare every design with a shared normaliser.
    let mut nets = Vec::new();
    for path in positional {
        let net = load_design(path)?;
        println!("loaded {path}: {} nodes", net.node_count());
        nets.push(net);
    }
    let mut raw = Vec::new();
    let mut labels = Vec::new();
    for net in &nets {
        raw.push(gcn_testability::gcn::features::raw_features_of(net)?);
        let l = label_difficult_to_observe(net, &label_cfg)?;
        println!("  {}: {} positives", net.name(), l.positive_count());
        labels.push(l.labels);
    }
    let normalizer = FeatureNormalizer::fit(&raw.iter().collect::<Vec<_>>());
    let data: Vec<GraphData> = nets
        .iter()
        .zip(labels)
        .map(|(net, l)| GraphData::from_netlist(net, Some(&normalizer)).map(|d| d.with_labels(l)))
        .collect::<Result<_, _>>()?;

    let refs: Vec<&GraphData> = data.iter().collect();
    // One trainer for every run: divergence guards always; with --checkpoint-dir also
    // checksummed checkpoints and bit-for-bit deterministic resume.
    let store = match options.get("checkpoint-dir") {
        Some(dir) => Some(CheckpointStore::open(dir, keep)?),
        None => None,
    };
    let mut trainer = MultiStageTrainer::new(ms_cfg);
    trainer.guard.checkpoint_every = checkpoint_every;
    trainer.store = store.as_ref();
    trainer.resume = options.contains_key("resume");
    let outcome = trainer.run(&refs)?;
    for e in &outcome.skipped {
        eprintln!("skipped checkpoint: {e}");
    }
    if let Some((stage, epoch)) = outcome.resumed_from {
        println!("resumed from stage {stage}, epoch {epoch}");
    }
    for r in &outcome.rollbacks {
        println!(
            "rollback at epoch {}: {} (lr now {:.6})",
            r.epoch, r.cause, r.lr_after
        );
    }
    for r in &outcome.reports {
        println!(
            "stage {}: {} active ({} pos), pos_weight {:.1}, filtered {}",
            r.stage, r.active, r.positives, r.pos_weight, r.filtered
        );
    }
    let bundle = ModelBundle {
        normalizer,
        model: outcome.model,
    };
    atomic_write(
        model_path.as_ref(),
        serde_json::to_string(&bundle)?.as_bytes(),
    )?;
    println!("wrote {model_path}");
    Ok(())
}

fn load_model(options: &HashMap<String, String>) -> Result<ModelBundle, Box<dyn Error>> {
    let model_path = options.get("model").ok_or("--model is required")?;
    let text = fs::read_to_string(model_path)
        .map_err(|e| format!("cannot read model '{model_path}': {e}"))?;
    // The cascade and the normaliser check their own shapes and values.
    Ok(serde_json::from_str(&text)
        .map_err(|e| format!("model '{model_path}' is not a valid model bundle: {e}"))?)
}

/// The directory an inspecting command reads. It must exist already: the
/// stores behind these commands create a missing one on open, which would
/// turn a mistyped path into a freshly made, trivially clean store.
fn existing_dir<'a>(dir: Option<&'a String>, what: &str) -> Result<&'a str, Box<dyn Error>> {
    let dir = dir.ok_or(format!("expected a {what} directory"))?;
    if !Path::new(dir).is_dir() {
        return Err(format!("no {what} directory at '{dir}'").into());
    }
    Ok(dir)
}

fn cmd_checkpoints(positional: &[String]) -> Result<(), Box<dyn Error>> {
    let dir = existing_dir(positional.first(), "checkpoint")?;
    let store = CheckpointStore::open(dir, usize::MAX)?;
    let files = store.list()?;
    if files.is_empty() {
        println!("no checkpoints in {dir}");
        return Ok(());
    }
    let mut bad = 0usize;
    for path in &files {
        match store.load(path, false) {
            Ok(state) => println!(
                "{}: stage {}, epoch {}, lr {:.6}, {} retries used{}",
                path.display(),
                state.stage,
                state.epoch,
                state.lr,
                state.retries_used,
                if state.rng.is_some() {
                    ", resumable cascade"
                } else {
                    ""
                }
            ),
            Err(e) => {
                bad += 1;
                println!("{}: INVALID — {e}", path.display());
            }
        }
    }
    if bad > 0 {
        return Err(format!("{bad} of {} checkpoint(s) failed validation", files.len()).into());
    }
    Ok(())
}

fn cmd_infer(
    positional: &[String],
    options: &HashMap<String, String>,
) -> Result<(), Box<dyn Error>> {
    let path = positional.first().ok_or("expected a design file")?;
    let net = load_design(path)?;
    let bundle = load_model(options)?;
    let threshold = opt_f64(options, "threshold", 0.5)? as f32;
    let data = GraphData::from_netlist(&net, Some(&bundle.normalizer))?;
    let probs = bundle.model.predict_proba(&data.tensors, &data.features)?;
    let mut positives: Vec<(usize, f32)> = probs
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p >= threshold)
        .map(|(i, &p)| (i, p))
        .collect();
    positives.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    println!(
        "{} of {} nodes predicted difficult-to-observe",
        positives.len(),
        net.node_count()
    );
    for (i, p) in positives.iter().take(20) {
        println!("  n{i}  p = {p:.3}");
    }
    if positives.len() > 20 {
        println!("  ... and {} more", positives.len() - 20);
    }
    Ok(())
}

fn cmd_flow(
    positional: &[String],
    options: &HashMap<String, String>,
) -> Result<(), Box<dyn Error>> {
    let metrics_path = metrics_out(options);
    let path = positional.first().ok_or("expected a design file")?;
    let mut net = load_design(path)?;
    let bundle = load_model(options)?;
    let cfg = FlowConfig {
        max_iterations: opt_usize(options, "iterations", 12)?,
        ops_per_iteration: opt_usize(options, "ops-per-iteration", 16)?,
        skip_budget: opt_usize(options, "skip-budget", 0)?,
        ..FlowConfig::default()
    };
    let outcome = run_gcn_opi(&mut net, &bundle.normalizer, &bundle.model, &cfg)?;
    println!(
        "inserted {} observation points in {} iterations (converged: {})",
        outcome.inserted.len(),
        outcome.history.len(),
        outcome.converged
    );
    let inf = &outcome.inference;
    println!(
        "inference: {} calls, {} embedding rows computed of {} full-equivalent ({:.1}x reuse)",
        inf.inferences,
        inf.rows_computed,
        inf.rows_full,
        if inf.rows_computed > 0 {
            inf.rows_full as f64 / inf.rows_computed as f64
        } else {
            1.0
        }
    );
    for stat in &outcome.history {
        println!(
            "  iteration {}: {} positives, {} inserted",
            stat.iteration, stat.positives, stat.inserted
        );
    }
    if !outcome.skipped.is_empty() {
        println!(
            "skipped {} failed insertion(s) under the skip budget",
            outcome.skipped.len()
        );
    }
    if let Some(out) = options.get("out") {
        atomic_write(out.as_ref(), format::write(&net).as_bytes())?;
        println!("wrote {out}");
    }
    if let Some(metrics) = metrics_path {
        report::write_metrics_snapshot(&metrics)?;
    }
    Ok(())
}

fn cmd_lint(
    positional: &[String],
    options: &HashMap<String, String>,
) -> Result<(), Box<dyn Error>> {
    use gcn_testability::lint::{lint_design, lint_violations};
    let path = positional.first().ok_or("expected a design file")?;
    // A design that fails validation is exactly what the linter is for:
    // report every violation the reader found, not just the first.
    let report = match format::read(&fs::read_to_string(path)?) {
        Ok(net) => lint_design(&net),
        Err(NetlistError::Invalid(violations)) => lint_violations(&violations),
        Err(e) => return Err(e.into()),
    };
    if options.contains_key("model") {
        load_model(options)?;
    }
    match options.get("format").map(String::as_str) {
        None | Some("text") => print!("{report}"),
        Some("json") => println!("{}", report.to_json()),
        Some(other) => return Err(format!("unknown format '{other}' (use text or json)").into()),
    }
    if report.has_errors() {
        return Err(format!(
            "lint found {} error(s)",
            report.count(gcn_testability::lint::Severity::Error)
        )
        .into());
    }
    Ok(())
}

/// Parses `--faults plan.json` into a [`FaultPlan`]. Deterministic fault
/// injection only exists in `fault-inject` builds; a production binary
/// refuses the flag outright instead of silently ignoring it.
#[cfg(feature = "fault-inject")]
fn load_fault_plan(path: &str) -> Result<gcn_testability::runtime::FaultPlan, Box<dyn Error>> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    gcn_testability::runtime::FaultPlan::from_json(&text)
        .map_err(|e| format!("fault plan '{path}': {e}").into())
}

#[cfg(not(feature = "fault-inject"))]
fn load_fault_plan(_path: &str) -> Result<gcn_testability::runtime::FaultPlan, Box<dyn Error>> {
    Err("--faults requires a binary built with `--features fault-inject`".into())
}

/// One core per shard around the serving fixture: a seeded (untrained)
/// 2-stage `[8, 8]`/`[8]` cascade and the normaliser fitted on the seeded
/// 400-node `"netfixture"` design — the same on every run, shard and
/// machine, so `LOADGEN_FLOW` checksums reproduce. Every core carries
/// `plan`'s serve-side faults.
fn net_fixture_cores(
    shards: usize,
    plan: &gcn_testability::runtime::FaultPlan,
) -> Result<Vec<gcn_testability::serve::ServeCore>, Box<dyn Error>> {
    use gcn_testability::gcn::{features::raw_features_of, Gcn, GcnConfig};
    use gcn_testability::serve::{ServeConfig, ServeCore};

    let net = generate(&GeneratorConfig::sized("netfixture", 7, 400));
    let gcn_cfg = GcnConfig {
        embed_dims: vec![8, 8],
        fc_dims: vec![8],
        ..GcnConfig::default()
    };
    let stages = vec![
        Gcn::new(&gcn_cfg, &mut gcn_testability::nn::seeded_rng(41)),
        Gcn::new(&gcn_cfg, &mut gcn_testability::nn::seeded_rng(42)),
    ];
    let normalizer = FeatureNormalizer::fit(&[&raw_features_of(&net)?]);
    let model = MultiStageGcn::from_stages(stages, 0.5);
    Ok((0..shards)
        .map(|_| {
            ServeCore::new(normalizer.clone(), model.clone(), ServeConfig::default())
                .with_faults(plan.clone())
        })
        .collect())
}

/// The fixture server's serve loop: it runs until a drain is requested
/// (SIGTERM or a client `Drain` frame), finishes or journals in-flight
/// jobs, and emits `NET_DRAIN` with the lifetime summary.
type ServeLoop = Box<dyn FnOnce() -> Result<(), gcn_testability::net::NetError> + Send>;

/// Starts the fixture server on `addr`: [`net_fixture_cores`] behind a
/// shard router journaling under `journal_dir`. Returns the bound address
/// and the serve loop; `gcnt netserve` runs the loop on its main thread,
/// `gcnt loadgen` on a thread of its own.
fn start_fixture_server(
    addr: &str,
    shards: usize,
    journal_dir: &str,
    plan: gcn_testability::runtime::FaultPlan,
) -> Result<(String, ServeLoop), Box<dyn Error>> {
    use gcn_testability::net::{serve as net_serve, Listener, NetServerConfig, ShardRouter};

    let router = ShardRouter::start(net_fixture_cores(shards, &plan)?, journal_dir.as_ref())?;
    let listener = Listener::bind_tcp(addr)?;
    let actual = listener
        .local_addr()
        .ok_or("listener has no local address")?
        .to_string();
    let serve: ServeLoop = Box::new(move || {
        let (summary, _cores) = net_serve(listener, router, NetServerConfig::default(), &plan)?;
        report::net("DRAIN")
            .field("connections", summary.connections)
            .field("frames", summary.frames_received)
            .field("jobs", summary.jobs_completed)
            .field("refusals", summary.refusals)
            .field("evictions", summary.slow_loris_evictions)
            .field("pending_at_drain", summary.pending_at_drain)
            .emit();
        Ok(())
    });
    Ok((actual, serve))
}

/// `gcnt netserve`: the fixture server over real TCP. Emits `NET_READY`
/// once the listener is bound, installs a SIGTERM handler, and serves
/// until a drain is requested, then exits cleanly.
fn cmd_netserve(options: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    use gcn_testability::runtime::FaultPlan;

    let metrics_path = metrics_out(options);
    let plan = match options.get("faults") {
        Some(path) => load_fault_plan(path)?,
        None => FaultPlan::none(),
    };
    let shards = opt_usize(options, "shards", 2)?.max(1);
    let addr = options
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let journal_dir = options
        .get("journal-dir")
        .map(String::as_str)
        .unwrap_or("netserve-journals");

    let (actual, serve) = start_fixture_server(addr, shards, journal_dir, plan)?;
    gcn_testability::net::install_term_handler();
    report::net("READY")
        .field("addr", &actual)
        .field("shards", shards)
        .field("pid", std::process::id())
        .emit();
    serve()?;
    if let Some(metrics) = metrics_path {
        report::write_metrics_snapshot(&metrics)?;
    }
    Ok(())
}

/// `gcnt loadgen`: drives many concurrent client sessions against a
/// server — an external one (`--addr`, e.g. a backgrounded `gcnt
/// netserve`) or an in-process fixture server it spins up itself. The
/// first `--flow-jobs` sessions run journaled flow jobs and emit one
/// `LOADGEN_FLOW` line each (checksums are the bit-identity handle for
/// the kill/resume tests and the CI network fault matrix); the rest run
/// inference. With `--faults`, session 0 carries the client-side fault
/// plan and every core of the in-process server the serve-side hooks, so
/// every fault scenario is reproducible from one JSON file. Ends with
/// `LOADGEN_DONE` carrying error counts and p50/p99/p999 request latency
/// from the `gcnt_net_request_latency_ns` histogram; any *untyped*
/// failure (hang, wrong payload, exhausted retries) makes the exit
/// nonzero.
fn cmd_loadgen(options: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    use gcn_testability::net::{ClientConfig, Dialer, FlowRequest, NetClient, NetError};
    use gcn_testability::obs::Snapshot;
    use gcn_testability::runtime::FaultPlan;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    // Quantiles come from the global histogram, so the registry must be
    // live before the first request regardless of --metrics-out.
    gcn_testability::obs::global().enable();
    let metrics_path = metrics_out(options);
    let plan = match options.get("faults") {
        Some(path) => load_fault_plan(path)?,
        None => FaultPlan::none(),
    };
    let sessions = opt_usize(options, "sessions", 100)?.max(1);
    let workers = opt_usize(options, "workers", 8)?.clamp(1, 64);
    let flow_jobs = opt_usize(options, "flow-jobs", 2)?.min(sessions);
    let shards = opt_usize(options, "shards", 4)?.max(1);

    // An in-process server is spun up unless --addr points elsewhere.
    let (addr, server) = match options.get("addr") {
        Some(a) => (a.clone(), None),
        None => {
            let journal_dir = options.get("journal-dir").cloned().unwrap_or_else(|| {
                std::env::temp_dir()
                    .join(format!("gcnt-loadgen-{}", std::process::id()))
                    .display()
                    .to_string()
            });
            let (actual, serve) =
                start_fixture_server("127.0.0.1:0", shards, &journal_dir, plan.clone())?;
            (actual, Some(std::thread::spawn(serve)))
        }
    };

    // A small pool of deterministic design variants spreads sessions
    // across shards (routing hashes the design text).
    let variants: Arc<Vec<String>> = Arc::new(
        (0..8u64)
            .map(|k| format::write(&generate(&GeneratorConfig::sized("netfixture", 7 + k, 400))))
            .collect(),
    );

    let next = Arc::new(AtomicUsize::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let typed = Arc::new(AtomicU64::new(0));
    let transport = Arc::new(AtomicU64::new(0));
    let mut pool = Vec::new();
    for _ in 0..workers {
        let next = Arc::clone(&next);
        let ok = Arc::clone(&ok);
        let typed = Arc::clone(&typed);
        let transport = Arc::clone(&transport);
        let variants = Arc::clone(&variants);
        let addr = addr.clone();
        let plan = plan.clone();
        pool.push(std::thread::spawn(move || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= sessions {
                break;
            }
            // Session 0 carries the client-side fault plan; the rest
            // run clean so the run's tail is a pure throughput measure.
            let session_plan = if i == 0 {
                plan.clone()
            } else {
                FaultPlan::none()
            };
            let started = std::time::Instant::now();
            let outcome = (|| -> Result<(), NetError> {
                // A load client is deliberately saturating the server, so
                // it rides out Overloaded refusals with a deeper retry
                // budget than the interactive default.
                let config = ClientConfig {
                    request_retries: 8,
                    ..ClientConfig::default()
                };
                let mut client = NetClient::connect_with_faults(
                    Dialer::Tcp(addr.clone()),
                    config,
                    session_plan,
                )?;
                let design = variants
                    .get(i % variants.len())
                    .ok_or_else(|| NetError::Protocol("variant pool is empty".to_string()))?;
                if i < flow_jobs {
                    let reply = client.flow(&FlowRequest {
                        design: design.clone(),
                        job_id: format!("load-{i}"),
                        max_iterations: 2,
                        ops_per_iteration: 1,
                        prob_threshold_milli: 50,
                        deadline_rows: 0,
                    })?;
                    report::loadgen("FLOW")
                        .field("job", format_args!("load-{i}"))
                        .field("shard", reply.shard)
                        .field("resumed", reply.resumed_batches)
                        .field("checksum", &reply.outcome_checksum)
                        .emit();
                } else {
                    let reply = client.infer(design, 0)?;
                    if reply.probs_len == 0 {
                        return Err(NetError::Protocol("empty inference reply".to_string()));
                    }
                }
                Ok(())
            })();
            let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            gcn_testability::obs::global()
                .observe(gcn_testability::obs::histograms::NET_REQUEST_NS, elapsed);
            match outcome {
                Ok(()) => ok.fetch_add(1, Ordering::Relaxed),
                Err(NetError::Server { .. }) => typed.fetch_add(1, Ordering::Relaxed),
                Err(_) => transport.fetch_add(1, Ordering::Relaxed),
            };
        }));
    }
    for worker in pool {
        worker
            .join()
            .map_err(|_| "a loadgen worker thread panicked")?;
    }

    // Drain the in-process server so its jobs_completed is final.
    if let Some(handle) = server {
        let mut closer = NetClient::connect(Dialer::Tcp(addr), ClientConfig::default())?;
        closer.drain()?;
        drop(closer);
        handle
            .join()
            .map_err(|_| "loadgen server thread panicked")??;
    }

    let snap = Snapshot::capture(gcn_testability::obs::global());
    let latency = snap.histogram("gcnt_net_request_latency_ns");
    let quantile = |q: f64| latency.map_or(0, |h| h.quantile(q));
    let transport_errors = transport.load(Ordering::Relaxed);
    report::loadgen("DONE")
        .field("sessions", sessions)
        .field("ok", ok.load(Ordering::Relaxed))
        .field("typed_refusals", typed.load(Ordering::Relaxed))
        .field("transport_errors", transport_errors)
        .field("flows", flow_jobs)
        .field("p50_ns", quantile(0.5))
        .field("p99_ns", quantile(0.99))
        .field("p999_ns", quantile(0.999))
        .emit();
    if let Some(metrics) = metrics_path {
        report::write_metrics_snapshot(&metrics)?;
    }
    if transport_errors > 0 {
        return Err(format!("{transport_errors} session(s) failed without a typed refusal").into());
    }
    Ok(())
}

/// `gcnt store`: operator tooling over a [`gcn_testability::store`]
/// directory. `stat` summarises pages/segments, `scrub` re-reads and
/// re-checksums every committed page and page reference (failing with one
/// line per error), and `compact` rewrites live segments into a fresh
/// data file, dropping dead pages.
fn cmd_store(positional: &[String]) -> Result<(), Box<dyn Error>> {
    use gcn_testability::store::PageStore;

    let action = positional
        .first()
        .ok_or("expected an action: stat, scrub, or compact")?;
    let dir = existing_dir(positional.get(1), "store")?;
    let mut store = PageStore::open(dir)?;
    match action.as_str() {
        "stat" => {
            let s = store.stat()?;
            println!("store     : {dir}");
            println!(
                "pages     : {} committed, {} live",
                s.page_count, s.live_pages
            );
            println!("segments  : {}", s.segments);
            println!("live bytes: {}", s.live_bytes);
            println!(
                "data bytes: {} (generation {})",
                s.data_bytes, s.data_generation
            );
            for key in store.keys() {
                println!("  {}", key.display());
            }
            Ok(())
        }
        "scrub" => {
            let errors: Vec<String> = store.scrub()?.iter().map(ToString::to_string).collect();
            if !errors.is_empty() {
                return Err(format!(
                    "scrub found {} error(s):\n{}",
                    errors.len(),
                    errors.join("\n")
                )
                .into());
            }
            println!("scrub clean: every committed page verifies");
            Ok(())
        }
        "compact" => {
            let stats = store.compact()?;
            println!(
                "compacted {dir}: {} -> {} pages",
                stats.pages_before, stats.pages_after
            );
            Ok(())
        }
        other => {
            Err(format!("unknown store action '{other}' (use stat, scrub, or compact)").into())
        }
    }
}

fn cmd_atpg(
    positional: &[String],
    options: &HashMap<String, String>,
) -> Result<(), Box<dyn Error>> {
    let path = positional.first().ok_or("expected a design file")?;
    let net = load_design(path)?;
    let cfg = AtpgConfig {
        max_patterns: opt_usize(options, "patterns", 16_384)?,
        ..Default::default()
    };
    let result = run_random_atpg(&net, &cfg)?;
    println!("faults    : {}", result.total_faults);
    println!("detected  : {}", result.detected);
    println!("coverage  : {:.2}%", result.coverage() * 100.0);
    println!(
        "patterns  : {} kept of {} applied",
        result.patterns_kept, result.patterns_applied
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<(), Box<dyn Error>> {
        let args: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        run(&args)
    }

    #[test]
    fn malformed_numeric_option_is_a_usage_error_and_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("gcnt-cli-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create temp dir");
        let path = |name: &str| dir.join(name).to_str().expect("utf-8").to_string();
        let (design, out, wal, ck) = (path("d.bench"), path("out"), path("wal"), path("ck"));
        run_tokens(&["generate", "--nodes", "60", "--out", &design]).expect("generate");
        let cases: [(&[&str], &str, &str); 5] = [
            (&["generate", "--out", &out], "--nodes", "2k"),
            (&["generate", "--out", &out], "--seed", "-1"),
            (&["loadgen", "--journal-dir", &wal], "--sessions", "2k"),
            (&["netserve", "--journal-dir", &wal], "--shards", "2k"),
            (
                &["train", &design, "--model", &out, "--checkpoint-dir", &ck],
                "--checkpoint-every",
                "2k",
            ),
        ];
        for (args, option, text) in cases {
            let err = run_tokens(&[args, &[option, text]].concat())
                .expect_err("malformed value must not fall back to the default")
                .to_string();
            assert!(err.contains(option) && err.contains(text), "{err}");
            for written in [&out, &wal, &ck] {
                assert!(
                    !Path::new(written).exists(),
                    "{option} {text} wrote {written}"
                );
            }
        }
        fs::remove_dir_all(&dir).ok();
        let (_, options) = split_args(&["--threshold".to_string(), "abc".to_string()]);
        let err = opt_f64(&options, "threshold", 0.5).unwrap_err();
        assert!(err.contains("--threshold") && err.contains("abc"), "{err}");
    }

    #[test]
    fn inspecting_a_missing_directory_fails_and_creates_nothing() {
        let dir = std::env::temp_dir().join(format!("gcnt-cli-missing-{}", std::process::id()));
        let dir_str = dir.to_str().expect("temp path is utf-8");
        for action in ["stat", "scrub", "compact"] {
            let err = run_tokens(&["store", action, dir_str])
                .expect_err("a missing store directory is an error")
                .to_string();
            assert!(err.contains(dir_str), "store {action}: {err}");
            assert!(!dir.exists(), "store {action} created {dir_str}");
        }
        let err = run_tokens(&["checkpoints", dir_str])
            .expect_err("a missing checkpoint directory is an error")
            .to_string();
        assert!(err.contains(dir_str), "checkpoints: {err}");
        assert!(!dir.exists(), "checkpoints created {dir_str}");
    }

    #[test]
    fn store_scrub_passes_a_clean_store_and_refuses_a_damaged_one() {
        use gcn_testability::runtime::FaultPlan;
        use gcn_testability::serve::{JobStore, StorePolicy};

        let dir = std::env::temp_dir().join(format!("gcnt-cli-store-{}", std::process::id()));
        let dir_str = dir.to_str().expect("temp path is utf-8");
        let _ = fs::remove_dir_all(&dir);
        let core = net_fixture_cores(1, &FaultPlan::none())
            .expect("fixture")
            .pop()
            .expect("one core");
        let store = JobStore::open(&dir, StorePolicy::default()).expect("open store");
        let mut core = core.with_store(store);
        let net = generate(&GeneratorConfig::sized("netfixture", 7, 400));
        core.handle_infer(&net, None).expect("infer persists pages");
        drop(core);
        run_tokens(&["store", "scrub", dir_str]).expect("a fresh store scrubs clean");

        let data = dir.join("pages-0000.dat");
        let clean = fs::read(&data).expect("read page data");
        let mut flipped = clean.clone();
        flipped[64] ^= 0x01; // inside page 0's payload
        fs::write(&data, &flipped).expect("flip a payload byte");
        let err = run_tokens(&["store", "scrub", dir_str])
            .expect_err("a flipped payload byte fails the scrub")
            .to_string();
        assert!(err.contains("corrupt page 0"), "{err}");

        fs::write(&data, &clean[..clean.len() / 2]).expect("cut the data file");
        run_tokens(&["store", "scrub", dir_str]).expect_err("a cut data file fails the scrub");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absent_and_well_formed_options_still_parse() {
        let (_, options) = split_args(&["--nodes".to_string(), "120".to_string()]);
        assert_eq!(opt_usize(&options, "nodes", 10_000), Ok(120));
        assert_eq!(opt_usize(&options, "seed", 1), Ok(1));
        assert_eq!(opt_f64(&options, "threshold", 0.5), Ok(0.5));
    }
}
