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
//! gcnt table1   --nodes 20000
//! ```
//!
//! Designs are stored in the plain-text `.bench`-style format of
//! [`gcn_testability::netlist::format`]; models and labels are JSON.
//! `table1|table2|table3|fig8|fig9|fig10|ablation` regenerate the paper's
//! evaluation through [`gcnt_bench::experiments`] and write
//! `results/<name>.json`.

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
use gcnt_bench::experiments;

/// The options one command was given, by name without the `--`.
type Options = HashMap<String, String>;

/// A subcommand's entry point: its positional arguments and its options.
type Handler = fn(&[String], &Options) -> Result<(), Box<dyn Error>>;

/// Every subcommand: its name, its arguments as the usage text shows them
/// (a newline continues the line), and its handler. An option's value
/// placeholder follows its name (`--nodes N`); a flag has none
/// (`[--resume]`). A command reads exactly the options its line names:
/// [`split_args`] refuses any other before the handler runs, and [`usage`]
/// prints these lines.
const COMMANDS: [(&str, &str, Handler); 18] = [
    (
        "generate",
        "--nodes N [--seed S] --out design.bench",
        cmd_generate,
    ),
    ("stats", "design.bench", cmd_stats),
    (
        "label",
        "design.bench [--patterns N] [--threshold F] [--seed S]\n[--out labels.json]",
        cmd_label,
    ),
    (
        "train",
        "a.bench [b.bench ...] --model model.json [--epochs N] [--stages N]\n\
         [--patterns N] [--threshold F] [--checkpoint-dir DIR] [--resume]\n\
         [--checkpoint-every N] [--keep N]",
        cmd_train,
    ),
    (
        "infer",
        "design.bench --model model.json [--threshold F]",
        cmd_infer,
    ),
    (
        "flow",
        "design.bench --model model.json [--out modified.bench]\n\
         [--iterations N] [--ops-per-iteration N] [--skip-budget N]\n\
         [--metrics-out m.json]",
        cmd_flow,
    ),
    ("atpg", "design.bench [--patterns N]", cmd_atpg),
    (
        "lint",
        "design.bench [--model model.json] [--format text|json]",
        cmd_lint,
    ),
    (
        "netserve",
        "[--addr HOST:PORT] [--shards N] [--journal-dir DIR]\n[--metrics-out m.json]",
        cmd_netserve,
    ),
    (
        "loadgen",
        "[--addr HOST:PORT] [--sessions N] [--workers N] [--shards N]\n\
         [--flow-jobs N] [--journal-dir DIR] [--metrics-out m.json]",
        cmd_loadgen,
    ),
    ("checkpoints", "DIR", cmd_checkpoints),
    ("table1", "[--nodes N]", cmd_table1),
    ("table2", "[--nodes N] [--epochs N] [--cone N]", cmd_table2),
    ("table3", "[--nodes N] [--epochs N]", cmd_table3),
    (
        "fig8",
        "[--nodes N] [--epochs N] [--eval-every N] [--lr F]",
        cmd_fig8,
    ),
    ("fig9", "[--nodes N] [--epochs N]", cmd_fig9),
    ("fig10", "[--max-nodes N] [--full-recursion]", cmd_fig10),
    ("ablation", "[--nodes N] [--epochs N]", cmd_ablation),
];

/// Handles `--metrics-out PATH`: enables the global metrics registry for
/// the rest of the process and returns where to write snapshots. Must run
/// before the instrumented work starts or the counters undercount.
fn metrics_out(options: &Options) -> Option<std::path::PathBuf> {
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
        eprint!("{}", usage());
        return Err("missing subcommand".into());
    };
    let Some(&(_, spec, handler)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        eprint!("{}", usage());
        return match command.as_str() {
            "help" | "--help" | "-h" => Ok(()),
            other => Err(format!("unknown subcommand '{other}'").into()),
        };
    };
    let (positional, options) = split_args(command, spec, &args[1..])?;
    handler(&positional, &options)
}

/// The usage text: one entry per [`COMMANDS`] line.
fn usage() -> String {
    let mut text =
        String::from("gcnt — GCN-based testability analysis (DAC'19 reproduction)\n\nusage:\n");
    for (name, spec, _) in COMMANDS {
        text += &format!("  gcnt {name} {}\n", spec.replace('\n', "\n      "));
    }
    text += "\n--metrics-out writes a metrics snapshot (JSON, or Prometheus text\n\
             for .prom/.txt paths) at shutdown. Machine-readable lines use the\n\
             NET_*/LOADGEN_*/METRICS_* prefix convention (see README.md#observability).\n\
             table1 … ablation regenerate the paper's evaluation and write\n\
             results/<name>.json under the working directory.\n";
    text
}

/// Splits `args` into positionals and options as `spec` reads them: an
/// option followed by a placeholder takes the next token as its value, a
/// flag takes none, and a positional is accepted only where `spec` names
/// one. Anything else, an option missing its value, or a value its
/// placeholder says is a number (`N` or `S` an integer, `F` a float) that
/// does not parse as one is a usage error, found before any file is read.
fn split_args(
    command: &str,
    spec: &str,
    args: &[String],
) -> Result<(Vec<String>, Options), String> {
    let is_option = |token: &str| token.trim_start_matches('[').starts_with("--");
    let (mut known, mut takes_positional) = (Vec::new(), false);
    let mut tokens = spec.split_whitespace().peekable();
    while let Some(token) = tokens.next() {
        let Some(option) = token.trim_start_matches('[').strip_prefix("--") else {
            takes_positional = true;
            continue;
        };
        let name = option.trim_end_matches(']');
        let placeholder = (name == option)
            .then(|| tokens.next_if(|next| !is_option(next)))
            .flatten()
            .map(|p| p.trim_end_matches(']'));
        known.push((name, placeholder));
    }
    let mut positional = Vec::new();
    let mut options = Options::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            if !takes_positional {
                return Err(format!("gcnt {command} takes no argument '{arg}'"));
            }
            positional.push(arg.clone());
            continue;
        };
        let Some(&(_, placeholder)) = known.iter().find(|(name, _)| *name == key) else {
            return Err(format!("gcnt {command} has no option --{key}"));
        };
        let value = match placeholder {
            Some(placeholder) => {
                let value = args
                    .next()
                    .filter(|value| !value.starts_with("--"))
                    .ok_or(format!("--{key} needs a value"))?;
                let parses = match placeholder {
                    "N" | "S" => value.parse::<usize>().is_ok(),
                    "F" => value.parse::<f64>().is_ok(),
                    _ => true,
                };
                if !parses {
                    return Err(not_a_number(key, value));
                }
                value.clone()
            }
            None => String::new(),
        };
        options.insert(key.to_string(), value);
    }
    Ok((positional, options))
}

/// The usage error for a value of `--key` that is not a number: it names
/// the option and the text, and is never a silent run at the default.
fn not_a_number(key: &str, text: &str) -> String {
    format!("--{key}: cannot parse `{text}` as a number")
}

/// `default` when `--key` is absent, else its value, which [`split_args`]
/// has already checked.
fn opt_parsed<T: std::str::FromStr>(options: &Options, key: &str, default: T) -> Result<T, String> {
    match options.get(key) {
        None => Ok(default),
        Some(text) => text.parse().map_err(|_| not_a_number(key, text)),
    }
}

fn opt_usize(options: &Options, key: &str, default: usize) -> Result<usize, String> {
    opt_parsed(options, key, default)
}

fn opt_f64(options: &Options, key: &str, default: f64) -> Result<f64, String> {
    opt_parsed(options, key, default)
}

fn read_design(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read design '{path}': {e}"))
}

fn load_design(path: &str) -> Result<Netlist, Box<dyn Error>> {
    Ok(format::read(&read_design(path)?)?)
}

fn cmd_generate(_: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
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

fn cmd_stats(positional: &[String], _: &Options) -> Result<(), Box<dyn Error>> {
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

fn cmd_label(positional: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
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

fn cmd_train(positional: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
    if positional.is_empty() {
        return Err("expected at least one training design".into());
    }
    let model_path = options.get("model").ok_or("--model is required")?;
    if !options.contains_key("checkpoint-dir") {
        if let Some(option) = ["resume", "keep", "checkpoint-every"]
            .into_iter()
            .find(|&o| options.contains_key(o))
        {
            return Err(format!("--{option} needs --checkpoint-dir").into());
        }
    }
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
    trainer.checkpoint_every = checkpoint_every;
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

fn load_model(options: &Options) -> Result<ModelBundle, Box<dyn Error>> {
    let model_path = options.get("model").ok_or("--model is required")?;
    let text = fs::read_to_string(model_path)
        .map_err(|e| format!("cannot read model '{model_path}': {e}"))?;
    // The cascade and the normaliser check their own shapes and values.
    Ok(serde_json::from_str(&text)
        .map_err(|e| format!("model '{model_path}' is not a valid model bundle: {e}"))?)
}

fn cmd_checkpoints(positional: &[String], _: &Options) -> Result<(), Box<dyn Error>> {
    let dir = positional
        .first()
        .ok_or("expected a checkpoint directory")?;
    // Opening a store creates a missing directory, which would turn a
    // mistyped path into a freshly made, trivially clean one.
    if !Path::new(dir).is_dir() {
        return Err(format!("no checkpoint directory at '{dir}'").into());
    }
    let store = CheckpointStore::open(dir, usize::MAX)?;
    let files = store.list()?;
    if files.is_empty() {
        println!("no checkpoints in {dir}");
        return Ok(());
    }
    let mut bad = 0usize;
    for path in &files {
        match store.load(path) {
            Ok(state) => println!(
                "{}: stage {}, epoch {}, lr {:.6}, {} retries used",
                path.display(),
                state.stage,
                state.epoch,
                state.lr,
                state.retries_used,
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

fn cmd_infer(positional: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
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

fn cmd_flow(positional: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
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

fn cmd_lint(positional: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
    use gcn_testability::lint::{lint_design, lint_violations};
    let path = positional.first().ok_or("expected a design file")?;
    // A design that fails validation is exactly what the linter is for:
    // report every violation the reader found, not just the first.
    let report = match format::read(&read_design(path)?) {
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

/// One core per shard around the serving fixture: a seeded (untrained)
/// 2-stage `[8, 8]`/`[8]` cascade and the normaliser fitted on the seeded
/// 400-node `"netfixture"` design — the same on every run, shard and
/// machine, so `LOADGEN_FLOW` checksums reproduce.
fn net_fixture_cores(
    shards: usize,
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
        .map(|_| ServeCore::new(normalizer.clone(), model.clone(), ServeConfig::default()))
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
) -> Result<(String, ServeLoop), Box<dyn Error>> {
    use gcn_testability::net::{serve as net_serve, Listener, NetServerConfig, ShardRouter};
    use gcn_testability::runtime::FaultPlan;

    let router = ShardRouter::start(net_fixture_cores(shards)?, journal_dir.as_ref())?;
    let listener = Listener::bind_tcp(addr)?;
    let actual = listener
        .local_addr()
        .ok_or("listener has no local address")?
        .to_string();
    let serve: ServeLoop = Box::new(move || {
        let (summary, _cores) = net_serve(
            listener,
            router,
            NetServerConfig::default(),
            &FaultPlan::none(),
        )?;
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
fn cmd_netserve(_: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
    let metrics_path = metrics_out(options);
    let shards = opt_usize(options, "shards", 2)?.max(1);
    let addr = options
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let journal_dir = options
        .get("journal-dir")
        .map(String::as_str)
        .unwrap_or("netserve-journals");

    let (actual, serve) = start_fixture_server(addr, shards, journal_dir)?;
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
/// the kill/resume and drain tests); the rest run inference. Ends with
/// `LOADGEN_DONE` carrying error counts and p50/p99/p999 request latency
/// from the `gcnt_net_request_latency_ns` histogram; any *untyped*
/// failure (hang, wrong payload, exhausted retries) makes the exit
/// nonzero. A payload is wrong when its `probs_checksum` differs from the
/// one a fixture core computes for the same design variant by a direct
/// `handle_infer`; the exit then names the variant.
fn cmd_loadgen(_: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
    use gcn_testability::net::{ClientConfig, Dialer, FlowRequest, NetClient, NetError};
    use gcn_testability::obs::Snapshot;
    use gcn_testability::runtime::checksum_hex;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    let sessions = opt_usize(options, "sessions", 100)?.max(1);
    let workers = opt_usize(options, "workers", 8)?.clamp(1, 64);
    let flow_jobs = opt_usize(options, "flow-jobs", 2)?.min(sessions);
    let shards = opt_usize(options, "shards", 4)?.max(1);

    // A small pool of deterministic design variants spreads sessions
    // across shards (routing hashes the design text).
    let variants: Arc<Vec<String>> = Arc::new(
        (0..8u64)
            .map(|k| format::write(&generate(&GeneratorConfig::sized("netfixture", 7 + k, 400))))
            .collect(),
    );
    // The answer each variant must get, hashed as the server hashes a
    // reply's probabilities: from one fixture core, asked directly before
    // the registry goes live, so the snapshot counts only the load.
    let mut reference = net_fixture_cores(1)?.pop().ok_or("no fixture core")?;
    let expected: Arc<Vec<String>> = Arc::new(
        variants
            .iter()
            .map(|text| -> Result<String, Box<dyn Error>> {
                let probs = reference.handle_infer(&format::read(text)?, None)?.probs;
                let bytes: Vec<u8> = probs.iter().flat_map(|p| p.to_le_bytes()).collect();
                Ok(checksum_hex(&bytes))
            })
            .collect::<Result<_, _>>()?,
    );

    // Quantiles come from the global histogram, so the registry must be
    // live before the first request regardless of --metrics-out.
    gcn_testability::obs::global().enable();
    let metrics_path = metrics_out(options);

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
            let (actual, serve) = start_fixture_server("127.0.0.1:0", shards, &journal_dir)?;
            (actual, Some(std::thread::spawn(serve)))
        }
    };

    let next = Arc::new(AtomicUsize::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let typed = Arc::new(AtomicU64::new(0));
    let transport = Arc::new(AtomicU64::new(0));
    // Bit k set: some reply for variant k carried the wrong checksum.
    let wrong_variants = Arc::new(AtomicU64::new(0));
    let mut pool = Vec::new();
    for _ in 0..workers {
        let next = Arc::clone(&next);
        let ok = Arc::clone(&ok);
        let typed = Arc::clone(&typed);
        let transport = Arc::clone(&transport);
        let wrong_variants = Arc::clone(&wrong_variants);
        let variants = Arc::clone(&variants);
        let expected = Arc::clone(&expected);
        let addr = addr.clone();
        pool.push(std::thread::spawn(move || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= sessions {
                break;
            }
            let started = std::time::Instant::now();
            let outcome = (|| -> Result<(), NetError> {
                // A load client is deliberately saturating the server, so
                // it rides out Overloaded refusals with a deeper retry
                // budget than the interactive default.
                let config = ClientConfig {
                    request_retries: 8,
                    ..ClientConfig::default()
                };
                let mut client = NetClient::connect(Dialer::Tcp(addr.clone()), config)?;
                let variant = i % variants.len();
                let design = variants
                    .get(variant)
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
                    if expected.get(variant) != Some(&reply.probs_checksum) {
                        wrong_variants.fetch_or(1 << variant, Ordering::Relaxed);
                        return Err(NetError::Protocol(format!(
                            "variant {variant}: probs checksum {}",
                            reply.probs_checksum
                        )));
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
    let wrong = wrong_variants.load(Ordering::Relaxed);
    if wrong != 0 {
        let named: Vec<String> = (0..variants.len())
            .filter(|k| (wrong >> k) & 1 == 1)
            .map(|k| k.to_string())
            .collect();
        return Err(format!(
            "wrong inference answers for design variant(s) {}: checksum differs from a direct \
             fixture core's",
            named.join(", ")
        )
        .into());
    }
    if transport_errors > 0 {
        return Err(format!("{transport_errors} session(s) failed without a typed refusal").into());
    }
    Ok(())
}

fn cmd_atpg(positional: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
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

/// Writes an experiment's rows to `results/<name>.json` under the working
/// directory, atomically: an interrupted run leaves the old file or the
/// new one, never a truncated mix.
fn write_results(name: &str, rows: &impl Serialize) -> Result<(), Box<dyn Error>> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create directory '{}': {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
    atomic_write(&path, serde_json::to_string_pretty(rows)?.as_bytes())?;
    println!("(wrote {})", path.display());
    Ok(())
}

fn cmd_table1(_: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
    let rows = experiments::table1(opt_usize(options, "nodes", 20_000)?)?;
    write_results("table1", &rows)
}

fn cmd_table2(_: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
    let rows = experiments::table2(
        opt_usize(options, "nodes", 3_000)?,
        opt_usize(options, "epochs", 150)?,
        opt_usize(options, "cone", 500)?,
    )?;
    write_results("table2", &rows)
}

fn cmd_table3(_: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
    let rows = experiments::table3(
        opt_usize(options, "nodes", 3_000)?,
        opt_usize(options, "epochs", 60)?,
    )?;
    write_results("table3", &rows)
}

fn cmd_fig8(_: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
    let rows = experiments::fig8(
        opt_usize(options, "nodes", 3_000)?,
        opt_usize(options, "epochs", 150)?,
        opt_usize(options, "eval-every", 10)?,
        opt_f64(options, "lr", 0.05)? as f32,
    )?;
    write_results("fig8", &rows)
}

fn cmd_fig9(_: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
    let rows = experiments::fig9(
        opt_usize(options, "nodes", 3_000)?,
        opt_usize(options, "epochs", 60)?,
    )?;
    write_results("fig9", &rows)
}

fn cmd_fig10(_: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
    let rows = experiments::fig10(
        opt_usize(options, "max-nodes", 100_000)?,
        options.contains_key("full-recursion"),
    )?;
    write_results("fig10", &rows)
}

fn cmd_ablation(_: &[String], options: &Options) -> Result<(), Box<dyn Error>> {
    let rows = experiments::ablation(
        opt_usize(options, "nodes", 3_000)?,
        opt_usize(options, "epochs", 150)?,
    )?;
    write_results("ablation", &rows)
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
        let (no_model, no_design) = (path("missing.json"), path("missing.bench"));
        run_tokens(&["generate", "--nodes", "60", "--out", &design]).expect("generate");
        // A flow or label that read its files first would fail on the
        // missing one instead of naming the option.
        let cases: [(&[&str], &str, &str); 7] = [
            (&["generate", "--out", &out], "--nodes", "2k"),
            (&["generate", "--out", &out], "--seed", "-1"),
            (&["loadgen", "--journal-dir", &wal], "--sessions", "2k"),
            (&["netserve", "--journal-dir", &wal], "--shards", "2k"),
            (
                &["train", &design, "--model", &out, "--checkpoint-dir", &ck],
                "--checkpoint-every",
                "2k",
            ),
            (
                &["flow", &design, "--model", &no_model],
                "--iterations",
                "2k",
            ),
            (&["label", &no_design], "--threshold", "0.5.1"),
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
        let err = split_args(
            "infer",
            "[--threshold F]",
            &["--threshold".to_string(), "abc".to_string()],
        )
        .expect_err("a float placeholder takes only a float");
        assert!(err.contains("--threshold") && err.contains("abc"), "{err}");
    }

    #[test]
    fn inspecting_a_missing_directory_fails_and_creates_nothing() {
        let dir = std::env::temp_dir().join(format!("gcnt-cli-missing-{}", std::process::id()));
        let dir_str = dir.to_str().expect("temp path is utf-8");
        let err = run_tokens(&["checkpoints", dir_str])
            .expect_err("a missing checkpoint directory is an error")
            .to_string();
        assert!(err.contains(dir_str), "checkpoints: {err}");
        assert!(!dir.exists(), "checkpoints created {dir_str}");
    }

    #[test]
    fn absent_and_well_formed_options_still_parse() {
        let (_, options) = split_args(
            "generate",
            "--nodes N [--seed S]",
            &["--nodes".to_string(), "120".to_string()],
        )
        .expect("a known option with a value");
        assert_eq!(opt_usize(&options, "nodes", 10_000), Ok(120));
        assert_eq!(opt_usize(&options, "seed", 1), Ok(1));
        assert_eq!(opt_f64(&options, "threshold", 0.5), Ok(0.5));
    }

    /// A scratch directory for one CLI test, and a path maker inside it.
    fn scratch(tag: &str) -> (std::path::PathBuf, impl Fn(&str) -> String) {
        let dir = std::env::temp_dir().join(format!("gcnt-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        let base = dir.clone();
        (dir, move |name: &str| {
            base.join(name).to_str().expect("utf-8").to_string()
        })
    }

    #[test]
    fn resume_takes_no_value_so_every_design_after_it_trains() {
        let (dir, path) = scratch("resume");
        let (a, b) = (path("a.bench"), path("b.bench"));
        run_tokens(&["generate", "--nodes", "60", "--seed", "1", "--out", &a]).expect("a");
        run_tokens(&["generate", "--nodes", "60", "--seed", "2", "--out", &b]).expect("b");
        let quick = ["--epochs", "1", "--stages", "1", "--patterns", "256"];
        let (both, resumed, ck) = (path("both.json"), path("resumed.json"), path("ck"));
        run_tokens(&[&["train", &a, &b, "--model", &both][..], &quick].concat()).expect("train");
        // An empty checkpoint directory: nothing to resume from.
        let resume = ["train", "--resume", &a, &b, "--model", &resumed];
        run_tokens(&[&resume[..], &["--checkpoint-dir", &ck], &quick].concat())
            .expect("train --resume");
        assert_eq!(
            fs::read(&both).expect("model"),
            fs::read(&resumed).expect("model"),
            "`--resume a.bench b.bench` must train on both designs"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_option_the_command_does_not_read_is_refused_before_any_work() {
        let (dir, path) = scratch("unread");
        let (design, model) = (path("d.bench"), path("m.json"));
        run_tokens(&["generate", "--nodes", "60", "--out", &design]).expect("generate");
        let err = run_tokens(&["train", &design, "--model", &model, "--epoch", "1"])
            .expect_err("a misspelt option must not train at the defaults")
            .to_string();
        assert!(err.contains("--epoch"), "{err}");
        assert!(!Path::new(&model).exists(), "the refused run wrote {model}");
        for command in ["netserve", "loadgen"] {
            let err = run_tokens(&[command, "--faults", "x"])
                .expect_err("there is no fault plan option")
                .to_string();
            assert!(err.contains("--faults"), "{command}: {err}");
        }
        // A checkpoint option without a directory would be ignored; the
        // refusal comes before the (missing) design is read.
        let missing = path("missing.bench");
        for option in [
            &["--resume"][..],
            &["--keep", "0"],
            &["--checkpoint-every", "1"],
        ] {
            let train = ["train", &missing, "--model", &model];
            let err = run_tokens(&[&train[..], option].concat())
                .expect_err("a checkpoint option needs --checkpoint-dir")
                .to_string();
            assert!(
                err.contains(option[0]) && err.contains("--checkpoint-dir"),
                "{err}"
            );
            assert!(!Path::new(&model).exists(), "the refused run wrote {model}");
        }
        let err = run_tokens(&["infer", &design, "--model"])
            .expect_err("a valued option needs its value")
            .to_string();
        assert!(err.contains("--model needs a value"), "{err}");
        let err = run_tokens(&["generate", "--out", &model, "300"])
            .expect_err("a command whose usage names no positional takes none")
            .to_string();
        assert!(err.contains("'300'"), "{err}");
        assert!(!Path::new(&model).exists(), "the refused run wrote {model}");
        fs::remove_dir_all(&dir).ok();
    }

    /// The `gcnt` command lines of a document, with their 1-based line
    /// numbers: the lines of its fenced code blocks (of every line, for a
    /// script) whose first word is `gcnt` or a path to it, each cut at the
    /// first shell operator or comment and without the `gcnt` word.
    fn command_lines(text: &str, fenced: bool) -> Vec<(usize, Vec<&str>)> {
        let mut inside = !fenced;
        let mut lines = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if fenced && line.trim_start().starts_with("```") {
                inside = !inside;
                continue;
            }
            let mut words = line.split_whitespace().take_while(|word| {
                !word.starts_with('#') && !["|", "||", "&&", ";", "&", ">"].contains(word)
            });
            if inside
                && words
                    .next()
                    .is_some_and(|w| w == "gcnt" || w.ends_with("/gcnt"))
            {
                lines.push((i + 1, words.collect()));
            }
        }
        lines
    }

    /// Why `gcnt` would refuse a documented command line, if it would.
    fn refusal(words: &[&str]) -> Option<String> {
        let Some((command, args)) = words.split_first() else {
            return Some("names no command".to_string());
        };
        let Some((_, spec, _)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
            return Some(format!("unknown subcommand '{command}'"));
        };
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        split_args(command, spec, &args).err()
    }

    #[test]
    fn every_documented_command_line_parses() {
        let planted =
            "```sh\ngcnt fig10 --full-recursion --max-nodes 9\ngcnt table1 --node 300\n```";
        let planted = command_lines(planted, true);
        assert_eq!(refusal(&planted[0].1), None);
        assert_eq!(
            refusal(&planted[1].1).as_deref(),
            Some("gcnt table1 has no option --node")
        );

        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut docs: Vec<(std::path::PathBuf, bool)> = [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            ".claude/skills/verify/SKILL.md",
        ]
        .iter()
        .map(|doc| (root.join(doc), true))
        .collect();
        for entry in fs::read_dir(root.join("scripts")).expect("scripts/") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|ext| ext == "sh") {
                docs.push((path, false));
            }
        }
        let mut refused = Vec::new();
        let mut scripted = Vec::new();
        for (path, fenced) in &docs {
            let text = fs::read_to_string(path).expect("readable doc");
            for (line, words) in command_lines(&text, *fenced) {
                match refusal(&words) {
                    Some(why) => refused.push(format!("{}:{line}: {why}", path.display())),
                    None if !fenced => scripted.push(words[0].to_string()),
                    None => {}
                }
            }
        }
        assert!(refused.is_empty(), "{}", refused.join("\n"));
        for experiment in [
            "table1", "table2", "table3", "fig8", "fig9", "fig10", "ablation",
        ] {
            assert!(
                scripted.iter().any(|c| c == experiment),
                "no script runs {experiment}"
            );
        }
    }

    /// The commands of `COMMANDS` no fenced `gcnt` line of `readme` runs.
    fn undocumented_commands(readme: &str) -> Vec<&'static str> {
        let documented = command_lines(readme, true);
        COMMANDS
            .iter()
            .map(|&(name, ..)| name)
            .filter(|name| {
                !documented
                    .iter()
                    .any(|(_, words)| words.first() == Some(name))
            })
            .collect()
    }

    /// The reverse of `every_documented_command_line_parses`: a command
    /// the CLI has is one the README shows.
    #[test]
    fn every_command_appears_in_the_readme() {
        let planted = "```sh\ngcnt stats d.bench\n```\n\ngcnt infer d.bench\n";
        let missing = undocumented_commands(planted);
        assert!(!missing.contains(&"stats") && missing.contains(&"infer"));

        let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
        let readme = fs::read_to_string(readme).expect("readable README");
        assert_eq!(undocumented_commands(&readme), [""; 0]);
    }

    #[test]
    fn usage_names_every_option_a_command_reads() {
        let text = usage();
        let line = |command: &str| {
            let start = text
                .find(&format!("gcnt {command} "))
                .expect("every command has a usage line");
            let end = text[start + 1..]
                .find("  gcnt ")
                .map_or(text.len(), |i| start + 1 + i);
            text[start..end].to_string()
        };
        for (command, option) in [
            ("flow", "[--iterations N]"),
            ("flow", "[--ops-per-iteration N]"),
            ("label", "[--seed S]"),
        ] {
            assert!(line(command).contains(option), "{command}: {option}");
        }
    }
}
