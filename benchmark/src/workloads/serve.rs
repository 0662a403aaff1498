//! `serve_mixed_2k`: two closed-loop TCP clients against an in-process
//! 2-shard server, nine inferences then one journaled flow job each, on a
//! pool of small designs — per-request overhead dominates, kernels are
//! minor, and reads queue behind writes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use gcnt_core::{GraphData, MatrixBackend};
use gcnt_dft::flow::{BatchRecord, FlowConfig, InferenceStats};
use gcnt_net::{
    encode_message, flow_digest, ClientConfig, Dialer, DrainSummary, FlowRequest, FrameKind,
    InferRequest, Listener, NetClient, NetError, NetServerConfig, ShardRouter,
};
use gcnt_netlist::{format, DesignPreset, GeneratorConfig, Netlist};
use gcnt_runtime::FaultPlan;
use gcnt_serve::{
    classify_with_ladder_backed, FlowJournal, JobStore, JournalHeader, ServeConfig, ServeCore,
    StorePolicy,
};
use gcnt_store::{checksum_hex, PageStore, SegmentKey};
use gcnt_tensor::Budget;

use super::{designs, err, probes, sample_nodes, Window, Workload};
use crate::fixture::{self, package_dir, Fixture};
use crate::procfs::MemWatch;
use crate::spec::Metrics;
use crate::stats::{median, percentile};
use crate::trace::{Open, Tracer};

pub const NAME: &str = "serve_mixed_2k";
const NODES: usize = 2_000;
const STREAM: u64 = 4;
const POOL: usize = 16;
const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Every tenth request of a client is a flow job.
const FLOW_EVERY: usize = 10;
const RECONNECT_EVERY: usize = 16;
const FLOW_ITERATIONS: u64 = 2;
const FLOW_OPS: u64 = 4;
const FLOW_THRESHOLD_MILLI: u64 = 500;
/// How often the measuring thread closes a peak-RSS interval.
const RSS_INTERVAL: std::time::Duration = std::time::Duration::from_millis(500);

type ServerThread = JoinHandle<Result<(DrainSummary, Vec<ServeCore>), NetError>>;

struct Design {
    net: Netlist,
    text: String,
    /// Checksums of the direct in-process answers.
    infer_checksum: String,
    flow_checksum: String,
}

pub struct Serve {
    fixture: Fixture,
    pool: Vec<Design>,
    base: GeneratorConfig,
    seed: u64,
    addr: String,
    server: Option<ServerThread>,
    /// Journals and probe stores of this run; removed at teardown.
    scratch: PathBuf,
    /// Distinguishes the job ids of successive loops.
    loops: u64,
}

fn flow_config() -> FlowConfig {
    FlowConfig {
        max_iterations: FLOW_ITERATIONS as usize,
        ops_per_iteration: FLOW_OPS as usize,
        prob_threshold: FLOW_THRESHOLD_MILLI as f32 / 1000.0,
        ..FlowConfig::default()
    }
}

fn probs_checksum(probs: &[f32]) -> String {
    let bytes: Vec<u8> = probs.iter().flat_map(|p| p.to_le_bytes()).collect();
    checksum_hex(&bytes)
}

/// A client that surfaces every transport hiccup instead of retrying.
fn connect(addr: &str) -> Result<NetClient, NetError> {
    let config = ClientConfig {
        request_retries: 0,
        ..ClientConfig::default()
    };
    NetClient::connect(Dialer::Tcp(addr.to_string()), config)
}

/// Span sink of the client loop: `()` for untraced runs, so their op path
/// compiles to no tracer code at all.
trait Spans {
    type Open;
    fn enter(&mut self, request: u32, name: &'static str) -> Self::Open;
    fn exit(&mut self, open: Self::Open);
}

impl Spans for () {
    type Open = ();
    fn enter(&mut self, _: u32, _: &'static str) {}
    fn exit(&mut self, (): ()) {}
}

impl Spans for Tracer {
    type Open = Open;
    fn enter(&mut self, request: u32, name: &'static str) -> Open {
        self.set_op(request);
        Tracer::enter(self, name)
    }
    fn exit(&mut self, open: Open) {
        Tracer::exit(self, open);
    }
}

/// When a client loop stops.
#[derive(Clone, Copy)]
enum Until {
    Seconds(f64),
    Requests(usize),
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl Serve {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let fixture = fixture::load()?;
        let base = DesignPreset::B1.config(NODES);
        let scratch = package_dir("out").join(format!(
            "serve-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&scratch).map_err(err)?;

        // Reference answers: the same requests, answered in process.
        let mut direct = new_core(&fixture);
        let mut pool = Vec::with_capacity(POOL);
        for (k, net) in designs(&base, seed, STREAM, POOL).into_iter().enumerate() {
            let infer = direct.handle_infer(&net, None).map_err(err)?;
            let mut flowed = net.clone();
            let journal = scratch.join(format!("reference-{k}.wal"));
            let flow = direct
                .run_flow_job(&mut flowed, &flow_config(), &journal, None)
                .map_err(err)?;
            let outcome_json = serde_json::to_string(&flow.outcome).map_err(err)?;
            pool.push(Design {
                text: format::write(&net),
                infer_checksum: probs_checksum(&infer.probs),
                flow_checksum: flow_digest(&outcome_json, &format::write(&flowed)),
                net,
            });
        }

        let cores = (0..SHARDS).map(|_| new_core(&fixture)).collect();
        let router = ShardRouter::start(cores, &scratch.join("journals")).map_err(err)?;
        let listener = Listener::bind_tcp("127.0.0.1:0").map_err(err)?;
        let addr = listener
            .local_addr()
            .ok_or("listener has no local address")?
            .to_string();
        let server = std::thread::Builder::new()
            .name("gcnt-bench-server".to_string())
            .spawn(move || {
                gcnt_net::serve(
                    listener,
                    router,
                    NetServerConfig::default(),
                    &FaultPlan::none(),
                )
            })
            .map_err(err)?;
        let w = Serve {
            fixture,
            pool,
            base,
            seed,
            addr,
            server: Some(server),
            scratch,
            loops: 0,
        };
        // Warm-up: one full request cycle on one connection.
        let warm = w.client_loop(0, Until::Requests(FLOW_EVERY), &mut ());
        if let Some(e) = warm.first_error {
            return Err(format!("warm-up: {e}"));
        }
        Ok(w)
    }

    /// One client's closed loop: connect, then request after request —
    /// nine inferences, one flow job — reconnecting every
    /// [`RECONNECT_EVERY`] requests, checking every reply against the
    /// direct answer.
    fn client_loop<S: Spans>(&self, client: usize, until: Until, spans: &mut S) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        let mut conn: Option<NetClient> = None;
        let mut r = 0usize;
        loop {
            match until {
                Until::Seconds(s) if start.elapsed().as_secs_f64() >= s => break,
                Until::Requests(n) if r >= n => break,
                _ => {}
            }
            if r % RECONNECT_EVERY == 0 {
                let open = spans.enter(r as u32, "net.connect");
                conn = connect(&self.addr).ok();
                spans.exit(open);
            }
            let design = &self.pool[(client * POOL / CLIENTS + r) % POOL];
            let is_flow = r % FLOW_EVERY == FLOW_EVERY - 1;
            w.attempted += 1;
            let t0 = Instant::now();
            let result = match conn.as_mut() {
                None => Err("not connected".to_string()),
                Some(c) if is_flow => {
                    let open = spans.enter(r as u32, "net.flow");
                    let reply = c.flow(&FlowRequest {
                        design: design.text.clone(),
                        job_id: format!("s{}-l{}-c{client}-r{r}", self.seed, self.loops),
                        max_iterations: FLOW_ITERATIONS,
                        ops_per_iteration: FLOW_OPS,
                        prob_threshold_milli: FLOW_THRESHOLD_MILLI,
                        deadline_rows: 0,
                    });
                    spans.exit(open);
                    reply.map_err(err).and_then(|reply| {
                        (reply.outcome_checksum == design.flow_checksum)
                            .then_some(())
                            .ok_or_else(|| "flow reply differs from the direct answer".to_string())
                    })
                }
                Some(c) => {
                    let open = spans.enter(r as u32, "net.infer");
                    let reply = c.infer(&design.text, 0);
                    spans.exit(open);
                    reply.map_err(err).and_then(|reply| {
                        (reply.probs_checksum == design.infer_checksum
                            && reply.probs_len as usize == design.net.node_count())
                        .then_some(())
                        .ok_or_else(|| "infer reply differs from the direct answer".to_string())
                    })
                }
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok(()) => w.samples_ms.push(ms),
                Err(e) => {
                    w.fail(format!("client {client} request {r}: {e}"));
                    conn = None;
                }
            }
            r += 1;
        }
        w.elapsed_s = start.elapsed().as_secs_f64();
        w
    }

    /// Runs [`CLIENTS`] loops side by side and merges what they saw.
    /// `sinks` holds one span sink per client.
    fn closed_loop<S: Spans + Send>(
        &mut self,
        until: Until,
        sinks: &mut [S],
        mut peak: Option<&mut MemWatch>,
    ) -> Window {
        self.loops += 1;
        let this = &*self;
        let windows: Vec<Window> = std::thread::scope(|scope| {
            let handles: Vec<_> = sinks
                .iter_mut()
                .enumerate()
                .map(|(c, sink)| scope.spawn(move || this.client_loop(c, until, sink)))
                .collect();
            // Requests overlap, so memory is sampled by the clock.
            while let Some(peak) = peak.as_deref_mut() {
                if handles.iter().all(|h| h.is_finished()) {
                    break;
                }
                std::thread::sleep(RSS_INTERVAL);
                peak.sample();
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut merged = Window::default();
        for w in windows {
            merged.samples_ms.extend(w.samples_ms);
            merged.attempted += w.attempted;
            merged.failed += w.failed;
            merged.elapsed_s = merged.elapsed_s.max(w.elapsed_s);
            if merged.first_error.is_none() {
                merged.first_error = w.first_error;
            }
        }
        merged
    }

    /// Drains the server and joins its thread.
    fn stop_server(&mut self) -> Result<Option<DrainSummary>, String> {
        let Some(server) = self.server.take() else {
            return Ok(None);
        };
        let drained = connect(&self.addr).and_then(|mut c| c.drain());
        let joined = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        drained.map_err(err)?;
        Ok(Some(joined.map_err(err)?.0))
    }

    /// Direct calls into `serve`: what a request costs without the wire,
    /// the router and the queue.
    fn serve_probes(&self, t: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        let mut core = new_core(&self.fixture);
        let normalizer = &self.fixture.normalizer;
        for (k, d) in self.pool.iter().enumerate() {
            let direct = t
                .time("serve.handle_infer", || core.handle_infer(&d.net, None))
                .map_err(err)?;
            if probs_checksum(&direct.probs) != d.infer_checksum {
                return Err("direct answer changed within a run".to_string());
            }
            let data = GraphData::from_netlist(&d.net, Some(normalizer)).map_err(err)?;
            t.time("serve.ladder", || {
                classify_with_ladder_backed(
                    &self.fixture.model,
                    &data.tensors,
                    &data.features,
                    &Budget::unlimited(),
                    false,
                    &mut MatrixBackend::auto(&data.tensors),
                )
            })
            .map_err(err)?;
            if k < 4 {
                let journal = self.scratch.join(format!("probe-{k}.wal"));
                t.time("serve.flow_job", || {
                    core.run_flow_job(&mut d.net.clone(), &flow_config(), &journal, None)
                })
                .map_err(err)?;
            }
        }

        let journal_path = self.scratch.join("probe-journal.wal");
        let header = JournalHeader::describe(&self.pool[0].net, &flow_config()).map_err(err)?;
        let mut journal = FlowJournal::open(&journal_path, &header)
            .map_err(err)?
            .journal;
        for iteration in 0..16 {
            let record = BatchRecord {
                iteration,
                positives: 1,
                inserted: Vec::new(),
                skipped: Vec::new(),
                converged: false,
                stats_after: InferenceStats::default(),
            };
            t.time("serve.journal_append", || journal.append(&record))
                .map_err(err)?;
        }
        drop(journal);
        let recovered = t
            .time("serve.journal_recover", || {
                FlowJournal::open(&journal_path, &header)
            })
            .map_err(err)?;
        if recovered.records.len() != 16 {
            return Err(format!(
                "journal recovered {} of 16 records",
                recovered.records.len()
            ));
        }

        // A store-backed core answers cold, then warm from its pages.
        let store = JobStore::open(&self.scratch.join("probe-store"), StorePolicy::default())
            .map_err(err)?;
        let mut stored = new_core(&self.fixture).with_store(store);
        let mut warm_hits = 0usize;
        let probed = &self.pool[..4];
        for d in probed {
            let cold = t
                .time("serve.handle_infer_cold", || {
                    stored.handle_infer(&d.net, None)
                })
                .map_err(err)?;
            let warm = t
                .time("serve.handle_infer_warm", || {
                    stored.handle_infer(&d.net, None)
                })
                .map_err(err)?;
            if cold.probs != warm.probs {
                return Err("warm answer differs from the cold one".to_string());
            }
            warm_hits += usize::from(warm.warm_rows > 0);
        }
        out.set(
            "serve.warm_hit_ratio",
            warm_hits as f64 / probed.len() as f64,
            probed.len(),
        );
        for (metric, span) in [
            ("serve.handle_infer_ms", "serve.handle_infer"),
            ("serve.ladder_ms", "serve.ladder"),
            ("serve.flow_job_ms", "serve.flow_job"),
            ("serve.journal_append_us", "serve.journal_append"),
            ("serve.journal_recover_ms", "serve.journal_recover"),
            ("serve.handle_infer_cold_ms", "serve.handle_infer_cold"),
            ("serve.handle_infer_warm_ms", "serve.handle_infer_warm"),
        ] {
            probes::report_median(t, out, metric, span);
        }
        Ok(())
    }

    /// `PageStore` segments and `JobStore` cache round trips on one pool
    /// design's own embedding caches.
    fn store_probes(&self, t: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        let d = &self.pool[0];
        let model = &self.fixture.model;
        let data = GraphData::from_netlist(&d.net, Some(&self.fixture.normalizer)).map_err(err)?;
        let (_, caches) = classify_with_ladder_backed(
            model,
            &data.tensors,
            &data.features,
            &Budget::unlimited(),
            false,
            &mut MatrixBackend::serial(),
        )
        .map_err(err)?;
        let caches = caches.ok_or("the incremental rung did not answer")?;
        let widest = caches
            .first()
            .map(|c| c.final_embedding())
            .ok_or("no stage cache")?;
        let payload: Vec<u8> = widest
            .as_slice()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();

        let dir = self.scratch.join("probe-pages");
        let mut pages = PageStore::open(&dir).map_err(err)?;
        for generation in 0..3 {
            let key = SegmentKey {
                design: "probe".to_string(),
                kind: "embed/probe".to_string(),
                generation,
                start: 0,
                end: widest.rows() as u64,
            };
            t.time("store.put_segment", || pages.put_segment(&key, &payload))
                .map_err(err)?;
            let back = t
                .time("store.get_segment", || pages.get_segment(&key))
                .map_err(err)?;
            if back.as_deref() != Some(payload.as_slice()) {
                return Err("segment did not survive the round trip".to_string());
            }
        }
        let mut jobs = JobStore::from_store(pages, StorePolicy::default());
        let generation = data.tensors.generation();
        for round in 0..3 {
            let fingerprint = format!("probe-{round}");
            t.time("store.save_caches", || {
                jobs.save_caches(&fingerprint, &caches)
            })
            .map_err(err)?;
            let back = t
                .time("store.load_caches", || {
                    jobs.load_caches(&fingerprint, generation, data.node_count() as u64, model)
                })
                .map_err(err)?;
            let same = back.is_some_and(|back| {
                back.len() == caches.len()
                    && back
                        .iter()
                        .zip(&caches)
                        .all(|(a, b)| a.layers() == b.layers())
            });
            if !same {
                return Err("caches did not survive the round trip".to_string());
            }
        }
        let stat = jobs.store().stat().map_err(err)?;
        out.set("store.bytes_on_disk", stat.data_bytes as f64, 1);
        for (metric, span) in [
            ("store.put_segment_us", "store.put_segment"),
            ("store.get_segment_us", "store.get_segment"),
            ("store.save_caches_ms", "store.save_caches"),
            ("store.load_caches_ms", "store.load_caches"),
        ] {
            probes::report_median(t, out, metric, span);
        }
        Ok(())
    }
}

fn new_core(fixture: &Fixture) -> ServeCore {
    ServeCore::new(
        fixture.normalizer.clone(),
        fixture.model.clone(),
        ServeConfig::default(),
    )
}

impl Workload for Serve {
    fn measure(&mut self, seconds: f64, peak: &mut MemWatch) -> Window {
        self.closed_loop(Until::Seconds(seconds), &mut [(); CLIENTS], Some(peak))
    }

    fn trace(&mut self, seconds: f64, t: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
        // The same request count untraced, then traced.
        let per_client = ((seconds * 10.0) as usize).clamp(FLOW_EVERY, 100);
        let until = Until::Requests(per_client);
        let mut account = super::ProcAccount::default();
        let plain = account.during((per_client * CLIENTS) as u64, || {
            self.closed_loop(until, &mut [(); CLIENTS], None)
        });
        let epoch = Instant::now();
        let mut sinks: Vec<Tracer> = (1..=CLIENTS as u32)
            .map(|tid| Tracer::new(epoch, tid))
            .collect();
        let traced = self.closed_loop(until, &mut sinks, None);
        for w in [&plain, &traced] {
            if let Some(e) = &w.first_error {
                return Err(e.clone());
            }
        }
        account.report(out);
        let mut client_spans = Tracer::new(epoch, 0);
        for sink in sinks {
            client_spans.absorb(sink);
        }
        let infer = client_spans.durations_ms("net.infer");
        let flow = client_spans.durations_ms("net.flow");
        let all: Vec<f64> = infer.iter().chain(&flow).copied().collect();
        let net_infer_p50 = median(&infer);
        out.set("net.infer_p50_ms", net_infer_p50, infer.len());
        out.set("net.flow_p50_ms", median(&flow), flow.len());
        out.set("net.request_p99_ms", percentile(&all, 99), all.len());
        probes::report_median(&client_spans, out, "net.connect_ms", "net.connect");
        out.set(
            "trace.overhead_ratio",
            median(&traced.samples_ms) / median(&plain.samples_ms).max(1e-9),
            traced.samples_ms.len(),
        );
        t.absorb(client_spans);

        let summary = self.stop_server()?.ok_or("server already stopped")?;
        out.set("serve.refusals", summary.refusals as f64, 1);

        t.set_op(u32::MAX);
        self.serve_probes(t, out)?;
        let direct_p50 = probes::median_of(t, "serve.handle_infer").0;
        out.set("net.overhead_ms", net_infer_p50 - direct_p50, infer.len());
        out.set(
            "core.attributed_share",
            direct_p50 / net_infer_p50,
            infer.len(),
        );
        self.store_probes(t, out)?;

        // One real request through the frame codec.
        let frame = encode_message(
            FrameKind::InferRequest,
            &InferRequest {
                design: self.pool[0].text.clone(),
                deadline_rows: 0,
            },
        );
        let mut bytes = Vec::new();
        for _ in 0..16 {
            bytes = t.time("net.frame_encode", || frame.encode());
            let decoded = t
                .time("net.frame_decode", || gcnt_net::decode(&bytes))
                .map_err(err)?;
            if !matches!(decoded, gcnt_net::ReadOutcome::Frame(f) if f == frame) {
                return Err("frame did not survive the round trip".to_string());
            }
        }
        out.set("net.request_bytes", bytes.len() as f64, 1);
        for (metric, span) in [
            ("net.frame_encode_us", "net.frame_encode"),
            ("net.frame_decode_us", "net.frame_decode"),
        ] {
            probes::report_median(t, out, metric, span);
        }

        let d = &self.pool[0];
        let data = GraphData::from_netlist(&d.net, Some(&self.fixture.normalizer)).map_err(err)?;
        let halo = sample_nodes(data.node_count(), 256, 0x4A10);
        let cfg = super::design_config(self.base.clone(), self.seed, STREAM, 0);
        probes::layers(t, &self.fixture.model, &data, &halo, &cfg, out)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Err(e) = self.stop_server() {
            eprintln!("warning: server did not drain cleanly: {e}");
        }
        // Best effort: a leftover directory costs disk, not correctness.
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}
