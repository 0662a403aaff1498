//! End-to-end protocol tests: a real server (shard router + serve
//! cores) behind the in-process loopback transport, driven by the real
//! client. The fault-matrix scenarios run under `--features
//! fault-inject` and assert the ISSUE's contract: every injected
//! network fault ends in a typed error or a bit-identical resumed
//! outcome — never a hang, panic, or wrong payload.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use gcnt_core::{features::FeatureNormalizer, Gcn, GcnConfig, GraphData, MultiStageGcn};
use gcnt_net::{
    local_transport, serve, ClientConfig, Dialer, DrainSummary, ErrorCode, FlowRequest, Listener,
    LocalDialer, NetClient, NetError, NetServerConfig, ShardRouter,
};
use gcnt_netlist::{format, generate, GeneratorConfig, Netlist};
use gcnt_nn::seeded_rng;
use gcnt_runtime::FaultPlan;
use gcnt_serve::{ServeConfig, ServeCore};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gcnt-net-e2e-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn model_for(net: &Netlist) -> (FeatureNormalizer, MultiStageGcn) {
    let data = GraphData::from_netlist(net, None).unwrap();
    let cfg = GcnConfig {
        embed_dims: vec![4, 4],
        fc_dims: vec![4],
        ..GcnConfig::default()
    };
    let stages = vec![
        Gcn::new(&cfg, &mut seeded_rng(41)),
        Gcn::new(&cfg, &mut seeded_rng(42)),
    ];
    (data.normalizer, MultiStageGcn::from_stages(stages, 0.5))
}

fn cores_for(net: &Netlist, n: usize) -> Vec<ServeCore> {
    (0..n)
        .map(|_| {
            let (norm, model) = model_for(net);
            ServeCore::new(norm, model, ServeConfig::default())
        })
        .collect()
}

fn server_config() -> NetServerConfig {
    NetServerConfig {
        read_timeout: Duration::from_millis(25),
        frame_budget: Duration::from_secs(2),
        ..NetServerConfig::default()
    }
}

type ServerHandle = std::thread::JoinHandle<Result<(DrainSummary, Vec<ServeCore>), NetError>>;

/// Starts a sharded server over the loopback transport in a thread.
fn start_server(
    net: &Netlist,
    shards: usize,
    tag: &str,
    config: NetServerConfig,
    plan: FaultPlan,
) -> (LocalDialer, ServerHandle) {
    start_server_in(&temp_dir(tag), net, shards, config, plan)
}

/// [`start_server`] with its journals under `dir`.
fn start_server_in(
    dir: &std::path::Path,
    net: &Netlist,
    shards: usize,
    config: NetServerConfig,
    plan: FaultPlan,
) -> (LocalDialer, ServerHandle) {
    let router = ShardRouter::start(cores_for(net, shards), dir).unwrap();
    let (listener, dialer) = local_transport();
    let handle = std::thread::spawn(move || serve(listener, router, config, &plan));
    (dialer, handle)
}

fn quick_client(dialer: LocalDialer) -> NetClient {
    quick_client_with_faults(dialer, FaultPlan::none())
}

fn quick_client_with_faults(dialer: LocalDialer, plan: FaultPlan) -> NetClient {
    let cfg = ClientConfig {
        backoff: Duration::from_millis(2),
        read_timeout: Duration::from_millis(50),
        max_idle_polls: 600,
        ..ClientConfig::default()
    };
    NetClient::connect_with_faults(Dialer::Local(dialer), cfg, plan).unwrap()
}

fn flow_request(net: &Netlist, job_id: &str) -> FlowRequest {
    FlowRequest {
        design: format::write(net),
        job_id: job_id.to_string(),
        max_iterations: 2,
        ops_per_iteration: 1,
        prob_threshold_milli: 50,
        deadline_rows: 0,
    }
}

#[test]
fn infer_round_trips_and_is_deterministic() {
    let net = generate(&GeneratorConfig::sized("e2e-infer", 5, 120));
    let (dialer, handle) = start_server(&net, 2, "infer", server_config(), FaultPlan::none());
    let mut client = quick_client(dialer);
    assert_eq!(client.shards(), 2, "handshake reports shard count");

    let text = format::write(&net);
    let a = client.infer(&text, 0).unwrap();
    let b = client.infer(&text, 0).unwrap();
    assert_eq!(a.probs_len as usize, net.node_count());
    assert_eq!(a.shard, b.shard, "same design routes to the same shard");
    assert_eq!(
        a.probs_checksum, b.probs_checksum,
        "same design, bit-identical probabilities"
    );

    client.drain().unwrap();
    let (summary, cores) = handle.join().unwrap().unwrap();
    assert_eq!(cores.len(), 2);
    assert!(summary.jobs_completed >= 2);
    assert_eq!(summary.slow_loris_evictions, 0);
}

#[test]
fn flow_resubmit_under_same_job_id_is_bit_identical() {
    let net = generate(&GeneratorConfig::sized("e2e-flow", 5, 120));
    let (dialer, handle) = start_server(&net, 2, "flow", server_config(), FaultPlan::none());
    let mut client = quick_client(dialer);

    let req = flow_request(&net, "resub");
    let first = client.flow(&req).unwrap();
    assert!(first.journal_records > 0, "flow batches are journaled");

    // Resubmitting the same job id replays the journal instead of
    // redoing the work, and lands on the same answer bit for bit.
    let second = client.flow(&req).unwrap();
    assert_eq!(second.shard, first.shard);
    assert_eq!(
        second.outcome_checksum, first.outcome_checksum,
        "journal replay reproduces the outcome exactly"
    );
    assert!(second.resumed_batches > 0, "second run resumed, not redone");

    client.drain().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn unparseable_design_is_a_typed_refusal() {
    let net = generate(&GeneratorConfig::sized("e2e-bad", 3, 90));
    let (dialer, handle) = start_server(&net, 1, "bad", server_config(), FaultPlan::none());
    let mut client = quick_client(dialer);

    let err = client.infer("this is not a netlist", 0).unwrap_err();
    match err {
        NetError::Server {
            code, retryable, ..
        } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(!retryable);
        }
        other => panic!("expected a typed server refusal, got {other}"),
    }

    client.drain().unwrap();
    let (summary, _) = handle.join().unwrap().unwrap();
    assert!(summary.refusals >= 1);
}

/// `format::read` refuses a design with a cell that has the wrong number
/// of drivers or a combinational cycle, so no such design reaches a
/// shard's worker: `y = NOT()` used to panic it inside SCOAP. It is the
/// request's fault — a non-retryable `BadRequest` on both request kinds,
/// with no journal written for the flow job — and the shard must answer
/// the next request.
#[test]
fn malformed_design_is_a_bad_request_and_the_shard_lives() {
    const MALFORMED: [&str; 4] = [
        // A zero-fan-in NOT (what `Scoap` used to index into).
        "INPUT(a)\ny = NOT()\nz = AND(a, y)\nOUTPUT(z)\n",
        // A flip-flop without a driver.
        "INPUT(a)\nd = DFF()\nz = AND(a, d)\nOUTPUT(z)\n",
        // A one-input AND.
        "INPUT(a)\ny = AND(a)\nOUTPUT(y)\n",
        // A combinational loop.
        "INPUT(a)\nx = AND(a, y)\ny = OR(a, x)\nOUTPUT(x)\n",
    ];
    let net = generate(&GeneratorConfig::sized("e2e-arity", 3, 90));
    let dir = temp_dir("arity");
    let (dialer, handle) = start_server_in(&dir, &net, 1, server_config(), FaultPlan::none());
    let mut client = quick_client(dialer);

    for (i, bad) in MALFORMED.iter().enumerate() {
        let bad_flow = FlowRequest {
            design: bad.to_string(),
            ..flow_request(&net, &format!("arity-{i}"))
        };
        for err in [
            client.infer(bad, 0).unwrap_err(),
            client.flow(&bad_flow).unwrap_err(),
        ] {
            match err {
                NetError::Server {
                    code, retryable, ..
                } => {
                    assert_eq!(code, ErrorCode::BadRequest, "design {i}");
                    assert!(!retryable, "design {i}");
                }
                other => panic!("design {i}: expected a typed server refusal, got {other}"),
            }
        }
        let wal = dir.join("shard-0").join(format!("job-arity-{i}.wal"));
        assert!(!wal.exists(), "a refused design gets no journal");
        let ok = client.infer(&format::write(&net), 0).unwrap();
        assert_eq!(ok.probs_len as usize, net.node_count());
    }
    // An accepted flow job's journal is where the refused ones were not.
    client.flow(&flow_request(&net, "arity-ok")).unwrap();
    assert!(dir.join("shard-0").join("job-arity-ok.wal").exists());

    client.drain().unwrap();
    let (summary, cores) = handle.join().unwrap().unwrap();
    assert!(summary.refusals >= 2 * MALFORMED.len() as u64);
    assert_eq!(
        cores.len(),
        1,
        "the shard's worker survived to hand its core back"
    );
}

#[test]
fn wrong_wire_version_gets_a_typed_version_mismatch() {
    use gcnt_net::{decode, Frame, FrameKind, ReadOutcome};

    let net = generate(&GeneratorConfig::sized("e2e-ver", 3, 90));
    let (dialer, handle) = start_server(&net, 1, "ver", server_config(), FaultPlan::none());

    // Speak a future protocol version by hand.
    let mut conn = dialer.connect().unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let bytes = Frame::new(FrameKind::Hello, b"{\"version\":9}".to_vec()).encode_with_version(9);
    use std::io::Write;
    conn.write_all(&bytes).unwrap();

    // The refusal frame itself is a well-formed v1 Error frame.
    let mut collected = Vec::new();
    let mut buf = [0u8; 256];
    for _ in 0..100 {
        match std::io::Read::read(&mut conn, &mut buf) {
            Ok(0) => break,
            Ok(n) => collected.extend_from_slice(buf.get(..n).unwrap()),
            Err(_) => {}
        }
        if let Ok(ReadOutcome::Frame(_)) = decode(&collected) {
            break;
        }
    }
    match decode(&collected).unwrap() {
        ReadOutcome::Frame(f) => {
            assert_eq!(f.kind, FrameKind::Error);
            let e: gcnt_net::ErrorReply = gcnt_net::decode_message(&f).unwrap();
            assert_eq!(e.code, ErrorCode::VersionMismatch);
        }
        other => panic!("expected a refusal frame, got {other:?}"),
    }
    drop(conn);

    let mut client = quick_client(dialer);
    client.drain().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn drain_refuses_new_work_and_reports_a_summary() {
    let net = generate(&GeneratorConfig::sized("e2e-drain", 3, 90));
    let config = NetServerConfig {
        read_timeout: Duration::from_millis(25),
        ..NetServerConfig::default()
    };
    let (dialer, handle) = start_server(&net, 2, "drain", config, FaultPlan::none());
    let mut client = quick_client(dialer);

    let text = format::write(&net);
    client.infer(&text, 0).unwrap();
    let ack = client.drain().unwrap();
    assert_eq!(ack.pending, 0, "nothing queued at drain time");

    // New work after drain is refused typed, not dropped. The client
    // may also observe the closing connection as exhausted retries.
    match client.infer(&text, 0) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::Draining),
        Err(NetError::RetriesExhausted { .. }) => {}
        Ok(_) => panic!("a draining server must not accept new work"),
        Err(other) => panic!("unexpected error: {other}"),
    }

    let (summary, cores) = handle.join().unwrap().unwrap();
    assert_eq!(cores.len(), 2);
    assert!(summary.jobs_completed >= 1);
    assert!(summary.frames_received >= 2);
}

#[test]
fn tcp_round_trips_like_loopback() {
    let net = generate(&GeneratorConfig::sized("e2e-tcp", 3, 90));
    let dir = temp_dir("tcp");
    let router = ShardRouter::start(cores_for(&net, 2), &dir).unwrap();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = server_config();
    let handle = std::thread::spawn(move || serve(listener, router, config, &FaultPlan::none()));

    let cfg = ClientConfig {
        backoff: Duration::from_millis(2),
        ..ClientConfig::default()
    };
    let mut client = NetClient::connect(Dialer::Tcp(addr.to_string()), cfg).unwrap();
    let reply = client.infer(&format::write(&net), 0).unwrap();
    assert_eq!(reply.probs_len as usize, net.node_count());

    client.drain().unwrap();
    let (summary, _) = handle.join().unwrap().unwrap();
    assert!(summary.jobs_completed >= 1);
}

#[cfg(feature = "fault-inject")]
mod fault_matrix {
    use super::*;

    #[test]
    fn connect_refused_heals_after_retries() {
        let net = generate(&GeneratorConfig::sized("e2e-refuse", 3, 90));
        let (dialer, handle) = start_server(&net, 2, "refuse", server_config(), FaultPlan::none());

        // The first two dials are refused; backoff then connects.
        let plan = FaultPlan::none().with_net_connect_refused(2);
        let mut client = quick_client_with_faults(dialer, plan);
        let reply = client.infer(&format::write(&net), 0).unwrap();
        assert_eq!(reply.probs_len as usize, net.node_count());

        client.drain().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn corrupt_frame_checksum_is_a_typed_refusal() {
        let net = generate(&GeneratorConfig::sized("e2e-corrupt", 3, 90));
        let (dialer, handle) = start_server(&net, 2, "corrupt", server_config(), FaultPlan::none());

        // Frame 0 is the Hello; frame 1 — the first request — is sent
        // with one checksum bit flipped.
        let plan = FaultPlan::none().with_net_corrupt_frame_checksum(1);
        let mut client = quick_client_with_faults(dialer.clone(), plan);
        let err = client.infer(&format::write(&net), 0).unwrap_err();
        match err {
            NetError::Server { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected a typed BadFrame refusal, got {other}"),
        }

        // The fault was one-shot: a fresh client sails through.
        let mut client = quick_client(dialer);
        client.infer(&format::write(&net), 0).unwrap();
        client.drain().unwrap();
        let (summary, _) = handle.join().unwrap().unwrap();
        assert!(summary.refusals >= 1);
    }

    #[test]
    fn slow_loris_is_evicted_then_heals() {
        let net = generate(&GeneratorConfig::sized("e2e-loris", 3, 90));
        let config = NetServerConfig {
            read_timeout: Duration::from_millis(25),
            frame_budget: Duration::from_millis(80),
            ..NetServerConfig::default()
        };
        let (dialer, handle) = start_server(&net, 2, "loris", config, FaultPlan::none());

        // The first frame trickles at ~100 bytes/s; the server's frame
        // budget evicts it, the one-shot fault clears, and the retry
        // completes at full speed.
        let plan = FaultPlan::none().with_net_slow_loris(100);
        let mut client = quick_client_with_faults(dialer, plan);
        let reply = client.infer(&format::write(&net), 0).unwrap();
        assert_eq!(reply.probs_len as usize, net.node_count());

        client.drain().unwrap();
        let (summary, _) = handle.join().unwrap().unwrap();
        assert!(
            summary.slow_loris_evictions >= 1,
            "the trickled frame was evicted: {summary:?}"
        );
    }

    #[test]
    fn disconnect_mid_flow_resumes_bit_identically() {
        let net = generate(&GeneratorConfig::sized("e2e-sever", 5, 120));

        // Reference: the same job on a fault-free server.
        let (clean_dialer, clean_handle) =
            start_server(&net, 2, "sever-clean", server_config(), FaultPlan::none());
        let mut clean = quick_client(clean_dialer);
        let expected = clean.flow(&flow_request(&net, "sever-job")).unwrap();
        clean.drain().unwrap();
        clean_handle.join().unwrap().unwrap();

        // Faulted: the server completes and journals the flow job but
        // severs the connection before the reply (frame 1 = Hello,
        // frame 2 = the flow request). The client reconnects and
        // resubmits the same job id; the journal resumes.
        let plan = FaultPlan::none().with_net_disconnect_after_frames(2);
        let (dialer, handle) = start_server(&net, 2, "sever", server_config(), plan);
        let mut client = quick_client(dialer);
        let resumed = client.flow(&flow_request(&net, "sever-job")).unwrap();

        assert_eq!(
            resumed.outcome_checksum, expected.outcome_checksum,
            "resumed outcome is bit-identical to the undisturbed run"
        );
        assert!(
            resumed.resumed_batches > 0,
            "the retry resumed the journal rather than redoing the job"
        );

        client.drain().unwrap();
        handle.join().unwrap().unwrap();
    }
}
