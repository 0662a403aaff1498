//! The shard router: N independent [`ServeCore`] workers behind one
//! front door.
//!
//! Each shard owns its whole serving stack — bounded admission queue,
//! write-ahead journals, page store — because the cores own them; the
//! router adds nothing shared except the routing function.
//! A design's requests always land on the same shard (FNV-1a of the
//! design text as the request carried it, mod shard count), so
//! per-design journals and warm embedding pages never migrate and never
//! interleave across shards.

use std::path::{Path, PathBuf};

use gcnt_dft::flow::FlowConfig;
use gcnt_netlist::Netlist;
use gcnt_runtime::fnv1a64;
use gcnt_serve::{FlowJobResult, InferResponse, ServeCore, ServeError, ServeHandle};

use crate::error::NetError;

struct Shard {
    handle: ServeHandle,
    journal_dir: PathBuf,
}

/// Routes requests across shards; see the module docs.
pub struct ShardRouter {
    shards: Vec<Shard>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardRouter({} shards)", self.shards.len())
    }
}

/// The stable routing key of a design: FNV-1a 64 over its text form —
/// the same hash family every other integrity envelope in the workspace
/// uses.
pub fn route_key(design_text: &str) -> u64 {
    fnv1a64(design_text.as_bytes())
}

/// Keeps only `[a-z0-9_-]` (lower-cased); everything else becomes `_`.
/// Job ids come off the wire, so they never touch the filesystem raw.
fn sanitize_job_id(job_id: &str) -> String {
    let mut out = String::with_capacity(job_id.len().min(64));
    for c in job_id.chars().take(64) {
        let c = c.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push_str("job");
    }
    out
}

impl ShardRouter {
    /// Starts one worker per core. `base_dir` gets a `shard-N/`
    /// directory per shard for that shard's journals — per-shard state
    /// is disjoint on disk by construction.
    ///
    /// # Errors
    ///
    /// [`NetError::Serve`] with zero cores or a failed worker spawn,
    /// [`NetError::Io`] if a shard directory cannot be created.
    pub fn start(cores: Vec<ServeCore>, base_dir: &Path) -> Result<Self, NetError> {
        if cores.is_empty() {
            return Err(NetError::Serve(
                "a shard router needs at least one core".to_string(),
            ));
        }
        let mut shards = Vec::with_capacity(cores.len());
        for (i, core) in cores.into_iter().enumerate() {
            let journal_dir = base_dir.join(format!("shard-{i}"));
            std::fs::create_dir_all(&journal_dir)
                .map_err(|e| NetError::Io(format!("create {}: {e}", journal_dir.display())))?;
            let handle = ServeHandle::start(core).map_err(|e| NetError::Serve(e.to_string()))?;
            shards.push(Shard {
                handle,
                journal_dir,
            });
        }
        let obs = gcnt_obs::global();
        obs.gauge_set(gcnt_obs::gauges::NET_SHARDS_ACTIVE, shards.len() as f64);
        Ok(ShardRouter { shards })
    }

    /// Shards behind this router.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a routing key lands on.
    pub fn shard_for(&self, key: u64) -> usize {
        // CAST: the modulus is a shard index < shards.len() <= usize.
        (key % self.shards.len().max(1) as u64) as usize
    }

    /// Where `job_id`'s journal lives on `shard` — always inside that
    /// shard's own directory, with the id sanitised first.
    pub fn journal_path(&self, shard: usize, job_id: &str) -> PathBuf {
        let dir = self
            .shards
            .get(shard)
            .map_or_else(|| PathBuf::from("."), |s| s.journal_dir.clone());
        dir.join(format!("job-{}.wal", sanitize_job_id(job_id)))
    }

    /// Requests pending across every shard queue.
    pub fn pending_total(&self) -> usize {
        self.shards.iter().map(|s| s.handle.pending()).sum()
    }

    fn shard(&self, idx: usize) -> Result<&Shard, ServeError> {
        self.shards.get(idx).ok_or(ServeError::WorkerGone)
    }

    fn note_depth(&self, idx: usize) {
        if let Some(s) = self.shards.get(idx) {
            gcnt_obs::global().gauge_max(
                gcnt_obs::gauges::NET_SHARD_QUEUE_DEPTH_PEAK,
                s.handle.pending() as f64,
            );
        }
    }

    /// Runs an inference request on the shard `key` (the design's
    /// [`route_key`]) lands on; returns the shard index alongside the
    /// answer.
    ///
    /// # Errors
    ///
    /// The shard's [`ServeError`] (admission, loading, serving).
    pub fn infer(
        &self,
        key: u64,
        net: Netlist,
        deadline: Option<u64>,
    ) -> Result<(usize, InferResponse), ServeError> {
        let idx = self.shard_for(key);
        let ticket = self.shard(idx)?.handle.submit_infer(net, deadline)?;
        self.note_depth(idx);
        Ok((idx, ticket.wait()?))
    }

    /// Runs a journaled flow job on the shard `key` (the design's
    /// [`route_key`]) lands on. The journal lives in the shard's own
    /// directory keyed by `job_id`, so resubmitting the same id after a
    /// disconnect resumes the same journal on the same shard.
    ///
    /// # Errors
    ///
    /// The shard's [`ServeError`].
    pub fn flow(
        &self,
        key: u64,
        net: Netlist,
        cfg: FlowConfig,
        job_id: &str,
        deadline: Option<u64>,
    ) -> Result<(usize, FlowJobResult), ServeError> {
        let idx = self.shard_for(key);
        let journal = self.journal_path(idx, job_id);
        let ticket = self
            .shard(idx)?
            .handle
            .submit_flow(net, cfg, journal, deadline)?;
        self.note_depth(idx);
        Ok((idx, ticket.wait()?))
    }

    /// Drains every shard queue, stops the workers, and hands the cores
    /// back in shard order.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerGone`] if any worker thread panicked; the
    /// remaining shards are still shut down before the error returns.
    pub fn shutdown(self) -> Result<Vec<ServeCore>, ServeError> {
        let mut cores = Vec::with_capacity(self.shards.len());
        let mut first_err = None;
        for shard in self.shards {
            match shard.handle.shutdown() {
                Ok(core) => cores.push(core),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(cores),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnt_core::{features::FeatureNormalizer, Gcn, GcnConfig, GraphData, MultiStageGcn};
    use gcnt_netlist::{format, generate, GeneratorConfig};
    use gcnt_nn::seeded_rng;
    use gcnt_serve::ServeConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gcnt-net-router-{tag}-{}-{}",
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

    fn cores(net: &Netlist, n: usize) -> Vec<ServeCore> {
        (0..n)
            .map(|_| {
                let (norm, model) = model_for(net);
                ServeCore::new(norm, model, ServeConfig::default())
            })
            .collect()
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let net = generate(&GeneratorConfig::sized("route", 5, 120));
        let dir = temp_dir("routing");
        let router = ShardRouter::start(cores(&net, 4), &dir).unwrap();
        let a = router.shard_for(route_key(&format::write(&net)));
        let b = router.shard_for(route_key(&format::write(&net)));
        assert_eq!(a, b, "same design, same shard");
        assert!(a < 4);
        router.shutdown().unwrap();
    }

    #[test]
    fn journal_paths_stay_inside_their_shard_dir() {
        let net = generate(&GeneratorConfig::sized("paths", 3, 90));
        let dir = temp_dir("paths");
        let router = ShardRouter::start(cores(&net, 2), &dir).unwrap();
        let p0 = router.journal_path(0, "Job A/…/b");
        let p1 = router.journal_path(1, "Job A/…/b");
        assert!(p0.starts_with(dir.join("shard-0")));
        assert!(p1.starts_with(dir.join("shard-1")));
        assert_eq!(p0.file_name(), p1.file_name());
        let name = p0.file_name().unwrap().to_str().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.'),
            "sanitised: {name}"
        );
        router.shutdown().unwrap();
    }

    #[test]
    fn empty_router_is_refused() {
        let dir = temp_dir("empty");
        assert!(matches!(
            ShardRouter::start(Vec::new(), &dir),
            Err(NetError::Serve(_))
        ));
    }

    #[test]
    fn infer_and_flow_round_trip_through_a_shard() {
        let net = generate(&GeneratorConfig::sized("rt", 5, 120));
        let dir = temp_dir("rt");
        let router = ShardRouter::start(cores(&net, 2), &dir).unwrap();
        let key = route_key(&format::write(&net));
        let (shard, resp) = router.infer(key, net.clone(), None).unwrap();
        assert_eq!(shard, router.shard_for(key));
        assert_eq!(resp.probs.len(), net.node_count());

        let cfg = FlowConfig {
            max_iterations: 2,
            ops_per_iteration: 1,
            candidate_limit: 4,
            ..FlowConfig::default()
        };
        let (fshard, done) = router.flow(key, net.clone(), cfg, "j1", None).unwrap();
        assert_eq!(fshard, shard, "flow routes like infer");
        assert!(done.response.journal_records > 0);
        let wal = router.journal_path(fshard, "j1");
        assert!(wal.exists(), "journal written under the shard dir");
        router.shutdown().unwrap();
    }
}
