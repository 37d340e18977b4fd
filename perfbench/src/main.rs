//! perfbench — the end-to-end and per-layer benchmark of `pim-serve`.
//!
//! ```text
//! perfbench prepare --workload W --dir D
//! perfbench setup --workload W --seed N --dir D
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D [--doctor flip|drop]
//! ```
//!
//! `prepare` writes the workload's model artifact (untimed). `run` sets the
//! serve tier up several times from that artifact, each time in a fresh
//! process (`setup`), timing each; the last set-up is its own and runs
//! a closed-loop saturation phase and a paced Poisson phase from one
//! load-generating thread, checks every output, and prints one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See README.md for the workloads and the metrics.

mod drive;
mod ledger;
mod verify;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use capsnet::census::NetworkCensus;
use capsnet::{CapsNet, CapsNetSpec, ExactMath};
use capsnet_workloads::soak::{soak_serve_config, soak_spec, tier_for_tenant};
use capsnet_workloads::traffic::streaming_spec;
use gpu_sim::{GpuModelParams, GpuSpec, GpuTimingModel};
use pim_serve::{
    AdmissionPolicy, BatchExecution, CacheConfig, CacheReport, ModelRegistry, Priority, ReplicaSet,
    ReplicaSetConfig, Request, RoutingPolicy, ServeCache, ServeConfig, ServedModel, Server,
    SloConfig,
};
use pim_store::{MappedModel, ModelWriter, SharedArtifact};
use pim_tensor::Tensor;

use drive::{
    closed_loop, paced, quantile, slot_quantile, Completion, PhaseStats, Planned, Poll, Rng, Target,
};
use ledger::Ledger;
use verify::{PlainWeights, Verifier};

/// Seed of every workload's model weights (fixed: `--seed` varies inputs).
const WEIGHT_SEED: u64 = 42;
/// Content ids at and above this are warm-up inputs, never measured ones.
const WARM_BASE: u64 = 1 << 40;

/// Where request content comes from.
#[derive(Clone, Copy)]
enum Content {
    /// Every request carries new content (cache lookups all miss).
    Distinct { tenants: usize },
    /// Zipf-ranked content over a fixed catalog.
    Zipf {
        keys: usize,
        skew: f64,
        tenants: usize,
    },
    /// A bounded pool drawn uniformly; tenants carry priority tiers.
    Tiers { pool: usize, tenants: usize },
}

/// One workload's make-up.
struct Plan {
    name: &'static str,
    spec: CapsNetSpec,
    serve: ServeConfig,
    /// Replica-pool size; 0 serves from a single `Server`.
    replicas: usize,
    cache: Option<CacheConfig>,
    /// Outstanding requests in the closed-loop phase.
    window: usize,
    /// Offered rate of the paced phase, requests/s.
    paced_hz: f64,
    /// Share of `--seconds` spent in the closed-loop phase.
    closed_share: f64,
    /// Samples per closed-loop throughput group (see `drive::closed_loop`).
    group: u64,
    /// Slots the paced phase is cut into; latencies are medians over slots.
    slots: usize,
    poll: Poll,
    /// Set-ups per run (the reported `setup_s` is their median).
    setup_reps: usize,
    content: Content,
    /// Samples checked against the f64 plain-loop forward.
    f64_samples: usize,
    /// Timed repetitions of the stage ledger (at least).
    ledger_reps: usize,
}

fn plan(name: &str) -> Option<Plan> {
    match name {
        "mn1-serve" => {
            let mut spec = capsnet_workloads::benchmarks()
                .into_iter()
                .find(|b| b.name == "Caps-MN1")?
                .spec();
            spec.batch_shared_routing = false;
            Some(Plan {
                name: "mn1-serve",
                spec,
                serve: ServeConfig {
                    max_batch: 8,
                    max_wait: Duration::from_millis(2),
                    queue_capacity: 256,
                    workers: 1,
                    execution: BatchExecution::Auto,
                    admission: AdmissionPolicy::QueueBound,
                },
                replicas: 0,
                cache: Some(CacheConfig::default()),
                window: 24,
                paced_hz: 7.0,
                closed_share: 0.15,
                group: 8,
                slots: 1,
                poll: Poll::Sleep(Duration::from_micros(250)),
                setup_reps: 3,
                content: Content::Distinct { tenants: 4 },
                f64_samples: 2,
                ledger_reps: 3,
            })
        }
        "stream-zipf-pool" => Some(Plan {
            name: "stream-zipf-pool",
            spec: streaming_spec(),
            serve: ServeConfig {
                max_batch: 16,
                max_wait: Duration::from_millis(2),
                queue_capacity: 256,
                workers: 1,
                execution: BatchExecution::Auto,
                admission: AdmissionPolicy::QueueBound,
            },
            replicas: 2,
            // 8 shards × 2 responses of ~300 bytes: 16 per replica against
            // a 512-key catalog, so about a fifth of lookups hit.
            cache: Some(CacheConfig {
                byte_budget: 8 * 2 * 320,
                ..CacheConfig::default()
            }),
            window: 96,
            paced_hz: 20.0,
            closed_share: 0.4,
            group: 64,
            slots: 1,
            poll: Poll::Sleep(Duration::from_micros(250)),
            setup_reps: 5,
            content: Content::Zipf {
                keys: 512,
                skew: 1.0,
                tenants: 4,
            },
            f64_samples: 2,
            ledger_reps: 3,
        }),
        "micro-tiers" => Some(Plan {
            name: "micro-tiers",
            spec: soak_spec(),
            // The soak scheduler with its tenant quota, but shed ceilings no
            // wait can reach. Whether a request is shed depends on timing: on
            // a shared host one descheduled batch lifts the wait estimate a
            // hundredfold, shedding a few requests in one run and none in the
            // next, and a failure that comes and goes cannot be counted the
            // same way in every run. Admission is still decided per request.
            serve: ServeConfig {
                admission: AdmissionPolicy::SloAware(SloConfig {
                    shed_wait_us: [u64::MAX; 3],
                    ..SloConfig::default()
                }),
                ..soak_serve_config()
            },
            replicas: 0,
            cache: None,
            window: 512,
            paced_hz: 20_000.0,
            closed_share: 0.1,
            group: 25_000,
            slots: 8,
            poll: Poll::Spin,
            setup_reps: 51,
            content: Content::Tiers {
                pool: 256,
                tenants: 300,
            },
            f64_samples: 16,
            ledger_reps: 200,
        }),
        _ => None,
    }
}

/// The run's request inputs: a pre-built pool (catalog) plus seeded
/// generation for everything else.
struct Inputs {
    seed: u64,
    dims: [usize; 4],
    pool: Vec<Tensor>,
}

impl Inputs {
    fn new(plan: &Plan, seed: u64) -> Self {
        let s = &plan.spec;
        let mut inputs = Inputs {
            seed,
            dims: [1, s.input_channels, s.input_hw.0, s.input_hw.1],
            pool: Vec::new(),
        };
        let size = match plan.content {
            Content::Distinct { .. } => 0,
            Content::Zipf { keys, .. } => keys,
            Content::Tiers { pool, .. } => pool,
        };
        inputs.pool = (0..size as u64).map(|id| inputs.generate(id)).collect();
        inputs
    }

    fn generate(&self, id: u64) -> Tensor {
        let mut rng = Rng::new(self.seed, id.wrapping_add(0x1111));
        Tensor::uniform(&self.dims, 0.0, 1.0, rng.next_u64())
    }

    /// The input of content id `id`.
    fn image(&self, id: u64) -> Tensor {
        match self.pool.get(id as usize) {
            Some(t) => t.clone(),
            None => self.generate(id),
        }
    }
}

/// Draws the next request of a workload's stream.
struct Stream {
    content: Content,
    rng: Rng,
    next_id: u64,
    zipf_cdf: Vec<f64>,
}

impl Stream {
    fn new(content: Content, seed: u64) -> Self {
        let zipf_cdf = match content {
            Content::Zipf { keys, skew, .. } => {
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (0..keys)
                    .map(|r| {
                        acc += 1.0 / ((r + 1) as f64).powf(skew);
                        acc
                    })
                    .collect();
                cdf.iter_mut().for_each(|c| *c /= acc);
                cdf
            }
            _ => Vec::new(),
        };
        Stream {
            content,
            rng: Rng::new(seed, 0x5eed),
            next_id: 0,
            zipf_cdf,
        }
    }

    fn next(&mut self, inputs: &Inputs) -> Planned {
        let (id, tenant, priority) = match self.content {
            Content::Distinct { tenants } => {
                self.next_id += 1;
                (self.next_id - 1, self.rng.below(tenants), Priority::Normal)
            }
            Content::Zipf { keys, tenants, .. } => {
                let v = self.rng.unit();
                let rank = self.zipf_cdf.partition_point(|&c| c < v).min(keys - 1);
                (rank as u64, self.rng.below(tenants), Priority::Normal)
            }
            Content::Tiers { pool, tenants } => {
                let tenant = self.rng.below(tenants);
                (self.rng.below(pool) as u64, tenant, tier_for_tenant(tenant))
            }
        };
        Planned {
            id,
            request: Request::new(tenant, 0, inputs.image(id)).with_priority(priority),
        }
    }
}

/// Command-line options of `run`.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: PathBuf,
    doctor: Option<String>,
}

/// What one set-up (and, in the measuring process, its phases) did.
#[derive(Default)]
struct Measured {
    setup_s: f64,
    open_ms: f64,
    first_batch_ms: f64,
    close_ms: f64,
    closed: PhaseStats,
    paced: PhaseStats,
    warm: PhaseStats,
    server_completions: u64,
    cache: Option<CacheReport>,
    /// Pool only: lookups and hits per the serve metrics.
    pool_cache: Option<(u64, u64)>,
    mapped_mb: f64,
    peak_rss_mb: f64,
}

impl Measured {
    fn phases(&self) -> [&PhaseStats; 3] {
        [&self.warm, &self.closed, &self.paced]
    }

    fn attempted(&self) -> u64 {
        self.phases().iter().map(|p| p.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.phases().iter().map(|p| p.failed()).sum()
    }

    /// Every accepted ticket was harvested once, and the server completed
    /// exactly the requests the generator saw complete.
    fn reconciles(&self) -> bool {
        let sum = |f: fn(&PhaseStats) -> u64| self.phases().iter().map(|p| f(p)).sum::<u64>();
        let accepted = sum(|p| p.attempted) - sum(|p| p.refused);
        verify::reconciles(
            accepted,
            sum(|p| p.completed) + sum(|p| p.errored),
            self.server_completions + sum(|p| p.errored),
        )
    }
}

/// Everything the measured window needs, split so the generator's
/// closures can borrow parts independently.
struct Window<'v> {
    plan: &'v Plan,
    inputs: &'v Inputs,
    stream: Stream,
    verifier: Verifier,
    sampled: Vec<(u64, Vec<f32>)>,
    traced: bool,
    doctor: Option<String>,
    seed: u64,
    seconds: f64,
}

impl Window<'_> {
    fn sink(&mut self) -> impl FnMut(Completion) + '_ {
        let f64_samples = self.plan.f64_samples;
        let doctor_flip = self.doctor.as_deref() == Some("flip");
        let verifier = &mut self.verifier;
        let sampled = &mut self.sampled;
        let mut flipped = false;
        move |done: Completion| {
            if let Ok(mut r) = done.outcome {
                if doctor_flip && !flipped && done.id < WARM_BASE {
                    // Self-test: one flipped bit in one measured response.
                    r.class_norms_sq[0] = f32::from_bits(r.class_norms_sq[0].to_bits() ^ 1);
                    flipped = true;
                }
                if sampled.len() < f64_samples
                    && done.id < WARM_BASE
                    && !sampled.iter().any(|(id, _)| *id == done.id)
                {
                    sampled.push((done.id, r.class_norms_sq.clone()));
                }
                verifier.observe(done.id, &r);
            }
        }
    }

    /// One warm-up batch per replica, with inputs no measured request uses.
    fn warm_up<T: Target>(&mut self, target: &T) -> (PhaseStats, f64) {
        let n = self.plan.serve.max_batch * self.plan.replicas.max(1);
        let inputs = self.inputs;
        let mut k = 0;
        let mut next = || {
            k += 1;
            let id = WARM_BASE + k;
            Planned {
                id,
                request: Request::new(0, 0, inputs.image(id)),
            }
        };
        let t0 = Instant::now();
        let mut sink = self.sink();
        let stats = drive::batch(target, n, &mut next, &mut sink);
        (stats, t0.elapsed().as_secs_f64() * 1e3)
    }

    /// Runs the closed-loop phase, then the paced phase, on one stream.
    fn phases<T: Target>(&mut self, target: &T) -> (PhaseStats, PhaseStats) {
        let closed_for = Duration::from_secs_f64(self.seconds * self.plan.closed_share);
        let paced_for = Duration::from_secs_f64(self.seconds * (1.0 - self.plan.closed_share));
        let traced = self.traced;
        let drop_one = self.doctor.as_deref() == Some("drop");
        let (plan, inputs) = (self.plan, self.inputs);
        let mut stream = std::mem::replace(&mut self.stream, Stream::new(plan.content, 0));
        let mut gaps = Rng::new(self.seed, 0x9a95);
        let closed = {
            let mut next = || stream.next(inputs);
            let mut sink = self.sink();
            closed_loop(
                target,
                plan.window,
                closed_for,
                plan.group,
                plan.poll,
                traced,
                &mut next,
                &mut sink,
            )
        };
        let paced = {
            let mut next = || stream.next(inputs);
            let mut gap = || gaps.exp_gap(plan.paced_hz);
            let mut sink = self.sink();
            paced(
                target, paced_for, plan.slots, plan.poll, traced, drop_one, &mut gap, &mut next,
                &mut sink,
            )
        };
        self.stream = stream;
        (closed, paced)
    }
}

fn artifact_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("{workload}.pimcaps"))
}

/// Writes the workload's f32 artifact unless a valid one is already there.
fn prepare(plan: &Plan, dir: &Path) -> Result<(), String> {
    let path = artifact_path(dir, plan.name);
    if let Ok(existing) = MappedModel::open(&path) {
        if existing.spec() == &plan.spec {
            return Ok(());
        }
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let net = CapsNet::seeded(&plan.spec, WEIGHT_SEED).map_err(|e| e.to_string())?;
    ModelWriter::new()
        .save(&net, &path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Opens the artifact, builds the serve tier, runs one warm-up batch (that
/// much is `setup_s`), then — when `measure` is set — the measured phases.
fn serve_once(
    plan: &Plan,
    w: &mut Window<'_>,
    path: &Path,
    measure: bool,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let t0 = Instant::now();
    if plan.replicas == 0 {
        let mapped = MappedModel::open(path).map_err(|e| e.to_string())?;
        m.open_ms = t0.elapsed().as_secs_f64() * 1e3;
        m.mapped_mb = mapped.image_len() as f64 / (1u64 << 20) as f64;
        let net = mapped.capsnet().map_err(|e| e.to_string())?;
        let registry = ModelRegistry::from_models([ServedModel::new(plan.name, net)]);
        let cache = plan.cache.map(|c| Arc::new(ServeCache::new(c, 1)));
        let mut server =
            Server::new(&registry, &ExactMath, plan.serve).map_err(|e| e.to_string())?;
        if let Some(c) = &cache {
            server = server.with_cache(Arc::clone(c));
        }
        let (closing, report) = server.run(|h| serve_window(w, &mut m, h, t0, measure));
        m.close_ms = closing.elapsed().as_secs_f64() * 1e3;
        m.server_completions = report.completions();
        m.cache = cache.map(|c| c.report());
    } else {
        let artifact = SharedArtifact::open(path).map_err(|e| e.to_string())?;
        m.open_ms = t0.elapsed().as_secs_f64() * 1e3;
        m.mapped_mb = artifact.image_len() as f64 / (1u64 << 20) as f64;
        let cfg = ReplicaSetConfig {
            replicas: plan.replicas,
            policy: RoutingPolicy::RoundRobin,
            serve: plan.serve,
            cache: plan.cache,
            ..ReplicaSetConfig::default()
        };
        let pool = ReplicaSet::from_shared(plan.name, &artifact, &ExactMath, cfg)
            .map_err(|e| e.to_string())?;
        let (closing, report) = pool.run(|h| serve_window(w, &mut m, h, t0, measure));
        m.close_ms = closing.elapsed().as_secs_f64() * 1e3;
        m.server_completions = report.requests + report.cache_hits;
        m.pool_cache = Some((m.server_completions, report.cache_hits));
    }
    m.peak_rss_mb = vm_hwm_mb();
    Ok(m)
}

/// The body of a serve window: the warm-up batch (which ends `setup_s`,
/// timed from `t0`), then the measured phases when `measure` is set.
/// Returns when the window closure finished, for `serve.close_ms`.
fn serve_window<T: Target>(
    w: &mut Window<'_>,
    m: &mut Measured,
    target: &T,
    t0: Instant,
    measure: bool,
) -> Instant {
    (m.warm, m.first_batch_ms) = w.warm_up(target);
    m.setup_s = t0.elapsed().as_secs_f64();
    if measure {
        (m.closed, m.paced) = w.phases(target);
    }
    Instant::now()
}

/// One set-up measured in a process of its own, so each starts as a
/// server process would and none leaves memory behind in the measuring
/// process. Returns `(setup_s, open_ms, first_batch_ms, attempted, failed,
/// reconciled)`.
fn setup_in_child(args: &Args) -> Result<(f64, f64, f64, u64, u64, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["setup", "--workload", &args.workload, "--seed"])
        .arg(args.seed.to_string())
        .arg("--dir")
        .arg(&args.dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let line = String::from_utf8_lossy(&out.stdout);
    let f: Vec<&str> = line.split_whitespace().collect();
    let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    match (
        out.status.success(),
        num(0),
        num(1),
        num(2),
        num(3),
        num(4),
        f.get(5),
    ) {
        (true, Some(s), Some(o), Some(b), Some(a), Some(x), Some(r)) => {
            Ok((s, o, b, a as u64, x as u64, *r == "true"))
        }
        _ => Err(format!("set-up process failed: {line}")),
    }
}

/// Host facts the README records beside the figures.
fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "cores={} cpu=\"{}\" simd={} available_threads={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu,
        pim_tensor::simd::active_level().name(),
        pim_tensor::par::available_threads()
    )
}

fn gpu_shares(spec: &CapsNetSpec, batch: usize) -> String {
    let census = match NetworkCensus::from_spec(spec, batch.max(1)) {
        Ok(c) => c,
        Err(e) => return format!("unavailable ({e})"),
    };
    let t = GpuTimingModel::with_params(GpuSpec::p100(), GpuModelParams::default())
        .network_times(&census);
    let total = t.total();
    format!(
        "conv={:.1}% primary={:.1}% rp={:.1}% fc={:.1}%",
        100.0 * t.conv / total,
        100.0 * t.l_caps / total,
        100.0 * t.rp / total,
        100.0 * t.fc / total
    )
}

/// Renders one metric map entry.
fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The window state for `plan` under `args`.
fn window<'v>(plan: &'v Plan, inputs: &'v Inputs, args: &Args, verifier: Verifier) -> Window<'v> {
    Window {
        plan,
        inputs,
        stream: Stream::new(plan.content, args.seed),
        verifier,
        sampled: Vec::new(),
        traced: args.traced,
        doctor: args.doctor.clone(),
        seed: args.seed,
        seconds: args.seconds,
    }
}

/// `setup`: one set-up in this process; prints `setup_s open_ms
/// first_batch_ms attempted failed reconciled`. Its warm-up sends the same
/// inputs as the measuring process's, whose responses are checked there.
fn setup(args: &Args) -> Result<bool, String> {
    let plan = plan(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let inputs = Inputs::new(&plan, args.seed);
    let mut w = window(&plan, &inputs, args, Verifier::default());
    let m = serve_once(&plan, &mut w, &artifact_path(&args.dir, plan.name), false)?;
    println!(
        "{} {} {} {} {} {}",
        m.setup_s,
        m.open_ms,
        m.first_batch_ms,
        m.attempted(),
        m.failed(),
        m.reconciles()
    );
    Ok(true)
}

fn run(args: &Args) -> Result<bool, String> {
    let plan = plan(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let path = artifact_path(&args.dir, plan.name);
    if !path.exists() {
        return Err(format!("{} missing: run `prepare` first", path.display()));
    }
    // All set-ups but the last run in processes of their own.
    let mut setups = Vec::new();
    let (mut child_attempted, mut child_failed, mut children_reconciled) = (0, 0, true);
    for _ in 1..plan.setup_reps {
        let (s, open_ms, first_ms, attempted, failed, reconciled) = setup_in_child(args)?;
        setups.push((s, open_ms, first_ms));
        child_attempted += attempted;
        child_failed += failed;
        children_reconciled &= reconciled;
    }

    let inputs = Inputs::new(&plan, args.seed);
    let image = |id: u64| inputs.image(id);
    let mut verifier = Verifier::default();
    // A bounded pool gets its references before timing starts, so every
    // response is checked on arrival and none is kept. Opening the
    // artifact verifies (touches) every page, so a large model opens its
    // reference copy only after peak memory has been read.
    let mut reference = None;
    if let Content::Tiers { pool, .. } = plan.content {
        let mm = MappedModel::open(&path).map_err(|e| e.to_string())?;
        let net = mm.capsnet().map_err(|e| e.to_string())?;
        verifier.precompute(&net, &image, pool as u64);
        reference = Some((mm, net));
    }
    let mut w = window(&plan, &inputs, args, verifier);
    let mut measured = serve_once(&plan, &mut w, &path, true)?;
    setups.push((measured.setup_s, measured.open_ms, measured.first_batch_ms));
    let Window {
        mut verifier,
        sampled,
        ..
    } = w;
    let (mapped, net) = match reference {
        Some(r) => r,
        None => {
            let mm = MappedModel::open(&path).map_err(|e| e.to_string())?;
            let net = mm.capsnet().map_err(|e| e.to_string())?;
            (mm, net)
        }
    };
    verifier.finish(&net, &image);
    let flip_caught = verifier.bit_flip_is_caught();
    let mut ledger_checks = verifier.ledger.clone();

    // f64 plain-loop forward on a sampled subset of measured responses.
    let plain = PlainWeights::load(&mapped);
    for (id, served) in &sampled {
        plain.check(inputs.image(*id).as_slice(), served, &mut ledger_checks);
    }

    let completed: u64 = measured.phases().iter().map(|p| p.completed).sum();
    let reconciled = measured.reconciles() && children_reconciled;
    // Self-test of the reconciliation: one lost ticket must break it.
    let drop_caught = !verify::reconciles(completed + 1, completed, completed);
    let attempted = measured.attempted() + child_attempted;
    let failed = measured.failed() + child_failed;

    for (label, p) in [
        ("warm-up", &measured.warm),
        ("closed-loop", &measured.closed),
        ("paced", &measured.paced),
    ] {
        eprintln!(
            "perfbench: {} phase={label} attempted={} failed={} (refused={} errored={} dropped={}) \
             throughput_groups={} latency_samples={}",
            plan.name,
            p.attempted,
            p.failed(),
            p.refused,
            p.errored,
            p.dropped,
            p.throughput_groups,
            p.latency_ms.iter().map(Vec::len).sum::<usize>()
        );
    }
    eprintln!(
        "perfbench: {} set-up processes={} attempted={child_attempted} failed={child_failed}",
        plan.name,
        setups.len() - 1
    );
    eprintln!(
        "perfbench: {} checks compared={} mismatched={} hits_compared={} squash_violations={} \
         f64_checked={} f64_failed={} f64_max_abs_err={:e} reconciled={reconciled} \
         self_test_flip={flip_caught} self_test_drop={drop_caught}",
        plan.name,
        ledger_checks.compared,
        ledger_checks.mismatched,
        ledger_checks.hits_compared,
        ledger_checks.squash_violations,
        ledger_checks.f64_checked,
        ledger_checks.f64_failed,
        ledger_checks.f64_max_abs_err
    );
    eprintln!("perfbench: host {}", host_line());

    let column = |i: usize| {
        let mut v: Vec<f64> = setups
            .iter()
            .map(|s: &(f64, f64, f64)| [s.0, s.1, s.2][i])
            .collect();
        drive::median(&mut v)
    };
    let (setup_s, open_ms, first_batch_ms) = (column(0), column(1), column(2));
    let throughput = measured.closed.throughput_sps;
    let p50 = slot_quantile(&mut measured.paced.latency_ms, 0.5);
    let p90 = slot_quantile(&mut measured.paced.latency_ms, 0.9);
    eprintln!(
        "perfbench: {} e2e setup_s={setup_s} throughput_sps={throughput} latency_p50_ms={p50} \
         latency_p90_ms={p90} peak_rss_mb={} traced={}",
        plan.name, measured.peak_rss_mb, args.traced
    );

    let mut correct = ledger_checks.passed()
        && ledger_checks.compared == completed
        && reconciled
        && flip_caught
        && drop_caught
        && throughput > 0.0
        && p90 > 0.0;

    let metrics = if args.traced {
        let batch = measured.closed.median_batch().max(1);
        let mut images = Vec::with_capacity(batch * inputs.dims[1..].iter().product::<usize>());
        for id in 0..batch as u64 {
            images.extend_from_slice(inputs.image(id).as_slice());
        }
        let dims = [batch, inputs.dims[1], inputs.dims[2], inputs.dims[3]];
        let images = Tensor::from_vec(images, &dims).map_err(|e| e.to_string())?;
        let budget = Duration::from_secs_f64(1.5);
        let l: Ledger = ledger::measure(&mapped, &net, &images, plan.ledger_reps, budget);
        correct &= l.bitwise;
        eprintln!(
            "perfbench: {} ledger batch={} bitwise={} stage_sum/forward={:.4} measured shares \
             conv1={:.1}% primary={:.1}% uhat={:.1}% routing={:.1}% | gpu model (P100) {}",
            plan.name,
            l.batch,
            l.bitwise,
            l.stage_sum_ratio(),
            100.0 * l.conv1_ms / l.forward_ms,
            100.0 * l.primary_ms / l.forward_ms,
            100.0 * l.uhat_ms / l.forward_ms,
            100.0 * l.routing_ms / l.forward_ms,
            gpu_shares(&plan.spec, l.batch)
        );
        let p = &mut measured.paced;
        let (mean_batch, batches) = p.occupancy_mean();
        let mut submit_us: Vec<f32> = measured
            .closed
            .submit_us
            .iter()
            .chain(&p.submit_us)
            .copied()
            .collect();
        let served: u64 = p.per_replica.iter().sum();
        let max_share =
            p.per_replica.iter().copied().max().unwrap_or(0) as f64 / served.max(1) as f64;
        let (lookups, hits, bloom_neg, insertions, evictions) =
            match (&measured.cache, measured.pool_cache) {
                (Some(c), _) => (
                    c.hits + c.misses,
                    c.hits,
                    c.bloom_negatives,
                    c.insertions,
                    c.evictions + c.orphan_evictions,
                ),
                // The pool keeps each replica's cache private: lookups and hits
                // come from the serve metrics; the rest is not observable.
                (None, Some((lookups, hits))) => (lookups, hits, 0, 0, 0),
                (None, None) => (0, 0, 0, 0, 0),
            };
        vec![
            metric("capsnet.conv1_ms", l.conv1_ms, "ms"),
            metric("capsnet.primary_ms", l.primary_ms, "ms"),
            metric("capsnet.uhat_ms", l.uhat_ms, "ms"),
            metric("capsnet.routing_ms", l.routing_ms, "ms"),
            metric("capsnet.forward_ms", l.forward_ms, "ms"),
            metric("tensor.conv1_gflops", l.conv1_gflops, "GFLOP/s"),
            metric("tensor.primary_gflops", l.primary_gflops, "GFLOP/s"),
            metric("tensor.uhat_gbps", l.uhat_gbps, "GB/s"),
            metric("serve.queue_ms", quantile(&mut p.queue_ms, 0.5), "ms"),
            metric("serve.service_ms", quantile(&mut p.service_ms, 0.5), "ms"),
            metric("serve.batch_samples", mean_batch, "samples"),
            metric("serve.batches", batches as f64, "count"),
            metric("serve.submit_us", quantile(&mut submit_us, 0.5), "us"),
            metric("serve.close_ms", measured.close_ms, "ms"),
            metric("replica.max_share", max_share, "ratio"),
            metric("cache.lookups", lookups as f64, "count"),
            metric("cache.hits", hits as f64, "count"),
            metric(
                "cache.hit_rate",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
            ),
            metric("cache.bloom_negatives", bloom_neg as f64, "count"),
            metric("cache.insertions", insertions as f64, "count"),
            metric("cache.evictions", evictions as f64, "count"),
            metric("store.open_ms", open_ms, "ms"),
            metric("store.first_batch_ms", first_batch_ms, "ms"),
            metric("store.mapped_mb", measured.mapped_mb, "MiB"),
            metric(
                "workloads.lateness_ms",
                quantile(&mut p.lateness_ms, 0.9),
                "ms",
            ),
        ]
    } else {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("throughput_sps", throughput, "samples/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("peak_rss_mb", measured.peak_rss_mb, "MiB"),
        ]
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

fn parse_args(argv: &[String]) -> Result<(String, Args), String> {
    let mode = argv.first().cloned().ok_or("missing mode (prepare|run)")?;
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        dir: PathBuf::from("."),
        doctor: None,
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.traced = value == "1",
            "--dir" => args.dir = PathBuf::from(value),
            "--doctor" if value == "flip" || value == "drop" => args.doctor = Some(value.clone()),
            _ => return Err(format!("unknown option {flag} {value}")),
        }
    }
    Ok((mode, args))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|(mode, args)| match mode.as_str() {
        "prepare" => {
            let plan = plan(&args.workload)
                .ok_or_else(|| format!("unknown workload {}", args.workload))?;
            prepare(&plan, &args.dir).map(|()| true)
        }
        "setup" => setup(&args),
        "run" => run(&args),
        other => Err(format!("unknown mode {other}")),
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
