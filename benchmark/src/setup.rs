//! The four workloads and their set-up: build the data, train a snapshot,
//! start the doctor and warm it with one pass over the request pool.

use std::sync::Arc;
use std::time::Instant;

use foss_common::sync::Mutex;
use foss_common::{FossError, FxHashMap, QueryId};
use foss_core::{Foss, FossConfig, Inference, PlannerSnapshot, TrainReport};
use foss_executor::{CacheStats, CachingExecutor, EvictionPolicy};
use foss_harness::Experiment;
use foss_optimizer::PhysicalPlan;
use foss_query::Query;
use foss_service::tier::TierEntry;
use foss_service::{
    FallbackReason, PlanClient, PlanDecision, PlanDoctor, PlanOutcome, PlanRequest, PlanServer,
    QueryRequest, ServiceConfig, TierEngine,
};
use foss_workloads::{Workload, WorkloadSpec};

use crate::trace::SpanLog;
use crate::Res;

/// The result cache the doctor serves through.
#[derive(Debug, Clone, Copy)]
pub enum Cache {
    /// Unbounded, so after the warm-up pass every execute is a hit.
    Unbounded,
    /// LRU of this many `(query, plan)` entries.
    Lru(usize),
}

/// One workload: what it builds, how it trains and how it is served.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Data set, by `foss_workloads` registry name.
    pub data: &'static str,
    pub scale: f64,
    /// The paper's model widths (`FossConfig::default()`) or the tiny model.
    pub paper_model: bool,
    /// `Foss::train_iteration` rounds after `Foss::bootstrap`.
    pub iterations: usize,
    pub cache: Cache,
    /// WRL/GMRL from `evaluate_on` over the held-out test split, as the
    /// paper trains and tests; otherwise from the served decisions.
    pub held_out_quality: bool,
    /// Requests go through `PlanServer`/`PlanClient` on loopback.
    pub wire: bool,
    /// Requests one client completes per second on the reference machine;
    /// sizes the fixed request sequence so a run lasts about `--seconds`.
    pub client_rps: f64,
}

/// Requests are sent by this many closed-loop clients.
pub const CLIENTS: usize = 2;

/// Data-generation seed: the data stay fixed, `--seed` picks the requests.
pub const DATA_SEED: u64 = 42;

pub const SPECS: [Spec; 4] = [
    // Planning inference at the paper's model widths is nearly the whole
    // request and the executor only answers from its warm cache.
    Spec {
        name: "serve-warm",
        data: "joblite",
        scale: 1.0,
        paper_model: true,
        iterations: 1,
        cache: Cache::Unbounded,
        held_out_quality: false,
        wire: false,
        client_rps: 410.0,
    },
    // Execution dominates: a 16-entry LRU against 80 queries' worth of
    // (query, plan) keys misses almost always, and the Zipf tail sets p99.
    Spec {
        name: "serve-exec",
        data: "skewstress",
        scale: 1.0,
        paper_model: false,
        // Fewer rounds leave the doctor keeping every expert plan.
        iterations: 8,
        cache: Cache::Lru(16),
        held_out_quality: false,
        wire: false,
        client_rps: 420.0,
    },
    // The HTTP layer is about half of each round trip; nothing else runs it.
    Spec {
        name: "serve-wire",
        data: "dsblite",
        scale: 1.0,
        paper_model: false,
        iterations: 1,
        cache: Cache::Unbounded,
        held_out_quality: false,
        wire: true,
        client_rps: 990.0,
    },
    // Training: forward and backward passes, simulated episodes, PPO
    // updates and real validation executions; then the fresh snapshot is
    // evaluated on the held-out split and serves the whole workload.
    Spec {
        name: "train",
        data: "joblite",
        scale: 0.15,
        paper_model: false,
        iterations: 6,
        cache: Cache::Unbounded,
        held_out_quality: true,
        wire: false,
        client_rps: 1600.0,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.into_iter().find(|s| s.name == name)
}

impl Spec {
    pub fn config(&self) -> FossConfig {
        let tiny = FossConfig::tiny();
        if self.paper_model {
            // The paper's widths on the tiny schedule: 900 simulated
            // episodes per update would make set-up take minutes.
            FossConfig {
                episodes_per_update: tiny.episodes_per_update,
                promising_per_update: tiny.promising_per_update,
                random_validation_per_update: tiny.random_validation_per_update,
                aam_epochs: tiny.aam_epochs,
                ..FossConfig::default()
            }
        } else {
            tiny
        }
    }
}

/// What the doctor answered for one pool query during the warm-up pass;
/// every later answer for the same query must agree.
#[derive(Debug, Clone)]
pub struct Reference {
    pub plan: PhysicalPlan,
    pub fingerprint: u64,
    pub selected_step: usize,
    pub candidates: usize,
    pub fallback: bool,
}

impl Reference {
    fn of(d: &PlanDecision) -> Self {
        Self {
            plan: d.plan.clone(),
            fingerprint: d.plan.fingerprint(),
            selected_step: d.selected_step,
            candidates: d.candidates,
            fallback: d.fallback,
        }
    }

    pub fn matches(&self, d: &PlanDecision) -> bool {
        self.fingerprint == d.plan.fingerprint()
            && self.selected_step == d.selected_step
            && self.candidates == d.candidates
            && self.fallback == d.fallback
    }
}

/// Times of one set-up.
#[derive(Debug, Clone)]
pub struct SetupTimes {
    pub setup_s: f64,
    pub build_s: f64,
    pub bootstrap_s: f64,
    pub iteration_s: Vec<f64>,
    pub train_s: f64,
    pub last_report: TrainReport,
    /// The trainer's cache counters over the training schedule.
    pub train_cache: CacheStats,
}

impl Stack {
    /// A client of the wire workload's server.
    pub fn wire_client(&self) -> Option<PlanClient> {
        self.server.as_ref().map(PlanServer::client)
    }
}

/// A set-up, ready to serve.
pub struct Stack {
    pub exp: Experiment,
    /// The trainer, kept for the `train` workload's evaluation.
    pub foss: Option<Foss>,
    pub doctor: Arc<PlanDoctor>,
    pub pool: Vec<Query>,
    pub reference: Vec<Reference>,
    /// The traced run's replay of `submit`; `None` untraced.
    pub replayer: Option<Replayer>,
    /// Loopback endpoint of the wire workload.
    pub server: Option<PlanServer>,
}

fn executor(exp: &Experiment, cache: Cache) -> CachingExecutor {
    let db = exp.workload.db.clone();
    let cost = *exp.workload.optimizer.cost_model();
    match cache {
        Cache::Unbounded => CachingExecutor::new(db, cost),
        Cache::Lru(n) => CachingExecutor::with_capacity_policy(db, cost, n, EvictionPolicy::Lru),
    }
}

/// Run `f`, under a span when tracing; returns its result and seconds.
fn timed<T>(
    log: &mut Option<&mut SpanLog>,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t = Instant::now();
    let out = match log.as_deref_mut() {
        Some(log) => log.time(0, layer, None, f),
        None => f(),
    };
    (out, t.elapsed().as_secs_f64())
}

/// Build, train, start the doctor and warm it. `since` is when this set-up
/// began (process start for the first one). With `log`, training calls and
/// the warm-up pass's replay are traced.
pub fn set_up(
    spec: &Spec,
    since: Instant,
    mut log: Option<&mut SpanLog>,
) -> Res<(Stack, SetupTimes)> {
    let t = Instant::now();
    let workload = Workload::by_name(
        spec.data,
        WorkloadSpec {
            seed: DATA_SEED,
            scale: spec.scale,
        },
    )?;
    let build_s = t.elapsed().as_secs_f64();
    let train_exec = Arc::new(CachingExecutor::new(
        workload.db.clone(),
        *workload.optimizer.cost_model(),
    ));
    let exp = Experiment {
        workload,
        executor: train_exec,
    };

    let mut foss = exp.foss(spec.config());
    let before = exp.executor.stats();
    let train = Instant::now();
    let (report, bootstrap_s) = timed(&mut log, "core.bootstrap", || {
        foss.bootstrap(&exp.workload.train, 1)
    });
    let mut last_report = report?;
    let mut iteration_s = Vec::with_capacity(spec.iterations);
    for i in 1..=spec.iterations {
        let (report, s) = timed(&mut log, "core.train_iteration", || {
            foss.train_iteration(&exp.workload.train, i)
        });
        last_report = report?;
        iteration_s.push(s);
    }
    let train_s = train.elapsed().as_secs_f64();
    let train_cache = exp.executor.stats().since(&before);

    let snapshot = foss.snapshot();
    let doctor = Arc::new(PlanDoctor::new(
        snapshot,
        Arc::new(executor(&exp, spec.cache)),
        ServiceConfig::default(),
    ));
    let pool = exp.workload.all_queries();
    let replayer = log
        .is_some()
        .then(|| Replayer::new(&doctor, &exp, spec.cache));
    let mut reference = Vec::with_capacity(pool.len());
    for (i, q) in pool.iter().enumerate() {
        let d = doctor.submit(QueryRequest::new(q.clone()))?;
        if let (Some(r), Some(log)) = (&replayer, log.as_deref_mut()) {
            let replayed = r.replay(log, i as u64, q)?;
            if !replayed.agrees(&d) {
                return Err(
                    format!("warm-up replay of pool query {i} disagrees with submit").into(),
                );
            }
        }
        reference.push(Reference::of(&d));
    }
    let server = if spec.wire {
        let server = PlanServer::start(doctor.clone(), pool.clone(), "127.0.0.1:0")?;
        for (i, r) in reference.iter().enumerate() {
            match server.client().plan(&PlanRequest::for_index(i))? {
                PlanOutcome::Decision(reply) if reply.fingerprint == r.fingerprint => {}
                other => return Err(format!("warm-up wire request {i} answered {other:?}").into()),
            }
        }
        Some(server)
    } else {
        None
    };
    let times = SetupTimes {
        setup_s: since.elapsed().as_secs_f64(),
        build_s,
        bootstrap_s,
        iteration_s,
        train_s,
        last_report,
        train_cache,
    };
    let stack = Stack {
        exp,
        foss: Some(foss),
        doctor,
        pool,
        reference,
        replayer,
        server,
    };
    Ok((stack, times))
}

/// Replays `PlanDoctor::submit` call by call through the public layer
/// functions it makes, timing each: the expert plan (memoised, as the
/// service does), the doctored inference, then the tier lookup and execute
/// of the expert plan and, when one was chosen, of the doctored plan. It
/// executes on a shadow cache and tier engine built like the doctor's, so
/// replaying neither warms the doctor's cache for the `submit` it is
/// paired with nor double-counts shapes in the doctor's tier.
pub struct Replayer {
    snapshot: Arc<PlannerSnapshot>,
    executor: CachingExecutor,
    tier: TierEngine,
    memo: Mutex<FxHashMap<QueryId, PhysicalPlan>>,
    cfg: ServiceConfig,
}

/// The replay's decision, for comparison with `submit`'s.
pub struct Replayed {
    /// Index of the replay's root span in the log.
    pub root: usize,
    pub inference: Inference,
    pub served: u64,
    pub reason: FallbackReason,
}

impl Replayed {
    pub fn agrees(&self, d: &PlanDecision) -> bool {
        self.served == d.plan.fingerprint()
            && self.reason == d.reason
            && self.inference.selected_step == d.selected_step
            && self.inference.candidates == d.candidates
    }
}

impl Replayer {
    fn new(doctor: &PlanDoctor, exp: &Experiment, cache: Cache) -> Self {
        let cfg = *doctor.config();
        Self {
            snapshot: doctor.snapshot(),
            executor: executor(exp, cache),
            tier: TierEngine::new(cfg.tier),
            memo: Mutex::new(FxHashMap::default()),
            cfg,
        }
    }

    fn execute(
        &self,
        log: &mut SpanLog,
        req: u64,
        parent: usize,
        query: &Query,
        plan: &PhysicalPlan,
        budget: Option<f64>,
    ) -> foss_common::Result<foss_executor::ExecOutcome> {
        let entry = log.time(req, "tier.pipeline_for", Some(parent), || {
            self.tier.pipeline_for(query, plan)
        });
        log.time(req, "executor.execute", Some(parent), || {
            match entry.as_deref() {
                Some(TierEntry::Compiled(p)) => {
                    self.executor.execute_tiered(query, plan, budget, Some(p))
                }
                _ => self.executor.execute(query, plan, budget),
            }
        })
    }

    /// Replay one request under a `replay` root span.
    pub fn replay(&self, log: &mut SpanLog, req: u64, query: &Query) -> Res<Replayed> {
        let root = log.open(req, "replay", None);
        let memoised = self.memo.lock().get(&query.id).cloned();
        let expert_plan = match memoised {
            Some(plan) => plan,
            None => {
                let plan = log.time(req, "optimizer.expert_plan", Some(root), || {
                    self.snapshot.expert_plan(query)
                })?;
                self.memo.lock().insert(query.id, plan.clone());
                plan
            }
        };
        let inference = log.time(req, "core.infer", Some(root), || {
            self.snapshot.optimize_detailed_from(query, &expert_plan)
        })?;
        let expert = self.execute(log, req, root, query, &expert_plan, None)?;
        let mut reason = FallbackReason::None;
        if inference.selected_step != 0 && inference.aam_confidence < self.cfg.min_confidence {
            reason = FallbackReason::LowConfidence;
        }
        let doctored = inference.plan.fingerprint();
        let mut served = doctored;
        if reason != FallbackReason::None {
            served = expert_plan.fingerprint();
        } else if doctored != expert_plan.fingerprint() {
            let budget = expert.latency * self.cfg.exec_timeout_factor;
            match self.execute(log, req, root, query, &inference.plan, Some(budget)) {
                Ok(_) => {}
                Err(FossError::Timeout { .. }) => {
                    reason = FallbackReason::ExecTimeout;
                    served = expert_plan.fingerprint();
                }
                Err(e) => return Err(e.into()),
            }
        }
        log.close(root);
        Ok(Replayed {
            root,
            inference,
            served,
            reason,
        })
    }
}

/// Each client's fixed request sequence: whole passes over the pool, each
/// pass a seeded shuffle, so every client sends the same mix of queries
/// and only their order depends on the seed.
pub fn sequences(seed: u64, pool: usize, passes: usize) -> Vec<Vec<usize>> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let stream = foss_common::SeedStream::new(seed);
    (0..CLIENTS)
        .map(|c| {
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(stream.derive_indexed("client", c as u64));
            let mut seq = Vec::with_capacity(pool * passes);
            for _ in 0..passes {
                let mut pass: Vec<usize> = (0..pool).collect();
                pass.shuffle(&mut rng);
                seq.extend(pass);
            }
            seq
        })
        .collect()
}

/// Whole passes per client in each of `segments` segments, so the timed
/// segments together last about `seconds` on the reference machine.
/// Never fewer than a p99 needs.
pub fn passes_per_segment(spec: &Spec, pool: usize, seconds: f64, segments: usize) -> usize {
    let wanted = (seconds * spec.client_rps / (pool * segments) as f64).round() as usize;
    wanted.max(crate::stats::MIN_P99_SAMPLES.div_ceil(pool * CLIENTS))
}
