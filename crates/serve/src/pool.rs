//! The accelerator pool: heterogeneous shards behind the unified
//! [`Accelerator`] contract, each priced by one step-cost table.
//!
//! A shard is one device instance (PICACHU engine, Gemmini-class,
//! A100 roofline, …), kept for the shard's whole life. Its cost table
//! prices bucketed (tenant, context, batch) shapes by *running* each
//! shape's step trace on that device under a [`FaultPlan`]; the healthy
//! table, measured at construction, is the one under the empty plan. The
//! table is dense per tenant — one prefill cost and a
//! `[context bucket − prompt bucket][log2 batch]` decode array — so every
//! price is an index computation, never a hash. A context past the probed
//! range scales the widest bucket's entry by 2^Δbucket; a prefill at
//! another bucket, or an unknown tenant, costs 1. The healthy table is a
//! pure function of `(spec, tenants, max_batch)` and never changes when
//! faults arrive, which is what lets the degraded-capacity tests assert
//! healthy shards' measurements stay bit-identical to fault-free runs.
//!
//! Every price the scheduler reads is one lookup in the shard's *current*
//! table, which a plan replaces (it never multiplies a healthy price). A
//! PICACHU shard runs every key's trace under the plan on its one engine
//! ([`PicachuEngine::try_execute_trace_faulted`]), so a fault costs exactly
//! what it slows down; a ladder rejection, ECC storm or DMA exhaustion
//! takes the shard out of service, and the engine's compile memo answers a
//! plan it has walked before. The analytical baselines have no compiler to
//! consult, so under a plan each healthy entry scales by the alive
//! fraction of a nominal 16-unit device. An empty plan restores the
//! healthy table.

use crate::arrivals::Tenant;
use picachu::engine::{EngineConfig, PicachuEngine};
use picachu_backend::Accelerator;
use picachu_baselines::{CpuModel, GemminiModel, GpuModel, HomogeneousCgraModel, TandemModel};
use picachu_faults::FaultPlan;
use picachu_llm::trace::{batched_decode_trace, model_trace, TraceOp};
use picachu_nonlinear::NonlinearOp;
use std::collections::BTreeSet;

/// What device a shard is.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardSpec {
    /// A PICACHU engine with its own [`EngineConfig`].
    Picachu(EngineConfig),
    /// Gemmini-class accelerator (dedicated nonlinear units + scalar core).
    Gemmini,
    /// A100 roofline model.
    Gpu,
    /// Host-CPU offload baseline.
    Cpu,
    /// Tandem-class vector processor.
    Tandem,
    /// Conventional homogeneous CGRA.
    CgraBase,
}

impl ShardSpec {
    /// A default-config PICACHU shard.
    pub fn picachu() -> ShardSpec {
        ShardSpec::Picachu(EngineConfig::default())
    }

    /// A PICACHU shard configured from a searched design point — the
    /// deployment path of the co-design search: `picachu::dse::search`
    /// produces a Pareto frontier, and any member becomes a servable shard
    /// via its knobs.
    pub fn from_design(point: &picachu::dse::DesignPoint) -> ShardSpec {
        ShardSpec::Picachu(point.knobs.engine_config())
    }

    /// Instantiates the device and, for PICACHU shards, pre-warms the union
    /// of the tenants' nonlinear kernels through one grouped compile batch
    /// before the first trace runs. Compilation is deterministic in the
    /// engine config, so warming changes *when* the mapper runs — a single
    /// flat parallel pass instead of op-by-op on the first trace of each
    /// tenant — never *what* it produces; cost tables are bit-identical
    /// either way.
    pub fn build_warmed(&self, tenants: &[Tenant]) -> Box<dyn Accelerator> {
        match Device::new(self, tenants) {
            Device::Picachu(engine) => engine,
            Device::Analytical(backend) => backend,
        }
    }
}

/// log2 of the power-of-two bucket covering `x` (shape-compatibility
/// classes for batching and cost lookup).
pub fn bucket_log2(x: usize) -> u32 {
    x.max(1).next_power_of_two().trailing_zeros()
}

/// One entry of a shard's cost table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CostKey {
    /// Tenant index.
    pub tenant: usize,
    /// `true` for a prefill step (bucket covers the prompt), `false` for a
    /// batched decode step (bucket covers the KV-cache context).
    pub prefill: bool,
    /// log2 of the shape bucket.
    pub bucket: u32,
    /// Batch size (always 1 for prefill).
    pub batch: u32,
}

/// Per-shard outcome of a serving run — the report the degraded-capacity
/// tests compare across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard id.
    pub shard: usize,
    /// Device name.
    pub backend: String,
    /// Batches executed.
    pub batches: u64,
    /// Sequence-steps executed (sum of batch sizes).
    pub steps: u64,
    /// Total busy time in ns.
    pub busy_ns: u64,
    /// The measured healthy step costs, sorted by key — a pure function of
    /// `(spec, tenants, max_batch)`, so bit-identical across runs whatever
    /// faults hit the rest of the pool.
    pub cost_table: Vec<(CostKey, u64)>,
    /// Whether the shard was in service at the end of the run.
    pub in_service: bool,
    /// In-flight batches killed by chaos crashes on this shard.
    pub killed_batches: u64,
    /// Decode batches preempted mid-step for a higher-priority prefill.
    pub preempted_batches: u64,
    /// Busy time charged to batches that never completed (killed or
    /// preempted) — the price of chaos, excluded from useful `busy_ns`.
    pub wasted_ns: u64,
}

/// One tenant's step costs in ns: its prefill, and a decode step for every
/// context bucket from the prompt's to the widest probed, at every
/// power-of-two batch up to the shard's maximum.
#[derive(Debug, Clone, PartialEq)]
struct TenantCosts {
    /// log2 of the prompt bucket: the prefill's shape and the first decode
    /// context bucket.
    prompt_bucket: u32,
    /// Cost of the prefill step.
    prefill: u64,
    /// Decode costs, row-major `[bucket − prompt_bucket][log2 batch]`.
    decode: Vec<u64>,
}

/// Step costs in ns for every shape the tenants can present, dense per
/// tenant.
#[derive(Debug, Clone, PartialEq)]
struct CostTable {
    /// Batch classes per decode bucket: log2 of the largest batch, plus one.
    batch_classes: usize,
    tenants: Vec<TenantCosts>,
}

impl CostTable {
    /// Cost of a decode step of `tenant` at context bucket `bucket` and
    /// batch bucket `batch_log2`, clamped to the largest batch probed. A
    /// context bucket outside the probed range charges the widest probed
    /// bucket scaled by the bucket ratio (decode beyond the declared max,
    /// still deterministic); an unknown tenant costs 1.
    fn decode(&self, tenant: usize, bucket: u32, batch_log2: u32) -> u64 {
        let Some(t) = self.tenants.get(tenant) else { return 1 };
        let class = (batch_log2 as usize).min(self.batch_classes - 1);
        let widest = t.decode.len() / self.batch_classes - 1;
        let row = bucket.checked_sub(t.prompt_bucket).map(|r| r as usize);
        match row.filter(|&r| r <= widest) {
            Some(r) => t.decode[r * self.batch_classes + class],
            None => {
                let widest_bucket = t.prompt_bucket + widest as u32;
                t.decode[widest * self.batch_classes + class]
                    .saturating_mul(1 << bucket.saturating_sub(widest_bucket))
            }
        }
    }

    /// Cost of `tenant`'s prefill at bucket `bucket`; a prefill at any
    /// other bucket than the prompt's, or of an unknown tenant, costs 1.
    fn prefill(&self, tenant: usize, bucket: u32) -> u64 {
        match self.tenants.get(tenant) {
            Some(t) if t.prompt_bucket == bucket => t.prefill,
            _ => 1,
        }
    }

    /// Every entry with its key, tenant by tenant: the prefill, then the
    /// decode steps bucket by bucket, batch by batch.
    fn entries(&self) -> impl Iterator<Item = (CostKey, u64)> + '_ {
        self.tenants.iter().enumerate().flat_map(move |(tenant, t)| {
            let prefill = CostKey { tenant, prefill: true, bucket: t.prompt_bucket, batch: 1 };
            let decode = t.decode.iter().enumerate().map(move |(i, &c)| {
                let key = CostKey {
                    tenant,
                    prefill: false,
                    bucket: t.prompt_bucket + (i / self.batch_classes) as u32,
                    batch: 1 << (i % self.batch_classes),
                };
                (key, c)
            });
            std::iter::once((prefill, t.prefill)).chain(decode)
        })
    }

    /// The same shapes with every cost mapped through `f`.
    fn map(&self, f: impl Fn(u64) -> u64) -> CostTable {
        CostTable {
            batch_classes: self.batch_classes,
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantCosts {
                    prompt_bucket: t.prompt_bucket,
                    prefill: f(t.prefill),
                    decode: t.decode.iter().map(|&c| f(c)).collect(),
                })
                .collect(),
        }
    }
}

/// Prices every shape the tenants can present — the prompt bucket for
/// prefill; for decode, context buckets from prompt to prompt + max decode
/// at `batch_classes` batch sizes, the powers of two from 1 — with `run`
/// giving one step trace's cost in ns. `None` at the first trace `run`
/// refuses.
fn measure(
    tenants: &[Tenant],
    batch_classes: usize,
    mut run: impl FnMut(&[TraceOp]) -> Option<f64>,
) -> Option<CostTable> {
    let mut cost = |trace: Vec<TraceOp>| Some((run(&trace)?.ceil() as u64).max(1));
    let mut table = CostTable { batch_classes, tenants: Vec::with_capacity(tenants.len()) };
    for t in tenants {
        let prompt_bucket = bucket_log2(t.prompt);
        let prefill = cost(model_trace(&t.model, 1usize << prompt_bucket))?;
        let mut decode = Vec::new();
        for bucket in prompt_bucket..=bucket_log2(t.prompt + t.decode.1) {
            for class in 0..batch_classes {
                decode.push(cost(batched_decode_trace(&t.model, 1usize << bucket, 1 << class))?);
            }
        }
        table.tenants.push(TenantCosts { prompt_bucket, prefill, decode });
    }
    Some(table)
}

/// The device behind a shard, kept for the shard's whole life.
enum Device {
    /// A prewarmed PICACHU engine: faults take its degradation ladder.
    Picachu(Box<PicachuEngine>),
    /// An analytical baseline.
    Analytical(Box<dyn Accelerator>),
}

impl Device {
    /// Instantiates `spec`'s device (see [`ShardSpec::build_warmed`]).
    fn new(spec: &ShardSpec, tenants: &[Tenant]) -> Device {
        match spec {
            ShardSpec::Picachu(cfg) => Device::Picachu(Box::new(prewarmed(cfg, tenants))),
            ShardSpec::Gemmini => Device::Analytical(Box::new(GemminiModel::hosted())),
            ShardSpec::Gpu => Device::Analytical(Box::new(GpuModel::default())),
            ShardSpec::Cpu => Device::Analytical(Box::new(CpuModel::hosted())),
            ShardSpec::Tandem => Device::Analytical(Box::new(TandemModel::hosted())),
            ShardSpec::CgraBase => Device::Analytical(Box::new(HomogeneousCgraModel::hosted())),
        }
    }
}

/// A PICACHU engine with the union of the tenants' nonlinear kernels
/// compiled in one grouped batch.
fn prewarmed(cfg: &EngineConfig, tenants: &[Tenant]) -> PicachuEngine {
    let mut engine = PicachuEngine::new(cfg.clone());
    let mut ops: BTreeSet<NonlinearOp> = BTreeSet::new();
    for t in tenants {
        ops.extend(t.model.nonlinear_ops());
    }
    if let Err(e) = engine.prewarm(&ops.into_iter().collect::<Vec<_>>()) {
        // a healthy-fabric compile failure surfaces again, typed, on the
        // first trace the engine runs; warn and let that run report it
        eprintln!("picachu-serve: shard prewarm failed: {e}");
    }
    engine
}

/// One device of the pool, with its measured costs and live fault state.
pub struct Shard {
    /// Shard id (index into the pool).
    pub id: usize,
    /// The device spec this shard was built from.
    pub spec: ShardSpec,
    /// Device name (stable, from the backend).
    pub backend_name: String,
    /// The fault plan currently applied (empty = healthy).
    pub fault: FaultPlan,
    /// The measured healthy table: [`Shard::price`] under the empty plan.
    healthy: CostTable,
    /// The table every price reads: the healthy one or the applied plan's;
    /// `None` while the shard is out of service.
    current: Option<CostTable>,
    /// The device every table is measured on.
    device: Device,
}

impl Shard {
    /// Builds the shard and eagerly measures its healthy cost table over
    /// every bucketed shape the tenants can present (see `measure`).
    ///
    /// # Panics
    /// Panics when a PICACHU shard's kernels fail to map on its healthy
    /// fabric — a misconfigured device, not a runtime condition.
    pub fn new(id: usize, spec: ShardSpec, tenants: &[Tenant], max_batch: usize) -> Shard {
        let device = Device::new(&spec, tenants);
        let backend_name = match &device {
            Device::Picachu(engine) => engine.name(),
            Device::Analytical(backend) => backend.name(),
        };
        // `price` reads the table's shape; its entries follow
        let batch_classes = bucket_log2(max_batch) as usize + 1;
        let mut shard = Shard {
            id,
            backend_name: backend_name.to_string(),
            spec,
            fault: FaultPlan::none(),
            healthy: CostTable { batch_classes, tenants: Vec::new() },
            current: None,
            device,
        };
        shard.healthy = shard.price(&FaultPlan::none(), tenants).unwrap_or_else(|| {
            panic!("shard {id}: the healthy {} prices no table", shard.backend_name)
        });
        shard.current = Some(shard.healthy.clone());
        shard
    }

    /// Every cost key priced on this shard's device under `plan`; `None`
    /// when the plan takes the device out of service. PICACHU runs each
    /// key's trace under the plan; an analytical device runs it under the
    /// empty plan and otherwise scales the healthy table by 16 / alive.
    fn price(&mut self, plan: &FaultPlan, tenants: &[Tenant]) -> Option<CostTable> {
        let batch_classes = self.healthy.batch_classes;
        match &mut self.device {
            Device::Picachu(engine) => measure(tenants, batch_classes, |trace| {
                engine.try_execute_trace_faulted(trace, plan).ok().map(|b| b.total())
            }),
            Device::Analytical(backend) if plan.is_empty() => {
                measure(tenants, batch_classes, |trace| Some(backend.execute_trace(trace).total()))
            }
            Device::Analytical(_) => {
                const NOMINAL_UNITS: usize = 16;
                let dead = plan.dead_tiles.iter().filter(|&&t| t < NOMINAL_UNITS).count();
                (dead < NOMINAL_UNITS).then(|| {
                    let factor = NOMINAL_UNITS as f64 / (NOMINAL_UNITS - dead) as f64;
                    self.healthy.map(|c| ((c as f64) * factor).ceil() as u64)
                })
            }
        }
    }

    /// Whether the shard can accept work.
    pub fn in_service(&self) -> bool {
        self.current.is_some()
    }

    /// Takes the shard out of service immediately — the chaos `Crash`
    /// action. Unlike [`Shard::apply_fault`] with a total-outage plan this
    /// never consults the compiler (a crashed shard answers nothing); the
    /// fault plan is left untouched so re-applying it restores exactly the
    /// pre-crash degradation state.
    pub fn force_out_of_service(&mut self) {
        self.current = None;
    }

    /// The current table.
    ///
    /// # Panics
    /// Panics if the shard is out of service — the scheduler never prices
    /// work on such a shard.
    fn table(&self) -> &CostTable {
        match &self.current {
            Some(table) => table,
            None => panic!("shard {} priced while out of service", self.id),
        }
    }

    /// Cost of a batched decode step: `batch` sequences of `tenant`, each
    /// holding `context` cached tokens. Batch and context quantize up to
    /// their power-of-two buckets (conservative).
    ///
    /// # Panics
    /// Panics if the shard is out of service.
    pub fn decode_cost(&self, tenant: usize, context: usize, batch: usize) -> u64 {
        self.table().decode(tenant, bucket_log2(context), bucket_log2(batch))
    }

    /// Cost of a prefill step for `tenant`.
    ///
    /// # Panics
    /// Panics if the shard is out of service.
    pub fn prefill_cost(&self, tenant: usize, prompt: usize) -> u64 {
        self.table().prefill(tenant, bucket_log2(prompt))
    }

    /// Applies `plan`, replacing the shard's current table with
    /// [`Shard::price`] under it: out of service when the plan takes the
    /// device down (a PICACHU ladder rejection, ECC storm or DMA
    /// exhaustion; every analytical unit dead). An empty plan restores the
    /// healthy table.
    pub fn apply_fault(&mut self, plan: &FaultPlan, tenants: &[Tenant]) {
        self.current = if plan.is_empty() {
            Some(self.healthy.clone())
        } else {
            self.price(plan, tenants)
        };
        self.fault = plan.clone();
    }

    /// Snapshot of the measured healthy cost table, sorted by key.
    pub fn cost_table(&self) -> Vec<(CostKey, u64)> {
        let mut v: Vec<(CostKey, u64)> = self.healthy.entries().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picachu_llm::ModelConfig;

    fn tiny_tenant() -> Tenant {
        Tenant {
            name: "tiny",
            model: ModelConfig {
                name: "tiny-2l",
                layers: 2,
                d_model: 64,
                n_heads: 4,
                d_ff: 128,
                ..ModelConfig::gpt2()
            },
            weight: 1,
            prompt: 32,
            decode: (4, 8),
            slo_ns: 1_000_000_000,
            priority: 0,
        }
    }

    /// Asserts every entry of `table` is `run` of its key's step trace,
    /// ceiled to whole ns (at least 1).
    fn assert_runs(table: &CostTable, ts: &[Tenant], mut run: impl FnMut(&[TraceOp]) -> f64) {
        for (key, cost) in table.entries() {
            let t = &ts[key.tenant].model;
            let trace = if key.prefill {
                model_trace(t, 1usize << key.bucket)
            } else {
                batched_decode_trace(t, 1usize << key.bucket, key.batch as usize)
            };
            assert_eq!(cost, (run(&trace).ceil() as u64).max(1), "{key:?}");
        }
    }

    /// A plan with every tile of a nominal 16-unit device dead.
    fn all_dead() -> FaultPlan {
        (0..16).fold(FaultPlan::none(), |plan, t| plan.with_dead_tile(t))
    }

    #[test]
    fn forced_outage_preserves_fault_state_for_recovery() {
        let ts = vec![tiny_tenant()];
        let mut s = Shard::new(0, ShardSpec::Gemmini, &ts, 2);
        s.apply_fault(&FaultPlan::dead_tile(3), &ts);
        let degraded = s.current.clone();
        s.force_out_of_service();
        assert!(!s.in_service());
        assert_eq!(s.fault, FaultPlan::dead_tile(3), "crash must not erase the plan");
        // re-applying the standing plan lands back on the degraded (not
        // healthy, not dead) table
        let plan = s.fault.clone();
        s.apply_fault(&plan, &ts);
        assert_eq!(s.current, degraded);
        assert_ne!(s.current.as_ref(), Some(&s.healthy));
    }

    #[test]
    fn cost_tables_deterministic_and_batch_monotone() {
        let ts = vec![tiny_tenant()];
        let a = Shard::new(0, ShardSpec::Gemmini, &ts, 8);
        let b = Shard::new(0, ShardSpec::Gemmini, &ts, 8);
        assert_eq!(a.cost_table(), b.cost_table());
        assert!(!a.cost_table().is_empty());
        // a bigger batch can only cost more in total...
        let c1 = a.decode_cost(0, 32, 1);
        let c8 = a.decode_cost(0, 32, 8);
        assert!(c8 >= c1, "{c8} vs {c1}");
        // ...but less per sequence (the point of batching) on the
        // launch-bound GPU
        let g = Shard::new(1, ShardSpec::Gpu, &ts, 8);
        let g1 = g.decode_cost(0, 32, 1);
        let g8 = g.decode_cost(0, 32, 8);
        assert!(g8 < 8 * g1, "batching must amortize launches: {g8} vs 8x{g1}");
    }

    #[test]
    fn faulted_picachu_shard_prices_by_running_the_trace() {
        let ts = vec![tiny_tenant()];
        let plan = FaultPlan::dead_tile(5);
        let mut s = Shard::new(0, ShardSpec::picachu(), &ts, 4);
        s.apply_fault(&plan, &ts);
        assert!(s.in_service());
        // every entry is the key's own trace run on the degraded mappings
        let mut engine = PicachuEngine::new(EngineConfig::default());
        let current = s.current.clone().expect("in service");
        assert!(current.entries().map(|(k, _)| k).eq(s.healthy.entries().map(|(k, _)| k)));
        assert_runs(&current, &ts, |trace| {
            engine.try_execute_trace_faulted(trace, &plan).expect("runs").total()
        });
        // the healthy table never moved
        let fresh = Shard::new(0, ShardSpec::picachu(), &ts, 4);
        assert_eq!(s.cost_table(), fresh.cost_table());
        // the empty plan restores the healthy prices exactly
        s.apply_fault(&FaultPlan::none(), &ts);
        assert_eq!(s.current.as_ref(), Some(&fresh.healthy));
        // killing the whole fabric rejects on every rung → out of service
        s.apply_fault(&all_dead(), &ts);
        assert!(!s.in_service());
    }

    #[test]
    fn healthy_tables_cost_what_running_each_trace_costs() {
        let wide = Tenant { name: "wide", prompt: 100, decode: (2, 40), ..tiny_tenant() };
        let ts = vec![tiny_tenant(), wide];
        let kinds = [
            ShardSpec::picachu(),
            ShardSpec::Gemmini,
            ShardSpec::Gpu,
            ShardSpec::Cpu,
            ShardSpec::Tandem,
            ShardSpec::CgraBase,
        ];
        for spec in kinds {
            let mut device = spec.build_warmed(&ts);
            let s = Shard::new(0, spec, &ts, 4);
            assert_runs(&s.healthy, &ts, |trace| device.execute_trace(trace).total());
        }
    }

    #[test]
    fn reapplying_a_plan_makes_no_compile_cache_lookup() {
        let ts = vec![tiny_tenant()];
        let plan = FaultPlan::dead_tile(5);
        let mut s = Shard::new(0, ShardSpec::picachu(), &ts, 4);
        s.apply_fault(&plan, &ts);
        let degraded = s.current.clone();
        s.apply_fault(&FaultPlan::none(), &ts);
        let Device::Picachu(engine) = &s.device else { unreachable!("a PICACHU shard") };
        let cache = engine.compile_cache().clone();
        let stats = cache.stats();
        // the shard's own ladder memo answers a plan it has walked before
        s.apply_fault(&plan, &ts);
        assert_eq!(cache.stats(), stats, "re-applying a known plan looked up the cache");
        assert_eq!(s.current, degraded);
    }

    #[test]
    fn analytical_shards_lose_alive_fraction() {
        let ts = vec![tiny_tenant()];
        let mut s = Shard::new(0, ShardSpec::Gemmini, &ts, 4);
        s.apply_fault(&FaultPlan::dead_tile(0).with_dead_tile(1), &ts);
        let current = s.current.clone().expect("in service");
        assert_eq!(current.entries().count(), s.healthy.entries().count());
        for ((key, cost), (healthy_key, healthy)) in current.entries().zip(s.healthy.entries()) {
            assert_eq!(key, healthy_key);
            assert_eq!(cost, (healthy as f64 * 16.0 / 14.0).ceil() as u64, "{key:?}");
        }
        s.apply_fault(&all_dead(), &ts);
        assert!(!s.in_service());
    }

    /// Pins the lookup semantics of `prefill_cost` / `decode_cost` on a
    /// two-tenant shard: exact entries, batch quantization and clamping,
    /// and every fallback.
    #[test]
    fn cost_lookups_answer_every_entry_and_keep_their_fallbacks() {
        let wide = Tenant { name: "wide", prompt: 100, decode: (2, 40), ..tiny_tenant() };
        let ts = vec![tiny_tenant(), wide];
        let s = Shard::new(0, ShardSpec::Gemmini, &ts, 8);
        let table = s.cost_table();
        let entry = |tenant: usize, prefill: bool, bucket: u32, batch: u32| {
            let key = CostKey { tenant, prefill, bucket, batch };
            table.iter().find(|(k, _)| *k == key).map(|&(_, c)| c).expect("probed key")
        };
        // every key answers with its own entry
        assert_eq!(table.len(), 2 * (1 + 2 * 4), "one prefill + 2 buckets × 4 batches each");
        for &(k, c) in &table {
            let got = if k.prefill {
                s.prefill_cost(k.tenant, 1 << k.bucket)
            } else {
                s.decode_cost(k.tenant, 1 << k.bucket, k.batch as usize)
            };
            assert_eq!(got, c, "{k:?}");
        }
        assert_eq!(s.prefill_cost(1, 100), entry(1, true, 7, 1));
        assert_eq!(s.decode_cost(1, 130, 2), entry(1, false, 8, 2));
        // batches quantize up to their power of two and clamp at max_batch
        assert_eq!(s.decode_cost(0, 32, 0), entry(0, false, 5, 1));
        assert_eq!(s.decode_cost(0, 32, 3), entry(0, false, 5, 4));
        assert_eq!(s.decode_cost(0, 32, 20), entry(0, false, 5, 8));
        // a context past the probed range scales the widest bucket by 2^Δ
        for batch in [1u32, 2, 4, 8] {
            let far = s.decode_cost(0, 1 << 14, batch as usize);
            assert_eq!(far, entry(0, false, 6, batch) << (14 - 6), "batch {batch}");
            assert_eq!(
                s.decode_cost(1, 1 << 14, batch as usize),
                entry(1, false, 8, batch) << (14 - 8)
            );
        }
        // a context below the prompt bucket reads the widest bucket as is
        assert_eq!(s.decode_cost(1, 1, 4), entry(1, false, 8, 4));
        // a prefill at another bucket, or any unknown tenant, costs 1
        assert_eq!(s.prefill_cost(0, 64), 1);
        assert_eq!(s.prefill_cost(1, 32), 1);
        assert_eq!(s.prefill_cost(2, 32), 1);
        assert_eq!(s.decode_cost(2, 32, 1), 1);
        assert_eq!(s.decode_cost(2, 1 << 14, 8), 1);
    }

    #[test]
    fn context_beyond_probed_range_stays_deterministic() {
        let ts = vec![tiny_tenant()];
        let s = Shard::new(0, ShardSpec::Tandem, &ts, 2);
        let far = s.decode_cost(0, 1 << 14, 1);
        assert!(far >= s.decode_cost(0, 64, 1));
        assert_eq!(far, s.decode_cost(0, 1 << 14, 1));
    }
}
