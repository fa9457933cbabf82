//! The deterministic discrete-event serving scheduler.
//!
//! One event loop advances simulated time over five event classes —
//! chaos injections, compile-outage expiries, batch completions,
//! retry re-dispatches, request arrivals (processed in that order at equal
//! timestamps, then by a stable tie id) — and after *every* event pumps the
//! pool to a work-conserving fixpoint: each startable shard begins a batch
//! from its own queue if idle, then idle shards with empty queues steal the
//! oldest waiting sequence from the most-backlogged shard. The
//! post-condition (no startable shard idle while any compatible work waits
//! anywhere) is audited on every event, not assumed.
//!
//! Scheduling policy, in one paragraph: admission control caps
//! admitted-but-incomplete requests at `max_in_flight` (typed `QueueFull`
//! rejection past it; `NoCapacity` when no shard is in service; `Shed` when
//! the best achievable backlog-estimated latency exceeds
//! `shed_deadline_factor × slo`). Placement charges each in-service shard
//! its estimated backlog plus the request's estimated remaining work — both
//! looked up in the shard's current cost table (healthy, or re-measured
//! under its fault plan) — and picks the minimum, lowest shard id on ties. Batches form
//! from a shard's queue around the most urgent waiting sequence (lowest
//! priority class, FIFO within a class — identical to plain FIFO when every
//! tenant shares one class): all members share one compatibility key
//! `(tenant, phase, shape bucket)`; prefill runs at batch 1, decode packs
//! up to `max_batch`. Completions re-enqueue unfinished sequences at the
//! tail (continuous batching).
//!
//! Failures arrive as [`ChaosEvent`]s (DESIGN.md §12). A `Degrade` swaps
//! the shard's cost table for its fault plan's and *drains*: the in-flight
//! batch finishes, even on a now-dead shard, and queued work re-places. A
//! `Crash` kills the in-flight batch *mid-step* (none of its tokens commit
//! — replay idempotence is the accounting rule, not an aspiration) and
//! every member enters the bounded-backoff retry ladder ([`RetryPolicy`]);
//! exhausting the budget yields a typed [`Outcome::Abandoned`]. Work either
//! action displaces re-places on a survivor, or enters the retry ladder
//! when none is left. A `CompileOutage` lets running work finish but
//! blocks new batches until the window expires. The extended audit proves
//! conservation under all of it: every admitted request reaches exactly one
//! terminal state, and `tokens_committed == tokens_reported` — a token is
//! counted exactly when its batch completes, never when a batch dies.
//!
//! When `preempt` is on, a running low-priority *decode* batch is preempted
//! (its members return to the queue head; the partial step never commits)
//! as soon as a strictly-higher-priority prefill would otherwise miss a
//! TTFT bound of `slo / 4`. Urgency is resolved through an *exact*
//! per-shard index — one dense counter of queued sequences per
//! `(priority class, phase)` slot, maintained at every queue mutation —
//! so a TTFT-threatened prefill is found no matter how deep it sits in the
//! queue (the old implementation scanned only the first 64 positions and
//! went blind past them).
//!
//! The event heap holds only what the loop itself schedules: completions,
//! retries, resumes and chaos events. Arrivals stream from the trace,
//! which is sorted in the heap's own order, and the loop takes whichever
//! of the heap's top and the next arrival comes first.
//!
//! Everything is a pure function of the [`ServeConfig`] (including its
//! seed): no wall clock, no ambient randomness, no hash-order iteration on
//! any decision path. That is the bit-exact replay invariant, and the
//! thread-determinism regression holds because the only parallelism in
//! reach — kernel compilation inside a PICACHU shard — is itself
//! bit-deterministic in the thread count.

use crate::arrivals::{arrival_trace, ArrivalPattern, Request, Tenant};
use crate::chaos::{ChaosAction, ChaosEvent};
use crate::pool::{bucket_log2, Shard, ShardReport, ShardSpec};
use picachu_faults::{FaultPlan, RetryPolicy};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Fraction of a request's SLO budgeted for time-to-first-token by the
/// preemption rule: a queued prefill whose wait would push TTFT past
/// `slo / 4` may preempt a strictly-lower-priority decode batch.
pub const PREEMPT_TTFT_DIVISOR: u64 = 4;

/// Full configuration of one serving run — the replay seed of everything.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Seed for the arrival trace.
    pub seed: u64,
    /// The tenants sharing the pool.
    pub tenants: Vec<Tenant>,
    /// Load shape.
    pub pattern: ArrivalPattern,
    /// Requests to generate.
    pub n_requests: usize,
    /// The accelerator pool.
    pub pool: Vec<ShardSpec>,
    /// Max sequences per decode batch.
    pub max_batch: usize,
    /// Admission cap: max admitted-but-incomplete requests.
    pub max_in_flight: usize,
    /// Mid-trace chaos injections (crash/recover/outage semantics); build
    /// with [`chaos_schedule`](crate::chaos_schedule) or by hand.
    pub chaos: Vec<ChaosEvent>,
    /// Retry budget and backoff for requests whose shard crashed under
    /// them. Shares the audited [`RetryPolicy`] implementation with the
    /// DMA channel's hardware retry ladder.
    pub retry: RetryPolicy,
    /// Allow high-priority prefills to preempt lower-priority decode
    /// batches (off = strict FIFO-within-priority, no preemption).
    pub preempt: bool,
    /// Load shedding: reject at admission (typed [`RejectReason::Shed`])
    /// when the best shard's backlog-estimated completion exceeds
    /// `factor × slo_ns`. `None` disables shedding.
    pub shed_deadline_factor: Option<f64>,
    /// Record every batch in [`ServeReport::batch_log`] (tests; costs
    /// memory on long traces).
    pub log_batches: bool,
}

impl ServeConfig {
    /// A minimal config over `pool` with sane defaults (tests/smoke):
    /// no chaos, no preemption, no shedding, a 3-retry / 0.5 ms-base
    /// backoff ladder.
    pub fn new(tenants: Vec<Tenant>, pattern: ArrivalPattern, pool: Vec<ShardSpec>) -> ServeConfig {
        ServeConfig {
            seed: 0x5E2F,
            tenants,
            pattern,
            n_requests: 100,
            pool,
            max_batch: 8,
            max_in_flight: 1024,
            chaos: Vec::new(),
            retry: RetryPolicy::new(3, 500_000),
            preempt: false,
            shed_deadline_factor: None,
            log_batches: false,
        }
    }
}

/// Why a request was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Admission control: the pool already holds `max_in_flight` admitted
    /// incomplete requests.
    QueueFull,
    /// No shard is in service (at arrival, or after losing the shard that
    /// held the sequence with no healthy shard to re-place onto).
    NoCapacity,
    /// Load shedding: even the best shard's backlog-estimated completion
    /// would exceed the deadline bound, so admitting the request would
    /// only add a guaranteed SLO miss to the backlog.
    Shed,
}

/// Terminal state of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The request finished all its tokens.
    Completed {
        /// Time to first token: prefill completion, in ns since arrival.
        ttft_ns: u64,
        /// Completion time in absolute ns.
        finish_ns: u64,
        /// Tokens produced (1 prefill token + decode tokens).
        tokens: usize,
        /// Distinct shards that served it, in first-touch order.
        shards: Vec<usize>,
        /// Crash-retry re-dispatches this request survived (0 = clean run).
        retries: u32,
    },
    /// The request was rejected.
    Rejected {
        /// When, in absolute ns.
        at_ns: u64,
        /// Why.
        reason: RejectReason,
        /// Whether it had been admitted first (lost to a pool-wide outage).
        after_admission: bool,
    },
    /// The request exhausted its crash-retry budget and was dropped.
    Abandoned {
        /// When the budget ran out, in absolute ns.
        at_ns: u64,
        /// Retry attempts issued before giving up (= the full budget).
        attempts: u32,
    },
}

/// Per-request completion record — the unit of the determinism and
/// conservation contracts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request id (generation order).
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Arrival time in ns.
    pub arrival_ns: u64,
    /// Completion deadline relative to arrival.
    pub slo_ns: u64,
    /// How it ended.
    pub outcome: Outcome,
}

/// One executed batch (recorded when [`ServeConfig::log_batches`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Shard that ran it.
    pub shard: usize,
    /// Tenant of every member.
    pub tenant: usize,
    /// Prefill or decode.
    pub prefill: bool,
    /// log2 shape bucket of every member.
    pub bucket: u32,
    /// Member request ids.
    pub members: Vec<u64>,
    /// Issue time in ns.
    pub start_ns: u64,
    /// Step cost in ns (from the shard's current cost table).
    pub cost_ns: u64,
}

/// Machine-checked counters for the scheduler invariants (PR 6's four plus
/// conservation-under-failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Audit {
    /// Requests generated by the arrival trace.
    pub generated: u64,
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Admitted requests that completed.
    pub completed: u64,
    /// Requests rejected at admission (includes shed).
    pub rejected_at_admission: u64,
    /// Admitted requests rejected later (pool-wide outage).
    pub rejected_after_admission: u64,
    /// Requests rejected by load shedding (subset of
    /// `rejected_at_admission`).
    pub shed: u64,
    /// Admitted requests dropped after exhausting the retry budget.
    pub abandoned: u64,
    /// Retry re-dispatches scheduled (crash recovery).
    pub retries: u64,
    /// Decode batches preempted for a higher-priority prefill.
    pub preemptions: u64,
    /// In-flight batches killed by chaos crashes.
    pub killed_batches: u64,
    /// Tokens committed by completed batch steps: one per member at
    /// prefill completion, one per member per decode step. Killed and
    /// preempted batches commit nothing — that is replay idempotence.
    pub tokens_committed: u64,
    /// Tokens the per-request terminal states account for (prefill token
    /// if TTFT was ever set, plus decode tokens produced). Must equal
    /// `tokens_committed`: the conservation-under-failure invariant.
    pub tokens_reported: u64,
    /// Times a startable shard sat idle while compatible work waited
    /// (work-conservation invariant; must stay 0).
    pub work_conservation_violations: u64,
    /// Batches whose members mixed tenants/phases/buckets (batching
    /// legality; must stay 0).
    pub batch_legality_violations: u64,
    /// Requests driven to a terminal state twice (conservation; must stay 0).
    pub double_terminal_violations: u64,
    /// Requests left non-terminal when the event queue drained (must stay 0).
    pub stranded: u64,
}

impl Audit {
    /// Checks the conservation arithmetic and the violation counters,
    /// returning the first broken invariant as text.
    ///
    /// # Errors
    /// A human-readable description of the violated invariant.
    pub fn check(&self) -> Result<(), String> {
        if self.generated != self.admitted + self.rejected_at_admission {
            return Err(format!(
                "conservation: generated {} != admitted {} + rejected-at-admission {}",
                self.generated, self.admitted, self.rejected_at_admission
            ));
        }
        if self.admitted != self.completed + self.rejected_after_admission + self.abandoned {
            return Err(format!(
                "conservation: admitted {} != completed {} + rejected-after {} + abandoned {}",
                self.admitted, self.completed, self.rejected_after_admission, self.abandoned
            ));
        }
        if self.shed > self.rejected_at_admission {
            return Err(format!(
                "shed {} exceeds rejected-at-admission {}",
                self.shed, self.rejected_at_admission
            ));
        }
        if self.tokens_committed != self.tokens_reported {
            return Err(format!(
                "failure conservation: {} tokens committed by batches but {} reported \
                 by terminal states (lost or double-counted work)",
                self.tokens_committed, self.tokens_reported
            ));
        }
        if self.stranded != 0 {
            return Err(format!("{} requests stranded non-terminal", self.stranded));
        }
        if self.double_terminal_violations != 0 {
            return Err(format!(
                "{} requests reached a terminal state twice",
                self.double_terminal_violations
            ));
        }
        if self.work_conservation_violations != 0 {
            return Err(format!(
                "{} work-conservation violations (idle shard with waiting work)",
                self.work_conservation_violations
            ));
        }
        if self.batch_legality_violations != 0 {
            return Err(format!(
                "{} illegal batches (mixed tenant/phase/bucket)",
                self.batch_legality_violations
            ));
        }
        Ok(())
    }
}

/// Everything one serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-request records, indexed by request id.
    pub records: Vec<RequestRecord>,
    /// Per-shard reports.
    pub shards: Vec<ShardReport>,
    /// Invariant counters.
    pub audit: Audit,
    /// Time of the last event, in ns.
    pub horizon_ns: u64,
    /// Events processed by the loop (arrivals, completions, faults,
    /// retries, resumes) — the soak harness's scale measure.
    pub events: u64,
    /// Batch log (empty unless [`ServeConfig::log_batches`]).
    pub batch_log: Vec<BatchRecord>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqPhase {
    Prefill,
    Decode,
}

/// Scheduler-side state of one admitted request.
struct SeqState {
    req: Request,
    phase: SeqPhase,
    /// KV-cache length (tokens) once decoding.
    context: usize,
    /// Decode tokens produced so far.
    produced: usize,
    /// Current shard assignment.
    shard: usize,
    /// Shards that ever ran a step of this request, first-touch order.
    shards_touched: Vec<usize>,
    /// Estimated remaining work charged to the current shard's backlog.
    charged_ns: u64,
    /// Crash-retry re-dispatches issued so far.
    attempts: u32,
    ttft_ns: Option<u64>,
    outcome: Option<Outcome>,
}

impl SeqState {
    fn bucket(&self) -> u32 {
        match self.phase {
            SeqPhase::Prefill => bucket_log2(self.req.prompt),
            SeqPhase::Decode => bucket_log2(self.context),
        }
    }
}

/// Event classes in processing order at equal timestamps. Faults strike
/// before anything else sees the instant; resumes beat completions so a
/// shard unblocked at t can be audited as startable at t; completions beat
/// retries and arrivals so freed capacity is visible to them; retries beat
/// arrivals so recovered work keeps its seniority.
const CLASS_FAULT: u8 = 0;
const CLASS_RESUME: u8 = 1;
const CLASS_COMPLETION: u8 = 2;
const CLASS_RETRY: u8 = 3;
const CLASS_ARRIVAL: u8 = 4;

/// A heap event: `(time, class, tie, payload)` — fully ordered, so the
/// pop sequence is a pure function of the pushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    t: u64,
    class: u8,
    tie: u64,
    payload: u64,
}

struct InFlight {
    /// Unique id; a completion event whose payload doesn't match the
    /// occupant is stale (its batch was killed or preempted) and ignored —
    /// the only way to "cancel" an event already in the heap.
    batch_id: u64,
    members: Vec<usize>,
    cost_ns: u64,
    start_ns: u64,
    done_at: u64,
    tenant: usize,
    prefill: bool,
}

struct ShardState {
    shard: Shard,
    queue: VecDeque<usize>,
    /// Exact urgency index over `queue`: the number of queued sequences in
    /// each `(priority class, phase)` slot, at index `2 · priority +
    /// is_prefill`, so the first non-zero slot *is* the most urgent one
    /// present. Every queue mutation keeps this in sync; a sequence's slot
    /// is stable while it waits (phase only flips between batches, never
    /// in the queue).
    urgency: Vec<u32>,
    busy: Option<InFlight>,
    est_backlog_ns: u64,
    /// Compile-outage gate: no new batch starts before this instant.
    blocked_until: u64,
    batches: u64,
    steps: u64,
    busy_ns: u64,
    killed_batches: u64,
    preempted_batches: u64,
    wasted_ns: u64,
}

struct Sim<'a> {
    cfg: &'a ServeConfig,
    shards: Vec<ShardState>,
    seqs: Vec<SeqState>,
    events: BinaryHeap<Reverse<Ev>>,
    audit: Audit,
    batch_log: Vec<BatchRecord>,
    in_flight_requests: u64,
    next_batch_id: u64,
    horizon_ns: u64,
    rejected_at_arrival: Vec<Option<RequestRecord>>,
}

/// Runs one serving trace to completion. Pure in `cfg`.
pub fn run(cfg: &ServeConfig) -> ServeReport {
    let requests = arrival_trace(cfg.pattern, &cfg.tenants, cfg.n_requests, cfg.seed);
    let shards = cfg
        .pool
        .iter()
        .enumerate()
        .map(|(id, spec)| Shard::new(id, spec.clone(), &cfg.tenants, cfg.max_batch))
        .collect();
    let mut sim = Sim::new(cfg, shards, requests.len());

    for (i, c) in cfg.chaos.iter().enumerate() {
        let tie = i as u64;
        sim.events.push(Reverse(Ev { t: c.at_ns, class: CLASS_FAULT, tie, payload: tie }));
    }
    let mut records: Vec<Option<RequestRecord>> = vec![None; requests.len()];

    // Arrivals stream from the trace instead of sitting in the heap: the
    // trace is sorted by `(arrival_ns, id)`, which is the order the heap
    // would pop their events in, so taking the smaller of the heap's top and
    // the next arrival replays exactly the pop order of one heap holding
    // both.
    debug_assert!(requests
        .windows(2)
        .all(|w| (w[0].arrival_ns, w[0].id) < (w[1].arrival_ns, w[1].id)));
    let mut arrivals = requests
        .iter()
        .map(|r| Ev { t: r.arrival_ns, class: CLASS_ARRIVAL, tie: r.id, payload: r.id })
        .peekable();

    let mut events_processed: u64 = 0;
    loop {
        let ev = match (sim.events.peek(), arrivals.peek()) {
            (Some(Reverse(top)), Some(next)) if top < next => sim.events.pop(),
            (_, Some(_)) => arrivals.next().map(Reverse),
            (Some(_), None) => sim.events.pop(),
            (None, None) => None,
        };
        let Some(Reverse(ev)) = ev else { break };
        events_processed += 1;
        sim.horizon_ns = sim.horizon_ns.max(ev.t);
        match ev.class {
            CLASS_FAULT => sim.on_chaos(ev.t, &cfg.chaos[ev.payload as usize]),
            CLASS_RESUME => {} // the gate is time-based; pumping suffices
            CLASS_COMPLETION => sim.on_completion(ev.t, ev.tie as usize, ev.payload),
            CLASS_RETRY => sim.on_retry(ev.t, ev.payload as usize),
            CLASS_ARRIVAL => sim.on_arrival(ev.t, &requests[ev.payload as usize]),
            _ => unreachable!("unknown event class"),
        }
        sim.pump(ev.t);
    }

    // conservation: everything admitted must have reached exactly one
    // terminal state by drain time, and the tokens its terminal state
    // reports must be exactly the tokens its batches committed
    for s in &sim.seqs {
        sim.audit.tokens_reported +=
            s.produced as u64 + u64::from(s.ttft_ns.is_some());
        match &s.outcome {
            Some(o) => {
                records[s.req.id as usize] = Some(RequestRecord {
                    id: s.req.id,
                    tenant: s.req.tenant,
                    arrival_ns: s.req.arrival_ns,
                    slo_ns: s.req.slo_ns,
                    outcome: o.clone(),
                });
            }
            None => sim.audit.stranded += 1,
        }
    }
    // arrival-time rejections were recorded directly
    for (i, r) in sim.rejected_at_arrival.into_iter().enumerate() {
        if let Some(rec) = r {
            records[i] = Some(rec);
        }
    }
    let records: Vec<RequestRecord> = records.into_iter().flatten().collect();

    let shards = sim
        .shards
        .iter()
        .map(|s| ShardReport {
            shard: s.shard.id,
            backend: s.shard.backend_name.clone(),
            batches: s.batches,
            steps: s.steps,
            busy_ns: s.busy_ns,
            cost_table: s.shard.cost_table(),
            in_service: s.shard.in_service(),
            killed_batches: s.killed_batches,
            preempted_batches: s.preempted_batches,
            wasted_ns: s.wasted_ns,
        })
        .collect();

    ServeReport {
        records,
        shards,
        audit: sim.audit,
        horizon_ns: sim.horizon_ns,
        events: events_processed,
        batch_log: sim.batch_log,
    }
}

impl<'a> Sim<'a> {
    /// An idle pool of `shards` about to serve `generated` requests.
    fn new(cfg: &'a ServeConfig, shards: Vec<Shard>, generated: usize) -> Sim<'a> {
        let classes = cfg.tenants.iter().map(|t| usize::from(t.priority) + 1).max().unwrap_or(0);
        let shards = shards
            .into_iter()
            .map(|shard| ShardState {
                shard,
                queue: VecDeque::new(),
                urgency: vec![0; 2 * classes],
                busy: None,
                est_backlog_ns: 0,
                blocked_until: 0,
                batches: 0,
                steps: 0,
                busy_ns: 0,
                killed_batches: 0,
                preempted_batches: 0,
                wasted_ns: 0,
            })
            .collect();
        Sim {
            cfg,
            shards,
            seqs: Vec::new(),
            events: BinaryHeap::new(),
            audit: Audit { generated: generated as u64, ..Audit::default() },
            batch_log: Vec::new(),
            in_flight_requests: 0,
            next_batch_id: 0,
            horizon_ns: 0,
            rejected_at_arrival: vec![None; generated],
        }
    }

    /// Estimated remaining work of `seq` on shard `sid` at the shard's
    /// current prices: pending prefill plus remaining tokens at the
    /// amortized max-batch decode rate.
    fn estimate_remaining(&self, seq: &SeqState, sid: usize) -> u64 {
        let sh = &self.shards[sid].shard;
        let t = seq.req.tenant;
        let mut ns = 0u64;
        if seq.phase == SeqPhase::Prefill {
            ns += sh.prefill_cost(t, seq.req.prompt);
        }
        let remaining = seq.req.decode.saturating_sub(seq.produced) as u64;
        if remaining > 0 {
            let ctx = if seq.phase == SeqPhase::Prefill { seq.req.prompt } else { seq.context };
            let b = self.cfg.max_batch.max(1);
            let step = sh.decode_cost(t, ctx, b);
            ns += (step / b as u64).max(1).saturating_mul(remaining);
        }
        ns.max(1)
    }

    /// Best in-service shard for `seq` with its estimated-completion score
    /// (backlog + this request's remaining work); ties go to the lowest
    /// shard id. `None` when the whole pool is out of service.
    fn place_scored(&self, seq: &SeqState) -> Option<(u64, usize)> {
        let mut best: Option<(u64, usize)> = None;
        for (sid, s) in self.shards.iter().enumerate() {
            if !s.shard.in_service() {
                continue;
            }
            let score = s.est_backlog_ns.saturating_add(self.estimate_remaining(seq, sid));
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, sid));
            }
        }
        best
    }

    /// [`Sim::place_scored`] without the score.
    fn place(&self, seq: &SeqState) -> Option<usize> {
        self.place_scored(seq).map(|(_, sid)| sid)
    }

    /// Assigns `seq_idx` to `sid`, charging the backlog estimate.
    fn assign(&mut self, seq_idx: usize, sid: usize) {
        let est = self.estimate_remaining(&self.seqs[seq_idx], sid);
        let seq = &mut self.seqs[seq_idx];
        seq.shard = sid;
        seq.charged_ns = est;
        let s = &mut self.shards[sid];
        s.est_backlog_ns = s.est_backlog_ns.saturating_add(est);
        self.enqueue_back(sid, seq_idx);
    }

    /// Removes `seq_idx`'s backlog charge from its current shard.
    fn discharge(&mut self, seq_idx: usize) {
        let (sid, charged) = {
            let seq = &self.seqs[seq_idx];
            (seq.shard, seq.charged_ns)
        };
        let s = &mut self.shards[sid];
        s.est_backlog_ns = s.est_backlog_ns.saturating_sub(charged);
        self.seqs[seq_idx].charged_ns = 0;
    }

    fn terminal(&mut self, seq_idx: usize, outcome: Outcome) {
        let seq = &mut self.seqs[seq_idx];
        if seq.outcome.is_some() {
            self.audit.double_terminal_violations += 1;
            return;
        }
        match &outcome {
            Outcome::Completed { .. } => self.audit.completed += 1,
            Outcome::Rejected { .. } => self.audit.rejected_after_admission += 1,
            Outcome::Abandoned { .. } => self.audit.abandoned += 1,
        }
        seq.outcome = Some(outcome);
        self.in_flight_requests -= 1;
    }

    /// Re-dispatches a sequence that lost its shard: schedules a retry
    /// after the policy's backoff, or abandons it once the budget is gone.
    /// The sequence keeps all committed progress (`produced`, `ttft_ns`) —
    /// a retry replays only the step that died.
    fn retry_or_abandon(&mut self, seq_idx: usize, now: u64) {
        if self.seqs[seq_idx].outcome.is_some() {
            return;
        }
        let attempts = self.seqs[seq_idx].attempts;
        if self.cfg.retry.exhausted(attempts) {
            self.terminal(seq_idx, Outcome::Abandoned { at_ns: now, attempts });
            return;
        }
        self.seqs[seq_idx].attempts = attempts + 1;
        self.audit.retries += 1;
        self.events.push(Reverse(Ev {
            t: now.saturating_add(self.cfg.retry.backoff(attempts)),
            class: CLASS_RETRY,
            tie: seq_idx as u64,
            payload: seq_idx as u64,
        }));
    }

    fn on_retry(&mut self, now: u64, seq_idx: usize) {
        if self.seqs[seq_idx].outcome.is_none() {
            // a pool still fully down burns another attempt
            self.place_or_retry(seq_idx, now);
        }
    }

    fn on_arrival(&mut self, now: u64, req: &Request) {
        if self.in_flight_requests >= self.cfg.max_in_flight as u64 {
            self.reject_at_arrival(now, req, RejectReason::QueueFull);
            return;
        }
        if !self.shards.iter().any(|s| s.shard.in_service()) {
            self.reject_at_arrival(now, req, RejectReason::NoCapacity);
            return;
        }
        let seq = SeqState {
            req: *req,
            phase: SeqPhase::Prefill,
            context: 0,
            produced: 0,
            shard: usize::MAX,
            shards_touched: Vec::new(),
            charged_ns: 0,
            attempts: 0,
            ttft_ns: None,
            outcome: None,
        };
        // load shedding: if even the best placement blows the deadline
        // bound, admitting only manufactures a guaranteed SLO miss
        let placed = self.place_scored(&seq);
        if let (Some(factor), Some((score, _))) = (self.cfg.shed_deadline_factor, placed) {
            let bound = (req.slo_ns as f64 * factor.max(0.0)) as u64;
            if score > bound {
                self.audit.shed += 1;
                self.reject_at_arrival(now, req, RejectReason::Shed);
                return;
            }
        }
        self.audit.admitted += 1;
        self.in_flight_requests += 1;
        let seq_idx = self.seqs.len();
        self.seqs.push(seq);
        // admission passed and some shard is in service, so place() holds
        if let Some((_, sid)) = placed {
            self.assign(seq_idx, sid);
        }
    }

    fn on_completion(&mut self, now: u64, sid: usize, batch_id: u64) {
        let fl = match self.shards[sid].busy.take() {
            Some(fl) if fl.batch_id == batch_id => fl,
            Some(fl) => {
                // stale completion: the batch this event announced was
                // killed or preempted and someone else runs now
                self.shards[sid].busy = Some(fl);
                return;
            }
            None => return,
        };
        {
            let s = &mut self.shards[sid];
            s.busy_ns += fl.cost_ns;
            s.batches += 1;
            s.steps += fl.members.len() as u64;
        }
        let in_service = self.shards[sid].shard.in_service();
        for &seq_idx in &fl.members {
            self.audit.tokens_committed += 1;
            let done = {
                let seq = &mut self.seqs[seq_idx];
                if !seq.shards_touched.contains(&sid) {
                    seq.shards_touched.push(sid);
                }
                match seq.phase {
                    SeqPhase::Prefill => {
                        seq.phase = SeqPhase::Decode;
                        seq.context = seq.req.prompt;
                        seq.ttft_ns = Some(now.saturating_sub(seq.req.arrival_ns));
                        seq.req.decode == 0
                    }
                    SeqPhase::Decode => {
                        seq.produced += 1;
                        seq.context += 1;
                        seq.produced >= seq.req.decode
                    }
                }
            };
            if done {
                let seq = &self.seqs[seq_idx];
                let outcome = Outcome::Completed {
                    ttft_ns: seq.ttft_ns.unwrap_or(0),
                    finish_ns: now,
                    tokens: 1 + seq.req.decode,
                    shards: seq.shards_touched.clone(),
                    retries: seq.attempts,
                };
                self.discharge(seq_idx);
                self.terminal(seq_idx, outcome);
            } else if in_service {
                // continuous batching: back to this shard's queue tail
                self.enqueue_back(sid, seq_idx);
            } else {
                // the shard died under this batch: re-place or reject
                self.discharge(seq_idx);
                match self.place(&self.seqs[seq_idx]) {
                    Some(new_sid) => self.assign(seq_idx, new_sid),
                    None => self.terminal(
                        seq_idx,
                        Outcome::Rejected {
                            at_ns: now,
                            reason: RejectReason::NoCapacity,
                            after_admission: true,
                        },
                    ),
                }
            }
        }
    }

    fn on_chaos(&mut self, now: u64, c: &ChaosEvent) {
        if c.shard >= self.shards.len() {
            return;
        }
        match &c.action {
            ChaosAction::Crash => self.crash(now, c.shard),
            ChaosAction::Degrade(plan) => self.degrade(now, c.shard, plan),
            ChaosAction::Recover => self.recover(c.shard),
            ChaosAction::CompileOutage { for_ns } => self.compile_outage(now, c.shard, *for_ns),
        }
    }

    /// Places `seq_idx` on the best in-service shard, or sends it into the
    /// retry ladder when none is left.
    fn place_or_retry(&mut self, seq_idx: usize, now: u64) {
        match self.place(&self.seqs[seq_idx]) {
            Some(sid) => self.assign(seq_idx, sid),
            None => self.retry_or_abandon(seq_idx, now),
        }
    }

    /// Re-places every sequence queued on `sid`, which just lost capacity.
    fn displace_queue(&mut self, now: u64, sid: usize) {
        for seq_idx in self.drain_queue(sid) {
            self.discharge(seq_idx);
            self.place_or_retry(seq_idx, now);
        }
    }

    /// Applies `plan` to `sid` with drain semantics: the shard's cost table
    /// becomes the plan's, the in-flight batch finishes, queued work
    /// re-places.
    fn degrade(&mut self, now: u64, sid: usize, plan: &FaultPlan) {
        self.shards[sid].shard.apply_fault(plan, &self.cfg.tenants);
        self.displace_queue(now, sid);
    }

    /// Kills `sid` outright: the shard leaves service, the in-flight batch
    /// dies with *nothing* committed (its completion event goes stale via
    /// the batch id), its members enter the retry ladder, and queued work
    /// re-places on the survivors or enters the retry ladder.
    fn crash(&mut self, now: u64, sid: usize) {
        self.shards[sid].shard.force_out_of_service();
        if let Some(fl) = self.shards[sid].busy.take() {
            self.audit.killed_batches += 1;
            self.shards[sid].killed_batches += 1;
            self.shards[sid].wasted_ns += now.saturating_sub(fl.start_ns);
            for &seq_idx in &fl.members {
                self.discharge(seq_idx);
                self.retry_or_abandon(seq_idx, now);
            }
        }
        self.displace_queue(now, sid);
    }

    /// Chaos recovery: clears faults and outage gates — full health.
    fn recover(&mut self, sid: usize) {
        self.shards[sid].shard.apply_fault(&FaultPlan::none(), &self.cfg.tenants);
        self.shards[sid].blocked_until = 0;
    }

    /// Transient compile failure: running work finishes, nothing new
    /// starts until the window expires (a RESUME event re-pumps then).
    fn compile_outage(&mut self, now: u64, sid: usize, for_ns: u64) {
        let until = now.saturating_add(for_ns);
        let s = &mut self.shards[sid];
        s.blocked_until = s.blocked_until.max(until);
        let until = s.blocked_until;
        self.events.push(Reverse(Ev {
            t: until,
            class: CLASS_RESUME,
            tie: sid as u64,
            payload: sid as u64,
        }));
    }

    /// Whether `sid` may begin a new batch at `now`.
    fn startable(&self, sid: usize, now: u64) -> bool {
        let s = &self.shards[sid];
        s.shard.in_service() && s.busy.is_none() && now >= s.blocked_until
    }

    /// Urgency-index slot of a sequence: priority class first (the lowest
    /// slot is the most urgent), phase second.
    fn urgency_slot(&self, seq_idx: usize) -> usize {
        let seq = &self.seqs[seq_idx];
        let priority = usize::from(self.cfg.tenants[seq.req.tenant].priority);
        2 * priority + usize::from(seq.phase == SeqPhase::Prefill)
    }

    /// Enqueues `seq_idx` at the tail of `sid`'s queue, charging the index.
    fn enqueue_back(&mut self, sid: usize, seq_idx: usize) {
        let slot = self.urgency_slot(seq_idx);
        let s = &mut self.shards[sid];
        s.queue.push_back(seq_idx);
        s.urgency[slot] += 1;
    }

    /// Enqueues `seq_idx` at the head of `sid`'s queue, charging the index.
    fn enqueue_front(&mut self, sid: usize, seq_idx: usize) {
        let slot = self.urgency_slot(seq_idx);
        let s = &mut self.shards[sid];
        s.queue.push_front(seq_idx);
        s.urgency[slot] += 1;
    }

    /// Removes one index charge for `seq_idx`.
    fn uncharge_urgency(&mut self, sid: usize, seq_idx: usize) {
        let slot = self.urgency_slot(seq_idx);
        self.shards[sid].urgency[slot] -= 1;
    }

    /// Pops the head of `sid`'s queue, discharging the index.
    fn dequeue_front(&mut self, sid: usize) -> Option<usize> {
        let seq_idx = self.shards[sid].queue.pop_front()?;
        self.uncharge_urgency(sid, seq_idx);
        Some(seq_idx)
    }

    /// Removes the sequence at queue position `pos`, discharging the index.
    fn dequeue_at(&mut self, sid: usize, pos: usize) -> Option<usize> {
        let seq_idx = self.shards[sid].queue.remove(pos)?;
        self.uncharge_urgency(sid, seq_idx);
        Some(seq_idx)
    }

    /// Empties `sid`'s queue (fault displacement), resetting the index.
    fn drain_queue(&mut self, sid: usize) -> Vec<usize> {
        let s = &mut self.shards[sid];
        s.urgency.fill(0);
        s.queue.drain(..).collect()
    }

    /// Queue position of the most urgent waiting sequence on `sid`: lowest
    /// priority class wins, FIFO within a class. The class comes from the
    /// exact urgency index (first non-zero slot = most urgent class
    /// present, at any queue depth); the position is the class's first —
    /// most senior — occupant. With every tenant in one class this is
    /// always position 0 — plain FIFO, bit-identical to PR 6.
    fn urgent_front(&self, sid: usize) -> Option<usize> {
        let s = &self.shards[sid];
        let slot = s.urgency.iter().position(|&c| c > 0)?;
        let p = (slot / 2) as u8;
        s.queue
            .iter()
            .position(|&qi| self.cfg.tenants[self.seqs[qi].req.tenant].priority == p)
    }

    /// Starts a batch on `sid` keyed by its most urgent waiting sequence.
    fn start_batch(&mut self, sid: usize, now: u64) {
        let (tenant, phase, bucket) = {
            let front = match self.urgent_front(sid) {
                Some(pos) => &self.seqs[self.shards[sid].queue[pos]],
                None => return,
            };
            (front.req.tenant, front.phase, front.bucket())
        };
        let cap = if phase == SeqPhase::Prefill { 1 } else { self.cfg.max_batch.max(1) };
        let mut members = Vec::with_capacity(cap);
        // the first `cap` matches in queue order leave the queue; the rest
        // keep their relative order
        let seqs = &self.seqs;
        self.shards[sid].queue.retain(|&i| {
            let s = &seqs[i];
            let member = members.len() < cap
                && s.req.tenant == tenant
                && s.phase == phase
                && s.bucket() == bucket;
            if member {
                members.push(i);
            }
            !member
        });
        for &i in &members {
            self.uncharge_urgency(sid, i);
        }

        // batching legality audit: every member shares the key
        for &i in &members {
            let s = &self.seqs[i];
            if s.req.tenant != tenant || s.phase != phase || s.bucket() != bucket {
                self.audit.batch_legality_violations += 1;
            }
        }

        let shard = &self.shards[sid].shard;
        let cost = match phase {
            SeqPhase::Prefill => shard.prefill_cost(tenant, 1usize << bucket),
            SeqPhase::Decode => shard.decode_cost(tenant, 1usize << bucket, members.len()),
        };
        let done_at = now.saturating_add(cost);
        if self.cfg.log_batches {
            self.batch_log.push(BatchRecord {
                shard: sid,
                tenant,
                prefill: phase == SeqPhase::Prefill,
                bucket,
                members: members.iter().map(|&i| self.seqs[i].req.id).collect(),
                start_ns: now,
                cost_ns: cost,
            });
        }
        let batch_id = self.next_batch_id;
        self.next_batch_id += 1;
        self.shards[sid].busy = Some(InFlight {
            batch_id,
            members,
            cost_ns: cost,
            start_ns: now,
            done_at,
            tenant,
            prefill: phase == SeqPhase::Prefill,
        });
        self.events.push(Reverse(Ev {
            t: done_at,
            class: CLASS_COMPLETION,
            tie: sid as u64,
            payload: batch_id,
        }));
    }

    /// Preempts low-priority decode batches whose continued run would make
    /// a strictly-higher-priority queued prefill miss its TTFT bound
    /// (`slo / PREEMPT_TTFT_DIVISOR`). Preemption only fires when it is
    /// *useful*: starting the prefill now must still meet the bound — a
    /// prefill whose bound is already unreachable must not keep shooting
    /// down every batch behind it (that livelocks the shard). The killed
    /// step commits nothing; the preemptor jumps to the queue head so it
    /// actually starts next, with the preempted members right behind it.
    fn preempt_for_priority(&mut self, now: u64) {
        for sid in 0..self.shards.len() {
            if !self.shards[sid].shard.in_service() || now < self.shards[sid].blocked_until {
                continue;
            }
            let (batch_prio, done_at) = match &self.shards[sid].busy {
                Some(fl) if !fl.prefill => {
                    (self.cfg.tenants[fl.tenant].priority, fl.done_at)
                }
                _ => continue,
            };
            // exact: the first non-zero prefill slot of the urgency index is
            // the most urgent queued prefill, no matter how deep it sits
            let best_prio = self.shards[sid]
                .urgency
                .iter()
                .skip(1)
                .step_by(2)
                .position(|&c| c > 0)
                .map(|p| p as u8);
            let Some(p) = best_prio.filter(|&p| p < batch_prio) else { continue };
            let Some(pos) = self.shards[sid].queue.iter().position(|&qi| {
                let s = &self.seqs[qi];
                s.phase == SeqPhase::Prefill
                    && self.cfg.tenants[s.req.tenant].priority == p
            }) else {
                continue;
            };
            let (tenant, prompt, arrival, slo) = {
                let s = &self.seqs[self.shards[sid].queue[pos]];
                (s.req.tenant, s.req.prompt, s.req.arrival_ns, s.req.slo_ns)
            };
            let cost = self.shards[sid].shard.prefill_cost(tenant, prompt);
            let deadline = arrival.saturating_add(slo / PREEMPT_TTFT_DIVISOR);
            if done_at.saturating_add(cost) <= deadline {
                continue; // waiting out the decode batch still meets TTFT
            }
            if now.saturating_add(cost) > deadline {
                // the bound is already unsalvageable: killing the decode
                // batch would waste its partial step without saving the
                // prefill, and an ever-doomed prefill must not shoot down
                // every batch behind it forever
                continue;
            }
            let Some(fl) = self.shards[sid].busy.take() else { continue };
            self.audit.preemptions += 1;
            self.shards[sid].preempted_batches += 1;
            self.shards[sid].wasted_ns += now.saturating_sub(fl.start_ns);
            // the preempting prefill jumps to the queue head: preemption
            // must actually start it next. Left in place, it could lose the
            // restarted shard to a more senior decode of its own class
            // (`urgent_front` picks the first occupant of the class) and
            // wait out another whole batch.
            let preemptor = self.dequeue_at(sid, pos);
            // preempted members return to the head in original order, so
            // they stay senior to everything behind them; the preemptor
            // goes in front of even them
            for &m in fl.members.iter().rev() {
                self.enqueue_front(sid, m);
            }
            if let Some(qi) = preemptor {
                self.enqueue_front(sid, qi);
            }
        }
    }

    /// Drives the pool to the work-conserving fixpoint, then audits it.
    fn pump(&mut self, now: u64) {
        // 0. priority preemption frees shards before anything starts
        if self.cfg.preempt {
            self.preempt_for_priority(now);
        }
        // 1. every idle startable shard starts from its own queue
        for sid in 0..self.shards.len() {
            if self.startable(sid, now) && !self.shards[sid].queue.is_empty() {
                self.start_batch(sid, now);
            }
        }
        // 2. idle startable shards with empty queues steal the oldest
        //    waiting sequence from the most-backlogged queue, to fixpoint
        loop {
            let thief = (0..self.shards.len())
                .find(|&sid| self.startable(sid, now) && self.shards[sid].queue.is_empty());
            let thief = match thief {
                Some(t) => t,
                None => break,
            };
            let donor = (0..self.shards.len())
                .filter(|&sid| sid != thief && !self.shards[sid].queue.is_empty())
                .max_by_key(|&sid| (self.shards[sid].queue.len(), Reverse(sid)));
            let donor = match donor {
                Some(d) => d,
                None => break,
            };
            let seq_idx = match self.dequeue_front(donor) {
                Some(i) => i,
                None => break,
            };
            self.discharge(seq_idx);
            self.assign(seq_idx, thief);
            self.start_batch(thief, now);
        }
        // 3. audit: no startable shard may now be idle while work waits
        let waiting: usize = self.shards.iter().map(|s| s.queue.len()).sum();
        if waiting > 0 {
            for sid in 0..self.shards.len() {
                if self.startable(sid, now) {
                    self.audit.work_conservation_violations += 1;
                }
            }
        }
    }

    fn reject_at_arrival(&mut self, now: u64, req: &Request, reason: RejectReason) {
        self.audit.rejected_at_admission += 1;
        self.rejected_at_arrival[req.id as usize] = Some(RequestRecord {
            id: req.id,
            tenant: req.tenant,
            arrival_ns: req.arrival_ns,
            slo_ns: req.slo_ns,
            outcome: Outcome::Rejected { at_ns: now, reason, after_admission: false },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ShardSpec;
    use picachu_llm::ModelConfig;

    fn tiny_tenant(name: &'static str, priority: u8, slo_ns: u64) -> Tenant {
        Tenant {
            name,
            model: ModelConfig { name, layers: 1, d_model: 32, n_heads: 4, d_ff: 64, ..ModelConfig::gpt2() },
            weight: 1,
            prompt: 16,
            decode: (1, 2),
            slo_ns,
            priority,
        }
    }

    fn seq(tenant: usize, phase: SeqPhase, prompt: usize, slo_ns: u64) -> SeqState {
        SeqState {
            req: Request { id: 0, tenant, arrival_ns: 0, prompt, decode: 2, slo_ns },
            phase,
            context: prompt,
            produced: 0,
            shard: 0,
            shards_touched: Vec::new(),
            charged_ns: 0,
            attempts: 0,
            ttft_ns: None,
            outcome: None,
        }
    }

    /// The regression the exact urgency index exists for: under the old
    /// bounded 64-entry scan, a TTFT-threatened high-priority prefill
    /// parked *behind* 100 bulk decodes was invisible to both
    /// `urgent_front` and the preemption pass. The index must find it at
    /// any depth and preempt the running low-priority decode batch.
    #[test]
    fn ttft_threatened_prefill_beyond_position_64_still_preempts() {
        const BULK: usize = 0;
        const VIP: usize = 1;
        let cfg = ServeConfig {
            preempt: true,
            ..ServeConfig::new(
                vec![tiny_tenant("bulk", 1, u64::MAX), tiny_tenant("vip", 0, 0)],
                ArrivalPattern::Poisson { mean_gap_ns: 1e6 },
                vec![ShardSpec::Gemmini],
            )
        };
        let shard = Shard::new(0, ShardSpec::Gemmini, &cfg.tenants, cfg.max_batch);
        // pick the vip SLO so its TTFT bound (slo/4) is threatened by the
        // running batch but still reachable by preempting right now
        let vip_slo = 8 * shard.prefill_cost(VIP, 16);
        let mut sim = Sim::new(&cfg, vec![shard], 0);
        sim.next_batch_id = 1;

        // a low-priority decode batch occupies the shard until far future
        for _ in 0..2 {
            sim.seqs.push(seq(BULK, SeqPhase::Decode, 16, u64::MAX));
        }
        sim.shards[0].busy = Some(InFlight {
            batch_id: 0,
            members: vec![0, 1],
            cost_ns: u64::MAX / 4,
            start_ns: 0,
            done_at: u64::MAX / 4,
            tenant: BULK,
            prefill: false,
        });

        // 100 bulk decodes queue ahead of the one vip prefill
        for _ in 0..100 {
            let i = sim.seqs.len();
            sim.seqs.push(seq(BULK, SeqPhase::Decode, 16, u64::MAX));
            sim.enqueue_back(0, i);
        }
        let vip_idx = sim.seqs.len();
        sim.seqs.push(seq(VIP, SeqPhase::Prefill, 16, vip_slo));
        sim.enqueue_back(0, vip_idx);
        assert_eq!(
            sim.urgent_front(0),
            Some(100),
            "the exact index must surface the prefill at depth 100"
        );

        sim.preempt_for_priority(0);
        assert_eq!(sim.audit.preemptions, 1, "the decode batch must be preempted");
        assert!(sim.shards[0].busy.is_none(), "preemption frees the shard");
        assert_eq!(sim.shards[0].queue.len(), 103, "vip + 2 preempted + 100 bulk");
        assert_eq!(sim.shards[0].queue[0], vip_idx, "the preemptor jumps to the head");
        assert_eq!((sim.shards[0].queue[1], sim.shards[0].queue[2]), (0, 1));
        // the urgency index survived the churn: sum matches the queue and
        // the vip prefill actually starts next
        let indexed: u32 = sim.shards[0].urgency.iter().sum();
        assert_eq!(indexed as usize, sim.shards[0].queue.len());
        sim.start_batch(0, 0);
        let fl = sim.shards[0].busy.as_ref().expect("prefill batch starts");
        assert!(fl.prefill);
        assert_eq!(fl.tenant, VIP);
        assert_eq!(fl.members, vec![vip_idx]);
    }

    /// Asserts `sid`'s urgency index equals a recount of its queue.
    fn assert_index_matches_queue(sim: &Sim, sid: usize) {
        let mut recount = vec![0u32; sim.shards[sid].urgency.len()];
        for &qi in &sim.shards[sid].queue {
            recount[sim.urgency_slot(qi)] += 1;
        }
        assert_eq!(sim.shards[sid].urgency, recount);
    }

    /// The urgency index stays an exact count of the queue through batch
    /// formation, preemption and a drain, and forming a batch leaves the
    /// non-members in their original relative order.
    #[test]
    fn urgency_index_matches_a_recount_through_churn() {
        const BULK: usize = 0;
        const MID: usize = 1;
        const VIP: usize = 2;
        let cfg = ServeConfig {
            preempt: true,
            max_batch: 4,
            ..ServeConfig::new(
                vec![
                    tiny_tenant("bulk", 2, u64::MAX),
                    tiny_tenant("mid", 1, u64::MAX),
                    tiny_tenant("vip", 0, 0),
                ],
                ArrivalPattern::Poisson { mean_gap_ns: 1e6 },
                vec![ShardSpec::Gemmini],
            )
        };
        let shard = Shard::new(0, ShardSpec::Gemmini, &cfg.tenants, cfg.max_batch);
        let vip_slo = 8 * shard.prefill_cost(VIP, 16);
        let mut sim = Sim::new(&cfg, vec![shard], 0);
        sim.next_batch_id = 1;

        // decodes at two context buckets and prefills of two classes
        use SeqPhase::{Decode, Prefill};
        let mix = [
            (BULK, Decode, 16),
            (MID, Decode, 16),
            (BULK, Prefill, 16),
            (MID, Decode, 40),
            (BULK, Decode, 16),
            (MID, Decode, 16),
            (BULK, Decode, 40),
            (MID, Prefill, 16),
            (MID, Decode, 16),
            (BULK, Decode, 16),
            (MID, Decode, 16),
            (MID, Decode, 16),
            (MID, Decode, 40),
        ];
        for (tenant, phase, prompt) in mix {
            let i = sim.seqs.len();
            sim.seqs.push(seq(tenant, phase, prompt, u64::MAX));
            sim.enqueue_back(0, i);
        }
        assert_index_matches_queue(&sim, 0);
        let before: Vec<usize> = sim.shards[0].queue.iter().copied().collect();

        // the most urgent class is MID's; its first decode keys a batch of
        // the first four MID decodes at context bucket 4
        sim.start_batch(0, 0);
        let members = sim.shards[0].busy.as_ref().expect("batch starts").members.clone();
        assert_eq!(members, vec![1, 5, 8, 10]);
        let rest: Vec<usize> = before.into_iter().filter(|i| !members.contains(i)).collect();
        assert!(sim.shards[0].queue.iter().eq(rest.iter()), "non-members keep their order");
        assert_index_matches_queue(&sim, 0);

        // a threatened VIP prefill preempts the running MID decode batch
        sim.shards[0].busy.as_mut().expect("busy").done_at = u64::MAX / 4;
        let vip_idx = sim.seqs.len();
        sim.seqs.push(seq(VIP, Prefill, 16, vip_slo));
        sim.enqueue_back(0, vip_idx);
        assert_index_matches_queue(&sim, 0);
        sim.preempt_for_priority(0);
        assert_eq!(sim.audit.preemptions, 1);
        let head: Vec<usize> = sim.shards[0].queue.iter().take(5).copied().collect();
        assert_eq!(head, [vec![vip_idx], members].concat());
        assert_index_matches_queue(&sim, 0);

        // a drain empties the index; re-enqueueing recharges it
        let drained = sim.drain_queue(0);
        assert_eq!(drained.len(), mix.len() + 1);
        assert_index_matches_queue(&sim, 0);
        for i in drained {
            sim.enqueue_back(0, i);
        }
        assert_index_matches_queue(&sim, 0);
    }

    /// A prefill whose TTFT bound is already unreachable must not preempt
    /// (killing the batch would waste its partial step for nothing) — the
    /// exact index must not have changed the livelock guard.
    #[test]
    fn doomed_prefill_does_not_preempt_even_when_indexed() {
        const BULK: usize = 0;
        const VIP: usize = 1;
        let cfg = ServeConfig {
            preempt: true,
            ..ServeConfig::new(
                vec![tiny_tenant("bulk", 1, u64::MAX), tiny_tenant("vip", 0, 0)],
                ArrivalPattern::Poisson { mean_gap_ns: 1e6 },
                vec![ShardSpec::Gemmini],
            )
        };
        let shard = Shard::new(0, ShardSpec::Gemmini, &cfg.tenants, cfg.max_batch);
        let mut sim = Sim::new(&cfg, vec![shard], 0);
        sim.next_batch_id = 1;
        sim.seqs.push(seq(BULK, SeqPhase::Decode, 16, u64::MAX));
        sim.shards[0].busy = Some(InFlight {
            batch_id: 0,
            members: vec![0],
            cost_ns: u64::MAX / 4,
            start_ns: 0,
            done_at: u64::MAX / 4,
            tenant: BULK,
            prefill: false,
        });
        // slo 0 → TTFT deadline 0: already missed at now=0, cost > 0
        sim.seqs.push(seq(VIP, SeqPhase::Prefill, 16, 0));
        sim.enqueue_back(0, 1);
        sim.preempt_for_priority(0);
        assert_eq!(sim.audit.preemptions, 0, "a doomed prefill must not shoot the batch");
        assert!(sim.shards[0].busy.is_some());
    }
}
