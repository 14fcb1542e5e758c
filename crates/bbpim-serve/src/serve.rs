//! The multi-tenant serving event loop.
//!
//! [`run_serve`] multiplexes every tenant's arrival process — seeded
//! open Poisson/burst streams *and* closed-loop think-time clients —
//! into one deterministic discrete-event timeline over a
//! [`StreamEngine`] cluster:
//!
//! * **Rate limits** — each arrival passes its tenant's token bucket;
//!   over-rate requests are not rejected, their admission eligibility
//!   moves later (throttling, counted per tenant).
//! * **Weighted fair admission** — each tenant has its own FIFO
//!   admission queue; when an in-flight slot frees, the eligible
//!   tenant with the least weighted admitted work
//!   (`served_work / weight`) goes next, so a heavy tenant cannot
//!   starve a light one no matter how deep its backlog.
//! * **Deadline shedding** — at admission, a request whose predicted
//!   completion (now + candidate-shard count × an EWMA of observed
//!   per-shard service) blows its deadline is dropped instead of
//!   admitted: under overload it could only waste bus time on an
//!   answer nobody will count.
//! * **AIMD window** — the global in-flight bound is either the legacy
//!   static knob or a closed-loop [`AimdController`] fed every
//!   completion's SLO-normalised latency.
//!
//! Service demands come pre-resolved from real shard executions
//! ([`bbpim_sched::demand::resolve_query_demand`]), so every admitted
//! request's answer is fixed *before* any scheduling happens —
//! bit-identical to the batch oracle; policies only decide which
//! requests run and when. Closed-loop clients issue their next request
//! from their completion (or shed) instant plus a seeded think gap,
//! which is why serving needs its own event loop rather than a
//! precomputed workload trace.

use std::collections::VecDeque;

use bbpim_cluster::ClusterExecution;
use bbpim_sched::demand::{
    compile_mutation_demand, resolve_query_demand, MutationDemand, QueryDemand, ShardDemand,
};
use bbpim_sched::{EventQueue, StreamEngine};
use bbpim_sim::hostbus::SharedBus;
use bbpim_trace::{ArgValue, TraceRecorder, TrackId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::controller::{AimdController, WindowDecision, WindowPolicy};
use crate::error::ServeError;
use crate::tenant::{exp_gap_ns, ArrivalProcess, TenantSpec, TokenBucket, WriteMix};

/// Serve-session configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Seed for every tenant's arrival draws and client think times.
    pub seed: u64,
    /// The in-flight window policy.
    pub window: WindowPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { seed: 0, window: WindowPolicy::Aimd(Default::default()) }
    }
}

/// What happened at one point of the simulated serve timeline
/// (determinism tests compare full traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEventKind {
    /// The request arrived (entered its tenant's admission queue).
    Arrive,
    /// The request was admitted.
    Admit,
    /// The request was shed at admission (predicted deadline miss).
    Shed,
    /// The host bus finished the request's first bus slice for a shard.
    Dispatched,
    /// A shard finished the request's entire slice chain.
    ShardDone,
    /// The request's partials merged; the request is complete.
    Complete,
}

/// One record of the simulated serve timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeTimelineEvent {
    /// Simulated time, nanoseconds.
    pub t_ns: f64,
    /// What happened.
    pub kind: ServeEventKind,
    /// Which request (index into the session's request log).
    pub request: usize,
    /// The shard involved, for [`ServeEventKind::Dispatched`] /
    /// [`ServeEventKind::ShardDone`].
    pub shard: Option<usize>,
}

/// Latency accounting for one completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCompletion {
    /// Index into the session's request log.
    pub request: usize,
    /// Owning tenant (index into the tenant slice).
    pub tenant: usize,
    /// The closed-loop client that issued it, if any.
    pub client: Option<usize>,
    /// Query identifier.
    pub query_id: String,
    /// When the request arrived.
    pub arrive_ns: f64,
    /// When the token bucket made it admissible (equals `arrive_ns`
    /// unless throttled).
    pub eligible_ns: f64,
    /// When admission control let it in.
    pub admit_ns: f64,
    /// When its first bus slice started (equals `admit_ns` for
    /// planner-only answers).
    pub first_service_ns: f64,
    /// When its merged answer was ready.
    pub complete_ns: f64,
    /// Candidate shards dispatched.
    pub shards_dispatched: usize,
    /// Active shards pruned by the zone-map planner.
    pub shards_pruned: usize,
    /// Absolute deadline, if the tenant's SLO set one.
    pub deadline_ns: Option<f64>,
}

impl ServeCompletion {
    /// End-to-end sojourn time (arrival → merged answer).
    pub fn latency_ns(&self) -> f64 {
        self.complete_ns - self.arrive_ns
    }

    /// Time waiting (throttle + admission queue + bus queue) before
    /// any service.
    pub fn wait_ns(&self) -> f64 {
        self.first_service_ns - self.arrive_ns
    }

    /// Time from first service to completion.
    pub fn service_ns(&self) -> f64 {
        self.complete_ns - self.first_service_ns
    }

    /// Was the request delayed by its tenant's rate limit?
    pub fn throttled(&self) -> bool {
        self.eligible_ns > self.arrive_ns
    }

    /// Did the answer arrive in time to count toward goodput?
    /// (Trivially true without a deadline.)
    pub fn met_deadline(&self) -> bool {
        self.deadline_ns.is_none_or(|d| self.complete_ns <= d)
    }
}

/// Latency accounting for one completed write request (cf.
/// [`ServeCompletion`] — writes have no merge and no deadline, and
/// their answer is state, not groups).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeWriteCompletion {
    /// Index into the session's request log.
    pub request: usize,
    /// Owning tenant (index into the tenant slice).
    pub tenant: usize,
    /// The closed-loop client that issued it, if any.
    pub client: Option<usize>,
    /// The mutation's label.
    pub label: String,
    /// When the request arrived.
    pub arrive_ns: f64,
    /// When the token bucket made it admissible.
    pub eligible_ns: f64,
    /// When admission control let it in.
    pub admit_ns: f64,
    /// When its first bus slice started.
    pub first_service_ns: f64,
    /// When its last lane chain finished (durable).
    pub complete_ns: f64,
    /// Ingest lanes the write occupied.
    pub lanes: usize,
    /// Records the mutation rewrites in place (UPDATE).
    pub records_updated: u64,
    /// Records the mutation appends (INSERT).
    pub records_inserted: u64,
}

impl ServeWriteCompletion {
    /// End-to-end sojourn time (arrival → durable).
    pub fn latency_ns(&self) -> f64 {
        self.complete_ns - self.arrive_ns
    }

    /// Time waiting (throttle + admission queue + bus queue) before
    /// any service.
    pub fn wait_ns(&self) -> f64 {
        self.first_service_ns - self.arrive_ns
    }

    /// Time from first service to durable.
    pub fn service_ns(&self) -> f64 {
        self.complete_ns - self.first_service_ns
    }
}

/// One request shed at admission.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeDrop {
    /// Index into the session's request log.
    pub request: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// The closed-loop client that issued it, if any.
    pub client: Option<usize>,
    /// Query identifier.
    pub query_id: String,
    /// When the request arrived.
    pub arrive_ns: f64,
    /// When admission shed it.
    pub shed_ns: f64,
    /// The completion instant the shedder predicted.
    pub predicted_complete_ns: f64,
    /// The absolute deadline the prediction blew.
    pub deadline_ns: f64,
}

/// Everything one serve session produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per-request latency records, in completion order.
    pub completions: Vec<ServeCompletion>,
    /// Merged executions parallel to `completions` — each is
    /// bit-identical to the batch answer for its query.
    pub executions: Vec<ClusterExecution>,
    /// Per-write-request latency records, in completion order (empty
    /// for sessions without write traffic).
    pub write_completions: Vec<ServeWriteCompletion>,
    /// Requests shed at admission, in shed order.
    pub drops: Vec<ServeDrop>,
    /// The full event timeline (deterministic per seed).
    pub timeline: Vec<ServeTimelineEvent>,
    /// The in-flight window over time: the initial window at t = 0
    /// plus one entry per controller decision (static windows have
    /// only the initial entry).
    pub window_trajectory: Vec<(f64, usize)>,
    /// The AIMD decision log (empty under a static window).
    pub decisions: Vec<WindowDecision>,
    /// Per-tenant requests generated.
    pub submitted: Vec<usize>,
    /// Per-tenant requests delayed by the token bucket.
    pub throttled: Vec<usize>,
    /// When the last request completed or was shed.
    pub makespan_ns: f64,
    /// Host-channel busy time.
    pub host_busy_ns: f64,
    /// Per-lane module-local busy time. One entry per active shard for
    /// query-only sessions; with write traffic, one per ingest lane
    /// (auxiliary lanes — star dimension modules — after the shards).
    pub shard_busy_ns: Vec<f64>,
    /// Per-lane accumulated worst-row cell writes over every completed
    /// query slice and write chain (the endurance model's input).
    pub lane_cell_writes: Vec<u64>,
    /// Per-lane required cell endurance (write cycles) to sustain that
    /// lane's worst chain back-to-back for ten years; zero for lanes
    /// whose work performs no PIM writes.
    pub lane_required_endurance: Vec<f64>,
}

impl ServeOutcome {
    /// Completed requests per second of simulated time.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            0.0
        } else {
            self.completions.len() as f64 / (self.makespan_ns / 1e9)
        }
    }

    /// Saturated host-channel utilisation over the makespan.
    pub fn host_utilisation(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            return 0.0;
        }
        (self.host_busy_ns / self.makespan_ns).clamp(0.0, 1.0)
    }

    /// Raw (unclamped) host-channel demand ratio (cf.
    /// [`SharedBus::demand`]).
    pub fn host_demand(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            return 0.0;
        }
        self.host_busy_ns / self.makespan_ns
    }

    /// The smallest and largest window the session ever ran under.
    pub fn window_bounds(&self) -> (usize, usize) {
        let lo = self.window_trajectory.iter().map(|(_, w)| *w).min().unwrap_or(0);
        let hi = self.window_trajectory.iter().map(|(_, w)| *w).max().unwrap_or(0);
        (lo, hi)
    }

    /// The window after the last decision.
    pub fn final_window(&self) -> usize {
        self.window_trajectory.last().map_or(0, |(_, w)| *w)
    }
}

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Work {
    /// Index into the owning tenant's query set.
    Query(usize),
    /// Index into the owning tenant's write-mix mutation set.
    Write(usize),
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
struct Request {
    tenant: usize,
    work: Work,
    client: Option<usize>,
    arrive_ns: f64,
    /// Set by the token bucket when the arrival fires.
    eligible_ns: f64,
    /// Always `None` for writes: durable work is never shed.
    deadline_ns: Option<f64>,
}

/// Mutable per-request execution state.
#[derive(Clone, Copy)]
struct Progress {
    admit_ns: f64,
    first_service_ns: f64,
    remaining: usize,
}

/// One closed-loop client: its private think/pick RNG and how many
/// requests it has left to issue.
struct ClientState {
    rng: StdRng,
    remaining: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A request enters its tenant's admission queue.
    Arrive(usize),
    /// A deferred admission attempt (head-of-queue eligibility).
    AdmitTick,
    /// `(request, shard_pos, slice_idx)`: the slice's bus part ended.
    BusDone(usize, usize, usize),
    /// `(request, shard_pos, slice_idx)`: the slice's local part ended.
    LocalDone(usize, usize, usize),
    /// The request's host-side merge ended.
    MergeDone(usize),
}

/// The dynamic window state.
enum WindowState {
    Static(usize),
    Aimd(AimdController),
}

impl WindowState {
    fn window(&self) -> usize {
        match self {
            WindowState::Static(w) => *w,
            WindowState::Aimd(c) => c.window(),
        }
    }
}

/// Trace track ids for the serving lanes (present only when the
/// recorder is enabled).
struct Tracks {
    serve: TrackId,
    host: TrackId,
    controller: TrackId,
    modules: Vec<TrackId>,
}

impl Tracks {
    fn new(trace: &mut TraceRecorder, active_shards: usize, lanes: usize) -> Option<Tracks> {
        if !trace.is_enabled() {
            return None;
        }
        Some(Tracks {
            serve: trace.track("serve"),
            host: trace.track("host-bus"),
            controller: trace.track("controller"),
            modules: (0..lanes)
                .map(|k| {
                    if k < active_shards {
                        trace.track(&format!("module-{k}"))
                    } else {
                        trace.track(&format!("ingest-lane-{}", k - active_shards))
                    }
                })
                .collect(),
        })
    }
}

/// Draw one request's work from a tenant's mix. Pure-query tenants
/// draw exactly the single uniform pick they always did (their arrival
/// streams stay byte-identical to pre-HTAP sessions); tenants with a
/// write mix flip the write coin first, then pick uniformly from the
/// chosen set.
fn pick_work(rng: &mut StdRng, n_queries: usize, writes: Option<&WriteMix>) -> Work {
    if let Some(w) = writes {
        if rng.gen::<f64>() < w.write_frac {
            return Work::Write(rng.gen_range(0..w.mutations.len()));
        }
    }
    Work::Query(rng.gen_range(0..n_queries))
}

/// Distinct per-(tenant, stream) RNG seeds: stream 0 is the tenant's
/// open-arrival draw stream, 1 + c is closed client c's think stream.
fn stream_seed(seed: u64, tenant: u64, stream: u64) -> u64 {
    seed ^ tenant.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ stream.wrapping_add(1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// The serving state machine.
struct Server<'a> {
    tenants: &'a [TenantSpec],
    /// `demands[t][q]`: tenant t's query q, resolved once.
    demands: Vec<Vec<(QueryDemand, ClusterExecution)>>,
    /// `write_demands[t][w]`: tenant t's mutation w, applied to the
    /// cluster once at session start and compiled to its lane chains.
    write_demands: Vec<Vec<MutationDemand>>,
    requests: Vec<Request>,
    /// Per-tenant FIFO admission queues of request indices.
    queues: Vec<VecDeque<usize>>,
    buckets: Vec<Option<TokenBucket>>,
    clients: Vec<Vec<ClientState>>,
    /// WFQ accounting: total busy time of work admitted per tenant.
    served_work: Vec<f64>,
    submitted: Vec<usize>,
    throttled: Vec<usize>,
    window: WindowState,
    events: EventQueue<Ev>,
    host: SharedBus,
    shard_bus: Vec<SharedBus>,
    in_flight: usize,
    progress: Vec<Option<Progress>>,
    /// EWMA of observed per-candidate-shard service time — the
    /// deadline shedder's completion predictor.
    est_per_shard_ns: Option<f64>,
    next_tick_ns: Option<f64>,
    completions: Vec<ServeCompletion>,
    executions: Vec<ClusterExecution>,
    write_completions: Vec<ServeWriteCompletion>,
    lane_cell_writes: Vec<u64>,
    lane_required_endurance: Vec<f64>,
    drops: Vec<ServeDrop>,
    timeline: Vec<ServeTimelineEvent>,
    window_trajectory: Vec<(f64, usize)>,
    trace: &'a mut TraceRecorder,
    tracks: Option<Tracks>,
}

/// EWMA weight for new per-shard service observations.
const EST_ALPHA: f64 = 0.3;

impl Server<'_> {
    fn record(&mut self, t_ns: f64, kind: ServeEventKind, request: usize, shard: Option<usize>) {
        self.timeline.push(ServeTimelineEvent { t_ns, kind, request, shard });
    }

    /// The request's per-lane slice chains: candidate shard chains for
    /// a query, ingest lane chains for a write.
    fn chains(&self, ri: usize) -> &[ShardDemand] {
        let r = &self.requests[ri];
        match r.work {
            Work::Query(q) => &self.demands[r.tenant][q].0.shards,
            Work::Write(w) => &self.write_demands[r.tenant][w].lanes,
        }
    }

    /// The request's host-side merge occupancy (writes have none — a
    /// write is durable when its last lane chain finishes).
    fn merge_ns(&self, ri: usize) -> f64 {
        let r = &self.requests[ri];
        match r.work {
            Work::Query(q) => self.demands[r.tenant][q].0.merge_ns,
            Work::Write(_) => 0.0,
        }
    }

    /// The request's busy time across the channel and every module —
    /// what the fair-share accountant charges its tenant.
    fn busy_ns(&self, ri: usize) -> f64 {
        let r = &self.requests[ri];
        match r.work {
            Work::Query(q) => self.demands[r.tenant][q].0.total_busy_ns(),
            Work::Write(w) => self.write_demands[r.tenant][w].total_busy_ns(),
        }
    }

    /// The request's report/trace label: query id or mutation label.
    fn label(&self, ri: usize) -> &str {
        let r = &self.requests[ri];
        match r.work {
            Work::Query(q) => &self.demands[r.tenant][q].0.query_id,
            Work::Write(w) => &self.write_demands[r.tenant][w].label,
        }
    }

    /// Standard event attributes: request index, tenant name, query id
    /// or mutation label.
    fn request_args(&self, ri: usize) -> Vec<(&'static str, ArgValue)> {
        let r = &self.requests[ri];
        vec![
            ("request", ArgValue::U64(ri as u64)),
            ("tenant", ArgValue::Str(self.tenants[r.tenant].name.clone())),
            ("query", ArgValue::Str(self.label(ri).to_string())),
        ]
    }

    /// Sample the scheduler counters (total queued, in-flight, window)
    /// onto the serve and controller tracks.
    fn trace_counters(&mut self, t_ns: f64) {
        if let Some(tracks) = &self.tracks {
            let (serve, ctl) = (tracks.serve, tracks.controller);
            let depth: usize = self.queues.iter().map(VecDeque::len).sum();
            let in_flight = self.in_flight as f64;
            let window = self.window.window() as f64;
            self.trace.counter(serve, "admission-queue", t_ns, depth as f64);
            self.trace.counter(serve, "in-flight", t_ns, in_flight);
            self.trace.counter(ctl, "in-flight-window", t_ns, window);
        }
    }

    /// Create one request and schedule its arrival.
    fn create_request(&mut self, tenant: usize, work: Work, client: Option<usize>, at_ns: f64) {
        let deadline_ns = match work {
            Work::Query(_) => self.tenants[tenant].slo.deadline_ns.map(|d| at_ns + d),
            Work::Write(_) => None,
        };
        let ri = self.requests.len();
        self.requests.push(Request {
            tenant,
            work,
            client,
            arrive_ns: at_ns,
            eligible_ns: at_ns,
            deadline_ns,
        });
        self.progress.push(None);
        self.submitted[tenant] += 1;
        self.events.push(at_ns, Ev::Arrive(ri));
    }

    /// A closed-loop client learned its request's fate at `now_ns`:
    /// think, then issue the next request (if it has any left).
    fn client_next(&mut self, now_ns: f64, ri: usize) {
        let r = self.requests[ri];
        let Some(ci) = r.client else { return };
        let ArrivalProcess::Closed { mean_think_ns, .. } = self.tenants[r.tenant].process else {
            return;
        };
        let tenants: &[TenantSpec] = self.tenants;
        let spec = &tenants[r.tenant];
        let st = &mut self.clients[r.tenant][ci];
        if st.remaining == 0 {
            return;
        }
        st.remaining -= 1;
        let gap = exp_gap_ns(&mut st.rng, mean_think_ns);
        let work = pick_work(&mut st.rng, spec.queries.len(), spec.writes.as_ref());
        self.create_request(r.tenant, work, Some(ci), now_ns + gap);
    }

    /// The shedder's completion predictor: candidate shards × the
    /// observed per-shard service EWMA (zero until the first
    /// completion teaches it — cold starts admit optimistically).
    fn estimate_service_ns(&self, candidates: usize) -> f64 {
        self.est_per_shard_ns.map_or(0.0, |e| e * candidates as f64)
    }

    fn note_service(&mut self, service_ns: f64, shards: usize) {
        if shards == 0 {
            return;
        }
        let per = service_ns / shards as f64;
        self.est_per_shard_ns = Some(match self.est_per_shard_ns {
            None => per,
            Some(e) => (1.0 - EST_ALPHA) * e + EST_ALPHA * per,
        });
    }

    /// Schedule a deferred admission attempt at `at_ns` unless an
    /// earlier one is already pending.
    fn schedule_tick(&mut self, at_ns: f64) {
        if !self.next_tick_ns.is_some_and(|t| t <= at_ns) {
            self.next_tick_ns = Some(at_ns);
            self.events.push(at_ns, Ev::AdmitTick);
        }
    }

    /// Weighted-fair pick: among tenants whose queue head is eligible
    /// at `now_ns`, the least `served_work / weight` (ties to the
    /// lowest tenant index). Also returns the earliest future
    /// eligibility when nothing is admissible yet.
    fn pick_tenant(&self, now_ns: f64) -> (Option<usize>, f64) {
        let mut best: Option<(f64, usize)> = None;
        let mut next_eligible = f64::INFINITY;
        for (t, q) in self.queues.iter().enumerate() {
            let Some(&head) = q.front() else { continue };
            let e = self.requests[head].eligible_ns;
            if e <= now_ns {
                let key = self.served_work[t] / self.tenants[t].weight;
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, t));
                }
            } else {
                next_eligible = next_eligible.min(e);
            }
        }
        (best.map(|(_, t)| t), next_eligible)
    }

    /// Start one slice of a shard chain at `now_ns` (cf. the streaming
    /// scheduler: bus part first, then the local part queues on the
    /// shard). Returns the bus grant start when the slice touched the
    /// bus.
    fn start_slice(&mut self, now_ns: f64, ri: usize, sp: usize, idx: usize) -> Option<f64> {
        let slice = self.chains(ri)[sp].slices[idx];
        if slice.bus_ns > 0.0 {
            let grant = self.host.acquire(now_ns, slice.bus_ns);
            self.events.push(grant.end_ns, Ev::BusDone(ri, sp, idx));
            if let Some(tracks) = &self.tracks {
                let (host, shard) = (tracks.host, self.chains(ri)[sp].shard);
                let name = slice.bus_kind.map_or("bus", |k| k.label());
                let mut args = self.request_args(ri);
                args.push(("shard", ArgValue::U64(shard as u64)));
                args.push(("wait_ns", ArgValue::F64(grant.start_ns - now_ns)));
                args.push(("bytes", ArgValue::U64(slice.bus_bytes)));
                self.trace.span(host, name, grant.start_ns, slice.bus_ns, args);
            }
            Some(grant.start_ns)
        } else {
            self.events.push(now_ns, Ev::BusDone(ri, sp, idx));
            None
        }
    }

    /// Shed `ri` at admission: its predicted completion blows its
    /// deadline.
    fn shed(&mut self, now_ns: f64, ri: usize, predicted_ns: f64, deadline_ns: f64) {
        self.record(now_ns, ServeEventKind::Shed, ri, None);
        if let Some(tracks) = &self.tracks {
            let serve = tracks.serve;
            let mut args = self.request_args(ri);
            args.push(("predicted_ns", ArgValue::F64(predicted_ns)));
            args.push(("deadline_ns", ArgValue::F64(deadline_ns)));
            self.trace.instant(serve, "shed", now_ns, args);
        }
        let r = self.requests[ri];
        self.drops.push(ServeDrop {
            request: ri,
            tenant: r.tenant,
            client: r.client,
            query_id: self.label(ri).to_string(),
            arrive_ns: r.arrive_ns,
            shed_ns: now_ns,
            predicted_complete_ns: predicted_ns,
            deadline_ns,
        });
        // The rejection is the client's signal: it thinks, then retries
        // with its next request.
        self.client_next(now_ns, ri);
    }

    /// Admit from the tenant queues while in-flight slots are free.
    fn try_admit(&mut self, now_ns: f64) {
        while self.in_flight < self.window.window() {
            let (pick, next_eligible) = self.pick_tenant(now_ns);
            let Some(t) = pick else {
                if next_eligible.is_finite() {
                    self.schedule_tick(next_eligible);
                }
                break;
            };
            let ri = self.queues[t].pop_front().expect("picked tenant has a head");
            // Deadline shed before the slot is consumed (queries only —
            // write requests carry no deadline).
            if let Some(d) = self.requests[ri].deadline_ns {
                let predicted = now_ns + self.estimate_service_ns(self.chains(ri).len());
                if now_ns > d || predicted > d {
                    self.shed(now_ns, ri, predicted, d);
                    continue;
                }
            }
            self.record(now_ns, ServeEventKind::Admit, ri, None);
            if let Some(tracks) = &self.tracks {
                let serve = tracks.serve;
                let mut args = self.request_args(ri);
                args.push(("queued_ns", ArgValue::F64(now_ns - self.requests[ri].arrive_ns)));
                self.trace.instant(serve, "admit", now_ns, args);
            }
            let n_shards = self.chains(ri).len();
            self.served_work[t] += self.busy_ns(ri);
            if n_shards == 0 {
                // The planner answered the query: nothing to dispatch,
                // the (empty) merge is free, the slot never fills.
                self.complete(
                    now_ns,
                    ri,
                    Progress { admit_ns: now_ns, first_service_ns: now_ns, remaining: 0 },
                );
                self.trace_counters(now_ns);
                continue;
            }
            self.in_flight += 1;
            let mut first_service_ns = f64::INFINITY;
            for sp in 0..n_shards {
                if let Some(start) = self.start_slice(now_ns, ri, sp, 0) {
                    first_service_ns = first_service_ns.min(start);
                }
            }
            if !first_service_ns.is_finite() {
                first_service_ns = now_ns;
            }
            self.progress[ri] =
                Some(Progress { admit_ns: now_ns, first_service_ns, remaining: n_shards });
            self.trace_counters(now_ns);
        }
    }

    fn complete(&mut self, now_ns: f64, ri: usize, p: Progress) {
        self.record(now_ns, ServeEventKind::Complete, ri, None);
        if let Some(tracks) = &self.tracks {
            let serve = tracks.serve;
            let mut args = self.request_args(ri);
            args.push(("latency_ns", ArgValue::F64(now_ns - self.requests[ri].arrive_ns)));
            self.trace.instant(serve, "complete", now_ns, args);
        }
        let r = self.requests[ri];
        // Feed the controller the SLO-normalised latency: write
        // completions count against the same promise, so a congested
        // ingest path cuts the window exactly as slow queries do.
        let ratio = match r.work {
            Work::Query(q) => {
                let (demand, exec) = &self.demands[r.tenant][q];
                let completion = ServeCompletion {
                    request: ri,
                    tenant: r.tenant,
                    client: r.client,
                    query_id: demand.query_id.clone(),
                    arrive_ns: r.arrive_ns,
                    eligible_ns: r.eligible_ns,
                    admit_ns: p.admit_ns,
                    first_service_ns: p.first_service_ns,
                    complete_ns: now_ns,
                    shards_dispatched: demand.shards.len(),
                    shards_pruned: demand.shards_pruned,
                    deadline_ns: r.deadline_ns,
                };
                self.executions.push(exec.clone());
                self.note_service(completion.service_ns(), completion.shards_dispatched);
                let ratio = completion.latency_ns() / self.tenants[r.tenant].slo.p95_target_ns;
                self.completions.push(completion);
                ratio
            }
            Work::Write(w) => {
                let d = &self.write_demands[r.tenant][w];
                let completion = ServeWriteCompletion {
                    request: ri,
                    tenant: r.tenant,
                    client: r.client,
                    label: d.label.clone(),
                    arrive_ns: r.arrive_ns,
                    eligible_ns: r.eligible_ns,
                    admit_ns: p.admit_ns,
                    first_service_ns: p.first_service_ns,
                    complete_ns: now_ns,
                    lanes: d.lanes.len(),
                    records_updated: d.records_updated,
                    records_inserted: d.records_inserted,
                };
                let ratio = completion.latency_ns() / self.tenants[r.tenant].slo.p95_target_ns;
                self.write_completions.push(completion);
                ratio
            }
        };
        if let WindowState::Aimd(ctl) = &mut self.window {
            if let Some(w) = ctl.on_completion(now_ns, ratio) {
                self.window_trajectory.push((now_ns, w));
                if let Some(tracks) = &self.tracks {
                    let ctl_track = tracks.controller;
                    self.trace.counter(ctl_track, "in-flight-window", now_ns, w as f64);
                }
            }
        }
        // The completion is the closed-loop client's signal.
        self.client_next(now_ns, ri);
    }

    /// A shard/lane chain finished its last slice.
    fn shard_done(&mut self, t: f64, ri: usize, sp: usize) {
        let (shard, cell_writes, endurance) = {
            let c = &self.chains(ri)[sp];
            (c.shard, c.cell_writes, c.required_endurance)
        };
        self.record(t, ServeEventKind::ShardDone, ri, Some(shard));
        self.lane_cell_writes[shard] += cell_writes;
        if endurance > self.lane_required_endurance[shard] {
            self.lane_required_endurance[shard] = endurance;
        }
        let p = self.progress[ri].as_mut().expect("in-flight request has progress");
        p.remaining -= 1;
        if p.remaining == 0 {
            let merge_ns = self.merge_ns(ri);
            let grant = self.host.acquire(t, merge_ns);
            self.events.push(grant.end_ns, Ev::MergeDone(ri));
            if merge_ns > 0.0 {
                if let Some(tracks) = &self.tracks {
                    let host = tracks.host;
                    let mut args = self.request_args(ri);
                    args.push(("wait_ns", ArgValue::F64(grant.start_ns - t)));
                    self.trace.span(host, "merge", grant.start_ns, merge_ns, args);
                }
            }
        }
    }

    /// Emit the module-track spans for one local window.
    fn trace_local(&mut self, ri: usize, sp: usize, idx: usize, start_ns: f64, local_ns: f64) {
        let Some(tracks) = &self.tracks else { return };
        let shard = self.chains(ri)[sp].shard;
        let module = tracks.modules[shard];
        let detail = self.chains(ri)[sp].detail.get(idx).cloned().unwrap_or_default();
        if detail.is_empty() {
            let args = self.request_args(ri);
            self.trace.span(module, "local", start_ns, local_ns, args);
            return;
        }
        let mut at = start_ns;
        for (kind, dt) in detail {
            let args = self.request_args(ri);
            self.trace.span(module, kind.label(), at, dt, args);
            at += dt;
        }
    }

    fn run(mut self) -> ServeOutcome {
        self.window_trajectory.push((0.0, self.window.window()));
        self.trace_counters(0.0);
        while let Some((t, ev)) = self.events.pop() {
            match ev {
                Ev::Arrive(ri) => {
                    let tenant = self.requests[ri].tenant;
                    let eligible = match &mut self.buckets[tenant] {
                        Some(b) => b.reserve(t),
                        None => t,
                    };
                    self.requests[ri].eligible_ns = eligible;
                    if eligible > t {
                        self.throttled[tenant] += 1;
                    }
                    self.record(t, ServeEventKind::Arrive, ri, None);
                    if let Some(tracks) = &self.tracks {
                        let serve = tracks.serve;
                        let mut args = self.request_args(ri);
                        args.push(("throttle_ns", ArgValue::F64(eligible - t)));
                        self.trace.instant(serve, "arrive", t, args);
                    }
                    self.queues[tenant].push_back(ri);
                    self.trace_counters(t);
                    self.try_admit(t);
                }
                Ev::AdmitTick => {
                    if self.next_tick_ns == Some(t) {
                        self.next_tick_ns = None;
                    }
                    self.try_admit(t);
                }
                Ev::BusDone(ri, sp, idx) => {
                    let (shard, slice) = {
                        let d = &self.chains(ri)[sp];
                        (d.shard, d.slices[idx])
                    };
                    if idx == 0 {
                        self.record(t, ServeEventKind::Dispatched, ri, Some(shard));
                    }
                    if slice.local_ns > 0.0 {
                        let grant = self.shard_bus[shard].acquire(t, slice.local_ns);
                        self.events.push(grant.end_ns, Ev::LocalDone(ri, sp, idx));
                        self.trace_local(ri, sp, idx, grant.start_ns, slice.local_ns);
                    } else {
                        self.events.push(t, Ev::LocalDone(ri, sp, idx));
                    }
                }
                Ev::LocalDone(ri, sp, idx) => {
                    let len = self.chains(ri)[sp].slices.len();
                    if idx + 1 < len {
                        self.start_slice(t, ri, sp, idx + 1);
                    } else {
                        self.shard_done(t, ri, sp);
                    }
                }
                Ev::MergeDone(ri) => {
                    let p = self.progress[ri].take().expect("merging request has progress");
                    self.complete(t, ri, p);
                    self.in_flight -= 1;
                    self.trace_counters(t);
                    self.try_admit(t);
                }
            }
        }
        let makespan_ns = self
            .completions
            .iter()
            .map(|c| c.complete_ns)
            .chain(self.write_completions.iter().map(|c| c.complete_ns))
            .chain(self.drops.iter().map(|d| d.shed_ns))
            .fold(0.0, f64::max);
        let decisions = match self.window {
            WindowState::Aimd(ctl) => ctl.decisions().to_vec(),
            WindowState::Static(_) => Vec::new(),
        };
        ServeOutcome {
            completions: self.completions,
            executions: self.executions,
            write_completions: self.write_completions,
            drops: self.drops,
            timeline: self.timeline,
            window_trajectory: self.window_trajectory,
            decisions,
            submitted: self.submitted,
            throttled: self.throttled,
            makespan_ns,
            host_busy_ns: self.host.busy_ns(),
            shard_busy_ns: self.shard_bus.iter().map(SharedBus::busy_ns).collect(),
            lane_cell_writes: self.lane_cell_writes,
            lane_required_endurance: self.lane_required_endurance,
        }
    }
}

/// Serve every tenant's traffic through `cluster` under `cfg`.
///
/// Arrival draws, token buckets, fair sharing, shedding and the window
/// controller are all pure functions of `(cluster, tenants, cfg)` on
/// the simulated clock, so the outcome is bit-deterministic per seed.
/// Every completion's execution in [`ServeOutcome::executions`] is the
/// pre-resolved batch answer for its query — admission policies decide
/// *which* requests run and *when*, never *what* they answer.
///
/// # Errors
///
/// [`ServeError::InvalidTenant`] / [`ServeError::InvalidConfig`] for
/// malformed specs, [`ServeError::Sched`] for planner or shard
/// execution failures.
pub fn run_serve<E: StreamEngine>(
    cluster: &mut E,
    tenants: &[TenantSpec],
    cfg: &ServeConfig,
) -> Result<ServeOutcome, ServeError> {
    let mut trace = TraceRecorder::disabled();
    run_serve_traced(cluster, tenants, cfg, &mut trace)
}

/// [`run_serve`] with a [`TraceRecorder`]: arrivals, admissions, sheds
/// and completions land on a `serve` track, bus grants on `host-bus`,
/// module-local windows on `module-<k>`, and the in-flight window on a
/// `controller` counter track. The recorder never changes the
/// simulation.
///
/// # Errors
///
/// Same as [`run_serve`].
pub fn run_serve_traced<E: StreamEngine>(
    cluster: &mut E,
    tenants: &[TenantSpec],
    cfg: &ServeConfig,
    trace: &mut TraceRecorder,
) -> Result<ServeOutcome, ServeError> {
    if tenants.is_empty() {
        return Err(ServeError::InvalidConfig("at least one tenant is required".into()));
    }
    for (i, t) in tenants.iter().enumerate() {
        t.validate()?;
        if tenants[..i].iter().any(|o| o.name == t.name) {
            return Err(ServeError::InvalidTenant(format!("duplicate tenant name {}", t.name)));
        }
    }
    let window = match &cfg.window {
        WindowPolicy::Static(w) => {
            if *w == 0 {
                return Err(ServeError::InvalidConfig("static window must be at least 1".into()));
            }
            WindowState::Static(*w)
        }
        WindowPolicy::Aimd(aimd) => WindowState::Aimd(AimdController::new(aimd.clone())?),
    };

    let want_detail = trace.is_enabled();

    // Apply every tenant's write mix to the cluster once, up front —
    // tenant order, then list order — compiling each mutation's lane
    // chains. Queries then resolve against the fully-ingested state:
    // the batch oracle for a write session is a batch run over that
    // same state, and write requests replay these chains' bus and lane
    // costs without re-mutating.
    let contention = cluster.contention();
    let mut write_demands = Vec::with_capacity(tenants.len());
    for t in tenants {
        let mut per_mutation = Vec::new();
        if let Some(w) = &t.writes {
            for m in &w.mutations {
                let applied = cluster.apply_mutation(m)?;
                let host = cluster.host_config().unwrap_or_default();
                per_mutation.push(compile_mutation_demand(
                    m.label(),
                    &applied,
                    &host,
                    contention,
                    want_detail,
                ));
            }
        }
        write_demands.push(per_mutation);
    }
    let has_writes = tenants.iter().any(|t| t.writes.is_some());

    // Resolve every tenant query's service demand once, up front —
    // fixing every possible answer before the first arrival.
    let mut demands = Vec::with_capacity(tenants.len());
    for t in tenants {
        let mut per_query = Vec::with_capacity(t.queries.len());
        for q in &t.queries {
            per_query.push(resolve_query_demand(cluster, q, want_detail)?);
        }
        demands.push(per_query);
    }

    let active_shards = cluster.active_shards();
    // Query-only sessions keep exactly one lane per active shard;
    // write traffic adds the cluster's auxiliary ingest lanes.
    let lanes = if has_writes { cluster.ingest_lanes().max(active_shards) } else { active_shards };
    let tracks = Tracks::new(trace, active_shards, lanes);
    let n = tenants.len();
    let mut server = Server {
        tenants,
        demands,
        write_demands,
        requests: Vec::new(),
        queues: vec![VecDeque::new(); n],
        buckets: tenants.iter().map(|t| t.rate_limit.as_ref().map(TokenBucket::new)).collect(),
        clients: Vec::with_capacity(n),
        served_work: vec![0.0; n],
        submitted: vec![0; n],
        throttled: vec![0; n],
        window,
        events: EventQueue::default(),
        host: SharedBus::new(),
        shard_bus: vec![SharedBus::new(); lanes],
        in_flight: 0,
        progress: Vec::new(),
        est_per_shard_ns: None,
        next_tick_ns: None,
        completions: Vec::new(),
        executions: Vec::new(),
        write_completions: Vec::new(),
        lane_cell_writes: vec![0; lanes],
        lane_required_endurance: vec![0.0; lanes],
        drops: Vec::new(),
        timeline: Vec::new(),
        window_trajectory: Vec::new(),
        trace,
        tracks,
    };

    // Seed every tenant's arrival stream.
    for (t, spec) in tenants.iter().enumerate() {
        let n_queries = spec.queries.len();
        let writes = spec.writes.as_ref();
        let mut client_states = Vec::new();
        match spec.process {
            ArrivalProcess::OpenPoisson { arrivals, mean_interarrival_ns } => {
                let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, t as u64, 0));
                let mut at = 0.0;
                for _ in 0..arrivals {
                    at += exp_gap_ns(&mut rng, mean_interarrival_ns);
                    let work = pick_work(&mut rng, n_queries, writes);
                    server.create_request(t, work, None, at);
                }
            }
            ArrivalProcess::Burst { arrivals, at_ns } => {
                let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, t as u64, 0));
                for _ in 0..arrivals {
                    let work = pick_work(&mut rng, n_queries, writes);
                    server.create_request(t, work, None, at_ns);
                }
            }
            ArrivalProcess::Closed { clients, queries_per_client, mean_think_ns } => {
                for c in 0..clients {
                    let mut st = ClientState {
                        rng: StdRng::seed_from_u64(stream_seed(cfg.seed, t as u64, 1 + c as u64)),
                        remaining: queries_per_client,
                    };
                    if st.remaining > 0 {
                        st.remaining -= 1;
                        let gap = exp_gap_ns(&mut st.rng, mean_think_ns);
                        let work = pick_work(&mut st.rng, n_queries, writes);
                        client_states.push(st);
                        server.create_request(t, work, Some(c), gap);
                    } else {
                        client_states.push(st);
                    }
                }
            }
        }
        server.clients.push(client_states);
    }

    Ok(server.run())
}
