//! The deterministic discrete-event streaming scheduler.
//!
//! [`run_stream`] admits a [`Workload`]'s timestamped arrivals —
//! queries **and mutations**, interleaved on one clock — into a
//! [`StreamEngine`] under admission control and plays the resulting
//! contention out on a discrete-event timeline:
//!
//! * **Admission control** — at most [`SchedConfig::max_in_flight`]
//!   queries hold execution state at once; excess arrivals wait in the
//!   admission queue (backpressure). When a slot frees, the next
//!   admitted query is picked by [`AdmissionPolicy`]: FIFO, or
//!   shortest-candidate-set-first (the zone-map planner's candidate
//!   shard count is a free size estimate, so heavily pruned — short —
//!   queries overtake broad ones).
//! * **Streaming ingest** — mutation arrivals queue in strict FIFO
//!   behind a bounded per-lane ingest buffer: the head admits only
//!   while every lane it plans to touch holds fewer than
//!   [`SchedConfig::ingest_buffer`] in-flight mutations; otherwise
//!   ingest **stalls deterministically** until a lane chain completes
//!   (nothing overtakes a stalled head). At admission the mutation is
//!   applied to the engine ([`StreamEngine::apply_mutation`]) — zone
//!   maps widen, insert cursors advance, cached star join plans fall —
//!   and its byte-tagged write phases are compiled into per-lane slice
//!   chains that ride the same shared host channel as query traffic.
//! * **Snapshot consistency** — a query's answer is resolved *at its
//!   admission*, against exactly the mutations admitted before it (its
//!   [`QueryCompletion::epoch`]); resolutions are cached per
//!   `(query, epoch)` so repeated arrivals between ingests still share
//!   one execution. Replaying the first `epoch` mutations into a fresh
//!   engine and running the query reproduces the streamed answer
//!   bit-identically — the ingest-equivalence suites assert exactly
//!   this at every admission prefix.
//! * **Planning** — each admitted query is planned through the zone-map
//!   planner ([`StreamEngine::plan_shards`]); pruned shards receive no
//!   work, and a query whose candidate set is empty is answered by the
//!   planner alone, completing at admission.
//! * **Per-shard queues** — each candidate shard receives the query's
//!   shard slice on its own FIFO queue; PIM phases of *different*
//!   queries on *different* shards overlap freely, which is where
//!   out-of-order completion comes from. Mutation lane chains queue on
//!   the same per-module servers (fact lanes share indices with query
//!   shards; auxiliary ingest lanes — star dimension modules — sit
//!   above [`StreamEngine::active_shards`]).
//! * **Shared host channel** — with the cluster's contention model on
//!   (the default, [`StreamEngine::contention`]), *every* tagged host
//!   phase of every in-flight query **and mutation** rides one
//!   [`SharedBus`]: per-page dispatch, mask transfers, result-line
//!   reads, host-gb record fetches, UPDATE mask writes and INSERT row
//!   transfers, each for its channel occupancy
//!   ([`bbpim_sim::hostbus::phase_occupancy_ns`]). The host-side merge
//!   of each query's partials rides the same bus. With contention off,
//!   only dispatch and merge serialise (the pre-contention optimistic
//!   model) — useful for A/B latency studies.
//!
//! Every query service demand is taken from real per-shard executions
//! ([`StreamEngine::run_on_shard`]) against the admitted-mutation
//! snapshot, and the merged answers are folded with
//! [`StreamEngine::merge_executions`] in shard order. For pure-query
//! workloads this degenerates to the pre-ingest scheduler exactly: the
//! streamed results are bit-identical to
//! [`ClusterEngine::run_batch`] over the same queries; only timing and
//! completion order differ. The event timeline is a pure function of
//! `(cluster, workload, config)`.

use std::collections::{HashMap, VecDeque};

use bbpim_cluster::{ClusterEngine, ClusterError, ClusterExecution};
use bbpim_core::mutation::{Mutation, MutationReport};
use bbpim_core::result::QueryExecution;
use bbpim_db::plan::{Pred, Query};
use bbpim_sim::config::HostConfig;
use bbpim_sim::hostbus::SharedBus;
use bbpim_trace::{ArgValue, TraceRecorder, TrackId};

use crate::demand::{compile_mutation_demand, resolve_query_demand, MutationDemand, QueryDemand};
use crate::error::SchedError;
use crate::events::EventQueue;
use crate::report::LatencySummary;
use crate::workload::Workload;

/// The scatter/gather surface the streaming scheduler needs from a
/// sharded engine. [`ClusterEngine`] (pre-joined storage) implements it
/// here; the normalized star-join cluster implements it in its own
/// crate — the scheduler interleaves shard slices identically on both
/// storage models, so streamed answers stay bit-identical to batch runs
/// whichever one is underneath.
pub trait StreamEngine {
    /// Is the shared-host-channel contention model on?
    fn contention(&self) -> bool;

    /// The host-channel parameters (`None` only for an empty cluster,
    /// which can never produce candidate shards).
    fn host_config(&self) -> Option<HostConfig>;

    /// Fact shards actually holding records.
    fn active_shards(&self) -> usize;

    /// Every lane a mutation may occupy: the fact shards plus any
    /// auxiliary ingest lanes (the star cluster adds one per dimension
    /// table). Lane indices in [`StreamEngine::apply_mutation`] reports
    /// are always below this; fact-shard lanes share indices — and
    /// per-module queues — with query shard slices.
    fn ingest_lanes(&self) -> usize {
        self.active_shards()
    }

    /// The lanes a mutation would occupy *right now* — the
    /// ingest-buffer admission check. Re-planned on every admission
    /// attempt: earlier admissions widen zone maps and advance insert
    /// cursors, so a stalled mutation's lane set may shrink or move by
    /// the time it clears the buffer.
    ///
    /// # Errors
    ///
    /// Attribute resolution / routing failures.
    fn plan_mutation_lanes(&self, mutation: &Mutation) -> Result<Vec<usize>, ClusterError>;

    /// Apply `mutation` to the engine state (zone maps widen, catalog
    /// copies patch, cached plans invalidate) and return the per-lane
    /// reports whose phase logs become the mutation's slice chains.
    ///
    /// # Errors
    ///
    /// Validation or substrate failures.
    fn apply_mutation(
        &mut self,
        mutation: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError>;

    /// Zone-map shard admission: one flag per active shard.
    ///
    /// # Errors
    ///
    /// Attribute resolution failures.
    fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError>;

    /// Execute one query on one active shard (the scatter half).
    ///
    /// # Errors
    ///
    /// Unknown shard index or substrate failures.
    fn run_on_shard(&mut self, shard: usize, query: &Query)
        -> Result<QueryExecution, ClusterError>;

    /// Fold per-shard partials into a cluster answer (the gather half).
    fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution;
}

impl StreamEngine for ClusterEngine {
    fn contention(&self) -> bool {
        ClusterEngine::contention(self)
    }

    fn host_config(&self) -> Option<HostConfig> {
        self.shard_engine(0).map(|e| e.config().host.clone())
    }

    fn active_shards(&self) -> usize {
        ClusterEngine::active_shards(self)
    }

    fn plan_mutation_lanes(&self, mutation: &Mutation) -> Result<Vec<usize>, ClusterError> {
        ClusterEngine::plan_mutation_lanes(self, mutation)
    }

    fn apply_mutation(
        &mut self,
        mutation: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        ClusterEngine::mutate_on_lanes(self, mutation)
    }

    fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        ClusterEngine::plan_shards(self, filter)
    }

    fn run_on_shard(
        &mut self,
        shard: usize,
        query: &Query,
    ) -> Result<QueryExecution, ClusterError> {
        ClusterEngine::run_on_shard(self, shard, query)
    }

    fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution {
        ClusterEngine::merge_executions(self, query, executions, shards_pruned)
    }
}

/// How the admission queue picks the next query when a slot frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Strict arrival order.
    #[default]
    Fifo,
    /// Fewest candidate shards first (ties broken by arrival order).
    /// The planner's candidate set size is a zero-cost service-demand
    /// estimate: a query pruned down to one shard is almost surely
    /// shorter than one touching every shard. The estimate is planned
    /// at *arrival* (a heuristic only); the real demand is planned at
    /// admission, against the admitted-mutation snapshot.
    ShortestCandidateFirst,
}

impl AdmissionPolicy {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Fifo => "fifo",
            AdmissionPolicy::ShortestCandidateFirst => "scsf",
        }
    }

    /// Both policies, for sweeps.
    pub fn all() -> [AdmissionPolicy; 2] {
        [AdmissionPolicy::Fifo, AdmissionPolicy::ShortestCandidateFirst]
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Bound on concurrently in-flight queries (admission control).
    pub max_in_flight: usize,
    /// Admission order under backpressure.
    pub policy: AdmissionPolicy,
    /// Per-lane bound on concurrently in-flight mutations (the bounded
    /// ingest buffer). The head of the mutation queue admits only while
    /// every lane it plans to touch holds fewer than this many
    /// in-flight mutations; otherwise ingest stalls — strict FIFO, so
    /// nothing overtakes a stalled head — until a lane chain completes.
    pub ingest_buffer: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig { max_in_flight: 8, policy: AdmissionPolicy::Fifo, ingest_buffer: 2 }
    }
}

/// What happened at one point of the simulated timeline (determinism
/// tests compare full traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The query arrived (entered the admission queue).
    Arrive,
    /// The query was admitted (left the admission queue).
    Admit,
    /// The host bus finished the query's *first* bus slice for a shard
    /// (the per-page dispatch that opens every shard chain).
    Dispatched,
    /// A shard finished the query's entire slice chain.
    ShardDone,
    /// The query's partials merged; the query is complete.
    Complete,
    /// A mutation arrived (entered the ingest queue). For mutation
    /// events the `arrival` field indexes
    /// [`Workload::mutation_arrivals`].
    MutationArrive,
    /// The head mutation could not admit — some planned lane's ingest
    /// buffer is full (`shard` names the first full lane). Recorded
    /// once per stall episode; strict FIFO holds everything behind it.
    MutationStall,
    /// The mutation was admitted: applied to the engine (later-admitted
    /// queries observe it) and its lane chains started.
    MutationAdmit,
    /// One ingest lane finished the mutation's slice chain, freeing its
    /// buffer slot.
    MutationLaneDone,
    /// Every lane chain finished; the mutation is durable and complete.
    MutationComplete,
}

/// One record of the simulated event timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEvent {
    /// Simulated time, nanoseconds.
    pub t_ns: f64,
    /// What happened.
    pub kind: EventKind,
    /// Which arrival: an index into the workload's query arrival trace,
    /// or — for `Mutation*` kinds — its mutation arrival trace.
    pub arrival: usize,
    /// The shard/lane involved, for [`EventKind::Dispatched`] /
    /// [`EventKind::ShardDone`] / [`EventKind::MutationStall`] /
    /// [`EventKind::MutationLaneDone`].
    pub shard: Option<usize>,
}

/// Latency accounting for one completed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCompletion {
    /// Index into the workload's arrival trace.
    pub arrival: usize,
    /// Query identifier.
    pub query_id: String,
    /// When the query arrived.
    pub arrive_ns: f64,
    /// When admission control let it in.
    pub admit_ns: f64,
    /// When its first bus slice started on the host channel (equals
    /// `admit_ns` for planner-only answers).
    pub first_service_ns: f64,
    /// When its merged answer was ready.
    pub complete_ns: f64,
    /// Candidate shards dispatched.
    pub shards_dispatched: usize,
    /// Active shards pruned by the zone-map planner.
    pub shards_pruned: usize,
    /// Mutations admitted before this query's admission — the snapshot
    /// its answer reflects. Replaying exactly the first `epoch` arrived
    /// mutations into a fresh engine reproduces the answer bit-exactly.
    pub epoch: usize,
}

impl QueryCompletion {
    /// End-to-end sojourn time (arrival → merged answer).
    pub fn latency_ns(&self) -> f64 {
        self.complete_ns - self.arrive_ns
    }

    /// Time spent waiting (admission queue + host-bus queue) before any
    /// service.
    pub fn wait_ns(&self) -> f64 {
        self.first_service_ns - self.arrive_ns
    }

    /// Time from first service to completion.
    pub fn service_ns(&self) -> f64 {
        self.complete_ns - self.first_service_ns
    }
}

/// Latency accounting for one completed (durable) mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationCompletion {
    /// Index into the workload's mutation arrival trace.
    pub arrival: usize,
    /// The mutation's label.
    pub label: String,
    /// When the mutation arrived (entered the ingest queue).
    pub arrive_ns: f64,
    /// When the ingest buffer admitted it (the point later queries
    /// start observing it).
    pub admit_ns: f64,
    /// When its last lane chain finished (durable).
    pub complete_ns: f64,
    /// Ingest lanes the mutation occupied.
    pub lanes: usize,
    /// Records rewritten (UPDATE), summed over lanes.
    pub records_updated: u64,
    /// Records appended (INSERT), summed over lanes.
    pub records_inserted: u64,
    /// This mutation's position in admission order, 1-based: queries
    /// with [`QueryCompletion::epoch`] `>= epoch` observe it.
    pub epoch: usize,
}

impl MutationCompletion {
    /// End-to-end sojourn time (arrival → durable).
    pub fn latency_ns(&self) -> f64 {
        self.complete_ns - self.arrive_ns
    }

    /// Ingest-queue wait (arrival → admission), including any
    /// backpressure stall.
    pub fn wait_ns(&self) -> f64 {
        self.admit_ns - self.arrive_ns
    }
}

/// Everything one streamed run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// The admission policy that ran.
    pub policy: AdmissionPolicy,
    /// Per-query latency records, in completion order (compare with
    /// arrival indices to observe out-of-order completion).
    pub completions: Vec<QueryCompletion>,
    /// Per-mutation latency records, in completion order (empty for
    /// pure-query workloads).
    pub mutation_completions: Vec<MutationCompletion>,
    /// Merged executions in query arrival order — each bit-identical to
    /// a fresh engine that replayed the first
    /// [`QueryCompletion::epoch`] mutations and ran the query.
    pub executions: Vec<ClusterExecution>,
    /// The full event timeline (deterministic per input).
    pub timeline: Vec<TimelineEvent>,
    /// When the last query or mutation completed.
    pub makespan_ns: f64,
    /// Host-channel busy time: dispatch, every tagged transfer slice
    /// (under contention), mutation write phases and merges.
    pub host_busy_ns: f64,
    /// Per-lane module-local busy time. For pure-query workloads one
    /// entry per active shard; with ingest, one per ingest lane
    /// (auxiliary lanes — star dimension modules — after the shards).
    pub shard_busy_ns: Vec<f64>,
    /// Per-lane accumulated worst-row cell writes over every query
    /// slice and mutation chain that ran there (the endurance model's
    /// input, surfaced per module: UPDATE-heavy streams wear modules
    /// unevenly).
    pub shard_cell_writes: Vec<u64>,
    /// Per-lane required cell endurance (write cycles) to sustain that
    /// module's worst query or mutation back-to-back for ten years —
    /// the paper's Fig. 9 metric, per module. Zero for modules whose
    /// work performs no PIM writes.
    pub shard_required_endurance: Vec<f64>,
    /// Backpressure stall episodes: times the head of the ingest queue
    /// found a planned lane's buffer full.
    pub ingest_stalls: usize,
    /// Total simulated time the head of the ingest queue spent stalled.
    pub ingest_stall_ns: f64,
}

impl StreamOutcome {
    /// Latency distribution over all query completions.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::of(&self.completions)
    }

    /// Completed queries per second of simulated time.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            0.0
        } else {
            self.completions.len() as f64 / (self.makespan_ns / 1e9)
        }
    }

    /// Fraction of the makespan the host channel was busy, saturated to
    /// `[0, 1]` (eager FIFO grants can stretch past the last
    /// completion, so the raw ratio could drift above 1).
    pub fn host_utilisation(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            return 0.0;
        }
        (self.host_busy_ns / self.makespan_ns).clamp(0.0, 1.0)
    }

    /// Raw host-channel demand ratio `offered_ns / makespan_ns`,
    /// **unclamped** — above 1.0 it measures how deeply the stream
    /// oversubscribes the channel, which the saturated
    /// [`StreamOutcome::host_utilisation`] deliberately hides (cf.
    /// [`SharedBus::demand`]).
    pub fn host_demand(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            return 0.0;
        }
        self.host_busy_ns / self.makespan_ns
    }

    /// Latency distribution over the mutation completions (all-zero
    /// for pure-query runs): wait is the ingest-queue sojourn
    /// (backpressure included), service is admission → durable.
    pub fn mutation_latency_summary(&self) -> LatencySummary {
        LatencySummary::from_parts(
            self.mutation_completions.iter().map(MutationCompletion::latency_ns).collect(),
            &self.mutation_completions.iter().map(MutationCompletion::wait_ns).collect::<Vec<_>>(),
            &self
                .mutation_completions
                .iter()
                .map(|c| c.complete_ns - c.admit_ns)
                .collect::<Vec<_>>(),
            0,
        )
    }

    /// Mean per-lane PIM utilisation over the makespan.
    pub fn mean_shard_utilisation(&self) -> f64 {
        if self.makespan_ns <= 0.0 || self.shard_busy_ns.is_empty() {
            return 0.0;
        }
        let mean_busy = self.shard_busy_ns.iter().sum::<f64>() / self.shard_busy_ns.len() as f64;
        (mean_busy / self.makespan_ns).clamp(0.0, 1.0)
    }

    /// The first completion that finished while an earlier arrival was
    /// still pending — the concrete out-of-order evidence, if any.
    pub fn first_overtaker(&self) -> Option<&QueryCompletion> {
        let slots = self.completions.iter().map(|c| c.arrival + 1).max().unwrap_or(0);
        let mut completed = vec![false; slots];
        self.completions.iter().find(|c| {
            completed[c.arrival] = true;
            (0..c.arrival).any(|i| !completed[i])
        })
    }

    /// Queries that finished *after* a later arrival did — i.e. they
    /// were overtaken. Nonzero means out-of-order completion happened.
    pub fn overtaken(&self) -> usize {
        let mut max_seen = None::<usize>;
        let mut n = 0;
        for c in &self.completions {
            if max_seen.is_some_and(|m| m > c.arrival) {
                n += 1;
            }
            max_seen = Some(max_seen.map_or(c.arrival, |m| m.max(c.arrival)));
        }
        n
    }
}

/// Mutable per-query-arrival simulation state.
#[derive(Clone, Copy)]
struct Progress {
    admit_ns: f64,
    first_service_ns: f64,
    remaining: usize,
    epoch: usize,
}

/// Mutable per-mutation-arrival simulation state.
#[derive(Clone, Copy)]
struct MutProgress {
    admit_ns: f64,
    remaining: usize,
    epoch: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A query arrival enters the admission queue.
    Arrive(usize),
    /// A mutation arrival enters the ingest queue.
    MutArrive(usize),
    /// `(arrival, shard_pos, slice_idx)`: the slice's bus part ended.
    BusDone(usize, usize, usize),
    /// `(arrival, shard_pos, slice_idx)`: the slice's local part ended.
    LocalDone(usize, usize, usize),
    /// The query's host-side merge ended.
    MergeDone(usize),
    /// `(mutation arrival, lane_pos, slice_idx)`: bus part ended.
    MutBusDone(usize, usize, usize),
    /// `(mutation arrival, lane_pos, slice_idx)`: local part ended.
    MutLocalDone(usize, usize, usize),
}

/// Trace track ids for the scheduler's lanes (present only when the
/// recorder is enabled).
struct Tracks {
    sched: TrackId,
    host: TrackId,
    modules: Vec<TrackId>,
}

impl Tracks {
    fn new(trace: &mut TraceRecorder, active_shards: usize, lanes: usize) -> Option<Tracks> {
        if !trace.is_enabled() {
            return None;
        }
        Some(Tracks {
            sched: trace.track("scheduler"),
            host: trace.track("host-bus"),
            modules: (0..lanes)
                .map(|s| {
                    if s < active_shards {
                        trace.track(&format!("module-{s}"))
                    } else {
                        trace.track(&format!("ingest-lane-{}", s - active_shards))
                    }
                })
                .collect(),
        })
    }
}

/// The simulation state machine.
struct Sim<'a, E: StreamEngine> {
    cfg: &'a SchedConfig,
    workload: &'a Workload,
    cluster: &'a mut E,
    want_detail: bool,
    /// Mutations admitted so far — the snapshot counter.
    epoch: usize,
    /// Every `(query, epoch)` resolution — demand and merged answer —
    /// in resolution order, shared by repeated arrivals between ingests.
    resolutions: Vec<(QueryDemand, ClusterExecution)>,
    /// `(query index, epoch)` → index into `resolutions`.
    by_query: HashMap<(usize, usize), usize>,
    /// Per query arrival, its resolution index (filled at admission).
    resolved: Vec<Option<usize>>,
    /// SCSF candidate-count estimate, planned at arrival.
    cand_est: Vec<usize>,
    /// Per mutation arrival, filled at admission.
    mut_demands: Vec<Option<MutationDemand>>,
    events: EventQueue<Ev>,
    host: SharedBus,
    shard_bus: Vec<SharedBus>,
    /// Admission queue of query arrivals, in arrival order.
    waiting: VecDeque<usize>,
    mut_waiting: VecDeque<usize>,
    in_flight: usize,
    /// In-flight mutation count per ingest lane (the bounded buffer).
    lane_inflight: Vec<usize>,
    /// When the current head-of-queue stall began, if stalled.
    stalled_since: Option<f64>,
    ingest_stalls: usize,
    ingest_stall_ns: f64,
    progress: Vec<Option<Progress>>,
    mut_progress: Vec<Option<MutProgress>>,
    completions: Vec<QueryCompletion>,
    mutation_completions: Vec<MutationCompletion>,
    timeline: Vec<TimelineEvent>,
    shard_cell_writes: Vec<u64>,
    shard_endurance: Vec<f64>,
    trace: &'a mut TraceRecorder,
    tracks: Option<Tracks>,
}

impl<E: StreamEngine> Sim<'_, E> {
    fn record(&mut self, t_ns: f64, kind: EventKind, arrival: usize, shard: Option<usize>) {
        self.timeline.push(TimelineEvent { t_ns, kind, arrival, shard });
    }

    /// The admitted demand of a query arrival.
    fn qd(&self, ai: usize) -> &QueryDemand {
        &self.resolutions[self.resolved[ai].expect("demand resolved at admission")].0
    }

    /// The admitted demand of a mutation arrival.
    fn md(&self, mi: usize) -> &MutationDemand {
        self.mut_demands[mi].as_ref().expect("mutation compiled at admission")
    }

    /// Standard event attributes: the arrival index and its query id.
    fn query_args(&self, ai: usize) -> Vec<(&'static str, ArgValue)> {
        let id = self.workload.queries()[self.workload.arrivals()[ai].query].id.clone();
        vec![("arrival", ArgValue::U64(ai as u64)), ("query", ArgValue::Str(id))]
    }

    /// Standard mutation event attributes.
    fn mutation_args(&self, mi: usize) -> Vec<(&'static str, ArgValue)> {
        let label =
            self.workload.mutations()[self.workload.mutation_arrivals()[mi].mutation].label();
        vec![("ingest", ArgValue::U64(mi as u64)), ("mutation", ArgValue::Str(label))]
    }

    /// Sample the scheduler counters (admission-queue depth, in-flight
    /// count, and — on HTAP workloads — ingest-queue depth) onto the
    /// scheduler track.
    fn trace_queue_counters(&mut self, t_ns: f64) {
        if let Some(tracks) = &self.tracks {
            let sched = tracks.sched;
            let depth = self.waiting.len() as f64;
            let in_flight = self.in_flight as f64;
            self.trace.counter(sched, "admission-queue", t_ns, depth);
            self.trace.counter(sched, "in-flight", t_ns, in_flight);
            if self.workload.has_mutations() {
                let ingest = self.mut_waiting.len() as f64;
                self.trace.counter(sched, "ingest-queue", t_ns, ingest);
            }
        }
    }

    /// Take the next admission per policy; `waiting` keeps arrival
    /// order, so FIFO pops the front and SCSF removes the min candidate
    /// count with arrival order as tiebreak.
    fn take_next(&mut self) -> Option<usize> {
        match self.cfg.policy {
            AdmissionPolicy::Fifo => self.waiting.pop_front(),
            AdmissionPolicy::ShortestCandidateFirst => {
                let pos = (0..self.waiting.len())
                    .min_by_key(|&pos| (self.cand_est[self.waiting[pos]], self.waiting[pos]))?;
                self.waiting.remove(pos)
            }
        }
    }

    /// Start one slice of a query shard chain at `now_ns`: its bus part
    /// rides the shared channel first (free when zero-width), then its
    /// local part queues on the shard. Returns the bus grant start when
    /// the slice touched the bus.
    fn start_slice(&mut self, now_ns: f64, ai: usize, sp: usize, idx: usize) -> Option<f64> {
        let slice = self.qd(ai).shards[sp].slices[idx];
        if slice.bus_ns > 0.0 {
            let grant = self.host.acquire(now_ns, slice.bus_ns);
            self.events.push(grant.end_ns, Ev::BusDone(ai, sp, idx));
            if let Some(tracks) = &self.tracks {
                let (host, shard) = (tracks.host, self.qd(ai).shards[sp].shard);
                let name = slice.bus_kind.map_or("bus", |k| k.label());
                let mut args = self.query_args(ai);
                args.push(("shard", ArgValue::U64(shard as u64)));
                args.push(("wait_ns", ArgValue::F64(grant.start_ns - now_ns)));
                args.push(("bytes", ArgValue::U64(slice.bus_bytes)));
                self.trace.span(host, name, grant.start_ns, slice.bus_ns, args);
            }
            Some(grant.start_ns)
        } else {
            self.events.push(now_ns, Ev::BusDone(ai, sp, idx));
            None
        }
    }

    /// Start one slice of a mutation lane chain (same bus-then-local
    /// shape as query slices — ingest writes queue on the shared
    /// channel like any transfer).
    fn start_mut_slice(&mut self, now_ns: f64, mi: usize, lp: usize, idx: usize) {
        let slice = self.md(mi).lanes[lp].slices[idx];
        if slice.bus_ns > 0.0 {
            let grant = self.host.acquire(now_ns, slice.bus_ns);
            self.events.push(grant.end_ns, Ev::MutBusDone(mi, lp, idx));
            if let Some(tracks) = &self.tracks {
                let (host, lane) = (tracks.host, self.md(mi).lanes[lp].shard);
                let name = slice.bus_kind.map_or("bus", |k| k.label());
                let mut args = self.mutation_args(mi);
                args.push(("lane", ArgValue::U64(lane as u64)));
                args.push(("wait_ns", ArgValue::F64(grant.start_ns - now_ns)));
                args.push(("bytes", ArgValue::U64(slice.bus_bytes)));
                self.trace.span(host, name, grant.start_ns, slice.bus_ns, args);
            }
        } else {
            self.events.push(now_ns, Ev::MutBusDone(mi, lp, idx));
        }
    }

    /// Admit work while capacity allows: ingest first (strict FIFO
    /// behind the bounded per-lane buffer), then queries (policy
    /// order behind the in-flight bound). Mutations admit first so a
    /// query and a mutation released by the same event see the
    /// mutation in the query's snapshot — admission order, not
    /// event-processing luck, defines the epoch.
    fn try_admit(&mut self, now_ns: f64) -> Result<(), SchedError> {
        self.try_admit_mutations(now_ns)?;
        self.try_admit_queries(now_ns)
    }

    /// Strict-FIFO ingest admission behind the bounded per-lane buffer.
    fn try_admit_mutations(&mut self, now_ns: f64) -> Result<(), SchedError> {
        while let Some(&mi) = self.mut_waiting.front() {
            let m = &self.workload.mutations()[self.workload.mutation_arrivals()[mi].mutation];
            let lanes = self.cluster.plan_mutation_lanes(m)?;
            let full = lanes.iter().find(|&&l| self.lane_inflight[l] >= self.cfg.ingest_buffer);
            if let Some(&lane) = full {
                if self.stalled_since.is_none() {
                    // Head-of-line backpressure: record once per
                    // episode; everything behind the head waits too.
                    self.stalled_since = Some(now_ns);
                    self.ingest_stalls += 1;
                    self.record(now_ns, EventKind::MutationStall, mi, Some(lane));
                    if let Some(tracks) = &self.tracks {
                        let sched = tracks.sched;
                        let mut args = self.mutation_args(mi);
                        args.push(("lane", ArgValue::U64(lane as u64)));
                        self.trace.instant(sched, "ingest-stall", now_ns, args);
                    }
                }
                return Ok(());
            }
            if let Some(since) = self.stalled_since.take() {
                self.ingest_stall_ns += now_ns - since;
            }
            self.mut_waiting.pop_front();
            self.admit_mutation(now_ns, mi)?;
        }
        Ok(())
    }

    /// Admit one mutation: bump the epoch, apply it to the engine (the
    /// snapshot point), compile its lane chains and start them.
    fn admit_mutation(&mut self, now_ns: f64, mi: usize) -> Result<(), SchedError> {
        self.record(now_ns, EventKind::MutationAdmit, mi, None);
        if let Some(tracks) = &self.tracks {
            let sched = tracks.sched;
            let mut args = self.mutation_args(mi);
            let arrive = self.workload.mutation_arrivals()[mi].at_ns;
            args.push(("queued_ns", ArgValue::F64(now_ns - arrive)));
            self.trace.instant(sched, "ingest-admit", now_ns, args);
        }
        self.epoch += 1;
        let m = &self.workload.mutations()[self.workload.mutation_arrivals()[mi].mutation];
        let applied = self.cluster.apply_mutation(m)?;
        let contention = self.cluster.contention();
        let demand = match self.cluster.host_config() {
            Some(host) => {
                compile_mutation_demand(m.label(), &applied, &host, contention, self.want_detail)
            }
            None => compile_mutation_demand(m.label(), &[], &HostConfig::default(), false, false),
        };
        for ld in &demand.lanes {
            self.shard_endurance[ld.shard] =
                self.shard_endurance[ld.shard].max(ld.required_endurance);
        }
        let n_lanes = demand.lanes.len();
        let epoch = self.epoch;
        self.mut_demands[mi] = Some(demand);
        if n_lanes == 0 {
            // Zone maps admitted nothing (or the engine absorbed the
            // mutation without PIM work): durable at admission.
            self.complete_mutation(
                now_ns,
                mi,
                MutProgress { admit_ns: now_ns, remaining: 0, epoch },
            );
            return Ok(());
        }
        for lp in 0..n_lanes {
            let lane = self.md(mi).lanes[lp].shard;
            self.lane_inflight[lane] += 1;
            self.start_mut_slice(now_ns, mi, lp, 0);
        }
        self.mut_progress[mi] = Some(MutProgress { admit_ns: now_ns, remaining: n_lanes, epoch });
        self.trace_queue_counters(now_ns);
        Ok(())
    }

    /// Admit queries from the queue while in-flight slots are free,
    /// resolving each one's demand against the current (admitted-
    /// mutation) engine state.
    fn try_admit_queries(&mut self, now_ns: f64) -> Result<(), SchedError> {
        while self.in_flight < self.cfg.max_in_flight {
            let Some(ai) = self.take_next() else { break };
            self.record(now_ns, EventKind::Admit, ai, None);
            if let Some(tracks) = &self.tracks {
                let sched = tracks.sched;
                let mut args = self.query_args(ai);
                let arrive = self.workload.arrivals()[ai].at_ns;
                args.push(("queued_ns", ArgValue::F64(now_ns - arrive)));
                self.trace.instant(sched, "admit", now_ns, args);
            }
            // Snapshot-consistent resolution: plan and execute against
            // exactly the mutations admitted so far, caching per
            // (query, epoch) so repeated arrivals between ingests share
            // one deterministic, read-only resolution.
            let qi = self.workload.arrivals()[ai].query;
            let key = (qi, self.epoch);
            let ri = match self.by_query.get(&key) {
                Some(&ri) => ri,
                None => {
                    let query = &self.workload.queries()[qi];
                    let resolved =
                        resolve_query_demand(&mut *self.cluster, query, self.want_detail)?;
                    for sd in &resolved.0.shards {
                        self.shard_endurance[sd.shard] =
                            self.shard_endurance[sd.shard].max(sd.required_endurance);
                    }
                    let ri = self.resolutions.len();
                    self.resolutions.push(resolved);
                    self.by_query.insert(key, ri);
                    ri
                }
            };
            self.resolved[ai] = Some(ri);
            let (n_shards, merge_ns) = (self.qd(ai).shards.len(), self.qd(ai).merge_ns);
            let epoch = self.epoch;
            if n_shards == 0 {
                // The planner answered the query: nothing to dispatch,
                // the (empty) merge is free, the slot never fills.
                debug_assert_eq!(merge_ns, 0.0, "empty merges cost nothing");
                self.complete(
                    now_ns,
                    ai,
                    Progress { admit_ns: now_ns, first_service_ns: now_ns, remaining: 0, epoch },
                );
                self.trace_queue_counters(now_ns);
                continue;
            }
            self.in_flight += 1;
            // The host opens every candidate shard's chain; the first
            // slice of each (the per-page dispatch) serialises on the
            // bus against everything else in flight.
            let mut first_service_ns = f64::INFINITY;
            for sp in 0..n_shards {
                if let Some(start) = self.start_slice(now_ns, ai, sp, 0) {
                    first_service_ns = first_service_ns.min(start);
                }
            }
            if !first_service_ns.is_finite() {
                first_service_ns = now_ns;
            }
            self.progress[ai] =
                Some(Progress { admit_ns: now_ns, first_service_ns, remaining: n_shards, epoch });
            self.trace_queue_counters(now_ns);
        }
        Ok(())
    }

    fn complete(&mut self, now_ns: f64, ai: usize, p: Progress) {
        self.record(now_ns, EventKind::Complete, ai, None);
        if let Some(tracks) = &self.tracks {
            let sched = tracks.sched;
            let mut args = self.query_args(ai);
            let arrive = self.workload.arrivals()[ai].at_ns;
            args.push(("latency_ns", ArgValue::F64(now_ns - arrive)));
            self.trace.instant(sched, "complete", now_ns, args);
        }
        let d = self.qd(ai);
        self.completions.push(QueryCompletion {
            arrival: ai,
            query_id: d.query_id.clone(),
            arrive_ns: self.workload.arrivals()[ai].at_ns,
            admit_ns: p.admit_ns,
            first_service_ns: p.first_service_ns,
            complete_ns: now_ns,
            shards_dispatched: d.shards.len(),
            shards_pruned: d.shards_pruned,
            epoch: p.epoch,
        });
    }

    fn complete_mutation(&mut self, now_ns: f64, mi: usize, p: MutProgress) {
        self.record(now_ns, EventKind::MutationComplete, mi, None);
        if let Some(tracks) = &self.tracks {
            let sched = tracks.sched;
            let mut args = self.mutation_args(mi);
            let arrive = self.workload.mutation_arrivals()[mi].at_ns;
            args.push(("latency_ns", ArgValue::F64(now_ns - arrive)));
            self.trace.instant(sched, "ingest-complete", now_ns, args);
        }
        let d = self.md(mi);
        self.mutation_completions.push(MutationCompletion {
            arrival: mi,
            label: d.label.clone(),
            arrive_ns: self.workload.mutation_arrivals()[mi].at_ns,
            admit_ns: p.admit_ns,
            complete_ns: now_ns,
            lanes: d.lanes.len(),
            records_updated: d.records_updated,
            records_inserted: d.records_inserted,
            epoch: p.epoch,
        });
    }

    /// A query's shard chain finished its last slice.
    fn shard_done(&mut self, t: f64, ai: usize, sp: usize, shard: usize) {
        self.record(t, EventKind::ShardDone, ai, Some(shard));
        self.shard_cell_writes[shard] += self.qd(ai).shards[sp].cell_writes;
        let p = self.progress[ai].as_mut().expect("in-flight query has progress");
        p.remaining -= 1;
        if p.remaining == 0 {
            let merge_ns = self.qd(ai).merge_ns;
            let grant = self.host.acquire(t, merge_ns);
            self.events.push(grant.end_ns, Ev::MergeDone(ai));
            if merge_ns > 0.0 {
                if let Some(tracks) = &self.tracks {
                    let host = tracks.host;
                    let mut args = self.query_args(ai);
                    args.push(("wait_ns", ArgValue::F64(grant.start_ns - t)));
                    self.trace.span(host, "merge", grant.start_ns, merge_ns, args);
                }
            }
        }
    }

    /// A mutation's lane chain finished its last slice: free the lane's
    /// ingest-buffer slot (the stalled head may now clear) and complete
    /// the mutation when it was the last lane.
    fn mut_lane_done(
        &mut self,
        t: f64,
        mi: usize,
        lp: usize,
        lane: usize,
    ) -> Result<(), SchedError> {
        self.record(t, EventKind::MutationLaneDone, mi, Some(lane));
        self.shard_cell_writes[lane] += self.md(mi).lanes[lp].cell_writes;
        self.lane_inflight[lane] -= 1;
        let p = self.mut_progress[mi].as_mut().expect("in-flight mutation has progress");
        p.remaining -= 1;
        if p.remaining == 0 {
            let p = self.mut_progress[mi].take().expect("taken once");
            self.complete_mutation(t, mi, p);
        }
        self.trace_queue_counters(t);
        self.try_admit(t)
    }

    /// Emit the module-track spans for one local window
    /// `[start_ns, start_ns + local_ns]`: the per-phase composition
    /// when the chain was compiled with detail, one opaque `local`
    /// span otherwise.
    fn trace_local(&mut self, ai: usize, sp: usize, idx: usize, start_ns: f64, local_ns: f64) {
        let Some(tracks) = &self.tracks else { return };
        let shard = self.qd(ai).shards[sp].shard;
        let module = tracks.modules[shard];
        let detail = self.qd(ai).shards[sp].detail.get(idx).cloned().unwrap_or_default();
        if detail.is_empty() {
            let args = self.query_args(ai);
            self.trace.span(module, "local", start_ns, local_ns, args);
            return;
        }
        let mut at = start_ns;
        for (kind, dt) in detail {
            let args = self.query_args(ai);
            self.trace.span(module, kind.label(), at, dt, args);
            at += dt;
        }
    }

    /// Module-track spans for one mutation local window.
    fn trace_mut_local(&mut self, mi: usize, lp: usize, idx: usize, start_ns: f64, local_ns: f64) {
        let Some(tracks) = &self.tracks else { return };
        let lane = self.md(mi).lanes[lp].shard;
        let module = tracks.modules[lane];
        let detail = self.md(mi).lanes[lp].detail.get(idx).cloned().unwrap_or_default();
        if detail.is_empty() {
            let args = self.mutation_args(mi);
            self.trace.span(module, "ingest", start_ns, local_ns, args);
            return;
        }
        let mut at = start_ns;
        for (kind, dt) in detail {
            let args = self.mutation_args(mi);
            self.trace.span(module, kind.label(), at, dt, args);
            at += dt;
        }
    }

    fn run(mut self) -> Result<StreamOutcome, SchedError> {
        let policy = self.cfg.policy;
        while let Some((t, ev)) = self.events.pop() {
            match ev {
                Ev::Arrive(ai) => {
                    self.record(t, EventKind::Arrive, ai, None);
                    if let Some(tracks) = &self.tracks {
                        let sched = tracks.sched;
                        let args = self.query_args(ai);
                        self.trace.instant(sched, "arrive", t, args);
                    }
                    // SCSF's size estimate, planned against the zone
                    // maps as they stand at arrival (heuristic only —
                    // the real demand is planned at admission).
                    let qi = self.workload.arrivals()[ai].query;
                    let filter = &self.workload.queries()[qi].filter;
                    self.cand_est[ai] =
                        self.cluster.plan_shards(filter)?.iter().filter(|&&b| b).count();
                    self.waiting.push_back(ai);
                    self.trace_queue_counters(t);
                    self.try_admit(t)?;
                }
                Ev::MutArrive(mi) => {
                    self.record(t, EventKind::MutationArrive, mi, None);
                    if let Some(tracks) = &self.tracks {
                        let sched = tracks.sched;
                        let args = self.mutation_args(mi);
                        self.trace.instant(sched, "ingest-arrive", t, args);
                    }
                    self.mut_waiting.push_back(mi);
                    self.trace_queue_counters(t);
                    self.try_admit(t)?;
                }
                Ev::BusDone(ai, sp, idx) => {
                    let (shard, slice) = {
                        let d = &self.qd(ai).shards[sp];
                        (d.shard, d.slices[idx])
                    };
                    if idx == 0 {
                        self.record(t, EventKind::Dispatched, ai, Some(shard));
                    }
                    if slice.local_ns > 0.0 {
                        let grant = self.shard_bus[shard].acquire(t, slice.local_ns);
                        self.events.push(grant.end_ns, Ev::LocalDone(ai, sp, idx));
                        self.trace_local(ai, sp, idx, grant.start_ns, slice.local_ns);
                    } else {
                        self.events.push(t, Ev::LocalDone(ai, sp, idx));
                    }
                }
                Ev::LocalDone(ai, sp, idx) => {
                    let (shard, len) = {
                        let d = &self.qd(ai).shards[sp];
                        (d.shard, d.slices.len())
                    };
                    if idx + 1 < len {
                        self.start_slice(t, ai, sp, idx + 1);
                    } else {
                        self.shard_done(t, ai, sp, shard);
                    }
                }
                Ev::MergeDone(ai) => {
                    let p = self.progress[ai].take().expect("merging query has progress");
                    self.complete(t, ai, p);
                    self.in_flight -= 1;
                    self.trace_queue_counters(t);
                    self.try_admit(t)?;
                }
                Ev::MutBusDone(mi, lp, idx) => {
                    let (lane, slice) = {
                        let d = &self.md(mi).lanes[lp];
                        (d.shard, d.slices[idx])
                    };
                    if slice.local_ns > 0.0 {
                        let grant = self.shard_bus[lane].acquire(t, slice.local_ns);
                        self.events.push(grant.end_ns, Ev::MutLocalDone(mi, lp, idx));
                        self.trace_mut_local(mi, lp, idx, grant.start_ns, slice.local_ns);
                    } else {
                        self.events.push(t, Ev::MutLocalDone(mi, lp, idx));
                    }
                }
                Ev::MutLocalDone(mi, lp, idx) => {
                    let (lane, len) = {
                        let d = &self.md(mi).lanes[lp];
                        (d.shard, d.slices.len())
                    };
                    if idx + 1 < len {
                        self.start_mut_slice(t, mi, lp, idx + 1);
                    } else {
                        self.mut_lane_done(t, mi, lp, lane)?;
                    }
                }
            }
        }
        let makespan_ns = self
            .completions
            .iter()
            .map(|c| c.complete_ns)
            .chain(self.mutation_completions.iter().map(|c| c.complete_ns))
            .fold(0.0, f64::max);
        let executions = self
            .resolved
            .iter()
            .map(|ri| self.resolutions[ri.expect("every arrival admits")].1.clone())
            .collect();
        Ok(StreamOutcome {
            policy,
            completions: self.completions,
            mutation_completions: self.mutation_completions,
            executions,
            timeline: self.timeline,
            makespan_ns,
            host_busy_ns: self.host.busy_ns(),
            shard_busy_ns: self.shard_bus.iter().map(SharedBus::busy_ns).collect(),
            shard_cell_writes: self.shard_cell_writes,
            shard_required_endurance: self.shard_endurance,
            ingest_stalls: self.ingest_stalls,
            ingest_stall_ns: self.ingest_stall_ns,
        })
    }
}

/// Stream `workload` through `cluster` — any [`StreamEngine`]: the
/// pre-joined [`ClusterEngine`] or the normalized star-join cluster —
/// under `cfg`.
///
/// Query service demands come from real per-shard executions resolved
/// *at admission* against exactly the mutations admitted before them,
/// so each merged answer in [`StreamOutcome::executions`] is
/// bit-identical to a fresh engine that replayed that admission prefix
/// and ran the query (for pure-query workloads: bit-identical to
/// [`ClusterEngine::run_batch`] over the same arrived queries). The
/// discrete-event timeline then decides *when* each query's slices and
/// each mutation's write phases run under admission control, bounded
/// per-lane ingest buffers, per-shard FIFO queues and the shared host
/// channel. With [`StreamEngine::contention`] on (the default), every
/// tagged host phase — dispatch, mask transfers, result reads, host-gb
/// fetches, ingest writes — queues on the one bus; with it off only
/// dispatch and merge do.
///
/// # Errors
///
/// [`SchedError::InvalidConfig`] for a zero in-flight bound or a zero
/// ingest buffer; cluster/planner failures otherwise.
pub fn run_stream<E: StreamEngine>(
    cluster: &mut E,
    workload: &Workload,
    cfg: &SchedConfig,
) -> Result<StreamOutcome, SchedError> {
    let mut trace = TraceRecorder::disabled();
    run_stream_traced(cluster, workload, cfg, &mut trace)
}

/// [`run_stream`] with a [`TraceRecorder`]: when the recorder is
/// enabled, every scheduler admission/completion, every ingest
/// stall/admission, every host-bus grant (with its queueing wait and
/// byte payload) and every module-local phase window is recorded on
/// named tracks — `scheduler`, `host-bus`, `module-<k>`, and
/// `ingest-lane-<d>` for auxiliary ingest lanes — on the simulated
/// clock. The recorder **never** changes the simulation: the event
/// timeline, completions and merged executions are identical with
/// tracing on, off, or disabled (the oracle-equivalence suites assert
/// exactly this).
///
/// # Errors
///
/// Same as [`run_stream`].
pub fn run_stream_traced<E: StreamEngine>(
    cluster: &mut E,
    workload: &Workload,
    cfg: &SchedConfig,
    trace: &mut TraceRecorder,
) -> Result<StreamOutcome, SchedError> {
    if cfg.max_in_flight == 0 {
        return Err(SchedError::InvalidConfig("max_in_flight must be at least 1".into()));
    }
    if cfg.ingest_buffer == 0 {
        return Err(SchedError::InvalidConfig("ingest_buffer must be at least 1".into()));
    }
    let want_detail = trace.is_enabled();
    let active_shards = cluster.active_shards();
    // Pure-query runs keep the per-shard shape; ingest runs widen the
    // lane vectors to every ingest lane (star dimension modules after
    // the fact shards).
    let lanes = if workload.has_mutations() {
        cluster.ingest_lanes().max(active_shards)
    } else {
        active_shards
    };
    let tracks = Tracks::new(trace, active_shards, lanes);
    let mut sim = Sim {
        cfg,
        workload,
        cluster,
        want_detail,
        epoch: 0,
        resolutions: Vec::new(),
        by_query: HashMap::new(),
        resolved: vec![None; workload.len()],
        cand_est: vec![0; workload.len()],
        mut_demands: vec![None; workload.mutation_arrivals().len()],
        events: EventQueue::default(),
        host: SharedBus::new(),
        shard_bus: vec![SharedBus::new(); lanes],
        waiting: VecDeque::new(),
        mut_waiting: VecDeque::new(),
        in_flight: 0,
        lane_inflight: vec![0; lanes],
        stalled_since: None,
        ingest_stalls: 0,
        ingest_stall_ns: 0.0,
        progress: vec![None; workload.len()],
        mut_progress: vec![None; workload.mutation_arrivals().len()],
        completions: Vec::with_capacity(workload.len()),
        mutation_completions: Vec::with_capacity(workload.mutation_arrivals().len()),
        timeline: Vec::new(),
        shard_cell_writes: vec![0; lanes],
        shard_endurance: vec![0.0; lanes],
        trace,
        tracks,
    };
    for (ai, arrival) in workload.arrivals().iter().enumerate() {
        sim.events.push(arrival.at_ns, Ev::Arrive(ai));
    }
    for (mi, arrival) in workload.mutation_arrivals().iter().enumerate() {
        sim.events.push(arrival.at_ns, Ev::MutArrive(mi));
    }
    sim.run()
}

/// The horizon the per-module required-endurance figures assume (the
/// paper's Fig. 9 runs each query back-to-back for ten years).
pub const ENDURANCE_YEARS: f64 = 10.0;
