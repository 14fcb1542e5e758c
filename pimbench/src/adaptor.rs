//! Benchmark-side [`StreamEngine`] adaptors.
//!
//! * [`Timed`] wraps any engine and counts and host-times every call
//!   the scheduler makes into it (`run_on_shard`, `plan_shards`,
//!   `merge_executions`, `apply_mutation`, `plan_mutation_lanes`). When
//!   a [`SpanLog`] is attached, each call also becomes a host-clock span
//!   whose parent is whatever span the benchmark has open around it;
//!   when a [`Meter`] is attached, the machine's speed is probed between
//!   calls (outside their timing).
//! * [`Memo`] replays per-shard executions of a read-only engine, so a
//!   rate ladder can re-run one trace at many rates while paying each
//!   shard execution once. Both adaptors forward every answer unchanged:
//!   a wrapped run's `StreamOutcome` is bit-identical to a bare one.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use bbpim_cluster::{ClusterError, ClusterExecution};
use bbpim_core::mutation::{Mutation, MutationReport};
use bbpim_core::result::QueryExecution;
use bbpim_db::plan::{Pred, Query};
use bbpim_sched::StreamEngine;
use bbpim_sim::config::HostConfig;

use crate::clock::Meter;
use crate::spans::SpanLog;

/// Call count and host time of one adaptor entry point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallStat {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds of every call, in call order.
    pub host_ns: Vec<u64>,
}

impl CallStat {
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.host_ns.push(ns);
    }

    /// Total host time, seconds.
    pub fn total_s(&self) -> f64 {
        self.host_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Mean host time per call, milliseconds (0 without calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_s() * 1e3 / self.calls as f64
        }
    }

    /// Nearest-rank p99 of the per-call host time, milliseconds.
    pub fn p99_ms(&self) -> f64 {
        let mut v: Vec<f64> = self.host_ns.iter().map(|&n| n as f64 / 1e6).collect();
        v.sort_by(f64::total_cmp);
        crate::stats::percentile(&v, 99.0)
    }
}

/// Per-entry-point statistics one [`Timed`] engine collected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStats {
    /// `run_on_shard` — the core engine's per-shard execution.
    pub run_on_shard: CallStat,
    /// `plan_shards` — the cluster's zone-map planner.
    pub plan_shards: CallStat,
    /// `merge_executions` — the cluster's gather.
    pub merge_executions: CallStat,
    /// `apply_mutation` — ingest applied at admission.
    pub apply_mutation: CallStat,
    /// `plan_mutation_lanes` — the ingest-buffer admission check.
    pub plan_mutation_lanes: CallStat,
    /// Simulated PIM energy of every applied mutation, picojoules.
    pub mutation_energy_pj: f64,
}

/// A [`StreamEngine`] that counts and host-times every call into `inner`.
pub struct Timed<E> {
    /// The wrapped engine.
    pub inner: E,
    stats: RefCell<LayerStats>,
    spans: Option<Rc<RefCell<SpanLog>>>,
    meter: Option<RefCell<Meter>>,
}

impl<E: StreamEngine> Timed<E> {
    /// Wrap `inner`; without a span log only counts and times are kept.
    pub fn new(inner: E, spans: Option<Rc<RefCell<SpanLog>>>) -> Self {
        Timed { inner, stats: RefCell::new(LayerStats::default()), spans, meter: None }
    }

    /// Wrap `inner` and probe the machine's speed between calls.
    pub fn metered(inner: E) -> Self {
        Timed { meter: Some(RefCell::new(Meter::default())), ..Timed::new(inner, None) }
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> LayerStats {
        self.stats.borrow().clone()
    }

    /// The speed samples taken so far (empty when not metered).
    pub fn meter(&self) -> Meter {
        self.meter.as_ref().map(|m| m.borrow().clone()).unwrap_or_default()
    }

    fn tick(&self) {
        if let Some(m) = &self.meter {
            m.borrow_mut().tick();
        }
    }

    fn timed<T>(
        &self,
        name: &'static str,
        req: Option<&str>,
        stat: fn(&mut LayerStats) -> &mut CallStat,
        f: impl FnOnce() -> T,
    ) -> T {
        self.tick();
        let span = self.spans.as_ref().map(|s| s.borrow_mut().open(name, req));
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        if let (Some(s), Some(id)) = (&self.spans, span) {
            s.borrow_mut().close(id);
        }
        stat(&mut self.stats.borrow_mut()).record(ns);
        out
    }
}

impl<E: StreamEngine> StreamEngine for Timed<E> {
    fn contention(&self) -> bool {
        self.inner.contention()
    }

    fn host_config(&self) -> Option<HostConfig> {
        self.inner.host_config()
    }

    fn active_shards(&self) -> usize {
        self.inner.active_shards()
    }

    fn ingest_lanes(&self) -> usize {
        self.inner.ingest_lanes()
    }

    fn plan_mutation_lanes(&self, mutation: &Mutation) -> Result<Vec<usize>, ClusterError> {
        let label = mutation.label();
        self.timed(
            "cluster.plan_mutation_lanes",
            Some(&label),
            |s| &mut s.plan_mutation_lanes,
            || self.inner.plan_mutation_lanes(mutation),
        )
    }

    fn apply_mutation(
        &mut self,
        mutation: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        self.tick();
        let label = mutation.label();
        let span =
            self.spans.as_ref().map(|s| s.borrow_mut().open("core.apply_mutation", Some(&label)));
        let start = Instant::now();
        let out = self.inner.apply_mutation(mutation);
        let ns = start.elapsed().as_nanos() as u64;
        if let (Some(s), Some(id)) = (&self.spans, span) {
            s.borrow_mut().close(id);
        }
        let mut stats = self.stats.borrow_mut();
        stats.apply_mutation.record(ns);
        if let Ok(lanes) = &out {
            stats.mutation_energy_pj += lanes.iter().map(|(_, r)| r.energy_pj).sum::<f64>();
        }
        out
    }

    fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        self.timed(
            "cluster.plan_shards",
            None,
            |s| &mut s.plan_shards,
            || self.inner.plan_shards(filter),
        )
    }

    fn run_on_shard(
        &mut self,
        shard: usize,
        query: &Query,
    ) -> Result<QueryExecution, ClusterError> {
        self.tick();
        let span =
            self.spans.as_ref().map(|s| s.borrow_mut().open("core.run_on_shard", Some(&query.id)));
        let start = Instant::now();
        let out = self.inner.run_on_shard(shard, query);
        let ns = start.elapsed().as_nanos() as u64;
        if let (Some(s), Some(id)) = (&self.spans, span) {
            s.borrow_mut().close(id);
        }
        self.stats.borrow_mut().run_on_shard.record(ns);
        out
    }

    fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution {
        self.timed(
            "cluster.merge_executions",
            Some(&query.id),
            |s| &mut s.merge_executions,
            || self.inner.merge_executions(query, executions, shards_pruned),
        )
    }
}

/// A read-only [`StreamEngine`] that executes each `(shard, query)` once
/// on `inner` and replays the stored execution afterwards.
///
/// Only sound while nothing mutates the engine: [`Memo::apply_mutation`]
/// refuses. A query's per-shard executions are a pure function of the
/// engine state and the order the scheduler resolves them in, which is
/// the same on every rate of one trace.
pub struct Memo<'a, E> {
    inner: &'a mut E,
    runs: HashMap<(usize, String), QueryExecution>,
}

impl<'a, E: StreamEngine> Memo<'a, E> {
    /// Memoise over `inner`.
    pub fn new(inner: &'a mut E) -> Self {
        Memo { inner, runs: HashMap::new() }
    }
}

impl<E: StreamEngine> StreamEngine for Memo<'_, E> {
    fn contention(&self) -> bool {
        self.inner.contention()
    }

    fn host_config(&self) -> Option<HostConfig> {
        self.inner.host_config()
    }

    fn active_shards(&self) -> usize {
        self.inner.active_shards()
    }

    fn ingest_lanes(&self) -> usize {
        self.inner.ingest_lanes()
    }

    fn plan_mutation_lanes(&self, mutation: &Mutation) -> Result<Vec<usize>, ClusterError> {
        self.inner.plan_mutation_lanes(mutation)
    }

    fn apply_mutation(
        &mut self,
        _mutation: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        Err(ClusterError::InvalidCluster("the memoising adaptor is read-only".into()))
    }

    fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        self.inner.plan_shards(filter)
    }

    fn run_on_shard(
        &mut self,
        shard: usize,
        query: &Query,
    ) -> Result<QueryExecution, ClusterError> {
        let key = (shard, format!("{query:?}"));
        if let Some(e) = self.runs.get(&key) {
            return Ok(e.clone());
        }
        let e = self.inner.run_on_shard(shard, query)?;
        self.runs.insert(key, e.clone());
        Ok(e)
    }

    fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution {
        self.inner.merge_executions(query, executions, shards_pruned)
    }
}
