//! The discrete-event loops alone: `run_stream` (FIFO and SCSF) and
//! `run_serve` over an engine that replays per-shard executions
//! recorded once from a real cluster, so no simulator runs inside the
//! timed loop. Each case runs at a light load (an admission backlog of
//! about one) and from a 2000-arrival burst (a backlog of about 1000),
//! and prints its timeline events per host-second next to the median
//! run time.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use bbpim_cluster::{ClusterError, ClusterExecution, Partitioner};
use bbpim_core::modes::EngineMode;
use bbpim_core::mutation::{Mutation, MutationReport};
use bbpim_core::result::QueryExecution;
use bbpim_db::plan::{Pred, Query};
use bbpim_db::ssb::{queries, SsbDb, SsbParams};
use bbpim_join::StarCluster;
use bbpim_sched::{run_stream, AdmissionPolicy, Arrival, SchedConfig, StreamEngine, Workload};
use bbpim_serve::{run_serve, ArrivalProcess, ServeConfig, SloSpec, TenantSpec};
use bbpim_sim::config::HostConfig;
use bbpim_sim::SimConfig;
use criterion::{criterion_group, criterion_main, Criterion};

/// Arrivals per run.
const ARRIVALS: usize = 2000;

/// Replays recorded shard plans, executions and merges (read-only).
struct Replay {
    host: HostConfig,
    shards: usize,
    masks: HashMap<Pred, Vec<bool>>,
    runs: HashMap<(usize, String), QueryExecution>,
    merged: HashMap<String, ClusterExecution>,
}

impl Replay {
    /// Record every query of `queries` once on `cluster`.
    fn record(cluster: &mut impl StreamEngine, queries: &[Query]) -> Replay {
        let mut replay = Replay {
            host: cluster.host_config().expect("a non-empty cluster"),
            shards: cluster.active_shards(),
            masks: HashMap::new(),
            runs: HashMap::new(),
            merged: HashMap::new(),
        };
        for q in queries {
            let mask = cluster.plan_shards(&q.filter).unwrap();
            let mut execs = Vec::new();
            for (s, _) in mask.iter().enumerate().filter(|(_, &m)| m) {
                let e = cluster.run_on_shard(s, q).unwrap();
                replay.runs.insert((s, q.id.clone()), e.clone());
                execs.push(e);
            }
            let refs: Vec<&QueryExecution> = execs.iter().collect();
            let pruned = mask.iter().filter(|m| !**m).count();
            replay.merged.insert(q.id.clone(), cluster.merge_executions(q, &refs, pruned));
            replay.masks.insert(q.filter.clone(), mask);
        }
        replay
    }
}

impl StreamEngine for Replay {
    fn contention(&self) -> bool {
        true
    }

    fn host_config(&self) -> Option<HostConfig> {
        Some(self.host.clone())
    }

    fn active_shards(&self) -> usize {
        self.shards
    }

    fn plan_mutation_lanes(&self, _: &Mutation) -> Result<Vec<usize>, ClusterError> {
        Ok(Vec::new())
    }

    fn apply_mutation(
        &mut self,
        _: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        Err(ClusterError::InvalidCluster("the replay engine is read-only".into()))
    }

    fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        Ok(self.masks[filter].clone())
    }

    fn run_on_shard(
        &mut self,
        shard: usize,
        query: &Query,
    ) -> Result<QueryExecution, ClusterError> {
        Ok(self.runs[&(shard, query.id.clone())].clone())
    }

    fn merge_executions(&self, query: &Query, _: &[&QueryExecution], _: usize) -> ClusterExecution {
        self.merged[&query.id].clone()
    }
}

/// Median host seconds of `runs` calls, and the value of the last.
fn median_s<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.expect("at least one run"))
}

fn bench_sched_loop(c: &mut Criterion) {
    let db = SsbDb::generate(&SsbParams::tiny_for_tests());
    let qs = queries::standard_queries();
    let mut cluster =
        StarCluster::new(SimConfig::default(), &db, EngineMode::OneXb, 4, Partitioner::RoundRobin)
            .unwrap();
    let mut engine = Replay::record(&mut cluster, &qs);

    // the burst drains at the cluster's full service rate; offering
    // the light load at five sixths of it keeps its backlog ~1
    let burst = Workload::new(
        qs.clone(),
        (0..ARRIVALS).map(|i| Arrival { at_ns: 0.0, query: i % qs.len() }).collect(),
    )
    .unwrap();
    let drained = run_stream(&mut engine, &burst, &SchedConfig::default()).unwrap();
    let gap_ns = 1.2 * drained.makespan_ns / ARRIVALS as f64;
    let light = Workload::poisson(qs.clone(), ARRIVALS, gap_ns, 1);

    let mut group = c.benchmark_group("sched_loop");
    group.sample_size(20);
    for (load, w) in [("backlog_1", &light), ("backlog_1000", &burst)] {
        for policy in AdmissionPolicy::all() {
            let cfg = SchedConfig { policy, ..SchedConfig::default() };
            let name = format!("run_stream/{}/{load}", policy.label());
            let (s, out) = median_s(20, || run_stream(&mut engine, w, &cfg).unwrap());
            // Little's law: mean admission-queue depth
            let waiting: f64 = out.completions.iter().map(|q| q.admit_ns - q.arrive_ns).sum();
            println!(
                "{name:<50} {:>10.0} events/host-s  ({} events, mean backlog {:.1})",
                out.timeline.len() as f64 / s,
                out.timeline.len(),
                waiting / out.makespan_ns
            );
            group.bench_function(&name, |b| {
                b.iter(|| black_box(run_stream(&mut engine, w, &cfg).unwrap()))
            });
        }
    }
    let tenant = |process| TenantSpec {
        name: "t".into(),
        queries: qs.clone(),
        process,
        writes: None,
        rate_limit: None,
        slo: SloSpec { p95_target_ns: 1e9, deadline_ns: None },
        weight: 1.0,
    };
    let serve_loads = [
        (
            "backlog_1",
            tenant(ArrivalProcess::OpenPoisson {
                arrivals: ARRIVALS,
                mean_interarrival_ns: gap_ns,
            }),
        ),
        ("backlog_1000", tenant(ArrivalProcess::Burst { arrivals: ARRIVALS, at_ns: 0.0 })),
    ];
    let cfg = ServeConfig::default();
    for (load, t) in &serve_loads {
        let tenants = std::slice::from_ref(t);
        let name = format!("run_serve/aimd/{load}");
        let (s, out) = median_s(20, || run_serve(&mut engine, tenants, &cfg).unwrap());
        println!(
            "{name:<50} {:>10.0} events/host-s  ({} events)",
            out.timeline.len() as f64 / s,
            out.timeline.len()
        );
        group.bench_function(&name, |b| {
            b.iter(|| black_box(run_serve(&mut engine, tenants, &cfg).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sched_loop);
criterion_main!(benches);
