//! The four benchmark workloads, their frozen inputs, and the runs that
//! measure them.
//!
//! Rates, ladders, latency limits, scale factors, data seeds and trace
//! lengths are absolute constants here. None is derived from measuring
//! the code under test; `--seed` varies only the traffic.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bbpim_cluster::{ClusterEngine, ClusterExecution, Partitioner};
use bbpim_core::groupby::calibration::CalibrationConfig;
use bbpim_core::groupby::cost_model::GroupByModel;
use bbpim_core::modes::EngineMode;
use bbpim_core::mutation::Mutation;
use bbpim_db::builder::col;
use bbpim_db::plan::Query;
use bbpim_db::relation::Relation;
use bbpim_db::ssb::{queries, SsbDb, SsbParams};
use bbpim_join::StarCluster;
use bbpim_sched::{
    run_stream, run_stream_traced, Arrival, EventKind, SchedConfig, StreamEngine, StreamOutcome,
    Workload, ENDURANCE_YEARS,
};
use bbpim_serve::{
    run_serve, run_serve_traced, AimdConfig, ArrivalProcess, RateLimit, ServeConfig,
    ServeEventKind, ServeOutcome, SloSpec, TenantSpec, WindowPolicy,
};
use bbpim_sim::endurance::SECONDS_PER_YEAR;
use bbpim_sim::timeline::PhaseKind;
use bbpim_sim::SimConfig;
use bbpim_trace::TraceRecorder;

use crate::adaptor::{LayerStats, Memo, Timed};
use crate::adhoc::adhoc_trace;
use crate::check::{self, Accounting};
use crate::clock::Meter;
use crate::report::{Metrics, RunReport};
use crate::spans::SpanLog;
use crate::stats::{median, percentile_of, ratio};
use crate::trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the generated SSB instance. The database is part of a
/// workload's frozen definition, like its scale factor; `--seed` draws
/// the traffic (arrival times, query picks, ad-hoc constants, tenant
/// streams). At the small scale factors a run can afford, a redrawn
/// instance moves per-query cost far more than any change under test.
pub const DATA_SEED: u64 = 0xB1_7B17;
/// Fact shards of every workload's cluster.
pub const SHARDS: usize = 4;
/// Set-up repetitions per run, at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Set-up repeats until this many host seconds are measured (and at
/// most [`SETUP_MAX_REPEATS`] times), so a cheap set-up still yields a
/// steady median.
pub const SETUP_MIN_S: f64 = 1.0;
/// Upper bound on set-up repetitions.
pub const SETUP_MAX_REPEATS: usize = 25;
/// Timed repetitions of the measured phase, at least.
pub const MIN_REPS: usize = 2;
/// In-system growth between mid-trace and the last arrival beyond
/// which a ladder rung counts as overloaded: max(this, 2% of arrivals).
pub const BACKLOG_SLACK: usize = 8;

/// Where a stream workload's data lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Storage {
    /// Normalized star schema on a round-robin `StarCluster`.
    Star,
    /// The paper's pre-joined relation on a `ClusterEngine`
    /// range-partitioned by `d_year`.
    Wide,
}

/// Where a stream workload's queries come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuerySet {
    /// The 13 SSB queries, constants re-picked against the generated
    /// instance so each keeps its SSB selectivity (the paper's practice;
    /// the standard constants select nothing on some small instances).
    Standard,
    /// SSB templates with constants redrawn per arrival.
    Adhoc,
}

/// A frozen stream workload (`run_stream`).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Workload name.
    pub name: &'static str,
    /// SSB scale factor.
    pub sf: f64,
    /// Skewed (paper) data rather than uniform.
    pub skewed: bool,
    /// Storage model.
    pub storage: Storage,
    /// Query source.
    pub queries: QuerySet,
    /// Arrivals (queries and mutations) in the trace.
    pub arrivals: usize,
    /// Offered rate of the measured trace, arrivals per simulated second.
    pub rate_qps: f64,
    /// One arrival in this many is a mutation (`None`: read-only).
    pub mutation_every: Option<usize>,
    /// Latency limit: goodput counts completions within it, and the
    /// rate ladder holds p99 under it.
    pub limit_ms: f64,
    /// The absolute rate ladder for `max_rate_qps` (empty: not run).
    pub ladder_qps: &'static [f64],
}

/// A frozen serve workload (`run_serve`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// SSB scale factor.
    pub sf: f64,
    /// Light tenant: arrivals and mean gap (ns).
    pub light: (usize, f64),
    /// Heavy tenant: arrivals and mean gap (ns), token-bucket rate.
    pub heavy: (usize, f64, f64),
    /// Batch tenant: clients, requests per client, mean think gap (ns).
    pub batch: (usize, usize, f64),
}

/// `ssb-stream`: the 13 SSB queries, uniform data, star storage.
pub const SSB_STREAM: StreamSpec = StreamSpec {
    name: "ssb-stream",
    sf: 0.005,
    skewed: false,
    storage: Storage::Star,
    queries: QuerySet::Standard,
    arrivals: 20_000,
    rate_qps: 3000.0,
    mutation_every: None,
    limit_ms: 10.0,
    ladder_qps: &[3000.0, 3500.0, 4000.0, 4500.0, 5000.0, 5500.0, 6000.0, 6500.0, 7000.0],
};

/// `ssb-adhoc`: redrawn SSB templates, skewed data, pre-joined storage.
pub const SSB_ADHOC: StreamSpec = StreamSpec {
    name: "ssb-adhoc",
    sf: 0.002,
    skewed: true,
    storage: Storage::Wide,
    queries: QuerySet::Adhoc,
    arrivals: 1000,
    rate_qps: 500.0,
    mutation_every: None,
    limit_ms: 20.0,
    ladder_qps: &[],
};

/// `htap-ingest`: the `ssb-stream` mix plus 10% mutations, pre-joined.
pub const HTAP_INGEST: StreamSpec = StreamSpec {
    name: "htap-ingest",
    sf: 0.002,
    skewed: false,
    storage: Storage::Wide,
    queries: QuerySet::Standard,
    arrivals: 1600,
    rate_qps: 20_000.0,
    mutation_every: Some(10),
    limit_ms: 20.0,
    ladder_qps: &[],
};

/// `serve-tenants`: light/heavy/batch tenants under AIMD at overload.
pub const SERVE_TENANTS: ServeSpec = ServeSpec {
    name: "serve-tenants",
    sf: 0.005,
    light: (6000, 250_000.0),
    heavy: (36_000, 40_000.0, 40_000.0),
    batch: (2, 450, 3_000_000.0),
};

/// Every workload name, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["ssb-stream", "ssb-adhoc", "htap-ingest", "serve-tenants"];

/// What the benchmark was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed of the traffic.
    pub seed: u64,
    /// Host seconds the measured phase lasts (at least).
    pub seconds: f64,
    /// Traced run: per-layer metrics and span export.
    pub trace: bool,
    /// Directory the traced run writes its span files to.
    pub out_dir: std::path::PathBuf,
}

/// Generated data plus the fitted GROUP-BY model.
pub struct Data {
    /// The SSB instance.
    pub db: SsbDb,
    /// Its pre-joined relation (the oracle's input).
    pub wide: Relation,
    /// The GROUP-BY model for pre-joined storage.
    pub model: Option<GroupByModel>,
}

/// Set-up times: one set-up's, or medians over repetitions.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Set-ups the times summarise.
    pub repeats: usize,
    /// Total set-up, seconds.
    pub setup_s: f64,
    /// Data generation.
    pub generate_s: f64,
    /// Pre-join.
    pub prejoin_s: f64,
    /// PIM load (cluster construction).
    pub load_s: f64,
    /// GROUP-BY calibration.
    pub calibrate_s: f64,
}

impl SetupTimes {
    /// These times divided by a machine `slowdown`.
    fn at_speed(&self, slowdown: f64) -> SetupTimes {
        SetupTimes {
            repeats: self.repeats,
            setup_s: self.setup_s / slowdown,
            generate_s: self.generate_s / slowdown,
            prejoin_s: self.prejoin_s / slowdown,
            load_s: self.load_s / slowdown,
            calibrate_s: self.calibrate_s / slowdown,
        }
    }
}

fn params(sf: f64, skewed: bool) -> SsbParams {
    let mut p = if skewed { SsbParams::skewed(sf) } else { SsbParams::uniform(sf) };
    p.seed = DATA_SEED;
    p
}

fn timed<T>(
    spans: &Option<Rc<RefCell<SpanLog>>>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = spans.as_ref().map(|s| s.borrow_mut().open(name, None));
    let start = Instant::now();
    let out = f();
    let s = start.elapsed().as_secs_f64();
    if let (Some(log), Some(id)) = (spans, id) {
        log.borrow_mut().close(id);
    }
    (out, s)
}

/// A fresh pre-joined cluster over `data`, range-partitioned by
/// `d_year`, with the fitted GROUP-BY model installed.
///
/// # Panics
///
/// Construction failures on the benchmark's known-good inputs.
pub fn wide_cluster(data: &Data) -> ClusterEngine {
    let mut c = ClusterEngine::new(
        SimConfig::default(),
        data.wide.clone(),
        EngineMode::OneXb,
        SHARDS,
        Partitioner::range_by_attr("d_year"),
    )
    .expect("cluster construction");
    if let Some(m) = &data.model {
        c.set_model(m.clone());
    }
    c
}

/// A fresh star cluster over `data`.
///
/// # Panics
///
/// Construction failures on the benchmark's known-good inputs.
pub fn star_cluster(data: &Data) -> StarCluster {
    StarCluster::new(
        SimConfig::default(),
        &data.db,
        EngineMode::OneXb,
        SHARDS,
        Partitioner::RoundRobin,
    )
    .expect("star cluster construction")
}

/// One set-up: generate the SSB instance, pre-join it, load a cluster
/// of `storage` (timed, then dropped) and, for pre-joined storage, fit
/// the GROUP-BY model.
///
/// # Panics
///
/// Construction or calibration failures on known-good inputs.
pub fn build(
    sf: f64,
    skewed: bool,
    storage: Storage,
    spans: &Option<Rc<RefCell<SpanLog>>>,
) -> (Data, SetupTimes) {
    let (db, generate_s) = timed(spans, "db.generate", || SsbDb::generate(&params(sf, skewed)));
    let (wide, prejoin_s) = timed(spans, "db.prejoin", || db.prejoin());
    let mut data = Data { db, wide, model: None };
    let (load_s, calibrate_s) = match storage {
        Storage::Star => (timed(spans, "core.load", || star_cluster(&data)).1, 0.0),
        Storage::Wide => {
            let (mut c, load_s) = timed(spans, "core.load", || wide_cluster(&data));
            let ((), cal_s) = timed(spans, "core.calibrate", || {
                c.calibrate(&CalibrationConfig::default()).expect("calibration")
            });
            data.model = c.model().cloned();
            (load_s, cal_s)
        }
    };
    let times = SetupTimes {
        repeats: 1,
        setup_s: generate_s + prejoin_s + load_s + calibrate_s,
        generate_s,
        prejoin_s,
        load_s,
        calibrate_s,
    };
    (data, times)
}

/// [`build`] at least [`SETUP_REPEATS`] times and until [`SETUP_MIN_S`]
/// host seconds are measured; keep the last data set and report median
/// times at nominal machine speed (each set-up between two probes).
pub fn setup(
    sf: f64,
    skewed: bool,
    storage: Storage,
    spans: &Option<Rc<RefCell<SpanLog>>>,
) -> (Data, SetupTimes) {
    let mut reps: Vec<SetupTimes> = Vec::new();
    let mut data = None;
    let mut total = 0.0;
    while reps.len() < SETUP_REPEATS || (total < SETUP_MIN_S && reps.len() < SETUP_MAX_REPEATS) {
        drop(data.take()); // free the previous instance before building the next
        let mut meter = Meter::default();
        meter.probe();
        let (d, t) = build(sf, skewed, storage, spans);
        meter.probe();
        total += t.setup_s;
        reps.push(t.at_speed(meter.slowdown()));
        data = Some(d);
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        repeats: reps.len(),
        setup_s: med(|t| t.setup_s),
        generate_s: med(|t| t.generate_s),
        prejoin_s: med(|t| t.prejoin_s),
        load_s: med(|t| t.load_s),
        calibrate_s: med(|t| t.calibrate_s),
    };
    (data.expect("at least one set-up"), times)
}

/// The HTAP mutation set: a point UPDATE, an OR-filtered UPDATE that
/// widens zone maps, and an INSERT replaying an existing row. UPDATEs
/// rewrite `lo_tax`, which no SSB query reads, so the query mix keeps
/// its shape while the writes load the bus and wear the cells.
///
/// # Panics
///
/// A schema without the SSB attributes.
pub fn htap_mutations(wide: &Relation) -> Vec<Mutation> {
    vec![
        Mutation::update()
            .filter(col("d_year").eq(1993u64))
            .set("lo_tax", 2u64)
            .build(wide.schema())
            .expect("point update"),
        Mutation::update()
            .filter(col("d_year").eq(1994u64).or(col("d_year").eq(1995u64)))
            .set("lo_tax", 3u64)
            .build(wide.schema())
            .expect("DNF update"),
        Mutation::insert().row(wide.row(0)).build(wide.schema()).expect("insert"),
    ]
}

/// The measured trace of a stream workload, drawn from `seed`, plus
/// the distinct-query fraction of an ad-hoc trace.
///
/// # Panics
///
/// Query generation failures on the benchmark's known-good inputs.
pub fn stream_workload(spec: &StreamSpec, data: &Data, seed: u64) -> (Workload, Option<f64>) {
    let gap_ns = 1e9 / spec.rate_qps;
    let mut rng = StdRng::seed_from_u64(seed);
    match spec.queries {
        QuerySet::Standard => {
            let qs = queries::adjusted_queries(&data.wide).expect("query adjustment");
            let w = match spec.mutation_every {
                Some(every) => trace::mixed(
                    qs,
                    htap_mutations(&data.wide),
                    spec.arrivals,
                    every,
                    gap_ns,
                    &mut rng,
                ),
                None => {
                    let times = trace::poisson_times(spec.arrivals, gap_ns, &mut rng);
                    let picks = trace::deck(spec.arrivals, qs.len(), &mut rng);
                    trace::reads(qs, &times, &picks)
                }
            };
            (w, None)
        }
        QuerySet::Adhoc => {
            let times = trace::poisson_times(spec.arrivals, gap_ns, &mut rng);
            let adhoc = adhoc_trace(&data.wide, spec.arrivals, &mut rng).expect("ad-hoc trace");
            let frac = adhoc.distinct_frac();
            (trace::reads(adhoc.queries, &times, &adhoc.picks), Some(frac))
        }
    }
}

/// `w` with every arrival time scaled so its mean rate is `rate_qps`
/// instead of `base_qps`.
pub fn rescale(w: &Workload, base_qps: f64, rate_qps: f64) -> Workload {
    let k = base_qps / rate_qps;
    let arrivals =
        w.arrivals().iter().map(|a| Arrival { at_ns: a.at_ns * k, query: a.query }).collect();
    let muts = w
        .mutation_arrivals()
        .iter()
        .map(|m| bbpim_sched::MutationArrival { at_ns: m.at_ns * k, mutation: m.mutation })
        .collect();
    Workload::with_mutations(w.queries().to_vec(), arrivals, w.mutations().to_vec(), muts)
        .expect("a rescaled trace stays sorted")
}

/// In-system request count (arrived, not yet finished) just after the
/// middle and the last arrival of a timeline of `(t, delta)` steps.
fn backlog_mid_end(mut steps: Vec<(f64, i64)>, mid_t: f64, end_t: f64) -> (i64, i64) {
    steps.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
    let (mut depth, mut mid, mut end) = (0i64, 0i64, 0i64);
    for (t, d) in steps {
        if t > end_t {
            break;
        }
        depth += d;
        if t <= mid_t {
            mid = depth;
        }
        end = depth;
    }
    (mid, end)
}

fn stream_backlog(out: &StreamOutcome, w: &Workload) -> (i64, i64) {
    let steps = out
        .timeline
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Arrive | EventKind::MutationArrive => Some((e.t_ns, 1)),
            EventKind::Complete | EventKind::MutationComplete => Some((e.t_ns, -1)),
            _ => None,
        })
        .collect();
    let n = w.arrivals().len();
    let mid = w.arrivals()[n / 2].at_ns;
    let end = w.arrivals()[n - 1].at_ns;
    backlog_mid_end(steps, mid, end)
}

fn growing(mid: i64, end: i64, arrivals: usize) -> bool {
    end - mid > BACKLOG_SLACK.max(arrivals / 50) as i64
}

/// One ladder rung's verdict.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered rate, queries per simulated second.
    pub rate_qps: f64,
    /// p99 latency from scheduled arrival, ms.
    pub p99_ms: f64,
    /// In-system count at the last arrival minus at mid-trace.
    pub backlog_growth: i64,
    /// p99 within the limit and no growing backlog.
    pub pass: bool,
}

/// Query arrivals of the trace prefix each ladder rung replays.
pub const LADDER_ARRIVALS: usize = 8000;

/// Play the first [`LADDER_ARRIVALS`] of the trace at every ladder rate
/// on one memoised engine; the highest rate below the first failing
/// rung is `max_rate_qps`.
fn ladder<E: StreamEngine>(engine: &mut E, spec: &StreamSpec, w: &Workload) -> (Vec<Rung>, f64) {
    let mut memo = Memo::new(engine);
    let cfg = SchedConfig::default();
    let base = prefix(w, LADDER_ARRIVALS);
    let mut rungs = Vec::new();
    let mut max_rate = 0.0;
    let mut failed = false;
    for &rate in spec.ladder_qps {
        let scaled = rescale(&base, spec.rate_qps, rate);
        let out = run_stream(&mut memo, &scaled, &cfg).expect("ladder run");
        let lat: Vec<f64> = out.completions.iter().map(|c| c.latency_ns() / 1e6).collect();
        let p99_ms = percentile_of(&lat, 99.0);
        let (mid, end) = stream_backlog(&out, &scaled);
        let pass = p99_ms <= spec.limit_ms && !growing(mid, end, scaled.len());
        failed |= !pass;
        if !failed {
            max_rate = rate;
        }
        rungs.push(Rung { rate_qps: rate, p99_ms, backlog_growth: end - mid, pass });
    }
    (rungs, max_rate)
}

/// Median nominal-speed host seconds over the repetitions (every
/// repetition does identical work; the outcomes are checked equal).
fn rep_median(reps: &[Rep]) -> f64 {
    median(&reps.iter().map(|r| r.host_s).collect::<Vec<_>>())
}

fn rep_line(reps: &[Rep]) -> String {
    let secs = |f: fn(&Rep) -> f64| {
        reps.iter().map(|r| format!("{:.3}", f(r))).collect::<Vec<_>>().join(" ")
    };
    format!(
        "measured {} repetitions; host s at nominal speed: {}; wall s: {}",
        reps.len(),
        secs(|r| r.host_s),
        secs(|r| r.raw_s)
    )
}

/// Host time and layer statistics of one measured repetition.
struct Rep {
    /// Host seconds at nominal machine speed ([`crate::clock`]).
    host_s: f64,
    /// Wall seconds, probes excluded.
    raw_s: f64,
    stats: LayerStats,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated per-execution figures summed over arrivals.
#[derive(Default)]
struct SimTotals {
    ops: usize,
    energy_pj: f64,
    phase_ns: [f64; PhaseKind::ALL.len()],
    peak_power_w: f64,
    pages_scanned: usize,
    pages_total: usize,
    shards_pruned: usize,
    shards_active: usize,
    merge_ns: f64,
    host_bytes: u64,
}

impl SimTotals {
    fn add(&mut self, e: &ClusterExecution) {
        let r = &e.report;
        self.ops += 1;
        self.energy_pj += r.energy_pj;
        for s in &r.per_shard {
            for (i, k) in PhaseKind::ALL.iter().enumerate() {
                self.phase_ns[i] += s.phases.time_in(*k);
            }
            self.host_bytes += s.phases.host_bytes();
        }
        self.peak_power_w = self.peak_power_w.max(r.peak_chip_power_w);
        self.pages_scanned += r.pages_scanned;
        self.pages_total += r.pages_total;
        self.shards_pruned += r.shards_pruned;
        self.shards_active += r.active_shards;
        self.merge_ns += r.merge_time_ns;
    }

    fn phase(&self, k: PhaseKind) -> f64 {
        let i = PhaseKind::ALL.iter().position(|&x| x == k).expect("a phase kind");
        ratio(self.phase_ns[i], self.ops as f64)
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        m.layer("sim.pim_logic_ns", self.phase(PhaseKind::PimLogic));
        m.layer("sim.agg_circuit_ns", self.phase(PhaseKind::PimAggCircuit));
        m.layer("sim.host_read_ns", self.phase(PhaseKind::HostRead));
        m.layer("sim.host_write_ns", self.phase(PhaseKind::HostWrite));
        m.layer("sim.dispatch_ns", self.phase(PhaseKind::HostDispatch));
        m.layer("sim.pack_ns", self.phase(PhaseKind::PimPack));
        m.layer("sim.unpack_ns", self.phase(PhaseKind::PimUnpack));
        m.layer("sim.peak_chip_power_w", self.peak_power_w);
        m.layer(
            "core.pages_scanned_frac",
            ratio(self.pages_scanned as f64, self.pages_total as f64),
        );
        m.layer(
            "cluster.shards_pruned_frac",
            ratio(self.shards_pruned as f64, self.shards_active as f64),
        );
        m.layer("cluster.merge_ns_per_query", ratio(self.merge_ns, self.ops as f64));
        m.layer("cluster.host_bytes_per_query", ratio(self.host_bytes as f64, self.ops as f64));
    }
}

/// Lifetime figures (the paper's Fig. 9 model applied to a workload).
///
/// `required_endurance_max` is the per-cell endurance the hottest lane
/// needs to sustain this trace back-to-back for ten years: its
/// accumulated worst-row cell writes, spread over the row's cells, times
/// the trace repetitions ten years hold. It moves with how evenly the
/// workload's writes land on lanes. `sim.query_endurance_max` is the
/// per-query figure (the worst single operation back-to-back).
fn wear_metrics(
    m: &mut Metrics,
    lane_writes: &[u64],
    query_endurance: &[f64],
    executions: &[ClusterExecution],
    makespan_ns: f64,
) {
    let hottest = lane_writes.iter().copied().max().unwrap_or(0);
    let row_cells = executions
        .iter()
        .flat_map(|e| e.report.per_shard.iter())
        .map(|r| r.row_cells)
        .max()
        .unwrap_or(0);
    let replays = ENDURANCE_YEARS * SECONDS_PER_YEAR * 1e9 / makespan_ns;
    let endurance = ratio(hottest as f64, row_cells as f64) * replays;
    m.e2e("required_endurance_max", endurance, lane_writes.len());
    m.layer("sim.cell_writes_max", hottest as f64);
    m.layer("sim.query_endurance_max", query_endurance.iter().copied().fold(0.0, f64::max));
}

fn layer_stats_metrics(m: &mut Metrics, stats: &LayerStats, host_s: f64) {
    let r = &stats.run_on_shard;
    m.layer("core.shard_calls", r.calls as f64);
    m.layer("core.shard_call_host_ms_mean", r.mean_ms());
    m.layer("core.shard_call_host_ms_p99", r.p99_ms());
    m.layer("core.host_share", ratio(r.total_s(), host_s));
    m.layer("cluster.plan_calls", stats.plan_shards.calls as f64);
    m.layer("cluster.plan_host_us", stats.plan_shards.mean_ms() * 1e3);
    m.layer("sched.apply_mutation_host_ms", stats.apply_mutation.total_s() * 1e3);
}

fn setup_metrics(m: &mut Metrics, t: &SetupTimes) {
    m.e2e("setup_s", t.setup_s, t.repeats);
    m.layer("db.generate_s", t.generate_s);
    m.layer("db.prejoin_s", t.prejoin_s);
    m.layer("core.load_s", t.load_s);
    m.layer("core.calibrate_s", t.calibrate_s);
}

/// Run the measured phase: fresh engine per repetition (untimed), one
/// timed `run`, until `seconds` of host time are measured and at least
/// [`MIN_REPS`] repetitions ran. Returns the first outcome and whether
/// every later one matched it.
fn measure<E, O: PartialEq>(
    seconds: f64,
    make: impl Fn() -> E,
    run: impl Fn(&mut Timed<E>) -> O,
) -> (O, Vec<Rep>, bool)
where
    E: StreamEngine,
{
    let mut first: Option<O> = None;
    let mut reps = Vec::new();
    let mut identical = true;
    let mut measured = 0.0;
    while reps.len() < MIN_REPS || measured < seconds {
        let mut engine = Timed::metered(make());
        let (out, wall_s) = crate::clock::time(|| run(&mut engine));
        let mut meter = engine.meter();
        let raw_s = wall_s - meter.probe_total_s();
        meter.probe(); // the speed at the end, outside the timed window
        measured += wall_s;
        reps.push(Rep { host_s: raw_s / meter.slowdown(), raw_s, stats: engine.stats() });
        match &first {
            None => first = Some(out),
            Some(f) => identical &= *f == out,
        }
    }
    (first.expect("at least one repetition"), reps, identical)
}

/// Run one stream workload.
pub fn run_stream_workload(spec: &StreamSpec, args: &RunArgs) -> RunReport {
    let spans = args.trace.then(|| Rc::new(RefCell::new(SpanLog::default())));
    let (data, times) = setup(spec.sf, spec.skewed, spec.storage, &spans);
    let (workload, distinct) = stream_workload(spec, &data, args.seed);
    match spec.storage {
        Storage::Star => stream_body(spec, args, &data, &times, &workload, distinct, spans, || {
            star_cluster(&data)
        }),
        Storage::Wide => stream_body(spec, args, &data, &times, &workload, distinct, spans, || {
            wide_cluster(&data)
        }),
    }
}

#[allow(clippy::too_many_arguments)]
fn stream_body<E: StreamEngine>(
    spec: &StreamSpec,
    args: &RunArgs,
    data: &Data,
    times: &SetupTimes,
    w: &Workload,
    distinct: Option<f64>,
    spans: Option<Rc<RefCell<SpanLog>>>,
    make: impl Fn() -> E,
) -> RunReport {
    let cfg = SchedConfig::default();
    let (result, reps, identical) =
        measure(args.seconds, &make, |e| run_stream(e, w, &cfg).map_err(|err| err.to_string()));
    let mut m = Metrics::default();
    let mut acc = Accounting::new(w.len() + w.mutation_arrivals().len());
    if !identical {
        acc.note_failure("repetitions of one seed produced different outcomes");
    }
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            acc.fail_all(&format!("run_stream failed: {e}"));
            return RunReport::failed(spec.name, acc);
        }
    };
    // Correctness, outside the timed phase.
    if w.has_mutations() {
        check::prefix_replay(&data.wide, w, &out, &mut acc);
    } else {
        check::reads(&data.wide, w, &out.executions, &mut acc);
    }
    acc.missing(
        w.len() - out.completions.len(),
        w.mutation_arrivals().len() - out.mutation_completions.len(),
    );

    let mut totals = SimTotals::default();
    out.executions.iter().for_each(|e| totals.add(e));
    let stats0 = &reps[0].stats;
    let mut lat_ms: Vec<f64> = out.completions.iter().map(|c| c.latency_ns() / 1e6).collect();
    lat_ms.sort_by(f64::total_cmp);
    let ops = out.completions.len() + out.mutation_completions.len();
    let makespan_s = out.makespan_ns / 1e9;
    // A wrong answer misses every limit: goodput counts correct, in-time ops.
    let in_limit =
        (out.completions.iter().filter(|c| c.latency_ns() / 1e6 <= spec.limit_ms).count()
            + out
                .mutation_completions
                .iter()
                .filter(|c| c.latency_ns() / 1e6 <= spec.limit_ms)
                .count())
        .saturating_sub(acc.failed as usize);
    let energy_pj = totals.energy_pj + stats0.mutation_energy_pj;
    let host_qps = ops as f64 / rep_median(&reps);
    let mut_lat: Vec<f64> = out.mutation_completions.iter().map(|c| c.latency_ns() / 1e6).collect();

    m.e2e("query_p50_ms", bbpim_sched::report::percentile(&lat_ms, 50.0), lat_ms.len());
    m.e2e("query_p99_ms", bbpim_sched::report::percentile(&lat_ms, 99.0), lat_ms.len());
    m.e2e("goodput_qps", ratio(in_limit as f64, makespan_s), ops);
    m.e2e("energy_uj_per_op", ratio(energy_pj / 1e6, ops as f64), ops);
    wear_metrics(
        &mut m,
        &out.shard_cell_writes,
        &out.shard_required_endurance,
        &out.executions,
        out.makespan_ns,
    );
    m.e2e("host_qps", host_qps, reps.len());
    setup_metrics(&mut m, times);

    // Workload-specific user metrics (tracked, no bound).
    let (rungs, max_rate) = if spec.ladder_qps.is_empty() {
        (Vec::new(), 0.0)
    } else {
        let mut engine = make();
        ladder(&mut engine, spec, w)
    };
    m.layer("max_rate_qps", max_rate);
    m.layer("mutation_p99_ms", percentile_of(&mut_lat, 99.0));
    m.layer("slo_miss_frac", ratio((acc.attempted - in_limit as u64) as f64, acc.attempted as f64));

    // Per-layer figures of the scheduler outcome.
    let waits: f64 = out.completions.iter().map(|c| c.wait_ns()).sum();
    let lats: f64 = out.completions.iter().map(|c| c.latency_ns()).sum();
    let (mid, end) = stream_backlog(&out, w);
    let resolutions = stats0.merge_executions.calls as f64;
    m.layer("sched.resolutions", resolutions);
    m.layer("sched.resolve_hit_frac", 1.0 - ratio(resolutions, out.completions.len() as f64));
    m.layer("sched.wait_share", ratio(waits, lats));
    m.layer("sched.host_bus_utilisation", out.host_utilisation());
    m.layer("sched.host_bus_demand", out.host_demand());
    m.layer("sched.shard_utilisation_mean", out.mean_shard_utilisation());
    m.layer("sched.backlog_end", end as f64);
    m.layer("sched.ingest_stall_ms", out.ingest_stall_ns / 1e6);
    totals.layer_metrics(&mut m);

    let mut report = RunReport::new(spec.name, m, acc);
    report.note(format!(
        "trace: {} query + {} mutation arrivals at {} ops/s offered (simulated), open loop, generator lateness 0 ms",
        w.len(),
        w.mutation_arrivals().len(),
        spec.rate_qps
    ));
    if let Some(f) = distinct {
        report.metrics.layer("check.distinct_query_frac", f);
        report.note(format!(
            "ad-hoc distinct-query fraction {f:.4} ({} distinct)",
            w.queries().len()
        ));
    }
    report.note(format!("backlog (in system) mid-trace {mid}, last arrival {end}"));
    let q = |p: f64| bbpim_sched::report::percentile(&lat_ms, p);
    report.note(format!(
        "query latency from scheduled arrival, ms: p10 {:.4} p25 {:.4} p50 {:.4} p75 {:.4} p90 {:.4} p99 {:.4} max {:.4} (n={}, {} beyond p99)",
        q(10.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(90.0),
        q(99.0),
        q(100.0),
        lat_ms.len(),
        lat_ms.iter().filter(|&&x| x > q(99.0)).count()
    ));
    for r in &rungs {
        report.note(format!(
            "ladder {:>6.0} q/s: p99 {:>8.3} ms (limit {} ms), backlog growth {:>4} -> {}",
            r.rate_qps,
            r.p99_ms,
            spec.limit_ms,
            r.backlog_growth,
            if r.pass { "pass" } else { "FAIL" }
        ));
    }
    report.note(rep_line(&reps));

    if let Some(spans) = spans {
        let short = prefix(w, SIM_TRACE_ARRIVALS);
        traced_rep(
            &mut report,
            args,
            "sched.run_stream",
            &make,
            &spans,
            &reps,
            |e| run_stream(e, w, &cfg).map_err(|err| err.to_string()),
            |e, sim| {
                run_stream_traced(e, &short, &cfg, sim).map(drop).map_err(|err| err.to_string())
            },
        );
    }
    report
}

/// Arrivals of the simulated-clock trace the traced run exports (a
/// prefix of the measured trace: module and bus tracks grow by ~50
/// events per arrival).
pub const SIM_TRACE_ARRIVALS: usize = 300;

/// The traced run's extra repetition: host-clock spans around the entry
/// point (`entry`) and around every call it makes into the engine, then
/// a short simulated-clock trace (`sim_run`); per-layer metrics from
/// both, and every span written out.
#[allow(clippy::too_many_arguments)]
fn traced_rep<E: StreamEngine, O>(
    report: &mut RunReport,
    args: &RunArgs,
    entry: &'static str,
    make: impl Fn() -> E,
    spans: &Rc<RefCell<SpanLog>>,
    reps: &[Rep],
    run: impl FnOnce(&mut Timed<E>) -> Result<O, String>,
    sim_run: impl FnOnce(&mut E, &mut TraceRecorder) -> Result<(), String>,
) {
    let mut engine = Timed::new(make(), Some(spans.clone()));
    let id = spans.borrow_mut().open(entry, None);
    let (out, host_s) = crate::clock::time(|| run(&mut engine));
    spans.borrow_mut().close(id);
    if let Err(e) = out {
        report.accounting.note_failure(&format!("traced {entry} failed: {e}"));
    }
    let mut sim = TraceRecorder::enabled();
    if let Err(e) = sim_run(&mut make(), &mut sim) {
        report.accounting.note_failure(&format!("simulated-clock trace failed: {e}"));
    }
    let untraced = median(&reps.iter().map(|r| r.raw_s).collect::<Vec<_>>());
    let log = spans.borrow();
    let m = &mut report.metrics;
    layer_stats_metrics(m, &engine.stats(), host_s);
    let self_metric =
        if entry == "serve.run_serve" { "serve.self_host_ms" } else { "sched.self_host_ms" };
    m.layer(self_metric, log.self_s(entry) * 1e3);
    m.layer("trace.overhead_frac", host_s / untraced - 1.0);
    m.layer("trace.events", (log.spans().len() + sim.len()) as f64);
    export(report, args, &log, &sim);
}

/// The first `n` query arrivals of `w` and the mutations due by then.
fn prefix(w: &Workload, n: usize) -> Workload {
    let arrivals = w.arrivals()[..n.min(w.len())].to_vec();
    let until = arrivals.last().map_or(0.0, |a| a.at_ns);
    let muts = w.mutation_arrivals().iter().filter(|m| m.at_ns <= until).copied().collect();
    Workload::with_mutations(w.queries().to_vec(), arrivals, w.mutations().to_vec(), muts)
        .expect("a prefix of a valid trace")
}

fn export(report: &mut RunReport, args: &RunArgs, log: &SpanLog, sim: &TraceRecorder) {
    let base = args.out_dir.join(format!("{}-seed{}", report.workload, args.seed));
    let host = base.with_extension("host.json");
    let simp = base.with_extension("sim.json");
    let res = log
        .export(&host)
        .and_then(|()| std::fs::write(&simp, bbpim_trace::export::perfetto_json(sim)));
    match res {
        Ok(()) => report.note(format!(
            "spans: {} host spans -> {} (+ .jsonl); simulated tracks -> {}",
            log.spans().len(),
            host.display(),
            simp.display()
        )),
        Err(e) => report.accounting.note_failure(&format!("span export failed: {e}")),
    }
}

/// The three-tenant mix of `serve-tenants`: absolute rates, promises
/// and deadlines.
pub fn serve_tenants(spec: &ServeSpec, qs: &[Query]) -> Vec<TenantSpec> {
    let pick = |idx: &[usize]| idx.iter().map(|&i| qs[i].clone()).collect::<Vec<_>>();
    vec![
        TenantSpec {
            name: "light".into(),
            queries: pick(&[2, 9, 11]),
            process: ArrivalProcess::OpenPoisson {
                arrivals: spec.light.0,
                mean_interarrival_ns: spec.light.1,
            },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 2e6, deadline_ns: None },
            weight: 2.0,
        },
        TenantSpec {
            name: "heavy".into(),
            queries: pick(&[0, 1, 6]),
            process: ArrivalProcess::OpenPoisson {
                arrivals: spec.heavy.0,
                mean_interarrival_ns: spec.heavy.1,
            },
            writes: None,
            rate_limit: Some(RateLimit { rate_per_s: spec.heavy.2, burst: 8.0 }),
            slo: SloSpec { p95_target_ns: 7.5e6, deadline_ns: Some(4.5e6) },
            weight: 1.0,
        },
        TenantSpec {
            name: "batch".into(),
            queries: pick(&[4, 8]),
            process: ArrivalProcess::Closed {
                clients: spec.batch.0,
                queries_per_client: spec.batch.1,
                mean_think_ns: spec.batch.2,
            },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 6.4e6, deadline_ns: None },
            weight: 1.0,
        },
    ]
}

/// `tenants` with every open-loop stream cut to at most `n` arrivals
/// and every closed-loop client to at most `n / 100` requests.
fn shrink(tenants: &[TenantSpec], n: usize) -> Vec<TenantSpec> {
    tenants
        .iter()
        .map(|t| {
            let mut t = t.clone();
            t.process = match t.process {
                ArrivalProcess::OpenPoisson { arrivals, mean_interarrival_ns } => {
                    ArrivalProcess::OpenPoisson { arrivals: arrivals.min(n), mean_interarrival_ns }
                }
                ArrivalProcess::Closed { clients, queries_per_client, mean_think_ns } => {
                    ArrivalProcess::Closed {
                        clients,
                        queries_per_client: queries_per_client.min((n / 100).max(1)),
                        mean_think_ns,
                    }
                }
                other => other,
            };
            t
        })
        .collect()
}

/// The AIMD serving configuration of `serve-tenants`.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        window: WindowPolicy::Aimd(AimdConfig {
            initial_window: 4,
            min_window: 1,
            max_window: 32,
            sample_window: 8,
            ..Default::default()
        }),
    }
}

/// Run the serve workload.
pub fn run_serve_workload(spec: &ServeSpec, args: &RunArgs) -> RunReport {
    let spans = args.trace.then(|| Rc::new(RefCell::new(SpanLog::default())));
    let (data, times) = setup(spec.sf, true, Storage::Wide, &spans);
    let qs = queries::adjusted_queries(&data.wide).expect("query adjustment");
    let tenants = serve_tenants(spec, &qs);
    let cfg = serve_config(args.seed);
    let make = || wide_cluster(&data);
    let (result, reps, identical) = measure(args.seconds, make, |e| {
        run_serve(e, &tenants, &cfg).map_err(|err| err.to_string())
    });
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            let mut acc = Accounting::new(1);
            acc.fail_all(&format!("run_serve failed: {e}"));
            return RunReport::failed(spec.name, acc);
        }
    };
    let attempted: usize = out.submitted.iter().sum();
    let mut acc = Accounting::new(attempted);
    if !identical {
        acc.note_failure("repetitions of one seed produced different outcomes");
    }
    check::served(&data.wide, &tenants, &out, &mut acc);

    let mut m = Metrics::default();
    let mut totals = SimTotals::default();
    out.executions.iter().for_each(|e| totals.add(e));
    let mut lat_ms: Vec<f64> = out.completions.iter().map(|c| c.latency_ns() / 1e6).collect();
    lat_ms.sort_by(f64::total_cmp);
    let met = |c: &bbpim_serve::ServeCompletion| {
        c.met_deadline() && c.latency_ns() <= tenants[c.tenant].slo.p95_target_ns
    };
    let good =
        out.completions.iter().filter(|c| met(c)).count().saturating_sub(acc.failed as usize);
    let makespan_s = out.makespan_ns / 1e9;
    let ops = out.completions.len();
    // Host speed counts every request the loop handled, shed ones too.
    let host_qps = attempted as f64 / rep_median(&reps);
    m.e2e("query_p50_ms", bbpim_sched::report::percentile(&lat_ms, 50.0), lat_ms.len());
    m.e2e("query_p99_ms", bbpim_sched::report::percentile(&lat_ms, 99.0), lat_ms.len());
    m.e2e("goodput_qps", ratio(good as f64, makespan_s), ops);
    m.e2e("energy_uj_per_op", ratio(totals.energy_pj / 1e6, ops as f64), ops);
    wear_metrics(
        &mut m,
        &out.lane_cell_writes,
        &out.lane_required_endurance,
        &out.executions,
        out.makespan_ns,
    );
    m.e2e("host_qps", host_qps, reps.len());
    setup_metrics(&mut m, &times);

    let missed = attempted - good;
    m.layer("max_rate_qps", 0.0);
    m.layer("mutation_p99_ms", 0.0);
    m.layer("slo_miss_frac", ratio(missed as f64, attempted as f64));
    let (lo, hi) = out.window_bounds();
    for (t, spec_t) in tenants.iter().enumerate() {
        let drops = out.drops.iter().filter(|d| d.tenant == t).count();
        let name: &'static str = match spec_t.name.as_str() {
            "light" => "serve.drop_frac_light",
            "heavy" => "serve.drop_frac_heavy",
            _ => "serve.drop_frac_batch",
        };
        m.layer(name, ratio(drops as f64, out.submitted[t] as f64));
    }
    let light: Vec<f64> =
        out.completions.iter().filter(|c| c.tenant == 0).map(|c| c.latency_ns() / 1e6).collect();
    m.layer("serve.throttled", out.throttled.iter().sum::<usize>() as f64);
    m.layer("serve.window_final", out.final_window() as f64);
    m.layer("serve.window_min", lo as f64);
    m.layer("serve.window_max", hi as f64);
    m.layer("serve.decisions", out.decisions.len() as f64);
    m.layer("serve.light_p95_ms", percentile_of(&light, 95.0));
    let waits: f64 = out.completions.iter().map(|c| c.wait_ns()).sum();
    let lats: f64 = out.completions.iter().map(|c| c.latency_ns()).sum();
    m.layer("sched.resolutions", reps[0].stats.merge_executions.calls as f64);
    m.layer(
        "sched.resolve_hit_frac",
        1.0 - ratio(reps[0].stats.merge_executions.calls as f64, ops as f64),
    );
    m.layer("sched.wait_share", ratio(waits, lats));
    m.layer("sched.host_bus_utilisation", out.host_utilisation());
    m.layer("sched.host_bus_demand", out.host_demand());
    let shard_util = ratio(
        out.shard_busy_ns.iter().sum::<f64>() / out.shard_busy_ns.len().max(1) as f64,
        out.makespan_ns,
    );
    m.layer("sched.shard_utilisation_mean", shard_util.min(1.0));
    let (mid, end) = serve_backlog(&out);
    m.layer("sched.backlog_end", end as f64);
    m.layer("sched.ingest_stall_ms", 0.0);
    totals.layer_metrics(&mut m);

    let mut report = RunReport::new(spec.name, m, acc);
    report.note(format!(
        "tenants: light {} open-loop arrivals, heavy {} open-loop arrivals (token bucket {}/s), batch {}x{} closed-loop; AIMD window {}..{}",
        spec.light.0, spec.heavy.0, spec.heavy.2, spec.batch.0, spec.batch.1, lo, hi
    ));
    report.note(format!(
        "backlog (in system) mid-trace {mid}, last arrival {end}; generator lateness 0 ms"
    ));
    report.note(rep_line(&reps));

    if let Some(spans) = spans {
        let short = shrink(&tenants, SIM_TRACE_ARRIVALS);
        traced_rep(
            &mut report,
            args,
            "serve.run_serve",
            make,
            &spans,
            &reps,
            |e| run_serve(e, &tenants, &cfg).map_err(|err| err.to_string()),
            |e, sim| {
                run_serve_traced(e, &short, &cfg, sim).map(drop).map_err(|err| err.to_string())
            },
        );
    }
    report
}

fn serve_backlog(out: &ServeOutcome) -> (i64, i64) {
    let arrivals: Vec<f64> =
        out.timeline.iter().filter(|e| e.kind == ServeEventKind::Arrive).map(|e| e.t_ns).collect();
    if arrivals.is_empty() {
        return (0, 0);
    }
    let mut sorted = arrivals.clone();
    sorted.sort_by(f64::total_cmp);
    let steps = out
        .timeline
        .iter()
        .filter_map(|e| match e.kind {
            ServeEventKind::Arrive => Some((e.t_ns, 1)),
            ServeEventKind::Complete | ServeEventKind::Shed => Some((e.t_ns, -1)),
            _ => None,
        })
        .collect();
    backlog_mid_end(steps, sorted[sorted.len() / 2], sorted[sorted.len() - 1])
}

/// The peak resident set of this process, MiB.
pub fn rss_metric(m: &mut Metrics) {
    m.e2e("peak_rss_mb", peak_rss_mb(), 1);
}
