//! Named metrics and the benchmark's output: human-readable lines, then
//! one JSON object as the last line of standard output.

use crate::check::Accounting;

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order.
pub const E2E: [(&str, &str); 8] = [
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("goodput_qps", "ops/s"),
    ("energy_uj_per_op", "uJ"),
    ("required_endurance_max", "writes"),
    ("host_qps", "ops/host-s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)` of the traced run, in
/// `BENCHMARK.json` order.
pub const LAYER: [(&str, &str); 53] = [
    ("db.generate_s", "s"),
    ("db.prejoin_s", "s"),
    ("core.load_s", "s"),
    ("core.calibrate_s", "s"),
    ("core.shard_calls", "count"),
    ("core.shard_call_host_ms_mean", "ms"),
    ("core.shard_call_host_ms_p99", "ms"),
    ("core.host_share", "fraction"),
    ("core.pages_scanned_frac", "fraction"),
    ("sim.pim_logic_ns", "ns"),
    ("sim.agg_circuit_ns", "ns"),
    ("sim.host_read_ns", "ns"),
    ("sim.host_write_ns", "ns"),
    ("sim.dispatch_ns", "ns"),
    ("sim.pack_ns", "ns"),
    ("sim.unpack_ns", "ns"),
    ("sim.peak_chip_power_w", "W"),
    ("sim.cell_writes_max", "count"),
    ("sim.query_endurance_max", "writes"),
    ("cluster.plan_calls", "count"),
    ("cluster.plan_host_us", "us"),
    ("cluster.shards_pruned_frac", "fraction"),
    ("cluster.merge_ns_per_query", "ns"),
    ("cluster.host_bytes_per_query", "bytes"),
    ("sched.self_host_ms", "ms"),
    ("sched.resolutions", "count"),
    ("sched.resolve_hit_frac", "fraction"),
    ("sched.wait_share", "fraction"),
    ("sched.host_bus_utilisation", "fraction"),
    ("sched.host_bus_demand", "ratio"),
    ("sched.shard_utilisation_mean", "fraction"),
    ("sched.backlog_end", "count"),
    ("sched.ingest_stall_ms", "ms"),
    ("sched.apply_mutation_host_ms", "ms"),
    ("serve.self_host_ms", "ms"),
    ("serve.drop_frac_light", "fraction"),
    ("serve.drop_frac_heavy", "fraction"),
    ("serve.drop_frac_batch", "fraction"),
    ("serve.throttled", "count"),
    ("serve.window_final", "count"),
    ("serve.window_min", "count"),
    ("serve.window_max", "count"),
    ("serve.decisions", "count"),
    ("serve.light_p95_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.events", "count"),
    ("max_rate_qps", "queries/s"),
    ("slo_miss_frac", "fraction"),
    ("mutation_p99_ms", "ms"),
    ("failed_frac", "fraction"),
    ("check.attempted", "count"),
    ("check.failed", "count"),
    ("check.distinct_query_frac", "fraction"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (0 where not a sample statistic).
    pub samples: usize,
}

/// The metrics of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics.
    pub layer: Vec<Metric>,
}

fn set(list: &mut Vec<Metric>, m: Metric) {
    match list.iter_mut().find(|x| x.name == m.name) {
        Some(x) => *x = m,
        None => list.push(m),
    }
}

impl Metrics {
    /// Set end-to-end metric `name` from `samples` samples.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        set(&mut self.e2e, Metric { name, value, unit: unit(&E2E, name), samples });
    }

    /// Set per-layer metric `name`.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        set(&mut self.layer, Metric { name, value, unit: unit(&LAYER, name), samples: 0 });
    }

    fn get(&self, traced: bool, name: &str) -> Option<&Metric> {
        let list = if traced { &self.layer } else { &self.e2e };
        list.iter().find(|m| m.name == name)
    }
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Attempted/failed operations.
    pub accounting: Accounting,
    /// Context lines printed before the metrics.
    pub notes: Vec<String>,
}

impl RunReport {
    /// A report over `metrics`.
    pub fn new(workload: &'static str, metrics: Metrics, accounting: Accounting) -> Self {
        RunReport { workload, metrics, accounting, notes: Vec::new() }
    }

    /// A run that produced no outcome.
    pub fn failed(workload: &'static str, accounting: Accounting) -> Self {
        RunReport::new(workload, Metrics::default(), accounting)
    }

    /// Add a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Did every check pass?
    pub fn correct(&self) -> bool {
        self.accounting.failed == 0 && !self.metrics.e2e.is_empty()
    }

    /// Record the correctness counters as metrics.
    pub fn finish(&mut self) {
        let a = self.accounting.clone();
        self.metrics.layer("failed_frac", a.failed_frac());
        self.metrics.layer("check.attempted", a.attempted as f64);
        self.metrics.layer("check.failed", a.failed as f64);
    }

    /// The human-readable lines.
    pub fn lines(&self, traced: bool) -> Vec<String> {
        let mut out = vec![format!("workload {}", self.workload)];
        out.extend(self.notes.iter().map(|n| format!("  {n}")));
        let a = &self.accounting;
        out.push(format!(
            "  correctness: {} attempted, {} failed (failed_frac {})",
            a.attempted,
            a.failed,
            a.failed_frac()
        ));
        out.extend(a.problems.iter().map(|p| format!("  FAILED: {p}")));
        let row = |m: &Metric| {
            let n = if m.samples > 0 { format!("  (n={})", m.samples) } else { String::new() };
            format!("  {:<30} {:>18.6} {}{}", m.name, m.value, m.unit, n)
        };
        out.push("  end-to-end:".into());
        out.extend(self.metrics.e2e.iter().map(row));
        if traced || !self.metrics.layer.is_empty() {
            out.push(format!("  per-layer{}:", if traced { "" } else { " (untraced run)" }));
            out.extend(self.metrics.layer.iter().map(row));
        }
        out
    }

    /// The result object: the end-to-end metrics, or with `traced` the
    /// per-layer ones (a layer a workload does not exercise reads 0).
    pub fn json(&self, traced: bool) -> String {
        let table: &[(&str, &str)] = if traced { &LAYER } else { &E2E };
        let body: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(traced, name).map_or(0.0, |m| m.value);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.accounting.attempted.max(1),
            self.accounting.failed,
            body.join(", ")
        )
    }
}

/// The unit `table` lists for `name`.
///
/// # Panics
///
/// A name the table does not list (a benchmark bug).
fn unit(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unlisted metric {name}"))
}
