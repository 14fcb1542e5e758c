//! # pimbench — the end-to-end benchmark of the bbpim workspace
//!
//! Four open-loop workloads driven through the production entry points
//! (`bbpim_sched::run_stream`, `bbpim_serve::run_serve`) over the
//! normalized `StarCluster` and the pre-joined `ClusterEngine`:
//!
//! | workload | what does the work |
//! |---|---|
//! | `ssb-stream` | scheduler, host bus, semijoin path (13 SSB queries, star storage) |
//! | `ssb-adhoc` | core/sim resolution and zone-map pruning (redrawn constants) |
//! | `htap-ingest` | writes beside reads: ingest, epochs, wear |
//! | `serve-tenants` | admission, shedding, the AIMD window |
//!
//! *Simulated* metrics are what the modelled PIM system takes and repeat
//! exactly per seed; *host* metrics are what the simulator takes on the
//! machine that runs it. Every answer is checked against an oracle
//! outside the timed phase. Layers are measured only from outside, by
//! timing the calls the benchmark and the scheduler make into them
//! ([`adaptor::Timed`]).

pub mod adaptor;
pub mod adhoc;
pub mod check;
pub mod clock;
pub mod report;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::RunReport;
use workloads::{RunArgs, HTAP_INGEST, SERVE_TENANTS, SSB_ADHOC, SSB_STREAM};

/// Run workload `name`; `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs) -> Option<RunReport> {
    let mut report = match name {
        "ssb-stream" => workloads::run_stream_workload(&SSB_STREAM, args),
        "ssb-adhoc" => workloads::run_stream_workload(&SSB_ADHOC, args),
        "htap-ingest" => workloads::run_stream_workload(&HTAP_INGEST, args),
        "serve-tenants" => workloads::run_serve_workload(&SERVE_TENANTS, args),
        _ => return None,
    };
    workloads::rss_metric(&mut report.metrics);
    report.finish();
    Some(report)
}
