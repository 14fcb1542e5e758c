//! Shared fixtures: a tiny SSB instance and seeded traces over it.

use bbpim_db::ssb::queries;
use bbpim_sched::Workload;
use pimbench::trace;
use pimbench::workloads::{build, htap_mutations, Data, Storage};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SF 0.001 uniform data with a fitted GROUP-BY model.
pub fn data() -> Data {
    build(0.001, false, Storage::Wide, &None).0
}

/// `n` read arrivals over the 13 (instance-adjusted) SSB queries.
pub fn reads(data: &Data, n: usize, gap_ns: f64, seed: u64) -> Workload {
    let qs = queries::adjusted_queries(&data.wide).expect("query adjustment");
    let mut rng = StdRng::seed_from_u64(seed);
    let times = trace::poisson_times(n, gap_ns, &mut rng);
    let picks = trace::deck(n, qs.len(), &mut rng);
    trace::reads(qs, &times, &picks)
}

/// `n` arrivals, one in `every` a mutation from the HTAP set.
pub fn mixed(data: &Data, n: usize, every: usize, gap_ns: f64, seed: u64) -> Workload {
    let qs = queries::adjusted_queries(&data.wide).expect("query adjustment");
    let mut rng = StdRng::seed_from_u64(seed);
    trace::mixed(qs, htap_mutations(&data.wide), n, every, gap_ns, &mut rng)
}
