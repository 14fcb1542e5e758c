//! Correctness accounting: clean runs count no failures, and one
//! corrupted answer counts exactly one failed operation.

mod common;

use bbpim_db::ssb::queries;
use bbpim_sched::{run_stream, SchedConfig};
use bbpim_serve::run_serve;
use pimbench::check::{self, Accounting};
use pimbench::workloads::{serve_config, serve_tenants, wide_cluster, SERVE_TENANTS};

#[test]
fn one_corrupted_read_answer_counts_as_one_failure() {
    let data = common::data();
    let w = common::reads(&data, 40, 100_000.0, 2);
    let mut out = run_stream(&mut wide_cluster(&data), &w, &SchedConfig::default()).unwrap();
    let mut clean = Accounting::new(w.len());
    check::reads(&data.wide, &w, &out.executions, &mut clean);
    assert_eq!(clean.failed, 0, "{:?}", clean.problems);

    let victim = &mut out.executions[7].groups;
    match victim.values_mut().next() {
        Some(v) => v[0] ^= 1,
        None => {
            victim.insert(vec![u64::MAX], vec![1]);
        }
    }
    let mut acc = Accounting::new(w.len());
    check::reads(&data.wide, &w, &out.executions, &mut acc);
    assert_eq!(acc.failed, 1);
    assert_eq!(acc.failed_frac(), 1.0 / w.len() as f64);
}

#[test]
fn prefix_replay_accepts_a_mixed_stream_and_flags_a_corruption() {
    let data = common::data();
    let w = common::mixed(&data, 60, 4, 50_000.0, 11);
    let mut out = run_stream(&mut wide_cluster(&data), &w, &SchedConfig::default()).unwrap();
    let attempted = w.len() + w.mutation_arrivals().len();
    let mut clean = Accounting::new(attempted);
    check::prefix_replay(&data.wide, &w, &out, &mut clean);
    assert_eq!(clean.failed, 0, "{:?}", clean.problems);

    // a post-ingest answer that lost a group is wrong
    let late = out.completions.iter().find(|c| c.epoch > 0).expect("a post-ingest query").arrival;
    let groups = &mut out.executions[late].groups;
    match groups.keys().next().cloned() {
        Some(k) => {
            groups.remove(&k);
        }
        None => {
            groups.insert(vec![u64::MAX], vec![1]);
        }
    }
    let mut acc = Accounting::new(attempted);
    check::prefix_replay(&data.wide, &w, &out, &mut acc);
    assert_eq!(acc.failed, 1, "{:?}", acc.problems);

    // so is a mutation that reports the wrong record count
    out.mutation_completions[0].records_updated += 1;
    let mut acc = Accounting::new(attempted);
    check::prefix_replay(&data.wide, &w, &out, &mut acc);
    assert_eq!(acc.failed, 2, "{:?}", acc.problems);
}

#[test]
fn served_answers_match_the_oracle() {
    let data = common::data();
    let qs = queries::adjusted_queries(&data.wide).unwrap();
    let mut spec = SERVE_TENANTS.clone();
    spec.light.0 = 40;
    spec.heavy.0 = 120;
    spec.batch.1 = 5;
    let tenants = serve_tenants(&spec, &qs);
    let out = run_serve(&mut wide_cluster(&data), &tenants, &serve_config(1)).unwrap();
    let mut acc = Accounting::new(out.submitted.iter().sum());
    check::served(&data.wide, &tenants, &out, &mut acc);
    assert_eq!(acc.failed, 0, "{:?}", acc.problems);
    assert!(!out.completions.is_empty());
}
