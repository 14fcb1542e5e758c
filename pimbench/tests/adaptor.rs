//! The benchmark's engine adaptors forward every answer unchanged: a
//! wrapped run's `StreamOutcome` is bit-identical to a bare one, on both
//! storage models, and a memoised rate ladder equals fresh engines.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use bbpim_sched::{run_stream, SchedConfig, StreamEngine};
use pimbench::adaptor::{Memo, Timed};
use pimbench::spans::SpanLog;
use pimbench::workloads::{rescale, star_cluster, wide_cluster};

#[test]
fn timed_run_is_bit_identical_on_the_star_model() {
    let data = common::data();
    let w = common::reads(&data, 60, 150_000.0, 5);
    let cfg = SchedConfig::default();
    let bare = run_stream(&mut star_cluster(&data), &w, &cfg).unwrap();
    let spans = Rc::new(RefCell::new(SpanLog::default()));
    let mut timed = Timed::new(star_cluster(&data), Some(spans.clone()));
    let root = spans.borrow_mut().open("sched.run_stream", None);
    let wrapped = run_stream(&mut timed, &w, &cfg).unwrap();
    spans.borrow_mut().close(root);
    assert_eq!(bare, wrapped);

    let stats = timed.stats();
    let dispatched: usize = bare.completions.iter().map(|c| c.shards_dispatched).sum();
    assert!(stats.run_on_shard.calls > 0 && stats.run_on_shard.calls as usize <= dispatched);
    assert_eq!(stats.merge_executions.calls, 13, "one resolution per distinct query");
    assert_eq!(stats.plan_shards.calls as usize, w.len() + 13, "arrival estimate + admission");
    assert_eq!(stats.apply_mutation.calls, 0);
    // every adaptor span hangs under the entry-point span
    let log = spans.borrow();
    assert!(log.spans().iter().skip(1).all(|s| s.parent == Some(root)));
    assert!(log.self_s("sched.run_stream") <= log.total_s("sched.run_stream"));
}

#[test]
fn timed_run_is_bit_identical_on_the_prejoined_model_with_ingest() {
    let data = common::data();
    let w = common::mixed(&data, 80, 5, 60_000.0, 9);
    let cfg = SchedConfig::default();
    let bare = run_stream(&mut wide_cluster(&data), &w, &cfg).unwrap();
    let mut timed = Timed::new(wide_cluster(&data), None);
    let wrapped = run_stream(&mut timed, &w, &cfg).unwrap();
    assert_eq!(bare, wrapped);

    let stats = timed.stats();
    assert_eq!(stats.apply_mutation.calls as usize, w.mutation_arrivals().len());
    assert!(stats.plan_mutation_lanes.calls >= stats.apply_mutation.calls);
    assert!(stats.mutation_energy_pj > 0.0);
    assert_eq!(stats.run_on_shard.host_ns.len() as u64, stats.run_on_shard.calls);
}

#[test]
fn memoised_ladder_equals_fresh_engines_at_every_rate() {
    let data = common::data();
    let w = common::reads(&data, 80, 300_000.0, 3);
    let cfg = SchedConfig::default();
    let mut engine = star_cluster(&data);
    let mut memo = Memo::new(&mut engine);
    for rate in [3_000.0, 20_000.0, 200_000.0] {
        let scaled = rescale(&w, 1e9 / 300_000.0, rate);
        let memoised = run_stream(&mut memo, &scaled, &cfg).unwrap();
        let fresh = run_stream(&mut star_cluster(&data), &scaled, &cfg).unwrap();
        assert_eq!(memoised, fresh, "rate {rate}");
    }
    let m = bbpim_core::mutation::Mutation::insert()
        .row(data.wide.row(0))
        .build(data.wide.schema())
        .unwrap();
    assert!(memo.apply_mutation(&m).is_err(), "the memo is read-only");
}
