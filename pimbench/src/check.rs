//! Correctness accounting, done outside the timed phase.
//!
//! Read answers are checked against the row-at-a-time oracle
//! (`bbpim_db::stats::run_oracle`) over the pre-joined relation. A
//! streamed HTAP run is checked against a prefix-replay oracle: a host
//! copy of the relation with exactly the first `epoch` arrived
//! mutations applied, for every query that answered at that epoch; each
//! mutation's record counts are checked against the same replay. Every
//! error or wrong answer counts once against the attempted operations.

use std::collections::HashMap;

use bbpim_cluster::ClusterExecution;
use bbpim_db::relation::Relation;
use bbpim_db::stats::{run_oracle, MultiGrouped};
use bbpim_sched::{StreamOutcome, Workload};
use bbpim_serve::{ServeOutcome, TenantSpec};

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accounting {
    /// Operations attempted (query and mutation arrivals, or submitted
    /// serve requests).
    pub attempted: u64,
    /// Errors plus answers that differ from the oracle.
    pub failed: u64,
    /// What went wrong, one line each (first few only).
    pub problems: Vec<String>,
}

impl Accounting {
    /// A fresh account of `attempted` operations.
    pub fn new(attempted: usize) -> Self {
        Accounting { attempted: attempted as u64, ..Default::default() }
    }

    /// Count one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    /// A run-level failure (an error or a determinism break): counts one.
    pub fn note_failure(&mut self, why: &str) {
        self.fail(why.to_string());
    }

    /// Every attempted operation failed.
    pub fn fail_all(&mut self, why: &str) {
        self.failed = self.attempted.max(1);
        self.attempted = self.attempted.max(1);
        self.problems.push(why.to_string());
    }

    /// Arrivals that never completed count as failed.
    pub fn missing(&mut self, queries: usize, mutations: usize) {
        for _ in 0..queries + mutations {
            self.fail(format!("{queries} queries and {mutations} mutations never completed"));
        }
    }

    /// Failed over attempted.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

fn oracle(query: &bbpim_db::plan::Query, rel: &Relation) -> Result<MultiGrouped, String> {
    run_oracle(query, rel).map_err(|e| format!("oracle failed on {}: {e}", query.id))
}

/// Check the answer of every query arrival of a read-only trace.
pub fn reads(wide: &Relation, w: &Workload, executions: &[ClusterExecution], acc: &mut Accounting) {
    let mut cache: HashMap<usize, Result<MultiGrouped, String>> = HashMap::new();
    for (arrival, exec) in w.arrivals().iter().zip(executions) {
        let q = &w.queries()[arrival.query];
        let want = cache.entry(arrival.query).or_insert_with(|| oracle(q, wide));
        match want {
            Ok(groups) if *groups == exec.groups => {}
            Ok(_) => acc.fail(format!("{}: answer differs from the oracle", q.id)),
            Err(e) => acc.fail(e.clone()),
        }
    }
}

/// Check a mixed query/mutation stream against a prefix-replay oracle.
pub fn prefix_replay(wide: &Relation, w: &Workload, out: &StreamOutcome, acc: &mut Accounting) {
    let arrived = w.arrived_mutations();
    let mut replay = wide.clone();
    let mut counts = Vec::with_capacity(arrived.len());
    let mut by_epoch: Vec<_> = out.completions.iter().collect();
    by_epoch.sort_by_key(|c| (c.epoch, c.arrival));
    let mut applied = 0usize;
    let mut cache: HashMap<usize, Result<MultiGrouped, String>> = HashMap::new();
    for qc in by_epoch {
        while applied < qc.epoch.min(arrived.len()) {
            counts.push(arrived[applied].apply_to(&mut replay).map_err(|e| e.to_string()));
            applied += 1;
            cache.clear();
        }
        let qi = w.arrivals()[qc.arrival].query;
        let q = &w.queries()[qi];
        let want = cache.entry(qi).or_insert_with(|| oracle(q, &replay));
        match want {
            Ok(groups) if *groups == out.executions[qc.arrival].groups => {}
            Ok(_) => {
                acc.fail(format!("{} at epoch {}: answer differs from the replay", q.id, qc.epoch))
            }
            Err(e) => acc.fail(e.clone()),
        }
    }
    while applied < arrived.len() {
        counts.push(arrived[applied].apply_to(&mut replay).map_err(|e| e.to_string()));
        applied += 1;
    }
    for mc in &out.mutation_completions {
        match counts.get(mc.epoch.wrapping_sub(1)) {
            Some(Ok(c)) if c.updated == mc.records_updated && c.inserted == mc.records_inserted => {
            }
            Some(Ok(_)) => {
                acc.fail(format!("{} at epoch {}: record counts differ", mc.label, mc.epoch))
            }
            Some(Err(e)) => acc.fail(e.clone()),
            None => acc.fail(format!("{}: no epoch {}", mc.label, mc.epoch)),
        }
    }
}

/// Check every served answer against the oracle of its query.
pub fn served(wide: &Relation, tenants: &[TenantSpec], out: &ServeOutcome, acc: &mut Accounting) {
    let mut cache: HashMap<&str, Result<MultiGrouped, String>> = HashMap::new();
    for (c, exec) in out.completions.iter().zip(&out.executions) {
        let Some(q) = tenants[c.tenant].queries.iter().find(|q| q.id == c.query_id) else {
            acc.fail(format!("{}: not a query of tenant {}", c.query_id, c.tenant));
            continue;
        };
        let want = cache.entry(q.id.as_str()).or_insert_with(|| oracle(q, wide));
        match want {
            Ok(groups) if *groups == exec.groups => {}
            Ok(_) => acc.fail(format!("{}: served answer differs from the oracle", q.id)),
            Err(e) => acc.fail(e.clone()),
        }
    }
}
