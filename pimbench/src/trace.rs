//! Seeded open-loop arrival traces.
//!
//! Arrival times are simulated-time stamps drawn up front, so the
//! generator is never late. Query picks are dealt from shuffled decks:
//! every window of `k` consecutive picks holds each of the `k` choices
//! once (as in the permuted query streams of TPC-style throughput
//! tests), which keeps the query mix of a trace exact and leaves order
//! and timing to the seed.

use bbpim_core::mutation::Mutation;
use bbpim_db::plan::Query;
use bbpim_sched::{Arrival, MutationArrival, Workload};
use rand::rngs::StdRng;
use rand::Rng;

/// `n` picks from `0..k`, dealt from consecutive shuffled decks.
pub fn deck(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut d: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            d.swap(i, rng.gen_range(0..=i));
        }
        out.extend(d.into_iter().take(n - out.len()));
    }
    out
}

/// `n` Poisson arrival times with mean gap `gap_ns`: exponential gaps,
/// rescaled so the last arrival lands at exactly `n · gap_ns`. The
/// offered rate is then the nominal one on every seed; only the gaps'
/// shape varies.
pub fn poisson_times(n: usize, gap_ns: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut t = 0.0f64;
    let raw: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln();
            t
        })
        .collect();
    let k = if t > 0.0 { n as f64 * gap_ns / t } else { 0.0 };
    raw.into_iter().map(|x| x * k).collect()
}

/// A read-only trace: `picks[i]` arrives at `times[i]`.
///
/// # Panics
///
/// Picks out of range or unsorted times (benchmark bugs).
pub fn reads(queries: Vec<Query>, times: &[f64], picks: &[usize]) -> Workload {
    let arrivals =
        times.iter().zip(picks).map(|(&at_ns, &query)| Arrival { at_ns, query }).collect();
    Workload::new(queries, arrivals).expect("a valid read trace")
}

/// A mixed trace of `n` arrivals in which one arrival in every
/// `mutation_every` (dealt, so exactly that share) is a mutation.
///
/// # Panics
///
/// Empty query or mutation sets.
pub fn mixed(
    queries: Vec<Query>,
    mutations: Vec<Mutation>,
    n: usize,
    mutation_every: usize,
    gap_ns: f64,
    rng: &mut StdRng,
) -> Workload {
    let times = poisson_times(n, gap_ns, rng);
    let kinds = deck(n, mutation_every, rng);
    let writes = kinds.iter().filter(|&&k| k == 0).count();
    let mut qpicks = deck(n - writes, queries.len(), rng).into_iter();
    let mut mpicks = deck(writes, mutations.len(), rng).into_iter();
    let (mut arrivals, mut mutation_arrivals) = (Vec::new(), Vec::new());
    for (&at_ns, &k) in times.iter().zip(&kinds) {
        if k == 0 {
            let mutation = mpicks.next().expect("one pick per write");
            mutation_arrivals.push(MutationArrival { at_ns, mutation });
        } else {
            arrivals.push(Arrival { at_ns, query: qpicks.next().expect("one pick per read") });
        }
    }
    Workload::with_mutations(queries, arrivals, mutations, mutation_arrivals)
        .expect("a valid mixed trace")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_deck_window_holds_each_choice_once() {
        let mut rng = StdRng::seed_from_u64(9);
        let picks = deck(13 * 20 + 5, 13, &mut rng);
        assert_eq!(picks.len(), 13 * 20 + 5);
        for w in picks.chunks(13).take(20) {
            let mut v = w.to_vec();
            v.sort_unstable();
            assert_eq!(v, (0..13).collect::<Vec<_>>());
        }
    }

    #[test]
    fn poisson_times_are_sorted_and_seeded() {
        let a = poisson_times(100, 1000.0, &mut StdRng::seed_from_u64(3));
        let b = poisson_times(100, 1000.0, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((a[99] - 100.0 * 1000.0).abs() < 1e-6, "the offered rate is exact");
    }
}
