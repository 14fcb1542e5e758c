//! The seeded ad-hoc query generator of the `ssb-adhoc` workload.
//!
//! Each arrival takes one of the SSB flight templates and redraws its
//! constants from the values the generated database actually holds:
//! years and year-months, customer/supplier regions, nations and cities
//! (decoded through the SSB dictionaries), part manufacturers,
//! categories and brand ranges, discount and quantity bands. Every
//! query goes through the validating `build(&schema)` path. Identical
//! draws share one query (so the scheduler's resolution cache sees
//! them as repeats); the distinct fraction is reported.

use std::collections::HashMap;

use bbpim_db::builder::col;
use bbpim_db::plan::{AggExpr, Const, Query, SelectItem};
use bbpim_db::relation::Relation;
use bbpim_db::DbError;
use rand::rngs::StdRng;
use rand::Rng;

/// The values one attribute takes in the data, decoded where it has a
/// dictionary.
#[derive(Debug, Clone)]
enum Domain {
    Num(Vec<u64>),
    Str(Vec<String>),
}

impl Domain {
    fn of(rel: &Relation, attr: &str) -> Result<Domain, DbError> {
        let codes = rel.column_by_name(attr)?.distinct_sorted();
        let a = rel.schema().attr(attr)?;
        Ok(match a.dictionary() {
            None => Domain::Num(codes),
            Some(d) => {
                Domain::Str(codes.iter().filter_map(|&c| d.decode(c).map(str::to_string)).collect())
            }
        })
    }

    fn num(&self, rng: &mut StdRng) -> u64 {
        match self {
            Domain::Num(v) => v[rng.gen_range(0..v.len())],
            Domain::Str(_) => unreachable!("numeric draw on a dictionary attribute"),
        }
    }

    fn str(&self, rng: &mut StdRng) -> Const {
        self.str_window(rng, 1).0
    }

    /// A sorted window of `width` present values: `(lo, hi)`.
    fn str_window(&self, rng: &mut StdRng, width: usize) -> (Const, Const) {
        match self {
            Domain::Str(v) => {
                let w = width.min(v.len()).max(1);
                let lo = rng.gen_range(0..=v.len() - w);
                (Const::Str(v[lo].clone()), Const::Str(v[lo + w - 1].clone()))
            }
            Domain::Num(_) => unreachable!("string draw on a numeric attribute"),
        }
    }
}

/// Value domains of the attributes the templates draw from.
pub struct AdhocGen {
    domains: HashMap<&'static str, Domain>,
}

const ATTRS: [&str; 14] = [
    "d_year",
    "d_yearmonthnum",
    "lo_discount",
    "lo_quantity",
    "c_region",
    "s_region",
    "c_nation",
    "s_nation",
    "c_city",
    "s_city",
    "p_mfgr",
    "p_category",
    "p_brand1",
    "d_weeknuminyear",
];

impl AdhocGen {
    /// Collect the domains from the pre-joined relation.
    ///
    /// # Errors
    ///
    /// A missing SSB attribute.
    pub fn new(wide: &Relation) -> Result<AdhocGen, DbError> {
        let mut domains = HashMap::new();
        for a in ATTRS {
            domains.insert(a, Domain::of(wide, a)?);
        }
        Ok(AdhocGen { domains })
    }

    fn d(&self, attr: &str) -> &Domain {
        &self.domains[attr]
    }

    /// Draw one query from template `t` (0..13, one per SSB query shape).
    ///
    /// # Errors
    ///
    /// Validation failures from `build(&schema)`.
    pub fn draw(&self, t: usize, rng: &mut StdRng, wide: &Relation) -> Result<Query, DbError> {
        let schema = wide.schema();
        let price_disc =
            || SelectItem::sum("value", AggExpr::mul("lo_extendedprice", "lo_discount"));
        let revenue = || SelectItem::sum("value", AggExpr::attr("lo_revenue"));
        let profit = || SelectItem::sum("value", AggExpr::sub("lo_revenue", "lo_supplycost"));
        let disc = |rng: &mut StdRng| {
            let lo = rng.gen_range(0u64..=8);
            col("lo_discount").between(lo, lo + 2)
        };
        let year = |rng: &mut StdRng| self.d("d_year").num(rng);
        let q = match t {
            0 => Query::select([price_disc()]).filter(
                col("d_year")
                    .eq(year(rng))
                    .and(disc(rng))
                    .and(col("lo_quantity").lt(rng.gen_range(20u64..=35))),
            ),
            1 => {
                let q = rng.gen_range(1u64..=40);
                Query::select([price_disc()]).filter(
                    col("d_yearmonthnum")
                        .eq(self.d("d_yearmonthnum").num(rng))
                        .and(disc(rng))
                        .and(col("lo_quantity").between(q, q + 9)),
                )
            }
            2 => {
                let q = rng.gen_range(1u64..=40);
                Query::select([price_disc()]).filter(
                    col("d_weeknuminyear")
                        .eq(self.d("d_weeknuminyear").num(rng))
                        .and(col("d_year").eq(year(rng)))
                        .and(disc(rng))
                        .and(col("lo_quantity").between(q, q + 9)),
                )
            }
            3 => Query::select([revenue()])
                .filter(
                    col("p_category")
                        .eq(self.d("p_category").str(rng))
                        .and(col("s_region").eq(self.d("s_region").str(rng))),
                )
                .group_by(["d_year", "p_brand1"]),
            4 => {
                let (lo, hi) = self.d("p_brand1").str_window(rng, 8);
                Query::select([revenue()])
                    .filter(
                        col("p_brand1")
                            .between(lo, hi)
                            .and(col("s_region").eq(self.d("s_region").str(rng))),
                    )
                    .group_by(["d_year", "p_brand1"])
            }
            5 => Query::select([revenue()])
                .filter(
                    col("p_brand1")
                        .eq(self.d("p_brand1").str(rng))
                        .and(col("s_region").eq(self.d("s_region").str(rng))),
                )
                .group_by(["d_year", "p_brand1"]),
            6 => {
                let (y0, y1) = self.year_range(rng);
                Query::select([revenue()])
                    .filter(
                        col("c_region")
                            .eq(self.d("c_region").str(rng))
                            .and(col("s_region").eq(self.d("s_region").str(rng)))
                            .and(col("d_year").between(y0, y1)),
                    )
                    .group_by(["c_nation", "s_nation", "d_year"])
            }
            7 => {
                let (y0, y1) = self.year_range(rng);
                Query::select([revenue()])
                    .filter(
                        col("c_nation")
                            .eq(self.d("c_nation").str(rng))
                            .and(col("s_nation").eq(self.d("s_nation").str(rng)))
                            .and(col("d_year").between(y0, y1)),
                    )
                    .group_by(["c_city", "s_city", "d_year"])
            }
            8 | 9 => {
                let cities =
                    |rng: &mut StdRng, attr: &str| [self.d(attr).str(rng), self.d(attr).str(rng)];
                let (c, s) = (cities(rng, "c_city"), cities(rng, "s_city"));
                let years = if t == 8 {
                    let (y0, y1) = self.year_range(rng);
                    col("d_year").between(y0, y1)
                } else {
                    col("d_year").eq(year(rng))
                };
                Query::select([revenue()])
                    .filter(col("c_city").is_in(c).and(col("s_city").is_in(s)).and(years))
                    .group_by(["c_city", "s_city", "d_year"])
            }
            10 => {
                let r = self.d("c_region").str(rng);
                Query::select([profit()])
                    .filter(
                        col("c_region")
                            .eq(r.clone())
                            .and(col("s_region").eq(r))
                            .and(col("p_mfgr").is_in(self.mfgr_pair(rng))),
                    )
                    .group_by(["d_year", "c_nation"])
            }
            11 => {
                let r = self.d("c_region").str(rng);
                let y = year(rng);
                Query::select([profit()])
                    .filter(
                        col("d_year")
                            .is_in([y, y + 1])
                            .and(col("c_region").eq(r.clone()))
                            .and(col("s_region").eq(r))
                            .and(col("p_mfgr").is_in(self.mfgr_pair(rng))),
                    )
                    .group_by(["d_year", "s_nation", "p_category"])
            }
            _ => {
                let y = year(rng);
                Query::select([profit()])
                    .filter(
                        col("d_year")
                            .is_in([y, y + 1])
                            .and(col("c_region").eq(self.d("c_region").str(rng)))
                            .and(col("s_nation").eq(self.d("s_nation").str(rng)))
                            .and(col("p_category").eq(self.d("p_category").str(rng))),
                    )
                    .group_by(["d_year", "s_city", "p_brand1"])
            }
        };
        q.id(format!("A{}.{t}", t + 1)).build(schema)
    }

    fn year_range(&self, rng: &mut StdRng) -> (u64, u64) {
        let a = self.d("d_year").num(rng);
        let b = self.d("d_year").num(rng);
        (a.min(b), a.max(b))
    }

    fn mfgr_pair(&self, rng: &mut StdRng) -> [Const; 2] {
        let (a, b) = self.d("p_mfgr").str_window(rng, 2);
        [a, b]
    }
}

/// An ad-hoc trace: distinct queries plus the query index of every
/// arrival, in arrival order.
pub struct AdhocTrace {
    /// Distinct queries, in first-draw order.
    pub queries: Vec<Query>,
    /// `queries` index of each arrival.
    pub picks: Vec<usize>,
}

impl AdhocTrace {
    /// Distinct queries over arrivals.
    pub fn distinct_frac(&self) -> f64 {
        crate::stats::ratio(self.queries.len() as f64, self.picks.len() as f64)
    }
}

/// Draw `n` ad-hoc arrivals from `rng`: templates dealt from shuffled
/// decks of all 13 ([`crate::trace::deck`]), constants drawn per arrival.
///
/// # Errors
///
/// Domain collection or query validation failures.
pub fn adhoc_trace(wide: &Relation, n: usize, rng: &mut StdRng) -> Result<AdhocTrace, DbError> {
    let gen = AdhocGen::new(wide)?;
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut queries = Vec::new();
    let mut picks = Vec::with_capacity(n);
    for t in crate::trace::deck(n, 13, rng) {
        let q = gen.draw(t, rng, wide)?;
        let key = format!("{}|{}|{:?}", q.id, q.filter, q.group_by);
        let next = queries.len();
        let i = *index.entry(key).or_insert(next);
        if i == next {
            // Unique ids keep per-query bookkeeping (join plans, spans)
            // apart for distinct constants.
            let mut q = q;
            q.id = format!("{}#{next}", q.id);
            queries.push(q);
        }
        picks.push(i);
    }
    Ok(AdhocTrace { queries, picks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build, Storage};
    use rand::SeedableRng;

    #[test]
    fn traces_are_seeded_mostly_distinct_and_cover_every_template() {
        let (data, _) = build(0.001, true, Storage::Star, &None);
        let draw = |seed| adhoc_trace(&data.wide, 260, &mut StdRng::seed_from_u64(seed)).unwrap();
        let (a, b) = (draw(4), draw(4));
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.picks, b.picks);
        assert_ne!(a.queries, draw(5).queries);
        assert!(a.distinct_frac() > 0.5, "distinct fraction {}", a.distinct_frac());
        for t in 1..=13 {
            let prefix = format!("A{t}.");
            assert!(a.queries.iter().any(|q| q.id.starts_with(&prefix)), "template {t} unused");
        }
        for q in &a.queries {
            q.validate(data.wide.schema()).unwrap();
        }
    }
}
