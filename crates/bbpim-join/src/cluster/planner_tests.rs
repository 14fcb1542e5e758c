//! Soundness of the star planner: the per-filter shard memo must
//! answer exactly what the uncached planner answers at every point of
//! a mutation stream, and the hull-only bounds must equal the ones the
//! full catalog bitmaps ([`StarCluster::host_join_plan`]) give.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;
use bbpim_db::plan::Const;
use bbpim_db::ssb::{queries, SsbParams};

/// Four fact shards ranged on the order date, so date hulls prune
/// shards unevenly and a stale mask shows up as a different mask.
fn cluster(db: &SsbDb) -> StarCluster {
    StarCluster::new(
        SimConfig::small_for_tests(),
        db,
        EngineMode::OneXb,
        4,
        Partitioner::RangeByAttr("lo_orderdate".into()),
    )
    .unwrap()
}

fn eq(attr: &str, value: u64) -> Atom {
    Atom::Eq { attr: attr.into(), value: Const::Num(value) }
}

/// Dimension `d`'s PIM-resident, non-key attributes (UPDATE targets).
fn hot_attrs(c: &StarCluster, d: usize) -> Vec<String> {
    c.dim(d)
        .relation()
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name.clone())
        .filter(|n| !n.ends_with("key") && !c.dim(d).layout().is_excluded(n))
        .collect()
}

/// One random atom on a random dimension attribute; constants come
/// from catalog rows (the last row a quarter of the time, so hulls
/// reach the end of the key space).
fn random_atom(c: &StarCluster, rng: &mut StdRng) -> Atom {
    let d = rng.gen_range(0..4usize);
    let rel = c.dim(d).relation();
    let attrs = rel.schema().attrs();
    let idx = rng.gen_range(0..attrs.len());
    let attr = attrs[idx].name.clone();
    let pick = |rng: &mut StdRng| {
        let row =
            if rng.gen_range(0..4u32) == 0 { rel.len() - 1 } else { rng.gen_range(0..rel.len()) };
        rel.value(row, idx)
    };
    let (a, b) = (pick(rng), pick(rng));
    let num = Const::Num;
    match rng.gen_range(0..5u32) {
        0 => Atom::Eq { attr, value: num(a) },
        1 => Atom::Between { attr, lo: num(a.min(b)), hi: num(a.max(b)) },
        2 => Atom::Lt { attr, value: num(a) },
        3 => Atom::Gt { attr, value: num(a) },
        _ => Atom::In { attr, values: vec![num(a), num(b)] },
    }
}

/// An OR of one to three conjunctions of one to three dimension atoms,
/// now and then AND-ed with a fact atom.
fn random_filter(c: &StarCluster, rng: &mut StdRng) -> Pred {
    let disjuncts = (0..rng.gen_range(1..=3usize))
        .map(|_| {
            let mut conj: Vec<Atom> =
                (0..rng.gen_range(1..=3usize)).map(|_| random_atom(c, rng)).collect();
            if rng.gen::<bool>() {
                conj.push(Atom::Lt { attr: "lo_discount".into(), value: Const::Num(5) });
            }
            Pred::all(conj)
        })
        .collect();
    Pred::Or(disjuncts)
}

/// Every filter: the memoised mask equals the uncached one on a miss
/// and on a hit, and the hull-only DNF equals the bitmap planner's.
fn assert_sound(c: &StarCluster, filters: &[Pred], step: &str) {
    for f in filters {
        let uncached = c.plan_shards_uncached(f);
        assert_eq!(c.plan_shards(f), uncached, "{step}: first call on {f}");
        assert_eq!(c.plan_shards(f), uncached, "{step}: memo hit on {f}");
        let hulls = c.hull_dnf(f, |d, _, da| c.host_dim_hull(d, da));
        let bitmaps = c.host_join_plan(f).map(|(dnf, _)| dnf);
        assert_eq!(hulls, bitmaps, "{step}: hull bounds of {f}");
    }
}

#[test]
fn memoised_plans_match_the_uncached_planner_through_a_mutation_stream() {
    let db = SsbDb::generate(&SsbParams::tiny_for_tests());
    let mut c = cluster(&db);
    let mut rng = StdRng::seed_from_u64(0x5eed);

    let mut filters: Vec<Pred> = queries::standard_queries()
        .into_iter()
        .chain(queries::combined_queries())
        .map(|q| q.filter)
        .collect();
    filters.extend((0..64).map(|_| random_filter(&c, &mut rng)));
    // each dimension's last catalog row, alone: the hull ends at the
    // key space's last key
    for d in 0..4 {
        let rel = c.dim(d).relation();
        let attr = &hot_attrs(&c, d)[0];
        let idx = rel.schema().index_of(attr).unwrap();
        filters.push(Pred::all(vec![eq(attr, rel.value(rel.len() - 1, idx))]));
    }

    // the stream: dimension UPDATEs that empty and widen selections,
    // fact UPDATEs that move zone maps, INSERTs that widen them
    let lo = &db.lineorder;
    let quantity = lo.schema().index_of("lo_quantity").unwrap();
    let max_quantity = (0..lo.len()).map(|r| lo.value(r, quantity)).max().unwrap();
    let mut stream = vec![
        Mutation::update()
            .filter(eq("d_year", 1994).into())
            .set("d_year", 1993u64)
            .build_unchecked(),
        Mutation::update()
            .filter(eq("lo_discount", 3).into())
            .set("lo_discount", 4u64)
            .build(lo.schema())
            .unwrap(),
        Mutation::insert().row(lo.row(0)).row(lo.row(lo.len() - 1)).build(lo.schema()).unwrap(),
        // rewrites every row its own filter (also in `filters`, and
        // planned through the memo for its lanes) selects
        Mutation::update()
            .filter(eq("lo_quantity", max_quantity).into())
            .set("lo_quantity", 1u64)
            .build(lo.schema())
            .unwrap(),
    ];
    for _ in 0..6 {
        let d = rng.gen_range(0..4usize);
        let rel = c.dim(d).relation();
        let hot = hot_attrs(&c, d);
        let attr = &hot[rng.gen_range(0..hot.len())];
        let idx = rel.schema().index_of(attr).unwrap();
        let from = rel.value(rng.gen_range(0..rel.len()), idx);
        let to = rel.value(rng.gen_range(0..rel.len()), idx);
        stream.push(
            Mutation::update()
                .filter(eq(attr, from).into())
                .set(attr.as_str(), to)
                .build_unchecked(),
        );
        let q = lo.value(rng.gen_range(0..lo.len()), quantity);
        stream.push(
            Mutation::update()
                .filter(eq("lo_quantity", q).into())
                .set("lo_discount", rng.gen_range(0..=10u64))
                .build(lo.schema())
                .unwrap(),
        );
        stream.push(
            Mutation::insert().row(lo.row(rng.gen_range(0..lo.len()))).build(lo.schema()).unwrap(),
        );
    }
    // the mutations' own filters are planned too: a fact UPDATE plans
    // its lanes through the memo before it lands
    for m in &stream {
        if let Mutation::Update { filter, .. } = m {
            filters.push(filter.clone());
        }
    }

    assert_sound(&c, &filters, "fresh");
    for (i, m) in stream.iter().enumerate() {
        c.mutate(m).unwrap();
        assert_sound(&c, &filters, &format!("after mutation {i} ({})", m.label()));
    }
    c.set_pruning(false);
    assert_sound(&c, &filters, "pruning off");
    assert!(filters.iter().all(|f| c.plan_shards(f).unwrap().iter().all(|&s| s)));
    c.set_pruning(true);
    assert_sound(&c, &filters, "pruning back on");
    // the stream really moved the plans the memo had cached
    let fresh = cluster(&db);
    assert!(filters.iter().any(|f| fresh.plan_shards(f) != c.plan_shards(f)));
}
