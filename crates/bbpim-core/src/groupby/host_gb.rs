//! host-gb: the host reads the selected records and hash-aggregates.
//!
//! The host reads the filter-result bit-vector (one line per row), then
//! the group-key and aggregate-operand chunks of every selected record —
//! with exact unique-line accounting, so dense selections amortise the
//! 32-records-per-line layout and sparse ones pay full amplification —
//! and folds each record into a hash table, evaluating **every**
//! physical aggregate of the SELECT list in the same pass (the record
//! is already in a host register; extra aggregates cost host ALU work,
//! not extra reads). Records whose key belongs to a PIM-aggregated
//! subgroup are read (the key must be seen to be skipped) but not
//! folded.

use std::collections::HashSet;

use bbpim_db::plan::{AggExpr, PhysAgg};
use bbpim_db::stats::GroupedResult;
use bbpim_sim::hostmem::LineSet;
use bbpim_sim::module::PimModule;
use bbpim_sim::timeline::{Phase, RunLog};

use crate::error::CoreError;
use crate::filter_exec::{mask_bits, mask_read_phases};
use crate::layout::{AttrPlacement, RecordLayout, MASK_COL};
use crate::loader::LoadedRelation;
use crate::planner::PageSet;

/// One host-gb run.
#[derive(Debug)]
pub struct HostGbRequest<'a> {
    /// GROUP BY attributes with placements (key order = plan order).
    pub group_placements: &'a [(String, AttrPlacement)],
    /// The physical aggregates to evaluate host-side (plan order).
    /// `Count` components contribute 1 per selected record.
    pub aggs: &'a [PhysAgg],
    /// Keys already aggregated in PIM — read but not folded.
    pub skip: &'a HashSet<Vec<u64>>,
}

/// Read an attribute of one record straight from the stored bits.
///
/// # Errors
///
/// Propagates placement/slot failures.
pub fn read_attr_value(
    module: &PimModule,
    layout: &RecordLayout,
    loaded: &LoadedRelation,
    record: usize,
    name: &str,
) -> Result<u64, CoreError> {
    let placement = layout.placement(name)?;
    let (pg, slot) = loaded.locate(record);
    let page = module.page(loaded.pages(placement.partition)[pg]);
    Ok(page.read_record_bits(slot, placement.range.lo, placement.range.width)?)
}

/// Evaluate an aggregate expression for one record from stored bits.
///
/// # Errors
///
/// Propagates attribute-read failures.
pub fn eval_expr(
    module: &PimModule,
    layout: &RecordLayout,
    loaded: &LoadedRelation,
    record: usize,
    expr: &AggExpr,
) -> Result<u64, CoreError> {
    Ok(match expr {
        AggExpr::Attr(a) => read_attr_value(module, layout, loaded, record, a)?,
        AggExpr::Mul(a, b) => read_attr_value(module, layout, loaded, record, a)?
            .wrapping_mul(read_attr_value(module, layout, loaded, record, b)?),
        AggExpr::Sub(a, b) => read_attr_value(module, layout, loaded, record, a)?
            .wrapping_sub(read_attr_value(module, layout, loaded, record, b)?),
    })
}

/// An aggregate's operands as indices into the gathered attribute
/// columns of one [`run_host_gb`] call.
#[derive(Debug, Clone, Copy)]
enum Operands {
    /// `COUNT`: every record contributes 1.
    One,
    Attr(usize),
    Mul(usize, usize),
    Sub(usize, usize),
}

impl Operands {
    fn value(self, cols: &[Vec<u64>], i: usize) -> u64 {
        match self {
            Operands::One => 1,
            Operands::Attr(a) => cols[a][i],
            Operands::Mul(a, b) => cols[a][i].wrapping_mul(cols[b][i]),
            Operands::Sub(a, b) => cols[a][i].wrapping_sub(cols[b][i]),
        }
    }
}

/// Index of attribute `name` among the gathered columns `attrs`,
/// appending it on first use.
fn operand_column<'a>(
    attrs: &mut Vec<(&'a str, AttrPlacement)>,
    layout: &RecordLayout,
    name: &'a str,
) -> Result<usize, CoreError> {
    if let Some(i) = attrs.iter().position(|(n, _)| *n == name) {
        return Ok(i);
    }
    attrs.push((name, layout.placement(name)?));
    Ok(attrs.len() - 1)
}

/// Execute host-gb. Charges mask-read, record-read and host-compute
/// phases to `log` and returns the aggregated tail groups — one
/// [`GroupedResult`] per requested physical aggregate, in request
/// order.
///
/// Placements are resolved once per call; each planned page's selected
/// records are then gathered attribute by attribute with
/// [`bbpim_sim::page::PimPage::read_records`] and folded.
///
/// # Errors
///
/// Propagates placement/slot failures.
pub fn run_host_gb(
    module: &mut PimModule,
    layout: &RecordLayout,
    loaded: &LoadedRelation,
    pages: &PageSet,
    req: &HostGbRequest<'_>,
    log: &mut RunLog,
) -> Result<Vec<GroupedResult>, CoreError> {
    // 1. Filter-result bit-vector of the planned pages only (pruned
    //    pages hold no selected records and are not read).
    let mask = mask_bits(module, loaded, pages, 0, MASK_COL);
    for phase in mask_read_phases(module, loaded, pages, &mask) {
        log.push(phase);
    }

    // 2. Which chunks must be read per record: group keys + the union
    //    of every aggregate's operands (shared operands read once).
    let mut read_attrs: Vec<&str> = req.group_placements.iter().map(|(n, _)| n.as_str()).collect();
    for agg in req.aggs {
        read_attrs.extend(agg.attrs());
    }
    read_attrs.sort_unstable();
    read_attrs.dedup();
    let chunk_map = layout.chunks_for(read_attrs.iter().copied())?;

    // Gathered columns: the group keys in key order, then every other
    // operand once.
    let mut attrs: Vec<(&str, AttrPlacement)> = Vec::new();
    for (name, _) in req.group_placements {
        attrs.push((name, layout.placement(name)?));
    }
    let keys = attrs.len();
    let operands = req
        .aggs
        .iter()
        .map(|agg| {
            let mut col = |name| operand_column(&mut attrs, layout, name);
            Ok(match &agg.expr {
                None => Operands::One,
                Some(AggExpr::Attr(a)) => Operands::Attr(col(a)?),
                Some(AggExpr::Mul(a, b)) => Operands::Mul(col(a)?, col(b)?),
                Some(AggExpr::Sub(a, b)) => Operands::Sub(col(a)?, col(b)?),
            })
        })
        .collect::<Result<Vec<Operands>, CoreError>>()?;

    // 3. Per planned page: exact unique-line accounting over the
    //    selected records, then 4. hash aggregation at the host, all
    //    physical aggregates folded in one pass over them.
    let cfg = module.config().clone();
    let mut lines = LineSet::new();
    let mut out: Vec<GroupedResult> = vec![GroupedResult::new(); req.aggs.len()];
    let mut cols: Vec<Vec<u64>> = vec![Vec::new(); attrs.len()];
    let mut row_seen = vec![false; cfg.crossbar_rows];
    let mut selected = 0usize;
    for (pg, mask_page) in pages.entries(loaded, 0) {
        let first = loaded.record_at(pg, 0);
        let slots: Vec<usize> = module
            .page(mask_page)
            .ones_in_col(MASK_COL)
            .filter(|&slot| first + slot < loaded.records())
            .collect();
        if slots.is_empty() {
            continue;
        }
        selected += slots.len();

        // A line is (page, row, chunk), and rows are shared by the
        // page's crossbars: touch each selected row once.
        let page = module.page(mask_page);
        row_seen.fill(false);
        let mut rows = Vec::new();
        for &slot in &slots {
            let row = page.record_slot(slot)?.row;
            if !std::mem::replace(&mut row_seen[row], true) {
                rows.push(row);
            }
        }
        for (&partition, chunks) in &chunk_map {
            let page_id = loaded.pages(partition)[pg];
            for &row in &rows {
                for &chunk in chunks {
                    lines.touch_bit_range(
                        &cfg,
                        page_id.0,
                        row,
                        chunk * cfg.read_width_bits,
                        cfg.read_width_bits,
                    );
                }
            }
        }

        for ((_, placement), col) in attrs.iter().zip(cols.iter_mut()) {
            col.clear();
            let page = module.page(loaded.pages(placement.partition)[pg]);
            page.read_records(&slots, placement.range.lo, placement.range.width, col)?;
        }
        for i in 0..slots.len() {
            let key: Vec<u64> = cols[..keys].iter().map(|c| c[i]).collect();
            if req.skip.contains(&key) {
                continue;
            }
            for ((agg, op), grouped) in req.aggs.iter().zip(&operands).zip(out.iter_mut()) {
                let v = op.value(&cols, i);
                grouped
                    .entry(key.clone())
                    .and_modify(|acc| *acc = agg.func.merge(*acc, v))
                    .or_insert(v);
            }
        }
    }
    // Record fetches are mask-directed (data-dependent addresses):
    // latency-bound scattered reads, per the paper's host-gb behaviour.
    log.push(module.host_read_scattered_phase(lines.len()));
    let per_record = cfg.host.host_agg_ns_per_record / cfg.host.threads as f64;
    log.push(Phase::host_compute(selected as f64 * per_record));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter_exec::run_filter;
    use crate::layout::RecordLayout;
    use crate::loader::load_relation;
    use crate::modes::EngineMode;
    use bbpim_db::plan::{AggFunc, Atom, PhysFunc, Query};
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_db::stats;
    use bbpim_db::Relation;
    use bbpim_sim::SimConfig;

    fn filter_dnf(
        q: &Query,
        rel: &Relation,
        layout: &RecordLayout,
    ) -> Vec<Vec<(bbpim_db::plan::ResolvedAtom, AttrPlacement)>> {
        let schema = rel.schema();
        q.resolve_filter(schema)
            .unwrap()
            .into_iter()
            .map(|conj| {
                conj.into_iter()
                    .map(|a| {
                        let name = &schema.attrs()[a.attr_index()].name;
                        let p = layout.placement(name).unwrap();
                        (a, p)
                    })
                    .collect()
            })
            .collect()
    }

    fn setup(mode: EngineMode) -> (PimModule, Relation, RecordLayout, LoadedRelation, Query) {
        let cfg = SimConfig::small_for_tests();
        let schema = Schema::new(
            "t",
            vec![
                Attribute::numeric("lo_v", 8),
                Attribute::numeric("lo_w", 6),
                Attribute::numeric("d_g", 4),
                Attribute::numeric("d_h", 3),
            ],
        );
        let mut rel = Relation::new(schema);
        for i in 0..800u64 {
            rel.push_row(&[(3 * i) % 251, i % 50, i % 9, (i / 9) % 5]).unwrap();
        }
        let q = Query::single(
            "t",
            vec![Atom::Lt { attr: "lo_v".into(), value: 170u64.into() }],
            vec!["d_g".into(), "d_h".into()],
            AggFunc::Sum,
            AggExpr::attr("lo_v"),
        );
        let layout = RecordLayout::build(rel.schema(), &cfg, mode, &[]).unwrap();
        let mut module = PimModule::new(cfg);
        let loaded = load_relation(&mut module, &rel, &layout).unwrap();
        let dnf = filter_dnf(&q, &rel, &layout);
        let mut log = RunLog::new();
        let pages = PageSet::all(loaded.page_count());
        run_filter(&mut module, &layout, &loaded, &dnf, &pages, &mut log).unwrap();
        (module, rel, layout, loaded, q)
    }

    fn placements(layout: &RecordLayout, q: &Query) -> Vec<(String, AttrPlacement)> {
        q.group_by.iter().map(|g| (g.clone(), layout.placement(g).unwrap())).collect()
    }

    fn sum_aggs(q: &Query) -> Vec<PhysAgg> {
        q.physical_plan().unwrap().aggs
    }

    #[test]
    fn host_gb_matches_oracle() {
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let (mut module, rel, layout, loaded, q) = setup(mode);
            let gp = placements(&layout, &q);
            let skip = HashSet::new();
            let aggs = sum_aggs(&q);
            let req = HostGbRequest { group_placements: &gp, aggs: &aggs, skip: &skip };
            let mut log = RunLog::new();
            let pages = PageSet::all(loaded.page_count());
            let got = run_host_gb(&mut module, &layout, &loaded, &pages, &req, &mut log).unwrap();
            let expected = stats::column(&stats::run_oracle(&q, &rel).unwrap(), 0);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0], expected, "{mode:?}");
            assert!(log.total_time_ns() > 0.0);
        }
    }

    #[test]
    fn multi_aggregate_host_gb_single_pass() {
        use bbpim_sim::timeline::PhaseKind;
        let (mut module, rel, layout, loaded, q) = setup(EngineMode::OneXb);
        let gp = placements(&layout, &q);
        let skip = HashSet::new();
        let aggs = vec![
            PhysAgg { func: PhysFunc::Sum, expr: Some(AggExpr::attr("lo_v")) },
            PhysAgg { func: PhysFunc::Count, expr: None },
            PhysAgg { func: PhysFunc::Max, expr: Some(AggExpr::sub("lo_v", "lo_w")) },
        ];
        let req = HostGbRequest { group_placements: &gp, aggs: &aggs, skip: &skip };
        let mut multi_log = RunLog::new();
        let pages = PageSet::all(loaded.page_count());
        let got = run_host_gb(&mut module, &layout, &loaded, &pages, &req, &mut multi_log).unwrap();
        assert_eq!(got.len(), 3);
        // reference per column
        let mut sums = GroupedResult::new();
        let mut counts = GroupedResult::new();
        let mut maxs = GroupedResult::new();
        for row in 0..rel.len() {
            let v = rel.value(row, 0);
            if v >= 170 {
                continue;
            }
            let key = vec![rel.value(row, 2), rel.value(row, 3)];
            let d = v.wrapping_sub(rel.value(row, 1));
            *sums.entry(key.clone()).or_insert(0) += v;
            *counts.entry(key.clone()).or_insert(0) += 1;
            maxs.entry(key).and_modify(|m| *m = (*m).max(d)).or_insert(d);
        }
        assert_eq!(got[0], sums);
        assert_eq!(got[1], counts);
        assert_eq!(got[2], maxs);
        // one record-read pass: compare against a single-aggregate run
        // reading the same operand set — the multi run must not read per
        // aggregate.
        let single = vec![PhysAgg { func: PhysFunc::Sum, expr: Some(AggExpr::attr("lo_v")) }];
        let req1 = HostGbRequest { group_placements: &gp, aggs: &single, skip: &skip };
        let mut single_log = RunLog::new();
        run_host_gb(&mut module, &layout, &loaded, &pages, &req1, &mut single_log).unwrap();
        let reads = |log: &RunLog| log.time_in(PhaseKind::HostRead);
        // the three-aggregate pass reads one extra operand (lo_w), never
        // three times the lines
        assert!(reads(&multi_log) < reads(&single_log) * 2.0);
    }

    #[test]
    fn skip_set_excludes_groups() {
        let (mut module, rel, layout, loaded, q) = setup(EngineMode::OneXb);
        let gp = placements(&layout, &q);
        let expected = stats::column(&stats::run_oracle(&q, &rel).unwrap(), 0);
        let skipped_key = expected.keys().next().unwrap().clone();
        let mut skip = HashSet::new();
        skip.insert(skipped_key.clone());
        let aggs = sum_aggs(&q);
        let req = HostGbRequest { group_placements: &gp, aggs: &aggs, skip: &skip };
        let mut log = RunLog::new();
        let pages = PageSet::all(loaded.page_count());
        let got = run_host_gb(&mut module, &layout, &loaded, &pages, &req, &mut log).unwrap();
        assert!(!got[0].contains_key(&skipped_key));
        assert_eq!(got[0].len(), expected.len() - 1);
    }

    #[test]
    fn denser_selection_reads_fewer_lines_per_record() {
        // r=1.0 vs sparse: lines per selected record shrink with density.
        let (mut module, rel, layout, loaded, mut q) = setup(EngineMode::OneXb);
        let gp = placements(&layout, &q);
        let skip = HashSet::new();
        // dense: the filter already selected ~2/3; rerun with everything
        q.filter = bbpim_db::plan::Pred::always();
        let dnf = filter_dnf(&q, &rel, &layout);
        let mut log0 = RunLog::new();
        let pages = PageSet::all(loaded.page_count());
        run_filter(&mut module, &layout, &loaded, &dnf, &pages, &mut log0).unwrap();
        let aggs = sum_aggs(&q);
        let req = HostGbRequest { group_placements: &gp, aggs: &aggs, skip: &skip };
        let mut dense_log = RunLog::new();
        let dense =
            run_host_gb(&mut module, &layout, &loaded, &pages, &req, &mut dense_log).unwrap();
        assert_eq!(dense[0].len(), stats::run_oracle(&q, &rel).unwrap().len());
        use bbpim_sim::timeline::PhaseKind;
        let dense_read = dense_log.time_in(PhaseKind::HostRead);
        // dense read time is positive yet far below selected × s × line time
        assert!(dense_read > 0.0);
    }

    #[test]
    fn expression_evaluated_host_side() {
        let (mut module, rel, layout, loaded, mut q) = setup(EngineMode::OneXb);
        q.select[0].expr = Some(AggExpr::sub("lo_v", "lo_w"));
        q.filter =
            bbpim_db::plan::Pred::all(vec![Atom::Gt { attr: "lo_v".into(), value: 60u64.into() }]);
        let dnf = filter_dnf(&q, &rel, &layout);
        let mut log = RunLog::new();
        let pages = PageSet::all(loaded.page_count());
        run_filter(&mut module, &layout, &loaded, &dnf, &pages, &mut log).unwrap();
        let gp = placements(&layout, &q);
        let skip = HashSet::new();
        let aggs = sum_aggs(&q);
        let req = HostGbRequest { group_placements: &gp, aggs: &aggs, skip: &skip };
        let got = run_host_gb(&mut module, &layout, &loaded, &pages, &req, &mut log).unwrap();
        assert_eq!(got[0], stats::column(&stats::run_oracle(&q, &rel).unwrap(), 0));
    }
}
