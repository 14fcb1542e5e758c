//! The star-join cluster: sharded normalized fact table plus four
//! shared dimension modules, joined by PIM-side semijoin bitmaps.
//!
//! ## Execution model
//!
//! A query's filter is routed per DNF disjunct: atoms on `lo_*` stay
//! fact-local; atoms on a dimension's attributes run *on the dimension
//! module* as one bulk-bitwise conjunction, leaving a key bitmap in
//! its mask column (dimension keys are dense, so the mask **is** the
//! key bitmap). That bitmap crosses the host channel exactly twice per
//! disjunct-dimension — one compressed read off the dimension module,
//! one broadcast write shared by *all* fact shards in a single grant —
//! and is then AND-ed into each shard's fact mask *through the FK
//! column*: the bitmap's runs compile to range predicates in one
//! microprogram ([`bbpim_core::semijoin`]), so no per-fact-row mask
//! bits ever ride the bus. Everything downstream (PIM aggregation for
//! flat queries, host gather for GROUP BY, partial merging) matches
//! the pre-joined [`bbpim_cluster::ClusterEngine`] shape, and answers
//! are bit-identical to the pre-joined oracle.
//!
//! GROUP BY keys naming dimension attributes are joined at gather
//! time: the host reads the selected fact records' FK chunks off the
//! fact shards and the referenced dimension chunks off the dimension
//! modules (both with exact unique-line accounting — hot dimension
//! rows amortise across fact records), then hash-aggregates.
//!
//! ## Planning
//!
//! Shard admission and page planning stay host-side and free of PIM
//! work: the planner evaluates each dimension conjunction against the
//! catalog copy (zone maps and catalog are maintained by UPDATEs, so
//! this is sound) and turns the selected-key hull into a BETWEEN bound
//! on the fact FK attribute — selective dimension filters prune fact
//! shards and pages *through the join*. Shard admission needs only
//! the hull's two ends, and memoises its mask per filter until the
//! next mutation (see [`StarCluster::plan_shards`]).
//!
//! ## Accounting approximations
//!
//! The dimension-filter phases of a query (its *join prelude*) are
//! charged once per query, prepended to the first executing shard's
//! log; under the contention model their bus slices serialise like any
//! other host transfer. Other shards may in reality overlap the
//! dimension filter with their own dispatch — the model keeps the
//! whole prelude on one timeline, a conservative simplification.

use std::cell::RefCell;
use std::collections::HashMap;

use bbpim_cluster::engine::ClusterMutationReport;
use bbpim_cluster::{
    ClusterError, ClusterExecution, ClusterReport, HostBytes, JoinTransfer, Partitioner,
    PlanExplain, ShardPlan,
};
use bbpim_core::agg_exec::{aggregate_masked, materialize_exprs};
use bbpim_core::error::CoreError;
use bbpim_core::filter_exec::{count_mask_bits, mask_bits, mask_read_phases};
use bbpim_core::groupby::host_gb::{eval_expr, read_attr_value};
use bbpim_core::layout::{RecordLayout, MASK_COL, VALID_COL};
use bbpim_core::loader::LoadedRelation;
use bbpim_core::modes::EngineMode;
use bbpim_core::mutation::{Mutation, MutationReport};
use bbpim_core::planner::PageSet;
use bbpim_core::result::{PartialGroups, QueryExecution, QueryReport};
use bbpim_core::semijoin::{build_semijoin_mask_program_in, SemijoinDisjunct, SemijoinTerm};
#[allow(deprecated)]
use bbpim_core::update::UpdateOp;
use bbpim_db::plan::{Atom, FilterBounds, PhysicalPlan, Pred, Query, ResolvedAtom};
use bbpim_db::ssb::star::{self, StarSchema, TableFootprint, DIMENSIONS};
use bbpim_db::ssb::SsbDb;
use bbpim_db::stats::GroupedResult;
use bbpim_db::zonemap::ZoneMap;
use bbpim_sim::hostbus::log_occupancy_ns;
use bbpim_sim::hostmem::LineSet;
use bbpim_sim::module::PimModule;
use bbpim_sim::timeline::{Phase, PhaseKind, RunLog};
use bbpim_sim::SimConfig;

use crate::bitmap::KeyBitmap;
use crate::table::StarTable;

/// One fact shard: its configured position, table and zone map.
struct StarShard {
    index: usize,
    table: StarTable,
    zone: ZoneMap,
}

/// A query's compiled join: the fact-side semijoin program inputs, the
/// FK-hull bounds the planner derived from the bitmaps, and the
/// dimension-side phase log (charged once per query). The transfer
/// ledger lives on [`PlanExplain`] — [`StarCluster::explain`] rebuilds
/// it from the catalog, which the executed bitmaps provably match.
struct JoinPlan {
    disjuncts: Vec<SemijoinDisjunct>,
    bounds_dnf: Vec<Vec<ResolvedAtom>>,
    prelude: RunLog,
    prelude_charged: bool,
}

/// A sharded PIM OLAP engine over the *normalized* SSB star schema.
///
/// Presents the same surface as [`bbpim_cluster::ClusterEngine`]
/// (`run`, `run_on_shard`, `merge_executions`, `update`, `explain`,
/// `plan_shards`) with bit-identical answers — only the storage model
/// and the bytes on the host channel differ.
pub struct StarCluster {
    dims: Vec<StarTable>,
    shards: Vec<StarShard>,
    shard_count: usize,
    partitioner: Partitioner,
    mode: EngineMode,
    records: usize,
    pruning: bool,
    contention: bool,
    cold: [Vec<String>; 5],
    join_cache: HashMap<String, JoinPlan>,
    /// [`StarCluster::plan_shards`]'s per-filter memo (interior
    /// mutability: the scheduler plans through `&self`).
    shard_memo: RefCell<HashMap<Pred, Vec<bool>>>,
}

/// Join-plan cache key: one compiled plan per (query, filter) text.
fn plan_key(query: &Query) -> String {
    format!("{}|{}", query.id, query.filter)
}

/// Split a conjunction by owning table: fact atoms plus per-dimension
/// atom lists (catalog order).
fn route_conjunct(conj: &[Atom]) -> (Vec<Atom>, [Vec<Atom>; 4]) {
    let mut fact = Vec::new();
    let mut dims: [Vec<Atom>; 4] = Default::default();
    for atom in conj {
        match StarSchema::dim_of_attr(atom.attr()) {
            None => fact.push(atom.clone()),
            Some(d) => dims[d].push(atom.clone()),
        }
    }
    (fact, dims)
}

impl StarCluster {
    /// Build the normalized cluster from a generated SSB instance: the
    /// four dimensions each on their own module, the fact table
    /// partitioned into `shards` (empty slices dropped, as in
    /// [`bbpim_cluster::ClusterEngine::new`]). Residency is
    /// workload-derived ([`StarSchema::ssb_cold_attrs`]): attributes no
    /// SSB query touches stay host-side, dimension keys are positional.
    ///
    /// `mode` labels reports and selects the aggregation circuit;
    /// normalized records are single-partition either way (the two-xb
    /// fact/dimension split *is* the normalization now).
    ///
    /// # Errors
    ///
    /// Partitioning or per-table load failures.
    pub fn new(
        cfg: SimConfig,
        db: &SsbDb,
        mode: EngineMode,
        shards: usize,
        partitioner: Partitioner,
    ) -> Result<Self, ClusterError> {
        let catalog = StarSchema::of_db(db);
        let cold = catalog.ssb_cold_attrs();
        let mut dims = Vec::with_capacity(4);
        for d in 0..4 {
            dims.push(StarTable::new(cfg.clone(), catalog.dim(d).clone(), &cold[d + 1])?);
        }
        let records = db.lineorder.len();
        let parts = partitioner.split_zoned(&db.lineorder, shards)?;
        let mut built = Vec::with_capacity(shards);
        for (index, (part, zone)) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            built.push(StarShard {
                index,
                table: StarTable::new(cfg.clone(), part, &cold[0])?,
                zone,
            });
        }
        Ok(StarCluster {
            dims,
            shards: built,
            shard_count: shards,
            partitioner,
            mode,
            records,
            pruning: true,
            contention: true,
            cold,
            join_cache: HashMap::new(),
            shard_memo: RefCell::default(),
        })
    }

    /// Configured shard count (including empty shards).
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Fact shards actually holding records.
    pub fn active_shards(&self) -> usize {
        self.shards.len()
    }

    /// Fact records across the cluster.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The engine mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// The fact partitioning strategy.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Is zone-map pruning (shard admission + page planning, dimension
    /// and fact side) enabled? Defaults to `true`.
    pub fn pruning(&self) -> bool {
        self.pruning
    }

    /// Enable or disable zone-map pruning. Answers are bit-identical
    /// either way.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.pruning = enabled;
        self.invalidate_plans();
    }

    /// Is the shared-host-channel contention model enabled (default)?
    pub fn contention(&self) -> bool {
        self.contention
    }

    /// Enable or disable the contention model for A/B studies.
    pub fn set_contention(&mut self, enabled: bool) {
        self.contention = enabled;
    }

    /// The host-transfer policy the tables run under (compressed mask
    /// transfers, batched dispatch descriptors, module-side result
    /// reduction). Defaults to all levers on.
    pub fn xfer_policy(&self) -> bbpim_sim::XferPolicy {
        self.shards.first().map(|s| s.table.module().policy()).unwrap_or_default()
    }

    /// Set the host-transfer policy cluster-wide — fact shards and
    /// dimension modules — for A/B attribution studies. Answers are
    /// bit-identical under every lever combination. Invalidates
    /// compiled join plans (their preludes embed the old byte charges).
    pub fn set_xfer_policy(&mut self, policy: bbpim_sim::XferPolicy) {
        for shard in &mut self.shards {
            shard.table.set_xfer_policy(policy);
        }
        for dim in &mut self.dims {
            dim.set_xfer_policy(policy);
        }
        self.invalidate_plans();
    }

    /// One dimension table by catalog index (see
    /// [`bbpim_db::ssb::star::DIMENSIONS`]).
    ///
    /// # Panics
    ///
    /// Panics when `d >= 4`.
    pub fn dim(&self, d: usize) -> &StarTable {
        &self.dims[d]
    }

    /// An active fact shard's table; `i` indexes active shards.
    pub fn shard_table(&self, i: usize) -> Option<&StarTable> {
        self.shards.get(i).map(|s| &s.table)
    }

    /// An active fact shard's zone map.
    pub fn shard_zone(&self, i: usize) -> Option<&ZoneMap> {
        self.shards.get(i).map(|s| &s.zone)
    }

    /// Per-table PIM-resident footprints: the (cluster-wide) fact
    /// table first, then the four dimensions.
    pub fn footprints(&self) -> Vec<TableFootprint> {
        let mut out = Vec::with_capacity(5);
        if let Some(s) = self.shards.first() {
            let mut f = star::table_footprint(s.table.relation(), &self.cold[0]);
            f.records = self.records;
            f.data_bytes = ((self.records * f.resident_bits) as u64).div_ceil(8);
            out.push(f);
        }
        for (d, t) in self.dims.iter().enumerate() {
            out.push(star::table_footprint(t.relation(), &self.cold[d + 1]));
        }
        out
    }

    /// Total PIM-resident data bytes across the five tables.
    pub fn total_data_bytes(&self) -> u64 {
        self.footprints().iter().map(|f| f.data_bytes).sum()
    }

    /// Resolve one dimension conjunction against the catalog copy.
    fn resolve_dim(&self, d: usize, atoms: &[Atom]) -> Result<Vec<ResolvedAtom>, ClusterError> {
        let schema = self.dims[d].relation().schema();
        Ok(atoms.iter().map(|a| a.resolve(schema)).collect::<Result<_, _>>()?)
    }

    /// Host-side evaluation of one dimension conjunction against the
    /// catalog copy — the planner's (free) twin of the on-module
    /// filter; both produce the same bitmap because pruning is a proof
    /// of absence and UPDATEs patch the catalog.
    fn host_dim_bitmap(&self, d: usize, atoms: &[Atom]) -> Result<KeyBitmap, ClusterError> {
        let rel = self.dims[d].relation();
        let resolved = self.resolve_dim(d, atoms)?;
        let bits = (0..rel.len()).map(|row| resolved.iter().all(|a| a.matches(rel, row))).collect();
        Ok(KeyBitmap::new(DIMENSIONS[d].key_base, bits))
    }

    /// The selected-key hull of one dimension conjunction — exactly
    /// [`KeyBitmap::hull`] of [`StarCluster::host_dim_bitmap`], found
    /// by scanning the catalog forward to the first matching row and
    /// backward to the last, with no bitmap built.
    fn host_dim_hull(&self, d: usize, atoms: &[Atom]) -> Result<Option<(u64, u64)>, ClusterError> {
        let rel = self.dims[d].relation();
        let resolved = self.resolve_dim(d, atoms)?;
        let hit = |row: &usize| resolved.iter().all(|a| a.matches(rel, *row));
        let Some(first) = (0..rel.len()).find(hit) else {
            return Ok(None);
        };
        let last = (first..rel.len()).rev().find(hit).unwrap_or(first);
        let base = DIMENSIONS[d].key_base;
        Ok(Some((base + first as u64, base + last as u64)))
    }

    /// The planner's view of a star filter: per surviving disjunct,
    /// the fact atoms plus one FK-hull BETWEEN per filtered dimension
    /// (resolved against the fact schema). `dim_hull(d, disjunct,
    /// atoms)` supplies each filtered dimension's selected-key hull.
    /// Disjuncts whose dimension filter selects nothing are dropped —
    /// they can match no fact record — and their later dimensions are
    /// never evaluated.
    fn hull_dnf(
        &self,
        filter: &Pred,
        mut dim_hull: impl FnMut(usize, usize, &[Atom]) -> Result<Option<(u64, u64)>, ClusterError>,
    ) -> Result<Vec<Vec<ResolvedAtom>>, ClusterError> {
        let Some(first) = self.shards.first() else {
            return Ok(Vec::new());
        };
        let fact_schema = first.table.relation().schema();
        let mut dnf_out = Vec::new();
        'disjuncts: for (di, conj) in filter.dnf().iter().enumerate() {
            let (fact_atoms, dim_atoms) = route_conjunct(conj);
            let mut atoms: Vec<ResolvedAtom> =
                fact_atoms.iter().map(|a| a.resolve(fact_schema)).collect::<Result<_, _>>()?;
            for (d, da) in dim_atoms.iter().enumerate() {
                if da.is_empty() {
                    continue;
                }
                let Some((lo, hi)) = dim_hull(d, di, da)? else {
                    continue 'disjuncts;
                };
                atoms.push(ResolvedAtom::Between {
                    idx: fact_schema.index_of(DIMENSIONS[d].fk)?,
                    lo,
                    hi,
                });
            }
            dnf_out.push(atoms);
        }
        Ok(dnf_out)
    }

    /// [`StarCluster::hull_dnf`] over full catalog bitmaps, plus the
    /// transfer ledger they imply — the EXPLAIN view.
    fn host_join_plan(
        &self,
        filter: &Pred,
    ) -> Result<(Vec<Vec<ResolvedAtom>>, Vec<JoinTransfer>), ClusterError> {
        let broadcast = self.shards.len();
        let mut transfers = Vec::new();
        let dnf = self.hull_dnf(filter, |d, di, da| {
            let bitmap = self.host_dim_bitmap(d, da)?;
            transfers.push(transfer_of(d, di, &bitmap, broadcast));
            Ok(bitmap.hull())
        })?;
        Ok((dnf, transfers))
    }

    /// The uncached shard admission [`StarCluster::plan_shards`]
    /// memoises.
    fn plan_shards_uncached(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        if !self.pruning || filter.is_always() {
            return Ok(vec![true; self.shards.len()]);
        }
        let dnf = self.hull_dnf(filter, |d, _, da| self.host_dim_hull(d, da))?;
        if dnf.is_empty() {
            // every disjunct died on an empty dimension selection
            return Ok(vec![false; self.shards.len()]);
        }
        let bounds = FilterBounds::from_dnf(&dnf);
        Ok(self.shards.iter().map(|s| bounds.can_match(&s.zone)).collect())
    }

    /// Pre-scatter shard admission: `true` per active shard whose zone
    /// map admits some surviving disjunct (fact bounds *and* FK hulls
    /// — dimension selectivity prunes fact shards through the join).
    ///
    /// Each filtered dimension contributes only its selected-key hull,
    /// found by a forward and a backward scan of the catalog copy (no
    /// key bitmap, no transfer ledger — [`StarCluster::explain`] keeps
    /// those). The resulting mask is memoised per filter: the answer
    /// depends only on the filter, the catalog copies, the zone maps
    /// and the pruning switch, so the memo is cleared exactly where
    /// compiled join plans are — by [`StarCluster::mutate_on_lanes`]
    /// (after the mutation has landed), [`StarCluster::set_pruning`]
    /// and [`StarCluster::set_xfer_policy`]. Failed plans are not
    /// memoised.
    ///
    /// # Errors
    ///
    /// Propagates attribute resolution failures.
    pub fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        if let Some(mask) = self.shard_memo.borrow().get(filter) {
            return Ok(mask.clone());
        }
        let mask = self.plan_shards_uncached(filter)?;
        self.shard_memo.borrow_mut().insert(filter.clone(), mask.clone());
        Ok(mask)
    }

    /// The physical plan of `query` without executing anything,
    /// including the join-transfer ledger (raw vs wire bitmap bytes).
    ///
    /// # Errors
    ///
    /// Propagates attribute resolution failures.
    pub fn explain(&self, query: &Query) -> Result<PlanExplain, ClusterError> {
        let mask = self.plan_shards(&query.filter)?;
        let (dnf, transfers) = self.host_join_plan(&query.filter)?;
        let filter_bounds = match self.shards.first() {
            None => Vec::new(),
            Some(first) => {
                let schema = first.table.relation().schema();
                FilterBounds::from_dnf(&dnf)
                    .intervals()
                    .into_iter()
                    .map(|(idx, intervals)| (schema.attrs()[idx].name.clone(), intervals))
                    .collect()
            }
        };
        let policy = self.xfer_policy();
        let mut host_bytes = HostBytes::default();
        // semijoin bitmaps: one read + one broadcast each, at the wire
        // size (or bit-packed raw with the compression lever off)
        for t in &transfers {
            host_bytes.mask_wire_bytes +=
                2 * if policy.compress_masks { t.wire_bytes } else { t.raw_bytes };
        }
        // dimension-filter dispatch: each filtered dimension of a
        // disjunct is dispatched once on its module as part of the join
        // prelude, and those descriptor bytes ride the channel like any
        // fact dispatch. Charging mirrors `build_join_plan`: a
        // dimension whose empty bitmap kills the disjunct is still
        // dispatched; the dimensions after it are never reached.
        for conj in &query.filter.dnf() {
            let (_, dim_atoms) = route_conjunct(conj);
            for (d, da) in dim_atoms.iter().enumerate() {
                if da.is_empty() {
                    continue;
                }
                let dim = &self.dims[d];
                let pages = dim.plan_conjunction(&self.resolve_dim(d, da)?, self.pruning);
                let host = &dim.module().config().host;
                if !pages.is_empty() && dim.module().policy().batch_dispatch {
                    host_bytes.dispatch_bytes += host.dispatch_header_bytes
                        + pages.run_count() as u64 * host.dispatch_run_bytes;
                }
                if self.host_dim_hull(d, da)?.is_none() {
                    break;
                }
            }
        }
        let aggs = query.physical_plan().map_err(ClusterError::Db)?.aggs.len() as u64;
        let mut shards = Vec::with_capacity(self.shards.len());
        for (shard, &dispatched) in self.shards.iter().zip(&mask) {
            let mut candidate_pages = 0;
            if dispatched {
                let plan = shard.table.plan_dnf(&dnf, self.pruning);
                candidate_pages = plan.len();
                if !plan.is_empty() {
                    let cfg = shard.table.module().config();
                    if policy.batch_dispatch {
                        host_bytes.dispatch_bytes += cfg.host.dispatch_header_bytes
                            + plan.run_count() as u64 * cfg.host.dispatch_run_bytes;
                    }
                    let chunk_lines = 64u64.div_ceil(cfg.read_width_bits as u64);
                    host_bytes.result_bytes += aggs
                        * chunk_lines
                        * cfg.host.line_bytes as u64
                        * if policy.module_reduce { 1 } else { plan.len() as u64 };
                }
            }
            shards.push(ShardPlan {
                shard_index: shard.index,
                records: shard.table.relation().len(),
                pages: shard.table.page_count(),
                candidate_pages,
                dispatched,
            });
        }
        Ok(PlanExplain {
            query_id: query.id.clone(),
            filter: query.filter.to_string(),
            filter_bounds,
            shards,
            join_transfers: transfers,
            host_bytes,
            actuals: None,
        })
    }

    /// `EXPLAIN ANALYZE` on the normalized star store: plan `query`,
    /// execute it, and return the plan with the run's recorded actuals
    /// attached next to the planner's estimates (cf.
    /// [`bbpim_cluster::explain::PlanExplain::consistency_errors`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StarCluster::explain`] and
    /// [`StarCluster::run`].
    pub fn explain_analyze(
        &mut self,
        query: &Query,
    ) -> Result<(PlanExplain, ClusterExecution), ClusterError> {
        let mut plan = self.explain(query)?;
        let exec = self.run(query)?;
        plan.attach_actuals(&exec.report);
        Ok((plan, exec))
    }

    /// Compile a query's join: run each disjunct's dimension filters
    /// on their modules, decompose the bitmaps into semijoin runs, and
    /// charge the dimension phases plus the two bitmap transfers (read
    /// + one broadcast grant) to the plan's prelude log.
    fn build_join_plan(&mut self, query: &Query) -> Result<JoinPlan, ClusterError> {
        let prune = self.pruning;
        let Some(first) = self.shards.first() else {
            return Ok(JoinPlan {
                disjuncts: Vec::new(),
                bounds_dnf: Vec::new(),
                prelude: RunLog::new(),
                prelude_charged: false,
            });
        };
        let fact_table = &first.table;
        let fact_schema = fact_table.relation().schema();
        let mut prelude = RunLog::new();
        let mut disjuncts = Vec::new();
        let mut bounds_dnf = Vec::new();
        for conj in &query.filter.dnf() {
            let (fact_atoms, dim_atoms) = route_conjunct(conj);
            let mut prog_atoms = Vec::with_capacity(fact_atoms.len());
            let mut bound_atoms = Vec::with_capacity(conj.len());
            for a in &fact_atoms {
                let resolved = a.resolve(fact_schema)?;
                let range = fact_table.col_range(a.attr())?;
                bound_atoms.push(resolved.clone());
                prog_atoms.push((resolved, range));
            }
            let mut semijoins = Vec::new();
            let mut dead = false;
            for (d, da) in dim_atoms.iter().enumerate() {
                if da.is_empty() {
                    continue;
                }
                let dim = &mut self.dims[d];
                let mut resolved = Vec::with_capacity(da.len());
                let mut ranged = Vec::with_capacity(da.len());
                for a in da {
                    let r = a.resolve(dim.relation().schema())?;
                    let range = dim.col_range(a.attr())?;
                    resolved.push(r.clone());
                    ranged.push((r, range));
                }
                let pages = dim.plan_conjunction(&resolved, prune);
                let bits = dim.filter_conjunction(&ranged, &pages, &mut prelude)?;
                let bitmap = KeyBitmap::new(DIMENSIONS[d].key_base, bits);
                // the bitmap crosses the channel twice: one read off
                // the dimension module, one broadcast write shared by
                // every fact shard (a single grant) — at the compressed
                // wire size, or bit-packed raw when the compression
                // lever is off (A/B attribution)
                let line_bytes = dim.module().config().host.line_bytes as u64;
                let lines = if dim.module().policy().compress_masks {
                    bitmap.wire_lines(line_bytes)
                } else {
                    bitmap.raw_bytes().div_ceil(line_bytes.max(1)).max(1)
                };
                prelude.push(dim.module().host_read_phase(lines));
                prelude.push(dim.module().host_write_phase(lines));
                match bitmap.hull() {
                    None => {
                        dead = true;
                        break;
                    }
                    Some((lo, hi)) => bound_atoms.push(ResolvedAtom::Between {
                        idx: fact_schema.index_of(DIMENSIONS[d].fk)?,
                        lo,
                        hi,
                    }),
                }
                semijoins.push(SemijoinTerm::from_bitmap(
                    fact_table.col_range(DIMENSIONS[d].fk)?,
                    bitmap.bits(),
                    bitmap.base(),
                ));
            }
            if !dead {
                disjuncts.push(SemijoinDisjunct { atoms: prog_atoms, semijoins });
                bounds_dnf.push(bound_atoms);
            }
        }
        Ok(JoinPlan { disjuncts, bounds_dnf, prelude, prelude_charged: false })
    }

    /// Execute `query` on one active fact shard and return its partial
    /// execution — the scatter half of [`StarCluster::run`], reusable
    /// by the streaming scheduler. The first shard to execute a given
    /// (query, filter) carries the join prelude (dimension filters +
    /// bitmap transfers) in its log; subsequent shards reuse the
    /// compiled plan for free, matching the one-broadcast model.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidCluster`] for an unknown shard index;
    /// substrate failures otherwise.
    pub fn run_on_shard(
        &mut self,
        i: usize,
        query: &Query,
    ) -> Result<QueryExecution, ClusterError> {
        let key = plan_key(query);
        let mut plan = match self.join_cache.remove(&key) {
            Some(plan) => plan,
            None => self.build_join_plan(query)?,
        };
        let prelude = (!plan.prelude_charged).then(|| plan.prelude.clone());
        plan.prelude_charged = true;
        let active = self.shards.len();
        let result = match self.shards.get_mut(i) {
            None => Err(ClusterError::InvalidCluster(format!("no active shard {i}/{active}"))),
            Some(shard) => exec_star_query(
                shard,
                &self.dims,
                query,
                &plan,
                prelude.as_ref(),
                self.mode,
                self.pruning,
            ),
        };
        self.join_cache.insert(key, plan);
        result
    }

    /// Execute one query: admit shards against the FK-hull bounds, run
    /// the surviving shards (the first carries the join prelude), and
    /// merge the partials. The join plan is recompiled per `run` call
    /// — repeated runs recharge the dimension work deterministically.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure.
    pub fn run(&mut self, query: &Query) -> Result<ClusterExecution, ClusterError> {
        self.join_cache.remove(&plan_key(query));
        let mask = self.plan_shards(&query.filter)?;
        let mut executions = Vec::new();
        for (i, &dispatched) in mask.iter().enumerate() {
            if dispatched {
                executions.push(self.run_on_shard(i, query)?);
            }
        }
        let refs: Vec<&QueryExecution> = executions.iter().collect();
        let pruned = mask.iter().filter(|d| !**d).count();
        Ok(self.merge_executions(query, &refs, pruned))
    }

    /// Gather: merge per-shard partial executions into one cluster
    /// execution — the same fold as
    /// [`bbpim_cluster::ClusterEngine::merge_executions`], so
    /// schedulers treat both storage models uniformly.
    ///
    /// # Panics
    ///
    /// Panics on a query whose SELECT list is invalid — impossible for
    /// executions the shards produced.
    pub fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution {
        let plan = query.physical_plan().expect("executed queries have a valid SELECT list");
        let mut partials: Vec<PartialGroups> =
            plan.aggs.iter().map(|a| PartialGroups::new(a.func)).collect();
        let mut merged_entries = 0u64;
        for exec in executions {
            for (acc, part) in partials.iter_mut().zip(&exec.partials) {
                merged_entries += part.groups.len() as u64;
                acc.absorb_ref(part);
            }
        }
        let merge_ns_per_entry = self
            .shards
            .first()
            .map(|s| s.table.module().config().host.host_agg_ns_per_record)
            .unwrap_or(0.0);
        let merge_time_ns = merged_entries as f64 * merge_ns_per_entry;

        let dispatch_time_ns: f64 =
            executions.iter().map(|e| e.report.phases.time_in(PhaseKind::HostDispatch)).sum();
        let host_bus_time_ns: f64 = executions.iter().map(|e| e.report.host_bus_ns).sum();
        let serial = |e: &&QueryExecution| {
            if self.contention {
                e.report.host_bus_ns
            } else {
                e.report.phases.time_in(PhaseKind::HostDispatch)
            }
        };
        let serial_total: f64 = executions.iter().map(serial).sum();
        let pim_max = executions.iter().map(|e| e.report.time_ns - serial(e)).fold(0.0, f64::max);
        let selected: u64 = executions.iter().map(|e| e.report.selected).sum();
        let report = ClusterReport {
            query_id: query.id.clone(),
            mode: self.mode,
            shards: self.shard_count,
            active_shards: self.shards.len(),
            shards_pruned,
            partitioner: self.partitioner.label(),
            time_ns: serial_total + pim_max + merge_time_ns,
            dispatch_time_ns,
            host_bus_time_ns,
            merge_time_ns,
            total_shard_time_ns: executions.iter().map(|e| e.report.time_ns).sum(),
            energy_pj: executions.iter().map(|e| e.report.energy_pj).sum(),
            peak_chip_power_w: executions
                .iter()
                .map(|e| e.report.peak_chip_power_w)
                .fold(0.0, f64::max),
            records: self.records,
            pages_total: self.shards.iter().map(|s| s.table.page_count()).sum(),
            pages_scanned: executions.iter().map(|e| e.report.pages_scanned).sum(),
            selected,
            selectivity: if self.records == 0 {
                0.0
            } else {
                selected as f64 / self.records as f64
            },
            max_shard_subgroups: executions
                .iter()
                .map(|e| e.report.total_subgroups)
                .max()
                .unwrap_or(0),
            per_shard: executions.iter().map(|e| e.report.clone()).collect(),
        };
        let per_agg: Vec<GroupedResult> =
            partials.into_iter().map(PartialGroups::into_groups).collect();
        ClusterExecution { groups: plan.finalize(&per_agg), report }
    }

    /// Which single table an UPDATE routes to: `Some(d)` for dimension
    /// `d` (catalog order), `None` for the fact table. Every SET
    /// attribute and every filter atom must agree — cross-table UPDATE
    /// semantics are not defined.
    fn route_update(&self, m: &Mutation) -> Result<Option<usize>, ClusterError> {
        let Mutation::Update { filter, set } = m else {
            return Err(ClusterError::InvalidCluster("route_update on an INSERT".into()));
        };
        let mut target: Option<Option<usize>> = None;
        for (attr, _) in set {
            let t = StarSchema::dim_of_attr(attr);
            match target {
                None => target = Some(t),
                Some(prev) if prev != t => {
                    return Err(ClusterError::InvalidCluster(format!(
                        "UPDATE mixes tables in its SET list at {attr}"
                    )));
                }
                Some(_) => {}
            }
        }
        let Some(target) = target else {
            return Err(ClusterError::InvalidCluster("UPDATE with an empty SET list".into()));
        };
        for a in m_filter_atoms(filter) {
            if StarSchema::dim_of_attr(a.attr()) != target {
                return Err(ClusterError::InvalidCluster(format!(
                    "UPDATE mixes tables: SET list filtered by {}",
                    a.attr()
                )));
            }
        }
        Ok(target)
    }

    /// Total ingest lanes the scheduler sees: one per active fact shard
    /// plus one per dimension module (dimension `d` is lane
    /// `active_shards() + d`).
    pub fn ingest_lanes(&self) -> usize {
        self.shards.len() + self.dims.len()
    }

    /// The lanes a mutation will touch, in lane order. A dimension
    /// UPDATE occupies that dimension's module lane; a fact UPDATE the
    /// zone-admitted fact-shard lanes; an INSERT (fact rows only) the
    /// lanes its deterministic round-robin routing — cursor
    /// `records % active` — will land the rows on.
    ///
    /// # Errors
    ///
    /// Cross-table UPDATEs and filter resolution failures.
    pub fn plan_mutation_lanes(&self, m: &Mutation) -> Result<Vec<usize>, ClusterError> {
        match m {
            Mutation::Update { filter, .. } => match self.route_update(m)? {
                Some(d) => Ok(vec![self.shards.len() + d]),
                None => {
                    let mask = self.plan_shards(filter)?;
                    Ok(mask.iter().enumerate().filter_map(|(i, &x)| x.then_some(i)).collect())
                }
            },
            Mutation::Insert { rows } => {
                let active = self.shards.len();
                if active == 0 || rows.is_empty() {
                    return Ok(Vec::new());
                }
                let start = self.records % active;
                let mut lanes: Vec<usize> =
                    (0..rows.len().min(active)).map(|k| (start + k) % active).collect();
                lanes.sort_unstable();
                Ok(lanes)
            }
        }
    }

    /// Lane-indexed mutation fan-out (serial; lane order) — the
    /// scheduler's building block, mirroring
    /// [`bbpim_cluster::ClusterEngine::mutate_on_lanes`]. A dimension
    /// UPDATE runs on one module with cost proportional to the
    /// dimension's cardinality — the normalization win over rewriting a
    /// denormalized column on every fact shard. INSERTs append fact
    /// rows round-robin from the deterministic cursor
    /// `records % active` (dimension INSERTs are not supported — SSB
    /// dimensions are keyed positionally). Compiled join plans and
    /// memoised shard masks are invalidated by every mutation once it
    /// has landed (also after a mid-fan-out error): a landed write may
    /// change any cached semijoin bitmap, catalog hull or zone map.
    ///
    /// # Errors
    ///
    /// Cross-table UPDATEs ([`ClusterError::InvalidCluster`]);
    /// substrate failures otherwise. Mutations are not atomic: on a
    /// mid-fan-out error earlier lanes have applied.
    pub fn mutate_on_lanes(
        &mut self,
        m: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        // planned lanes go through the memo, so clear it only after
        let out = self.apply_on_lanes(m);
        self.invalidate_plans();
        out
    }

    /// Drop every compiled join plan and memoised shard mask.
    fn invalidate_plans(&mut self) {
        self.join_cache.clear();
        self.shard_memo.get_mut().clear();
    }

    /// [`StarCluster::mutate_on_lanes`] without the invalidation.
    fn apply_on_lanes(
        &mut self,
        m: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        match m {
            Mutation::Update { .. } => match self.route_update(m)? {
                Some(d) => {
                    let report = self.dims[d].mutate(m, self.pruning)?;
                    Ok(vec![(self.shards.len() + d, report)])
                }
                None => {
                    let lanes = self.plan_mutation_lanes(m)?;
                    let mut out = Vec::with_capacity(lanes.len());
                    for lane in lanes {
                        let shard = &mut self.shards[lane];
                        let report = shard.table.mutate(m, self.pruning)?;
                        shard.zone = shard.table.zone_map();
                        out.push((lane, report));
                    }
                    Ok(out)
                }
            },
            Mutation::Insert { rows } => {
                let active = self.shards.len();
                if active == 0 {
                    return Err(ClusterError::InvalidCluster(
                        "INSERT into a star cluster with no active fact shards".into(),
                    ));
                }
                let start = self.records % active;
                let mut per_lane: Vec<Vec<Vec<u64>>> = vec![Vec::new(); active];
                for (k, row) in rows.iter().enumerate() {
                    per_lane[(start + k) % active].push(row.clone());
                }
                let mut out = Vec::new();
                for (lane, lane_rows) in per_lane.into_iter().enumerate() {
                    if lane_rows.is_empty() {
                        continue;
                    }
                    let part = Mutation::Insert { rows: lane_rows };
                    let shard = &mut self.shards[lane];
                    let report = shard.table.mutate(&part, self.pruning)?;
                    shard.zone = shard.table.zone_map();
                    self.records += report.records_inserted as usize;
                    out.push((lane, report));
                }
                Ok(out)
            }
        }
    }

    /// Apply a mutation to the owning table(s) and aggregate one
    /// report (same wall-clock model as queries: host-serial channel
    /// occupancy plus max-over-lanes of the overlappable PIM time).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StarCluster::mutate_on_lanes`].
    pub fn mutate(&mut self, m: &Mutation) -> Result<ClusterMutationReport, ClusterError> {
        let fact_update = matches!(m, Mutation::Update { .. }) && self.route_update(m)?.is_none();
        let reports: Vec<MutationReport> =
            self.mutate_on_lanes(m)?.into_iter().map(|(_, r)| r).collect();
        let contention = self.contention;
        let serial = |r: &MutationReport| {
            if contention {
                r.host_bus_ns
            } else {
                r.phases.time_in(PhaseKind::HostDispatch)
            }
        };
        let shards_pruned = if fact_update { self.shards.len() - reports.len() } else { 0 };
        let serial_total: f64 = reports.iter().map(serial).sum();
        let pim_max = reports.iter().map(|r| r.time_ns - serial(r)).fold(0.0, f64::max);
        Ok(ClusterMutationReport {
            records_updated: reports.iter().map(|r| r.records_updated).sum(),
            records_inserted: reports.iter().map(|r| r.records_inserted).sum(),
            shards_pruned,
            time_ns: serial_total + pim_max,
            dispatch_time_ns: reports
                .iter()
                .map(|r| r.phases.time_in(PhaseKind::HostDispatch))
                .sum(),
            total_shard_time_ns: reports.iter().map(|r| r.time_ns).sum(),
            energy_pj: reports.iter().map(|r| r.energy_pj).sum(),
            per_shard: reports,
        })
    }

    /// Apply a v1 UPDATE. Deprecated wrapper over
    /// [`StarCluster::mutate`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StarCluster::mutate`].
    #[allow(deprecated)]
    #[deprecated(note = "use StarCluster::mutate with bbpim_core::mutation::Mutation")]
    pub fn update(&mut self, op: &UpdateOp) -> Result<ClusterMutationReport, ClusterError> {
        self.mutate(&op.clone().into())
    }
}

/// Every atom of a filter tree (all DNF branches flattened).
fn m_filter_atoms(filter: &Pred) -> Vec<Atom> {
    filter.dnf().into_iter().flatten().collect()
}

/// The streaming scheduler ([`bbpim_sched::run_stream`]) drives the
/// star cluster exactly like the pre-joined engine: join preludes are
/// ordinary phases in the first shard's log, so dimension filters and
/// bitmap broadcasts queue on the shared channel like any transfer.
impl bbpim_sched::StreamEngine for StarCluster {
    fn contention(&self) -> bool {
        StarCluster::contention(self)
    }

    fn host_config(&self) -> Option<bbpim_sim::config::HostConfig> {
        self.shards.first().map(|s| s.table.module().config().host.clone())
    }

    fn active_shards(&self) -> usize {
        StarCluster::active_shards(self)
    }

    fn ingest_lanes(&self) -> usize {
        StarCluster::ingest_lanes(self)
    }

    fn plan_mutation_lanes(&self, mutation: &Mutation) -> Result<Vec<usize>, ClusterError> {
        StarCluster::plan_mutation_lanes(self, mutation)
    }

    fn apply_mutation(
        &mut self,
        mutation: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        StarCluster::mutate_on_lanes(self, mutation)
    }

    fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        StarCluster::plan_shards(self, filter)
    }

    fn run_on_shard(
        &mut self,
        shard: usize,
        query: &Query,
    ) -> Result<QueryExecution, ClusterError> {
        StarCluster::run_on_shard(self, shard, query)
    }

    fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution {
        StarCluster::merge_executions(self, query, executions, shards_pruned)
    }
}

/// Build one transfer-ledger entry.
fn transfer_of(d: usize, disjunct: usize, bitmap: &KeyBitmap, broadcast: usize) -> JoinTransfer {
    JoinTransfer {
        dimension: DIMENSIONS[d].name.to_string(),
        disjunct,
        keys_selected: bitmap.keys_selected(),
        key_space: bitmap.key_space(),
        raw_bytes: bitmap.raw_bytes(),
        wire_bytes: bitmap.wire_bytes(),
        broadcast_shards: broadcast,
    }
}

/// Run one query on one fact shard against a compiled join plan.
fn exec_star_query(
    shard: &mut StarShard,
    dims: &[StarTable],
    query: &Query,
    plan: &JoinPlan,
    prelude: Option<&RunLog>,
    mode: EngineMode,
    prune: bool,
) -> Result<QueryExecution, ClusterError> {
    let qplan = query.physical_plan()?;
    // aggregate operands must be fact-resident: dimension values are
    // joined for grouping, never materialised per fact row
    for agg in &qplan.aggs {
        for a in agg.attrs() {
            if StarSchema::dim_of_attr(a).is_some() {
                return Err(ClusterError::Core(CoreError::Unsupported(format!(
                    "aggregating dimension attribute {a} on the normalized schema"
                ))));
            }
        }
    }
    let pages = shard.table.plan_dnf(&plan.bounds_dnf, prune);
    let (module, layout, loaded) = shard.table.parts_mut();
    let all_pages = loaded.all_pages();
    module.reset_endurance(&all_pages);
    let mut log = RunLog::new();
    if let Some(p) = prelude {
        log.extend(p);
    }
    log.push(pages.dispatch_phase(&module.config().host, module.policy(), 1));
    let fact_pages = pages.ids(loaded, 0);
    let selected = if pages.is_empty() {
        0
    } else {
        let prog = build_semijoin_mask_program_in(
            layout.scratch(0),
            &plan.disjuncts,
            &[VALID_COL],
            MASK_COL,
        )?;
        log.push(module.exec_program(&fact_pages, &prog).map_err(CoreError::from)?);
        count_mask_bits(module, &fact_pages, MASK_COL)
    };
    let records = loaded.records();

    let mut per_agg: Vec<GroupedResult> = vec![GroupedResult::new(); qplan.aggs.len()];
    let mut kmax = 0usize;
    let mut k = 0usize;
    if query.has_group_by() {
        per_agg = star_gather(module, layout, loaded, dims, query, &qplan, &pages, &mut log)?;
        kmax = per_agg.first().map_or(0, GroupedResult::len);
    } else if selected > 0 {
        let exprs: Vec<&bbpim_db::plan::AggExpr> =
            qplan.aggs.iter().filter_map(|a| a.expr.as_ref()).collect();
        let inputs = materialize_exprs(module, layout, loaded, &pages, &exprs, &mut log)?;
        let mut inputs_iter = inputs.into_iter();
        for (agg, grouped) in qplan.aggs.iter().zip(per_agg.iter_mut()) {
            let value = match &agg.expr {
                None => selected,
                Some(_) => {
                    let input = inputs_iter.next().expect("one input per expression");
                    aggregate_masked(
                        module, layout, loaded, &pages, mode, &input, MASK_COL, agg.func, &mut log,
                    )?
                }
            };
            grouped.insert(Vec::new(), value);
        }
        k = 1;
        kmax = 1;
    }

    let groups = qplan.finalize(&per_agg);
    let partials: Vec<PartialGroups> = qplan
        .aggs
        .iter()
        .zip(per_agg)
        .map(|(agg, grouped)| PartialGroups { func: agg.func, groups: grouped })
        .collect();
    let report = QueryReport {
        query_id: query.id.clone(),
        mode,
        host_bus_ns: log_occupancy_ns(&module.config().host, &log),
        time_ns: log.total_time_ns(),
        energy_pj: log.total_energy_pj(),
        peak_chip_power_w: log.peak_chip_power_w(),
        max_row_cell_writes: module.max_row_cell_writes(&all_pages),
        row_cells: module.config().crossbar_cols,
        records,
        pages: loaded.page_count(),
        pages_scanned: pages.len(),
        selected,
        selectivity: if records == 0 { 0.0 } else { selected as f64 / records as f64 },
        total_subgroups: kmax as u64,
        subgroups_in_sample: 0,
        pim_agg_subgroups: k as u64,
        phases: log,
    };
    Ok(QueryExecution { groups, partials, report })
}

/// Where one GROUP BY key comes from.
enum GroupSource {
    Fact(String),
    Dim { d: usize, attr: String },
}

/// Star host-gather: the host reads the mask, the selected fact
/// records' key/FK/operand chunks, and — for dimension group keys —
/// the referenced dimension rows' chunks (positional FK probe), then
/// hash-aggregates every SELECT item in one pass. Mirrors
/// [`bbpim_core::groupby::host_gb::run_host_gb`]'s exact unique-line
/// accounting on both the fact and the dimension modules.
#[allow(clippy::too_many_arguments)]
fn star_gather(
    module: &mut PimModule,
    layout: &RecordLayout,
    loaded: &LoadedRelation,
    dims: &[StarTable],
    query: &Query,
    qplan: &PhysicalPlan,
    pages: &PageSet,
    log: &mut RunLog,
) -> Result<Vec<GroupedResult>, CoreError> {
    let sources: Vec<GroupSource> = query
        .group_by
        .iter()
        .map(|g| match StarSchema::dim_of_attr(g) {
            None => GroupSource::Fact(g.clone()),
            Some(d) => GroupSource::Dim { d, attr: g.clone() },
        })
        .collect();

    // 1. filter-result bit-vector off the fact shard (wire-compressed
    //    under the byte diet: the mask packs module-side and only the
    //    wire bytes occupy the shared channel)
    let mask = mask_bits(module, loaded, pages, 0, MASK_COL);
    for phase in mask_read_phases(module, loaded, pages, &mask) {
        log.push(phase);
    }

    // 2. chunks per table: fact group keys + the FK of every dimension
    //    key + aggregate operands on the fact side; the referenced
    //    attributes on each dimension side
    let mut fact_attrs: Vec<&str> = Vec::new();
    let mut dim_attrs: [Vec<&str>; 4] = Default::default();
    for s in &sources {
        match s {
            GroupSource::Fact(n) => fact_attrs.push(n),
            GroupSource::Dim { d, attr } => {
                fact_attrs.push(DIMENSIONS[*d].fk);
                dim_attrs[*d].push(attr);
            }
        }
    }
    for agg in &qplan.aggs {
        fact_attrs.extend(agg.attrs());
    }
    fact_attrs.sort_unstable();
    fact_attrs.dedup();
    let chunk_map = layout.chunks_for(fact_attrs.iter().copied())?;
    let mut dim_chunks = Vec::with_capacity(4);
    for (d, da) in dim_attrs.iter_mut().enumerate() {
        da.sort_unstable();
        da.dedup();
        dim_chunks.push(if da.is_empty() {
            None
        } else {
            Some(dims[d].layout().chunks_for(da.iter().copied())?)
        });
    }

    // 3. exact unique-line accounting: fact and dimension lines live
    //    on different modules, so each module gets its own set (page
    //    ids collide across modules)
    let cfg = module.config().clone();
    let mut fact_lines = LineSet::new();
    let mut dim_lines = [LineSet::new(), LineSet::new(), LineSet::new(), LineSet::new()];
    for (record, selected) in mask.iter().enumerate() {
        if !selected {
            continue;
        }
        let (pg, slot) = loaded.locate(record);
        for (&partition, chunks) in &chunk_map {
            let page_id = loaded.pages(partition)[pg];
            let s = module.page(page_id).record_slot(slot)?;
            for &chunk in chunks {
                fact_lines.touch_bit_range(
                    &cfg,
                    page_id.0,
                    s.row,
                    chunk * cfg.read_width_bits,
                    cfg.read_width_bits,
                );
            }
        }
        for (d, chunks_of_dim) in dim_chunks.iter().enumerate() {
            let Some(dmap) = chunks_of_dim else { continue };
            let fk = read_attr_value(module, layout, loaded, record, DIMENSIONS[d].fk)?;
            let dim_row = (fk - DIMENSIONS[d].key_base) as usize;
            let dloaded = dims[d].loaded();
            let dmodule = dims[d].module();
            let dcfg = dmodule.config();
            let (dpg, dslot) = dloaded.locate(dim_row);
            for (&partition, chunks) in dmap {
                let page_id = dloaded.pages(partition)[dpg];
                let s = dmodule.page(page_id).record_slot(dslot)?;
                for &chunk in chunks {
                    dim_lines[d].touch_bit_range(
                        dcfg,
                        page_id.0,
                        s.row,
                        chunk * dcfg.read_width_bits,
                        dcfg.read_width_bits,
                    );
                }
            }
        }
    }
    let total_lines = fact_lines.len() + dim_lines.iter().map(LineSet::len).sum::<u64>();
    log.push(module.host_read_scattered_phase(total_lines));

    // 4. hash aggregation: dimension keys resolved through the dense
    //    positional probe, every SELECT item folded in one pass
    let mut out: Vec<GroupedResult> = vec![GroupedResult::new(); qplan.aggs.len()];
    let mut folded = 0u64;
    for (record, selected) in mask.iter().enumerate() {
        if !selected {
            continue;
        }
        folded += 1;
        let mut key = Vec::with_capacity(sources.len());
        for s in &sources {
            key.push(match s {
                GroupSource::Fact(n) => read_attr_value(module, layout, loaded, record, n)?,
                GroupSource::Dim { d, attr } => {
                    let fk = read_attr_value(module, layout, loaded, record, DIMENSIONS[*d].fk)?;
                    let dim_row = (fk - DIMENSIONS[*d].key_base) as usize;
                    read_attr_value(
                        dims[*d].module(),
                        dims[*d].layout(),
                        dims[*d].loaded(),
                        dim_row,
                        attr,
                    )?
                }
            });
        }
        for (agg, grouped) in qplan.aggs.iter().zip(out.iter_mut()) {
            let v = match &agg.expr {
                None => 1,
                Some(expr) => eval_expr(module, layout, loaded, record, expr)?,
            };
            grouped
                .entry(key.clone())
                .and_modify(|acc| *acc = agg.func.merge(*acc, v))
                .or_insert(v);
        }
    }
    let per_record = cfg.host.host_agg_ns_per_record / cfg.host.threads as f64;
    log.push(Phase::host_compute(folded as f64 * per_record));
    Ok(out)
}

impl std::fmt::Debug for StarCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StarCluster")
            .field("shards", &self.shard_count)
            .field("active", &self.shards.len())
            .field("partitioner", &self.partitioner.label())
            .field("mode", &self.mode)
            .field("records", &self.records)
            .field("pruning", &self.pruning)
            .finish()
    }
}

#[cfg(test)]
mod planner_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_db::ssb::{queries, SsbParams};
    use bbpim_db::stats;

    fn db() -> SsbDb {
        SsbDb::generate(&SsbParams::tiny_for_tests())
    }

    fn cluster(db: &SsbDb, shards: usize) -> StarCluster {
        StarCluster::new(
            SimConfig::small_for_tests(),
            db,
            EngineMode::OneXb,
            shards,
            Partitioner::RoundRobin,
        )
        .unwrap()
    }

    /// The oracle runs on the pre-joined relation; attribute names are
    /// globally unique, so the same query text answers both models.
    fn oracle(db: &SsbDb, q: &Query) -> bbpim_db::stats::MultiGrouped {
        stats::run_oracle(q, &db.prejoin()).unwrap()
    }

    #[test]
    fn q1_matches_prejoined_oracle() {
        let db = db();
        let mut c = cluster(&db, 2);
        let q = queries::standard_query("Q1.1").unwrap();
        let out = c.run(&q).unwrap();
        assert_eq!(out.groups, oracle(&db, &q));
        assert!(out.report.selected > 0);
        assert!(out.report.time_ns > 0.0);
    }

    #[test]
    fn grouped_query_with_dimension_keys_matches_oracle() {
        let db = db();
        let mut c = cluster(&db, 2);
        // Q2.1 groups by d_year, p_brand1 — both dimension attributes
        let q = queries::standard_query("Q2.1").unwrap();
        let out = c.run(&q).unwrap();
        assert_eq!(out.groups, oracle(&db, &q));
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let db = db();
        let mut c = cluster(&db, 2);
        let q = queries::standard_query("Q1.2").unwrap();
        let a = c.run(&q).unwrap();
        let b = c.run(&q).unwrap();
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.report.time_ns, b.report.time_ns, "prelude must recharge per run");
    }

    #[test]
    fn explain_reports_join_transfers_and_hull_bounds() {
        let db = db();
        let c = cluster(&db, 2);
        let q = queries::standard_query("Q1.1").unwrap(); // d_year = 1993
        let ex = c.explain(&q).unwrap();
        assert_eq!(ex.join_transfers.len(), 1);
        let t = &ex.join_transfers[0];
        assert_eq!(t.dimension, "date");
        assert_eq!(t.keys_selected, 365);
        assert_eq!(t.key_space, 2556);
        assert!(t.wire_bytes < t.raw_bytes, "one-year run must compress");
        assert_eq!(t.broadcast_shards, 2);
        // the join hull appears as a bound on the FK attribute
        assert!(ex.filter_bounds.iter().any(|(a, _)| a == "lo_orderdate"));
    }

    #[test]
    fn empty_dimension_selection_prunes_everything() {
        let db = db();
        let mut c = cluster(&db, 2);
        let mut q = queries::standard_query("Q1.1").unwrap();
        q.filter = Pred::all(vec![Atom::Eq {
            attr: "d_year".into(),
            value: bbpim_db::plan::Const::from(2050u64),
        }]);
        assert!(c.plan_shards(&q.filter).unwrap().iter().all(|d| !d));
        let out = c.run(&q).unwrap();
        assert_eq!(out.report.selected, 0);
        assert!(out.groups.is_empty());
    }

    #[test]
    fn footprints_stay_below_a_third_of_prejoin() {
        let db = db();
        let c = cluster(&db, 2);
        let fps = c.footprints();
        assert_eq!(fps.len(), 5);
        assert_eq!(fps[0].table, "lineorder");
        assert_eq!(fps[0].records, db.lineorder.len());
        assert!(c.total_data_bytes() > 0);
    }

    #[test]
    fn dimension_update_invalidates_plans_and_changes_answers() {
        let db = db();
        let mut c = cluster(&db, 2);
        let q = queries::standard_query("Q1.1").unwrap();
        let before = c.run(&q).unwrap();
        // move 1994 into 1993: Q1.1's d_year = 1993 filter now selects
        // twice the days
        let m = Mutation::update()
            .filter(bbpim_db::builder::col("d_year").eq(1994u64))
            .set("d_year", 1993u64)
            .build_unchecked();
        let rep = c.mutate(&m).unwrap();
        assert_eq!(rep.records_updated, 365);
        let after = c.run(&q).unwrap();
        assert!(after.report.selected > before.report.selected);
        // oracle agreement on the updated data
        let mut wide = db.prejoin();
        let widx = wide.schema().index_of("d_year").unwrap();
        for row in 0..wide.len() {
            if wide.value(row, widx) == 1994 {
                wide.set_value(row, widx, 1993).unwrap();
            }
        }
        assert_eq!(after.groups, stats::run_oracle(&q, &wide).unwrap());
    }

    #[test]
    fn streamed_star_queries_match_direct_runs() {
        use bbpim_sched::{run_stream, SchedConfig, Workload};
        let db = db();
        let queries: Vec<Query> = ["Q1.1", "Q1.2", "Q1.3"]
            .iter()
            .map(|id| queries::standard_query(id).unwrap())
            .collect();
        let workload = Workload::poisson(queries.clone(), 6, 50_000.0, 7);
        let mut c = cluster(&db, 4);
        let out = run_stream(&mut c, &workload, &SchedConfig::default()).unwrap();
        assert_eq!(out.completions.len(), 6);
        assert!(out.makespan_ns > 0.0);
        let mut direct = cluster(&db, 4);
        for (arrival, exec) in workload.arrivals().iter().zip(&out.executions) {
            let want = direct.run(&queries[arrival.query]).unwrap();
            assert_eq!(exec.groups, want.groups);
        }
    }

    #[test]
    fn cross_table_update_rejected() {
        let db = db();
        let mut c = cluster(&db, 1);
        let m = Mutation::update()
            .filter(bbpim_db::builder::col("d_year").eq(1993u64))
            .set("lo_discount", 0u64)
            .build_unchecked();
        assert!(matches!(c.mutate(&m), Err(ClusterError::InvalidCluster(_))));
    }
}
