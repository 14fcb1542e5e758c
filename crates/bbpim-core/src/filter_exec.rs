//! Filter execution: compile the query's filter (in disjunctive normal
//! form) to bulk-bitwise microprograms and leave a one-bit mask per
//! record.
//!
//! In `one-xb` mode a single program evaluates every DNF disjunct (a
//! conjunction of atoms), ORs the disjunct terms together and ANDs in
//! the validity bit. In `two-xb` mode each disjunct is evaluated in
//! sequence: its dimension-side atoms produce a mask that is
//! *transferred through the host* — read as cache lines, rewritten into
//! the fact partition's transfer chunk — before the fact-side program
//! combines the disjunct and ORs it into the accumulated mask (the
//! inter-partition traffic Section III predicts vertical partitioning
//! will pay, now once per disjunct that touches a dimension).
//!
//! Either way the mask is built **once per query** and reused by every
//! aggregate in the SELECT list — the multi-aggregate surface's whole
//! point: aggregates cost aggregate passes, not extra filter passes.

use bbpim_db::plan::ResolvedAtom;
use bbpim_sim::compiler::predicate;
use bbpim_sim::compiler::{CodeBuilder, ColRange, ScratchPool};
use bbpim_sim::isa::Microprogram;
use bbpim_sim::maskwire;
use bbpim_sim::module::{PageId, PimModule};
use bbpim_sim::timeline::{Phase, RunLog};

use crate::error::CoreError;
use crate::layout::{AttrPlacement, RecordLayout, MASK_COL, TRANSFER_COL, VALID_COL};
use crate::loader::LoadedRelation;
use crate::planner::PageSet;

/// Result of the filter phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterOutcome {
    /// Records whose mask bit is set.
    pub selected: u64,
    /// `selected / records`.
    pub selectivity: f64,
}

/// Emit one atom's predicate program; returns the result column.
///
/// # Errors
///
/// Propagates compiler failures (scratch exhaustion, bad constants).
pub fn compile_atom(
    b: &mut CodeBuilder<'_>,
    atom: &ResolvedAtom,
    range: ColRange,
) -> Result<usize, CoreError> {
    let col = match atom {
        ResolvedAtom::Eq { value, .. } => predicate::compile_eq_const(b, range, *value)?,
        ResolvedAtom::Between { lo, hi, .. } => {
            predicate::compile_between_const(b, range, *lo, *hi)?
        }
        ResolvedAtom::Lt { value, .. } => predicate::compile_lt_const(b, range, *value)?,
        ResolvedAtom::Gt { value, .. } => predicate::compile_gt_const(b, range, *value)?,
        ResolvedAtom::In { values, .. } => predicate::compile_in_set(b, range, values)?,
    };
    Ok(col)
}

/// Copy a one-bit column into `dst` (INIT + double NOT, 4 cycles).
pub fn copy_col(b: &mut CodeBuilder<'_>, src: usize, dst: usize) -> Result<(), CoreError> {
    let t = b.emit_not(src)?;
    b.program_mut().gate_nor(t, t, dst);
    b.release(t);
    Ok(())
}

/// Build the program that evaluates the conjunction `atoms`
/// (pre-resolved to column ranges of this partition), ANDs in
/// `and_cols` (validity, transferred masks…), and writes the result to
/// `dst_col`. Uses the partition's whole scratch region — see
/// [`build_mask_program_in`] when part of the scratch is reserved (e.g.
/// by a materialised aggregate expression).
///
/// # Errors
///
/// Propagates compiler failures.
pub fn build_mask_program(
    layout: &RecordLayout,
    partition: usize,
    atoms: &[(ResolvedAtom, ColRange)],
    and_cols: &[usize],
    dst_col: usize,
) -> Result<Microprogram, CoreError> {
    build_mask_program_in(layout.scratch(partition), atoms, and_cols, dst_col)
}

/// [`build_mask_program`] with an explicit scratch region.
///
/// # Errors
///
/// Propagates compiler failures.
pub fn build_mask_program_in(
    scratch: ColRange,
    atoms: &[(ResolvedAtom, ColRange)],
    and_cols: &[usize],
    dst_col: usize,
) -> Result<Microprogram, CoreError> {
    build_accumulate_program_in(scratch, atoms, and_cols, dst_col, false)
}

/// Build the program for one DNF disjunct: `conj(atoms) AND and_cols`,
/// optionally ORed into the current contents of `dst_col` (the
/// accumulation step of multi-disjunct two-xb filtering).
///
/// # Errors
///
/// Propagates compiler failures.
pub fn build_accumulate_program_in(
    scratch: ColRange,
    atoms: &[(ResolvedAtom, ColRange)],
    and_cols: &[usize],
    dst_col: usize,
    accumulate: bool,
) -> Result<Microprogram, CoreError> {
    let mut pool = ScratchPool::new(scratch);
    let mut b = CodeBuilder::new(&mut pool);
    let mut terms: Vec<usize> = Vec::with_capacity(atoms.len() + and_cols.len());
    for (atom, range) in atoms {
        terms.push(compile_atom(&mut b, atom, *range)?);
    }
    terms.extend_from_slice(and_cols);
    let conj = b.emit_and_many(&terms)?;
    let result = if accumulate {
        let ored = b.emit_or(conj, dst_col)?;
        b.release(conj);
        ored
    } else {
        conj
    };
    copy_col(&mut b, result, dst_col)?;
    b.release(result);
    Ok(b.finish())
}

/// Build one program evaluating a whole DNF inside a single partition:
/// each disjunct's conjunction term, OR across disjuncts, AND
/// `and_cols`, result to `dst_col`. An empty conjunction contributes a
/// constant-true term; zero disjuncts write an all-false mask.
///
/// # Errors
///
/// Propagates compiler failures.
pub fn build_dnf_mask_program_in(
    scratch: ColRange,
    disjuncts: &[Vec<(ResolvedAtom, ColRange)>],
    and_cols: &[usize],
    dst_col: usize,
) -> Result<Microprogram, CoreError> {
    let mut pool = ScratchPool::new(scratch);
    let mut b = CodeBuilder::new(&mut pool);
    if disjuncts.is_empty() {
        // FALSE: an executed filter must still leave a well-defined
        // (all-false) mask on the touched pages.
        let zero = b.zero()?;
        copy_col(&mut b, zero, dst_col)?;
        return Ok(b.finish());
    }
    let mut terms: Vec<usize> = Vec::with_capacity(disjuncts.len());
    for conj in disjuncts {
        if conj.is_empty() {
            terms.push(b.one()?);
            continue;
        }
        let mut atom_cols: Vec<usize> = Vec::with_capacity(conj.len());
        for (atom, range) in conj {
            atom_cols.push(compile_atom(&mut b, atom, *range)?);
        }
        let term = b.emit_and_many(&atom_cols)?;
        for c in atom_cols {
            b.release(c);
        }
        terms.push(term);
    }
    let selected = if terms.len() == 1 {
        terms[0]
    } else {
        let ored = b.emit_or_many(terms.clone())?;
        for c in terms {
            b.release(c);
        }
        ored
    };
    let mut all: Vec<usize> = Vec::with_capacity(1 + and_cols.len());
    all.push(selected);
    all.extend_from_slice(and_cols);
    let combined = b.emit_and_many(&all)?;
    b.release(selected);
    copy_col(&mut b, combined, dst_col)?;
    b.release(combined);
    Ok(b.finish())
}

/// Count the set bits of a one-bit column over a partition's pages.
pub fn count_mask_bits(module: &PimModule, pages: &[PageId], col: usize) -> u64 {
    pages.iter().map(|&p| module.page(p).popcount_col(col) as u64).sum()
}

/// Read a one-bit column of a partition's *planned* pages into a
/// per-record vector; records on pruned pages read `false` (the
/// all-false mask semantics pruning guarantees). Charging for the host
/// read is the caller's decision via [`mask_read_lines`].
pub fn mask_bits(
    module: &PimModule,
    loaded: &LoadedRelation,
    pages: &PageSet,
    partition: usize,
    col: usize,
) -> Vec<bool> {
    let mut out = vec![false; loaded.records()];
    for (pg_idx, pid) in pages.entries(loaded, partition) {
        for slot in module.page(pid).ones_in_col(col) {
            if let Some(bit) = out.get_mut(loaded.record_at(pg_idx, slot)) {
                *bit = true;
            }
        }
    }
    out
}

/// Cache lines needed to read a page-run's one-bit mask column: one line
/// per (page, row) — 1024 lines per 2 MB page, the paper's 32× read
/// reduction.
pub fn mask_read_lines(module: &PimModule, pages: &[PageId]) -> u64 {
    pages.len() as u64 * module.config().crossbar_rows as u64
}

/// The per-record mask bits of the *planned* pages, in page order — the
/// payload an inter-partition mask transfer actually moves. `bits` is
/// the full per-record vector ([`mask_bits`]).
pub fn planned_mask_payload(loaded: &LoadedRelation, pages: &PageSet, bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(pages.len() * loaded.records_per_page());
    for &pg_idx in pages.indices() {
        for slot in 0..loaded.records_per_page() {
            let record = loaded.record_at(pg_idx, slot);
            if record >= loaded.records() {
                break;
            }
            out.push(bits[record]);
        }
    }
    out
}

/// The host-channel phases of one inter-partition mask transfer over
/// the planned pages: a host read out of the source partition and a
/// host write into the destination, plus — on the compressed path — the
/// module-local pack/unpack phase.
///
/// Legacy: both sides cost one line per (page, row)
/// ([`mask_read_lines`]). With [`bbpim_sim::XferPolicy::compress_masks`]
/// the transfer is charged at the [`maskwire`] size of the planned
/// pages' mask bits (8-byte header + min(bit-packed, RLE)) and the
/// leftover cell traffic becomes a `PimUnpack` phase that never touches
/// the channel. Falls back to the raw transfer when the wire format
/// does not win. Answers are unaffected either way — the mask bits are
/// moved exactly, which the round-trip debug assertion checks.
pub fn mask_transfer_phases(
    module: &PimModule,
    loaded: &LoadedRelation,
    pages: &PageSet,
    bits: &[bool],
) -> Vec<Phase> {
    let raw_lines = pages.len() as u64 * module.config().crossbar_rows as u64;
    if module.policy().compress_masks {
        let payload = planned_mask_payload(loaded, pages, bits);
        debug_assert_eq!(
            maskwire::decode_rle(payload.len() as u64, &maskwire::encode_rle(&payload)).as_deref(),
            Some(payload.as_slice()),
            "mask wire format must round-trip bit-identically"
        );
        let wire_lines = maskwire::wire_lines(&payload, module.config().host.line_bytes as u64);
        if wire_lines < raw_lines {
            let (read, write, unpack) = module.compressed_mask_phases(raw_lines, wire_lines);
            return vec![read, write, unpack];
        }
    }
    vec![module.host_read_phase(raw_lines), module.host_write_phase(raw_lines)]
}

/// The host-channel phases of reading the planned pages' mask column
/// back to the host — the filter-result fetch of the host-side GROUP
/// BY gather (pre-joined and star). Legacy: one line per (page, row)
/// ([`mask_read_lines`]). With
/// [`bbpim_sim::XferPolicy::compress_masks`] the read is charged at
/// the [`maskwire`] size of the planned pages' mask bits and the
/// leftover cell traffic becomes a module-local `PimPack` phase off
/// the channel — the read-direction mirror of
/// [`mask_transfer_phases`], with the same conservation (total time
/// and energy match the raw read exactly).
pub fn mask_read_phases(
    module: &PimModule,
    loaded: &LoadedRelation,
    pages: &PageSet,
    bits: &[bool],
) -> Vec<Phase> {
    let raw_lines = pages.len() as u64 * module.config().crossbar_rows as u64;
    if module.policy().compress_masks {
        let payload = planned_mask_payload(loaded, pages, bits);
        let wire_lines = maskwire::wire_lines(&payload, module.config().host.line_bytes as u64);
        if wire_lines < raw_lines {
            let (read, pack) = module.compressed_mask_read_phases(raw_lines, wire_lines);
            return vec![read, pack];
        }
    }
    vec![module.host_read_phase(raw_lines)]
}

/// Execute the query filter (resolved DNF, placements attached) over
/// the *planned* pages, leaving the final mask in partition 0's
/// [`MASK_COL`] of those pages. Pruned pages are never touched: no
/// program executes on them and their records count as unselected
/// (sound, because the planner proved they cannot match). Pushes every
/// phase (PIM programs, transfer reads and writes) to `log`; an empty
/// plan pushes nothing and selects nothing.
///
/// # Errors
///
/// Propagates compiler/simulator failures; unknown attributes have been
/// resolved by the caller.
pub fn run_filter(
    module: &mut PimModule,
    layout: &RecordLayout,
    loaded: &LoadedRelation,
    disjuncts: &[Vec<(ResolvedAtom, AttrPlacement)>],
    pages: &PageSet,
    log: &mut RunLog,
) -> Result<FilterOutcome, CoreError> {
    if pages.is_empty() {
        return Ok(FilterOutcome { selected: 0, selectivity: 0.0 });
    }
    let fact_pages = pages.ids(loaded, 0);

    if layout.partitions() == 1 {
        let ranged: Vec<Vec<(ResolvedAtom, ColRange)>> = disjuncts
            .iter()
            .map(|conj| conj.iter().map(|(a, p)| (a.clone(), p.range)).collect())
            .collect();
        let prog = build_dnf_mask_program_in(layout.scratch(0), &ranged, &[VALID_COL], MASK_COL)?;
        log.push(module.exec_program(&fact_pages, &prog)?);
    } else if disjuncts.is_empty() {
        // FALSE filter under exhaustive dispatch: all-false fact mask.
        let prog = build_dnf_mask_program_in(layout.scratch(0), &[], &[VALID_COL], MASK_COL)?;
        log.push(module.exec_program(&fact_pages, &prog)?);
    } else {
        // two-xb: evaluate disjunct by disjunct, ORing into the fact
        // mask. Each disjunct's dimension-side conjunction travels
        // through the host once.
        for (i, conj) in disjuncts.iter().enumerate() {
            let mut fact_atoms: Vec<(ResolvedAtom, ColRange)> = Vec::new();
            let mut dim_atoms: Vec<(ResolvedAtom, ColRange)> = Vec::new();
            for (atom, placement) in conj {
                let entry = (atom.clone(), placement.range);
                if placement.partition == 0 {
                    fact_atoms.push(entry);
                } else {
                    dim_atoms.push(entry);
                }
            }
            let mut fact_and = vec![VALID_COL];
            if !dim_atoms.is_empty() {
                // Dimension-side conjunction of this disjunct…
                let dim_pages = pages.ids(loaded, 1);
                let prog = build_mask_program(layout, 1, &dim_atoms, &[VALID_COL], MASK_COL)?;
                log.push(module.exec_program(&dim_pages, &prog)?);
                // …travels through the host into the fact partition, in
                // the compressed wire format when the policy allows.
                let bits = mask_bits(module, loaded, pages, 1, MASK_COL);
                for phase in mask_transfer_phases(module, loaded, pages, &bits) {
                    log.push(phase);
                }
                write_transfer_bits(module, loaded, &bits, pages)?;
                fact_and.push(TRANSFER_COL);
            }
            let prog = build_accumulate_program_in(
                layout.scratch(0),
                &fact_atoms,
                &fact_and,
                MASK_COL,
                i > 0,
            )?;
            log.push(module.exec_program(&fact_pages, &prog)?);
        }
    }

    let selected = count_mask_bits(module, &fact_pages, MASK_COL);
    let selectivity =
        if loaded.records() == 0 { 0.0 } else { selected as f64 / loaded.records() as f64 };
    Ok(FilterOutcome { selected, selectivity })
}

/// Write a per-record bit vector into a partition's transfer chunk on
/// the planned pages (the host writes whole 16-bit chunks, so each
/// record's row takes a 16-cell write).
///
/// # Errors
///
/// Propagates page-slot failures.
pub fn write_transfer_bits_to(
    module: &mut PimModule,
    loaded: &LoadedRelation,
    bits: &[bool],
    partition: usize,
    pages: &PageSet,
) -> Result<(), CoreError> {
    let entries: Vec<(usize, PageId)> = pages.entries(loaded, partition).collect();
    let mut values = Vec::with_capacity(loaded.records_per_page());
    for (pg_idx, pid) in entries {
        let first = loaded.record_at(pg_idx, 0).min(bits.len());
        let last = (first + loaded.records_per_page()).min(bits.len());
        values.clear();
        values.extend(bits[first..last].iter().map(|b| u64::from(*b)));
        module.page_mut(pid).write_records(0, TRANSFER_COL, 16, &values)?;
    }
    Ok(())
}

/// [`write_transfer_bits_to`] targeting partition 0 (the common case:
/// dimension masks travel to the fact partition).
///
/// # Errors
///
/// Propagates page-slot failures.
pub fn write_transfer_bits(
    module: &mut PimModule,
    loaded: &LoadedRelation,
    bits: &[bool],
    pages: &PageSet,
) -> Result<(), CoreError> {
    write_transfer_bits_to(module, loaded, bits, 0, pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RecordLayout;
    use crate::loader::load_relation;
    use crate::modes::EngineMode;
    use bbpim_db::builder::col;
    use bbpim_db::plan::{Atom, Query, SelectItem};
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_db::Relation;
    use bbpim_sim::SimConfig;

    fn setup(mode: EngineMode) -> (PimModule, Relation, RecordLayout, LoadedRelation) {
        let cfg = SimConfig::small_for_tests();
        let schema =
            Schema::new("t", vec![Attribute::numeric("lo_v", 8), Attribute::numeric("d_g", 4)]);
        let mut rel = Relation::new(schema);
        for i in 0..600u64 {
            rel.push_row(&[i % 200, i % 10]).unwrap();
        }
        let layout = RecordLayout::build(rel.schema(), &cfg, mode, &[]).unwrap();
        let mut module = PimModule::new(cfg);
        let loaded = load_relation(&mut module, &rel, &layout).unwrap();
        (module, rel, layout, loaded)
    }

    /// Resolve a query's DNF with placements (what the engine hands
    /// `run_filter`).
    fn resolved(
        query: &Query,
        rel: &Relation,
        layout: &RecordLayout,
    ) -> Vec<Vec<(ResolvedAtom, AttrPlacement)>> {
        let schema = rel.schema();
        query
            .resolve_filter(schema)
            .unwrap()
            .into_iter()
            .map(|conj| {
                conj.into_iter()
                    .map(|atom| {
                        let name = &schema.attrs()[atom.attr_index()].name;
                        let placement = layout.placement(name).unwrap();
                        (atom, placement)
                    })
                    .collect()
            })
            .collect()
    }

    fn query(filter: Vec<Atom>) -> Query {
        Query::single(
            "t",
            filter,
            vec![],
            bbpim_db::plan::AggFunc::Sum,
            bbpim_db::plan::AggExpr::attr("lo_v"),
        )
    }

    #[test]
    fn one_xb_filter_matches_oracle() {
        let (mut module, rel, layout, loaded) = setup(EngineMode::OneXb);
        let q = query(vec![
            Atom::Lt { attr: "lo_v".into(), value: 50u64.into() },
            Atom::Eq { attr: "d_g".into(), value: 3u64.into() },
        ]);
        let atoms = resolved(&q, &rel, &layout);
        let mut log = RunLog::new();
        let pages = PageSet::all(loaded.page_count());
        let out = run_filter(&mut module, &layout, &loaded, &atoms, &pages, &mut log).unwrap();
        let expected = bbpim_db::stats::filter_bitvec(&q, &rel).unwrap();
        assert_eq!(out.selected, expected.iter().filter(|b| **b).count() as u64);
        // per-record mask identical to the oracle
        let mask = mask_bits(&module, &loaded, &pages, 0, MASK_COL);
        assert_eq!(mask, expected);
        assert!(log.total_time_ns() > 0.0);
    }

    #[test]
    fn disjunctive_filter_matches_oracle_both_modes() {
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let (mut module, rel, layout, loaded) = setup(mode);
            // (lo_v < 30 AND d_g = 2) OR (lo_v > 150) OR (d_g = 7)
            let q = Query::select([SelectItem::count("n")])
                .filter(
                    col("lo_v")
                        .lt(30u64)
                        .and(col("d_g").eq(2u64))
                        .or(col("lo_v").gt(150u64))
                        .or(col("d_g").eq(7u64)),
                )
                .build(rel.schema())
                .unwrap();
            let atoms = resolved(&q, &rel, &layout);
            assert_eq!(atoms.len(), 3, "three disjuncts");
            let mut log = RunLog::new();
            let pages = PageSet::all(loaded.page_count());
            let out = run_filter(&mut module, &layout, &loaded, &atoms, &pages, &mut log).unwrap();
            let expected = bbpim_db::stats::filter_bitvec(&q, &rel).unwrap();
            assert_eq!(out.selected, expected.iter().filter(|b| **b).count() as u64, "{mode:?}");
            let mask = mask_bits(&module, &loaded, &pages, 0, MASK_COL);
            assert_eq!(mask, expected, "{mode:?}");
        }
    }

    #[test]
    fn two_xb_disjunction_charges_one_transfer_per_dim_disjunct() {
        use bbpim_sim::timeline::PhaseKind;
        let (mut module, rel, layout, loaded) = setup(EngineMode::TwoXb);
        // two disjuncts with dimension atoms, one without
        let q = Query::select([SelectItem::count("n")])
            .filter(col("d_g").eq(1u64).or(col("d_g").eq(5u64)).or(col("lo_v").lt(10u64)))
            .build(rel.schema())
            .unwrap();
        let atoms = resolved(&q, &rel, &layout);
        let mut log = RunLog::new();
        let pages = PageSet::all(loaded.page_count());
        let out = run_filter(&mut module, &layout, &loaded, &atoms, &pages, &mut log).unwrap();
        let expected = bbpim_db::stats::filter_bitvec(&q, &rel).unwrap();
        assert_eq!(out.selected, expected.iter().filter(|b| **b).count() as u64);
        // exactly two host read+write transfer pairs (the lo_v disjunct
        // stays fact-side)
        let reads = log.phases().iter().filter(|p| p.kind == PhaseKind::HostRead).count();
        let writes = log.phases().iter().filter(|p| p.kind == PhaseKind::HostWrite).count();
        assert_eq!(reads, 2);
        assert_eq!(writes, 2);
    }

    #[test]
    fn two_xb_filter_matches_oracle_and_charges_transfer() {
        let (mut module, rel, layout, loaded) = setup(EngineMode::TwoXb);
        let q = query(vec![
            Atom::Lt { attr: "lo_v".into(), value: 120u64.into() },
            Atom::In { attr: "d_g".into(), values: vec![2u64.into(), 7u64.into()] },
        ]);
        let atoms = resolved(&q, &rel, &layout);
        let mut log = RunLog::new();
        let pages = PageSet::all(loaded.page_count());
        let out = run_filter(&mut module, &layout, &loaded, &atoms, &pages, &mut log).unwrap();
        let expected = bbpim_db::stats::filter_bitvec(&q, &rel).unwrap();
        assert_eq!(out.selected, expected.iter().filter(|b| **b).count() as u64);
        let mask = mask_bits(&module, &loaded, &pages, 0, MASK_COL);
        assert_eq!(mask, expected);
        // transfer phases present: at least one host read + one host write
        use bbpim_sim::timeline::PhaseKind;
        assert!(log.time_in(PhaseKind::HostRead) > 0.0);
        assert!(log.time_in(PhaseKind::HostWrite) > 0.0);
    }

    #[test]
    fn two_xb_without_dim_atoms_skips_transfer() {
        let (mut module, rel, layout, loaded) = setup(EngineMode::TwoXb);
        let q = query(vec![Atom::Gt { attr: "lo_v".into(), value: 150u64.into() }]);
        let atoms = resolved(&q, &rel, &layout);
        let mut log = RunLog::new();
        run_filter(
            &mut module,
            &layout,
            &loaded,
            &atoms,
            &PageSet::all(loaded.page_count()),
            &mut log,
        )
        .unwrap();
        use bbpim_sim::timeline::PhaseKind;
        assert_eq!(log.time_in(PhaseKind::HostRead), 0.0);
    }

    #[test]
    fn false_filter_selects_nothing_exhaustively() {
        // an empty DNF (Pred::Or(vec![])) run over all pages must leave
        // an all-false mask
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let (mut module, _rel, layout, loaded) = setup(mode);
            let mut log = RunLog::new();
            let pages = PageSet::all(loaded.page_count());
            let out = run_filter(&mut module, &layout, &loaded, &[], &pages, &mut log).unwrap();
            assert_eq!(out.selected, 0, "{mode:?}");
            assert!(mask_bits(&module, &loaded, &pages, 0, MASK_COL).iter().all(|b| !b));
        }
    }

    #[test]
    fn padding_rows_never_selected() {
        let (mut module, rel, layout, loaded) = setup(EngineMode::OneXb);
        // trivially-true filter: v < 256 selects every *valid* record
        let q = query(vec![Atom::Lt { attr: "lo_v".into(), value: 255u64.into() }]);
        let atoms = resolved(&q, &rel, &layout);
        let mut log = RunLog::new();
        let pages = PageSet::all(loaded.page_count());
        let out = run_filter(&mut module, &layout, &loaded, &atoms, &pages, &mut log).unwrap();
        // 600 records, none of the padding slots counted
        let expected =
            rel.column_by_name("lo_v").unwrap().values().iter().filter(|v| **v < 255).count();
        assert_eq!(out.selected, expected as u64);
    }

    #[test]
    fn empty_filter_selects_all_valid() {
        let (mut module, rel, layout, loaded) = setup(EngineMode::OneXb);
        let q = query(vec![]);
        let atoms = resolved(&q, &rel, &layout);
        let mut log = RunLog::new();
        let pages = PageSet::all(loaded.page_count());
        let out = run_filter(&mut module, &layout, &loaded, &atoms, &pages, &mut log).unwrap();
        assert_eq!(out.selected, rel.len() as u64);
        assert!((out.selectivity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mask_read_lines_is_rows_times_pages() {
        let (module, _rel, _layout, loaded) = setup(EngineMode::OneXb);
        let lines = mask_read_lines(&module, loaded.pages(0));
        assert_eq!(lines, (loaded.page_count() * module.config().crossbar_rows) as u64);
    }
}
