//! A huge page: the unit of PIM storage and execution.
//!
//! A 2 MB page consists of 32 crossbars that its PIM controller drives
//! in lock-step — one PIM request executes the same microprogram on all
//! of them concurrently (Section II-B). Records fill a page
//! *interleaved*: record `r` lives in crossbar `r mod 32` at row
//! `r div 32`, so 32 consecutive records share one row index and hence
//! one cache line per chunk — the layout behind both the read
//! amplification and the dense-scan amortisation the paper describes.
//!
//! # Slab layout
//!
//! The simulator mirrors the lock-step hardware: a page is *one*
//! column-major bits-plus-wear store ([`Crossbar`] over a
//! [`BitMatrix`]) of `crossbars × crossbar_rows` rows. Crossbar `k`
//! owns rows `k·crossbar_rows ..` — word block `k` of every column —
//! so a column op is a single pass over the page's contiguous column
//! words, column-op wear is one shared offset for the whole page, and a
//! row op applies to row `dst` of every crossbar. Per-crossbar results
//! (aggregation-circuit and reduction-tree partials) fold each
//! crossbar's word block.
//!
//! # Bulk record transfer
//!
//! Column word `j` of crossbar `k`'s block holds that crossbar's rows
//! `64j .. 64j+64`, i.e. records `k + 32·(64j + i)` for `i < 64`. The
//! bulk writer
//! ([`PimPage::write_records`]) gathers those 64 values at stride 32
//! and transposes them into `width` column words; the gather
//! ([`PimPage::read_records`]) transposes a word's rows back out when
//! enough of them are wanted. Every written row is charged `width`
//! cell writes, exactly as a per-record write would be.

use crate::aggcircuit::AggRequest;
use crate::bitmat::BitMatrix;
use crate::compiler::ColRange;
use crate::config::SimConfig;
use crate::crossbar::{Crossbar, ExecSummary};
use crate::error::SimError;
use crate::isa::Microprogram;

/// A run of at least this many wanted records sharing one column word
/// is gathered with one 64×64 transpose (6 × 32 word swaps) rather
/// than bit by bit (`width` ops per record).
const GATHER_TRANSPOSE_MIN: usize = 8;

/// A record's physical slot inside a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordSlot {
    /// Crossbar index within the page.
    pub crossbar: usize,
    /// Row within the crossbar.
    pub row: usize,
}

/// One huge page: `crossbars_per_page` crossbars driven in lock-step,
/// stored as one slab (module docs).
#[derive(Debug, Clone)]
pub struct PimPage {
    slab: Crossbar,
    crossbars: usize,
    rows: usize,
}

impl PimPage {
    /// Create a zeroed page for a configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        let crossbars = cfg.crossbars_per_page();
        let slab = Crossbar::new(crossbars * cfg.crossbar_rows, cfg.crossbar_cols);
        PimPage { slab, crossbars, rows: cfg.crossbar_rows }
    }

    /// Crossbars in this page.
    pub fn crossbar_count(&self) -> usize {
        self.crossbars
    }

    /// Rows of each crossbar.
    pub fn crossbar_rows(&self) -> usize {
        self.rows
    }

    /// Records this page can hold.
    pub fn record_capacity(&self) -> usize {
        self.crossbars * self.rows
    }

    /// The page's cells: crossbar `k`'s row `r` is slab row
    /// `k · crossbar_rows + r` (module docs).
    pub fn bits(&self) -> &BitMatrix {
        self.slab.bits()
    }

    /// Physical slot of record `r` (interleaved mapping).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RowOutOfRange`] past the page capacity.
    pub fn record_slot(&self, r: usize) -> Result<RecordSlot, SimError> {
        if r >= self.record_capacity() {
            return Err(SimError::RowOutOfRange { row: r, rows: self.record_capacity() });
        }
        Ok(RecordSlot { crossbar: r % self.crossbars, row: r / self.crossbars })
    }

    /// Inverse of [`PimPage::record_slot`].
    pub fn slot_record(&self, slot: RecordSlot) -> usize {
        slot.row * self.crossbars + slot.crossbar
    }

    /// Slab row of a slot.
    fn slab_row(&self, slot: RecordSlot) -> usize {
        slot.crossbar * self.rows + slot.row
    }

    /// Count the set cells of `col` over the whole page.
    pub fn popcount_col(&self, col: usize) -> usize {
        self.slab.bits().popcount_col(col)
    }

    /// The records whose cell in `col` is set, crossbar by crossbar (so
    /// records sharing a column word are adjacent — the order
    /// [`PimPage::read_records`] gathers fastest).
    pub fn ones_in_col(&self, col: usize) -> impl Iterator<Item = usize> + '_ {
        self.slab
            .bits()
            .ones_in_col(col)
            .map(|row| (row % self.rows) * self.crossbars + row / self.rows)
    }

    /// Execute one microprogram on every crossbar (lock-step).
    ///
    /// Returns the per-crossbar summary (identical for all of them) and
    /// the page's crossbar count for energy scaling.
    ///
    /// # Errors
    ///
    /// Propagates program validation failures.
    pub fn execute(&mut self, program: &Microprogram) -> Result<ExecSummary, SimError> {
        program.validate(self.rows, self.slab.cols())?;
        Ok(self.execute_validated(program))
    }

    /// [`PimPage::execute`] for a program already validated against the
    /// page's crossbar geometry.
    pub(crate) fn execute_validated(&mut self, program: &Microprogram) -> ExecSummary {
        self.slab.execute_blocks(program, self.rows)
    }

    /// Write `width` bits of a record's row at bit offset `col_lo`
    /// (endurance-counted; a one-record [`PimPage::write_records`]).
    ///
    /// # Errors
    ///
    /// Propagates slot errors.
    pub fn write_record_bits(
        &mut self,
        record: usize,
        col_lo: usize,
        width: usize,
        value: u64,
    ) -> Result<(), SimError> {
        let row = self.slab_row(self.record_slot(record)?);
        self.slab.write_row_bits(row, col_lo, width, value);
        Ok(())
    }

    /// Read `width` bits of a record's row at bit offset `col_lo` (a
    /// one-record [`PimPage::read_records`]).
    ///
    /// # Errors
    ///
    /// Propagates slot errors.
    pub fn read_record_bits(
        &self,
        record: usize,
        col_lo: usize,
        width: usize,
    ) -> Result<u64, SimError> {
        let row = self.slab_row(self.record_slot(record)?);
        Ok(self.slab.read_row_bits(row, col_lo, width))
    }

    /// Bulk column-wise write: record `first + i` takes `values[i]` in
    /// its `width ≤ 64` bits at `col_lo`, 64 records per transposed
    /// column word. Each written row is charged `width` cell writes,
    /// the same as one [`PimPage::write_record_bits`] per record.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RowOutOfRange`] when the range runs past the
    /// page capacity (nothing is written then).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the columns exceed the page.
    pub fn write_records(
        &mut self,
        first: usize,
        col_lo: usize,
        width: usize,
        values: &[u64],
    ) -> Result<(), SimError> {
        let end = first + values.len();
        if end > self.record_capacity() {
            return Err(SimError::RowOutOfRange { row: end - 1, rows: self.record_capacity() });
        }
        let (n, words_per_xb) = (self.crossbars, self.rows / 64);
        for k in 0..n {
            // Crossbar k holds records k + n·t: rows t in [t_lo, t_hi).
            let t_lo = first.saturating_sub(k).div_ceil(n);
            let t_hi = end.saturating_sub(k).div_ceil(n);
            let mut t = t_lo;
            while t < t_hi {
                let word = t / 64;
                let stop = t_hi.min(64 * word + 64);
                let mut block = [0u64; 64];
                for row in t..stop {
                    block[row % 64] = values[k + n * row - first];
                }
                let rows = low_bits(stop - t) << (t % 64);
                self.slab.write_word_rows(k * words_per_xb + word, col_lo, width, &block, rows);
                t = stop;
            }
        }
        Ok(())
    }

    /// Bulk column-wise gather: append the `width ≤ 64` bits at `col_lo`
    /// of each record in `records` to `out`, in `records` order. Runs of
    /// records sharing a column word are read with one transpose when
    /// they are dense enough, so record lists in
    /// [`PimPage::ones_in_col`] order gather fastest.
    ///
    /// # Errors
    ///
    /// Propagates slot errors (nothing is appended then).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the columns exceed the page.
    pub fn read_records(
        &self,
        records: &[usize],
        col_lo: usize,
        width: usize,
        out: &mut Vec<u64>,
    ) -> Result<(), SimError> {
        let rows = records
            .iter()
            .map(|&r| Ok(self.slab_row(self.record_slot(r)?)))
            .collect::<Result<Vec<usize>, SimError>>()?;
        let bits = self.slab.bits();
        out.reserve(rows.len());
        let mut i = 0;
        while i < rows.len() {
            let word = rows[i] / 64;
            let run = rows[i..].iter().take_while(|r| **r / 64 == word).count();
            let run_rows = &rows[i..i + run];
            if run >= GATHER_TRANSPOSE_MIN {
                let block = bits.read_word_rows(word, col_lo, width);
                out.extend(run_rows.iter().map(|r| block[r % 64]));
            } else {
                out.extend(run_rows.iter().map(|&r| bits.read_row_bits(r, col_lo, width)));
            }
            i += run;
        }
        Ok(())
    }

    /// Run the aggregation circuit of every crossbar; one partial per
    /// crossbar. The request must be validated.
    pub(crate) fn agg_circuit(&mut self, req: &AggRequest) -> Vec<u64> {
        (0..self.crossbars).map(|k| req.apply_block(&mut self.slab, k, self.rows)).collect()
    }

    /// [`PimPage::agg_circuit`] with the count register: `(sums, counts)`.
    pub(crate) fn agg_circuit_counted(
        &mut self,
        req: &AggRequest,
        count_dst: ColRange,
    ) -> (Vec<u64>, Vec<u64>) {
        (0..self.crossbars)
            .map(|k| req.apply_counted_block(&mut self.slab, k, self.rows, count_dst))
            .unzip()
    }

    /// Functional result of the in-crossbar reduction tree on every
    /// crossbar, written to its `dst_row`; wear: `col_ops` writes on every
    /// row, `dst_row_writes` more on each crossbar's `dst_row`.
    pub(crate) fn bitwise_reduce(
        &mut self,
        req: &AggRequest,
        col_ops: u64,
        dst_row_writes: u64,
    ) -> Vec<u64> {
        let partials = (0..self.crossbars)
            .map(|k| {
                let result = req.reduce_block(&self.slab, k, self.rows);
                let row = k * self.rows + req.dst_row;
                self.slab.bits_mut_unaccounted().write_row_bits(
                    row,
                    req.dst.lo,
                    req.dst.width,
                    result,
                );
                self.slab.note_row_writes(row, dst_row_writes);
                result
            })
            .collect();
        self.slab.note_all_rows_writes(col_ops);
        partials
    }

    /// The counting reduction tree: every crossbar's selected-row count
    /// written to `count_dst` of its `dst_row`; wear as
    /// [`PimPage::bitwise_reduce`] with `count_dst.width` on `dst_row`.
    pub(crate) fn bitwise_count(
        &mut self,
        req: &AggRequest,
        count_dst: ColRange,
        col_ops: u64,
    ) -> Vec<u64> {
        let counts = (0..self.crossbars)
            .map(|k| {
                let words = crate::aggcircuit::block_words(k, self.rows);
                let count = self.slab.bits().popcount_col_words(req.mask_col, words) as u64;
                let row = k * self.rows + req.dst_row;
                self.slab.bits_mut_unaccounted().write_row_bits(
                    row,
                    count_dst.lo,
                    count_dst.width,
                    count,
                );
                self.slab.note_row_writes(row, count_dst.width as u64);
                count
            })
            .collect();
        self.slab.note_all_rows_writes(col_ops);
        counts
    }

    /// The worst per-row cell-write count over all crossbars.
    pub fn max_row_cell_writes(&self) -> u64 {
        self.slab.max_row_cell_writes()
    }

    /// Reset endurance counters on every crossbar.
    pub fn reset_endurance(&mut self) {
        self.slab.reset_endurance();
    }
}

/// Mask of the low `n ≤ 64` bits.
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> PimPage {
        PimPage::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn geometry_from_config() {
        let p = page();
        assert_eq!(p.crossbar_count(), 4);
        assert_eq!(p.record_capacity(), 4 * 64);
    }

    #[test]
    fn interleaved_slot_mapping() {
        let p = page();
        assert_eq!(p.record_slot(0).unwrap(), RecordSlot { crossbar: 0, row: 0 });
        assert_eq!(p.record_slot(1).unwrap(), RecordSlot { crossbar: 1, row: 0 });
        assert_eq!(p.record_slot(4).unwrap(), RecordSlot { crossbar: 0, row: 1 });
        assert_eq!(p.record_slot(255).unwrap(), RecordSlot { crossbar: 3, row: 63 });
    }

    #[test]
    fn slot_roundtrip() {
        let p = page();
        for r in [0usize, 1, 5, 100, 255] {
            assert_eq!(p.slot_record(p.record_slot(r).unwrap()), r);
        }
    }

    #[test]
    fn slot_out_of_capacity_errors() {
        assert!(page().record_slot(256).is_err());
    }

    #[test]
    fn consecutive_records_share_row_index() {
        // 32-consecutive-record amortisation (here 4 per row): records
        // 0..4 are at row 0 of the 4 crossbars.
        let p = page();
        for r in 0..4 {
            assert_eq!(p.record_slot(r).unwrap().row, 0);
        }
    }

    #[test]
    fn record_bits_roundtrip() {
        let mut p = page();
        p.write_record_bits(37, 8, 16, 0xBEEF).unwrap();
        assert_eq!(p.read_record_bits(37, 8, 16).unwrap(), 0xBEEF);
        // sibling record untouched
        assert_eq!(p.read_record_bits(36, 8, 16).unwrap(), 0);
    }

    #[test]
    fn execute_runs_on_all_crossbars() {
        let mut p = page();
        // set column 0 of every record, derive NOT into column 1
        for r in 0..p.record_capacity() {
            p.write_record_bits(r, 0, 1, 1).unwrap();
        }
        let mut prog = Microprogram::new();
        prog.gate_not(0, 1);
        p.execute(&prog).unwrap();
        for r in 0..p.record_capacity() {
            assert_eq!(p.read_record_bits(r, 1, 1).unwrap(), 0, "record {r}");
        }
    }

    #[test]
    fn endurance_rollup_is_max_over_crossbars() {
        let mut p = page();
        p.write_record_bits(0, 0, 8, 0xFF).unwrap(); // crossbar 0, row 0: 8 writes
        p.write_record_bits(1, 0, 4, 0xF).unwrap(); // crossbar 1: 4 writes
        assert_eq!(p.max_row_cell_writes(), 8);
        p.reset_endurance();
        assert_eq!(p.max_row_cell_writes(), 0);
    }
}
