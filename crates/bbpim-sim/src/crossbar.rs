//! A memory crossbar: cells, MAGIC execution, reads/writes, and
//! per-row endurance counters.
//!
//! Records are stored one per crossbar row; attributes occupy fixed
//! column ranges (managed by higher layers). The crossbar executes
//! [`Microprogram`]s gate-by-gate on its real bits and keeps count of the
//! cell writes each row has experienced, which feeds the paper's
//! endurance analysis (Fig. 9).
//!
//! # Lock-step blocks
//!
//! One [`Crossbar`] value can also hold several physical crossbars that
//! run in lock-step — a page stacks its 32 crossbars as 32 blocks of
//! `block_rows` rows in one store ([`crate::page`]). The executor takes
//! the block height: a column op covers every row of every block in one
//! pass over the column, a row op applies to row `dst` of each block.
//! A standalone crossbar is the one-block case.
//!
//! # Fused execution
//!
//! `INIT d` directly followed by a NOR into `d` (the canonical MAGIC
//! gate the compilers emit) runs as a single `d = !(…)` store pass
//! instead of a fill and a read-modify-write. Cycles, cells written and
//! wear are charged per micro-op exactly as if both ops ran.
//!
//! # Wear representation
//!
//! A column op writes one cell in *every* row, so most wear is uniform
//! across the rows. The counters are therefore kept as one shared
//! `uniform_writes` offset plus a per-row delta for the writes that hit
//! single rows (row ops, host writes, result write-backs): row `r` has
//! taken `uniform_writes + row_writes[r]` cell writes. A column op costs
//! one increment instead of a pass over every row, and because deltas
//! only grow between resets, the largest delta is maintained on the fly
//! so [`Crossbar::max_row_cell_writes`] is O(1) too. The rows whose
//! delta left 0 since the last reset are remembered (up to a cap), so a
//! reset clears only those instead of every row.

use crate::bitmat::BitMatrix;
use crate::error::SimError;
use crate::isa::{MicroOp, Microprogram};

/// Outcome of running a microprogram on one crossbar (identical across
/// the lock-step crossbars of a page, so it is computed once).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecSummary {
    /// Logic cycles consumed (one per micro-op).
    pub cycles: u64,
    /// Cells written on this crossbar.
    pub cells_written: u64,
}

/// A `rows × cols` RRAM crossbar with endurance bookkeeping.
///
/// ```
/// use bbpim_sim::crossbar::Crossbar;
/// use bbpim_sim::isa::Microprogram;
///
/// let mut xb = Crossbar::new(64, 32);
/// xb.write_row_bits(0, 0, 8, 0b1010_0110);
/// assert_eq!(xb.read_row_bits(0, 0, 8), 0b1010_0110);
///
/// let mut p = Microprogram::new();
/// p.gate_not(0, 8); // col 8 := NOT col 0
/// p.validate(64, 32)?;
/// xb.execute(&p)?;
/// // row 0's col 0 held the value's LSB (0), so its NOT is 1:
/// assert!(xb.bits().get(0, 8));
/// # Ok::<(), bbpim_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    bits: BitMatrix,
    /// Cell writes every row has taken (column ops and modeled
    /// column-parallel work).
    uniform_writes: u64,
    /// Per-row cell writes on top of `uniform_writes` (wear-leveling
    /// spreads them over the row's cells, per the paper's endurance
    /// assumption).
    row_writes: Vec<u64>,
    /// `max(row_writes)`, kept current on every per-row write.
    max_row_writes: u64,
    /// Rows whose delta left 0 since the last reset, in first-touch
    /// order; `None` once more than [`Crossbar::touched_cap`] rows were
    /// touched (the reset then clears every row).
    touched: Option<Vec<usize>>,
}

impl Crossbar {
    /// Create a zeroed crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a positive multiple of 64 or `cols` is 0
    /// (see [`BitMatrix::new`]).
    pub fn new(rows: usize, cols: usize) -> Self {
        Crossbar {
            bits: BitMatrix::new(rows, cols),
            uniform_writes: 0,
            row_writes: vec![0; rows],
            max_row_writes: 0,
            touched: Some(Vec::new()),
        }
    }

    /// Touched rows remembered before a reset falls back to clearing
    /// every row: past this, the per-row clear costs as much as the fill.
    fn touched_cap(&self) -> usize {
        self.row_writes.len() / 16
    }

    /// Rows (records) in this crossbar.
    pub fn rows(&self) -> usize {
        self.bits.rows()
    }

    /// Columns (bits per record slot).
    pub fn cols(&self) -> usize {
        self.bits.cols()
    }

    /// Read-only view of the raw cells.
    pub fn bits(&self) -> &BitMatrix {
        &self.bits
    }

    /// Mutable view of the raw cells *without* endurance accounting.
    ///
    /// Intended for test setup and for modeled operations that do their
    /// own accounting (the bulk-bitwise reduction fast path and the
    /// aggregation circuit).
    pub fn bits_mut_unaccounted(&mut self) -> &mut BitMatrix {
        &mut self.bits
    }

    /// Execute a microprogram gate-by-gate on the stored bits.
    ///
    /// Updates per-row endurance counters: a column op writes one cell in
    /// every row, a row op writes `cols` cells of its destination row.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] if the program references
    /// cells outside this crossbar.
    pub fn execute(&mut self, program: &Microprogram) -> Result<ExecSummary, SimError> {
        program.validate(self.rows(), self.cols())?;
        Ok(self.execute_blocks(program, self.rows()))
    }

    /// Run a program already validated against a `block_rows × cols`
    /// frame on every `block_rows`-row block of this store in lock-step
    /// (module docs); the summary is per block. [`Crossbar::execute`]
    /// is the one-block case, a page runs its crossbars through here.
    pub(crate) fn execute_blocks(
        &mut self,
        program: &Microprogram,
        block_rows: usize,
    ) -> ExecSummary {
        debug_assert!(block_rows > 0 && self.rows().is_multiple_of(block_rows));
        let cols = self.cols();
        let blocks = self.rows() / block_rows;
        let ops = program.ops();
        let (mut col_ops, mut row_ops) = (0u64, 0u64);
        let mut i = 0;
        while i < ops.len() {
            match ops[i] {
                MicroOp::InitCol { dst } => {
                    col_ops += 1;
                    match ops.get(i + 1) {
                        Some(&MicroOp::NorCols { a, b, dst: d }) if d == dst => {
                            self.bits.init_nor_cols(a, b, dst);
                            col_ops += 1;
                            i += 1;
                        }
                        Some(MicroOp::NorManyCols { inputs, dst: d }) if *d == dst => {
                            self.bits.init_nor_many_cols(inputs, dst);
                            col_ops += 1;
                            i += 1;
                        }
                        _ => self.bits.fill_col(dst, true),
                    }
                }
                MicroOp::NorCols { a, b, dst } => {
                    self.bits.magic_nor_cols(a, b, dst);
                    col_ops += 1;
                }
                MicroOp::NorManyCols { ref inputs, dst } => {
                    self.bits.magic_nor_many_cols(inputs, dst);
                    col_ops += 1;
                }
                MicroOp::InitRow { dst } => {
                    for base in (0..blocks).map(|k| k * block_rows) {
                        self.bits.fill_row(base + dst, true);
                        self.note_row_writes(base + dst, cols as u64);
                    }
                    row_ops += 1;
                }
                MicroOp::NorRows { a, b, dst } => {
                    for base in (0..blocks).map(|k| k * block_rows) {
                        self.bits.magic_nor_rows(base + a, base + b, base + dst);
                        self.note_row_writes(base + dst, cols as u64);
                    }
                    row_ops += 1;
                }
            }
            i += 1;
        }
        self.uniform_writes += col_ops;
        ExecSummary {
            cycles: program.cycles(),
            cells_written: col_ops * block_rows as u64 + row_ops * cols as u64,
        }
    }

    /// Host/loader write of `width` bits into a row (endurance-counted).
    pub fn write_row_bits(&mut self, row: usize, col_lo: usize, width: usize, value: u64) {
        self.bits.write_row_bits(row, col_lo, width, value);
        self.note_row_writes(row, width as u64);
    }

    /// Bulk form of [`Crossbar::write_row_bits`] for the 64 rows sharing
    /// column word `word` (see [`BitMatrix::write_word_rows`]): each row
    /// selected by `rows` takes its value from `values` and is charged
    /// `width` cell writes.
    pub fn write_word_rows(
        &mut self,
        word: usize,
        col_lo: usize,
        width: usize,
        values: &[u64; 64],
        rows: u64,
    ) {
        self.bits.write_word_rows(word, col_lo, width, values, rows);
        let mut left = rows;
        while left != 0 {
            self.note_row_writes(word * 64 + left.trailing_zeros() as usize, width as u64);
            left &= left - 1;
        }
    }

    /// Read `width ≤ 64` bits of a row (no endurance impact).
    pub fn read_row_bits(&self, row: usize, col_lo: usize, width: usize) -> u64 {
        self.bits.read_row_bits(row, col_lo, width)
    }

    /// Record `width` cell writes against `row` without touching bits —
    /// used by modeled operations (aggregation-circuit write-back,
    /// reduction trees) that mutate bits through
    /// [`Crossbar::bits_mut_unaccounted`].
    pub fn note_row_writes(&mut self, row: usize, width: u64) {
        if width == 0 {
            return;
        }
        if self.row_writes[row] == 0 {
            let cap = self.touched_cap();
            if let Some(touched) = &mut self.touched {
                if touched.len() < cap {
                    touched.push(row);
                } else {
                    self.touched = None;
                }
            }
        }
        let w = &mut self.row_writes[row];
        *w += width;
        self.max_row_writes = self.max_row_writes.max(*w);
    }

    /// Record `per_row` cell writes against *every* row (modeled
    /// column-parallel work).
    pub fn note_all_rows_writes(&mut self, per_row: u64) {
        self.uniform_writes += per_row;
    }

    /// The largest cell-write count any row has accumulated.
    pub fn max_row_cell_writes(&self) -> u64 {
        self.uniform_writes + self.max_row_writes
    }

    /// Reset endurance counters (e.g. after load, before measuring a
    /// query). Costs O(rows touched since the last reset) while that
    /// stays under the cap, one fill of the counters otherwise.
    pub fn reset_endurance(&mut self) {
        self.uniform_writes = 0;
        self.max_row_writes = 0;
        match &mut self.touched {
            Some(touched) => {
                for row in touched.drain(..) {
                    self.row_writes[row] = 0;
                }
            }
            None => {
                self.row_writes.fill(0);
                self.touched = Some(Vec::new());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nor_reference(a: bool, b: bool) -> bool {
        !(a | b)
    }

    #[test]
    fn execute_not_gate_matches_reference() {
        let mut xb = Crossbar::new(64, 8);
        for r in 0..64 {
            xb.bits_mut_unaccounted().set(r, 0, r % 3 == 0);
        }
        let mut p = Microprogram::new();
        p.gate_not(0, 1);
        xb.execute(&p).unwrap();
        for r in 0..64 {
            assert_eq!(xb.bits().get(r, 1), !xb.bits().get(r, 0), "row {r}");
        }
    }

    #[test]
    fn execute_nor_gate_matches_reference() {
        let mut xb = Crossbar::new(64, 8);
        for r in 0..64 {
            xb.bits_mut_unaccounted().set(r, 0, r & 1 == 1);
            xb.bits_mut_unaccounted().set(r, 1, r & 2 == 2);
        }
        let mut p = Microprogram::new();
        p.gate_nor(0, 1, 2);
        let s = xb.execute(&p).unwrap();
        assert_eq!(s.cycles, 2);
        for r in 0..64 {
            assert_eq!(
                xb.bits().get(r, 2),
                nor_reference(xb.bits().get(r, 0), xb.bits().get(r, 1)),
                "row {r}"
            );
        }
    }

    #[test]
    fn endurance_counts_column_ops_per_row() {
        let mut xb = Crossbar::new(64, 8);
        let mut p = Microprogram::new();
        p.gate_nor(0, 1, 2); // 2 column ops
        p.gate_not(2, 3); // 2 more
        xb.execute(&p).unwrap();
        assert_eq!(xb.max_row_cell_writes(), 4);
    }

    #[test]
    fn endurance_counts_host_writes() {
        let mut xb = Crossbar::new(64, 32);
        xb.write_row_bits(5, 0, 16, 0xffff);
        xb.write_row_bits(5, 16, 16, 0x0);
        assert_eq!(xb.max_row_cell_writes(), 32);
        xb.reset_endurance();
        assert_eq!(xb.max_row_cell_writes(), 0);
    }

    #[test]
    fn execute_rejects_invalid_program() {
        let mut xb = Crossbar::new(64, 8);
        let mut p = Microprogram::new();
        p.nor_cols(0, 1, 9);
        assert!(xb.execute(&p).is_err());
    }

    #[test]
    fn row_op_endurance_hits_destination_row_only() {
        let mut xb = Crossbar::new(64, 8);
        let mut p = Microprogram::new();
        p.push(MicroOp::InitRow { dst: 7 });
        xb.execute(&p).unwrap();
        assert_eq!(xb.max_row_cell_writes(), 8);
    }
}
