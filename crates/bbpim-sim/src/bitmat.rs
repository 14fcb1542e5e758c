//! Column-major bit matrix — the raw cell array of a crossbar.
//!
//! Bulk-bitwise PIM executes the *same* logic operation on every row of a
//! crossbar simultaneously (Fig. 1a of the paper), so the natural storage
//! is column-major: one column of cells is a contiguous `[u64]` bit
//! vector and a column-parallel MAGIC NOR is a handful of word ops.
//!
//! The same layout makes the aggregation kernels word-parallel:
//! [`BitMatrix::masked_reduce_cols`] treats an attribute's columns as
//! bit slices and folds all rows 64 at a time. SUM is
//! `Σ_b popcount(col_b & mask) · 2^b`; MIN/MAX walk the bits MSB-first,
//! narrowing a candidate bitmap of the selected rows to those holding
//! the wanted bit whenever any candidate does; COUNT is
//! `popcount(mask)` ([`BitMatrix::popcount_col`]). Results equal
//! [`crate::compiler::reduce::masked_reduce`] over the gathered rows,
//! without ever reading a row.
//!
//! [`BitMatrix`] is purely functional storage — timing, energy and
//! endurance accounting live in [`crate::crossbar::Crossbar`].

use crate::compiler::reduce::ReduceOp;
use crate::compiler::ColRange;

/// A `rows × cols` bit matrix stored column-major.
///
/// ```
/// use bbpim_sim::bitmat::BitMatrix;
/// let mut m = BitMatrix::new(64, 8);
/// m.set(3, 5, true);
/// assert!(m.get(3, 5));
/// assert_eq!(m.popcount_col(5), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    /// 64-bit words per column.
    wpc: usize,
    /// `data[col * wpc .. (col + 1) * wpc]` is column `col`, LSB = row 0.
    data: Vec<u64>,
}

impl BitMatrix {
    /// Create a zeroed matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a positive multiple of 64 or `cols` is 0.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && rows.is_multiple_of(64), "rows must be a positive multiple of 64");
        assert!(cols > 0, "cols must be positive");
        let wpc = rows / 64;
        BitMatrix { rows, cols, wpc, data: vec![0; wpc * cols] }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn idx(&self, col: usize) -> std::ops::Range<usize> {
        debug_assert!(col < self.cols);
        col * self.wpc..(col + 1) * self.wpc
    }

    /// Borrow a column as words (LSB of word 0 = row 0).
    pub fn col(&self, col: usize) -> &[u64] {
        &self.data[self.idx(col)]
    }

    /// Mutably borrow a column.
    pub fn col_mut(&mut self, col: usize) -> &mut [u64] {
        let r = self.idx(col);
        &mut self.data[r]
    }

    /// Read a single cell.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.rows);
        let w = self.data[col * self.wpc + row / 64];
        (w >> (row % 64)) & 1 == 1
    }

    /// Write a single cell.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        debug_assert!(row < self.rows);
        let w = &mut self.data[col * self.wpc + row / 64];
        if value {
            *w |= 1u64 << (row % 64);
        } else {
            *w &= !(1u64 << (row % 64));
        }
    }

    /// Set every cell of a column to `value`.
    pub fn fill_col(&mut self, col: usize, value: bool) {
        let fill = if value { u64::MAX } else { 0 };
        for w in self.col_mut(col) {
            *w = fill;
        }
    }

    /// MAGIC column-parallel NOR: `dst &= !(a | b)`.
    ///
    /// MAGIC's stateful NOR can only switch a pre-initialised `1` output
    /// cell to `0`; an output cell already at `0` stays `0`. Callers that
    /// want a true NOR must [`BitMatrix::fill_col`] `dst` with `1` first
    /// (that is exactly what the `INIT` micro-op does).
    pub fn magic_nor_cols(&mut self, a: usize, b: usize, dst: usize) {
        debug_assert!(a != dst && b != dst, "MAGIC output must differ from inputs");
        let (ar, br, dr) = (self.idx(a), self.idx(b), self.idx(dst));
        for i in 0..self.wpc {
            let v = !(self.data[ar.start + i] | self.data[br.start + i]);
            self.data[dr.start + i] &= v;
        }
    }

    /// MAGIC column-parallel multi-input NOR: `dst &= !(c₀ | c₁ | …)`.
    ///
    /// Same stateful-output semantics as [`BitMatrix::magic_nor_cols`].
    pub fn magic_nor_many_cols(&mut self, inputs: &[usize], dst: usize) {
        debug_assert!(inputs.iter().all(|c| *c != dst));
        let dr = self.idx(dst);
        for i in 0..self.wpc {
            let mut acc = 0u64;
            for &c in inputs {
                acc |= self.data[c * self.wpc + i];
            }
            self.data[dr.start + i] &= !acc;
        }
    }

    /// MAGIC row-parallel NOR: for every column `c`,
    /// `cell[dst_row][c] &= !(cell[a_row][c] | cell[b_row][c])`.
    pub fn magic_nor_rows(&mut self, a_row: usize, b_row: usize, dst_row: usize) {
        debug_assert!(a_row != dst_row && b_row != dst_row);
        for c in 0..self.cols {
            let v = !(self.get(a_row, c) | self.get(b_row, c));
            if !v {
                self.set(dst_row, c, false);
            }
        }
    }

    /// Set every cell of a row to `value`.
    pub fn fill_row(&mut self, row: usize, value: bool) {
        for c in 0..self.cols {
            self.set(row, c, value);
        }
    }

    /// Read `width ≤ 64` bits of a row starting at `col_lo` (LSB first).
    pub fn read_row_bits(&self, row: usize, col_lo: usize, width: usize) -> u64 {
        debug_assert!(width <= 64 && col_lo + width <= self.cols);
        let mut v = 0u64;
        for i in 0..width {
            if self.get(row, col_lo + i) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Write `width ≤ 64` bits into a row starting at `col_lo` (LSB first).
    pub fn write_row_bits(&mut self, row: usize, col_lo: usize, width: usize, value: u64) {
        debug_assert!(width <= 64 && col_lo + width <= self.cols);
        for i in 0..width {
            self.set(row, col_lo + i, (value >> i) & 1 == 1);
        }
    }

    /// Count set cells in a column.
    pub fn popcount_col(&self, col: usize) -> usize {
        self.col(col).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bit-sliced masked reduction: fold the values stored LSB-first in
    /// the columns of `value` over the rows whose `mask_col` cell is set,
    /// at a `width`-bit modulus.
    ///
    /// Bit-identical to [`crate::compiler::reduce::masked_reduce`] over
    /// the gathered rows: values are taken mod `2^width`, SUM wraps,
    /// and an empty selection yields the identity (0 for SUM/MAX,
    /// `2^width − 1` for MIN).
    ///
    /// ```
    /// use bbpim_sim::bitmat::BitMatrix;
    /// use bbpim_sim::compiler::reduce::ReduceOp;
    /// use bbpim_sim::compiler::ColRange;
    /// let mut m = BitMatrix::new(64, 9);
    /// for (row, v) in [(0, 5u64), (1, 9), (2, 3)] {
    ///     m.write_row_bits(row, 0, 8, v);
    ///     m.set(row, 8, row != 1); // select rows 0 and 2
    /// }
    /// let value = ColRange::new(0, 8);
    /// assert_eq!(m.masked_reduce_cols(value, 8, 8, ReduceOp::Sum), 8);
    /// assert_eq!(m.masked_reduce_cols(value, 8, 8, ReduceOp::Min), 3);
    /// assert_eq!(m.masked_reduce_cols(value, 8, 8, ReduceOp::Max), 5);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=64` or a column is out of range.
    pub fn masked_reduce_cols(
        &self,
        value: ColRange,
        mask_col: usize,
        width: usize,
        op: ReduceOp,
    ) -> u64 {
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        assert!(value.end() <= self.cols && mask_col < self.cols, "columns out of range");
        let modulus = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        // Bits at or above the modulus are masked off before the fold.
        let bits = value.width.min(width);
        let mask = self.col(mask_col);
        match op {
            ReduceOp::Sum => {
                let mut acc = 0u64;
                for b in 0..bits {
                    let ones: u64 = self
                        .col(value.lo + b)
                        .iter()
                        .zip(mask)
                        .map(|(v, m)| u64::from((v & m).count_ones()))
                        .sum();
                    acc = acc.wrapping_add(ones << b);
                }
                acc & modulus
            }
            ReduceOp::Min | ReduceOp::Max => {
                let is_max = op == ReduceOp::Max;
                if mask.iter().all(|m| *m == 0) {
                    return if is_max { 0 } else { modulus };
                }
                // MAX keeps the candidates holding a 1 at each bit, MIN
                // those holding a 0; when none does, every candidate
                // shares the other bit value and the set stays put.
                let mut cand = mask.to_vec();
                let mut result = 0u64;
                for b in (0..bits).rev() {
                    let col = self.col(value.lo + b);
                    let want = |v: u64| if is_max { v } else { !v };
                    let found = cand.iter().zip(col).any(|(c, v)| c & want(*v) != 0);
                    if found {
                        for (c, v) in cand.iter_mut().zip(col) {
                            *c &= want(*v);
                        }
                    }
                    if found == is_max {
                        result |= 1 << b;
                    }
                }
                result
            }
        }
    }

    /// Iterate the row indices whose cell in `col` is set.
    pub fn ones_in_col(&self, col: usize) -> impl Iterator<Item = usize> + '_ {
        let words = self.col(col);
        words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let m = BitMatrix::new(64, 4);
        for c in 0..4 {
            assert_eq!(m.popcount_col(c), 0);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn rejects_unaligned_rows() {
        let _ = BitMatrix::new(100, 4);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = BitMatrix::new(128, 3);
        m.set(127, 2, true);
        assert!(m.get(127, 2));
        m.set(127, 2, false);
        assert!(!m.get(127, 2));
    }

    #[test]
    fn magic_nor_cols_on_initialized_output_is_true_nor() {
        let mut m = BitMatrix::new(64, 3);
        // a = rows 0..32 set, b = even rows set
        for r in 0..32 {
            m.set(r, 0, true);
        }
        for r in (0..64).step_by(2) {
            m.set(r, 1, true);
        }
        m.fill_col(2, true); // INIT
        m.magic_nor_cols(0, 1, 2);
        for r in 0..64 {
            let expected = !(m.get(r, 0) | m.get(r, 1));
            assert_eq!(m.get(r, 2), expected, "row {r}");
        }
    }

    #[test]
    fn magic_nor_cols_without_init_only_clears() {
        let mut m = BitMatrix::new(64, 3);
        // dst starts all-zero; NOR of two zero inputs would be 1, but MAGIC
        // cannot switch 0 → 1.
        m.magic_nor_cols(0, 1, 2);
        assert_eq!(m.popcount_col(2), 0);
    }

    #[test]
    fn magic_nor_rows_matches_reference() {
        let mut m = BitMatrix::new(64, 8);
        for c in 0..8 {
            m.set(1, c, c % 2 == 0);
            m.set(2, c, c < 4);
        }
        m.fill_row(5, true);
        m.magic_nor_rows(1, 2, 5);
        for c in 0..8 {
            let expected = !(m.get(1, c) | m.get(2, c));
            assert_eq!(m.get(5, c), expected, "col {c}");
        }
    }

    #[test]
    fn row_bits_roundtrip() {
        let mut m = BitMatrix::new(64, 40);
        m.write_row_bits(10, 3, 17, 0x1_ABCD);
        assert_eq!(m.read_row_bits(10, 3, 17), 0x1_ABCD);
        // neighbours untouched
        assert!(!m.get(10, 2));
        assert!(!m.get(10, 20));
    }

    #[test]
    fn ones_in_col_lists_rows() {
        let mut m = BitMatrix::new(128, 1);
        for r in [0usize, 63, 64, 127] {
            m.set(r, 0, true);
        }
        let ones: Vec<usize> = m.ones_in_col(0).collect();
        assert_eq!(ones, vec![0, 63, 64, 127]);
    }
}
