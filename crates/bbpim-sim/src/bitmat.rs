//! Column-major bit matrix — the raw cell array of a crossbar.
//!
//! Bulk-bitwise PIM executes the *same* logic operation on every row of a
//! crossbar simultaneously (Fig. 1a of the paper), so the natural storage
//! is column-major: one column of cells is a contiguous `[u64]` bit
//! vector and a column-parallel MAGIC NOR is a handful of word ops.
//! A page stacks its lock-step crossbars in one matrix (crossbar `k`
//! owns word block `k` of every column, see [`crate::page`]), so one
//! column op is one pass over the page's contiguous column words.
//!
//! NOR kernels come in two forms: the MAGIC form `dst &= !(…)` (an
//! output cell can only switch `1 → 0`) and the fused `INIT`+`NOR` form
//! `dst = !(…)` ([`BitMatrix::init_nor_cols`]), which is what the
//! canonical two-cycle gate leaves behind, in one store pass.
//!
//! The same layout makes the aggregation kernels word-parallel:
//! [`BitMatrix::masked_reduce_cols`] treats an attribute's columns as
//! bit slices and folds all rows 64 at a time. SUM is
//! `Σ_b popcount(col_b & mask) · 2^b`; MIN/MAX walk the bits MSB-first,
//! narrowing a candidate bitmap of the selected rows to those holding
//! the wanted bit whenever any candidate does; COUNT is
//! `popcount(mask)` ([`BitMatrix::popcount_col`]). Results equal
//! [`crate::compiler::reduce::masked_reduce`] over the gathered rows,
//! without ever reading a row. The `_words` forms fold one word range
//! (one crossbar of a page).
//!
//! Records move between the host and the cells 64 at a time: the 64
//! rows sharing a column word are one 64×64 bit block, and
//! [`transpose64`] turns 64 record values into `width` column words
//! ([`BitMatrix::write_word_rows`]) and back
//! ([`BitMatrix::read_word_rows`]).
//!
//! [`BitMatrix`] is purely functional storage — timing, energy and
//! endurance accounting live in [`crate::crossbar::Crossbar`].

use std::ops::Range;

use crate::compiler::reduce::ReduceOp;
use crate::compiler::ColRange;

/// Words the many-input NOR folds per pass.
const NOR_CHUNK: usize = 64;

/// Transpose a 64×64 bit block in place: afterwards bit `i` of `a[j]`
/// is what bit `j` of `a[i]` was.
///
/// Applied to 64 record values it yields their bit-slice column words
/// (word `b` holds bit `b` of every value, value `i` at bit `i`), and
/// applied to column words it yields the values back.
///
/// ```
/// use bbpim_sim::bitmat::transpose64;
/// let mut a = [0u64; 64];
/// a[3] = 0b101; // value 3 has bits 0 and 2 set
/// transpose64(&mut a);
/// assert_eq!((a[0], a[1], a[2]), (1 << 3, 0, 1 << 3));
/// ```
pub fn transpose64(a: &mut [u64; 64]) {
    // Recursive block swap: at step `j`, every 2j×2j block exchanges
    // its upper-right and lower-left j×j quadrants.
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

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
    /// (that is exactly what the `INIT` micro-op does), or use
    /// [`BitMatrix::init_nor_cols`].
    pub fn magic_nor_cols(&mut self, a: usize, b: usize, dst: usize) {
        self.nor_into(&[a, b], dst, false);
    }

    /// MAGIC column-parallel multi-input NOR: `dst &= !(c₀ | c₁ | …)`.
    ///
    /// Same stateful-output semantics as [`BitMatrix::magic_nor_cols`].
    pub fn magic_nor_many_cols(&mut self, inputs: &[usize], dst: usize) {
        self.nor_into(inputs, dst, false);
    }

    /// `INIT dst` fused with the NOR that follows it: `dst = !(a | b)`
    /// in one store pass (bit-identical to [`BitMatrix::fill_col`] then
    /// [`BitMatrix::magic_nor_cols`]).
    pub fn init_nor_cols(&mut self, a: usize, b: usize, dst: usize) {
        self.nor_into(&[a, b], dst, true);
    }

    /// `INIT dst` fused with a multi-input NOR: `dst = !(c₀ | c₁ | …)`.
    pub fn init_nor_many_cols(&mut self, inputs: &[usize], dst: usize) {
        self.nor_into(inputs, dst, true);
    }

    /// `dst = !(OR inputs)` when `init`, else `dst &= !(OR inputs)`.
    /// `dst` must not be an input.
    fn nor_into(&mut self, inputs: &[usize], dst: usize, init: bool) {
        debug_assert!(inputs.iter().all(|c| *c != dst), "MAGIC output must differ from inputs");
        let wpc = self.wpc;
        let (before, rest) = self.data.split_at_mut(dst * wpc);
        let (out, after) = rest.split_at_mut(wpc);
        let col = |c: usize| -> &[u64] {
            if c < dst {
                &before[c * wpc..(c + 1) * wpc]
            } else {
                &after[(c - dst - 1) * wpc..(c - dst) * wpc]
            }
        };
        if let [a, b] = *inputs {
            let (a, b) = (col(a), col(b));
            let pairs = out.iter_mut().zip(a.iter().zip(b));
            if init {
                pairs.for_each(|(o, (x, y))| *o = !(x | y));
            } else {
                pairs.for_each(|(o, (x, y))| *o &= !(x | y));
            }
            return;
        }
        for (ci, chunk) in out.chunks_mut(NOR_CHUNK).enumerate() {
            let lo = ci * NOR_CHUNK;
            let mut acc = [0u64; NOR_CHUNK];
            for &c in inputs {
                for (a, x) in acc.iter_mut().zip(&col(c)[lo..lo + chunk.len()]) {
                    *a |= x;
                }
            }
            if init {
                chunk.iter_mut().zip(&acc).for_each(|(o, a)| *o = !a);
            } else {
                chunk.iter_mut().zip(&acc).for_each(|(o, a)| *o &= !a);
            }
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

    /// Read `width ≤ 64` bits at `col_lo` of the 64 rows sharing column
    /// word `word` (rows `64·word ..`): element `i` is row `64·word + i`'s
    /// value, LSB first. One load per column plus one [`transpose64`].
    pub fn read_word_rows(&self, word: usize, col_lo: usize, width: usize) -> [u64; 64] {
        assert!(width <= 64 && col_lo + width <= self.cols, "columns out of range");
        assert!(word < self.wpc, "word out of range");
        let mut block = [0u64; 64];
        for (b, w) in block.iter_mut().take(width).enumerate() {
            *w = self.data[(col_lo + b) * self.wpc + word];
        }
        transpose64(&mut block);
        block
    }

    /// Write `width ≤ 64` bits at `col_lo` of the rows `64·word + i` for
    /// every bit `i` set in `rows`, taking row `64·word + i`'s value from
    /// `values[i]` (LSB first; bits at or above `width` are ignored).
    /// Rows outside `rows` keep their cells.
    pub fn write_word_rows(
        &mut self,
        word: usize,
        col_lo: usize,
        width: usize,
        values: &[u64; 64],
        rows: u64,
    ) {
        assert!(width <= 64 && col_lo + width <= self.cols, "columns out of range");
        assert!(word < self.wpc, "word out of range");
        let mut block = *values;
        transpose64(&mut block);
        for (b, bits) in block.iter().take(width).enumerate() {
            let w = &mut self.data[(col_lo + b) * self.wpc + word];
            *w = (*w & !rows) | (bits & rows);
        }
    }

    /// Count set cells in a column.
    pub fn popcount_col(&self, col: usize) -> usize {
        self.popcount_col_words(col, 0..self.wpc)
    }

    /// Count set cells of a column within the word range `words` (rows
    /// `64·words.start .. 64·words.end`).
    pub fn popcount_col_words(&self, col: usize, words: Range<usize>) -> usize {
        self.col(col)[words].iter().map(|w| w.count_ones() as usize).sum()
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
        self.masked_reduce_words(value, mask_col, width, op, 0..self.wpc)
    }

    /// [`BitMatrix::masked_reduce_cols`] over the rows of the word range
    /// `words` only (rows `64·words.start .. 64·words.end`) — one
    /// crossbar of a page's lock-step store.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=64`, a column is out of range or
    /// `words` exceeds a column.
    pub fn masked_reduce_words(
        &self,
        value: ColRange,
        mask_col: usize,
        width: usize,
        op: ReduceOp,
        words: Range<usize>,
    ) -> u64 {
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        assert!(value.end() <= self.cols && mask_col < self.cols, "columns out of range");
        let modulus = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        // Bits at or above the modulus are masked off before the fold.
        let bits = value.width.min(width);
        let slice = |c: usize| &self.col(c)[words.clone()];
        let mask = slice(mask_col);
        match op {
            ReduceOp::Sum => {
                let mut acc = 0u64;
                for b in 0..bits {
                    let ones: u64 = slice(value.lo + b)
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
                    let col = slice(value.lo + b);
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
    fn transpose64_matches_naive_transpose() {
        let mut a = [0u64; 64];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for v in a.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        let orig = a;
        transpose64(&mut a);
        for (j, w) in a.iter().enumerate() {
            for (i, v) in orig.iter().enumerate() {
                assert_eq!((w >> i) & 1, (v >> j) & 1, "bit ({i}, {j})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig, "transpose is an involution");
    }

    #[test]
    fn word_rows_roundtrip_and_respect_row_mask() {
        let mut m = BitMatrix::new(128, 40);
        let mut values = [0u64; 64];
        for (i, v) in values.iter_mut().enumerate() {
            *v = (i as u64).wrapping_mul(0x1_2345) | (1 << 63);
        }
        m.write_row_bits(64 + 5, 3, 17, 0x1_FFFF); // outside the mask: kept
        let rows = !(1u64 << 5);
        m.write_word_rows(1, 3, 17, &values, rows);
        let back = m.read_word_rows(1, 3, 17);
        for i in 0..64 {
            let want = if i == 5 { 0x1_FFFF } else { values[i] & 0x1_FFFF };
            assert_eq!(back[i], want, "row {i}");
            assert_eq!(m.read_row_bits(64 + i, 3, 17), want, "row {i}");
            assert!(!m.get(64 + i, 2) && !m.get(64 + i, 20), "neighbours untouched");
        }
        assert_eq!(m.read_word_rows(0, 3, 17), [0; 64], "other word untouched");
    }

    #[test]
    fn fused_init_nor_equals_init_then_nor() {
        let mut m = BitMatrix::new(256, 6);
        for r in 0..256 {
            m.set(r, 0, r % 3 == 0);
            m.set(r, 1, r % 5 == 0);
            m.set(r, 2, r % 7 == 0);
            m.set(r, 4, r % 2 == 0);
        }
        let mut fused = m.clone();
        m.fill_col(3, true);
        m.magic_nor_cols(0, 1, 3);
        fused.init_nor_cols(0, 1, 3);
        assert_eq!(fused, m);
        m.fill_col(5, true);
        m.magic_nor_many_cols(&[0, 1, 2, 4], 5);
        fused.init_nor_many_cols(&[0, 1, 2, 4], 5);
        assert_eq!(fused, m);
    }

    #[test]
    fn word_range_reductions_cover_their_rows_only() {
        let mut m = BitMatrix::new(192, 9);
        for r in 0..192 {
            m.write_row_bits(r, 0, 8, (r % 200) as u64);
            m.set(r, 8, r % 2 == 0);
        }
        let value = ColRange::new(0, 8);
        let want: u64 = (64..128u64).filter(|r| r % 2 == 0).sum::<u64>() & 0xFF;
        assert_eq!(m.masked_reduce_words(value, 8, 8, ReduceOp::Sum, 1..2), want);
        assert_eq!(m.masked_reduce_words(value, 8, 8, ReduceOp::Max, 1..2), 126);
        assert_eq!(m.masked_reduce_words(value, 8, 8, ReduceOp::Min, 2..3), 128);
        assert_eq!(m.popcount_col_words(8, 1..3), 64);
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
