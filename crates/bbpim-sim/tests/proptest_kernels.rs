//! Randomized tests of the word-parallel simulator kernels against
//! per-row reference models:
//!
//! * the bit-sliced masked reduction ([`BitMatrix::masked_reduce_cols`],
//!   and through it [`AggRequest::apply`]/[`AggRequest::apply_counted`])
//!   against [`masked_reduce`] over the gathered rows;
//! * the lazy wear counter of [`Crossbar`] (uniform offset + per-row
//!   deltas, resets that clear only the touched rows) against one
//!   explicit counter per row.
//!
//! Deterministic seed-driven loops, like the other suites.

use bbpim_sim::aggcircuit::AggRequest;
use bbpim_sim::bitmat::BitMatrix;
use bbpim_sim::compiler::reduce::{masked_reduce, ReduceOp};
use bbpim_sim::compiler::ColRange;
use bbpim_sim::crossbar::Crossbar;
use bbpim_sim::isa::{MicroOp, Microprogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: [ReduceOp; 3] = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max];

fn low_bits(width: usize) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// True with probability `pct` percent.
fn chance(rng: &mut StdRng, pct: u32) -> bool {
    rng.gen_range(0..100u32) < pct
}

/// Selection patterns: empty, full, sparse random, dense random.
fn random_mask(rng: &mut StdRng, rows: usize, kind: usize) -> Vec<bool> {
    match kind {
        0 => vec![false; rows],
        1 => vec![true; rows],
        2 => (0..rows).map(|_| rng.gen_range(0u32..16) == 0).collect(),
        _ => (0..rows).map(|_| rng.gen::<bool>()).collect(),
    }
}

/// Values of `width` bits: uniform, or drawn from a handful of values
/// (ties and extremes stress MIN/MAX narrowing).
fn random_values(rng: &mut StdRng, rows: usize, width: usize) -> Vec<u64> {
    let m = low_bits(width);
    if rng.gen::<bool>() {
        (0..rows).map(|_| rng.gen::<u64>() & m).collect()
    } else {
        let pool = [0, m, m >> 1, rng.gen::<u64>() & m, rng.gen::<u64>() & m];
        (0..rows).map(|_| pool[rng.gen_range(0usize..pool.len())]).collect()
    }
}

/// A matrix holding `values` in columns `0..width` and `mask` in column
/// `width`, plus random junk in the columns around them.
fn matrix_with(rng: &mut StdRng, values: &[u64], width: usize, mask: &[bool]) -> BitMatrix {
    let rows = values.len();
    let mut m = BitMatrix::new(rows, width + 2 + 64);
    for (r, (v, sel)) in values.iter().zip(mask).enumerate() {
        m.write_row_bits(r, 0, width, *v);
        m.set(r, width, *sel);
        m.set(r, width + 1, rng.gen::<bool>());
    }
    m
}

#[test]
fn bit_sliced_reduce_matches_masked_reduce() {
    for rows in [64usize, 1024] {
        for width in 1usize..=64 {
            let mut rng = StdRng::seed_from_u64(0xB17 + (rows * 100 + width) as u64);
            for kind in 0..4 {
                let values = random_values(&mut rng, rows, width);
                let mask = random_mask(&mut rng, rows, kind);
                let m = matrix_with(&mut rng, &values, width, &mask);
                // Moduli at, below and above the value width.
                let narrower = rng.gen_range(1..=width);
                let wider = rng.gen_range(width..=64);
                for modulus in [width, narrower, wider] {
                    for op in OPS {
                        let got = m.masked_reduce_cols(ColRange::new(0, width), width, modulus, op);
                        let want = masked_reduce(&values, &mask, modulus, op);
                        assert_eq!(
                            got, want,
                            "rows {rows} width {width} modulus {modulus} mask kind {kind} {op:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn agg_request_apply_matches_reference() {
    for rows in [64usize, 1024] {
        for case in 0..96u64 {
            let mut rng = StdRng::seed_from_u64(0xA9 + case + rows as u64);
            let width = rng.gen_range(1usize..=64);
            let values = random_values(&mut rng, rows, width);
            let mask = random_mask(&mut rng, rows, (case % 4) as usize);
            let cols = 256;
            let mut xb = Crossbar::new(rows, cols);
            for (r, (v, sel)) in values.iter().zip(&mask).enumerate() {
                xb.write_row_bits(r, 0, width, *v);
                xb.bits_mut_unaccounted().set(r, 70, *sel);
            }
            // Result slots narrower and wider than the value.
            let dst_width =
                if case % 2 == 0 { rng.gen_range(1..=width) } else { rng.gen_range(width..=64) };
            let op = OPS[(case % 3) as usize];
            let dst_row = rng.gen_range(0..rows);
            let req = AggRequest {
                op,
                value: ColRange::new(0, width),
                mask_col: 70,
                dst_row,
                dst: ColRange::new(80, dst_width),
            };
            let want =
                masked_reduce(&values, &mask, dst_width.max(width), op) & low_bits(dst_width);
            let count_dst = ColRange::new(160, rng.gen_range(1usize..=16));
            let (got, count) = req.apply_counted(&mut xb, count_dst).unwrap();
            assert_eq!(got, want, "rows {rows} case {case} {op:?} width {width}->{dst_width}");
            assert_eq!(xb.read_row_bits(dst_row, 80, dst_width), want);
            let selected = mask.iter().filter(|m| **m).count() as u64;
            assert_eq!(count, selected & low_bits(count_dst.width), "rows {rows} case {case}");
            assert_eq!(xb.read_row_bits(dst_row, 160, count_dst.width), count);
        }
    }
}

/// One random valid micro-op on a `rows × cols` crossbar.
fn random_op(rng: &mut StdRng, rows: usize, cols: usize) -> MicroOp {
    let other = |rng: &mut StdRng, n: usize, dst: usize| (dst + rng.gen_range(1..n)) % n;
    match rng.gen_range(0u32..5) {
        0 => MicroOp::InitCol { dst: rng.gen_range(0..cols) },
        1 => {
            let dst = rng.gen_range(0..cols);
            MicroOp::NorCols { a: other(rng, cols, dst), b: other(rng, cols, dst), dst }
        }
        2 => {
            let dst = rng.gen_range(0..cols);
            let inputs = (0..rng.gen_range(1usize..6)).map(|_| other(rng, cols, dst)).collect();
            MicroOp::NorManyCols { inputs, dst }
        }
        3 => MicroOp::InitRow { dst: rng.gen_range(0..rows) },
        _ => {
            let dst = rng.gen_range(0..rows);
            MicroOp::NorRows { a: other(rng, rows, dst), b: other(rng, rows, dst), dst }
        }
    }
}

#[test]
fn lazy_wear_counter_matches_per_row_model() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x3EA2 + case);
        let rows = [64usize, 128, 1024][(case % 3) as usize];
        let cols = rng.gen_range(8usize..80);
        let mut xb = Crossbar::new(rows, cols);
        let mut model = vec![0u64; rows];
        for step in 0..200 {
            match rng.gen_range(0u32..14) {
                0..=4 => {
                    let mut p = Microprogram::new();
                    for _ in 0..rng.gen_range(1usize..8) {
                        p.push(random_op(&mut rng, rows, cols));
                    }
                    let mut cells = 0u64;
                    for op in p.ops() {
                        match op {
                            MicroOp::InitRow { dst } | MicroOp::NorRows { dst, .. } => {
                                model[*dst] += cols as u64;
                                cells += cols as u64;
                            }
                            _ => {
                                model.iter_mut().for_each(|w| *w += 1);
                                cells += rows as u64;
                            }
                        }
                    }
                    let summary = xb.execute(&p).unwrap();
                    assert_eq!(summary.cells_written, cells, "case {case} step {step}");
                    assert_eq!(summary.cycles, p.cycles());
                }
                5 | 6 => {
                    let row = rng.gen_range(0..rows);
                    let width = rng.gen_range(1..=cols.min(64));
                    let lo = rng.gen_range(0..=cols - width);
                    xb.write_row_bits(row, lo, width, rng.gen::<u64>());
                    model[row] += width as u64;
                }
                7 | 8 => {
                    let row = rng.gen_range(0..rows);
                    let n = rng.gen_range(0u64..5000);
                    xb.note_row_writes(row, n);
                    model[row] += n;
                }
                9 | 10 => {
                    let n = rng.gen_range(0u64..5000);
                    xb.note_all_rows_writes(n);
                    model.iter_mut().for_each(|w| *w += n);
                }
                11 | 12 => {
                    // Bulk writes touch up to 64 rows at once, so the
                    // reset's touched-row list overflows on some cases.
                    let word = rng.gen_range(0..rows / 64);
                    let width = rng.gen_range(1..=cols.min(64));
                    let lo = rng.gen_range(0..=cols - width);
                    let mask = if chance(&mut rng, 50) { rng.gen::<u64>() } else { u64::MAX };
                    let values = [0u64; 64].map(|_| rng.gen::<u64>());
                    xb.write_word_rows(word, lo, width, &values, mask);
                    for i in (0..64).filter(|i| mask >> i & 1 == 1) {
                        model[word * 64 + i] += width as u64;
                    }
                }
                _ => {
                    xb.reset_endurance();
                    model.iter_mut().for_each(|w| *w = 0);
                    // A reset must clear every row: a probe write on any
                    // row then sees exactly its own width.
                    let row = rng.gen_range(0..rows);
                    xb.note_row_writes(row, 1);
                    model[row] += 1;
                }
            }
            let want = model.iter().copied().max().unwrap();
            assert_eq!(xb.max_row_cell_writes(), want, "case {case} step {step}");
        }
    }
}
