//! Randomized equivalence tests of the lock-step page slab:
//!
//! * a [`PimPage`] (one store of `crossbars × rows` rows) against the
//!   same number of independent [`Crossbar`]s, on random programs with
//!   row ops, on the aggregation circuit and the reduction tree (plain
//!   and counted), and on endurance resets — every cell, every
//!   [`ExecSummary`] and the worst-row wear must agree;
//! * the fused `INIT`+`NOR` executor against a naive per-cell
//!   interpreter written here;
//! * the bulk record writer/gather ([`PimPage::write_records`],
//!   [`PimPage::read_records`]) against per-record access, with the
//!   same wear.
//!
//! Deterministic seed-driven loops, like the other suites.

use bbpim_sim::aggcircuit::AggRequest;
use bbpim_sim::compiler::reduce::{reduce_cost, ReduceOp};
use bbpim_sim::compiler::ColRange;
use bbpim_sim::crossbar::{Crossbar, ExecSummary};
use bbpim_sim::isa::{MicroOp, Microprogram};
use bbpim_sim::module::PimModule;
use bbpim_sim::page::{PimPage, RecordSlot};
use bbpim_sim::SimConfig;
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

/// A configuration with `crossbars` crossbars of `rows × cols` per page.
fn config(crossbars: usize, rows: usize, cols: usize) -> SimConfig {
    let mut cfg = SimConfig::small_for_tests();
    cfg.crossbar_rows = rows;
    cfg.crossbar_cols = cols;
    cfg.page_bytes = cfg.crossbar_bytes() * crossbars;
    cfg.host.line_bytes = crossbars * cfg.read_width_bits / 8;
    cfg.module_capacity_bytes = cfg.page_bytes as u64 * 8;
    cfg
}

/// Crossbar `k` of the page must hold exactly the cells of `xbs[k]`.
fn assert_same_cells(page: &PimPage, xbs: &[Crossbar], ctx: &str) {
    let words = page.crossbar_rows() / 64;
    for (k, xb) in xbs.iter().enumerate() {
        for col in 0..xb.cols() {
            assert_eq!(
                &page.bits().col(col)[k * words..(k + 1) * words],
                xb.bits().col(col),
                "{ctx}: crossbar {k} column {col}"
            );
        }
    }
}

fn worst_wear(xbs: &[Crossbar]) -> u64 {
    xbs.iter().map(Crossbar::max_row_cell_writes).max().unwrap()
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

/// A random program mixing raw ops with the fused-shape gates the
/// compilers emit (`INIT d` directly followed by a NOR into `d`).
fn random_program(rng: &mut StdRng, rows: usize, cols: usize) -> Microprogram {
    let mut p = Microprogram::new();
    for _ in 0..rng.gen_range(1usize..24) {
        if chance(rng, 40) {
            let dst = rng.gen_range(0..cols);
            let other = |rng: &mut StdRng| (dst + rng.gen_range(1..cols)) % cols;
            p.init_col(dst);
            if chance(rng, 50) {
                p.nor_cols(other(rng), other(rng), dst);
            } else {
                p.nor_many_cols((0..rng.gen_range(1usize..7)).map(|_| other(rng)).collect(), dst);
            }
        } else {
            p.push(random_op(rng, rows, cols));
        }
    }
    p
}

/// An aggregation request inside a 96-column frame with non-overlapping
/// value / mask / result / count slots.
fn random_request(rng: &mut StdRng, rows: usize) -> (AggRequest, ColRange) {
    let req = AggRequest {
        op: OPS[rng.gen_range(0..OPS.len())],
        value: ColRange::new(rng.gen_range(0..8), rng.gen_range(1..=30)),
        mask_col: 40,
        dst_row: rng.gen_range(0..rows),
        dst: ColRange::new(41 + rng.gen_range(0..4usize), rng.gen_range(1..=32)),
    };
    (req, ColRange::new(80, rng.gen_range(1..=16)))
}

/// The reduction tree of `PimModule::bitwise_reduce` on one crossbar,
/// through the public single-crossbar API.
fn reference_reduce(xb: &mut Crossbar, req: &AggRequest) -> u64 {
    let (rows, cols) = (xb.rows(), xb.cols());
    let cost = reduce_cost(rows, cols, req.value.width, req.op);
    let levels = rows.trailing_zeros() as u64;
    let width = req.dst.width.max(req.value.width);
    let result = xb.bits().masked_reduce_cols(req.value, req.mask_col, width, req.op)
        & low_bits(req.dst.width);
    xb.bits_mut_unaccounted().write_row_bits(req.dst_row, req.dst.lo, req.dst.width, result);
    xb.note_all_rows_writes(cost.col_ops);
    xb.note_row_writes(req.dst_row, 4 * levels * cols as u64);
    result
}

/// The counting tree of `PimModule::bitwise_reduce_counted` on one
/// crossbar (the partial is the unwrapped count).
fn reference_count(xb: &mut Crossbar, req: &AggRequest, count_dst: ColRange) -> u64 {
    let (rows, cols) = (xb.rows(), xb.cols());
    let width = (rows.trailing_zeros() as usize + 1).min(count_dst.width);
    let extra = reduce_cost(rows, cols, width, ReduceOp::Sum);
    let count = xb.bits().popcount_col(req.mask_col) as u64;
    xb.bits_mut_unaccounted().write_row_bits(req.dst_row, count_dst.lo, count_dst.width, count);
    xb.note_all_rows_writes(extra.col_ops);
    xb.note_row_writes(req.dst_row, count_dst.width as u64);
    count
}

#[test]
fn slab_page_matches_independent_crossbars() {
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x51AB + case);
        let crossbars = [32usize, 32, 4, 8][(case % 4) as usize];
        let rows = [64usize, 128][(case / 4 % 2) as usize];
        let cols = [96usize, 128][(case / 8) as usize];
        let mut module = PimModule::new(config(crossbars, rows, cols));
        let pages = module.alloc_pages(1).unwrap();
        let id = pages[0];
        let mut xbs = vec![Crossbar::new(rows, cols); crossbars];

        // Random contents, per record on both sides.
        for record in 0..crossbars * rows {
            let (k, row) = (record % crossbars, record / crossbars);
            for (lo, width) in [(0, 40), (40, 1), (48, 48)] {
                let v =
                    rng.gen::<u64>() & if lo == 40 { u64::from(chance(&mut rng, 60)) } else { !0 };
                module.page_mut(id).write_record_bits(record, lo, width, v).unwrap();
                xbs[k].write_row_bits(row, lo, width, v);
            }
        }
        assert_same_cells(module.page(id), &xbs, &format!("case {case} load"));

        for step in 0..40 {
            let ctx = format!("case {case} step {step}");
            match rng.gen_range(0u32..7) {
                0..=2 => {
                    let prog = random_program(&mut rng, rows, cols);
                    let got = module.page_mut(id).execute(&prog).unwrap();
                    let want: Vec<ExecSummary> =
                        xbs.iter_mut().map(|xb| xb.execute(&prog).unwrap()).collect();
                    assert!(want.iter().all(|s| *s == got), "{ctx}: summary");
                }
                3 => {
                    let (req, count_dst) = random_request(&mut rng, rows);
                    if chance(&mut rng, 50) {
                        let (got, _) = module.agg_circuit(&pages, &req).unwrap();
                        let want: Vec<u64> =
                            xbs.iter_mut().map(|xb| req.apply(xb).unwrap()).collect();
                        assert_eq!(got[0], want, "{ctx}: agg partials");
                    } else {
                        let ((sums, counts), _) =
                            module.agg_circuit_counted(&pages, &req, count_dst).unwrap();
                        let (want_s, want_c): (Vec<u64>, Vec<u64>) = xbs
                            .iter_mut()
                            .map(|xb| req.apply_counted(xb, count_dst).unwrap())
                            .unzip();
                        assert_eq!((&sums[0], &counts[0]), (&want_s, &want_c), "{ctx}: counted");
                    }
                }
                4 => {
                    let (req, count_dst) = random_request(&mut rng, rows);
                    if chance(&mut rng, 50) {
                        let (got, _) = module.bitwise_reduce(&pages, &req).unwrap();
                        let want: Vec<u64> =
                            xbs.iter_mut().map(|xb| reference_reduce(xb, &req)).collect();
                        assert_eq!(got[0], want, "{ctx}: reduce partials");
                    } else {
                        let ((sums, counts), _) =
                            module.bitwise_reduce_counted(&pages, &req, count_dst).unwrap();
                        let want_s: Vec<u64> =
                            xbs.iter_mut().map(|xb| reference_reduce(xb, &req)).collect();
                        let want_c: Vec<u64> =
                            xbs.iter_mut().map(|xb| reference_count(xb, &req, count_dst)).collect();
                        assert_eq!(
                            (&sums[0], &counts[0]),
                            (&want_s, &want_c),
                            "{ctx}: counted reduce"
                        );
                    }
                }
                5 => {
                    let record = rng.gen_range(0..crossbars * rows);
                    let width = rng.gen_range(1..=64);
                    let lo = rng.gen_range(0..=cols - width);
                    let v = rng.gen::<u64>();
                    module.page_mut(id).write_record_bits(record, lo, width, v).unwrap();
                    xbs[record % crossbars].write_row_bits(record / crossbars, lo, width, v);
                }
                _ => {
                    module.reset_endurance(&pages);
                    xbs.iter_mut().for_each(Crossbar::reset_endurance);
                }
            }
            assert_same_cells(module.page(id), &xbs, &ctx);
            assert_eq!(module.page(id).max_row_cell_writes(), worst_wear(&xbs), "{ctx}: wear");
        }
    }
}

/// Per-cell model of the ISA: `cells[row][col]`, row ops applied to
/// row `dst` of every `block_rows` block, wear counted per row.
struct Naive {
    cells: Vec<Vec<bool>>,
    wear: Vec<u64>,
    block_rows: usize,
}

impl Naive {
    fn run(&mut self, prog: &Microprogram) -> ExecSummary {
        let (rows, cols) = (self.cells.len(), self.cells[0].len());
        let mut cells_written = 0;
        for op in prog.ops() {
            match op {
                MicroOp::InitCol { dst } => self.cells.iter_mut().for_each(|r| r[*dst] = true),
                MicroOp::NorCols { a, b, dst } => {
                    self.cells.iter_mut().for_each(|r| r[*dst] &= !(r[*a] | r[*b]))
                }
                MicroOp::NorManyCols { inputs, dst } => {
                    self.cells.iter_mut().for_each(|r| r[*dst] &= !inputs.iter().any(|c| r[*c]))
                }
                MicroOp::InitRow { dst } | MicroOp::NorRows { dst, .. } => {
                    for base in (0..rows).step_by(self.block_rows) {
                        for c in 0..cols {
                            self.cells[base + dst][c] = match op {
                                MicroOp::NorRows { a, b, .. } => {
                                    self.cells[base + dst][c]
                                        & !(self.cells[base + a][c] | self.cells[base + b][c])
                                }
                                _ => true,
                            };
                        }
                        self.wear[base + dst] += cols as u64;
                    }
                }
            }
            if op.is_column_op() {
                self.wear.iter_mut().for_each(|w| *w += 1);
                cells_written += self.block_rows as u64;
            } else {
                cells_written += cols as u64;
            }
        }
        ExecSummary { cycles: prog.cycles(), cells_written }
    }
}

/// Programs built around the fusion boundary: INIT with no NOR after
/// it, NOR with no INIT before it, back-to-back INITs, INIT followed by
/// a NOR into another column, and the fused shapes themselves.
fn boundary_program(rng: &mut StdRng, rows: usize, cols: usize) -> Microprogram {
    let mut p = Microprogram::new();
    for _ in 0..rng.gen_range(1usize..16) {
        let dst = rng.gen_range(0..cols);
        let other = |rng: &mut StdRng| (dst + rng.gen_range(1..cols)) % cols;
        match rng.gen_range(0u32..7) {
            0 => p.init_col(dst),
            1 => p.nor_cols(other(rng), other(rng), dst),
            2 => {
                p.init_col(dst);
                p.init_col(dst);
                p.nor_cols(other(rng), other(rng), dst);
            }
            3 => {
                p.init_col(dst);
                p.nor_cols(dst, dst, other(rng));
            }
            4 => p.gate_nor(other(rng), other(rng), dst),
            5 => {
                p.init_col(dst);
                p.nor_many_cols((0..rng.gen_range(1usize..8)).map(|_| other(rng)).collect(), dst);
            }
            _ => p.push(random_op(rng, rows, cols)),
        }
    }
    p
}

#[test]
fn fused_executor_matches_naive_interpreter() {
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0xF05E + case);
        let crossbars = if case % 2 == 0 { 4 } else { 1 };
        let (rows, cols) = (64usize, 48usize);
        let mut page = PimPage::new(&config(crossbars, rows, cols));
        let mut naive = Naive {
            cells: vec![vec![false; cols]; crossbars * rows],
            wear: vec![0; crossbars * rows],
            block_rows: rows,
        };
        for (record, row) in
            (0..crossbars * rows).map(|r| (r, (r % crossbars) * rows + r / crossbars))
        {
            let v = rng.gen::<u64>() & low_bits(cols);
            page.write_record_bits(record, 0, cols, v).unwrap();
            naive.cells[row].iter_mut().enumerate().for_each(|(c, b)| *b = (v >> c) & 1 == 1);
            naive.wear[row] += cols as u64;
        }
        for step in 0..12 {
            let prog = boundary_program(&mut rng, rows, cols);
            let got = page.execute(&prog).unwrap();
            assert_eq!(got, naive.run(&prog), "case {case} step {step}: summary");
            for (row, want) in naive.cells.iter().enumerate() {
                for (c, b) in want.iter().enumerate() {
                    assert_eq!(page.bits().get(row, c), *b, "case {case} step {step} ({row}, {c})");
                }
            }
            let max = naive.wear.iter().copied().max().unwrap();
            assert_eq!(page.max_row_cell_writes(), max, "case {case} step {step}: wear");
        }
    }
}

#[test]
fn bulk_writer_and_gather_match_per_record_access() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xB01C + case);
        let crossbars = [32usize, 4, 8][(case % 3) as usize];
        let (rows, cols) = ([64usize, 128][(case / 3 % 2) as usize], 96usize);
        let cfg = config(crossbars, rows, cols);
        let cap = crossbars * rows;
        let mut bulk = PimPage::new(&cfg);
        let mut single = PimPage::new(&cfg);
        for step in 0..12 {
            let ctx = format!("case {case} step {step}");
            let width = if step == 0 { (case as usize % 64) + 1 } else { rng.gen_range(1..=64) };
            let lo = rng.gen_range(0..=cols - width);
            // Ragged ranges, the full page, and partial last pages.
            let (first, len) = match rng.gen_range(0u32..4) {
                0 => (0, cap),
                1 => (0, rng.gen_range(1..cap)),
                2 => {
                    let first = rng.gen_range(0..cap);
                    (first, cap - first)
                }
                _ => {
                    let first = rng.gen_range(0..cap);
                    (first, rng.gen_range(0..=cap - first))
                }
            };
            let values: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
            bulk.write_records(first, lo, width, &values).unwrap();
            for (i, v) in values.iter().enumerate() {
                single.write_record_bits(first + i, lo, width, *v).unwrap();
            }
            assert_eq!(bulk.bits(), single.bits(), "{ctx}: cells");
            assert_eq!(bulk.max_row_cell_writes(), single.max_row_cell_writes(), "{ctx}: wear");

            // Gathers in page order, slab order, random order, sparse.
            let glo = rng.gen_range(0..=cols - width);
            let mut records: Vec<usize> = match rng.gen_range(0u32..4) {
                0 => (0..cap).collect(),
                1 => bulk.ones_in_col(rng.gen_range(0..cols)).collect(),
                2 => (0..rng.gen_range(0..200usize)).map(|_| rng.gen_range(0..cap)).collect(),
                _ => (0..cap).filter(|_| rng.gen_range(0u32..16) == 0).collect(),
            };
            if chance(&mut rng, 30) {
                records.sort_by_key(|r| (r % crossbars, r / crossbars));
            }
            let mut got = Vec::new();
            bulk.read_records(&records, glo, width, &mut got).unwrap();
            let want: Vec<u64> =
                records.iter().map(|&r| single.read_record_bits(r, glo, width).unwrap()).collect();
            assert_eq!(got, want, "{ctx}: gather");
        }
        if case % 8 == 0 {
            bulk.reset_endurance();
            single.reset_endurance();
            assert_eq!(bulk.max_row_cell_writes(), 0);
        }
    }
}

#[test]
fn ones_in_col_lists_exactly_the_set_records() {
    let cfg = config(8, 64, 32);
    let mut page = PimPage::new(&cfg);
    let mut rng = StdRng::seed_from_u64(7);
    let bits: Vec<u64> =
        (0..page.record_capacity()).map(|_| u64::from(chance(&mut rng, 30))).collect();
    page.write_records(0, 5, 1, &bits).unwrap();
    let mut got: Vec<usize> = page.ones_in_col(5).collect();
    got.sort_unstable();
    let want: Vec<usize> = (0..bits.len()).filter(|&r| bits[r] == 1).collect();
    assert_eq!(got, want);
    assert_eq!(page.popcount_col(5), want.len());
    for &r in &want {
        let slot = page.record_slot(r).unwrap();
        assert_eq!(slot, RecordSlot { crossbar: r % 8, row: r / 8 });
        assert!(page.bits().get(slot.crossbar * 64 + slot.row, 5), "slab row of record {r}");
    }
}

#[test]
fn bulk_access_rejects_out_of_range_records() {
    let cfg = config(4, 64, 32);
    let mut page = PimPage::new(&cfg);
    let cap = page.record_capacity();
    assert!(page.write_records(cap - 2, 0, 8, &[1, 2, 3]).is_err());
    assert_eq!(page.max_row_cell_writes(), 0, "a rejected write writes nothing");
    assert_eq!(page.popcount_col(0), 0);
    let mut out = Vec::new();
    assert!(page.read_records(&[0, cap], 0, 8, &mut out).is_err());
    assert!(out.is_empty());
    page.write_records(cap, 0, 8, &[]).unwrap();
}
