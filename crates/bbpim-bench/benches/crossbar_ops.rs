//! Micro-benchmarks of the crossbar substrate: MAGIC gate execution,
//! multi-input NOR, aggregation-circuit application (SUM/MIN/MAX and the
//! counted variant) on the paper's 1024×512 crossbar geometry, and on a
//! paper-geometry 32-crossbar page: a compiled BETWEEN filter, a
//! compiled 24×4-bit multiply, and a bulk load of every record.

use bbpim_sim::aggcircuit::AggRequest;
use bbpim_sim::compiler::arith::compile_mul;
use bbpim_sim::compiler::predicate::compile_between_const;
use bbpim_sim::compiler::reduce::ReduceOp;
use bbpim_sim::compiler::{CodeBuilder, ColRange, ScratchPool};
use bbpim_sim::crossbar::Crossbar;
use bbpim_sim::isa::Microprogram;
use bbpim_sim::page::PimPage;
use bbpim_sim::SimConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn paper_crossbar() -> Crossbar {
    let mut xb = Crossbar::new(1024, 512);
    for r in 0..1024 {
        xb.write_row_bits(r, 0, 32, (r as u64).wrapping_mul(2654435761) & 0xFFFF_FFFF);
        xb.bits_mut_unaccounted().set(r, 40, r % 3 == 0);
    }
    xb
}

fn bench_gate_program(c: &mut Criterion) {
    let mut prog = Microprogram::new();
    // a representative 100-gate filter-sized program
    for i in 0..100 {
        prog.gate_nor(i % 32, (i + 1) % 32, 64 + (i % 64));
    }
    c.bench_function("crossbar/100_gate_program_1024x512", |b| {
        let mut xb = paper_crossbar();
        b.iter(|| {
            black_box(xb.execute(&prog).unwrap());
        })
    });
}

fn bench_multi_nor(c: &mut Criterion) {
    let mut prog = Microprogram::new();
    prog.init_col(100);
    prog.nor_many_cols((0..24).collect(), 100);
    c.bench_function("crossbar/24_input_nor", |b| {
        let mut xb = paper_crossbar();
        b.iter(|| {
            black_box(xb.execute(&prog).unwrap());
        })
    });
}

/// A 300-op program shaped like a compiled filter: range-compare
/// gates over a 32-bit attribute folded by multi-input NORs.
fn filter_sized_program() -> Microprogram {
    let mut prog = Microprogram::new();
    let mut i = 0;
    while prog.cycles() < 298 {
        prog.gate_nor(i % 32, 32 + (i % 8), 64 + (i % 64));
        if i % 16 == 15 {
            prog.init_col(130);
            prog.nor_many_cols((64..80).collect(), 130);
        }
        i += 1;
    }
    prog.gate_not(130, 131);
    prog
}

fn bench_filter_program(c: &mut Criterion) {
    let prog = filter_sized_program();
    assert_eq!(prog.cycles(), 300);
    c.bench_function("crossbar/300_op_filter_program_1024x512", |b| {
        let mut xb = paper_crossbar();
        b.iter(|| {
            black_box(xb.execute(&prog).unwrap());
        })
    });
}

fn agg_request(op: ReduceOp) -> AggRequest {
    AggRequest {
        op,
        value: ColRange::new(0, 32),
        mask_col: 40,
        dst_row: 0,
        dst: ColRange::new(448, 48),
    }
}

fn bench_agg_circuit(c: &mut Criterion) {
    for (name, op) in [("apply", ReduceOp::Sum), ("min", ReduceOp::Min), ("max", ReduceOp::Max)] {
        let req = agg_request(op);
        c.bench_function(&format!("crossbar/agg_circuit_{name}_1024_rows"), |b| {
            let mut xb = paper_crossbar();
            b.iter(|| {
                black_box(req.apply(&mut xb).unwrap());
            })
        });
    }
    let req = agg_request(ReduceOp::Sum);
    c.bench_function("crossbar/agg_circuit_apply_counted_1024_rows", |b| {
        let mut xb = paper_crossbar();
        b.iter(|| {
            black_box(req.apply_counted(&mut xb, ColRange::new(496, 16)).unwrap());
        })
    });
}

/// A paper-geometry page (32 crossbars of 1024×512) with a 32-bit
/// attribute at columns 0..32 in every record.
fn paper_page() -> PimPage {
    let mut page = PimPage::new(&SimConfig::default());
    let values: Vec<u64> = (0..page.record_capacity() as u64)
        .map(|r| r.wrapping_mul(2654435761) & 0xFFFF_FFFF)
        .collect();
    page.write_records(0, 0, 32, &values).unwrap();
    page
}

/// Compile into a program with the scratch region at columns 256..512.
fn compiled(f: impl FnOnce(&mut CodeBuilder<'_>)) -> Microprogram {
    let mut pool = ScratchPool::new(ColRange::new(256, 256));
    let mut b = CodeBuilder::new(&mut pool);
    f(&mut b);
    b.finish()
}

fn bench_page_programs(c: &mut Criterion) {
    // A 20-bit BETWEEN as the filter compiler emits it: 621 ops, almost
    // all fused INIT+NOR gates.
    let filter = compiled(|b| {
        compile_between_const(b, ColRange::new(0, 20), 522_699, 737_312).unwrap();
    });
    assert_eq!(filter.cycles(), 621);
    c.bench_function("page/621_op_between_filter_32x1024x512", |b| {
        let mut page = paper_page();
        b.iter(|| {
            black_box(page.execute(&filter).unwrap());
        })
    });
    // lo_extendedprice × lo_discount-shaped: 24-bit × 4-bit into 28 bits.
    let mul = compiled(|b| {
        compile_mul(b, ColRange::new(0, 24), ColRange::new(24, 4), ColRange::new(64, 28)).unwrap();
    });
    assert_eq!(mul.cycles(), 4295);
    c.bench_function("page/4295_op_mul_24x4_32x1024x512", |b| {
        let mut page = paper_page();
        b.iter(|| {
            black_box(page.execute(&mul).unwrap());
        })
    });
}

fn bench_bulk_load(c: &mut Criterion) {
    let mut page = PimPage::new(&SimConfig::default());
    let values: Vec<u64> =
        (0..page.record_capacity() as u64).map(|r| r.wrapping_mul(0x9E37_79B9)).collect();
    c.bench_function("page/bulk_load_32bit_attr_32x1024_records", |b| {
        b.iter(|| {
            page.write_records(0, 0, 32, &values).unwrap();
            black_box(page.max_row_cell_writes());
        })
    });
}

criterion_group!(
    benches,
    bench_page_programs,
    bench_bulk_load,
    bench_gate_program,
    bench_multi_nor,
    bench_filter_program,
    bench_agg_circuit
);
criterion_main!(benches);
