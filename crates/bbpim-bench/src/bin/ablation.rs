//! Ablations of the main design choices:
//!
//! 1. **Aggregation circuit vs pure bulk-bitwise reduction** at the
//!    paper geometry (closed-form per-crossbar costs).
//! 2. **two-xb placement**: worst-case split (all dimension attributes
//!    away from the fact) vs the Section V-A optimisation (hot subgroup
//!    identifiers co-located with the fact attributes).
//! 3. **Host scattered-read sensitivity**: how the hybrid GROUP-BY's k
//!    decision shifts with the host's effective memory-level
//!    parallelism on data-dependent reads.

use bbpim_bench::{print_table, setup, BenchConfig};
use bbpim_core::engine::PimQueryEngine;
use bbpim_core::groupby::calibration::CalibrationConfig;
use bbpim_core::layout::RecordLayout;
use bbpim_core::modes::EngineMode;
use bbpim_sim::aggcircuit::AggRequest;
use bbpim_sim::compiler::reduce::{reduce_cost, ReduceOp};
use bbpim_sim::compiler::ColRange;
use bbpim_sim::SimConfig;

fn main() {
    let mut bench_cfg = BenchConfig::from_args();
    if (bench_cfg.sf - 0.1).abs() < 1e-12 {
        bench_cfg.sf = 0.05; // ablations need less data than the figures
    }

    ablation_agg_paths();
    println!("\n{}\n", "=".repeat(72));
    ablation_placement(&bench_cfg);
    println!("\n{}\n", "=".repeat(72));
    ablation_scatter(&bench_cfg);
}

/// 1. Circuit vs reduction tree, per crossbar, paper geometry.
fn ablation_agg_paths() {
    let cfg = SimConfig::default();
    println!("Ablation 1 — aggregation circuit vs pure bulk-bitwise reduction");
    println!("(per crossbar, 1024x512, paper energy/latency constants)\n");
    let mut rows = Vec::new();
    for width in [16usize, 32, 48] {
        let req = AggRequest {
            op: ReduceOp::Sum,
            value: ColRange::new(32, width),
            mask_col: 1,
            dst_row: 0,
            dst: ColRange::new(448, (width + 10).min(64)),
        };
        let circuit = req.cost(&cfg);
        let circuit_energy_pj = circuit.bits_read as f64 * cfg.read_energy_pj_per_bit
            + circuit.bits_written as f64 * cfg.write_energy_pj_per_bit
            + cfg.agg_circuit_power_uw * circuit.time_ns * 1e-3;
        let tree = reduce_cost(cfg.crossbar_rows, cfg.crossbar_cols, width, ReduceOp::Sum);
        let tree_time = tree.cycles as f64 * cfg.logic_cycle_ns;
        let tree_energy_pj = (tree.col_ops * cfg.crossbar_rows as u64
            + tree.row_ops * cfg.crossbar_cols as u64) as f64
            * cfg.logic_energy_fj_per_bit
            * 1e-3;
        rows.push(vec![
            format!("{width}"),
            format!("{:.1}", circuit.time_ns / 1e3),
            format!("{:.1}", tree_time / 1e3),
            format!("{:.1}x", tree_time / circuit.time_ns),
            format!("{:.2}", circuit_energy_pj / 1e3),
            format!("{:.2}", tree_energy_pj / 1e3),
            format!("{:.1}x", tree_energy_pj / circuit_energy_pj),
            format!("{}", circuit.bits_written),
            format!("{}", tree.max_row_cell_writes),
        ]);
    }
    print_table(
        &[
            "value bits",
            "circuit [us]",
            "bitwise [us]",
            "slowdown",
            "circuit [nJ]",
            "bitwise [nJ]",
            "energy x",
            "circuit cell-writes",
            "bitwise row-writes",
        ],
        &rows,
    );
    println!("\n(the cell-write column is why the circuit also buys endurance: the");
    println!(" reduction tree rewrites thousands of cells per row per aggregation)");
}

/// 2. two-xb worst-case vs optimised placement on a GROUP BY query.
fn ablation_placement(bench_cfg: &BenchConfig) {
    println!("Ablation 2 — two-xb placement: worst-case vs hot-keys-with-fact");
    println!(
        "(SF={}, query Q2.3: GROUP BY d_year, p_brand1; host slowed to the\n paper's regime — scatter_mlp 0.5 — so the model assigns subgroups to PIM)\n",
        bench_cfg.sf
    );
    let s = setup(bench_cfg.clone());
    let q = s.queries.iter().find(|q| q.id == "Q2.3").expect("Q2.3").clone();
    let mut sim = SimConfig::default();
    sim.host.scatter_mlp = 0.5;

    // Worst case: by-prefix split (all dimension attrs in partition 1);
    // its pim-gb pays a mask transfer per subgroup, and its calibration
    // (run in TwoXb mode) knows it.
    let mut worst =
        PimQueryEngine::new(sim.clone(), s.wide.clone(), EngineMode::TwoXb).expect("engine");
    worst.calibrate(&CalibrationConfig::default()).expect("calibration");
    let m = worst.page_count();
    let worst_tpim = worst.model().unwrap().pim.time_ns(m, 1);
    let worst_out = worst.run(&q).expect("query");
    drop(worst);

    // Optimised: this query's subgroup identifiers live with the fact,
    // so its pim-gb path is transfer-free — calibrate it as such (the
    // DBA calibrates for the actual placement).
    let hot = ["d_year", "p_brand1"];
    let layout = RecordLayout::build_custom(
        s.wide.schema(),
        &sim,
        2,
        |name| {
            if name.starts_with("lo_") || hot.contains(&name) {
                0
            } else {
                1
            }
        },
        &[],
    )
    .expect("layout");
    let mut opt =
        PimQueryEngine::with_layout(sim.clone(), s.wide.clone(), EngineMode::TwoXb, layout)
            .expect("engine");
    let (_, transfer_free_model) = bbpim_core::groupby::calibration::run_calibration(
        &sim,
        EngineMode::OneXb,
        &CalibrationConfig::default(),
    )
    .expect("calibration");
    let opt_tpim = transfer_free_model.pim.time_ns(m, 1);
    opt.set_model(transfer_free_model);
    let opt_out = opt.run(&q).expect("query");

    assert_eq!(worst_out.groups, opt_out.groups, "placement must not change answers");
    print_table(
        &["placement", "T_pim-gb/subgroup [ms]", "k->PIM", "latency [ms]", "energy [mJ]"],
        &[
            vec![
                "worst-case (paper two_xb)".into(),
                format!("{:.4}", worst_tpim / 1e6),
                worst_out.report.pim_agg_subgroups.to_string(),
                format!("{:.3}", worst_out.report.time_ns / 1e6),
                format!("{:.4}", worst_out.report.energy_pj * 1e-9),
            ],
            vec![
                "hot keys with fact".into(),
                format!("{:.4}", opt_tpim / 1e6),
                opt_out.report.pim_agg_subgroups.to_string(),
                format!("{:.3}", opt_out.report.time_ns / 1e6),
                format!("{:.4}", opt_out.report.energy_pj * 1e-9),
            ],
        ],
    );
    println!("\n(the optimised placement removes the per-subgroup mask transfer: its");
    println!(" pim-gb is as cheap as one-xb's, so the model can move subgroups into");
    println!(" PIM — the paper's Section V-A remark about prior knowledge of hot keys.");
    println!(" At this small M the host path is still competitive in total latency;");
    println!(" the per-subgroup column is the placement effect itself, and it is what");
    println!(" scales with M at the paper's SF=10.)");
}

/// 3. k-decision sensitivity to the scattered-read model.
fn ablation_scatter(bench_cfg: &BenchConfig) {
    println!("Ablation 3 — hybrid decision vs host scattered-read parallelism");
    println!("(SF={}, query Q2.3; scatter_mlp = in-flight misses per thread)\n", bench_cfg.sf);
    let s = setup(bench_cfg.clone());
    let q = s.queries.iter().find(|q| q.id == "Q2.3").expect("Q2.3").clone();
    let mut rows = Vec::new();
    for scatter_mlp in [0.5f64, 1.0, 4.0, 16.0] {
        let mut sim = SimConfig::default();
        sim.host.scatter_mlp = scatter_mlp;
        let mut engine =
            PimQueryEngine::new(sim, s.wide.clone(), EngineMode::OneXb).expect("engine");
        engine.calibrate(&CalibrationConfig::default()).expect("calibration");
        let out = engine.run(&q).expect("query");
        rows.push(vec![
            format!("{scatter_mlp}"),
            out.report.pim_agg_subgroups.to_string(),
            out.report.total_subgroups.to_string(),
            format!("{:.3}", out.report.time_ns / 1e6),
        ]);
    }
    print_table(&["scatter_mlp", "k->PIM", "k_MAX", "latency [ms]"], &rows);
    println!("\n(a slower host pushes subgroups into PIM — the regime the paper's");
    println!(" gem5 host sits in; a faster host keeps the tail on the CPU)");
}
