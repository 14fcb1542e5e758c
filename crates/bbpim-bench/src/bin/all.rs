//! Run every experiment in one pass.

use bbpim_bench::reports::{print_fig6, print_fig7, print_fig8, print_fig9, print_table2};
use bbpim_bench::{cross_validate, pim_runs, run_monet, setup, BenchConfig};

fn main() {
    let cfg = BenchConfig::from_args();
    println!("=== bbpim full experiment run ===");
    println!("sf={} skewed={} seed={:#x} threads={}\n", cfg.sf, cfg.skewed, cfg.seed, cfg.threads);

    let s = setup(cfg);
    eprintln!(
        "data generated: {} lineorders, wide arity {}",
        s.wide.len(),
        s.wide.schema().arity()
    );
    eprintln!("running PIM modes…");
    let pim = pim_runs(&s);
    eprintln!("running baselines…");
    let mnt_join = run_monet(&s, true, 3);
    let mnt_reg = run_monet(&s, false, 3);

    let refs: Vec<&bbpim_bench::PimModeRun> = pim.iter().collect();
    let bad = cross_validate(&s.queries, &refs, &[&mnt_join, &mnt_reg]);
    println!(
        "cross-validation: {}\n",
        if bad.is_empty() {
            "all 5 systems agree on all 13 queries".to_string()
        } else {
            format!("MISMATCH on {bad:?}")
        }
    );

    // optional machine-readable output: --csv <dir>
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--csv") {
        if let Some(dir) = args.get(i + 1) {
            bbpim_bench::reports::write_csvs(
                std::path::Path::new(dir),
                &s,
                &pim,
                &mnt_join,
                &mnt_reg,
            )
            .expect("csv export");
            eprintln!("CSVs written to {dir}");
        }
    }

    print_fig6(&s, &pim, &mnt_join, &mnt_reg);
    println!("\n{}\n", "=".repeat(72));
    print_fig7(&s, &pim);
    println!("\n{}\n", "=".repeat(72));
    print_fig8(&s, &pim);
    println!("\n{}\n", "=".repeat(72));
    print_fig9(&s, &pim);
    println!("\n{}\n", "=".repeat(72));
    print_table2(&s, &pim);
}
