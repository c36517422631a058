//! Figure 6 (and appendix Figure 12): MAE of the selected attribute
//! combination against the non-private TabEE reference, as ε varies.
//! Cells (dataset × method) run in parallel; per-cell seeding keeps results
//! identical to a single-threaded run. `--out` also writes the grid
//! (Quality and MAE) as `BENCH_quality.json`.
//!
//! ```text
//! cargo run -p dpx-bench --release --bin fig6_mae -- --dataset all --clusters 5
//! ```

use dpx_bench::table::{fmt4, Table};
use dpx_bench::utility::run_utility_grid;
use dpx_bench::{Args, Explainer};

fn main() {
    let args = Args::parse();
    let grid = run_utility_grid(&args);
    grid.write_if_requested(&args);
    for cell in &grid.cells {
        let mut table = Table::new(["dataset", "method", "eps", "explainer", "mae"]);
        for p in cell
            .points
            .iter()
            .filter(|p| p.explainer != Explainer::TabEE)
        {
            table.row([
                cell.kind.name().to_string(),
                cell.method.name().to_string(),
                format!("{}", p.eps),
                p.explainer.name().to_string(),
                fmt4(p.mae),
            ]);
        }
        println!("{}", table.render());
    }
}
