//! Figure 5 (and appendix Figure 11): `Quality` of the selected attribute
//! combination as the total privacy budget ε varies.
//!
//! Grid: datasets × clustering methods × ε ∈ [1e-3, 1], explainers
//! {TabEE, DPClustX, DP-Naive, DP-TabEE}, `ε_CandSet = ε_TopComb = ε/2`,
//! averaged over `--runs` runs (default 10, the paper's setting). Cells
//! (dataset × method) run on parallel worker threads; per-cell seeding keeps
//! the output identical to a single-threaded run. `--out` also writes the
//! grid (Quality and MAE) as `BENCH_quality.json`.
//!
//! ```text
//! cargo run -p dpx-bench --release --bin fig5_quality -- \
//!     --dataset all --clusters 5 --runs 10 [--threads N] \
//!     [--out results/BENCH_quality.json]
//! ```

use dpx_bench::table::{fmt4, Table};
use dpx_bench::utility::run_utility_grid;
use dpx_bench::Args;

fn main() {
    let args = Args::parse();
    let grid = run_utility_grid(&args);
    grid.write_if_requested(&args);
    for cell in &grid.cells {
        let mut table = Table::new(["dataset", "method", "eps", "explainer", "quality"]);
        for p in &cell.points {
            table.row([
                cell.kind.name().to_string(),
                cell.method.name().to_string(),
                format!("{}", p.eps),
                p.explainer.name().to_string(),
                fmt4(p.quality),
            ]);
        }
        println!("{}", table.render());
    }
}
