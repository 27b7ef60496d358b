//! Reduce the 47-metric space to a handful of key characteristics, the
//! paper's Section V: correlation elimination vs the genetic algorithm,
//! evaluated by how well the reduced space preserves pairwise benchmark
//! distances.
//!
//! Run with: `cargo run --release --example feature_selection`

use mica_suite::mica::METRICS;
use mica_suite::prelude::*;
use mica_suite::stats::{pairwise_distances, select_features_k};

fn main() {
    // Profile a representative slice of the table (every 4th benchmark)
    // to keep the example quick.
    let table = benchmark_table();
    let specs: Vec<_> = table.iter().step_by(4).collect();
    println!("profiling {} benchmarks...", specs.len());
    let rows: Vec<Vec<f64>> = specs
        .iter()
        .map(|s| characterize(s, 100_000).expect("runs").into_values())
        .collect();
    let ds = DataSet::from_rows(rows);
    let z = zscore_normalize(&ds);
    let full = pairwise_distances(&z);

    // Correlation elimination down to 8 metrics.
    let ce = correlation_elimination(&ds, 8);
    let ce_dist = pairwise_distances(&z.select_columns(&ce));
    let ce_rho = pearson(full.values(), ce_dist.values());

    // Genetic algorithm, fixed to 8 metrics.
    let ga = select_features_k(&ds, 8, GaConfig { generations: 120, ..GaConfig::default() });

    println!("\ncorrelation elimination kept (rho = {ce_rho:.3}):");
    for c in &ce {
        println!("  {:>2}. {}", METRICS[*c].number, METRICS[*c].name);
    }
    println!("\ngenetic algorithm kept (rho = {:.3}):", ga.rho);
    for c in &ga.selected {
        println!("  {:>2}. {}", METRICS[*c].number, METRICS[*c].name);
    }
    println!(
        "\nGA {} CE at preserving the workload-space geometry ({:.3} vs {ce_rho:.3})",
        if ga.rho > ce_rho { "beats" } else { "does not beat" },
        ga.rho
    );
    println!(
        "measuring cost: Table IV's 8 picks need five of the six analyzers. Over\n\
         the same traces that saves about 1.8x of analyzer time (1.6x counting\n\
         the VM), short of the paper's ~3x: ILP at one window costs most of four,\n\
         and register traffic, working set and strides run whole (EXPERIMENTS.md)."
    );
}
