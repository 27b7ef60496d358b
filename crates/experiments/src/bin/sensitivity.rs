//! Machine-sensitivity experiment (the paper's Section IV argument made
//! explicit): profile the *same* dynamic instruction streams on two
//! different simulated microarchitectures and show that the
//! counter-based workload space changes with the machine, while the
//! microarchitecture-independent space — computed from the same trace —
//! cannot change by construction.
//!
//! "The pitfall of microarchitecture-dependent characterization is that the
//! conclusions taken based on this characterization may not be generalized
//! to other microarchitectures." — Section IV.

use mica_experiments::profile::{scaled_budget, validate_scale, Quarantine};
use mica_experiments::results::write_csv;
use mica_experiments::runner::Runner;
use mica_experiments::{results_dir, scale};
use mica_stats::{classify_pairs, pairwise_distances, pearson, zscore_normalize, DataSet};
use mica_workloads::{benchmark_table, BenchmarkSpec};
use tinyisa::{DynInst, TraceSink};
use uarch_sim::{
    CacheConfig, Ev56Model, Ev67Model, HpcSimulator, InOrderConfig, MemoryLatency, OooConfig,
};

/// A "five-years-later" machine: bigger, more associative caches with
/// next-line prefetching, a larger window, and relatively slower memory.
fn modern_pair() -> HpcSimulator {
    let in_order = InOrderConfig {
        l1: CacheConfig { size: 32 * 1024, line: 64, assoc: 2 },
        l2: CacheConfig { size: 512 * 1024, line: 64, assoc: 8 },
        lat: MemoryLatency { l1: 3, l2: 14, mem: 150, tlb_miss: 40 },
        predictor_entries: 8192,
        mispredict_penalty: 10,
        dtlb_entries: 128,
        page_size: 8192,
        prefetch: true,
    };
    let ooo = OooConfig {
        l1: CacheConfig { size: 32 * 1024, line: 64, assoc: 4 },
        l2: CacheConfig { size: 2 * 1024 * 1024, line: 64, assoc: 8 },
        lat: MemoryLatency { l1: 4, l2: 16, mem: 200, tlb_miss: 40 },
        window: 192,
        mispredict_penalty: 14,
        dtlb_entries: 256,
        page_size: 8192,
        prefetch: true,
    };
    HpcSimulator::with_machines(Ev56Model::with_config(in_order), Ev67Model::with_config(ooo))
}

/// Fan one trace out to both machine pairs at once.
struct Both {
    alpha: HpcSimulator,
    modern: HpcSimulator,
}

impl TraceSink for Both {
    fn retire(&mut self, inst: &DynInst) {
        self.alpha.retire(inst);
        self.modern.retire(inst);
    }
}

/// Run one kernel on both machine pairs; an error becomes its quarantine
/// reason.
fn run_both(spec: &BenchmarkSpec, budget: u64) -> Result<(Vec<f64>, Vec<f64>), String> {
    if mica_fault::plan::should_panic_kernel(spec.program)
        || mica_fault::plan::should_panic_kernel(&spec.name())
    {
        return Err(format!("injected fault: kernel {} (MICA_FAULTS)", spec.name()));
    }
    let mut vm = spec.build_vm().map_err(|e| format!("kernel failed to assemble: {e}"))?;
    let mut both = Both { alpha: HpcSimulator::new(), modern: modern_pair() };
    vm.run(&mut both, budget).map_err(|e| format!("kernel faulted: {e}"))?;
    Ok((both.alpha.finish().counter_vector(), both.modern.finish().counter_vector()))
}

fn main() {
    let mut run = Runner::new("sensitivity");
    let scale = scale();
    if let Err(e) = validate_scale(scale) {
        mica_obs::error!("profiling failed: {e}");
        mica_obs::flush();
        std::process::exit(1);
    }
    let table = benchmark_table();
    let (alpha_rows, modern_rows, quarantined) = run.stage("profile", || {
        let progress = mica_par::Progress::new();
        let results = mica_par::par_map_isolated(&table, |spec| {
            let rows = run_both(spec, scaled_budget(spec, scale));
            mica_obs::info!("[{:3}/{}] {}", progress.tick(), table.len(), spec.name());
            rows
        });
        let mut alpha_rows = Vec::with_capacity(table.len());
        let mut modern_rows = Vec::with_capacity(table.len());
        let mut quarantined = Vec::new();
        for (spec, result) in table.iter().zip(results) {
            match result.unwrap_or_else(|p| Err(format!("panic: {}", p.payload))) {
                Ok((a, m)) => {
                    alpha_rows.push(a);
                    modern_rows.push(m);
                }
                Err(reason) => quarantined.push(Quarantine { name: spec.name(), reason }),
            }
        }
        (alpha_rows, modern_rows, quarantined)
    });
    if !quarantined.is_empty() {
        println!(
            "QUARANTINED (n={}): continuing on {} of {} benchmarks",
            quarantined.len(),
            alpha_rows.len(),
            table.len()
        );
        for q in &quarantined {
            println!("  {}: {}", q.name, q.reason);
        }
    }
    run.quarantine(&quarantined);
    if alpha_rows.len() < 2 {
        println!("sensitivity: fewer than two benchmarks survived; nothing to compare");
        run.finish();
        return;
    }

    let (d_alpha, d_modern) = run.stage("distances", || {
        (
            pairwise_distances(&zscore_normalize(&DataSet::from_rows(alpha_rows))),
            pairwise_distances(&zscore_normalize(&DataSet::from_rows(modern_rows))),
        )
    });

    let r = pearson(d_alpha.values(), d_modern.values());
    println!("\nMachine sensitivity of the counter-based workload space");
    println!("(identical traces; only the measuring machine differs)\n");
    println!("distance correlation, Alpha-like vs modern-like machine: {r:.3}");

    // How many "similar / dissimilar" calls flip between the machines?
    let c = classify_pairs(d_alpha.values(), d_modern.values(), 0.2, 0.2);
    let flips = c.false_positive + c.false_negative;
    println!(
        "benchmark tuples whose similarity verdict flips at the 20% threshold: {:.1}%",
        100.0 * flips
    );
    println!(
        "\nThe microarchitecture-independent characterization is computed from the\n\
         same retired-instruction stream and is therefore bit-identical on both\n\
         machines — the conclusions it supports transfer; the counter-based ones\n\
         above demonstrably do not."
    );

    let rows: Vec<String> = d_alpha
        .values()
        .iter()
        .zip(d_modern.values())
        .map(|(a, m)| format!("{a:.6},{m:.6}"))
        .collect();
    write_csv(&results_dir().join("sensitivity.csv"), "alpha_distance,modern_distance", &rows)
        .expect("csv writes");
    mica_obs::info!("wrote {}", results_dir().join("sensitivity.csv").display());
    run.finish();
}
