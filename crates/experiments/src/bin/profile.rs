//! Profile all 122 benchmarks (ignoring any cache) and write
//! `results/profiles.json`.
//!
//! Under `MICA_PMU=1` the run additionally carries the simulated PMU on
//! every kernel and writes the heat artifacts under `results/heat/`: one
//! `<kernel>.json` per surviving benchmark, a `flamegraph.collapsed`
//! export for standard flamegraph tooling, and a `heatmap.svg` overview.
//! The PMU is passive, so `profiles.json` is byte-identical with the PMU
//! on or off (asserted in CI).

use mica_experiments::runner::Runner;
use mica_experiments::{profile::profile_all, results_dir, scale};
use mica_pmu::KernelHeat;

/// Write every heat artifact for a PMU-enabled run. Failures are
/// warn-level, like the run summary: the run's primary output is
/// `profiles.json`, and a heat artifact that cannot be written should not
/// un-profile 122 benchmarks.
fn save_heat(heat: &[KernelHeat]) {
    let dir = results_dir().join("heat");
    for h in heat {
        let path = dir.join(format!("{}.json", KernelHeat::file_stem(&h.kernel)));
        if let Err(e) = mica_fault::io::atomic_write_retry("heat", &path, h.to_json().as_bytes()) {
            mica_obs::warn!("cannot write heat artifact {}: {e}", path.display());
        }
    }
    let collapsed = dir.join("flamegraph.collapsed");
    let stacks = mica_pmu::collapsed_stacks(heat);
    if let Err(e) = mica_fault::io::atomic_write_retry("heat", &collapsed, stacks.as_bytes()) {
        mica_obs::warn!("cannot write flamegraph {}: {e}", collapsed.display());
    }
    let svg_path = dir.join("heatmap.svg");
    let svg = mica_pmu::render_svg(heat);
    if let Err(e) = mica_fault::io::atomic_write_retry("heat", &svg_path, svg.as_bytes()) {
        mica_obs::warn!("cannot write heat map {}: {e}", svg_path.display());
    }
    mica_obs::info!("wrote {} heat profiles -> {}", heat.len(), dir.display());
}

fn main() {
    let mut run = Runner::new("profile");
    let outcome = run.stage("profile", || profile_all(scale())).unwrap_or_else(|e| {
        mica_obs::error!("profiling failed: {e}");
        mica_obs::flush();
        std::process::exit(1);
    });
    outcome.announce();
    run.quarantine(&outcome.quarantined);
    run.set_table_fingerprint(outcome.table_fingerprint);
    if !outcome.heat.is_empty() {
        run.stage("heat", || save_heat(&outcome.heat));
    }
    let set = outcome.set;
    let path = results_dir().join("profiles.json");
    run.stage("save", || set.save(&path)).unwrap_or_else(|e| {
        mica_obs::error!("cannot write {}: {e}", path.display());
        mica_obs::flush();
        std::process::exit(1);
    });
    mica_obs::info!("profiled {} benchmarks -> {}", set.records.len(), path.display());
    run.finish();
}
