//! Profile all 122 benchmarks (ignoring any cache) and write
//! `results/profiles.json`.

use mica_experiments::runner::Runner;
use mica_experiments::{profile::profile_all, results_dir, scale};

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
