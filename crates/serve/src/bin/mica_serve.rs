//! The `mica-serve` daemon.
//!
//! Boots the engine (profiling the reference table if `profiles.json` is
//! cold), binds `MICA_SERVE_ADDR`, and serves until SIGTERM/SIGINT drains
//! it. Exits 0 after a clean drain with a one-line account on stderr; the
//! full [`mica_serve::server::DrainSummary`] goes to
//! `<results>/serve-drain.json`.

fn main() {
    mica_serve::server::install_signal_handlers();
    let cfg = mica_serve::ServeConfig::from_env();
    match mica_serve::server::serve(cfg) {
        Ok(summary) => {
            eprintln!(
                "mica-serve drained: {} accepted ({} ok, {} error, {} panic, {} deadline), \
                 {} rejected overloaded, {} rejected draining, {} index entries, {:.1}s",
                summary.accepted,
                summary.ok,
                summary.errors,
                summary.panics,
                summary.deadline_exceeded,
                summary.rejected_overloaded,
                summary.rejected_draining,
                summary.index_entries,
                summary.wall_s,
            );
        }
        Err(e) => {
            eprintln!("mica-serve: {e}");
            std::process::exit(1);
        }
    }
}
