//! The `mica-serve` daemon.
//!
//! Boots the engine (profiling the reference table if `profiles.json` is
//! cold), binds `MICA_SERVE_ADDR`, and serves until SIGTERM/SIGINT drains
//! it. Exits 0 after a clean drain; the closing account, every `serve.*`
//! counter, is the run summary `<results>/run-serve.json`.

fn main() {
    mica_serve::server::install_signal_handlers();
    if let Err(e) = mica_serve::server::serve(mica_serve::ServeConfig::from_env()) {
        eprintln!("mica-serve: {e}");
        std::process::exit(1);
    }
}
