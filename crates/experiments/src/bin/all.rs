//! Every experiment in one process: the eight table and figure commands
//! over one load of the profile cache, with one `run-all.json`.

use mica_experiments::commands::{all, run};

fn main() {
    run("all", all);
}
