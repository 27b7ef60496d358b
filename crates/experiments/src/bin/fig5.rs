//! Figure 5: distance correlation as metrics are removed, with the GA point.

use mica_experiments::commands::{fig5, run};

fn main() {
    run("fig5", fig5);
}
