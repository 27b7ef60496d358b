//! Figure 1: HPC-space vs MICA-space distance of every benchmark tuple.

use mica_experiments::commands::{fig1, run};

fn main() {
    run("fig1", fig1);
}
