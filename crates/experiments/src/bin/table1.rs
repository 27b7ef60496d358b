//! Table I: the benchmarks, their inputs and instruction counts.

use mica_experiments::commands::{run, table1};

fn main() {
    run("table1", table1);
}
