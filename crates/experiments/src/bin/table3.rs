//! Table III: benchmark tuples classified by both distances.

use mica_experiments::commands::{run, table3};

fn main() {
    run("table3", table3);
}
