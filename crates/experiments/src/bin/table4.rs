//! Table IV: the key characteristics the genetic algorithm selects.

use mica_experiments::commands::{run, table4};

fn main() {
    run("table4", table4);
}
