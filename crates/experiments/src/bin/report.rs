//! `REPORT.md`, one markdown report of the reproduction, and
//! `mica_dataset.csv`, the raw 122 x 47 data set.

use mica_experiments::commands::{report, run};

fn main() {
    run("report", report);
}
