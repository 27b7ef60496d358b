//! Figure 4: ROC curves of the full, correlation-eliminated and GA spaces.

use mica_experiments::commands::{fig4, run};

fn main() {
    run("fig4", fig4);
}
