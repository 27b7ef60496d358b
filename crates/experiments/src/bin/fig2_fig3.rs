//! Figures 2 and 3: the bzip2-vs-blast case study.

use mica_experiments::commands::{fig2_fig3, run};

fn main() {
    run("fig2_fig3", fig2_fig3);
}
