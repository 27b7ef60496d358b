//! Figure 6: k-means clusters in the GA space, with a kiviat per benchmark.

use mica_experiments::commands::{fig6, run};

fn main() {
    run("fig6", fig6);
}
