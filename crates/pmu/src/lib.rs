//! Empty. This crate held a simulated performance-monitoring unit whose
//! block heat maps no table, figure, serve answer or benchmark read, so
//! its code is gone. The package, its dependencies, and the
//! `mica-experiments` and `mica-prof` dependencies on it stay only because
//! removing any of them rewrites `perfbench/Cargo.lock`; they go with the
//! next change to the benchmark (ROADMAP item 5).
