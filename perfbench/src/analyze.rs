//! `analyze-cached`: every table and figure from a warm profile cache.
//!
//! Each pass runs the eight commands of the `all` binary, in its order, in
//! a fresh directory holding a copy of the committed
//! `results/profiles.json`, so no kernel runs: the time goes to validating
//! the cache and to the statistics. Every CSV and SVG they write, and
//! every file under `fig6/`, must be byte-identical to `results/`.
//! Latency is the time of a whole pass, what a user of `all` waits for,
//! and throughput the commands per second of the median pass; both are
//! scaled to the reference host speed ([`crate::hostspeed`]). Set-up is
//! [`check_cache`], the validation each command pays before it analyzes
//! anything.

use crate::hostspeed::{HostSpeed, Sample};
use crate::{median, pass_count, seed_results_dir, Outcome, Params};
use mica_experiments::analysis::{hpc_dataset, mica_dataset, workload_distances};
use mica_experiments::profile::check_cache;
use mica_experiments::results::ProfileSet;
use mica_experiments::runner::RunSummary;
use mica_stats::{
    auc, choose_k_by_bic, correlation_elimination, elimination_order, hierarchical_cluster,
    pairwise_distances, roc_curve, select_features, select_features_k, silhouette,
    zscore_normalize, GaConfig,
};
use mica_workloads::table_fingerprint;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Files under `dir`, relative to it, sorted.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// Check the artifacts one `all` pass wrote into `dir` against `golden`:
/// each must exist there byte for byte, and every golden `fig6/` file must
/// have been written. Returns `(checked, failed)`.
pub fn check_outputs(dir: &Path, golden: &Path) -> (u64, u64) {
    let written: Vec<PathBuf> = files_under(dir)
        .into_iter()
        .filter(|rel| {
            let name = rel.to_string_lossy();
            name != "profiles.json" && !(name.starts_with("run-") && name.ends_with(".json"))
        })
        .collect();
    let mut checked = 0;
    let mut failed = 0;
    for rel in &written {
        checked += 1;
        let same = match (
            std::fs::read(dir.join(rel)),
            std::fs::read(golden.join(rel)),
        ) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
        if !same {
            eprintln!(
                "analyze-cached: {} differs from the committed copy",
                rel.display()
            );
            failed += 1;
        }
    }
    let fig6 = Path::new("fig6");
    for rel in files_under(&golden.join(fig6)) {
        if !written.contains(&fig6.join(&rel)) {
            eprintln!("analyze-cached: fig6/{} was not written", rel.display());
            checked += 1;
            failed += 1;
        }
    }
    (checked, failed)
}

/// The commands `all` runs, in its order. `all` is equivalent to running
/// each of them in turn, which is what a pass does, so that a host-speed
/// sample falls between consecutive commands.
pub const COMMANDS: [&str; 8] = [
    "table1",
    "fig1",
    "table3",
    "fig2_fig3",
    "fig4",
    "fig5",
    "table4",
    "fig6",
];

/// One pass in a fresh `dir`: every command in turn, each followed by a
/// host-speed sample. Returns `(scaled_s, raw_s, checked, failed)`.
fn pass(p: &Params, dir: &Path, speed: &mut HostSpeed) -> Result<(f64, f64, u64, u64), String> {
    seed_results_dir(&p.golden, dir)?;
    let (mut scaled, mut raw, mut broken) = (0.0, 0.0, 0);
    for bin in COMMANDS {
        let exe = p.bin_dir.join(bin);
        let (s, r, status) = speed.time(|| {
            Command::new(&exe)
                .env("MICA_RESULTS_DIR", dir)
                .stdout(Stdio::null())
                .status()
        });
        let status = status.map_err(|e| format!("cannot launch {}: {e}", exe.display()))?;
        if !status.success() {
            eprintln!("analyze-cached: `{bin}` failed ({status})");
            broken += 1;
        }
        scaled += s;
        raw += r;
    }
    let (checked, failed) = check_outputs(dir, &p.golden);
    Ok((
        scaled,
        raw,
        checked + COMMANDS.len() as u64,
        failed + broken,
    ))
}

/// Run the workload.
///
/// # Errors
///
/// The golden cache is missing or a command cannot be launched.
pub fn run(p: &Params, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cache = p.golden.join("profiles.json");
    if trace {
        traced(p, &cache, &mut out)?;
        return Ok(out);
    }
    let mut speed = HostSpeed::new(Sample::Analyzer);
    let mut setups = Vec::new();
    for _ in 0..p.setups.max(1) {
        let (s, _, hit) = speed.time(|| check_cache(&cache, p.profile_scale));
        out.check(1, u64::from(hit.is_err()));
        setups.push(s);
    }
    let (mut scaled, mut raw) = (Vec::new(), Vec::new());
    let mut passes = 1;
    while scaled.len() < passes {
        let dir = p.work.join(format!("pass-{}", scaled.len()));
        let started = Instant::now();
        let (s, r, checked, failed) = pass(p, &dir, &mut speed)?;
        std::fs::remove_dir_all(&dir).ok();
        out.check(checked, failed);
        scaled.push(s);
        raw.push(r);
        if scaled.len() == 1 {
            passes = pass_count(p.seconds, started.elapsed().as_secs_f64());
        }
    }
    let mut lat: Vec<f64> = scaled.iter().map(|s| s * 1e3).collect();
    out.e2e(&setups, COMMANDS.len() as f64 / median(&scaled), &mut lat);
    out.note("raw_pass_ms", median(&raw) * 1e3, "ms");
    out.note("passes", scaled.len() as f64, "count");
    out.host_speed(&speed);
    Ok(out)
}

/// The traced run: one pass (stage times from the eight commands' run
/// summaries), then each set-up layer and each statistics call the
/// commands make, timed on the committed profile set with their
/// arguments. The timed calls, over the pass's raw time, are the tracing
/// overhead.
fn traced(p: &Params, cache: &Path, out: &mut Outcome) -> Result<(), String> {
    let dir = p.work.join("pass");
    let (_, pass_s, checked, failed) = pass(p, &dir, &mut HostSpeed::new(Sample::Analyzer))?;
    out.check(checked, failed);
    let (mut profiles_stage, mut unowned) = (0.0, 0.0);
    for bin in COMMANDS {
        let summary: Option<RunSummary> =
            std::fs::read_to_string(dir.join(format!("run-{bin}.json")))
                .ok()
                .and_then(|text| serde_json::from_str(&text).ok());
        let Some(s) = summary else {
            out.check(1, 1);
            continue;
        };
        let staged: f64 = s.stages.iter().map(|st| st.wall_s).sum();
        profiles_stage += s
            .stages
            .iter()
            .filter(|st| st.name == "profiles")
            .map(|st| st.wall_s)
            .sum::<f64>();
        unowned += s.wall_s - staged;
    }
    std::fs::remove_dir_all(&dir).ok();
    out.metric("experiments.profiles_stage_s", profiles_stage, "s");
    out.metric("experiments.runner_unowned_s", unowned, "s");

    let epoch = Instant::now();
    out.layer(epoch, "workloads.table_fingerprint", || {
        black_box(table_fingerprint())
    });
    let set = out.layer(epoch, "experiments.profile_set_load", || {
        ProfileSet::load(cache)
    });
    let set = set.map_err(|e| format!("load {}: {e}", cache.display()))?;
    let hit = out.layer(epoch, "experiments.check_cache", || {
        check_cache(cache, p.profile_scale)
    });
    out.check(1, u64::from(hit.is_err()));

    // The statistics calls, with the arguments the commands pass.
    let mica = mica_dataset(&set);
    let z = zscore_normalize(&mica);
    out.layer(epoch, "stats.distances", || {
        black_box(workload_distances(&set))
    });
    out.layer(epoch, "stats.ga_free", || {
        black_box(select_features(&mica, GaConfig::default()))
    });
    let ga = out.layer(epoch, "stats.ga_k8", || {
        select_features_k(&mica, 8, GaConfig::default())
    });
    let kept = out.layer(epoch, "stats.corr_elim", || {
        black_box(elimination_order(&mica));
        [17, 12, 7].map(|n| correlation_elimination(&mica, n))
    });
    let hpc = pairwise_distances(&zscore_normalize(&hpc_dataset(&set)));
    let mut spaces = vec![pairwise_distances(&z).values().to_vec()];
    spaces.push(
        pairwise_distances(&z.select_columns(&ga.selected))
            .values()
            .to_vec(),
    );
    spaces.extend(
        kept.iter()
            .map(|k| pairwise_distances(&z.select_columns(k)).values().to_vec()),
    );
    out.layer(epoch, "stats.roc", || {
        for d in &spaces {
            black_box(auc(&roc_curve(hpc.values(), d, 0.2, 200)));
        }
    });
    let z8 = z.select_columns(&ga.selected);
    let clustering = out.layer(epoch, "stats.kmeans_bic", || {
        choose_k_by_bic(&z8, 70, 0x4d49_4341)
    });
    let d8 = pairwise_distances(&z8);
    let dendrogram = out.layer(epoch, "stats.hier_cluster", || hierarchical_cluster(&d8));
    out.layer(epoch, "stats.silhouette", || {
        black_box(silhouette(&d8, &clustering.labels));
        black_box(silhouette(&d8, &dendrogram.cut(clustering.k())));
    });
    out.metric(
        "bench.trace_overhead_frac",
        epoch.elapsed().as_secs_f64() / pass_s,
        "ratio",
    );
    Ok(())
}
