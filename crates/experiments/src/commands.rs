//! The analysis commands: one function per table or figure of the paper,
//! [`all`] of them in turn, and [`report`], each the body of the binary of
//! the same name, which [`run`] drives.
//!
//! A command reads one loaded [`ProfileSet`] through an [`Analysis`],
//! which also holds the output directory and the values several commands
//! derive, each computed on first use: a command alone computes only what
//! it reads, and [`all`] runs the k = 8 GA once.

use crate::analysis::{
    max_normalize_columns, metric_short_names, mica_dataset, minmax_normalize_columns,
    workload_distances,
};
use crate::profile::load_or_profile_all;
use crate::results::{write_csv, write_text, ProfileSet};
use crate::runner::Runner;
use crate::{results_dir, scale};
use mica_core::METRICS;
use mica_stats::{
    auc, choose_k_by_bic, classify_pairs, correlation_elimination, elimination_order,
    hierarchical_cluster, pairwise_distances, pearson, plot, roc_curve, select_features,
    select_features_k, silhouette, zscore_normalize, CondensedDistances, DataSet, GaConfig,
    GaResult,
};
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use uarch_sim::HPC_EXTENDED_NAMES;

/// One loaded profile set, where its artifacts go, and the values derived
/// from it that more than one command reads, each computed on first use.
pub struct Analysis {
    set: ProfileSet,
    dir: PathBuf,
    mica: OnceCell<DataSet>,
    distances: OnceCell<(CondensedDistances, CondensedDistances)>,
    ga_k8: OnceCell<GaResult>,
}

impl Analysis {
    /// An analysis of `set` that writes its artifacts under `dir`.
    pub fn new(set: ProfileSet, dir: PathBuf) -> Analysis {
        Analysis {
            set,
            dir,
            mica: OnceCell::new(),
            distances: OnceCell::new(),
            ga_k8: OnceCell::new(),
        }
    }

    /// The 122 x 47 microarchitecture-independent data set.
    fn mica(&self) -> &DataSet {
        self.mica.get_or_init(|| mica_dataset(&self.set))
    }

    /// `(mica, hpc)` pairwise distances, as [`workload_distances`].
    fn distances(&self) -> &(CondensedDistances, CondensedDistances) {
        self.distances.get_or_init(|| workload_distances(&self.set))
    }

    /// The GA selection of exactly 8 metrics (Section V-B), which Figs.
    /// 4–6 and Table IV all read.
    fn ga_k8(&self) -> &GaResult {
        self.ga_k8.get_or_init(|| select_features_k(self.mica(), 8, GaConfig::default()))
    }
}

/// A command: it times its steps as stages of the runner and writes its
/// artifacts under the analysis' directory.
pub type Command = fn(&mut Runner, &Analysis);

/// The whole `main` of the binary `bin`: load the profile cache of the
/// results directory as the run's `profiles` stage, profiling every
/// benchmark when the cache is unusable; announce any quarantined
/// benchmark; run `command` into the results directory; and write
/// `run-<bin>.json` with the table fingerprint the load computed.
pub fn run(bin: &'static str, command: Command) {
    let mut run = Runner::new(bin);
    let dir = results_dir();
    let outcome = run
        .stage("profiles", || load_or_profile_all(&dir.join("profiles.json"), scale()))
        .expect("profiling succeeds");
    outcome.announce();
    run.quarantine(&outcome.quarantined);
    run.set_table_fingerprint(outcome.table_fingerprint);
    command(&mut run, &Analysis::new(outcome.set, dir));
    run.finish();
}

/// Every experiment in turn over one analysis — Table I, Figure 1, Table
/// III, Figures 2/3, Figure 4, Figure 5, Table IV and Figure 6 — so their
/// stages follow each other in one run summary.
pub fn all(run: &mut Runner, a: &Analysis) {
    let commands: [(&str, Command); 8] = [
        ("table1", table1),
        ("fig1", fig1),
        ("table3", table3),
        ("fig2_fig3", fig2_fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("table4", table4),
        ("fig6", fig6),
    ];
    for (bin, command) in commands {
        println!("\n================ {bin} ================\n");
        command(run, a);
    }
    println!("\nall experiments completed; artifacts are in the results directory");
}

/// Table I: the 122 benchmarks with their inputs and dynamic instruction
/// counts — the paper's counts alongside this reproduction's scaled runs.
pub fn table1(run: &mut Runner, a: &Analysis) {
    println!("Table I — benchmarks, inputs and dynamic instruction counts");
    println!(
        "{:<20} {:<12} {:<22} {:>14} {:>14}",
        "suite", "program", "input", "paper I-cnt (M)", "executed (insts)"
    );
    let mut rows = Vec::new();
    let mut current_suite = String::new();
    for r in &a.set.records {
        if r.suite != current_suite {
            println!("--- {} ---", r.suite);
            current_suite = r.suite.clone();
        }
        println!(
            "{:<20} {:<12} {:<22} {:>14} {:>14}",
            r.suite, r.program, r.input, r.paper_icount_millions, r.executed_instructions
        );
        rows.push(format!(
            "{},{},{},{},{}",
            r.suite, r.program, r.input, r.paper_icount_millions, r.executed_instructions
        ));
    }
    let csv = a.dir.join("table1.csv");
    run.stage("write", || {
        write_csv(&csv, "suite,program,input,paper_icount_millions,executed_instructions", &rows)
            .expect("csv writes");
    });
    mica_obs::info!("{} benchmarks -> {}", a.set.records.len(), csv.display());
}

/// Figure 1: scatter of pairwise benchmark distance in the hardware-
/// performance-counter space vs the microarchitecture-independent space,
/// with their correlation coefficient (paper: 0.46).
pub fn fig1(run: &mut Runner, a: &Analysis) {
    let (mica, hpc) = run.stage("distances", || a.distances());

    let r = pearson(mica.values(), hpc.values());
    println!("Figure 1 — HPC-space distance vs MICA-space distance");
    println!("benchmark tuples: {}", mica.len());
    println!("correlation coefficient: {r:.3}  (paper: 0.46)");
    println!("max distance, MICA space: {:.3}", mica.max());
    println!("max distance, HPC space:  {:.3}", hpc.max());

    run.stage("write", || {
        let rows: Vec<String> =
            mica.values().iter().zip(hpc.values()).map(|(m, h)| format!("{m:.6},{h:.6}")).collect();
        write_csv(&a.dir.join("fig1.csv"), "mica_distance,hpc_distance", &rows)
            .expect("csv writes");

        let points: Vec<(f64, f64)> =
            mica.values().iter().zip(hpc.values()).map(|(&m, &h)| (m, h)).collect();
        let svg = plot::svg_scatter(
            &format!("Fig. 1 — distance per benchmark tuple (r = {r:.3})"),
            "distance in microarchitecture-independent space",
            "distance in hardware performance counter space",
            &points,
        );
        write_text(&a.dir.join("fig1.svg"), &svg).expect("svg writes");
    });
    mica_obs::info!("wrote {} and fig1.svg", a.dir.join("fig1.csv").display());
}

/// Table III: classification of benchmark tuples into true/false
/// positives/negatives, with both thresholds at 20% of the maximum distance
/// (paper: FN 0.2%, TN 1.8%, TP 56.9%, FP 41.1%).
pub fn table3(run: &mut Runner, a: &Analysis) {
    let (mica, hpc) = run.stage("distances", || a.distances());
    let c = classify_pairs(hpc.values(), mica.values(), 0.2, 0.2);

    println!("Table III — classifying benchmark tuples (thresholds: 20% of max distance)");
    println!("{:<58} {:>9} {:>9}", "", "paper", "measured");
    println!(
        "{:<58} {:>8.1}% {:>8.1}%",
        "false negative (HPC large, uarch-indep small)",
        0.2,
        100.0 * c.false_negative
    );
    println!(
        "{:<58} {:>8.1}% {:>8.1}%",
        "true positive  (HPC large, uarch-indep large)",
        56.9,
        100.0 * c.true_positive
    );
    println!(
        "{:<58} {:>8.1}% {:>8.1}%",
        "true negative  (HPC small, uarch-indep small)",
        1.8,
        100.0 * c.true_negative
    );
    println!(
        "{:<58} {:>8.1}% {:>8.1}%",
        "false positive (HPC small, uarch-indep large)",
        41.1,
        100.0 * c.false_positive
    );
    println!("\nsensitivity: {:.3}   specificity: {:.3}", c.sensitivity(), c.specificity());

    run.stage("write", || {
        write_csv(
            &a.dir.join("table3.csv"),
            "category,paper_pct,measured_pct",
            &[
                format!("false_negative,0.2,{:.2}", 100.0 * c.false_negative),
                format!("true_positive,56.9,{:.2}", 100.0 * c.true_positive),
                format!("true_negative,1.8,{:.2}", 100.0 * c.true_negative),
                format!("false_positive,41.1,{:.2}", 100.0 * c.false_positive),
            ],
        )
        .expect("csv writes");
    });
}

/// Figures 2 and 3: the bzip2-vs-blast case study. The two benchmarks look
/// similar in the hardware-performance-counter characterization (Fig. 2)
/// while their microarchitecture-independent characteristics differ
/// markedly (Fig. 3) — most strikingly working-set sizes, global-history
/// branch predictability and global store strides.
pub fn fig2_fig3(run: &mut Runner, a: &Analysis) {
    let set = &a.set;
    // The case study needs two specific benchmarks; if either was
    // quarantined this run, skip the study instead of crashing.
    let bzip2_idx = set.records.iter().position(|r| r.program == "bzip2" && r.input == "graphic");
    let blast_idx = set.records.iter().position(|r| r.program == "blast");
    let (Some(bzip2_idx), Some(blast_idx)) = (bzip2_idx, blast_idx) else {
        println!(
            "fig2_fig3: bzip2/graphic or blast missing from this run (quarantined?); \
             skipping the case study"
        );
        return;
    };

    // --- Figure 2: HPC characterization (instruction mix + counters) ---
    let hpc_dist2 = run.stage("fig2", || {
        let hpc_ext =
            DataSet::from_rows(set.records.iter().map(|r| r.hpc.extended_vector()).collect());
        let hpc_norm = max_normalize_columns(&hpc_ext);
        println!("Figure 2 — hardware performance counter characteristics (normalized to max)");
        println!("{:<30} {:>8} {:>8} {:>8}", "metric", "bzip2", "blast", "|diff|");
        let mut hpc_rows = Vec::new();
        let mut hpc_dist2 = 0.0;
        for (c, name) in HPC_EXTENDED_NAMES.iter().enumerate() {
            let (b, l) = (hpc_norm.get(bzip2_idx, c), hpc_norm.get(blast_idx, c));
            println!("{name:<30} {b:>8.3} {l:>8.3} {:>8.3}", (b - l).abs());
            hpc_rows.push(format!("{name},{b:.4},{l:.4}"));
            hpc_dist2 += (b - l) * (b - l);
        }
        write_csv(&a.dir.join("fig2.csv"), "metric,bzip2_graphic,blast_protein", &hpc_rows)
            .expect("csv writes");
        let fig2 = plot::svg_grouped_bars(
            "Fig. 2 — bzip2 vs blast: HPC characteristics",
            &HPC_EXTENDED_NAMES.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &[
                (
                    "bzip2".into(),
                    (0..hpc_norm.cols()).map(|c| hpc_norm.get(bzip2_idx, c)).collect(),
                ),
                (
                    "blast".into(),
                    (0..hpc_norm.cols()).map(|c| hpc_norm.get(blast_idx, c)).collect(),
                ),
            ],
        );
        write_text(&a.dir.join("fig2.svg"), &fig2).expect("svg writes");
        hpc_dist2
    });

    // --- Figure 3: the 47 microarchitecture-independent characteristics ---
    let (mica_norm, mica_dist2) = run.stage("fig3", || {
        let mica_norm = max_normalize_columns(a.mica());
        println!("\nFigure 3 — microarchitecture-independent characteristics (normalized to max)");
        println!("{:<42} {:>8} {:>8} {:>8}", "characteristic", "bzip2", "blast", "|diff|");
        let mut mica_rows = Vec::new();
        let mut mica_dist2 = 0.0;
        for (c, info) in METRICS.iter().enumerate() {
            let (b, l) = (mica_norm.get(bzip2_idx, c), mica_norm.get(blast_idx, c));
            println!("{:<42} {b:>8.3} {l:>8.3} {:>8.3}", info.name, (b - l).abs());
            mica_rows.push(format!("{},{b:.4},{l:.4}", info.short));
            mica_dist2 += (b - l) * (b - l);
        }
        write_csv(&a.dir.join("fig3.csv"), "metric,bzip2_graphic,blast_protein", &mica_rows)
            .expect("csv writes");
        let fig3 = plot::svg_grouped_bars(
            "Fig. 3 — bzip2 vs blast: microarchitecture-independent characteristics",
            &METRICS.iter().map(|m| m.short.to_string()).collect::<Vec<_>>(),
            &[
                ("bzip2".into(), (0..47).map(|c| mica_norm.get(bzip2_idx, c)).collect()),
                ("blast".into(), (0..47).map(|c| mica_norm.get(blast_idx, c)).collect()),
            ],
        );
        write_text(&a.dir.join("fig3.svg"), &fig3).expect("svg writes");
        (mica_norm, mica_dist2)
    });

    println!(
        "\nnormalized RMS difference — HPC space: {:.3}, uarch-independent space: {:.3}",
        (hpc_dist2 / HPC_EXTENDED_NAMES.len() as f64).sqrt(),
        (mica_dist2 / 47.0).sqrt()
    );
    println!("(the paper's pitfall: the first is small while the second is large)");

    // The paper picked bzip2-vs-blast because it was a striking false
    // positive in *their* data. Our workloads are reproductions, so also
    // report the most striking false-positive pair measured here: smallest
    // HPC distance among pairs whose MICA distance is large.
    let (mica_d, hpc_d) = run.stage("distances", || a.distances());
    let hpc_threshold = 0.2 * hpc_d.max();
    let best = mica_d
        .iter_pairs()
        .filter(|&(i, j, _)| hpc_d.get(i, j) <= hpc_threshold)
        .max_by(|x, y| x.2.partial_cmp(&y.2).expect("finite distances"));
    if let Some((i, j, md)) = best {
        println!(
            "\nmost striking false positive in this reproduction:\n  {} vs {}\n  \
             HPC distance {:.2} (threshold {:.2}), uarch-independent distance {:.2} (max {:.2})",
            set.records[i].name,
            set.records[j].name,
            hpc_d.get(i, j),
            hpc_threshold,
            md,
            mica_d.max()
        );
        let mut rows = Vec::new();
        println!("  most divergent inherent characteristics:");
        let mut diffs: Vec<(usize, f64)> =
            (0..47).map(|c| (c, (mica_norm.get(i, c) - mica_norm.get(j, c)).abs())).collect();
        diffs.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite"));
        for &(c, d) in diffs.iter().take(6) {
            println!("    {:<42} |diff| = {d:.3}", METRICS[c].name);
            rows.push(format!("{},{d:.4}", METRICS[c].short));
        }
        write_csv(&a.dir.join("fig3_false_positive.csv"), "metric,normalized_abs_diff", &rows)
            .expect("csv writes");
    }
}

fn reduced_distances(z: &DataSet, keep: &[usize]) -> Vec<f64> {
    pairwise_distances(&z.select_columns(keep)).values().to_vec()
}

/// Figure 4: ROC curves for the all-characteristics space, correlation
/// elimination (17 and 12 and 7 metrics retained) and the GA-selected
/// 8-metric space. Paper AUCs: all = 0.72, GA = 0.69, CE@17 = 0.67,
/// CE@12/7 = 0.64.
pub fn fig4(run: &mut Runner, a: &Analysis) {
    let mica = a.mica();
    let z = zscore_normalize(mica);
    let (all, hpc) = a.distances();

    let ga = run.stage("ga", || a.ga_k8());
    println!("GA-selected 8 metrics: {:?} (rho = {:.3})", ga.selected, ga.rho);

    let spaces: Vec<(String, Vec<f64>, f64)> = run.stage("spaces", || {
        vec![
            ("all 47 characteristics".to_string(), all.values().to_vec(), 0.72),
            ("GA, 8 metrics".to_string(), reduced_distances(&z, &ga.selected), 0.69),
            (
                "CE, 17 metrics".to_string(),
                reduced_distances(&z, &correlation_elimination(mica, 17)),
                0.67,
            ),
            (
                "CE, 12 metrics".to_string(),
                reduced_distances(&z, &correlation_elimination(mica, 12)),
                0.64,
            ),
            (
                "CE, 7 metrics".to_string(),
                reduced_distances(&z, &correlation_elimination(mica, 7)),
                0.64,
            ),
        ]
    });

    println!("\nFigure 4 — ROC analysis (HPC threshold fixed at 20% of max)");
    println!("{:<26} {:>10} {:>10}", "space", "paper AUC", "AUC");
    run.stage("roc", || {
        let mut series = Vec::new();
        let mut rows = Vec::new();
        for (name, dists, paper_auc) in &spaces {
            let curve = roc_curve(hpc.values(), dists, 0.2, 200);
            let area = auc(&curve);
            println!("{name:<26} {paper_auc:>10.2} {area:>10.3}");
            for p in &curve {
                rows.push(format!(
                    "{name},{:.4},{:.4},{:.4}",
                    p.mica_frac, p.one_minus_specificity, p.sensitivity
                ));
            }
            series.push((
                format!("{name} (AUC {area:.2})"),
                curve.iter().map(|p| (p.one_minus_specificity, p.sensitivity)).collect::<Vec<_>>(),
            ));
        }
        write_csv(
            &a.dir.join("fig4.csv"),
            "space,mica_threshold_frac,one_minus_specificity,sensitivity",
            &rows,
        )
        .expect("csv writes");
        let svg = plot::svg_lines("Fig. 4 — ROC curves", "1 - specificity", "sensitivity", &series);
        write_text(&a.dir.join("fig4.svg"), &svg).expect("svg writes");
    });
    mica_obs::info!("wrote fig4.csv and fig4.svg");
}

/// Figure 5: distance correlation (vs the full 47-metric space) as
/// correlation elimination removes metrics, with the GA's 8-metric point
/// for comparison. Paper: GA reaches 0.876 with 8 metrics while CE already
/// drops to 0.823 with 17.
pub fn fig5(run: &mut Runner, a: &Analysis) {
    let mica = a.mica();
    let z = zscore_normalize(mica);
    let full = pairwise_distances(&z);

    // Walk the elimination order once and evaluate every retained-count.
    let ce_curve = run.stage("elimination", || {
        let order = elimination_order(mica);
        let mut retained: Vec<usize> = (0..mica.cols()).collect();
        let mut ce_curve = Vec::new();
        for victim in &order {
            retained.retain(|c| c != victim);
            if retained.is_empty() {
                break;
            }
            let reduced = pairwise_distances(&z.select_columns(&retained));
            ce_curve.push((retained.len(), pearson(full.values(), reduced.values())));
        }
        ce_curve
    });

    let ga = run.stage("ga", || a.ga_k8());

    println!("Figure 5 — distance correlation vs number of retained metrics");
    println!("{:>8} {:>12}", "metrics", "CE rho");
    let mut rows = Vec::new();
    for &(n, rho) in &ce_curve {
        println!("{n:>8} {rho:>12.3}");
        rows.push(format!("correlation_elimination,{n},{rho:.4}"));
    }
    println!("\nGA point: {} metrics, rho = {:.3}  (paper: 8 metrics, 0.876)", 8, ga.rho);
    let ce_at = |n: usize| ce_curve.iter().find(|&&(c, _)| c == n).map(|&(_, r)| r);
    if let (Some(ce8), Some(ce17)) = (ce_at(8), ce_at(17)) {
        println!("CE at 8 metrics: {ce8:.3}; CE at 17 metrics: {ce17:.3} (paper: 0.823)");
        println!(
            "GA beats CE at the same size: {}",
            if ga.rho > ce8 { "yes (as in the paper)" } else { "NO (unexpected)" }
        );
    }
    rows.push(format!("genetic_algorithm,8,{:.4}", ga.rho));
    write_csv(&a.dir.join("fig5.csv"), "method,retained_metrics,rho", &rows).expect("csv writes");

    let series = vec![
        (
            "correlation elimination".to_string(),
            ce_curve.iter().map(|&(n, r)| (n as f64, r)).collect::<Vec<_>>(),
        ),
        ("GA (8 metrics)".to_string(), vec![(8.0, ga.rho), (8.0, ga.rho)]),
    ];
    let svg = plot::svg_lines(
        "Fig. 5 — distance correlation vs retained metrics",
        "number of retained metrics",
        "correlation with full-space distances",
        &series,
    );
    write_text(&a.dir.join("fig5.svg"), &svg).expect("svg writes");
    mica_obs::info!("wrote fig5.csv and fig5.svg");
}

const PAPER_TABLE_IV: [&str; 8] = [
    "percentage loads",
    "avg. number of input operands",
    "prob. register dependence <= 8",
    "prob. local load stride <= 64",
    "prob. global load stride <= 512",
    "prob. local store stride <= 4096",
    "D-stream at the 4KB-page level",
    "ILP, 256-entry window",
];

/// Table IV: the key microarchitecture-independent characteristics selected
/// by the genetic algorithm. The paper retains 8; this command reports both
/// the unconstrained GA (paper fitness `rho * (1 - n/N)`) and the GA
/// constrained to exactly 8 metrics.
pub fn table4(run: &mut Runner, a: &Analysis) {
    let free = run.stage("ga_free", || select_features(a.mica(), GaConfig::default()));
    let fixed = run.stage("ga_fixed", || a.ga_k8());

    println!("Table IV — characteristics selected by the genetic algorithm\n");
    println!(
        "Unconstrained GA (fitness rho*(1-n/N)): {} metrics, fitness {:.3}, rho {:.3}, {} generations",
        free.selected.len(),
        free.fitness,
        free.rho,
        free.generations_run
    );
    for &c in &free.selected {
        println!("  {:>2}. {}", METRICS[c].number, METRICS[c].name);
    }

    println!("\nGA constrained to 8 metrics (as the paper's Table IV): rho {:.3}", fixed.rho);
    let mut rows = Vec::new();
    for (i, &c) in fixed.selected.iter().enumerate() {
        println!("  {:>2}. {:<45} [{}]", METRICS[c].number, METRICS[c].name, METRICS[c].category);
        rows.push(format!("{},{},{}", i + 1, METRICS[c].short, METRICS[c].category));
    }

    // Category coverage comparison against the paper's selection.
    let categories: BTreeSet<String> =
        fixed.selected.iter().map(|&c| METRICS[c].category.to_string()).collect();
    println!("\ncategories covered: {}", categories.len());
    println!("paper's Table IV selection for reference:");
    for (i, name) in PAPER_TABLE_IV.iter().enumerate() {
        println!("  {:>2}. {name}", i + 1);
    }
    println!(
        "\n(The exact metrics may differ — our workloads are reproductions, not the\n\
         original binaries — but the subset should similarly span several categories.)"
    );

    write_csv(&a.dir.join("table4.csv"), "rank,metric,category", &rows).expect("csv writes");
}

/// Figure 6: cluster the 122 benchmarks in the 8-dimensional GA-selected
/// space with k-means (K chosen by the BIC 90%-of-max rule; the paper lands
/// at 15 clusters) and emit kiviat diagrams per benchmark, grouped by
/// cluster.
pub fn fig6(run: &mut Runner, a: &Analysis) {
    let set = &a.set;
    let mica = a.mica();

    let ga = run.stage("ga", || a.ga_k8());
    println!("clustering in the GA-selected 8-metric space: {:?}", ga.selected);

    let z = zscore_normalize(mica).select_columns(&ga.selected);
    let clustering = run.stage("cluster", || choose_k_by_bic(&z, 70, 0x4d49_4341));
    println!(
        "BIC selects K = {} clusters (paper: 15; BIC rule = first K within 90% of max)",
        clustering.k()
    );

    // Kiviat axes use min-max-normalized raw metric values.
    let kiviat = minmax_normalize_columns(&mica.select_columns(&ga.selected));
    let axis_names = metric_short_names(&ga.selected);

    let mut rows = Vec::new();
    let members = clustering.members();
    for (cid, member_rows) in members.iter().enumerate() {
        if member_rows.is_empty() {
            continue;
        }
        println!("\ncluster {:>2} ({} benchmarks):", cid + 1, member_rows.len());
        let mut suites: BTreeSet<&str> = BTreeSet::new();
        for &r in member_rows {
            let rec = &set.records[r];
            println!("    {}", rec.name);
            suites.insert(rec.suite.as_str());
            rows.push(format!("{},{}", cid + 1, rec.name));
            let svg = plot::svg_kiviat(
                &rec.name,
                &axis_names,
                &(0..kiviat.cols()).map(|c| kiviat.get(r, c)).collect::<Vec<_>>(),
            );
            let fname = format!(
                "fig6/cluster{:02}/{}.svg",
                cid + 1,
                rec.name.replace(['/', ' ', '(', ')'], "_")
            );
            write_text(&a.dir.join(fname), &svg).expect("svg writes");
        }
        if member_rows.len() == 1 {
            println!("    (singleton — isolated inherent behavior)");
        }
        println!("    suites: {}", suites.into_iter().collect::<Vec<_>>().join(", "));
    }

    // Headline observations matching the paper's discussion.
    let singletons = members.iter().filter(|m| m.len() == 1).count();
    println!("\nsingleton clusters: {singletons} (paper observes several, e.g. blast, mcf, adpcm)");
    let spec_only = members
        .iter()
        .filter(|m| !m.is_empty() && m.iter().all(|&r| set.records[r].suite == "SPEC2000"))
        .count();
    println!("clusters containing only SPEC CPU2000 benchmarks: {spec_only}");
    let bio_no_spec = members
        .iter()
        .filter(|m| {
            m.iter().any(|&r| set.records[r].suite == "BioInfoMark")
                && !m.iter().any(|&r| set.records[r].suite == "SPEC2000")
        })
        .count();
    println!("clusters with BioInfoMark benchmarks but no SPEC CPU2000: {bio_no_spec}");

    // Cross-check the partition quality against the dendrogram method used
    // by the prior work: same K, average-linkage cut, silhouette scores.
    let (km_sil, hier_sil) = run.stage("silhouette", || {
        let d = pairwise_distances(&z);
        let km_sil = silhouette(&d, &clustering.labels);
        let hier_labels = hierarchical_cluster(&d).cut(clustering.k());
        (km_sil, silhouette(&d, &hier_labels))
    });
    println!(
        "\nsilhouette at K = {}: k-means {:.3}, average-linkage {:.3}",
        clustering.k(),
        km_sil,
        hier_sil
    );

    write_csv(&a.dir.join("fig6_clusters.csv"), "cluster,benchmark", &rows).expect("csv writes");
    mica_obs::info!("wrote fig6_clusters.csv and per-benchmark kiviat SVGs under fig6/");
}

/// One self-contained markdown report of the whole reproduction
/// (`REPORT.md`), plus the raw 122 x 47 data set as CSV
/// (`mica_dataset.csv`) for downstream analysis outside this repository.
pub fn report(run: &mut Runner, a: &Analysis) {
    let set = &a.set;
    let mica = a.mica();
    let z = zscore_normalize(mica);
    let (dm, dh) = run.stage("distances", || a.distances());

    // Raw data export.
    let headers: Vec<String> = METRICS.iter().map(|m| m.short.to_string()).collect();
    write_text(&a.dir.join("mica_dataset.csv"), &mica.to_csv(&headers)).expect("csv writes");

    let mut md = String::new();
    let _ = writeln!(md, "# MICA reproduction report\n");
    let _ = writeln!(
        md,
        "{} benchmarks profiled at scale {} ({} total instructions).\n",
        set.records.len(),
        set.scale,
        set.records.iter().map(|r| r.executed_instructions).sum::<u64>()
    );

    // Figure 1 / Table III.
    let r = pearson(dm.values(), dh.values());
    let c = classify_pairs(dh.values(), dm.values(), 0.2, 0.2);
    let _ = writeln!(md, "## Pitfall (Fig. 1 / Table III)\n");
    let _ = writeln!(md, "| quantity | paper | measured |\n|---|---|---|");
    let _ = writeln!(md, "| distance correlation | 0.46 | {r:.3} |");
    let _ = writeln!(md, "| false negatives | 0.2% | {:.1}% |", 100.0 * c.false_negative);
    let _ = writeln!(md, "| false positives | 41.1% | {:.1}% |", 100.0 * c.false_positive);

    // Feature selection (Figs. 4-5, Table IV).
    let ga = run.stage("ga", || a.ga_k8());
    let ce8 = correlation_elimination(mica, 8);
    let d_ga = pairwise_distances(&z.select_columns(&ga.selected));
    let d_ce = pairwise_distances(&z.select_columns(&ce8));
    let rho_ce = pearson(dm.values(), d_ce.values());
    let auc_all = auc(&roc_curve(dh.values(), dm.values(), 0.2, 200));
    let auc_ga = auc(&roc_curve(dh.values(), d_ga.values(), 0.2, 200));
    let _ = writeln!(md, "\n## Key-metric selection (Figs. 4-5, Table IV)\n");
    let _ = writeln!(md, "| quantity | paper | measured |\n|---|---|---|");
    let _ = writeln!(md, "| GA rho at 8 metrics | 0.876 | {:.3} |", ga.rho);
    let _ = writeln!(md, "| CE rho at 8 metrics | (lower) | {rho_ce:.3} |");
    let _ = writeln!(md, "| AUC all 47 | 0.72 | {auc_all:.3} |");
    let _ = writeln!(md, "| AUC GA 8 | 0.69 | {auc_ga:.3} |");
    let _ = writeln!(md, "\nGA-selected characteristics:\n");
    for &m in &ga.selected {
        let _ = writeln!(md, "- {} ({})", METRICS[m].name, METRICS[m].category);
    }

    // Clustering (Fig. 6).
    let sel = z.select_columns(&ga.selected);
    let clustering = run.stage("cluster", || choose_k_by_bic(&sel, 70, 0x4d49_4341));
    let singletons = clustering.members().iter().filter(|m| m.len() == 1).count();
    let _ = writeln!(md, "\n## Clustering (Fig. 6)\n");
    let _ = writeln!(md, "- K selected by BIC: {} (paper: 15)", clustering.k());
    let _ = writeln!(md, "- singleton clusters: {singletons}");
    for (cid, members) in clustering.members().iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let names: Vec<&str> = members.iter().map(|&i| set.records[i].name.as_str()).collect();
        let _ = writeln!(md, "- cluster {:02}: {}", cid + 1, names.join(", "));
    }

    let _ = writeln!(
        md,
        "\nSee EXPERIMENTS.md for the shape-level comparison and DESIGN.md for the\n\
         substitutions this reproduction makes.\n"
    );

    let path = a.dir.join("REPORT.md");
    write_text(&path, &md).expect("report writes");
    mica_obs::info!("wrote {} and mica_dataset.csv", path.display());
}
