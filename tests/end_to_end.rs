//! End-to-end integration: benchmarks from the table run through both
//! characterizations, and the results obey cross-crate invariants.

use mica_suite::prelude::*;

fn spec(program: &str) -> BenchmarkSpec {
    benchmark_table().into_iter().find(|b| b.program == program).expect("benchmark exists")
}

#[test]
fn full_pipeline_for_representative_benchmarks() {
    // One representative per suite.
    for program in ["blast", "csu", "rtr", "epic", "qsort", "mcf"] {
        let s = benchmark_table()
            .into_iter()
            .find(|b| b.program == program)
            .unwrap_or_else(|| panic!("{program} in table"));
        let v = characterize(&s, 60_000).unwrap_or_else(|e| panic!("{program}: {e}"));
        let p = profile_hpc(&s, 60_000).unwrap_or_else(|e| panic!("{program}: {e}"));

        // Mix fractions sum to 1 in both characterizations and agree.
        let mica_mix: f64 = v.values()[..6].iter().sum();
        assert!((mica_mix - 1.0).abs() < 1e-9, "{program}: mica mix sums to {mica_mix}");
        let hpc_mix: f64 = p.mix.iter().sum();
        assert!((hpc_mix - 1.0).abs() < 1e-9, "{program}");
        for (a, b) in v.values()[..6].iter().zip(&p.mix) {
            assert!((a - b).abs() < 1e-12, "{program}: mix disagrees between sinks");
        }

        // IPC sanity: idealized ILP must dominate the real machines.
        let ilp256 = v.values()[9];
        assert!(ilp256 >= p.ipc_ev67 - 1e-9, "{program}: ideal ILP {ilp256} < ev67 {}", p.ipc_ev67);
        assert!(p.ipc_ev56 <= 2.0 + 1e-9 && p.ipc_ev67 <= 4.0 + 1e-9, "{program}");

        // All rates in range.
        for r in [
            p.branch_mispredict_rate,
            p.l1d_miss_rate,
            p.l1i_miss_rate,
            p.l2_miss_rate,
            p.dtlb_miss_rate,
        ] {
            assert!((0.0..=1.0).contains(&r), "{program}: rate {r}");
        }
    }
}

#[test]
fn characterization_is_deterministic() {
    let s = spec("sha");
    let a = characterize(&s, 40_000).unwrap();
    let b = characterize(&s, 40_000).unwrap();
    assert_eq!(a, b);
}

#[test]
fn mcf_has_larger_data_working_set_than_sha() {
    use mica_suite::mica::metrics;
    let mcf = characterize(&spec("mcf"), 80_000).unwrap();
    let sha = characterize(&spec("sha"), 80_000).unwrap();
    assert!(
        mcf.get(metrics::D_WSS_PAGES) > 10.0 * sha.get(metrics::D_WSS_PAGES),
        "mcf pages {} vs sha pages {}",
        mcf.get(metrics::D_WSS_PAGES),
        sha.get(metrics::D_WSS_PAGES)
    );
}

#[test]
fn pointer_chasing_tanks_real_ipc_but_not_mix() {
    let mcf = profile_hpc(&spec("mcf"), 80_000).unwrap();
    let sha = profile_hpc(&spec("sha"), 80_000).unwrap();
    assert!(mcf.ipc_ev67 < sha.ipc_ev67, "dependent misses hurt the OoO machine");
    assert!(mcf.l1d_miss_rate > sha.l1d_miss_rate + 0.05);
}

#[test]
fn fp_benchmarks_have_fp_work_and_int_benchmarks_do_not() {
    use mica_suite::mica::metrics;
    for fp_prog in ["swim", "wupwise", "FFT"] {
        let v = characterize(&spec(fp_prog), 50_000).unwrap();
        assert!(v.get(metrics::PCT_FP) > 0.1, "{fp_prog}: {}", v.get(metrics::PCT_FP));
    }
    for int_prog in ["bzip2", "crafty", "CRC32"] {
        let v = characterize(&spec(int_prog), 50_000).unwrap();
        assert!(v.get(metrics::PCT_FP) < 0.01, "{int_prog}: {}", v.get(metrics::PCT_FP));
    }
}

#[test]
fn sibling_inputs_are_closer_than_strangers() {
    use mica_suite::stats::pairwise_distances;
    // bzip2's three inputs should sit closer to each other than to mcf.
    let table = benchmark_table();
    let mut rows = Vec::new();
    let mut names = Vec::new();
    for b in table.iter().filter(|b| b.program == "bzip2" || b.program == "mcf") {
        rows.push(characterize(b, 60_000).unwrap().into_values());
        names.push(b.name());
    }
    assert_eq!(rows.len(), 4);
    let d = pairwise_distances(&zscore_normalize(&DataSet::from_rows(rows)));
    let mcf_idx = names.iter().position(|n| n.contains("mcf")).unwrap();
    let bzip: Vec<usize> = (0..4).filter(|&i| i != mcf_idx).collect();
    let intra = d.get(bzip[0], bzip[1]).max(d.get(bzip[0], bzip[2])).max(d.get(bzip[1], bzip[2]));
    let inter = bzip.iter().map(|&i| d.get(i, mcf_idx)).fold(f64::INFINITY, f64::min);
    assert!(intra < inter, "bzip2 inputs (max intra {intra:.2}) vs mcf (min inter {inter:.2})");
}

/// Bit-level equality: `==` on f64 would let `-0.0 == 0.0` or two NaNs
/// slip through; the artifact files serialize bits.
fn assert_bits_eq(live: &[f64], replayed: &[f64], ctx: &str) {
    assert_eq!(live.len(), replayed.len(), "{ctx}: metric count");
    for (i, (a, b)) in live.iter().zip(replayed).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: metric {i}: live {a} vs replayed {b}");
    }
}

#[test]
fn recorded_trace_replays_to_identical_characterization() {
    use mica_suite::isa::TraceRecorder;
    // The representatives of `full_pipeline_for_representative_benchmarks`.
    for program in ["blast", "csu", "rtr", "epic", "qsort", "mcf"] {
        let s = spec(program);

        // Live analysis: the VM delivers blocks.
        let live = characterize(&s, 30_000).unwrap();

        // Record once, replay one `retire` per instruction into a fresh
        // suite — the "instrument once, analyze many" workflow and the
        // per-instruction oracle.
        let mut vm = s.build_vm().unwrap();
        let mut rec = TraceRecorder::new();
        vm.run(&mut rec, 30_000).unwrap();
        let trace = rec.into_trace();

        let mut suite = CharacterizationSuite::new();
        trace.replay(&mut suite);
        assert_bits_eq(live.values(), suite.finish().values(), program);

        let mut hpc = HpcSimulator::new();
        trace.replay(&mut hpc);
        let via_trace = hpc.finish();
        let direct = profile_hpc(&s, 30_000).unwrap();
        assert_eq!(via_trace.instructions, direct.instructions, "{program}");
        assert_bits_eq(
            &direct.extended_vector(),
            &via_trace.extended_vector(),
            &format!("{program}: machine simulation"),
        );
    }
}
