//! Outside-in layer timing of the characterization pipeline.
//!
//! [`run_kernel`] builds a kernel's VM, runs a copy into a
//! [`CountingSink`] (VM-only time), then runs it into a [`TimedSink`]:
//! a bench-local sink that owns a [`CharacterizationSuite`] plus
//! standalone [`Ev56Model`]/[`Ev67Model`] and times each analyzer's
//! `retire_block` on every delivered block. The analyzers are independent,
//! so delivering to them one by one leaves each in the state the
//! production `Tandem` delivery would — the results are checked against
//! the committed profiles.

use crate::{LayerTime, Span};
use mica_core::{CharacterizationSuite, MicaVector};
use std::time::Instant;
use tinyisa::{CountingSink, DynInst, TraceSink, Vm};
use uarch_sim::{Ev56Model, Ev67Model};

/// Analyzer layers, in the order [`TimedSink`] delivers to them.
pub const ANALYZERS: [&str; 11] = [
    "core.mix",
    "core.ilp",
    "core.regtraffic",
    "core.working_set",
    "core.strides",
    "core.ppm_gag",
    "core.ppm_pag",
    "core.ppm_gas",
    "core.ppm_pas",
    "uarch-sim.ev56",
    "uarch-sim.ev67",
];
const PPM: std::ops::Range<usize> = 5..9;
const EV56: usize = 9;
const EV67: usize = 10;

/// The MICA suite and (optionally) both machine models, each timed.
pub struct TimedSink {
    suite: CharacterizationSuite,
    machines: Option<(Ev56Model, Ev67Model)>,
    branches: Vec<(u64, bool)>,
    busy_ns: [u64; ANALYZERS.len()],
    blocks: u64,
    cond_branches: u64,
}

impl TimedSink {
    /// A fresh sink; `machines` adds the EV56/EV67 models.
    pub fn new(machines: bool) -> TimedSink {
        TimedSink {
            suite: CharacterizationSuite::new(),
            machines: machines.then(|| (Ev56Model::new(), Ev67Model::new())),
            branches: Vec::new(),
            busy_ns: [0; ANALYZERS.len()],
            blocks: 0,
            cond_branches: 0,
        }
    }
}

fn time_into(slot: &mut u64, f: impl FnOnce()) {
    let started = Instant::now();
    f();
    *slot += started.elapsed().as_nanos() as u64;
}

impl TraceSink for TimedSink {
    fn retire(&mut self, inst: &DynInst) {
        self.retire_block(std::slice::from_ref(inst));
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        let s = &mut self.suite;
        let t = &mut self.busy_ns;
        self.blocks += 1;
        time_into(&mut t[0], || s.mix.retire_block(block));
        time_into(&mut t[1], || s.ilp.retire_block(block));
        time_into(&mut t[2], || s.reg.retire_block(block));
        time_into(&mut t[3], || s.wss.retire_block(block));
        time_into(&mut t[4], || s.strides.retire_block(block));
        // Branch extraction is delivery work, as in the suite's own
        // `retire_block`; only the predictors are charged to PPM.
        self.branches.clear();
        self.branches.extend(
            block
                .iter()
                .filter_map(|i| i.ctrl.filter(|c| c.conditional).map(|c| (i.pc, c.taken))),
        );
        self.cond_branches += self.branches.len() as u64;
        for (p, slot) in s.ppm.iter_mut().zip(&mut t[PPM]) {
            time_into(slot, || p.observe_block(&self.branches));
        }
        if let Some((ev56, ev67)) = &mut self.machines {
            time_into(&mut t[EV56], || ev56.retire_block(block));
            time_into(&mut t[EV67], || ev67.retire_block(block));
        }
    }
}

/// What [`run_kernel`] measured and computed for one kernel.
pub struct KernelRun {
    /// The 47-metric vector.
    pub mica: MicaVector,
    /// Instructions executed.
    pub insts: u64,
    /// EV56 and EV67 IPC, when the machines ran.
    pub ipc: Option<(f64, f64)>,
    /// Per-layer totals.
    pub ledger: Ledger,
    /// The kernel's span.
    pub span: Span,
}

/// Per-layer totals, summed over kernels.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Kernels run.
    pub kernels: u64,
    /// `build_vm` time.
    pub build_ns: u64,
    /// `Vm::run` into `CountingSink`.
    pub vm_ns: u64,
    /// `Vm::run` into the timed sink.
    pub traced_ns: u64,
    /// Wall time of each kernel's whole task.
    pub kernel_ns: u64,
    /// Busy time per analyzer, in [`ANALYZERS`] order.
    pub analyzer_ns: [u64; ANALYZERS.len()],
    /// Instructions retired.
    pub insts: u64,
    /// Blocks delivered.
    pub blocks: u64,
    /// Conditional branches delivered.
    pub cond_branches: u64,
}

impl Ledger {
    /// Add another ledger's totals.
    pub fn add(&mut self, o: &Ledger) {
        self.kernels += o.kernels;
        self.build_ns += o.build_ns;
        self.vm_ns += o.vm_ns;
        self.traced_ns += o.traced_ns;
        self.kernel_ns += o.kernel_ns;
        for (a, b) in self.analyzer_ns.iter_mut().zip(o.analyzer_ns) {
            *a += b;
        }
        self.insts += o.insts;
        self.blocks += o.blocks;
        self.cond_branches += o.cond_branches;
    }

    /// Delivery: the timed run minus the VM-only run minus the analyzers.
    pub fn delivery_ns(&self) -> u64 {
        self.traced_ns
            .saturating_sub(self.vm_ns + self.analyzer_ns.iter().sum::<u64>())
    }

    /// Write the pipeline's per-layer metrics.
    pub fn report(&self, out: &mut crate::Outcome) {
        let per_inst = |ns: u64| ns as f64 / self.insts.max(1) as f64;
        out.metric("workloads.build_vm_s", self.build_ns as f64 / 1e9, "s");
        out.metric("tinyisa.vm_ns_per_inst", per_inst(self.vm_ns), "ns");
        out.metric("tinyisa.insts", self.insts as f64, "count");
        out.metric("tinyisa.blocks", self.blocks as f64, "count");
        out.metric(
            "tinyisa.insts_per_block",
            self.insts as f64 / self.blocks.max(1) as f64,
            "count",
        );
        for (name, &ns) in ANALYZERS.iter().zip(&self.analyzer_ns) {
            out.metric(&format!("{name}_ns_per_inst"), per_inst(ns), "ns");
        }
        let ppm: u64 = self.analyzer_ns[PPM].iter().sum();
        out.metric(
            "core.ppm_ns_per_branch",
            ppm as f64 / self.cond_branches.max(1) as f64,
            "ns",
        );
        out.metric("core.cond_branches", self.cond_branches as f64, "count");
        out.metric(
            "experiments.delivery_ns_per_inst",
            per_inst(self.delivery_ns()),
            "ns",
        );
        // How much of each kernel task the timed layers cover; the rest is
        // the harness's own work (cloning the VM, finishing the vectors).
        let covered = self.build_ns + self.vm_ns + self.traced_ns;
        out.metric("bench.kernel_busy_s", self.kernel_ns as f64 / 1e9, "s");
        out.metric(
            "bench.accounted_frac",
            covered as f64 / self.kernel_ns.max(1) as f64,
            "ratio",
        );
    }
}

/// Build `vm` with `build`, then time the VM alone and the full timed
/// delivery over `budget` instructions.
///
/// # Errors
///
/// The kernel failed to assemble or faulted.
pub fn run_kernel(
    name: String,
    build: impl FnOnce() -> Result<Vm, tinyisa::AsmError>,
    budget: u64,
    machines: bool,
    epoch: Instant,
) -> Result<KernelRun, String> {
    let started = Instant::now();
    let mut vm = build().map_err(|e| format!("{name}: assemble: {e}"))?;
    let build_ns = started.elapsed().as_nanos() as u64;

    let mut vm_only = vm.clone();
    let t = Instant::now();
    vm_only
        .run(&mut CountingSink::default(), budget)
        .map_err(|e| format!("{name}: {e}"))?;
    let vm_ns = t.elapsed().as_nanos() as u64;

    let mut sink = TimedSink::new(machines);
    let t = Instant::now();
    vm.run(&mut sink, budget)
        .map_err(|e| format!("{name}: {e}"))?;
    let traced_ns = t.elapsed().as_nanos() as u64;
    let kernel_ns = started.elapsed().as_nanos() as u64;

    let insts = sink.suite.total_instructions();
    let ledger = Ledger {
        kernels: 1,
        build_ns,
        vm_ns,
        traced_ns,
        kernel_ns,
        analyzer_ns: sink.busy_ns,
        insts,
        blocks: sink.blocks,
        cond_branches: sink.cond_branches,
    };
    let mut layers = vec![
        LayerTime {
            layer: "workloads.build_vm".into(),
            busy_ns: build_ns,
            calls: 1,
        },
        LayerTime {
            layer: "tinyisa.vm".into(),
            busy_ns: vm_ns,
            calls: 1,
        },
    ];
    for (name, &ns) in ANALYZERS.iter().zip(&sink.busy_ns) {
        if ns > 0 {
            layers.push(LayerTime {
                layer: name.to_string(),
                busy_ns: ns,
                calls: sink.blocks,
            });
        }
    }
    layers.push(LayerTime {
        layer: "experiments.delivery".into(),
        busy_ns: ledger.delivery_ns(),
        calls: sink.blocks,
    });
    let span = Span {
        name,
        thread: mica_obs::current_tid(),
        start_us: started.duration_since(epoch).as_micros() as u64,
        dur_us: kernel_ns / 1_000,
        layers,
    };
    Ok(KernelRun {
        mica: sink.suite.finish(),
        insts,
        ipc: sink.machines.as_ref().map(|(a, b)| (a.ipc(), b.ipc())),
        ledger,
        span,
    })
}
