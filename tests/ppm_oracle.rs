//! The PPM predictor (direct-indexed blocks) against a reference: the
//! map-based predictor it replaced, with one `HashMap` per order keyed by
//! (branch pc or 0, masked history), a longest-match search from the top
//! order down, then an update of every order. Every prediction, the branch
//! count and the accuracy's bits must agree for all four variants over a
//! spread of orders, on every table kernel's branches and on random streams
//! whose pcs reach the extremes of the address space.

use mica_suite::mica::{PpmPredictor, PpmVariant};
use mica_suite::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

/// Orders up to the paper's 8, the highest the predictor accepts.
const ORDERS: [usize; 4] = [0, 1, 4, 8];

/// Instructions per kernel: the budget floor every scale bottoms out at.
const FLOOR: u64 = 10_000;

struct Reference {
    variant: PpmVariant,
    max_order: usize,
    global_hist: u64,
    local_hist: HashMap<u64, u64>,
    tables: Vec<HashMap<(u64, u64), [u32; 2]>>,
    correct: u64,
    total: u64,
}

impl Reference {
    fn new(variant: PpmVariant, max_order: usize) -> Self {
        Reference {
            variant,
            max_order,
            global_hist: 0,
            local_hist: HashMap::new(),
            tables: vec![HashMap::new(); max_order + 1],
            correct: 0,
            total: 0,
        }
    }

    fn per_address_history(&self) -> bool {
        matches!(self.variant, PpmVariant::PAg | PpmVariant::PAs)
    }

    fn key(&self, order: usize, pc: u64, hist: u64) -> (u64, u64) {
        let masked = if order == 0 { 0 } else { hist & ((1u64 << order) - 1) };
        let per_branch_tables = matches!(self.variant, PpmVariant::GAs | PpmVariant::PAs);
        (if per_branch_tables { pc } else { 0 }, masked)
    }

    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let hist = if self.per_address_history() {
            *self.local_hist.entry(pc).or_insert(0)
        } else {
            self.global_hist
        };
        let mut prediction = true;
        for order in (0..=self.max_order).rev() {
            if let Some(&[nt, t]) = self.tables[order].get(&self.key(order, pc, hist)) {
                if nt + t > 0 {
                    prediction = t >= nt;
                    break;
                }
            }
        }
        let correct = prediction == taken;
        self.total += 1;
        self.correct += u64::from(correct);
        for order in 0..=self.max_order {
            let key = self.key(order, pc, hist);
            let entry = self.tables[order].entry(key).or_insert([0, 0]);
            entry[taken as usize] = entry[taken as usize].saturating_add(1);
        }
        let new_hist = (hist << 1) | taken as u64;
        if self.per_address_history() {
            self.local_hist.insert(pc, new_hist);
        } else {
            self.global_hist = new_hist;
        }
        correct
    }

    fn accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

/// Run `stream` through both predictors for every variant and order.
fn assert_agrees(label: &str, stream: &[(u64, bool)]) {
    for variant in PpmVariant::ALL {
        for order in ORDERS {
            let mut flat = PpmPredictor::with_max_order(variant, order);
            let mut reference = Reference::new(variant, order);
            for (i, &(pc, taken)) in stream.iter().enumerate() {
                assert_eq!(
                    flat.observe(pc, taken),
                    reference.observe(pc, taken),
                    "{label}: {variant} order {order}, branch {i} at pc {pc:#x}"
                );
            }
            assert_eq!(flat.total(), reference.total, "{label}: {variant} order {order}");
            assert_eq!(
                flat.accuracy().to_bits(),
                reference.accuracy().to_bits(),
                "{label}: {variant} order {order}"
            );
        }
    }
}

/// The conditional branches a run retires, in order.
#[derive(Default)]
struct Branches(Vec<(u64, bool)>);

impl TraceSink for Branches {
    fn retire(&mut self, inst: &DynInst) {
        if let Some(ctrl) = inst.ctrl.filter(|c| c.conditional) {
            self.0.push((inst.pc, ctrl.taken));
        }
    }
}

#[test]
fn flat_tables_match_the_map_predictor_on_every_kernel() {
    let table = benchmark_table();
    assert_eq!(table.len(), 122);
    // Two workers: the reference's hashing dominates in a debug build.
    let (left, right) = table.split_at(table.len() / 2);
    std::thread::scope(|s| {
        for half in [left, right] {
            s.spawn(move || {
                for spec in half {
                    let mut branches = Branches::default();
                    let mut vm = spec.build_vm().expect("kernel builds");
                    vm.run(&mut branches, FLOOR).expect("kernel runs");
                    assert_agrees(&spec.name(), &branches.0);
                }
            });
        }
    });
}

#[test]
fn flat_tables_match_the_map_predictor_on_extreme_pcs() {
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pcs = vec![0, 4, u64::MAX, u64::MAX - 3, 1 << 33, (1 << 33) + 4, 1 << 63, 0xdead_beef << 34];
        pcs.extend((0..24).map(|_| rng.gen::<u64>()));
        // Each pc gets a bias, so some contexts learn and others stay noisy.
        let bias: Vec<f64> = pcs.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
        let stream: Vec<(u64, bool)> = (0..6_000)
            .map(|_| {
                let i = rng.gen_range(0..pcs.len());
                (pcs[i], rng.gen_bool(bias[i]))
            })
            .collect();
        assert_agrees(&format!("seed {seed}"), &stream);
    }
}
