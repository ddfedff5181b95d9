//! `sweep`: paper-scale EIS kernels called through the runner.
//!
//! One pass is 2x2500 intersect, union and difference at selectivities
//! 0/.25/.5/.75/1 and a 6500-element merge sort on `DBA_2LSU_EIS`, plus
//! one 2x2500 intersect on the scalar `DBA_1LSU` core, all with default
//! `RunOptions` (fast path). The scalar sort is left out: it alone would
//! take ~87% of the simulated cycles. Host time is almost all the
//! simulator's step loop.

use dbx_core::{run_set_op_with, run_sort_with, ProcModel, RunOptions, SetOpKind};
use dbx_workloads::{set_pair_with_selectivity, sort_input, SortOrder};
use dbx_x86ref::scalar;

use crate::ledger::{redrive_kernel, timed, Kernel, Ledger, RunnerCall};
use crate::{OpRecord, Outcome, Workload};

const EIS: ProcModel = ProcModel::Dba2LsuEis { partial: true };
const SET_LEN: usize = 2500;
const SORT_LEN: usize = 6500;
const SELECTIVITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

struct Op {
    model: ProcModel,
    /// `None` for the sort.
    kind: Option<SetOpKind>,
    a: Vec<u32>,
    b: Vec<u32>,
    /// The `dbx_x86ref::scalar` result the kernel must reproduce.
    expected: Vec<u32>,
}

impl Op {
    fn kernel(&self) -> Kernel<'_> {
        match self.kind {
            Some(kind) => Kernel::Set {
                model: self.model,
                kind,
                a: &self.a,
                b: &self.b,
            },
            None => Kernel::Sort {
                model: self.model,
                data: &self.a,
            },
        }
    }
}

pub struct Sweep {
    ops: Vec<Op>,
    next: usize,
    /// Cycles of each op on its first call; later calls must repeat them.
    first_cycles: Vec<Option<u64>>,
    nondeterministic: bool,
}

fn set_op(model: ProcModel, kind: SetOpKind, a: &[u32], b: &[u32]) -> Op {
    let expected = match kind {
        SetOpKind::Intersect => scalar::intersect(a, b),
        SetOpKind::Union => scalar::union(a, b),
        SetOpKind::Difference => scalar::difference(a, b),
    };
    Op {
        model,
        kind: Some(kind),
        a: a.to_vec(),
        b: b.to_vec(),
        expected,
    }
}

impl Sweep {
    pub fn setup(seed: u64) -> Self {
        let mut ops = Vec::new();
        for (i, &sel) in SELECTIVITIES.iter().enumerate() {
            let (a, b) =
                set_pair_with_selectivity(SET_LEN, SET_LEN, sel, seed.wrapping_add(i as u64));
            for kind in [
                SetOpKind::Intersect,
                SetOpKind::Union,
                SetOpKind::Difference,
            ] {
                ops.push(set_op(EIS, kind, &a, &b));
            }
        }
        let data = sort_input(SORT_LEN, SortOrder::Random, seed ^ 0x5eed_0005);
        let mut expected = data.clone();
        scalar::merge_sort(&mut expected);
        ops.push(Op {
            model: EIS,
            kind: None,
            a: data,
            b: Vec::new(),
            expected,
        });
        let (a, b) = set_pair_with_selectivity(SET_LEN, SET_LEN, 0.5, seed ^ 0x5eed_0006);
        ops.push(set_op(ProcModel::Dba1Lsu, SetOpKind::Intersect, &a, &b));
        let n = ops.len();
        Sweep {
            ops,
            next: 0,
            first_cycles: vec![None; n],
            nondeterministic: false,
        }
    }
}

impl Workload for Sweep {
    fn round_len(&self) -> usize {
        self.ops.len()
    }

    fn step(&mut self, led: Option<&mut Ledger>) -> OpRecord {
        let i = self.next;
        self.next = (i + 1) % self.ops.len();
        let op = &self.ops[i];
        let opts = RunOptions::default();
        let before = dbx_core::progcache::assemblies();
        let (run, ns) = timed(|| match op.kind {
            Some(kind) => run_set_op_with(op.model, kind, &op.a, &op.b, &opts),
            None => run_sort_with(op.model, &op.a, &opts),
        });
        let misses = dbx_core::progcache::assemblies() - before;
        let Ok(run) = run else {
            return OpRecord::failed(ns);
        };
        let (outcome, oracle_ns) = timed(|| {
            if run.result == op.expected {
                Outcome::Ok
            } else {
                Outcome::Mismatch
            }
        });
        match self.first_cycles[i] {
            None => self.first_cycles[i] = Some(run.cycles),
            Some(c) => self.nondeterministic |= c != run.cycles,
        }
        let mut redrive_ns = 0.0;
        if let Some(led) = led {
            let call = RunnerCall {
                ns,
                cycles: run.cycles,
                result: &run.result,
                misses,
            };
            let (r, t) = timed(|| redrive_kernel(&op.kernel(), &opts, &call, led));
            led.mismatched |= r.is_err();
            led.misses += misses;
            redrive_ns = t;
        }
        OpRecord {
            ns,
            cycles: run.cycles,
            outcome,
            oracle_ns,
            redrive_ns,
            setup_ns: None,
        }
    }

    fn sim_cycles_per_op(&self) -> Option<f64> {
        let pass: Option<u64> = self.first_cycles.iter().copied().sum();
        pass.map(|c| c as f64 / self.ops.len() as f64)
    }

    fn consistent(&self) -> bool {
        !self.nondeterministic
    }
}
