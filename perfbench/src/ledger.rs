//! The per-layer host-time ledger of a traced run.
//!
//! Nothing inside the program is instrumented. After each top-level call
//! the traced run re-drives the layers below it, one public function at a
//! time, on the same inputs, and times each call. A layer's self time is
//! its call time minus the call times of the layers directly below it, so
//! the self times of one op add up to that op's top-level call time.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dbx_core::kernels::{hwset, hwsort, scalar, SortLayout};
use dbx_core::runner::{build_processor_with, set_layout};
use dbx_core::{ProcModel, RunOptions, SetOpKind};
use dbx_cpu::{Processor, SimError, DMEM0_BASE};

/// Cycle budget of one re-driven kernel run (the runner's own budget).
const MAX_CYCLES: u64 = 2_000_000_000;

/// One kernel call as the runner receives it.
pub enum Kernel<'a> {
    /// `run_set_op_with(model, kind, a, b, ..)`.
    Set {
        model: ProcModel,
        kind: SetOpKind,
        a: &'a [u32],
        b: &'a [u32],
    },
    /// `run_sort_with(model, data, ..)`; `data.len()` is a multiple of 4.
    Sort { model: ProcModel, data: &'a [u32] },
}

/// Self-time and count accumulators of one traced run. Times are ns.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Top-level ops traced.
    pub ops: u64,
    /// Query requests among them (serving workloads).
    pub queries: u64,
    /// Write requests among them (serving workloads).
    pub writes: u64,

    // Self times, summed over the traced ops.
    pub step_ns: f64,
    pub decode_ns: f64,
    pub load_ns: f64,
    pub mem_io_ns: f64,
    pub build_ns: f64,
    pub assemble_ns: f64,
    pub runner_self_ns: f64,
    pub index_ns: f64,
    pub engine_self_ns: f64,
    pub service_self_ns: f64,
    pub commit_ns: f64,

    // Layer call statistics.
    /// Runner calls re-driven, and their summed call time.
    pub runs: u64,
    pub run_call_ns: f64,
    /// Runs whose processor was fast-path eligible.
    pub fast_runs: u64,
    /// Simulated cycles of the warm (step-loop-only) re-runs.
    pub step_cycles: u64,
    /// Kernel assemblies re-driven, and their summed time.
    pub assemblies: u64,
    pub assemble_call_ns: f64,
    /// Program-cache misses of the top-level calls.
    pub misses: u64,
    /// Index builds (queries that saw a new table generation).
    pub index_builds: u64,
    /// Set operations the engine reported.
    pub set_ops: u64,
    /// Per-write commit times, WAL bytes, and `(disk, user)` byte totals.
    pub commit_times: Vec<f64>,
    pub wal_bytes: u64,
    pub disk_bytes: u64,
    pub user_bytes: u64,

    /// Wall time of the traced loop outside re-drives, oracle checks and
    /// calibration samples.
    pub wall_ns: f64,
    /// A re-drive disagreed with the call it decomposes (different
    /// cycles, set-op count or result): the ledger is not of the same
    /// inputs.
    pub mismatched: bool,
}

impl Ledger {
    /// Sum of every layer's self time.
    pub fn attributed_ns(&self) -> f64 {
        self.step_ns
            + self.decode_ns
            + self.load_ns
            + self.mem_io_ns
            + self.build_ns
            + self.assemble_ns
            + self.runner_self_ns
            + self.index_ns
            + self.engine_self_ns
            + self.service_self_ns
            + self.commit_ns
    }
}

/// Times one call, in ns.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_nanos() as f64)
}

/// What the runner call being decomposed took and returned.
pub struct RunnerCall<'a> {
    /// Its host time.
    pub ns: f64,
    /// Its simulated cycles.
    pub cycles: u64,
    /// Its result.
    pub result: &'a [u32],
    /// Program-cache misses during the call: each paid one assembly.
    pub misses: u64,
}

/// Re-drives one runner call layer by layer and books the self times of
/// the runner and every layer below it. Returns the time one assembly of
/// the kernel takes.
pub fn redrive_kernel(
    k: &Kernel,
    opts: &RunOptions,
    call: &RunnerCall,
    led: &mut Ledger,
) -> Result<f64, SimError> {
    let model = match *k {
        Kernel::Set { model, .. } => model,
        // Sorting always runs on the 1-LSU arrangement (see `run_sort`).
        Kernel::Sort { model, .. } => match model {
            ProcModel::Dba2LsuEis { partial } => ProcModel::Dba1LsuEis { partial },
            ProcModel::Dba2Lsu => ProcModel::Dba1Lsu,
            m => m,
        },
    };
    let (p, build) = timed(|| build_processor_with(model, opts.protection));
    let mut p = p?;

    // `in_dst`: a sort whose last merge pass wrote the scratch buffer.
    let (assembled, asm) = match *k {
        Kernel::Set { kind, a, b, .. } => {
            let layout = set_layout(model, a.len() as u32, b.len() as u32)?;
            timed(|| {
                match model.wiring() {
                    Some(w) => hwset::set_op_program(kind, &w, &layout, hwset::DEFAULT_UNROLL),
                    None => scalar::set_op_program(kind, &layout),
                }
                .map(|p| (p, false))
            })
        }
        Kernel::Sort { data, .. } => {
            let layout = sort_layout(data.len() as u32);
            timed(|| match model.wiring() {
                Some(w) => hwsort::merge_sort_program(&w, &layout),
                None => scalar::merge_sort_program(layout.src, layout.dst, layout.n),
            })
        }
    };
    let (program, in_dst) = assembled?;
    p.set_watchdog(opts.effective_watchdog());
    led.fast_runs += p.fast_path_eligible() as u64;
    let (loaded, load) = timed(|| p.load_program_shared(Arc::new(program)));
    loaded?;

    let (poked, poke) = timed(|| place(&mut p, k, model));
    poked?;
    let (cold, cold_ns) = timed(|| p.run(MAX_CYCLES));
    let cold = cold?;
    let (peeked, peek) = timed(|| read_result(&mut p, k, model, in_dst));
    let result = peeked?;

    // A warm re-run on the same processor keeps the decoded blocks, so
    // the difference to the cold run is the decode cost.
    p.reset_run_state();
    place(&mut p, k, model)?;
    let (warm, warm_ns) = timed(|| p.run(MAX_CYCLES));
    let warm = warm?;
    if cold.cycles != call.cycles || warm.cycles != call.cycles || result != call.result {
        led.mismatched = true;
    }

    let assemble = asm * call.misses as f64;
    led.runs += 1;
    led.run_call_ns += call.ns;
    led.assemblies += 1;
    led.assemble_call_ns += asm;
    led.build_ns += build;
    led.assemble_ns += assemble;
    led.load_ns += load;
    led.mem_io_ns += poke + peek;
    led.decode_ns += cold_ns - warm_ns;
    led.step_ns += warm_ns;
    led.step_cycles += warm.cycles;
    led.runner_self_ns += call.ns - (build + assemble + load + poke + peek + cold_ns);
    Ok(asm)
}

/// The runner's ping-pong placement for a sort of `n` elements.
fn sort_layout(n: u32) -> SortLayout {
    SortLayout {
        src: DMEM0_BASE,
        dst: (DMEM0_BASE + 4 * n + 15) & !15,
        n,
    }
}

fn place(p: &mut Processor, k: &Kernel, model: ProcModel) -> Result<(), SimError> {
    match *k {
        Kernel::Set { a, b, .. } => {
            let layout = set_layout(model, a.len() as u32, b.len() as u32)?;
            p.mem.poke_words(layout.a_base, a)?;
            p.mem.poke_words(layout.b_base, b)
        }
        Kernel::Sort { data, .. } => p.mem.poke_words(sort_layout(data.len() as u32).src, data),
    }
}

fn read_result(
    p: &mut Processor,
    k: &Kernel,
    model: ProcModel,
    in_dst: bool,
) -> Result<Vec<u32>, SimError> {
    match *k {
        Kernel::Set { a, b, .. } => {
            let layout = set_layout(model, a.len() as u32, b.len() as u32)?;
            let n = if model.has_eis() {
                p.ar[2] as usize
            } else {
                ((p.ar[6] - layout.c_base) / 4) as usize
            };
            p.mem.peek_words(layout.c_base, n)
        }
        Kernel::Sort { data, .. } => {
            let layout = sort_layout(data.len() as u32);
            let base = if in_dst { layout.dst } else { layout.src };
            p.mem.peek_words(base, data.len())
        }
    }
}
