//! Event counters and run statistics.
//!
//! The counters serve two purposes: (1) reporting — throughput, stall
//! breakdowns, hotspots — and (2) *switching-activity input for the power
//! model* in `dbx-synth`, mirroring how the paper obtains power numbers from
//! simulated activity dumps (Section 5.1: Questa switching-activity dump fed
//! into PrimeTime).

use dbx_faults::FaultCounters;

/// Architectural event counts accumulated over a run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EventCounters {
    /// Instructions (FLIX bundles count once).
    pub instrs: u64,
    /// FLIX bundles issued.
    pub flix_bundles: u64,
    /// Simple ALU operations executed (including slot ALU ops).
    pub alu_ops: u64,
    /// Multiplications.
    pub mul_ops: u64,
    /// Divisions / remainders.
    pub div_ops: u64,
    /// Loads served by local memories.
    pub loads_local: u64,
    /// Stores served by local memories.
    pub stores_local: u64,
    /// Loads served by system memory (cached or not).
    pub loads_sys: u64,
    /// Stores served by system memory (cached or not).
    pub stores_sys: u64,
    /// Total bytes loaded (all paths).
    pub bytes_loaded: u64,
    /// Total bytes stored (all paths).
    pub bytes_stored: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches taken.
    pub branches_taken: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Unconditional control transfers (J/JX/CALL0/RET).
    pub jumps: u64,
    /// Zero-overhead hardware loop back-edges (cost-free).
    pub hw_loop_backs: u64,
    /// Extension (TIE) operations executed, total.
    pub ext_ops: u64,
    /// Per-op extension execution counts, indexed by extension opcode.
    pub ext_op_counts: Vec<u64>,
    /// Cycles lost to load-use interlocks.
    pub stall_load_use: u64,
    /// Cycles lost to memory latency beyond the single-cycle local store.
    pub stall_mem: u64,
    /// Cycles lost to control-transfer penalties.
    pub stall_control: u64,
    /// Cycles lost to the SECDED decoder on protected local-store reads.
    pub stall_ecc: u64,
    /// Fault accounting (injected / corrected / detected / escaped),
    /// harvested from the memory system and fault plan on every run exit.
    /// Shared with `dbx-faults` so resilience reports and the observability
    /// registry read from one source of truth.
    pub faults: FaultCounters,
}

impl EventCounters {
    /// Bumps the per-op extension counter, growing the table as needed.
    #[inline]
    pub fn count_ext_op(&mut self, op: u16) {
        let ix = op as usize;
        if self.ext_op_counts.len() <= ix {
            self.ext_op_counts.resize(ix + 1, 0);
        }
        self.ext_op_counts[ix] += 1;
        self.ext_ops += 1;
    }

    /// Total memory operations on any path.
    pub fn mem_ops(&self) -> u64 {
        self.loads_local + self.stores_local + self.loads_sys + self.stores_sys
    }

    /// Branch misprediction rate in `[0, 1]` (0 when no branches ran).
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Total cycles lost to stalls of any class.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_load_use + self.stall_mem + self.stall_control + self.stall_ecc
    }

    /// The counters as stable `(name, value)` pairs for the observability
    /// registry — one naming scheme shared by `repro observe`,
    /// `repro resilience`, and the Perfetto exporter. Returns a fixed
    /// array (no heap allocation) so per-run snapshotting stays off the
    /// allocator in hot telemetry loops.
    pub fn named(&self) -> [(&'static str, u64); 16] {
        [
            ("instrs", self.instrs),
            ("flix_bundles", self.flix_bundles),
            ("ext_ops", self.ext_ops),
            ("bytes_loaded", self.bytes_loaded),
            ("bytes_stored", self.bytes_stored),
            ("branches", self.branches),
            ("mispredicts", self.mispredicts),
            ("hw_loop_backs", self.hw_loop_backs),
            ("stall.load_use", self.stall_load_use),
            ("stall.mem", self.stall_mem),
            ("stall.control", self.stall_control),
            ("stall.ecc", self.stall_ecc),
            ("faults.injected", self.faults.injected),
            ("faults.corrected", self.faults.corrected),
            ("faults.detected", self.faults.detected),
            ("faults.escaped", self.faults.escaped),
        ]
    }
}

/// Outcome of a completed simulation run. Equality compares every
/// field — the engine tests rely on this to assert that observers and
/// idle fault plans leave the stats bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Whether the program reached `HALT` (vs. exhausting the cycle budget).
    pub halted: bool,
    /// Architectural event counts.
    pub counters: EventCounters,
}

impl RunStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.counters.instrs == 0 {
            0.0
        } else {
            self.cycles as f64 / self.counters.instrs as f64
        }
    }

    /// Throughput in million elements per second for `elements` processed
    /// at core frequency `f_mhz` — the paper's reporting metric
    /// (Section 5.2: `T = (l_a + l_b) / t` for set operations, `n / t`
    /// for sorting). Degenerate inputs — zero cycles, or a frequency that
    /// is zero, negative, or non-finite — report `0.0` rather than a
    /// NaN/infinity that would poison downstream aggregates.
    pub fn throughput_meps(&self, elements: u64, f_mhz: f64) -> f64 {
        if self.cycles == 0 || !f_mhz.is_finite() || f_mhz <= 0.0 {
            return 0.0;
        }
        // elements / (cycles / f) where f is in MHz and t in µs gives
        // elements per µs == million elements per second.
        elements as f64 * f_mhz / self.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_op_counting_grows_table() {
        let mut c = EventCounters::default();
        c.count_ext_op(5);
        c.count_ext_op(5);
        c.count_ext_op(2);
        assert_eq!(c.ext_op_counts[5], 2);
        assert_eq!(c.ext_op_counts[2], 1);
        assert_eq!(c.ext_ops, 3);
    }

    #[test]
    fn throughput_formula_matches_paper_units() {
        let s = RunStats {
            cycles: 1000,
            halted: true,
            counters: EventCounters::default(),
        };
        // 2000 elements in 1000 cycles at 500 MHz = 1000 M elements/s —
        // the paper's theoretical peak example (Section 4).
        let t = s.throughput_meps(2000, 500.0);
        assert!((t - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn named_counters_cover_stalls_and_faults() {
        let mut c = EventCounters {
            stall_load_use: 3,
            stall_mem: 4,
            stall_control: 5,
            stall_ecc: 6,
            ..EventCounters::default()
        };
        c.faults.injected = 2;
        c.faults.corrected = 1;
        assert_eq!(c.stall_cycles(), 18);
        let named = c.named();
        let get = |k: &str| named.iter().find(|(n, _)| *n == k).map(|(_, v)| *v);
        assert_eq!(get("stall.ecc"), Some(6));
        assert_eq!(get("faults.injected"), Some(2));
        assert_eq!(get("faults.corrected"), Some(1));
        assert_eq!(get("faults.escaped"), Some(0));
        // Names are unique — the registry keys on them.
        let mut names: Vec<_> = named.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), named.len());
    }

    #[test]
    fn named_returns_a_fixed_array_without_allocating() {
        let c = EventCounters {
            instrs: 7,
            faults: FaultCounters {
                escaped: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        // The annotation is the point: `named()` returns a stack array,
        // so snapshotting counters allocates nothing.
        let named: [(&'static str, u64); 16] = c.named();
        let get = |k: &str| named.iter().find(|(n, _)| *n == k).map(|(_, v)| *v);
        assert_eq!(get("instrs"), Some(7));
        assert_eq!(get("faults.escaped"), Some(1));
    }

    #[test]
    fn rates_are_safe_on_empty_runs() {
        let c = EventCounters::default();
        assert_eq!(c.mispredict_rate(), 0.0);
        let s = RunStats {
            cycles: 0,
            halted: false,
            counters: c,
        };
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.throughput_meps(100, 400.0), 0.0);
    }

    #[test]
    fn throughput_is_zero_for_degenerate_frequencies() {
        let s = RunStats {
            cycles: 1000,
            halted: true,
            counters: EventCounters::default(),
        };
        assert_eq!(s.throughput_meps(2000, 0.0), 0.0);
        assert_eq!(s.throughput_meps(2000, -410.0), 0.0);
        assert_eq!(s.throughput_meps(2000, f64::NAN), 0.0);
        assert_eq!(s.throughput_meps(2000, f64::INFINITY), 0.0);
    }
}
