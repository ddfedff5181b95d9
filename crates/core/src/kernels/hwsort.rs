//! Merge-sort kernel using the DB instruction-set extension — the paper's
//! Figure 12 core loop.
//!
//! Three phases:
//!
//! 1. **Presort** — `SORT4_LD` pulls four elements through the hardware
//!    sorting network ("special load and store instructions ... which
//!    concurrently perform a sort operation", Section 4), `CPY_ST` writes
//!    the sorted block out: sorted runs of four after one pass.
//! 2. **Merge passes** — pairs of runs are merged with the `STORE_MERGE` /
//!    `LD_MERGE` loop (3 cycles per 4 elements, matching the paper's
//!    "one iteration of the core loop requires only three cycles").
//!    The pass driver (pair pointers, width doubling, ping-pong swap) is
//!    scalar code, as it would be in the paper's C-with-intrinsics.
//! 3. **Remainders** — a run without a partner is copied with the 128-bit
//!    copy instructions ("as soon as one list is empty the remainder
//!    elements ... are copied using 128-bit copy instructions").
//!
//! `n` must be a positive multiple of 4 (the presort block size); the
//! runner pads with sentinels and strips them after sorting.

use super::{e, e_r, e_s, SortLayout};
use crate::ops::{opcodes as op, DbExtConfig};
use dbx_cpu::isa::regs::*;
use dbx_cpu::{Program, ProgramBuilder, SimError};

/// Builds the EIS merge-sort program, its buffers and sizes parameters in
/// [`SortLayout::params`] order. Returns the program and whether the
/// sorted data ends up in the `dst` buffer ([`sort_result_in_dst`]).
pub fn merge_sort_program(
    _wiring: &DbExtConfig,
    layout: &SortLayout,
) -> Result<(Program, bool), SimError> {
    let n = layout.n;
    assert!(
        n >= 4 && n.is_multiple_of(4),
        "sort kernel needs a positive multiple of 4"
    );
    let mut b = ProgramBuilder::new();

    // a1 = width bytes, a13 = total bytes, a14 = src, a15 = dst.
    b.label("init");
    let [src, dst, bytes, blocks] = layout.params().map(|v| v as i32);
    b.movi_param(A14, 0, src);
    b.movi_param(A15, 1, dst);
    b.movi_param(A13, 2, bytes);

    // ---- presort pass: sorted runs of 4, src -> dst ----
    b.label("presort");
    b.inst(e(op::INIT));
    b.inst(e_s(op::WUR_PTR_A, A14));
    b.add(A2, A14, A13);
    b.inst(e_s(op::WUR_END_A, A2));
    b.inst(e_s(op::WUR_PTR_C, A15));
    b.movi_param(A3, 3, blocks);
    b.label("presort_loop");
    b.inst(e(op::SORT4_LD));
    b.inst(e(op::CPY_ST));
    b.addi(A3, A3, -1);
    b.bnez(A3, "presort_loop");
    // Swap ping/pong; width = 4 elements.
    b.mov(A10, A14);
    b.mov(A14, A15);
    b.mov(A15, A10);
    b.movi(A1, 16);

    // ---- merge passes ----
    b.label("pass_loop");
    b.bgeu(A1, A13, "done_passes");
    b.movi(A2, 0); // l (byte offset)

    b.label("pair_loop");
    b.bgeu(A2, A13, "pass_end");
    b.add(A3, A2, A1);
    b.minu(A3, A3, A13); // m
    b.add(A4, A3, A1);
    b.minu(A4, A4, A13); // r
    b.beq(A3, A4, "pair_copy"); // lone run: copy-through

    // Merge [l, m) with [m, r) into dst + l.
    b.inst(e(op::INIT));
    b.add(A5, A14, A2);
    b.inst(e_s(op::WUR_PTR_A, A5));
    b.add(A5, A14, A3);
    b.inst(e_s(op::WUR_END_A, A5));
    b.inst(e_s(op::WUR_PTR_B, A5)); // ptr_b = src + m
    b.add(A5, A14, A4);
    b.inst(e_s(op::WUR_END_B, A5));
    b.add(A5, A15, A2);
    b.inst(e_s(op::WUR_PTR_C, A5));
    b.inst(e(op::LD_MERGE));
    b.inst(e(op::LD_MERGE)); // prime both run buffers
    b.label("merge_loop");
    b.inst(e_r(op::STORE_MERGE, A7));
    b.inst(e(op::LD_MERGE));
    b.bnez(A7, "merge_loop");
    b.inst(e(op::ST_FLUSH));
    b.inst(e(op::ST_FLUSH));
    b.j("pair_next");

    // Copy [l, m) to dst + l (no partner run).
    b.label("pair_copy");
    b.inst(e(op::INIT));
    b.add(A5, A14, A2);
    b.inst(e_s(op::WUR_PTR_A, A5));
    b.add(A5, A14, A3);
    b.inst(e_s(op::WUR_END_A, A5));
    b.add(A5, A15, A2);
    b.inst(e_s(op::WUR_PTR_C, A5));
    b.label("copy_loop");
    b.inst(e(op::CPY_LD_A));
    b.inst(e(op::CPY_ST));
    b.inst(e_r(op::RUR_CPY_PEND, A8));
    b.bnez(A8, "copy_loop");

    b.label("pair_next");
    b.slli(A10, A1, 1);
    b.add(A2, A2, A10);
    b.j("pair_loop");

    b.label("pass_end");
    b.mov(A10, A14);
    b.mov(A14, A15);
    b.mov(A15, A10);
    b.slli(A1, A1, 1);
    b.j("pass_loop");

    b.label("done_passes");
    b.halt();

    Ok((b.build()?, sort_result_in_dst(n)))
}

/// Whether the EIS merge-sort of `n` elements leaves its result in the
/// `dst` buffer: the presort swaps once, then one swap per merge pass.
pub fn sort_result_in_dst(n: u32) -> bool {
    let mut passes = 1u32;
    let mut w = 16u64;
    while w < (n as u64) * 4 {
        passes += 1;
        w *= 2;
    }
    passes % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::DbExtension;
    use dbx_cpu::{CpuConfig, Processor, DMEM0_BASE};

    fn run_sort(data: &[u32]) -> (Vec<u32>, u64) {
        let n = data.len() as u32;
        let layout = SortLayout {
            src: DMEM0_BASE,
            dst: DMEM0_BASE + 0x8000,
            n,
        };
        let wiring = DbExtConfig::one_lsu(false);
        let (prog, in_dst) = merge_sort_program(&wiring, &layout).unwrap();
        let mut p = Processor::new(CpuConfig::local_store_core(1, 64)).unwrap();
        p.attach_extension(Box::new(DbExtension::new(wiring)));
        p.load_program(prog).unwrap();
        p.mem.poke_words(layout.src, data).unwrap();
        let stats = p.run(100_000_000).unwrap();
        let base = if in_dst { layout.dst } else { layout.src };
        (p.mem.peek_words(base, data.len()).unwrap(), stats.cycles)
    }

    fn pseudo_random(n: usize, seed: u32) -> Vec<u32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                x
            })
            .collect()
    }

    #[test]
    fn sorts_exact_block_count() {
        let data = pseudo_random(64, 42);
        let (got, _) = run_sort(&data);
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn sorts_non_power_of_two_runs() {
        // 3 and 5 runs exercise the lone-run copy path.
        for n in [12usize, 20, 44, 100] {
            let data = pseudo_random(n, n as u32);
            let (got, _) = run_sort(&data);
            let mut expect = data;
            expect.sort_unstable();
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn sorts_single_block() {
        let (got, _) = run_sort(&[9, 2, 7, 4]);
        assert_eq!(got, vec![2, 4, 7, 9]);
    }

    #[test]
    fn sorts_already_sorted_and_reversed() {
        let fwd: Vec<u32> = (0..256).collect();
        let (got, cy_fwd) = run_sort(&fwd);
        assert_eq!(got, fwd);
        let rev: Vec<u32> = (0..256).rev().collect();
        let (got, cy_rev) = run_sort(&rev);
        assert_eq!(got, fwd);
        // The paper notes the merge-sort takes no shortcuts on presorted
        // data: both orders should cost about the same.
        let ratio = cy_fwd as f64 / cy_rev as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "order-sensitive cycles: {cy_fwd} vs {cy_rev}"
        );
    }

    #[test]
    fn sorts_with_duplicates_and_extremes() {
        let mut data = vec![u32::MAX, 0, u32::MAX, 0, 5, 5, 5, 5];
        data.extend(pseudo_random(56, 7).iter().map(|x| x % 10));
        let (got, _) = run_sort(&data);
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn merge_core_loop_is_three_cycles_per_block() {
        // For large n the merge passes dominate: cycles/element/pass
        // should approach 3/4 (3-cycle loop emitting 4 elements).
        let data = pseudo_random(2048, 3);
        let (_, cycles) = run_sort(&data);
        let n = data.len() as f64;
        let merge_passes = (n / 4.0).log2().ceil();
        // The 3-cycle loop plus per-pair setup/prime/drain overhead (heavy
        // on the early short-run passes) lands in the 1-2 range; the
        // paper's own implementation measures ~1.3 (Table 2: 29.3 M
        // elements/s at 424 MHz over ~11.5 passes).
        let per_elem_pass = cycles as f64 / (n * (merge_passes + 0.5));
        assert!(
            (0.75..2.0).contains(&per_elem_pass),
            "expected ~0.75-2.0 cycles/element/pass, got {per_elem_pass} ({cycles} cycles)"
        );
    }
}
