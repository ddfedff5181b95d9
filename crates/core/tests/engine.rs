//! Pinned-result suite for the simulator's single execution engine.
//!
//! Every processor model runs all three set operations and merge-sort on
//! three input seeds. Each run must match the scalar software reference
//! (`dbx_x86ref::scalar`) and a pinned fingerprint of its result digest,
//! simulated cycles and every `RunStats` counter. The pins were recorded
//! with the simulator's former per-step reference loop, so they carry its
//! evidence forward: any change to results, timing or event accounting
//! shows up here as the first diverging row.
//!
//! The remaining tests check that observing a run (observer, precise or
//! sampled profiling), arming a fault plan that never fires, or turning on
//! local-memory protection changes no result and no cycle it should not;
//! that a runner call on a thread's reused processor is indistinguishable
//! from the same call on a fresh one; and that a kernel template bound to
//! a layout runs exactly like the program built for that layout.

use std::sync::Arc;

use dbx_core::kernels::{hwset, hwsort, scalar, SetLayout, SortLayout};
use dbx_core::runner::{
    build_processor, run_set_op_with, run_sort_with, set_layout, sort_layout, sort_model,
    KernelRun, RecoveryPolicy, RunOptions,
};
use dbx_core::{ProcModel, SetOpKind};
use dbx_cpu::{Processor, ProfileMode, Program, RunStats, SimError};
use dbx_faults::{FaultPlan, FaultTarget, ProtectionKind};
use dbx_observe::Observer;

const SEEDS: [u64; 3] = [11, 1337, 90210];

/// One row per `{model:?} {kernel} {seed}`:
/// `len digest cycles halted | instrs flix alu mul div |
/// loads_local stores_local loads_sys stores_sys bytes_loaded bytes_stored |
/// branches taken mispredicts jumps hw_loop_backs | ext_ops ext_op_counts |
/// stall_load_use stall_mem stall_control stall_ecc |
/// injected corrected detected escaped | retries`.
const PINS: &[&str] = &[
    "Mini108 intersect 11: 80 307429f25ee40db9 10089 true | 4920 0 759 0 0 | 0 0 1188 80 4752 320 | 2298 325 377 594 0 | 0 [] | 594 2850 1725 0 | 0 0 0 0 | 0",
    "Mini108 union 11: 670 a89c4ca6146c0d4a 14219 true | 6405 0 1425 0 0 | 0 0 1264 670 5056 2680 | 2375 326 378 670 0 | 0 [] | 670 5340 1804 0 | 0 0 0 0 | 0",
    "Mini108 difference 11: 320 f17b7f41172620b9 12199 true | 5705 0 1075 0 0 | 0 0 1264 320 5056 1280 | 2375 326 378 670 0 | 0 [] | 670 4020 1804 0 | 0 0 0 0 | 0",
    "Mini108 sort 11: 256 494788ebe28ee08f 32134 true | 21529 0 6945 0 0 | 0 0 3788 2048 15152 8192 | 6436 1392 1442 2311 0 | 0 [] | 2048 1920 6637 0 | 0 0 0 0 | 0",
    "Mini108 intersect 1337: 97 c825ae8c68f1b690 10576 true | 5074 0 808 0 0 | 0 0 1218 97 4872 388 | 2341 357 408 609 0 | 0 [] | 609 3060 1833 0 | 0 0 0 0 | 0",
    "Mini108 union 1337: 653 41a909c2d1594d42 14176 true | 6363 0 1408 0 0 | 0 0 1262 653 5048 2612 | 2386 358 409 653 0 | 0 [] | 653 5280 1880 0 | 0 0 0 0 | 0",
    "Mini108 difference 1337: 303 376a02311bb39d10 12156 true | 5663 0 1058 0 0 | 0 0 1262 303 5048 1212 | 2386 358 409 653 0 | 0 [] | 653 3960 1880 0 | 0 0 0 0 | 0",
    "Mini108 sort 1337: 256 8661653b26745a0a 31995 true | 21501 0 6945 0 0 | 0 0 3778 2048 15112 8192 | 6418 1390 1405 2311 0 | 0 [] | 2048 1920 6526 0 | 0 0 0 0 | 0",
    "Mini108 intersect 90210: 84 2822186ea934241c 10586 true | 5120 0 791 0 0 | 0 0 1236 84 4944 336 | 2390 353 420 618 0 | 0 [] | 618 2970 1878 0 | 0 0 0 0 | 0",
    "Mini108 union 90210: 666 9f2886a7bb06377a 14412 true | 6477 0 1421 0 0 | 0 0 1284 666 5136 2664 | 2439 354 421 666 0 | 0 [] | 666 5340 1929 0 | 0 0 0 0 | 0",
    "Mini108 difference 90210: 316 edb5d23f4a1a9ff5 12392 true | 5777 0 1071 0 0 | 0 0 1284 316 5136 1264 | 2439 354 421 666 0 | 0 [] | 666 4020 1929 0 | 0 0 0 0 | 0",
    "Mini108 sort 90210: 256 33c9e0f039886b2d 31939 true | 21457 0 6945 0 0 | 0 0 3762 2048 15048 8192 | 6390 1387 1401 2311 0 | 0 [] | 2048 1920 6514 0 | 0 0 0 0 | 0",
    "Dba1Lsu intersect 11: 80 307429f25ee40db9 7239 true | 4920 0 759 0 0 | 1188 80 0 0 4752 320 | 2298 325 377 594 0 | 0 [] | 594 0 1725 0 | 0 0 0 0 | 0",
    "Dba1Lsu union 11: 670 a89c4ca6146c0d4a 8879 true | 6405 0 1425 0 0 | 1264 670 0 0 5056 2680 | 2375 326 378 670 0 | 0 [] | 670 0 1804 0 | 0 0 0 0 | 0",
    "Dba1Lsu difference 11: 320 f17b7f41172620b9 8179 true | 5705 0 1075 0 0 | 1264 320 0 0 5056 1280 | 2375 326 378 670 0 | 0 [] | 670 0 1804 0 | 0 0 0 0 | 0",
    "Dba1Lsu sort 11: 256 494788ebe28ee08f 30214 true | 21529 0 6945 0 0 | 3788 2048 0 0 15152 8192 | 6436 1392 1442 2311 0 | 0 [] | 2048 0 6637 0 | 0 0 0 0 | 0",
    "Dba1Lsu intersect 1337: 97 c825ae8c68f1b690 7516 true | 5074 0 808 0 0 | 1218 97 0 0 4872 388 | 2341 357 408 609 0 | 0 [] | 609 0 1833 0 | 0 0 0 0 | 0",
    "Dba1Lsu union 1337: 653 41a909c2d1594d42 8896 true | 6363 0 1408 0 0 | 1262 653 0 0 5048 2612 | 2386 358 409 653 0 | 0 [] | 653 0 1880 0 | 0 0 0 0 | 0",
    "Dba1Lsu difference 1337: 303 376a02311bb39d10 8196 true | 5663 0 1058 0 0 | 1262 303 0 0 5048 1212 | 2386 358 409 653 0 | 0 [] | 653 0 1880 0 | 0 0 0 0 | 0",
    "Dba1Lsu sort 1337: 256 8661653b26745a0a 30075 true | 21501 0 6945 0 0 | 3778 2048 0 0 15112 8192 | 6418 1390 1405 2311 0 | 0 [] | 2048 0 6526 0 | 0 0 0 0 | 0",
    "Dba1Lsu intersect 90210: 84 2822186ea934241c 7616 true | 5120 0 791 0 0 | 1236 84 0 0 4944 336 | 2390 353 420 618 0 | 0 [] | 618 0 1878 0 | 0 0 0 0 | 0",
    "Dba1Lsu union 90210: 666 9f2886a7bb06377a 9072 true | 6477 0 1421 0 0 | 1284 666 0 0 5136 2664 | 2439 354 421 666 0 | 0 [] | 666 0 1929 0 | 0 0 0 0 | 0",
    "Dba1Lsu difference 90210: 316 edb5d23f4a1a9ff5 8372 true | 5777 0 1071 0 0 | 1284 316 0 0 5136 1264 | 2439 354 421 666 0 | 0 [] | 666 0 1929 0 | 0 0 0 0 | 0",
    "Dba1Lsu sort 90210: 256 33c9e0f039886b2d 30019 true | 21457 0 6945 0 0 | 3762 2048 0 0 15048 8192 | 6390 1387 1401 2311 0 | 0 [] | 2048 0 6514 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } intersect 11: 80 307429f25ee40db9 610 true | 604 0 5 0 0 | 172 20 0 0 2744 320 | 6 5 2 0 0 | 592 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 0, 0, 0, 0, 0, 0, 192, 0, 0, 0, 197] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } union 11: 670 a89c4ca6146c0d4a 885 true | 872 0 5 0 0 | 188 170 0 0 3000 2680 | 24 21 4 1 0 | 841 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 192, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 1, 0, 17, 17, 0, 0, 0, 192, 0, 0, 197, 17] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } difference 11: 320 f17b7f41172620b9 687 true | 675 0 5 0 0 | 188 80 0 0 3000 1280 | 23 20 4 0 0 | 646 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 1, 0, 16, 16, 0, 0, 0, 0, 192, 0, 197, 16] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } sort 11: 256 494788ebe28ee08f 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } intersect 1337: 97 c825ae8c68f1b690 610 true | 604 0 5 0 0 | 180 25 0 0 2872 388 | 6 5 2 0 0 | 592 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 0, 0, 0, 0, 0, 0, 192, 0, 0, 0, 197] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } union 1337: 653 41a909c2d1594d42 853 true | 840 0 5 0 0 | 188 166 0 0 3000 2612 | 16 13 4 1 0 | 817 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 192, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 1, 0, 9, 9, 0, 0, 0, 192, 0, 0, 197, 9] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } difference 1337: 303 376a02311bb39d10 659 true | 647 0 5 0 0 | 188 78 0 0 3000 1212 | 16 13 4 0 0 | 625 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 1, 0, 9, 9, 0, 0, 0, 0, 192, 0, 197, 9] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } sort 1337: 256 8661653b26745a0a 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } intersect 90210: 84 2822186ea934241c 610 true | 604 0 5 0 0 | 179 21 0 0 2856 336 | 6 5 2 0 0 | 592 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 0, 0, 0, 0, 0, 0, 192, 0, 0, 0, 197] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } union 90210: 666 9f2886a7bb06377a 857 true | 844 0 5 0 0 | 188 169 0 0 3000 2664 | 17 14 4 1 0 | 820 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 192, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 1, 0, 10, 10, 0, 0, 0, 192, 0, 0, 197, 10] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } difference 90210: 316 edb5d23f4a1a9ff5 659 true | 647 0 5 0 0 | 188 79 0 0 3000 1264 | 16 13 4 0 0 | 625 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 1, 0, 9, 9, 0, 0, 0, 0, 192, 0, 197, 9] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: false } sort 90210: 256 33c9e0f039886b2d 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } intersect 11: 80 307429f25ee40db9 416 true | 410 0 5 0 0 | 172 20 0 0 2744 320 | 6 5 2 0 0 | 398 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 0, 0, 195] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } union 11: 670 a89c4ca6146c0d4a 677 true | 664 18 5 0 0 | 188 170 0 0 3000 2680 | 25 22 4 1 0 | 650 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 192, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 18, 18, 0, 0, 0, 192, 0, 0, 195, 18] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } difference 11: 320 f17b7f41172620b9 480 true | 468 17 5 0 0 | 188 80 0 0 3000 1280 | 24 21 4 0 0 | 455 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 17, 17, 0, 0, 0, 0, 192, 0, 195, 17] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } sort 11: 256 494788ebe28ee08f 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } intersect 1337: 97 c825ae8c68f1b690 416 true | 410 0 5 0 0 | 180 25 0 0 2872 388 | 6 5 2 0 0 | 398 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 0, 0, 195] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } union 1337: 653 41a909c2d1594d42 653 true | 640 10 5 0 0 | 188 166 0 0 3000 2612 | 17 14 4 1 0 | 626 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 192, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 10, 10, 0, 0, 0, 192, 0, 0, 195, 10] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } difference 1337: 303 376a02311bb39d10 459 true | 447 10 5 0 0 | 188 78 0 0 3000 1212 | 17 14 4 0 0 | 434 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 10, 10, 0, 0, 0, 0, 192, 0, 195, 10] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } sort 1337: 256 8661653b26745a0a 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } intersect 90210: 84 2822186ea934241c 416 true | 410 0 5 0 0 | 179 21 0 0 2856 336 | 6 5 2 0 0 | 398 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 0, 0, 0, 195] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } union 90210: 666 9f2886a7bb06377a 656 true | 643 11 5 0 0 | 188 169 0 0 3000 2664 | 18 15 4 1 0 | 629 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 192, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 11, 11, 0, 0, 0, 192, 0, 0, 195, 11] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } difference 90210: 316 edb5d23f4a1a9ff5 459 true | 447 10 5 0 0 | 188 79 0 0 3000 1264 | 17 14 4 0 0 | 434 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 10, 10, 0, 0, 0, 0, 192, 0, 195, 10] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: false } sort 90210: 256 33c9e0f039886b2d 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } intersect 11: 80 307429f25ee40db9 416 true | 410 0 5 0 0 | 172 20 0 0 2744 320 | 4 3 2 0 0 | 400 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 133] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } union 11: 670 a89c4ca6146c0d4a 627 true | 614 0 5 0 0 | 188 170 0 0 3000 2680 | 22 19 4 1 0 | 585 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 128, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 1, 0, 17, 17, 0, 0, 0, 128, 0, 0, 133, 17] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } difference 11: 320 f17b7f41172620b9 493 true | 481 0 5 0 0 | 188 80 0 0 3000 1280 | 21 18 4 0 0 | 454 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 1, 0, 16, 16, 0, 0, 0, 0, 128, 0, 133, 16] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } sort 11: 256 494788ebe28ee08f 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } intersect 1337: 97 c825ae8c68f1b690 416 true | 410 0 5 0 0 | 180 25 0 0 2872 388 | 4 3 2 0 0 | 400 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 133] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } union 1337: 653 41a909c2d1594d42 595 true | 582 0 5 0 0 | 188 166 0 0 3000 2612 | 14 11 4 1 0 | 561 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 128, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 1, 0, 9, 9, 0, 0, 0, 128, 0, 0, 133, 9] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } difference 1337: 303 376a02311bb39d10 465 true | 453 0 5 0 0 | 188 78 0 0 3000 1212 | 14 11 4 0 0 | 433 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 1, 0, 9, 9, 0, 0, 0, 0, 128, 0, 133, 9] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } sort 1337: 256 8661653b26745a0a 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } intersect 90210: 84 2822186ea934241c 416 true | 410 0 5 0 0 | 179 21 0 0 2856 336 | 4 3 2 0 0 | 400 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 133] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } union 90210: 666 9f2886a7bb06377a 599 true | 586 0 5 0 0 | 188 169 0 0 3000 2664 | 15 12 4 1 0 | 564 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 128, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 1, 0, 10, 10, 0, 0, 0, 128, 0, 0, 133, 10] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } difference 90210: 316 edb5d23f4a1a9ff5 465 true | 453 0 5 0 0 | 188 79 0 0 3000 1264 | 14 11 4 0 0 | 433 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 1, 0, 9, 9, 0, 0, 0, 0, 128, 0, 133, 9] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba1LsuEis { partial: true } sort 90210: 256 33c9e0f039886b2d 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } intersect 11: 80 307429f25ee40db9 286 true | 280 0 5 0 0 | 172 20 0 0 2744 320 | 4 3 2 0 0 | 270 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 131] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } union 11: 670 a89c4ca6146c0d4a 483 true | 470 18 5 0 0 | 188 170 0 0 3000 2680 | 23 20 4 1 0 | 458 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 128, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 18, 18, 0, 0, 0, 128, 0, 0, 131, 18] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } difference 11: 320 f17b7f41172620b9 350 true | 338 17 5 0 0 | 188 80 0 0 3000 1280 | 22 19 4 0 0 | 327 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 17, 17, 0, 0, 0, 0, 128, 0, 131, 17] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } sort 11: 256 494788ebe28ee08f 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } intersect 1337: 97 c825ae8c68f1b690 286 true | 280 0 5 0 0 | 180 25 0 0 2872 388 | 4 3 2 0 0 | 270 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 131] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } union 1337: 653 41a909c2d1594d42 459 true | 446 10 5 0 0 | 188 166 0 0 3000 2612 | 15 12 4 1 0 | 434 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 128, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 10, 10, 0, 0, 0, 128, 0, 0, 131, 10] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } difference 1337: 303 376a02311bb39d10 329 true | 317 10 5 0 0 | 188 78 0 0 3000 1212 | 15 12 4 0 0 | 306 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 10, 10, 0, 0, 0, 0, 128, 0, 131, 10] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } sort 1337: 256 8661653b26745a0a 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } intersect 90210: 84 2822186ea934241c 286 true | 280 0 5 0 0 | 179 21 0 0 2856 336 | 4 3 2 0 0 | 270 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 131] | 0 0 6 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } union 90210: 666 9f2886a7bb06377a 462 true | 449 11 5 0 0 | 188 169 0 0 3000 2664 | 16 13 4 1 0 | 437 [1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 128, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 11, 11, 0, 0, 0, 128, 0, 0, 131, 11] | 0 0 13 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } difference 90210: 316 edb5d23f4a1a9ff5 329 true | 317 10 5 0 0 | 188 79 0 0 3000 1264 | 15 12 4 0 0 | 306 [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 10, 10, 0, 0, 0, 0, 128, 0, 131, 10] | 0 0 12 0 | 0 0 0 0 | 0",
    "Dba2LsuEis { partial: true } sort 90210: 256 33c9e0f039886b2d 3523 true | 3172 0 733 0 0 | 448 448 0 0 7168 7168 | 650 454 73 132 0 | 1656 [64, 64, 64, 63, 63, 64, 0, 0, 0, 0, 0, 0, 0, 126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 573, 0, 0, 64, 0, 0, 64, 0, 0, 0, 447] | 0 0 351 0 | 0 0 0 0 | 0",
];

/// Deterministic xorshift — the suite must not depend on ambient RNG state.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A strictly increasing set of roughly `len` elements.
fn sorted_set(seed: u64, salt: u64, len: usize) -> Vec<u32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    let mut v = Vec::with_capacity(len);
    let mut cur = 0u32;
    for _ in 0..len {
        cur = cur.wrapping_add(1 + (next(&mut state) % 7) as u32);
        v.push(cur);
    }
    v
}

fn unsorted_data(seed: u64, len: usize) -> Vec<u32> {
    let mut state = seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1;
    (0..len)
        .map(|_| (next(&mut state) % 100_000) as u32)
        .collect()
}

/// FNV-1a over the result words.
fn digest(words: &[u32]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ u64::from(*w)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The pinned-row rendering of a run (see [`PINS`] for the layout).
fn fingerprint(run: &KernelRun) -> String {
    let c = &run.stats.counters;
    let f = &c.faults;
    format!(
        "{} {:016x} {} {} | {} {} {} {} {} | {} {} {} {} {} {} | {} {} {} {} {} | {} {:?} | {} {} {} {} | {} {} {} {} | {}",
        run.result.len(),
        digest(&run.result),
        run.cycles,
        run.stats.halted,
        c.instrs,
        c.flix_bundles,
        c.alu_ops,
        c.mul_ops,
        c.div_ops,
        c.loads_local,
        c.stores_local,
        c.loads_sys,
        c.stores_sys,
        c.bytes_loaded,
        c.bytes_stored,
        c.branches,
        c.branches_taken,
        c.mispredicts,
        c.jumps,
        c.hw_loop_backs,
        c.ext_ops,
        c.ext_op_counts,
        c.stall_load_use,
        c.stall_mem,
        c.stall_control,
        c.stall_ecc,
        f.injected,
        f.corrected,
        f.detected,
        f.escaped,
        run.retries,
    )
}

/// Asserts `run` matches its pinned row; returns the row's key.
fn assert_pinned(key: String, run: &KernelRun) -> String {
    let prefix = format!("{key}: ");
    let pinned = PINS
        .iter()
        .find_map(|row| row.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no pinned row for {key}"));
    assert_eq!(run.cycles, run.stats.cycles, "{key}: cycles mismatch");
    assert_eq!(fingerprint(run), pinned, "{key}: diverged from its pin");
    key
}

fn assert_identical(base: &KernelRun, other: &KernelRun, what: &str) {
    assert_eq!(base.result, other.result, "{what}: result diverged");
    assert_eq!(base.cycles, other.cycles, "{what}: cycle count diverged");
    assert_eq!(base.stats, other.stats, "{what}: RunStats diverged");
    assert_eq!(base.faults, other.faults, "{what}: fault counters diverged");
    assert_eq!(base.retries, other.retries, "{what}: retries diverged");
}

#[test]
fn set_ops_match_the_scalar_reference_and_their_pins() {
    let mut seen = Vec::new();
    for model in ProcModel::all() {
        for seed in SEEDS {
            let a = sorted_set(seed, 1, 400);
            let b = sorted_set(seed, 2, 350);
            for kind in [
                SetOpKind::Intersect,
                SetOpKind::Union,
                SetOpKind::Difference,
            ] {
                let run = run_set_op_with(model, kind, &a, &b, &RunOptions::default()).unwrap();
                let key = format!("{model:?} {} {seed}", kind.name());
                let reference = match kind {
                    SetOpKind::Intersect => dbx_x86ref::scalar::intersect(&a, &b),
                    SetOpKind::Union => dbx_x86ref::scalar::union(&a, &b),
                    SetOpKind::Difference => dbx_x86ref::scalar::difference(&a, &b),
                };
                assert_eq!(run.result, reference, "{key}: wrong result");
                seen.push(assert_pinned(key, &run));
            }
        }
    }
    assert_eq!(
        seen.len(),
        PINS.len() / 4 * 3,
        "every set-op pin is checked"
    );
}

#[test]
fn sort_matches_the_scalar_reference_and_its_pins() {
    let mut seen = Vec::new();
    for model in ProcModel::all() {
        for seed in SEEDS {
            let data = unsorted_data(seed, 256);
            let run = run_sort_with(model, &data, &RunOptions::default()).unwrap();
            let key = format!("{model:?} sort {seed}");
            let mut reference = data.clone();
            dbx_x86ref::scalar::merge_sort(&mut reference);
            assert_eq!(run.result, reference, "{key}: wrong result");
            seen.push(assert_pinned(key, &run));
        }
    }
    assert_eq!(seen.len(), PINS.len() / 4, "every sort pin is checked");
}

/// An attached observer profiles the run precisely; that must change no
/// result, cycle or counter.
#[test]
fn observing_a_run_changes_no_result_or_cycle() {
    let model = ProcModel::Dba2LsuEis { partial: true };
    let a = sorted_set(1337, 1, 400);
    let b = sorted_set(1337, 2, 350);
    let plain =
        run_set_op_with(model, SetOpKind::Intersect, &a, &b, &RunOptions::default()).unwrap();
    let (observer, _sink) = Observer::memory();
    let observed = run_set_op_with(
        model,
        SetOpKind::Intersect,
        &a,
        &b,
        &RunOptions {
            observer,
            ..Default::default()
        },
    )
    .unwrap();
    assert_identical(&plain, &observed, "observer");
    assert!(observed.profile.is_some(), "observed runs carry a profile");
}

/// Sampled profiling changes no result or cycle, and the sampled
/// profile's attributed cycle total lands within one period of the
/// precise profiler's on the same inputs (the mode's documented error
/// bound).
#[test]
fn sampled_profiling_stays_within_one_period_of_precise() {
    let model = ProcModel::Dba2Lsu;
    let a = sorted_set(90210, 1, 400);
    let b = sorted_set(90210, 2, 350);
    let period = 64u64;
    let plain =
        run_set_op_with(model, SetOpKind::Intersect, &a, &b, &RunOptions::default()).unwrap();
    let sampled = run_set_op_with(
        model,
        SetOpKind::Intersect,
        &a,
        &b,
        &RunOptions {
            profile: ProfileMode::Sampled { period },
            ..Default::default()
        },
    )
    .unwrap();
    assert_identical(&plain, &sampled, "sampled profiling");

    let sp = sampled.profile.expect("sampled run carries a profile");
    let precise = run_set_op_with(
        model,
        SetOpKind::Intersect,
        &a,
        &b,
        &RunOptions {
            profile: ProfileMode::Precise,
            ..Default::default()
        },
    )
    .unwrap();
    assert_identical(&plain, &precise, "precise profiling");
    let pp = precise.profile.expect("precise run carries a profile");
    assert!(sp.total_cycles <= pp.total_cycles);
    assert!(
        pp.total_cycles - sp.total_cycles <= period,
        "sampled total {} must be within one period ({period}) of precise total {}",
        sp.total_cycles,
        pp.total_cycles
    );
    // The sampled weight map is sparse but non-empty, and every sampled
    // address is one the precise profiler also saw.
    let sampled_map = sp.weight_map();
    let precise_map = pp.weight_map();
    assert!(!sampled_map.is_empty());
    assert!(sampled_map.len() <= precise_map.len());
    for addr in sampled_map.keys() {
        assert!(
            precise_map.contains_key(addr),
            "sampled address {addr:#x} unknown to the precise profile"
        );
    }
}

/// A fault plan whose events never fire changes no result or cycle.
#[test]
fn a_never_firing_fault_plan_changes_no_result_or_cycle() {
    let model = ProcModel::Dba1LsuEis { partial: false };
    let a = sorted_set(11, 1, 300);
    let b = sorted_set(11, 2, 300);
    let plain = run_set_op_with(model, SetOpKind::Union, &a, &b, &RunOptions::default()).unwrap();
    // Scheduled far beyond the kernel's runtime: armed, never fires.
    let plan = FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), u64::MAX, 0, 0);
    let armed = run_set_op_with(
        model,
        SetOpKind::Union,
        &a,
        &b,
        &RunOptions {
            fault_plan: Some(plan),
            ..Default::default()
        },
    )
    .unwrap();
    assert_identical(&plain, &armed, "armed-but-idle fault plan");
}

/// Parity protection changes no result or cycle. SECDED changes no
/// result either; its only cost is one decoder stall per protected read,
/// so its cycles are the plain cycles plus `stall_ecc`, and every other
/// counter is unchanged.
#[test]
fn local_memory_protection_changes_no_result_or_cycle_beyond_ecc_stalls() {
    for model in [
        ProcModel::Dba1Lsu,
        ProcModel::Dba1LsuEis { partial: false },
        ProcModel::Dba2LsuEis { partial: true },
    ] {
        let a = sorted_set(1337, 1, 300);
        let b = sorted_set(1337, 2, 300);
        let with = |protection| RunOptions {
            protection: Some(protection),
            ..Default::default()
        };
        let plain = run_set_op_with(
            model,
            SetOpKind::Intersect,
            &a,
            &b,
            &with(ProtectionKind::None),
        )
        .unwrap();
        let parity = run_set_op_with(
            model,
            SetOpKind::Intersect,
            &a,
            &b,
            &with(ProtectionKind::Parity),
        )
        .unwrap();
        assert_identical(&plain, &parity, &format!("{model:?} parity"));

        let secded = run_set_op_with(
            model,
            SetOpKind::Intersect,
            &a,
            &b,
            &with(ProtectionKind::Secded),
        )
        .unwrap();
        let stalls = secded.stats.counters.stall_ecc;
        assert!(stalls > 0, "{model:?}: SECDED reads pay decoder stalls");
        assert_eq!(
            plain.result, secded.result,
            "{model:?} secded: result diverged"
        );
        assert_eq!(
            plain.cycles + stalls,
            secded.cycles,
            "{model:?} secded: cycles"
        );
        let mut counters = secded.stats.counters.clone();
        counters.stall_ecc = 0;
        assert_eq!(plain.stats.counters, counters, "{model:?} secded: counters");
    }
}

/// The options a [`Call`] runs under. Built inside the running thread:
/// an observer is not `Send`.
#[derive(Debug, Clone, Copy)]
enum Variant {
    Plain,
    Parity,
    Secded,
    Observed,
    Sampled,
    /// A parity-trapped bit flip, recovered by one retry, and a second
    /// flip scheduled after the trap, which must not outlive the attempt.
    RetryFault,
    /// A watchdog that trips every accelerated attempt, then a degrade.
    Degrade,
    /// A stuck-at bit under SECDED, corrected on every read.
    StuckAt,
    /// A flip scheduled after short runs end; it must not outlive them.
    LatePlan,
}

const VARIANTS: [Variant; 9] = [
    Variant::LatePlan,
    Variant::Plain,
    Variant::Parity,
    Variant::Secded,
    Variant::Observed,
    Variant::Sampled,
    Variant::RetryFault,
    Variant::Degrade,
    Variant::StuckAt,
];

fn options(v: Variant) -> RunOptions {
    let protect = |pk| Some(pk);
    match v {
        Variant::Plain => RunOptions::default(),
        Variant::Parity => RunOptions {
            protection: protect(ProtectionKind::Parity),
            ..Default::default()
        },
        Variant::Secded => RunOptions {
            protection: protect(ProtectionKind::Secded),
            ..Default::default()
        },
        Variant::Observed => RunOptions {
            observer: Observer::memory().0,
            ..Default::default()
        },
        Variant::Sampled => RunOptions {
            profile: ProfileMode::Sampled { period: 32 },
            ..Default::default()
        },
        Variant::RetryFault => RunOptions {
            protection: protect(ProtectionKind::Parity),
            fault_plan: Some(
                FaultPlan::new()
                    .with_bit_flip(FaultTarget::Dmem(0), 0, 3, 5)
                    .with_bit_flip(FaultTarget::Dmem(0), 400, 1, 2),
            ),
            policy: RecoveryPolicy::Retry { max_retries: 2 },
            ..Default::default()
        },
        Variant::Degrade => RunOptions {
            policy: RecoveryPolicy::DegradeToScalar { max_retries: 1 },
            watchdog: Some(10),
            ..Default::default()
        },
        Variant::StuckAt => RunOptions {
            protection: protect(ProtectionKind::Secded),
            fault_plan: Some(FaultPlan::new().with_stuck_at(FaultTarget::Dmem(0), 0, 2, 7, true)),
            ..Default::default()
        },
        Variant::LatePlan => RunOptions {
            fault_plan: Some(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 3000, 1, 3)),
            ..Default::default()
        },
    }
}

/// One runner call, described so it can be replayed on another thread.
#[derive(Debug, Clone)]
struct Call {
    model: ProcModel,
    /// The set operation, or `None` for a sort of `a`.
    kind: Option<SetOpKind>,
    a: Vec<u32>,
    b: Vec<u32>,
    variant: Variant,
}

impl Call {
    fn run(&self) -> Result<KernelRun, dbx_cpu::SimError> {
        let opts = options(self.variant);
        match self.kind {
            Some(kind) => run_set_op_with(self.model, kind, &self.a, &self.b, &opts),
            None => run_sort_with(self.model, &self.a, &opts),
        }
    }

    /// The same call made first on a newly spawned thread, whose
    /// processor pool is empty.
    fn run_fresh(&self) -> Result<KernelRun, dbx_cpu::SimError> {
        let call = self.clone();
        std::thread::spawn(move || call.run())
            .join()
            .expect("fresh-thread run panicked")
    }
}

/// The largest `n` (up to `cap`) with `fits(n)`.
fn largest(cap: u32, fits: impl Fn(u32) -> bool) -> u32 {
    (0..=cap)
        .rev()
        .find(|&n| fits(n))
        .expect("empty inputs fit")
}

fn assert_same_run(fresh: &KernelRun, reused: &KernelRun, what: &str) {
    assert_identical(fresh, reused, what);
    assert_eq!(fresh.degraded, reused.degraded, "{what}: degraded");
    assert_eq!(
        fresh.program_bytes, reused.program_bytes,
        "{what}: program_bytes"
    );
    assert_eq!(
        fresh.recovered_fault, reused.recovered_fault,
        "{what}: recovered fault"
    );
    assert_eq!(fresh.profile, reused.profile, "{what}: profile");
}

/// Every model runs every set operation and a sort at their largest,
/// a small and the empty size, interleaved under rotating protection,
/// fault, observer and profiling options, all on this thread's pooled
/// processors. Each run must be indistinguishable from the same call on
/// a fresh thread.
#[test]
fn a_reused_processor_is_indistinguishable_from_a_fresh_one() {
    let mut calls = Vec::new();
    let mut rotation = VARIANTS.iter().copied().cycle();
    for model in ProcModel::all() {
        // The cached core has no local-store bound; cap it at the size
        // of the largest local store.
        let max_set = largest(2048, |n| set_layout(model, n, n).is_ok());
        let max_sort = largest(2048, |n| sort_layout(model, n).is_ok());
        for (set_len, sort_len) in [(9, 9), (max_set, max_sort), (0, 0)] {
            for kind in [
                Some(SetOpKind::Intersect),
                Some(SetOpKind::Union),
                Some(SetOpKind::Difference),
                None,
            ] {
                let (a, b) = match kind {
                    Some(_) => (
                        sorted_set(7, 1, set_len as usize),
                        sorted_set(7, 2, set_len as usize),
                    ),
                    None => (unsorted_data(7, sort_len as usize), Vec::new()),
                };
                calls.push(Call {
                    model,
                    kind,
                    a,
                    b,
                    variant: rotation.next().unwrap(),
                });
            }
        }
    }
    let mut outcomes = [0usize; 3]; // plain, retried, degraded
    for call in &calls {
        let what = format!(
            "{:?} {:?} |a|={} {:?}",
            call.model,
            call.kind,
            call.a.len(),
            call.variant
        );
        let fresh = call.run_fresh().unwrap_or_else(|e| panic!("{what}: {e}"));
        let reused = call.run().unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_same_run(&fresh, &reused, &what);
        outcomes[usize::from(reused.retries > 0) + usize::from(reused.degraded)] += 1;
    }
    assert!(outcomes[1] > 0, "some call recovered by retrying");
    assert!(outcomes[2] > 0, "some call degraded to the scalar kernel");
}

/// Runs `program` bound to `params` (or unbound) on a fresh processor
/// with `inputs` placed; returns the processor and the run's statistics.
fn run_program(
    model: ProcModel,
    program: Arc<Program>,
    params: Option<&[u32]>,
    inputs: &[(u32, &[u32])],
) -> (Processor, RunStats) {
    let mut p = build_processor(model).unwrap();
    p.load_program_shared(program).unwrap();
    if let Some(params) = params {
        p.bind_params(params).unwrap();
    }
    for &(addr, words) in inputs {
        p.mem.poke_words(addr, words).unwrap();
    }
    let stats = p.run(100_000_000).unwrap();
    (p, stats)
}

/// For each model and kernel, a template built for one layout and bound
/// to another runs exactly like the concrete program built for that
/// layout, and like the runner's own call — results, cycles, counters and
/// program size — from empty to the largest layout. Binding a value of
/// another encoded width is refused.
#[test]
fn a_bound_template_equals_the_concrete_program() {
    for model in ProcModel::all() {
        let max_set = largest(2048, |n| set_layout(model, n, n).is_ok());
        let build = |kind, layout: &SetLayout| match model.wiring() {
            Some(w) => hwset::set_op_program(kind, &w, layout, hwset::DEFAULT_UNROLL),
            None => scalar::set_op_program(kind, layout),
        };
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Union,
            SetOpKind::Difference,
        ] {
            let template = Arc::new(build(kind, &set_layout(model, 100, 60).unwrap()).unwrap());
            for (la, lb) in [(0, 0), (1, 0), (0, 1), (1, 1), (37, 5), (max_set, max_set)] {
                let what = format!("{model:?} {} {la}+{lb}", kind.name());
                let a = sorted_set(3, 1, la as usize);
                let b = sorted_set(3, 2, lb as usize);
                let layout = set_layout(model, la, lb).unwrap();
                let inputs = [(layout.a_base, &a[..]), (layout.b_base, &b[..])];
                let concrete = Arc::new(build(kind, &layout).unwrap());
                let (mut pb, bound) = run_program(
                    model,
                    Arc::clone(&template),
                    Some(&layout.params()),
                    &inputs,
                );
                let (mut pc, conc) = run_program(model, Arc::clone(&concrete), None, &inputs);
                assert_eq!(bound, conc, "{what}: RunStats");
                assert_eq!(template.size_bytes(), concrete.size_bytes(), "{what}");
                let read = |p: &mut Processor| {
                    let n = if model.has_eis() {
                        p.ar[2]
                    } else {
                        (p.ar[6] - layout.c_base) / 4
                    };
                    p.mem.peek_words(layout.c_base, n as usize).unwrap()
                };
                let result = read(&mut pb);
                assert_eq!(result, read(&mut pc), "{what}: result");
                let run = run_set_op_with(model, kind, &a, &b, &RunOptions::default()).unwrap();
                assert_eq!(run.result, result, "{what}: runner result");
                assert_eq!(run.stats, bound, "{what}: runner RunStats");
                assert_eq!(run.program_bytes, concrete.size_bytes(), "{what}");
            }
            let narrow = [0u32; 5];
            let mut p = build_processor(model).unwrap();
            p.load_program_shared(Arc::clone(&template)).unwrap();
            assert!(matches!(
                p.bind_params(&narrow),
                Err(SimError::BadProgram(_))
            ));
            assert!(matches!(
                template.bind(&narrow),
                Err(SimError::BadProgram(_))
            ));
        }

        let exec = sort_model(model);
        let build = |layout: &SortLayout| match exec.wiring() {
            Some(w) => hwsort::merge_sort_program(&w, layout),
            None => scalar::merge_sort_program(layout.src, layout.dst, layout.n),
        };
        let (template, _) = build(&sort_layout(model, 100).unwrap()).unwrap();
        let template = Arc::new(template);
        // The scalar sort declares three of the four sort parameters.
        let n_params = template.param_count();
        let max_sort = largest(2048, |n| sort_layout(model, n).is_ok());
        for len in [1, 4, 37, max_sort] {
            let what = format!("{model:?} sort {len}");
            let data = unsorted_data(5, len as usize);
            let layout = sort_layout(model, len).unwrap();
            let mut padded = data.clone();
            padded.resize(layout.n as usize, u32::MAX);
            let inputs = [(layout.src, &padded[..])];
            let params = &layout.params()[..n_params];
            let (concrete, in_dst) = build(&layout).unwrap();
            let concrete = Arc::new(concrete);
            let (mut pb, bound) = run_program(exec, Arc::clone(&template), Some(params), &inputs);
            let (mut pc, conc) = run_program(exec, Arc::clone(&concrete), None, &inputs);
            assert_eq!(bound, conc, "{what}: RunStats");
            assert_eq!(template.size_bytes(), concrete.size_bytes(), "{what}");
            let base = if in_dst { layout.dst } else { layout.src };
            let mut result = pb.mem.peek_words(base, len as usize).unwrap();
            assert_eq!(result, pc.mem.peek_words(base, len as usize).unwrap());
            let run = run_sort_with(model, &data, &RunOptions::default()).unwrap();
            assert_eq!(run.result, result, "{what}: runner result");
            assert_eq!(run.stats, bound, "{what}: runner RunStats");
            assert_eq!(run.program_bytes, concrete.size_bytes(), "{what}");
            result.sort_unstable();
            assert_eq!(run.result, result, "{what}: sorted");
        }
        // A byte count that needs the wide encoding would grow the program.
        let mut wide = sort_layout(model, 100).unwrap().params()[..n_params].to_vec();
        wide[2] = 1 << 22;
        assert!(matches!(template.bind(&wide), Err(SimError::BadProgram(_))));
    }
}
