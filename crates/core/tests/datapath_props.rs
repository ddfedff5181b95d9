//! Property tests of the SOP datapath invariants — the circuit-level
//! contracts every emission/retirement decision must satisfy for
//! arbitrary strictly-increasing windows.

use dbx_core::datapath::{merge8, sop, sort4, SetOpKind};
use dbx_core::states::Window;
use proptest::collection::btree_set;
use proptest::prelude::*;

/// A window: 1..=4 strictly increasing values padded with the sentinel.
fn window_strategy() -> impl Strategy<Value = ([u32; 4], usize)> {
    btree_set(0u32..100, 1..=4usize).prop_map(|s| {
        let mut w = [u32::MAX; 4];
        let v = s.len();
        for (i, x) in s.into_iter().enumerate() {
            w[i] = x;
        }
        (w, v)
    })
}

/// Per-lane emitted flags as a window's bitmask.
fn flags_strategy() -> impl Strategy<Value = u8> {
    0u8..16
}

fn win(vals: [u32; 4], cnt: usize, emitted: u8) -> Window {
    Window { vals, cnt, emitted }
}

fn kinds() -> [SetOpKind; 3] {
    [
        SetOpKind::Intersect,
        SetOpKind::Union,
        SetOpKind::Difference,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn sop_invariants_hold(
        (wa, va) in window_strategy(),
        (wb, vb) in window_strategy(),
        ea in flags_strategy(),
        eb in flags_strategy(),
        partial in any::<bool>(),
    ) {
        for kind in kinds() {
            let out = sop(kind, &win(wa, va, ea), &win(wb, vb, eb), partial);
            let emit = out.emit.as_slice();

            // (1) Consumption bounds and progress.
            prop_assert!(out.consume_a <= va);
            prop_assert!(out.consume_b <= vb);
            prop_assert!(
                out.consume_a == va || out.consume_b == vb,
                "at least one window must retire fully: {:?}", out
            );

            // (2) Emission is strictly increasing (sorted, duplicate-free).
            prop_assert!(
                emit.windows(2).all(|w| w[0] < w[1]),
                "{kind:?}: emit not strictly increasing: {:?}", emit
            );

            // (3) Emission membership.
            let in_a = |x: u32| wa[..va].contains(&x);
            let in_b = |x: u32| wb[..vb].contains(&x);
            for &x in emit {
                match kind {
                    SetOpKind::Intersect => prop_assert!(in_a(x) && in_b(x)),
                    SetOpKind::Difference => prop_assert!(in_a(x) && !in_b(x)),
                    SetOpKind::Union => prop_assert!(in_a(x) || in_b(x)),
                }
            }

            // (4) Emitted flags are monotone (never cleared).
            prop_assert_eq!(out.emitted_a & ea, ea, "flag of A cleared");
            prop_assert_eq!(out.emitted_b & eb, eb, "flag of B cleared");

            // (5) Nothing beyond the boundary is emitted.
            let boundary = wa[va - 1].min(wb[vb - 1]);
            prop_assert!(emit.iter().all(|&x| x <= boundary));

            // (6) Previously-emitted lanes are not re-emitted.
            for (i, &x) in wa[..va].iter().enumerate() {
                if ea >> i & 1 != 0 {
                    // A-lane flagged: only a union emission sourced from B
                    // may carry the same value; the value itself must then
                    // be a fresh B lane.
                    if emit.contains(&x) {
                        let j = wb[..vb].iter().position(|&y| y == x);
                        prop_assert!(
                            matches!((kind, j), (SetOpKind::Union, Some(j)) if eb >> j & 1 == 0),
                            "{kind:?} re-emitted flagged value {}", x
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nonpartial_retires_exactly_one_window_unless_maxes_tie(
        (wa, va) in window_strategy(),
        (wb, vb) in window_strategy(),
    ) {
        let out = sop(SetOpKind::Intersect, &win(wa, va, 0), &win(wb, vb, 0), false);
        let amax = wa[va - 1];
        let bmax = wb[vb - 1];
        if amax == bmax {
            prop_assert_eq!((out.consume_a, out.consume_b), (va, vb));
        } else if amax < bmax {
            prop_assert_eq!((out.consume_a, out.consume_b), (va, 0));
        } else {
            prop_assert_eq!((out.consume_a, out.consume_b), (0, vb));
        }
    }

    #[test]
    fn partial_consumption_is_boundary_exact(
        (wa, va) in window_strategy(),
        (wb, vb) in window_strategy(),
    ) {
        let out = sop(SetOpKind::Union, &win(wa, va, 0), &win(wb, vb, 0), true);
        let amax = wa[va - 1];
        let bmax = wb[vb - 1];
        prop_assert_eq!(out.consume_a, wa[..va].iter().filter(|&&x| x <= bmax).count());
        prop_assert_eq!(out.consume_b, wb[..vb].iter().filter(|&&x| x <= amax).count());
    }

    #[test]
    fn sort4_network_matches_std(v in proptest::array::uniform4(any::<u32>())) {
        let got = sort4(v);
        let mut expect = v;
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn merge8_network_matches_std(
        mut a in proptest::array::uniform4(any::<u32>()),
        mut b in proptest::array::uniform4(any::<u32>()),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        let got = merge8(a, b);
        let mut expect: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(got.to_vec(), expect);
        prop_assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }
}
