//! TIE states of the DB instruction-set extension.
//!
//! Models the internal memories of the paper's Figures 8 and 9: the Load
//! states filled by `LD`, the Word states the `SOP` operates on, the Result
//! states, and the TmpStore/Store FIFO drained by `ST`. Deviation noted in
//! DESIGN.md: our Load states buffer up to two 128-bit beats (eight
//! elements) per set so that `LD_P` can always keep the Word states "fully
//! filled with elements" (Table 1) without bubbles; the paper draws four
//! Load states but asserts the same invariant.

/// Sentinel padding value for invalid lanes. Set elements must be strictly
/// below this; the runner validates inputs.
pub const SENTINEL: u32 = u32::MAX;

/// Default capacity of each per-set Load buffer in elements (two 128-bit
/// beats). A single-beat buffer (4) matches the paper's Figure 8 drawing
/// but bubbles under partial loading — see DESIGN.md and the
/// `ablation/load_buffer` bench.
pub const LOAD_BUF_CAP: usize = 8;
/// Capacity of the store FIFO in elements (TmpStore 3 + Store 4 + result
/// backpressure slack; must absorb one full union emission of 8 on top of
/// an undrained partial beat).
pub const STORE_FIFO_CAP: usize = 12;

/// Slots of the [`ElemFifo`] ring: the smallest power of two that holds
/// the deepest FIFO ([`STORE_FIFO_CAP`]), so a slot index wraps with a mask.
const RING: usize = 16;
const _: () = assert!(STORE_FIFO_CAP <= RING && RING.is_power_of_two());

/// A fixed-width lane vector: `cnt` front-aligned set elements, every lane
/// past `cnt` holding [`SENTINEL`]. `Lanes<4>` is one 128-bit beat;
/// `Lanes<8>` holds the Result states (a union step emits at most eight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes<const N: usize> {
    /// Front-aligned values; invalid lanes hold [`SENTINEL`].
    pub vals: [u32; N],
    /// Valid lane count.
    pub cnt: usize,
}

impl<const N: usize> Default for Lanes<N> {
    fn default() -> Self {
        Lanes {
            vals: [SENTINEL; N],
            cnt: 0,
        }
    }
}

impl<const N: usize> Lanes<N> {
    /// The valid lanes.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.vals[..self.cnt]
    }

    /// True when no lane is valid.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cnt == 0
    }

    /// Appends one value; the caller guarantees a free lane.
    #[inline]
    pub(crate) fn push(&mut self, v: u32) {
        self.vals[self.cnt] = v;
        self.cnt += 1;
    }
}

/// A small ring FIFO of set elements (a Load buffer or the store path).
/// Pushes and takes move only their own lanes; slots outside the live
/// range are never read, so they need no clearing.
#[derive(Debug, Clone)]
pub struct ElemFifo {
    buf: [u32; RING],
    head: usize,
    len: usize,
    cap: usize,
}

impl ElemFifo {
    /// Creates an empty FIFO with the given capacity (<= 12).
    pub fn new(cap: usize) -> Self {
        assert!(cap <= STORE_FIFO_CAP);
        ElemFifo {
            buf: [SENTINEL; RING],
            head: 0,
            len: 0,
            cap,
        }
    }

    /// Number of buffered elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots remaining.
    #[inline]
    pub fn free(&self) -> usize {
        self.cap - self.len
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends elements; panics if capacity would be exceeded (callers
    /// check `free()` first — overflow is a datapath bug, not a data case).
    #[inline]
    pub fn push_slice(&mut self, vals: &[u32]) {
        assert!(vals.len() <= self.free(), "FIFO overflow: structural bug");
        let tail = self.head + self.len;
        for (i, &v) in vals.iter().enumerate() {
            self.buf[(tail + i) & (RING - 1)] = v;
        }
        self.len += vals.len();
    }

    /// Removes up to `n` (at most 4) front elements as one beat: the
    /// removed elements front-aligned, the lanes past them [`SENTINEL`].
    #[inline]
    pub(crate) fn take_beat(&mut self, n: usize) -> Lanes<4> {
        debug_assert!(n <= 4);
        let k = n.min(self.len);
        let head = self.head;
        let vals = std::array::from_fn(|i| {
            if i < k {
                self.buf[(head + i) & (RING - 1)]
            } else {
                SENTINEL
            }
        });
        self.head = (head + k) & (RING - 1);
        self.len -= k;
        Lanes { vals, cnt: k }
    }

    /// Peeks the front element.
    #[inline]
    pub fn front(&self) -> Option<u32> {
        (self.len > 0).then(|| self.buf[self.head])
    }
}

/// A 4-element Word window with validity count and per-lane emitted flags.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Front-aligned values; invalid lanes hold [`SENTINEL`].
    pub vals: [u32; 4],
    /// Valid lane count.
    pub cnt: usize,
    /// "Already emitted" flags (full-window-retirement mode): bit `i` set
    /// when lane `i` was emitted by an earlier `SOP`.
    pub emitted: u8,
}

impl Default for Window {
    fn default() -> Self {
        Window {
            vals: [SENTINEL; 4],
            cnt: 0,
            emitted: 0,
        }
    }
}

impl Window {
    /// Shifts out `consumed` front lanes (with their flags) and refills
    /// from `src` as far as possible.
    #[inline]
    pub fn shift_refill(&mut self, consumed: usize, src: &mut ElemFifo) {
        debug_assert!(consumed <= self.cnt);
        let remain = self.cnt - consumed;
        let got = src.take_beat(4 - remain);
        // The unconsumed lanes, then the refill (sentinel past its count).
        let kept = self.vals;
        self.vals = std::array::from_fn(|i| {
            if i < remain {
                kept[i + consumed]
            } else {
                got.vals[i - remain]
            }
        });
        self.emitted = (self.emitted >> consumed) & ((1u8 << remain) - 1);
        self.cnt = remain + got.cnt;
    }

    /// True when the window holds four valid lanes.
    pub fn is_full(&self) -> bool {
        self.cnt == 4
    }
}

/// All TIE states of the DB extension.
#[derive(Debug, Clone)]
pub struct DbStates {
    /// Load buffer for set A / merge run 0.
    pub load_a: ElemFifo,
    /// Load buffer for set B / merge run 1.
    pub load_b: ElemFifo,
    /// Word window A (also the merge work vector).
    pub word_a: Window,
    /// Word window B.
    pub word_b: Window,
    /// Lanes of A consumed by the last `SOP`, pending `LD_P`.
    pub consumed_a: usize,
    /// Lanes of B consumed by the last `SOP`, pending `LD_P`.
    pub consumed_b: usize,
    /// Result states (up to 8 for union).
    pub result: Lanes<8>,
    /// Store FIFO (TmpStore + Store states).
    pub fifo: ElemFifo,
    /// Copy buffer for the 128-bit copy / presort path.
    pub cpy: ElemFifo,
    /// Read pointer of set A / merge run 0 (byte address, 16-aligned).
    pub ptr_a: u32,
    /// End address of set A.
    pub end_a: u32,
    /// Read pointer of set B / merge run 1.
    pub ptr_b: u32,
    /// End address of set B.
    pub end_b: u32,
    /// Write pointer of the result sequence.
    pub ptr_c: u32,
    /// Elements emitted to memory so far.
    pub out_cnt: u32,
    /// Core-loop completion flag (one input stream fully consumed).
    pub done: bool,
    /// Whether the merge work vector has been primed.
    pub merge_primed: bool,
}

impl Default for DbStates {
    fn default() -> Self {
        Self::with_load_buf_cap(LOAD_BUF_CAP)
    }
}

impl DbStates {
    /// Creates power-on states with a specific Load-buffer depth.
    pub fn with_load_buf_cap(cap: usize) -> Self {
        DbStates {
            load_a: ElemFifo::new(cap),
            load_b: ElemFifo::new(cap),
            word_a: Window::default(),
            word_b: Window::default(),
            consumed_a: 0,
            consumed_b: 0,
            result: Lanes::default(),
            fifo: ElemFifo::new(STORE_FIFO_CAP),
            cpy: ElemFifo::new(LOAD_BUF_CAP),
            ptr_a: 0,
            end_a: 0,
            ptr_b: 0,
            end_b: 0,
            ptr_c: 0,
            out_cnt: 0,
            done: false,
            merge_primed: false,
        }
    }

    /// Power-on reset of every state (the TIE reset values), keeping the
    /// configured Load-buffer depth.
    pub fn reset(&mut self) {
        *self = DbStates::with_load_buf_cap(self.load_a.capacity());
    }

    /// True when stream A can deliver no more elements (pointer exhausted
    /// and load buffer empty).
    pub fn a_supply_exhausted(&self) -> bool {
        self.ptr_a >= self.end_a && self.load_a.is_empty()
    }

    /// True when stream B can deliver no more elements.
    pub fn b_supply_exhausted(&self) -> bool {
        self.ptr_b >= self.end_b && self.load_b.is_empty()
    }

    /// True when window A can take part in a `SOP`: full, or holding the
    /// final tail of the stream.
    pub fn a_window_ready(&self) -> bool {
        self.word_a.is_full() || (self.a_supply_exhausted() && self.word_a.cnt > 0)
    }

    /// True when window B can take part in a `SOP`.
    pub fn b_window_ready(&self) -> bool {
        self.word_b.is_full() || (self.b_supply_exhausted() && self.word_b.cnt > 0)
    }

    /// True when window A is drained and the stream has ended.
    pub fn a_stream_done(&self) -> bool {
        self.a_supply_exhausted() && self.word_a.cnt == 0
    }

    /// True when window B is drained and the stream has ended.
    pub fn b_stream_done(&self) -> bool {
        self.b_supply_exhausted() && self.word_b.cnt == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbx_faults::XorShift64;
    use std::collections::VecDeque;

    #[test]
    fn fifo_push_take_order() {
        let mut f = ElemFifo::new(8);
        f.push_slice(&[1, 2, 3]);
        f.push_slice(&[4]);
        assert_eq!(f.len(), 4);
        assert_eq!(f.take_beat(2).as_slice(), &[1, 2]);
        assert_eq!(f.front(), Some(3));
        let rest = f.take_beat(4);
        assert_eq!(rest.vals, [3, 4, SENTINEL, SENTINEL]);
        assert_eq!(rest.cnt, 2);
        assert!(f.is_empty());
        assert_eq!(f.front(), None);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn fifo_overflow_is_a_bug() {
        let mut f = ElemFifo::new(4);
        f.push_slice(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn fifo_matches_a_vecdeque_model_across_ring_wraparound() {
        // Random pushes (up to 8 lanes, like a Result emission) and takes
        // (up to one beat) against a VecDeque; enough operations that the
        // head wraps the 16-slot ring many times at every capacity.
        let mut rng = XorShift64::new(0x5eed_f1f0);
        for cap in [4, 8, STORE_FIFO_CAP] {
            let mut f = ElemFifo::new(cap);
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut wraps = 0;
            for step in 0..20_000u32 {
                if rng.next_u32() & 1 == 0 {
                    let n = (rng.next_u32() as usize % 9).min(f.free());
                    let vals: Vec<u32> = (0..n as u32).map(|i| step * 16 + i).collect();
                    f.push_slice(&vals);
                    model.extend(&vals);
                } else {
                    let n = rng.next_u32() as usize % 5;
                    let head = f.head;
                    let beat = f.take_beat(n);
                    wraps += usize::from(f.head < head);
                    let expect: Vec<u32> = model.drain(..n.min(model.len())).collect();
                    assert_eq!(beat.as_slice(), expect.as_slice(), "cap {cap} step {step}");
                    assert!(
                        beat.vals[beat.cnt..].iter().all(|&v| v == SENTINEL),
                        "lanes past the count must be sentinel: {beat:?}"
                    );
                }
                assert_eq!(f.len(), model.len());
                assert_eq!(f.free(), cap - model.len());
                assert_eq!(f.front(), model.front().copied());
            }
            assert!(
                wraps > 100,
                "cap {cap}: the ring wrapped only {wraps} times"
            );
        }
    }

    #[test]
    fn window_shift_refill_preserves_order_and_flags() {
        let mut w = Window::default();
        let mut src = ElemFifo::new(8);
        src.push_slice(&[10, 20, 30, 40, 50, 60]);
        w.shift_refill(0, &mut src);
        assert_eq!(w.vals, [10, 20, 30, 40]);
        assert!(w.is_full());
        w.emitted = 0b0110;
        w.shift_refill(2, &mut src);
        assert_eq!(w.vals, [30, 40, 50, 60]);
        assert_eq!(w.emitted, 0b0001, "flags shift with lanes");
        assert!(src.is_empty());
        // Partial refill leaves sentinels.
        w.shift_refill(3, &mut src);
        assert_eq!(w.cnt, 1);
        assert_eq!(w.vals, [60, SENTINEL, SENTINEL, SENTINEL]);
    }

    #[test]
    fn stream_status_predicates() {
        let mut s = DbStates::default();
        assert!(s.a_supply_exhausted());
        assert!(s.a_stream_done());
        s.ptr_a = 0x100;
        s.end_a = 0x200;
        assert!(!s.a_supply_exhausted());
        s.ptr_a = 0x200;
        s.load_a.push_slice(&[1]);
        assert!(
            !s.a_supply_exhausted(),
            "buffered elements still count as supply"
        );
        let _ = s.load_a.take_beat(1);
        assert!(s.a_supply_exhausted());
        s.word_a.vals[0] = 5;
        s.word_a.cnt = 1;
        assert!(s.a_window_ready(), "tail window is ready when supply ended");
        assert!(!s.a_stream_done());
    }
}
