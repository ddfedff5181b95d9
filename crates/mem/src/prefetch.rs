//! The data prefetcher: DMA controller + programmable finite state machine.
//!
//! Section 3.2 of the paper: *"The data prefetcher is included to perform
//! data transfers over the on-chip interconnection network. It contains a
//! direct-memory access controller (DMAC) and a programmable finite state
//! machine (FSM). [...] The data transfers of the data prefetcher and
//! processor execution are performed concurrently. [...] The data prefetcher
//! uses furthermore burst transfers, typically in the order of several KB."*
//!
//! The [`Dmac`] advances one interconnect *beat* (128 bits) per cycle while a
//! transfer is active, after a fixed burst-setup cost. It talks to the
//! second port of dual-port [`LocalMemory`] instances, so core execution on
//! port A continues unhindered — this is exactly the double-buffering
//! arrangement the paper uses to claim constant throughput for data sets
//! larger than the local store.

use crate::local::{AccessPort, LocalMemory};
use crate::sysmem::SystemMemory;
use crate::{MemError, Width};

/// Direction of a DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// System memory → local memory (prefetch).
    SysToLocal,
    /// Local memory → system memory (write-back of results).
    LocalToSys,
}

/// One DMA transfer: `len_bytes` from `src` to `dst`, moved in bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferDescriptor {
    /// Source start address.
    pub src: u32,
    /// Destination start address.
    pub dst: u32,
    /// Total bytes to move. Must be a multiple of 16 (one beat).
    pub len_bytes: u32,
    /// Burst length in bytes; each burst pays the bus setup cost once.
    /// Must be a multiple of 16.
    pub burst_bytes: u32,
    /// Transfer direction.
    pub dir: Direction,
}

impl TransferDescriptor {
    fn validate(&self) -> Result<(), MemError> {
        if self.len_bytes == 0 {
            return Err(MemError::BadDescriptor {
                reason: "zero-length transfer",
            });
        }
        if !self.len_bytes.is_multiple_of(16)
            || !self.src.is_multiple_of(16)
            || !self.dst.is_multiple_of(16)
        {
            return Err(MemError::BadDescriptor {
                reason: "transfer not 128-bit aligned",
            });
        }
        if self.burst_bytes == 0 || !self.burst_bytes.is_multiple_of(16) {
            return Err(MemError::BadDescriptor {
                reason: "burst length not a beat multiple",
            });
        }
        Ok(())
    }
}

/// Timing parameters of the on-chip interconnect / off-chip memory path.
#[derive(Debug, Clone, Copy)]
pub struct BurstBus {
    /// Cycles to set up each burst (arbitration + row activation).
    pub setup_cycles: u32,
    /// Beats (16 bytes each) transferred per cycle once streaming.
    pub beats_per_cycle: u32,
}

impl Default for BurstBus {
    fn default() -> Self {
        // A burst of 4 KiB at 1 beat/cycle amortises the setup to <2 %.
        BurstBus {
            setup_cycles: 40,
            beats_per_cycle: 1,
        }
    }
}

/// One step of the prefetcher's programmable FSM.
///
/// The FSM is deliberately tiny: the paper states it is programmed "either
/// by the processor itself or by another entity in the system" and exists to
/// sequence DMA transfers and synchronise with the core via flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmStep {
    /// Start the transfer in descriptor slot `desc` and wait for completion.
    Transfer {
        /// Descriptor slot index.
        desc: usize,
    },
    /// Busy-wait until flag `flag` equals `value`. Flags are the
    /// core↔prefetcher synchronisation mechanism (mailbox registers).
    WaitFlag {
        /// Flag index (0..8).
        flag: usize,
        /// Value to wait for.
        value: bool,
    },
    /// Set flag `flag` to `value` and continue.
    SetFlag {
        /// Flag index (0..8).
        flag: usize,
        /// Value to set.
        value: bool,
    },
    /// Add byte offsets to a descriptor's source and destination. Used to
    /// implement ping-pong double buffering without reprogramming.
    Advance {
        /// Descriptor slot index.
        desc: usize,
        /// Added to the descriptor's `src`.
        src_delta: i32,
        /// Added to the descriptor's `dst`.
        dst_delta: i32,
    },
    /// Unconditional jump to another step.
    Goto {
        /// Target step index.
        step: usize,
    },
    /// Conditional jump: decrement the loop counter; jump while non-zero.
    LoopNz {
        /// Target step index.
        step: usize,
    },
    /// Load the loop counter.
    SetCounter {
        /// New counter value.
        value: u32,
    },
    /// Stop the FSM.
    Halt,
}

/// A compiled FSM program plus its descriptor table.
#[derive(Debug, Clone, Default)]
pub struct DmacProgram {
    /// FSM steps, executed from index 0.
    pub steps: Vec<FsmStep>,
    /// Descriptor slots referenced by [`FsmStep::Transfer`].
    pub descriptors: Vec<TransferDescriptor>,
}

/// Execution state of the DMAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmacState {
    /// No program loaded or program finished.
    Idle,
    /// Executing FSM steps.
    Running,
    /// Mid-transfer.
    Transferring {
        /// Active descriptor slot.
        desc: usize,
    },
    /// Program hit `Halt`.
    Halted,
}

/// The DMA controller with its programmable FSM.
#[derive(Debug, Clone)]
pub struct Dmac {
    program: DmacProgram,
    bus: BurstBus,
    state: DmacState,
    pc: usize,
    counter: u32,
    /// Synchronisation flags shared with the core.
    pub flags: [bool; 8],
    // Active transfer progress.
    moved: u32,
    setup_remaining: u32,
    burst_remaining: u32,
    /// Lifetime statistics: total bytes moved.
    pub bytes_moved: u64,
    /// Lifetime statistics: cycles spent with an active transfer.
    pub busy_cycles: u64,
    /// Lifetime statistics: completed transfers.
    pub transfers_done: u64,
    /// Lifetime statistics: transfers that completed with a dropped burst.
    pub transfers_failed: u64,
    // Fault injection: drop the next burst of the active/next transfer.
    drop_next_burst: bool,
    // The in-flight transfer lost a burst; fail it at completion.
    faulted: bool,
}

impl Dmac {
    /// Creates an idle DMAC on the given bus.
    pub fn new(bus: BurstBus) -> Self {
        Dmac {
            program: DmacProgram::default(),
            bus,
            state: DmacState::Idle,
            pc: 0,
            counter: 0,
            flags: [false; 8],
            moved: 0,
            setup_remaining: 0,
            burst_remaining: 0,
            bytes_moved: 0,
            busy_cycles: 0,
            transfers_done: 0,
            transfers_failed: 0,
            drop_next_burst: false,
            faulted: false,
        }
    }

    /// Returns the DMAC to its freshly built state on the same bus: idle,
    /// no program, cleared flags, statistics and pending fault injection.
    pub fn reset(&mut self) {
        *self = Dmac::new(self.bus);
    }

    /// Fault injection: the next burst the DMAC would move (of the active
    /// or next transfer) is silently skipped — modelling a lost bus grant.
    /// The affected transfer raises [`MemError::TransferFault`] when it
    /// completes, so the core sees a precise DMA machine fault rather than
    /// quietly consuming a buffer with a hole in it.
    pub fn inject_dropped_burst(&mut self) {
        self.drop_next_burst = true;
    }

    /// Loads a program and starts executing it from step 0.
    pub fn load_program(&mut self, program: DmacProgram) -> Result<(), MemError> {
        for d in &program.descriptors {
            d.validate()?;
        }
        self.program = program;
        self.pc = 0;
        self.state = if self.program.steps.is_empty() {
            DmacState::Idle
        } else {
            DmacState::Running
        };
        Ok(())
    }

    /// Current execution state.
    pub fn state(&self) -> DmacState {
        self.state
    }

    /// True when the FSM has halted or was never started.
    #[inline]
    pub fn is_idle(&self) -> bool {
        matches!(self.state, DmacState::Idle | DmacState::Halted)
    }

    fn begin_transfer(&mut self, desc: usize) {
        self.state = DmacState::Transferring { desc };
        self.moved = 0;
        self.setup_remaining = self.bus.setup_cycles;
        self.burst_remaining = 0;
    }

    /// Advances the prefetcher by one cycle, possibly moving one or more
    /// beats between `sys` and a local memory found in `locals`.
    ///
    /// Local memories are addressed through their *prefetcher* port, so a
    /// transfer into a single-port memory is a structural error.
    pub fn tick(
        &mut self,
        sys: &mut SystemMemory,
        locals: &mut [&mut LocalMemory],
    ) -> Result<(), MemError> {
        match self.state {
            DmacState::Idle | DmacState::Halted => Ok(()),
            DmacState::Running => {
                // Control steps are free until the next Transfer/Wait —
                // the FSM is combinational relative to the 1-cycle grain.
                let mut guard = 0;
                loop {
                    guard += 1;
                    if guard > 64 {
                        // A pathological all-control loop still consumes the
                        // cycle rather than hanging the simulator.
                        return Ok(());
                    }
                    if self.pc >= self.program.steps.len() {
                        self.state = DmacState::Halted;
                        return Ok(());
                    }
                    match self.program.steps[self.pc] {
                        FsmStep::Transfer { desc } => {
                            self.pc += 1;
                            self.begin_transfer(desc);
                            return Ok(());
                        }
                        FsmStep::WaitFlag { flag, value } => {
                            if self.flags[flag] == value {
                                self.pc += 1;
                                continue;
                            }
                            return Ok(()); // stall this cycle
                        }
                        FsmStep::SetFlag { flag, value } => {
                            self.flags[flag] = value;
                            self.pc += 1;
                        }
                        FsmStep::Advance {
                            desc,
                            src_delta,
                            dst_delta,
                        } => {
                            let d = &mut self.program.descriptors[desc];
                            d.src = d.src.wrapping_add(src_delta as u32);
                            d.dst = d.dst.wrapping_add(dst_delta as u32);
                            self.pc += 1;
                        }
                        FsmStep::Goto { step } => self.pc = step,
                        FsmStep::LoopNz { step } => {
                            self.counter = self.counter.saturating_sub(1);
                            if self.counter > 0 {
                                self.pc = step;
                            } else {
                                self.pc += 1;
                            }
                        }
                        FsmStep::SetCounter { value } => {
                            self.counter = value;
                            self.pc += 1;
                        }
                        FsmStep::Halt => {
                            self.state = DmacState::Halted;
                            return Ok(());
                        }
                    }
                }
            }
            DmacState::Transferring { desc } => {
                self.busy_cycles += 1;
                if self.setup_remaining > 0 {
                    self.setup_remaining -= 1;
                    return Ok(());
                }
                let d = self.program.descriptors[desc];
                for _ in 0..self.bus.beats_per_cycle {
                    if self.moved >= d.len_bytes {
                        break;
                    }
                    if self.burst_remaining == 0 {
                        // Start of a new burst within the transfer.
                        self.burst_remaining = d.burst_bytes.min(d.len_bytes - self.moved);
                        if self.drop_next_burst {
                            // Injected fault: the whole burst vanishes.
                            self.drop_next_burst = false;
                            self.faulted = true;
                            self.moved += self.burst_remaining;
                            self.burst_remaining = 0;
                            break;
                        }
                        if self.moved > 0 {
                            // Pay setup again for each subsequent burst.
                            self.setup_remaining = self.bus.setup_cycles;
                            return Ok(());
                        }
                    }
                    let src = d.src + self.moved;
                    let dst = d.dst + self.moved;
                    match d.dir {
                        Direction::SysToLocal => {
                            let v = sys.read(src, Width::W128)?;
                            let lm = find_local(locals, dst)?;
                            lm.write(AccessPort::Prefetcher, dst, Width::W128, v)?;
                        }
                        Direction::LocalToSys => {
                            let lm = find_local(locals, src)?;
                            let v = lm.read(AccessPort::Prefetcher, src, Width::W128)?;
                            sys.write(dst, Width::W128, v)?;
                        }
                    }
                    self.moved += 16;
                    self.burst_remaining -= 16;
                    self.bytes_moved += 16;
                }
                if self.moved >= d.len_bytes {
                    self.state = DmacState::Running;
                    if self.faulted {
                        self.faulted = false;
                        self.transfers_failed += 1;
                        return Err(MemError::TransferFault {
                            src: d.src,
                            dst: d.dst,
                        });
                    }
                    self.transfers_done += 1;
                }
                Ok(())
            }
        }
    }

    /// Runs the DMAC until it halts or `max_cycles` elapse; returns cycles
    /// consumed. Convenience for tests and standalone transfers.
    pub fn run_to_idle(
        &mut self,
        sys: &mut SystemMemory,
        locals: &mut [&mut LocalMemory],
        max_cycles: u64,
    ) -> Result<u64, MemError> {
        let mut cycles = 0;
        while !self.is_idle() && cycles < max_cycles {
            for lm in locals.iter_mut() {
                lm.begin_cycle();
            }
            self.tick(sys, locals)?;
            cycles += 1;
        }
        Ok(cycles)
    }
}

fn find_local<'a>(
    locals: &'a mut [&mut LocalMemory],
    addr: u32,
) -> Result<&'a mut LocalMemory, MemError> {
    for lm in locals.iter_mut() {
        if lm.contains(addr, 16) {
            return Ok(lm);
        }
    }
    Err(MemError::Unmapped { addr })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_shot(len: u32, burst: u32) -> DmacProgram {
        DmacProgram {
            steps: vec![
                FsmStep::Transfer { desc: 0 },
                FsmStep::SetFlag {
                    flag: 0,
                    value: true,
                },
                FsmStep::Halt,
            ],
            descriptors: vec![TransferDescriptor {
                src: 0x8000_0000,
                dst: 0x6000_0000,
                len_bytes: len,
                burst_bytes: burst,
                dir: Direction::SysToLocal,
            }],
        }
    }

    #[test]
    fn simple_prefetch_moves_data() {
        let mut sys = SystemMemory::new();
        let words: Vec<u32> = (0..64).collect();
        sys.load_words(0x8000_0000, &words).unwrap();
        let mut lm = LocalMemory::new_dual_port("dmem0", 0x6000_0000, 4096);
        let mut dmac = Dmac::new(BurstBus::default());
        dmac.load_program(one_shot(256, 256)).unwrap();
        dmac.run_to_idle(&mut sys, &mut [&mut lm], 10_000).unwrap();
        assert!(dmac.flags[0]);
        assert_eq!(lm.read_words(0x6000_0000, 64).unwrap(), words);
        assert_eq!(dmac.bytes_moved, 256);
    }

    #[test]
    fn burst_setup_cost_is_paid_per_burst() {
        let mut sys = SystemMemory::new();
        sys.load_words(0x8000_0000, &vec![1u32; 256]).unwrap();
        let mut lm = LocalMemory::new_dual_port("dmem0", 0x6000_0000, 4096);

        // One 1024-byte burst vs eight 128-byte bursts.
        let mut d1 = Dmac::new(BurstBus {
            setup_cycles: 40,
            beats_per_cycle: 1,
        });
        d1.load_program(one_shot(1024, 1024)).unwrap();
        let c1 = d1.run_to_idle(&mut sys, &mut [&mut lm], 100_000).unwrap();

        let mut d8 = Dmac::new(BurstBus {
            setup_cycles: 40,
            beats_per_cycle: 1,
        });
        d8.load_program(one_shot(1024, 128)).unwrap();
        let c8 = d8.run_to_idle(&mut sys, &mut [&mut lm], 100_000).unwrap();

        assert!(c8 > c1 + 6 * 40, "c1={c1} c8={c8}");
    }

    #[test]
    fn writeback_direction_works() {
        let mut sys = SystemMemory::new();
        let mut lm = LocalMemory::new_dual_port("dmem1", 0x6800_0000, 4096);
        lm.load_words(0x6800_0000, &[9, 8, 7, 6]).unwrap();
        let mut dmac = Dmac::new(BurstBus::default());
        dmac.load_program(DmacProgram {
            steps: vec![FsmStep::Transfer { desc: 0 }, FsmStep::Halt],
            descriptors: vec![TransferDescriptor {
                src: 0x6800_0000,
                dst: 0x8000_1000,
                len_bytes: 16,
                burst_bytes: 16,
                dir: Direction::LocalToSys,
            }],
        })
        .unwrap();
        dmac.run_to_idle(&mut sys, &mut [&mut lm], 10_000).unwrap();
        assert_eq!(sys.read_words(0x8000_1000, 4).unwrap(), vec![9, 8, 7, 6]);
    }

    #[test]
    fn wait_flag_blocks_until_core_signals() {
        let mut sys = SystemMemory::new();
        let mut lm = LocalMemory::new_dual_port("dmem0", 0x6000_0000, 4096);
        let mut dmac = Dmac::new(BurstBus::default());
        dmac.load_program(DmacProgram {
            steps: vec![
                FsmStep::WaitFlag {
                    flag: 1,
                    value: true,
                },
                FsmStep::Transfer { desc: 0 },
                FsmStep::Halt,
            ],
            descriptors: vec![TransferDescriptor {
                src: 0x8000_0000,
                dst: 0x6000_0000,
                len_bytes: 16,
                burst_bytes: 16,
                dir: Direction::SysToLocal,
            }],
        })
        .unwrap();
        for _ in 0..100 {
            lm.begin_cycle();
            dmac.tick(&mut sys, &mut [&mut lm]).unwrap();
        }
        assert_eq!(
            dmac.bytes_moved, 0,
            "must not transfer before the flag is raised"
        );
        dmac.flags[1] = true;
        dmac.run_to_idle(&mut sys, &mut [&mut lm], 10_000).unwrap();
        assert_eq!(dmac.bytes_moved, 16);
    }

    #[test]
    fn loop_counter_repeats_transfers_with_advance() {
        let mut sys = SystemMemory::new();
        let words: Vec<u32> = (0..32).collect();
        sys.load_words(0x8000_0000, &words).unwrap();
        let mut lm = LocalMemory::new_dual_port("dmem0", 0x6000_0000, 4096);
        let mut dmac = Dmac::new(BurstBus::default());
        // Copy 4 chunks of 32 bytes each, advancing both pointers.
        dmac.load_program(DmacProgram {
            steps: vec![
                FsmStep::SetCounter { value: 4 },
                FsmStep::Transfer { desc: 0 },
                FsmStep::Advance {
                    desc: 0,
                    src_delta: 32,
                    dst_delta: 32,
                },
                FsmStep::LoopNz { step: 1 },
                FsmStep::Halt,
            ],
            descriptors: vec![TransferDescriptor {
                src: 0x8000_0000,
                dst: 0x6000_0000,
                len_bytes: 32,
                burst_bytes: 32,
                dir: Direction::SysToLocal,
            }],
        })
        .unwrap();
        dmac.run_to_idle(&mut sys, &mut [&mut lm], 100_000).unwrap();
        assert_eq!(lm.read_words(0x6000_0000, 32).unwrap(), words);
        assert_eq!(dmac.transfers_done, 4);
    }

    #[test]
    fn single_port_memory_rejects_prefetcher() {
        let mut sys = SystemMemory::new();
        let mut lm = LocalMemory::new("dmem0", 0x6000_0000, 4096); // single-port
        let mut dmac = Dmac::new(BurstBus {
            setup_cycles: 0,
            beats_per_cycle: 1,
        });
        dmac.load_program(one_shot(16, 16)).unwrap();
        let mut err = None;
        for _ in 0..10 {
            lm.begin_cycle();
            if let Err(e) = dmac.tick(&mut sys, &mut [&mut lm]) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(MemError::PortConflict { .. })));
    }

    #[test]
    fn dropped_burst_fails_the_transfer_precisely() {
        let mut sys = SystemMemory::new();
        let words: Vec<u32> = (0..256).collect();
        sys.load_words(0x8000_0000, &words).unwrap();
        let mut lm = LocalMemory::new_dual_port("dmem0", 0x6000_0000, 4096);
        let mut dmac = Dmac::new(BurstBus {
            setup_cycles: 2,
            beats_per_cycle: 1,
        });
        dmac.load_program(one_shot(1024, 128)).unwrap();
        dmac.inject_dropped_burst();
        let e = dmac
            .run_to_idle(&mut sys, &mut [&mut lm], 100_000)
            .unwrap_err();
        assert!(matches!(
            e,
            MemError::TransferFault {
                src: 0x8000_0000,
                dst: 0x6000_0000
            }
        ));
        assert_eq!(dmac.transfers_failed, 1);
        assert_eq!(dmac.transfers_done, 0);
        // The first burst (128 bytes = 32 words) never arrived.
        assert_ne!(lm.read_words(0x6000_0000, 32).unwrap(), words[..32]);
        // Retrying the same program cleanly succeeds — the fault is
        // transient.
        dmac.load_program(one_shot(1024, 128)).unwrap();
        dmac.run_to_idle(&mut sys, &mut [&mut lm], 100_000).unwrap();
        assert_eq!(lm.read_words(0x6000_0000, 256).unwrap(), words);
        assert_eq!(dmac.transfers_done, 1);
    }

    #[test]
    fn bad_descriptors_rejected_at_load() {
        let mut dmac = Dmac::new(BurstBus::default());
        let mut p = one_shot(16, 16);
        p.descriptors[0].len_bytes = 0;
        assert!(matches!(
            dmac.load_program(p),
            Err(MemError::BadDescriptor { .. })
        ));
        let mut p = one_shot(16, 16);
        p.descriptors[0].src = 3;
        assert!(matches!(
            dmac.load_program(p),
            Err(MemError::BadDescriptor { .. })
        ));
    }
}
