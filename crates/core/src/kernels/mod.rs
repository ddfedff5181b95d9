//! Kernel programs: the database primitives expressed as programs for the
//! simulated processor.
//!
//! * [`scalar`] — the plain C-style algorithms of the paper's Figures 2
//!   and 3, hand-compiled to the base ISA. These run on the `108Mini` and
//!   `DBA_1LSU` baselines.
//! * [`hwset`] — sorted-set intersection/union/difference using the DB
//!   instruction-set extension (the paper's Figure 11 core loop).
//! * [`hwsort`] — merge-sort using the presort and merge instructions
//!   (the paper's Figure 12 core loop).
//!
//! Every builder emits the layout-dependent `MOVI`s of its init block as
//! numbered program parameters ([`dbx_cpu::ProgramBuilder::movi_param`]),
//! in the order of [`SetLayout::params`] / [`SortLayout::params`]. The
//! program a builder returns runs as built, and also serves as a template
//! for any other layout whose values encode at the same widths.

pub mod hwset;
pub mod hwsort;
pub mod scalar;

use dbx_cpu::isa::{ExtOp, Instr, OpArgs};
use dbx_cpu::Reg;

/// Placement of the two input sets and the result sequence in data memory.
///
/// All base addresses must be 16-byte aligned (one 128-bit beat); lengths
/// are in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetLayout {
    /// Base address of set A.
    pub a_base: u32,
    /// Elements in set A.
    pub a_len: u32,
    /// Base address of set B.
    pub b_base: u32,
    /// Elements in set B.
    pub b_len: u32,
    /// Base address of the result sequence.
    pub c_base: u32,
}

impl SetLayout {
    /// One-past-the-end address of set A.
    pub fn a_end(&self) -> u32 {
        self.a_base + 4 * self.a_len
    }

    /// One-past-the-end address of set B.
    pub fn b_end(&self) -> u32 {
        self.b_base + 4 * self.b_len
    }

    /// The set-op kernels' parameter values, in parameter order:
    /// `[a_base, a_end, b_base, b_end, c_base]`.
    pub fn params(&self) -> [u32; 5] {
        [
            self.a_base,
            self.a_end(),
            self.b_base,
            self.b_end(),
            self.c_base,
        ]
    }
}

/// Placement of the sort buffers (ping/pong) in data memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SortLayout {
    /// Base address of the input buffer.
    pub src: u32,
    /// Base address of the scratch buffer (same size).
    pub dst: u32,
    /// Elements to sort (must be a positive multiple of 4).
    pub n: u32,
}

impl SortLayout {
    /// The sort kernels' parameter values, in parameter order:
    /// `[src, dst, 4n (bytes), n/4 (presort blocks)]`. The scalar kernel
    /// has no presort pass and takes the first three.
    pub fn params(&self) -> [u32; 4] {
        [self.src, self.dst, 4 * self.n, self.n / 4]
    }
}

/// An extension op with no register operands.
pub(crate) fn e(op: u16) -> Instr {
    Instr::Ext(ExtOp {
        op,
        args: OpArgs::default(),
    })
}

/// An extension op writing to address register `r`.
pub(crate) fn e_r(op: u16, r: Reg) -> Instr {
    Instr::Ext(ExtOp {
        op,
        args: OpArgs {
            r: r.0,
            s: 0,
            imm: 0,
        },
    })
}

/// An extension op reading address register `s`.
pub(crate) fn e_s(op: u16, s: Reg) -> Instr {
    Instr::Ext(ExtOp {
        op,
        args: OpArgs {
            r: 0,
            s: s.0,
            imm: 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_end_addresses() {
        let l = SetLayout {
            a_base: 0x100,
            a_len: 4,
            b_base: 0x200,
            b_len: 8,
            c_base: 0x300,
        };
        assert_eq!(l.a_end(), 0x110);
        assert_eq!(l.b_end(), 0x220);
    }
}
