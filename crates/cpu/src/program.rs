//! Program representation and the label-resolving program builder.
//!
//! A [`Program`] is a laid-out sequence of decoded instructions with byte
//! addresses starting at a base address — [`IMEM_BASE`] unless the builder
//! placed it elsewhere in instruction memory with
//! [`ProgramBuilder::with_base`]. The simulator fetches decoded
//! instructions directly (a decode cache, in hardware terms); the binary
//! image produced by [`crate::encode`] is what occupies instruction memory
//! and what the assembler/disassembler operate on.
//!
//! [`ProgramBuilder::build`] also pre-decodes every instruction once: its
//! load-use source mask, its fall-through PC, and for extension ops and
//! FLIX bundles the extension group and base-slot `ADDI`s. The simulator
//! fetches that decode with the instruction, so per-step work depends
//! only on machine state, and every processor sharing an `Arc<Program>`
//! shares the decode.
//!
//! Every address a program reports — [`Program::addr_of`], labels,
//! diagnostics from the static analyzer — is an absolute byte PC. The only
//! `(pc - base) / 4` arithmetic lives here, in the fetch slot table,
//! parameterized on the [`Program::entry`] value.

use crate::error::SimError;
use crate::isa::{BranchCond, ExtOp, Instr, LsWidth, OpArgs, Reg};
use std::collections::HashMap;

/// Base address of instruction memory.
pub const IMEM_BASE: u32 = 0x4000_0000;
/// Base address of the first local data memory (LSU0).
pub const DMEM0_BASE: u32 = 0x6000_0000;
/// Base address of the second local data memory (LSU1).
pub const DMEM1_BASE: u32 = 0x6800_0000;
/// Base address of off-chip system memory.
pub const SYSMEM_BASE: u32 = 0x8000_0000;

/// Sentinel in [`Program`]'s slot table for word slots that are not an
/// instruction boundary. A program can never have 2^32 - 1 instructions
/// (the instruction memory is orders of magnitude smaller), so the value
/// is unambiguous.
const NO_SLOT: u32 = u32::MAX;

/// The build-time decode of one instruction: everything a step needs
/// that depends only on the program. Fixed-size (a bundle has at most
/// three slots), so decoding a whole program allocates once.
#[derive(Debug, Clone)]
pub(crate) struct Decoded {
    /// Static fall-through address (`pc + size`).
    pub fall_through: u32,
    /// The load-use interlock's operand set ([`Instr::src_mask`]).
    pub src_mask: u16,
    n_ext: u8,
    n_addis: u8,
    ext: [(u16, OpArgs); 3],
    addis: [(Reg, Reg, i16); 3],
}

impl Decoded {
    /// Decodes `instr` laid out at `pc`. Bundle slots are already known to
    /// be slot eligible (see [`ProgramBuilder::build`]), so the split into
    /// extension ops, `NOP`s and `ADDI`s is total.
    fn new(instr: &Instr, pc: u32) -> Decoded {
        let mut d = Decoded {
            fall_through: pc + instr.size(),
            src_mask: instr.src_mask(),
            n_ext: 0,
            n_addis: 0,
            ext: [(0, OpArgs::default()); 3],
            addis: [(Reg(0), Reg(0), 0); 3],
        };
        let slots = match instr {
            Instr::Ext(_) => std::slice::from_ref(instr),
            Instr::Flix(slots) => slots,
            _ => &[],
        };
        for slot in slots.iter() {
            match *slot {
                Instr::Ext(e) => {
                    d.ext[d.n_ext as usize] = (e.op, e.args);
                    d.n_ext += 1;
                }
                Instr::Addi { r, s, imm } => {
                    d.addis[d.n_addis as usize] = (r, s, imm);
                    d.n_addis += 1;
                }
                _ => {}
            }
        }
        d
    }

    /// `(opcode, args)` of the extension group the step issues, in slot
    /// order: the op itself for a standalone `Ext`, the extension slots of
    /// a FLIX bundle, empty otherwise.
    #[inline]
    pub fn ext_ops(&self) -> &[(u16, OpArgs)] {
        &self.ext[..self.n_ext as usize]
    }

    /// `(dest, src, imm)` of each base-slot `ADDI` of a FLIX bundle, in
    /// slot order.
    #[inline]
    pub fn addis(&self) -> &[(Reg, Reg, i16)] {
        &self.addis[..self.n_addis as usize]
    }
}

/// A finished program: instructions with resolved absolute addresses.
#[derive(Debug, Clone)]
pub struct Program {
    /// Instructions in layout order.
    code: Vec<Instr>,
    /// Build-time decode of each instruction (parallel to `code`).
    decoded: Vec<Decoded>,
    /// Byte address of each instruction (parallel to `code`).
    addrs: Vec<u32>,
    /// Instruction index for each word slot (`(addr - base) / 4`);
    /// [`NO_SLOT`] marks slots that are not an instruction boundary (the
    /// second word of a wide instruction). A dense sentinel table instead
    /// of `Vec<Option<u32>>`: half the footprint, and `fetch` tests one
    /// integer instead of matching two nested discriminants.
    slot_index: Vec<u32>,
    /// Label name → byte address.
    labels: HashMap<String, u32>,
    /// Total encoded size in bytes.
    size: u32,
    /// Base byte address of the first instruction.
    base: u32,
}

impl Program {
    /// Entry point (address of the first instruction).
    pub fn entry(&self) -> u32 {
        self.base
    }

    /// Total encoded size in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.size
    }

    /// Number of instructions (bundles count once).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Fetches the instruction at `pc`.
    #[inline]
    pub fn fetch(&self, pc: u32) -> Result<&Instr, SimError> {
        self.index_of(pc).map(|ix| &self.code[ix])
    }

    /// Fetches the instruction at `pc` together with its build-time decode.
    #[inline]
    pub(crate) fn fetch_decoded(&self, pc: u32) -> Result<(&Instr, &Decoded), SimError> {
        self.index_of(pc)
            .map(|ix| (&self.code[ix], &self.decoded[ix]))
    }

    /// Layout index of the instruction starting at `pc`.
    #[inline]
    fn index_of(&self, pc: u32) -> Result<usize, SimError> {
        let slot = pc.wrapping_sub(self.base) / 4;
        match self.slot_index.get(slot as usize) {
            Some(&ix) if ix != NO_SLOT && pc.is_multiple_of(4) => Ok(ix as usize),
            _ => Err(SimError::BadPc { pc }),
        }
    }

    /// Byte address of instruction `ix` in layout order.
    pub fn addr_of(&self, ix: usize) -> u32 {
        self.addrs[ix]
    }

    /// Iterates over `(address, instruction)` pairs in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Instr)> {
        self.addrs.iter().copied().zip(self.code.iter())
    }

    /// Address of a label, if defined.
    pub fn label_addr(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// The label at `addr`, if any (for disassembly and profiling reports).
    pub fn label_at(&self, addr: u32) -> Option<&str> {
        self.labels
            .iter()
            .find(|(_, a)| **a == addr)
            .map(|(n, _)| n.as_str())
    }

    /// All labels sorted by address.
    pub fn labels_sorted(&self) -> Vec<(&str, u32)> {
        let mut v: Vec<(&str, u32)> = self.labels.iter().map(|(n, a)| (n.as_str(), *a)).collect();
        v.sort_by_key(|(_, a)| *a);
        v
    }

    /// Name of the enclosing label region for `addr` (the nearest label at
    /// or before the address), used by the profiler to attribute cycles.
    pub fn region_of(&self, addr: u32) -> Option<&str> {
        self.labels_sorted()
            .into_iter()
            .take_while(|(_, a)| *a <= addr)
            .last()
            .map(|(n, _)| n)
    }
}

/// Pending reference from an instruction to a not-yet-resolved label.
#[derive(Debug, Clone)]
struct Fixup {
    instr_ix: usize,
    label: String,
}

/// Builds a [`Program`] incrementally with symbolic labels.
///
/// ```
/// use dbx_cpu::program::ProgramBuilder;
/// use dbx_cpu::isa::regs::*;
///
/// let mut b = ProgramBuilder::new();
/// b.movi(A2, 10);
/// b.movi(A3, 0);
/// b.label("loop");
/// b.add(A3, A3, A2);
/// b.addi(A2, A2, -1);
/// b.bnez(A2, "loop");
/// b.halt();
/// let prog = b.build().unwrap();
/// assert_eq!(prog.len(), 6);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    code: Vec<Instr>,
    labels: HashMap<String, usize>, // label -> instruction index
    fixups: Vec<Fixup>,
    base: u32,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        ProgramBuilder {
            code: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            base: IMEM_BASE,
        }
    }
}

impl ProgramBuilder {
    /// Creates an empty builder laying out at [`IMEM_BASE`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder laying out at `base` (a word-aligned
    /// address inside instruction memory) — the `.org` of classic
    /// assemblers. All emitted addresses, labels, and diagnostics stay
    /// absolute byte PCs relative to this base.
    ///
    /// # Panics
    /// Panics when `base` is not 4-byte aligned or lies below
    /// [`IMEM_BASE`]; both are always builder-side bugs.
    pub fn with_base(base: u32) -> Self {
        assert!(
            base.is_multiple_of(4) && base >= IMEM_BASE,
            "program base {base:#010x} must be word-aligned and inside instruction memory"
        );
        ProgramBuilder {
            base,
            ..Self::default()
        }
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Defines `name` at the current position.
    ///
    /// # Panics
    /// Panics when the label is redefined — that is always a kernel bug.
    /// Code handling untrusted input (the assembler) uses [`Self::try_label`].
    pub fn label(&mut self, name: &str) -> &mut Self {
        self.try_label(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Defines `name` at the current position, reporting redefinition as an
    /// error instead of panicking.
    pub fn try_label(&mut self, name: &str) -> Result<&mut Self, SimError> {
        let prev = self.labels.insert(name.to_string(), self.code.len());
        if prev.is_some() {
            return Err(SimError::BadProgram(format!("label '{name}' redefined")));
        }
        Ok(self)
    }

    /// Emits a raw instruction. Branch targets referencing labels must go
    /// through the dedicated helpers so fixups are recorded.
    pub fn inst(&mut self, i: Instr) -> &mut Self {
        self.code.push(i);
        self
    }

    fn branch_to(&mut self, mk: impl FnOnce(u32) -> Instr, label: &str) -> &mut Self {
        self.fixups.push(Fixup {
            instr_ix: self.code.len(),
            label: label.to_string(),
        });
        self.code.push(mk(0));
        self
    }

    // ---- sugar: ALU ----

    /// `movi r, imm`
    pub fn movi(&mut self, r: Reg, imm: i32) -> &mut Self {
        self.inst(Instr::Movi { r, imm })
    }
    /// `mov r, s` (emitted as `or r, s, s` in hardware; one ALU op).
    pub fn mov(&mut self, r: Reg, s: Reg) -> &mut Self {
        self.inst(Instr::Or { r, s, t: s })
    }
    /// `add r, s, t`
    pub fn add(&mut self, r: Reg, s: Reg, t: Reg) -> &mut Self {
        self.inst(Instr::Add { r, s, t })
    }
    /// `addx4 r, s, t` — `r = (s << 2) + t`
    pub fn addx4(&mut self, r: Reg, s: Reg, t: Reg) -> &mut Self {
        self.inst(Instr::Addx4 { r, s, t })
    }
    /// `addi r, s, imm`
    pub fn addi(&mut self, r: Reg, s: Reg, imm: i16) -> &mut Self {
        self.inst(Instr::Addi { r, s, imm })
    }
    /// `sub r, s, t`
    pub fn sub(&mut self, r: Reg, s: Reg, t: Reg) -> &mut Self {
        self.inst(Instr::Sub { r, s, t })
    }
    /// `and r, s, t`
    pub fn and(&mut self, r: Reg, s: Reg, t: Reg) -> &mut Self {
        self.inst(Instr::And { r, s, t })
    }
    /// `or r, s, t`
    pub fn or(&mut self, r: Reg, s: Reg, t: Reg) -> &mut Self {
        self.inst(Instr::Or { r, s, t })
    }
    /// `xor r, s, t`
    pub fn xor(&mut self, r: Reg, s: Reg, t: Reg) -> &mut Self {
        self.inst(Instr::Xor { r, s, t })
    }
    /// `slli r, s, sa`
    pub fn slli(&mut self, r: Reg, s: Reg, sa: u8) -> &mut Self {
        self.inst(Instr::Slli { r, s, sa })
    }
    /// `srli r, s, sa`
    pub fn srli(&mut self, r: Reg, s: Reg, sa: u8) -> &mut Self {
        self.inst(Instr::Srli { r, s, sa })
    }
    /// `srai r, s, sa`
    pub fn srai(&mut self, r: Reg, s: Reg, sa: u8) -> &mut Self {
        self.inst(Instr::Srai { r, s, sa })
    }
    /// `extui r, s, shift, bits`
    pub fn extui(&mut self, r: Reg, s: Reg, shift: u8, bits: u8) -> &mut Self {
        self.inst(Instr::Extui { r, s, shift, bits })
    }
    /// `mull r, s, t`
    pub fn mull(&mut self, r: Reg, s: Reg, t: Reg) -> &mut Self {
        self.inst(Instr::Mull { r, s, t })
    }
    /// `quou r, s, t`
    pub fn quou(&mut self, r: Reg, s: Reg, t: Reg) -> &mut Self {
        self.inst(Instr::Quou { r, s, t })
    }
    /// `remu r, s, t`
    pub fn remu(&mut self, r: Reg, s: Reg, t: Reg) -> &mut Self {
        self.inst(Instr::Remu { r, s, t })
    }
    /// `minu r, s, t`
    pub fn minu(&mut self, r: Reg, s: Reg, t: Reg) -> &mut Self {
        self.inst(Instr::Minu { r, s, t })
    }
    /// `maxu r, s, t`
    pub fn maxu(&mut self, r: Reg, s: Reg, t: Reg) -> &mut Self {
        self.inst(Instr::Maxu { r, s, t })
    }

    // ---- sugar: memory ----

    /// `l32i r, s, off`
    pub fn l32i(&mut self, r: Reg, s: Reg, off: u16) -> &mut Self {
        self.inst(Instr::Load {
            width: LsWidth::W32,
            r,
            s,
            off,
        })
    }
    /// `s32i t, s, off`
    pub fn s32i(&mut self, t: Reg, s: Reg, off: u16) -> &mut Self {
        self.inst(Instr::Store {
            width: LsWidth::W32,
            t,
            s,
            off,
        })
    }
    /// `l8ui r, s, off`
    pub fn l8ui(&mut self, r: Reg, s: Reg, off: u16) -> &mut Self {
        self.inst(Instr::Load {
            width: LsWidth::B8,
            r,
            s,
            off,
        })
    }
    /// `s8i t, s, off`
    pub fn s8i(&mut self, t: Reg, s: Reg, off: u16) -> &mut Self {
        self.inst(Instr::Store {
            width: LsWidth::B8,
            t,
            s,
            off,
        })
    }

    // ---- sugar: control ----

    /// `beq/bne/blt/bge/bltu/bgeu s, t, label`
    pub fn br(&mut self, cond: BranchCond, s: Reg, t: Reg, label: &str) -> &mut Self {
        self.branch_to(move |target| Instr::Branch { cond, s, t, target }, label)
    }
    /// `beq s, t, label`
    pub fn beq(&mut self, s: Reg, t: Reg, label: &str) -> &mut Self {
        self.br(BranchCond::Eq, s, t, label)
    }
    /// `bne s, t, label`
    pub fn bne(&mut self, s: Reg, t: Reg, label: &str) -> &mut Self {
        self.br(BranchCond::Ne, s, t, label)
    }
    /// `blt s, t, label` (signed)
    pub fn blt(&mut self, s: Reg, t: Reg, label: &str) -> &mut Self {
        self.br(BranchCond::Lt, s, t, label)
    }
    /// `bltu s, t, label` (unsigned)
    pub fn bltu(&mut self, s: Reg, t: Reg, label: &str) -> &mut Self {
        self.br(BranchCond::Ltu, s, t, label)
    }
    /// `bge s, t, label` (signed)
    pub fn bge(&mut self, s: Reg, t: Reg, label: &str) -> &mut Self {
        self.br(BranchCond::Ge, s, t, label)
    }
    /// `bgeu s, t, label` (unsigned)
    pub fn bgeu(&mut self, s: Reg, t: Reg, label: &str) -> &mut Self {
        self.br(BranchCond::Geu, s, t, label)
    }
    /// `beqz s, label`
    pub fn beqz(&mut self, s: Reg, label: &str) -> &mut Self {
        self.branch_to(move |target| Instr::Beqz { s, target }, label)
    }
    /// `bnez s, label`
    pub fn bnez(&mut self, s: Reg, label: &str) -> &mut Self {
        self.branch_to(move |target| Instr::Bnez { s, target }, label)
    }
    /// `j label`
    pub fn j(&mut self, label: &str) -> &mut Self {
        self.branch_to(move |target| Instr::J { target }, label)
    }
    /// `jx s`
    pub fn jx(&mut self, s: Reg) -> &mut Self {
        self.inst(Instr::Jx { s })
    }
    /// `call0 label`
    pub fn call0(&mut self, label: &str) -> &mut Self {
        self.branch_to(move |target| Instr::Call0 { target }, label)
    }
    /// `ret`
    pub fn ret(&mut self) -> &mut Self {
        self.inst(Instr::Ret)
    }
    /// `loop s, end_label` — zero-overhead loop over the following body.
    pub fn hw_loop(&mut self, s: Reg, end_label: &str) -> &mut Self {
        self.branch_to(move |end| Instr::Loop { s, end }, end_label)
    }
    /// `nop`
    pub fn nop(&mut self) -> &mut Self {
        self.inst(Instr::Nop)
    }
    /// `halt` (simulation stop)
    pub fn halt(&mut self) -> &mut Self {
        self.inst(Instr::Halt)
    }

    // ---- sugar: extension ----

    /// A standalone extension op.
    pub fn ext(&mut self, op: ExtOp) -> &mut Self {
        self.inst(Instr::Ext(op))
    }

    /// A FLIX bundle of up to three slot operations.
    pub fn flix<I: IntoIterator<Item = Instr>>(&mut self, slots: I) -> &mut Self {
        let v: Vec<Instr> = slots.into_iter().collect();
        self.inst(Instr::Flix(v.into_boxed_slice()))
    }

    /// Resolves labels, lays out addresses, and validates the program.
    pub fn build(mut self) -> Result<Program, SimError> {
        // Layout pass: assign a byte address to every instruction.
        let mut addrs = Vec::with_capacity(self.code.len());
        let mut pc = self.base;
        for i in &self.code {
            if let Instr::Flix(slots) = i {
                if slots.len() > 3 {
                    return Err(SimError::BadProgram(format!(
                        "FLIX bundle with {} slots (max 3)",
                        slots.len()
                    )));
                }
                for s in slots.iter() {
                    if !s.slot_eligible() {
                        return Err(SimError::BadProgram(format!(
                            "instruction {s:?} is not FLIX slot eligible"
                        )));
                    }
                }
            }
            addrs.push(pc);
            pc += i.size();
        }
        let size = pc - self.base;

        // Resolve label addresses.
        let label_addr: HashMap<String, u32> = self
            .labels
            .iter()
            .map(|(name, ix)| {
                let a = if *ix == self.code.len() {
                    pc
                } else {
                    addrs[*ix]
                };
                (name.clone(), a)
            })
            .collect();

        // Apply fixups.
        for f in &self.fixups {
            let target = *label_addr
                .get(&f.label)
                .ok_or_else(|| SimError::BadProgram(format!("undefined label '{}'", f.label)))?;
            match &mut self.code[f.instr_ix] {
                Instr::Branch { target: t, .. }
                | Instr::Beqz { target: t, .. }
                | Instr::Bnez { target: t, .. }
                | Instr::J { target: t }
                | Instr::Call0 { target: t }
                | Instr::Loop { end: t, .. } => *t = target,
                other => {
                    return Err(SimError::BadProgram(format!(
                        "fixup on non-branch instruction {other:?}"
                    )))
                }
            }
        }

        // Validate targets land on instruction boundaries.
        let valid: std::collections::HashSet<u32> =
            addrs.iter().copied().chain(std::iter::once(pc)).collect();
        for (ix, i) in self.code.iter().enumerate() {
            let t = match i {
                Instr::Branch { target, .. }
                | Instr::Beqz { target, .. }
                | Instr::Bnez { target, .. }
                | Instr::J { target }
                | Instr::Call0 { target } => Some(*target),
                Instr::Loop { end, .. } => Some(*end),
                _ => None,
            };
            if let Some(t) = t {
                if !valid.contains(&t) {
                    return Err(SimError::BadProgram(format!(
                        "instruction {ix} targets {t:#010x}, not an instruction boundary"
                    )));
                }
            }
        }

        // Slot table for O(1) fetch.
        let slots = (size / 4) as usize;
        let mut slot_index = vec![NO_SLOT; slots];
        for (ix, a) in addrs.iter().enumerate() {
            slot_index[((a - self.base) / 4) as usize] = ix as u32;
        }

        let decoded = self
            .code
            .iter()
            .zip(&addrs)
            .map(|(i, &a)| Decoded::new(i, a))
            .collect();
        Ok(Program {
            code: self.code,
            decoded,
            addrs,
            slot_index,
            labels: label_addr,
            size,
            base: self.base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::regs::*;

    #[test]
    fn layout_assigns_sequential_addresses() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 1);
        b.flix([Instr::Nop, Instr::Nop]);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.addr_of(0), IMEM_BASE);
        assert_eq!(p.addr_of(1), IMEM_BASE + 4);
        assert_eq!(p.addr_of(2), IMEM_BASE + 12); // bundle is 8 bytes
        assert_eq!(p.size_bytes(), 16);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut b = ProgramBuilder::new();
        b.label("start");
        b.movi(A2, 3);
        b.label("loop");
        b.addi(A2, A2, -1);
        b.bnez(A2, "loop");
        b.j("end");
        b.nop();
        b.label("end");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.label_addr("start"), Some(IMEM_BASE));
        assert_eq!(p.label_addr("loop"), Some(IMEM_BASE + 4));
        let end = p.label_addr("end").unwrap();
        match p.fetch(IMEM_BASE + 12).unwrap() {
            Instr::J { target } => assert_eq!(*target, end),
            other => panic!("expected J, got {other:?}"),
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.j("nowhere");
        assert!(matches!(b.build(), Err(SimError::BadProgram(_))));
    }

    #[test]
    fn fetch_rejects_mid_instruction_pc() {
        let mut b = ProgramBuilder::new();
        b.flix([Instr::Nop]);
        b.halt();
        let p = b.build().unwrap();
        assert!(p.fetch(IMEM_BASE).is_ok());
        // Second word of the bundle is not an instruction start.
        assert!(matches!(
            p.fetch(IMEM_BASE + 4),
            Err(SimError::BadPc { .. })
        ));
        assert!(p.fetch(IMEM_BASE + 8).is_ok());
    }

    #[test]
    fn fetch_rejects_unaligned_and_out_of_range_pcs() {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.flix([Instr::Nop, Instr::Nop]);
        b.halt();
        let p = b.build().unwrap();
        // Every aligned instruction boundary fetches.
        assert!(p.fetch(IMEM_BASE).is_ok());
        assert!(p.fetch(IMEM_BASE + 4).is_ok());
        assert!(p.fetch(IMEM_BASE + 12).is_ok());
        // Unaligned PCs are rejected even where an instruction starts —
        // including inside the bundle's first word and inside its second
        // (non-boundary) word.
        for off in [1, 2, 3, 5, 6, 7, 9, 10, 11, 13] {
            assert!(
                matches!(p.fetch(IMEM_BASE + off), Err(SimError::BadPc { .. })),
                "offset {off} must not fetch"
            );
        }
        // Mid-bundle word slot (aligned, but not a boundary).
        assert!(matches!(
            p.fetch(IMEM_BASE + 8),
            Err(SimError::BadPc { .. })
        ));
        // Below the image base (wraps to a huge slot) and past the end.
        assert!(matches!(
            p.fetch(IMEM_BASE - 4),
            Err(SimError::BadPc { .. })
        ));
        assert!(matches!(
            p.fetch(IMEM_BASE + p.size_bytes()),
            Err(SimError::BadPc { .. })
        ));
        assert!(matches!(p.fetch(0), Err(SimError::BadPc { .. })));
    }

    #[test]
    fn oversized_bundle_rejected() {
        let mut b = ProgramBuilder::new();
        b.flix([Instr::Nop, Instr::Nop, Instr::Nop, Instr::Nop]);
        assert!(matches!(b.build(), Err(SimError::BadProgram(_))));
    }

    #[test]
    fn ineligible_slot_rejected() {
        let mut b = ProgramBuilder::new();
        b.flix([Instr::Add {
            r: A2,
            s: A2,
            t: A2,
        }]);
        assert!(matches!(b.build(), Err(SimError::BadProgram(_))));
    }

    #[test]
    #[should_panic(expected = "redefined")]
    fn duplicate_label_panics() {
        let mut b = ProgramBuilder::new();
        b.label("x");
        b.nop();
        b.label("x");
    }

    #[test]
    fn region_of_attributes_addresses_to_nearest_label() {
        let mut b = ProgramBuilder::new();
        b.label("init");
        b.movi(A2, 0);
        b.label("core");
        b.nop();
        b.nop();
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.region_of(IMEM_BASE), Some("init"));
        assert_eq!(p.region_of(IMEM_BASE + 8), Some("core"));
    }

    #[test]
    fn with_base_lays_out_and_fetches_at_the_shifted_address() {
        let base = IMEM_BASE + 0x100;
        let mut b = ProgramBuilder::with_base(base);
        b.label("start");
        b.movi(A2, 3);
        b.label("loop");
        b.addi(A2, A2, -1);
        b.bnez(A2, "loop");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.entry(), base);
        assert_eq!(p.addr_of(0), base);
        assert_eq!(p.label_addr("loop"), Some(base + 4));
        assert!(p.fetch(base + 8).is_ok());
        // PCs below the base — including the old default entry — reject.
        assert!(matches!(p.fetch(IMEM_BASE), Err(SimError::BadPc { .. })));
        assert!(matches!(p.fetch(base - 4), Err(SimError::BadPc { .. })));
        match p.fetch(base + 8).unwrap() {
            Instr::Bnez { target, .. } => assert_eq!(*target, base + 4),
            other => panic!("expected BNEZ, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn misaligned_base_panics() {
        ProgramBuilder::with_base(IMEM_BASE + 2);
    }

    fn decoded_at(p: &Program, pc: u32) -> &Decoded {
        p.fetch_decoded(pc).unwrap().1
    }

    #[test]
    fn decode_computes_fall_through_and_source_masks() {
        let mask = |bits: &[usize]| bits.iter().fold(0u16, |m, b| m | (1 << b));
        let mut b = ProgramBuilder::new();
        b.add(A3, A4, A5);
        b.l32i(A2, A3, 0);
        b.movi(A6, 0x1234_5678); // wide: 8 bytes
        b.halt();
        let p = b.build().unwrap();
        let e = p.entry();
        assert_eq!(decoded_at(&p, e).src_mask, mask(&[4, 5]));
        assert_eq!(decoded_at(&p, e + 4).src_mask, mask(&[3]));
        assert_eq!(decoded_at(&p, e + 8).src_mask, 0);
        assert_eq!(decoded_at(&p, e + 8).fall_through, e + 16);
        for (pc, instr) in p.iter() {
            let d = decoded_at(&p, pc);
            assert_eq!(d.fall_through, pc + instr.size());
            assert_eq!(
                d.src_mask,
                mask(&instr.src_regs().iter().map(|r| r.idx()).collect::<Vec<_>>())
            );
            assert!(d.addis().is_empty());
        }
    }

    #[test]
    fn decode_splits_bundles_into_ext_group_then_addis() {
        let ext = |op| {
            Instr::Ext(ExtOp {
                op,
                args: OpArgs::default(),
            })
        };
        let mut b = ProgramBuilder::new();
        b.flix([
            ext(7),
            Instr::Addi {
                r: A2,
                s: A2,
                imm: 16,
            },
            Instr::Nop,
        ]);
        b.ext(ExtOp {
            op: 9,
            args: OpArgs { r: 3, s: 4, imm: 0 },
        });
        b.flix([Instr::Nop, Instr::Nop]);
        b.halt();
        let p = b.build().unwrap();
        let bundle = decoded_at(&p, p.entry());
        assert_eq!(bundle.ext_ops().len(), 1);
        assert_eq!(bundle.ext_ops()[0].0, 7);
        assert_eq!(bundle.addis(), &[(A2, A2, 16)]);
        // Fall-through skips the bundle's two words.
        assert_eq!(bundle.fall_through, p.entry() + 8);
        // A standalone extension op is a one-op group.
        let single = decoded_at(&p, p.entry() + 8);
        assert_eq!(single.ext_ops(), &[(9, OpArgs { r: 3, s: 4, imm: 0 })]);
        assert!(single.addis().is_empty());
        // An all-NOP bundle issues nothing.
        let nops = decoded_at(&p, p.entry() + 12);
        assert!(nops.ext_ops().is_empty() && nops.addis().is_empty());
        assert!(p.fetch_decoded(p.entry() + 4).is_err());
    }

    #[test]
    fn label_at_end_of_program_is_valid_branch_target() {
        let mut b = ProgramBuilder::new();
        b.j("end");
        b.label("end");
        let p = b.build().unwrap();
        assert_eq!(p.label_addr("end"), Some(IMEM_BASE + 4));
    }
}
