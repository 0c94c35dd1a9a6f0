//! Instructions and operands.

use crate::mnemonic::{Kind, Mnemonic};
use crate::reg::{Gpr, Xmm};
use serde::{Deserialize, Serialize};

/// A memory reference `disp(base, index, scale)` in AT&T terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemRef {
    /// Base register (64-bit view), if any.
    pub base: Option<Gpr>,
    /// Index register and scale factor (1, 2, 4 or 8), if any.
    pub index: Option<(Gpr, u8)>,
    /// Signed displacement.
    pub disp: i32,
}

impl MemRef {
    /// `disp(%base)`.
    pub fn base_disp(base: Gpr, disp: i32) -> MemRef {
        MemRef {
            base: Some(base),
            index: None,
            disp,
        }
    }

    /// `disp(%base, %index, scale)`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4 or 8.
    pub fn base_index(base: Gpr, index: Gpr, scale: u8, disp: i32) -> MemRef {
        assert!(matches!(scale, 1 | 2 | 4 | 8), "bad scale {scale}");
        MemRef {
            base: Some(base),
            index: Some((index, scale)),
            disp,
        }
    }

    /// Whether the reference is relative to the stack pointer or the
    /// frame pointer — i.e. plausibly a local variable slot.
    pub fn is_frame_relative(self) -> bool {
        self.base.map(|b| b.is_sp() || b.is_bp()).unwrap_or(false)
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// General-purpose register.
    Reg(Gpr),
    /// SSE register.
    Xmm(Xmm),
    /// Immediate value (`$imm`).
    Imm(i64),
    /// Memory reference through registers.
    Mem(MemRef),
    /// Absolute memory reference (a global), e.g. `0x601040`.
    Abs(u64),
    /// Code address: a branch or call target.
    Addr(u64),
}

impl Operand {
    /// The GPR inside, if this is a register operand.
    pub fn as_gpr(&self) -> Option<Gpr> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// The memory reference inside, if this is a register-relative
    /// memory operand.
    pub fn as_mem(&self) -> Option<MemRef> {
        match self {
            Operand::Mem(m) => Some(*m),
            _ => None,
        }
    }

    /// Whether this operand touches memory (register-relative or
    /// absolute).
    pub fn is_memory(&self) -> bool {
        matches!(self, Operand::Mem(_) | Operand::Abs(_))
    }
}

impl From<Gpr> for Operand {
    fn from(r: Gpr) -> Operand {
        Operand::Reg(r)
    }
}

impl From<Xmm> for Operand {
    fn from(x: Xmm) -> Operand {
        Operand::Xmm(x)
    }
}

impl From<MemRef> for Operand {
    fn from(m: MemRef) -> Operand {
        Operand::Mem(m)
    }
}

/// How an instruction uses one of its memory operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemAccess {
    /// The memory operand is read.
    Read,
    /// The memory operand is written.
    Write,
    /// The memory operand is read and written (RMW ALU forms).
    ReadWrite,
    /// Only the *address* is computed (`lea`): no dereference, but the
    /// instruction still "operates the variable" in CATI's sense.
    AddressOf,
}

/// One decoded instruction: a mnemonic plus up to two explicit
/// operands (AT&T order: source first, destination last).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Insn {
    /// The operation.
    pub mnemonic: Mnemonic,
    /// Explicit operands in AT&T order.
    pub operands: Vec<Operand>,
}

impl Insn {
    /// Builds an instruction; validates the operand count loosely
    /// (0–2 operands, which covers the whole subset).
    ///
    /// # Panics
    ///
    /// Panics if more than two operands are supplied.
    pub fn new(mnemonic: Mnemonic, operands: Vec<Operand>) -> Insn {
        assert!(
            operands.len() <= 2,
            "{mnemonic} with {} operands",
            operands.len()
        );
        Insn { mnemonic, operands }
    }

    /// Zero-operand instruction.
    pub fn op0(mnemonic: Mnemonic) -> Insn {
        Insn::new(mnemonic, Vec::new())
    }

    /// One-operand instruction.
    pub fn op1(mnemonic: Mnemonic, a: impl Into<Operand>) -> Insn {
        Insn::new(mnemonic, vec![a.into()])
    }

    /// Two-operand instruction (AT&T order: `src, dst`).
    pub fn op2(mnemonic: Mnemonic, src: impl Into<Operand>, dst: impl Into<Operand>) -> Insn {
        Insn::new(mnemonic, vec![src.into(), dst.into()])
    }

    /// The memory operand together with its access mode, if the
    /// instruction has one. These are CATI's *target instructions*:
    /// memory-access and dereference instructions operate exactly one
    /// variable at a time (paper §I).
    pub fn mem_operand(&self) -> Option<(MemRef, MemAccess)> {
        let mem_idx = self.operands.iter().position(Operand::is_memory)?;
        let mem = match self.operands[mem_idx] {
            Operand::Mem(m) => m,
            // Absolute references are globals; variable analysis only
            // tracks frame slots, so surface them with no base.
            Operand::Abs(_) => MemRef {
                base: None,
                index: None,
                disp: 0,
            },
            _ => unreachable!(),
        };
        let access = match self.mnemonic.kind() {
            Kind::Move | Kind::SseMove | Kind::Ext { .. } => {
                if mem_idx == self.operands.len() - 1 {
                    MemAccess::Write
                } else {
                    MemAccess::Read
                }
            }
            Kind::Arith | Kind::Shift => {
                if mem_idx == self.operands.len() - 1 {
                    MemAccess::ReadWrite
                } else {
                    MemAccess::Read
                }
            }
            Kind::Unary => MemAccess::ReadWrite,
            Kind::Compare
            | Kind::SseCmp
            | Kind::SseArith
            | Kind::SseCvt
            | Kind::Mul
            | Kind::Div
            | Kind::X87Load
            | Kind::Push => MemAccess::Read,
            Kind::Pop | Kind::SetCc | Kind::X87Store => MemAccess::Write,
            Kind::Lea => MemAccess::AddressOf,
            _ => return None,
        };
        Some((mem, access))
    }

    /// Branch/call target, if this is a control transfer with an
    /// explicit address operand.
    pub fn target(&self) -> Option<u64> {
        if !self.mnemonic.is_control_flow() {
            return None;
        }
        self.operands.iter().find_map(|o| match o {
            Operand::Addr(a) => Some(*a),
            _ => None,
        })
    }

    /// Whether any operand is a GPR or XMM register (objdump elides
    /// the mnemonic width suffix in that case).
    pub fn has_reg_operand(&self) -> bool {
        self.operands
            .iter()
            .any(|o| matches!(o, Operand::Reg(_) | Operand::Xmm(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::regs;

    #[test]
    fn mem_operand_detects_write() {
        // movl $0x8,0x40(%rsp)
        let i = Insn::op2(
            Mnemonic::MovL,
            Operand::Imm(8),
            MemRef::base_disp(regs::rsp(), 0x40),
        );
        let (m, acc) = i.mem_operand().unwrap();
        assert_eq!(m.disp, 0x40);
        assert_eq!(acc, MemAccess::Write);
    }

    #[test]
    fn mem_operand_detects_read() {
        // mov 0xb0(%rsp),%rax
        let i = Insn::op2(
            Mnemonic::MovQ,
            MemRef::base_disp(regs::rsp(), 0xb0),
            regs::rax(),
        );
        assert_eq!(i.mem_operand().unwrap().1, MemAccess::Read);
    }

    #[test]
    fn arith_on_memory_is_rmw() {
        let i = Insn::op2(
            Mnemonic::AddL,
            Operand::Imm(1),
            MemRef::base_disp(regs::rbp(), -4),
        );
        assert_eq!(i.mem_operand().unwrap().1, MemAccess::ReadWrite);
    }

    #[test]
    fn lea_is_address_of() {
        let i = Insn::op2(
            Mnemonic::LeaQ,
            MemRef::base_disp(regs::rsp(), 0x220),
            regs::rax(),
        );
        assert_eq!(i.mem_operand().unwrap().1, MemAccess::AddressOf);
    }

    #[test]
    fn cmp_reads_memory() {
        let i = Insn::op2(
            Mnemonic::CmpL,
            Operand::Imm(0),
            MemRef::base_disp(regs::rbp(), -8),
        );
        assert_eq!(i.mem_operand().unwrap().1, MemAccess::Read);
    }

    #[test]
    fn reg_only_insn_has_no_mem_operand() {
        let i = Insn::op2(Mnemonic::MovQ, regs::rdi(), regs::rbp());
        assert!(i.mem_operand().is_none());
    }

    #[test]
    fn target_of_call() {
        let i = Insn::op1(Mnemonic::CallQ, Operand::Addr(0x4044d0));
        assert_eq!(i.target(), Some(0x4044d0));
        let j = Insn::op2(Mnemonic::MovQ, Operand::Imm(0x4044d0), regs::rax());
        assert_eq!(j.target(), None);
    }

    #[test]
    fn frame_relative_memrefs() {
        assert!(MemRef::base_disp(regs::rsp(), 8).is_frame_relative());
        assert!(MemRef::base_disp(regs::rbp(), -8).is_frame_relative());
        assert!(!MemRef::base_disp(regs::rdi(), 0).is_frame_relative());
    }

    #[test]
    #[should_panic(expected = "bad scale")]
    fn bad_scale_panics() {
        MemRef::base_index(regs::rdi(), regs::rsi(), 3, 0);
    }
}
