//! Ergonomic construction of [`Function`]s.

use crate::block::{BlockId, Inst, InstId};
use crate::function::{Function, SymId};
use crate::op::{CondBit, FpBinOp, FxBinOp, MemRef, Op};
use crate::reg::{Reg, RegClass};
use crate::verify::VerifyFunctionError;

/// Builds a [`Function`] block by block.
///
/// Blocks are declared up front (declaration order is layout order, and the
/// first declared block is the entry), then filled by switching the
/// insertion point. Every emit method returns the new instruction's
/// [`InstId`] so tests can track motions.
///
/// ```
/// use gis_ir::FunctionBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = FunctionBuilder::new("answer");
/// let r = b.gpr();
/// let entry = b.block("entry");
/// b.switch_to(entry);
/// b.load_imm(r, 42);
/// b.print(r);
/// b.ret();
/// let f = b.finish()?;
/// assert_eq!(f.num_insts(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    f: Function,
    current: Option<BlockId>,
}

impl FunctionBuilder {
    /// Starts building a function with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        FunctionBuilder {
            f: Function::new(name),
            current: None,
        }
    }

    /// Declares a block; the first declared block is the entry.
    pub fn block(&mut self, label: impl Into<String>) -> BlockId {
        self.f.add_block(label)
    }

    /// Makes `id` the insertion point for subsequent emits.
    pub fn switch_to(&mut self, id: BlockId) {
        self.current = Some(id);
    }

    /// Allocates a fresh general purpose register.
    pub fn gpr(&mut self) -> Reg {
        self.f.fresh_reg(RegClass::Gpr)
    }

    /// Allocates a fresh floating point register.
    pub fn fpr(&mut self) -> Reg {
        self.f.fresh_reg(RegClass::Fpr)
    }

    /// Allocates a fresh condition register field.
    pub fn cr(&mut self) -> Reg {
        self.f.fresh_reg(RegClass::Cr)
    }

    /// Interns a memory symbol.
    pub fn symbol(&mut self, name: impl Into<String>) -> SymId {
        self.f.add_symbol(name)
    }

    /// Emits an arbitrary [`Op`] at the insertion point.
    ///
    /// # Panics
    ///
    /// Panics if no insertion point has been selected with
    /// [`FunctionBuilder::switch_to`].
    pub fn emit(&mut self, op: Op) -> InstId {
        let block = self
            .current
            .expect("no current block; call switch_to first");
        let id = self.f.fresh_inst_id();
        self.f.block_mut(block).push(Inst::new(id, op));
        id
    }

    /// `L rt=sym(base,disp)`
    pub fn load(&mut self, rt: Reg, sym: SymId, base: Reg, disp: i64) -> InstId {
        self.emit(Op::Load {
            rt,
            mem: MemRef::sym(sym, base, disp),
        })
    }

    /// `LU rt,base=sym(base,disp)`
    pub fn load_update(&mut self, rt: Reg, sym: SymId, base: Reg, disp: i64) -> InstId {
        self.emit(Op::LoadUpdate {
            rt,
            mem: MemRef::sym(sym, base, disp),
        })
    }

    /// `ST rs=>sym(base,disp)`
    pub fn store(&mut self, rs: Reg, sym: SymId, base: Reg, disp: i64) -> InstId {
        self.emit(Op::Store {
            rs,
            mem: MemRef::sym(sym, base, disp),
        })
    }

    /// `LI rt=imm`
    pub fn load_imm(&mut self, rt: Reg, imm: i64) -> InstId {
        self.emit(Op::LoadImm { rt, imm })
    }

    /// `LR rt=rs`
    pub fn mov(&mut self, rt: Reg, rs: Reg) -> InstId {
        self.emit(Op::Move { rt, rs })
    }

    /// Fixed point register-register op, e.g. `A rt=ra,rb`.
    pub fn fx(&mut self, op: FxBinOp, rt: Reg, ra: Reg, rb: Reg) -> InstId {
        self.emit(Op::Fx { op, rt, ra, rb })
    }

    /// Fixed point register-immediate op, e.g. `AI rt=ra,imm`.
    pub fn fx_imm(&mut self, op: FxBinOp, rt: Reg, ra: Reg, imm: i64) -> InstId {
        self.emit(Op::FxImm { op, rt, ra, imm })
    }

    /// `AI rt=ra,imm` (the common case of [`FunctionBuilder::fx_imm`]).
    pub fn add_imm(&mut self, rt: Reg, ra: Reg, imm: i64) -> InstId {
        self.fx_imm(FxBinOp::Add, rt, ra, imm)
    }

    /// Floating point register-register op, e.g. `FA rt=ra,rb`.
    pub fn fp(&mut self, op: FpBinOp, rt: Reg, ra: Reg, rb: Reg) -> InstId {
        self.emit(Op::Fp { op, rt, ra, rb })
    }

    /// `C crt=ra,rb`
    pub fn compare(&mut self, crt: Reg, ra: Reg, rb: Reg) -> InstId {
        self.emit(Op::Compare { crt, ra, rb })
    }

    /// `CI crt=ra,imm`
    pub fn compare_imm(&mut self, crt: Reg, ra: Reg, imm: i64) -> InstId {
        self.emit(Op::CompareImm { crt, ra, imm })
    }

    /// `FC crt=ra,rb`
    pub fn fp_compare(&mut self, crt: Reg, ra: Reg, rb: Reg) -> InstId {
        self.emit(Op::FpCompare { crt, ra, rb })
    }

    /// `BT target,cr,bit` — branch when the bit is set.
    pub fn branch_true(&mut self, target: BlockId, cr: Reg, bit: CondBit) -> InstId {
        self.emit(Op::BranchCond {
            target,
            cr,
            bit,
            when: true,
        })
    }

    /// `BF target,cr,bit` — branch when the bit is clear.
    pub fn branch_false(&mut self, target: BlockId, cr: Reg, bit: CondBit) -> InstId {
        self.emit(Op::BranchCond {
            target,
            cr,
            bit,
            when: false,
        })
    }

    /// `B target`
    pub fn branch(&mut self, target: BlockId) -> InstId {
        self.emit(Op::Branch { target })
    }

    /// `RET`
    pub fn ret(&mut self) -> InstId {
        self.emit(Op::Ret)
    }

    /// `CALL name` with explicit use/def registers.
    pub fn call(&mut self, name: impl Into<String>, uses: Vec<Reg>, defs: Vec<Reg>) -> InstId {
        self.emit(Op::call(name, uses, defs))
    }

    /// `PRINT rs`
    pub fn print(&mut self, rs: Reg) -> InstId {
        self.emit(Op::Print { rs })
    }

    /// Finishes the function, verifying its invariants.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyFunctionError`] violated — malformed block
    /// endings, branch targets out of range, operand class mismatches,
    /// duplicate labels, or a fall-through off the end of the function.
    pub fn finish(self) -> Result<Function, VerifyFunctionError> {
        self.f.verify()?;
        Ok(self.f)
    }

    /// Finishes without verification (for tests that build intentionally
    /// malformed functions).
    pub fn finish_unverified(self) -> Function {
        self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = FunctionBuilder::new("t");
        let r = b.gpr();
        let e = b.block("e");
        b.switch_to(e);
        let i0 = b.load_imm(r, 1);
        let i1 = b.ret();
        assert_eq!(i0, InstId::new(0));
        assert_eq!(i1, InstId::new(1));
        let f = b.finish().expect("verifies");
        assert_eq!(f.num_blocks(), 1);
    }

    #[test]
    #[should_panic(expected = "no current block")]
    fn emit_without_block_panics() {
        let mut b = FunctionBuilder::new("t");
        let r = b.gpr();
        b.load_imm(r, 1);
    }

    #[test]
    fn finish_rejects_missing_terminator() {
        let mut b = FunctionBuilder::new("t");
        let r = b.gpr();
        let e = b.block("e");
        b.switch_to(e);
        b.load_imm(r, 1);
        // Last block falls through off the end of the function.
        assert!(b.finish().is_err());
    }
}
