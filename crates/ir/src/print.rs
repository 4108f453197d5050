//! Textual printing of functions in the paper's pseudo-code style.
//!
//! The output round-trips through [`parse_function`](crate::parse_function)
//! and looks like Figure 2 of the paper:
//!
//! ```text
//! func minmax
//! CL.0:
//!     (I0)   L      r12=a(r31,4)
//!     (I1)   LU     r0,r31=a(r31,8)
//!     (I2)   C      cr7=r12,r0
//!     (I3)   BF     CL.4,cr7,0x2/gt
//! ```

use crate::block::BlockId;
use crate::function::Function;
use crate::op::Op;
use std::fmt;

impl Function {
    /// Formats one operation using this function's labels and symbols.
    pub fn op_to_string(&self, op: &Op) -> String {
        let label = |b: BlockId| self.block(b).label().to_owned();
        let sym = |mem: &crate::op::MemRef| match mem.sym {
            Some(s) => self.symbol_name(s).to_owned(),
            None => "*".to_owned(),
        };
        match op {
            Op::Load { rt, mem } => {
                format!("L      {rt}={}({},{})", sym(mem), mem.base, mem.disp)
            }
            Op::LoadUpdate { rt, mem } => {
                format!(
                    "LU     {rt},{}={}({},{})",
                    mem.base,
                    sym(mem),
                    mem.base,
                    mem.disp
                )
            }
            Op::Store { rs, mem } => {
                format!("ST     {rs}=>{}({},{})", sym(mem), mem.base, mem.disp)
            }
            Op::StoreUpdate { rs, mem } => {
                format!("STU    {rs}=>{}({},{})", sym(mem), mem.base, mem.disp)
            }
            Op::LoadImm { rt, imm } => format!("LI     {rt}={imm}"),
            Op::Move { rt, rs } => format!("LR     {rt}={rs}"),
            Op::Fx { op, rt, ra, rb } => {
                format!("{:<6} {rt}={ra},{rb}", op.mnemonic())
            }
            Op::FxImm { op, rt, ra, imm } => {
                format!("{:<6} {rt}={ra},{imm}", op.imm_mnemonic())
            }
            Op::Fp { op, rt, ra, rb } => {
                format!("{:<6} {rt}={ra},{rb}", op.mnemonic())
            }
            Op::Compare { crt, ra, rb } => format!("C      {crt}={ra},{rb}"),
            Op::CompareImm { crt, ra, imm } => format!("CI     {crt}={ra},{imm}"),
            Op::FpCompare { crt, ra, rb } => format!("FC     {crt}={ra},{rb}"),
            Op::BranchCond {
                target,
                cr,
                bit,
                when,
            } => {
                let mn = if *when { "BT" } else { "BF" };
                format!("{mn:<6} {},{cr},{bit}", label(*target))
            }
            Op::Branch { target } => format!("B      {}", label(*target)),
            Op::Ret => "RET".to_owned(),
            Op::Call(call) => {
                let list = |rs: &[crate::Reg]| {
                    rs.iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!(
                    "CALL   {}({})->({})",
                    call.name,
                    list(&call.uses),
                    list(&call.defs)
                )
            }
            Op::Print { rs } => format!("PRINT  {rs}"),
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "func {}", self.name())?;
        for (_, block) in self.blocks() {
            writeln!(f, "{}:", block.label())?;
            for inst in block.insts() {
                writeln!(
                    f,
                    "    ({:<5}) {}",
                    inst.id.to_string(),
                    self.op_to_string(&inst.op)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::op::CondBit;

    #[test]
    fn printed_form_matches_paper_style() {
        let mut b = FunctionBuilder::new("t");
        let r12 = b.gpr();
        let r31 = b.gpr();
        let cr7 = b.cr();
        let a = b.symbol("a");
        let e = b.block("CL.0");
        let out = b.block("CL.4");
        b.switch_to(e);
        b.load(r12, a, r31, 4);
        b.compare(cr7, r12, r12);
        b.branch_false(out, cr7, CondBit::Gt);
        b.switch_to(out);
        b.ret();
        let f = b.finish().expect("verifies");
        let text = f.to_string();
        assert!(text.contains("func t"), "{text}");
        assert!(text.contains("CL.0:"), "{text}");
        assert!(text.contains("L      r0=a(r1,4)"), "{text}");
        assert!(text.contains("BF     CL.4,cr0,0x2/gt"), "{text}");
        assert!(text.contains("RET"), "{text}");
    }
}
