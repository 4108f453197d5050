//! Property: the textual form round-trips — `parse(print(f)) == f` for
//! arbitrary well-formed functions, generated from the in-repo PRNG.

use gis_ir::{parse_function, CondBit, FpBinOp, Function, FxBinOp, Inst, MemRef, Op, Reg};
use gis_workloads::rng::XorShift64Star;

const BITS: [CondBit; 3] = [CondBit::Lt, CondBit::Gt, CondBit::Eq];

const FX_OPS: [FxBinOp; 10] = [
    FxBinOp::Add,
    FxBinOp::Sub,
    FxBinOp::Mul,
    FxBinOp::Div,
    FxBinOp::And,
    FxBinOp::Or,
    FxBinOp::Xor,
    FxBinOp::Sll,
    FxBinOp::Srl,
    FxBinOp::Sra,
];

const FP_OPS: [FpBinOp; 4] = [FpBinOp::Add, FpBinOp::Sub, FpBinOp::Mul, FpBinOp::Div];

fn arb_gpr(r: &mut XorShift64Star) -> Reg {
    Reg::gpr(r.range_u32(0, 32))
}

fn arb_fpr(r: &mut XorShift64Star) -> Reg {
    Reg::fpr(r.range_u32(0, 32))
}

fn arb_cr(r: &mut XorShift64Star) -> Reg {
    Reg::cr(r.range_u32(0, 8))
}

/// A random non-branch operation (branches are appended per block with
/// valid targets). `sym` is the function's sole memory symbol.
fn arb_body_op(r: &mut XorShift64Star, sym: gis_ir::SymId) -> Op {
    match r.below(12) {
        k @ (0 | 1) => {
            let rt = arb_gpr(r);
            let mem = MemRef {
                sym: r.chance(1, 2).then_some(sym),
                base: arb_gpr(r),
                disp: r.range_i64(-64, 64) * 4,
            };
            match (k == 1, r.chance(1, 2)) {
                (false, false) => Op::Load { rt, mem },
                (false, true) => Op::LoadUpdate { rt, mem },
                (true, false) => Op::Store { rs: rt, mem },
                (true, true) => Op::StoreUpdate { rs: rt, mem },
            }
        }
        2 => Op::LoadImm {
            rt: arb_gpr(r),
            imm: r.next_u64() as i32 as i64,
        },
        3 => Op::Move {
            rt: arb_gpr(r),
            rs: arb_gpr(r),
        },
        4 => Op::Fx {
            op: *r.pick(&FX_OPS),
            rt: arb_gpr(r),
            ra: arb_gpr(r),
            rb: arb_gpr(r),
        },
        5 => Op::FxImm {
            op: *r.pick(&FX_OPS),
            rt: arb_gpr(r),
            ra: arb_gpr(r),
            imm: r.range_i64(-100, 100),
        },
        6 => Op::Fp {
            op: *r.pick(&FP_OPS),
            rt: arb_fpr(r),
            ra: arb_fpr(r),
            rb: arb_fpr(r),
        },
        7 => Op::Compare {
            crt: arb_cr(r),
            ra: arb_gpr(r),
            rb: arb_gpr(r),
        },
        8 => Op::CompareImm {
            crt: arb_cr(r),
            ra: arb_gpr(r),
            imm: r.range_i64(-100, 100),
        },
        9 => Op::FpCompare {
            crt: arb_cr(r),
            ra: arb_fpr(r),
            rb: arb_fpr(r),
        },
        10 => Op::Print { rs: arb_gpr(r) },
        _ => Op::call("helper", vec![arb_gpr(r)], vec![arb_gpr(r)]),
    }
}

fn arb_function(r: &mut XorShift64Star) -> Function {
    let mut f = Function::new("roundtrip");
    let sym = f.add_symbol("mem");
    let n = 1 + r.below(5);
    let ids: Vec<gis_ir::BlockId> = (0..n).map(|i| f.add_block(format!("B{i}"))).collect();
    for (i, &bid) in ids.iter().enumerate() {
        for _ in 0..r.below(6) {
            let op = arb_body_op(r, sym);
            let id = f.fresh_inst_id();
            f.block_mut(bid).push(Inst::new(id, op));
        }
        // Terminate: last block returns; earlier blocks either fall
        // through via a conditional branch or continue implicitly.
        let id = f.fresh_inst_id();
        if i + 1 == n {
            f.block_mut(bid).push(Inst::new(id, Op::Ret));
        } else if r.chance(1, 2) {
            // Branch anywhere later (or to self — a back edge).
            let cr = arb_cr(r);
            let bit = *r.pick(&BITS);
            let target = ids[(i + 1 + cr.index() as usize) % n];
            f.block_mut(bid).push(Inst::new(
                id,
                Op::BranchCond {
                    target,
                    cr,
                    bit,
                    when: bit == CondBit::Lt,
                },
            ));
        }
    }
    f.recompute_allocators();
    f
}

/// Runs `check` on every well-formed random function from 256 stable
/// seeds (the replacement for the previous proptest harness).
fn for_random_functions(check: impl Fn(&Function)) {
    for seed in 0..256u64 {
        let f = arb_function(&mut XorShift64Star::new(seed));
        if f.verify().is_ok() {
            check(&f);
        }
    }
}

#[test]
fn print_parse_roundtrip() {
    for_random_functions(|f| {
        let text = f.to_string();
        let parsed =
            parse_function(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        // Same name, same blocks, same instructions (ids and ops).
        assert_eq!(parsed.name(), f.name());
        assert_eq!(parsed.num_blocks(), f.num_blocks());
        let a: Vec<_> = f.insts().map(|(b, i)| (b, i.id, i.op.clone())).collect();
        let b: Vec<_> = parsed
            .insts()
            .map(|(b, i)| (b, i.id, i.op.clone()))
            .collect();
        assert_eq!(a, b);
        // And printing again is a fixpoint.
        assert_eq!(parsed.to_string(), text);
    });
}

#[test]
fn verify_is_stable_under_roundtrip() {
    for_random_functions(|f| {
        let parsed = parse_function(&f.to_string()).expect("parses");
        assert_eq!(parsed.verify(), Ok(()));
    });
}
