//! Architectural interpretation of `gis-ir` functions.

use gis_ir::{BlockId, FpBinOp, Function, FxBinOp, InstId, MemRef, Op, Reg, RegClass};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// Limits and switches for [`execute`].
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Maximum dynamic instructions before aborting (guards against
    /// accidental infinite loops in generated or transformed code).
    pub max_steps: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_steps: 10_000_000,
        }
    }
}

/// An entry of the observable output trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputEvent {
    /// A `PRINT` of the given value.
    Print(i64),
    /// A `CALL`, with the callee name and the argument register values.
    Call(String, Vec<i64>),
}

/// An execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The step limit was exhausted (see [`ExecConfig::max_steps`]).
    StepLimit { steps: u64 },
    /// A memory access used an address that is not 4-byte aligned.
    Unaligned { addr: i64 },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StepLimit { steps } => {
                write!(f, "step limit exhausted after {steps} instructions")
            }
            ExecError::Unaligned { addr } => {
                write!(f, "unaligned memory access at address {addr:#x}")
            }
        }
    }
}

impl Error for ExecError {}

/// The result of a completed execution: observable behaviour plus the
/// dynamic block trace the timing simulator replays.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Observable output in order.
    pub output: Vec<OutputEvent>,
    /// Final memory (word values by byte address).
    pub memory: BTreeMap<i64, i64>,
    /// Dynamic instruction count.
    pub steps: u64,
    /// The sequence of basic blocks entered.
    pub block_trace: Vec<BlockId>,
    /// Per conditional branch: `(taken, not taken)` execution counts —
    /// the raw material for a branch profile (see `gis-core`'s
    /// `BranchProfile::from_counts` and
    /// [`ExecOutcome::branch_count_triples`]).
    pub branch_counts: HashMap<InstId, (u64, u64)>,
}

impl ExecOutcome {
    /// Branch counts as `(branch, taken, not_taken)` triples, ready for a
    /// profile constructor.
    pub fn branch_count_triples(&self) -> Vec<(InstId, u64, u64)> {
        let mut v: Vec<(InstId, u64, u64)> = self
            .branch_counts
            .iter()
            .map(|(&i, &(t, n))| (i, t, n))
            .collect();
        v.sort();
        v
    }

    /// Just the printed values (a common assertion in tests).
    pub fn printed(&self) -> Vec<i64> {
        self.output
            .iter()
            .filter_map(|e| match e {
                OutputEvent::Print(v) => Some(*v),
                OutputEvent::Call(..) => None,
            })
            .collect()
    }

    /// Whether two executions are observationally equivalent: same output
    /// trace and same final memory. Final *register* state is deliberately
    /// excluded — renaming and speculation legitimately change dead
    /// registers.
    pub fn equivalent(&self, other: &ExecOutcome) -> bool {
        self.output == other.output && self.memory == other.memory
    }

    /// Describes the first observable difference from `other` (the first
    /// diverging output event, then the first differing memory word), or
    /// `None` when the two outcomes are [equivalent](Self::equivalent).
    /// Differential testing harnesses use this to turn a bare "not
    /// equivalent" into an actionable diagnostic.
    pub fn explain_difference(&self, other: &ExecOutcome) -> Option<String> {
        for (i, (a, b)) in self.output.iter().zip(other.output.iter()).enumerate() {
            if a != b {
                return Some(format!("output[{i}]: {a:?} vs {b:?}"));
            }
        }
        if self.output.len() != other.output.len() {
            return Some(format!(
                "output length: {} events vs {} events",
                self.output.len(),
                other.output.len()
            ));
        }
        let addrs: std::collections::BTreeSet<i64> = self
            .memory
            .keys()
            .chain(other.memory.keys())
            .copied()
            .collect();
        for addr in addrs {
            let a = self.memory.get(&addr);
            let b = other.memory.get(&addr);
            if a != b {
                let show = |v: Option<&i64>| match v {
                    Some(v) => v.to_string(),
                    None => "<unwritten>".to_owned(),
                };
                return Some(format!("memory[{addr:#x}]: {} vs {}", show(a), show(b)));
            }
        }
        None
    }
}

#[derive(Debug, Default)]
struct State {
    gpr: HashMap<u32, i64>,
    fpr: HashMap<u32, f64>,
    cr: HashMap<u32, u8>,
    mem: BTreeMap<i64, i64>,
}

impl State {
    fn read_g(&self, r: Reg) -> i64 {
        debug_assert_eq!(r.class(), RegClass::Gpr);
        self.gpr.get(&r.index()).copied().unwrap_or(0)
    }
    fn write_g(&mut self, r: Reg, v: i64) {
        self.gpr.insert(r.index(), v);
    }
    fn read_f(&self, r: Reg) -> f64 {
        self.fpr.get(&r.index()).copied().unwrap_or(0.0)
    }
    fn write_f(&mut self, r: Reg, v: f64) {
        self.fpr.insert(r.index(), v);
    }
    fn read_cr(&self, r: Reg) -> u8 {
        self.cr.get(&r.index()).copied().unwrap_or(0)
    }
    fn write_cr(&mut self, r: Reg, v: u8) {
        self.cr.insert(r.index(), v);
    }
    fn load(&self, mem: &MemRef, base: i64) -> Result<i64, ExecError> {
        let addr = base.wrapping_add(mem.disp);
        if addr % 4 != 0 {
            return Err(ExecError::Unaligned { addr });
        }
        Ok(self.mem.get(&addr).copied().unwrap_or(0))
    }
    fn store(&mut self, mem: &MemRef, base: i64, v: i64) -> Result<(), ExecError> {
        let addr = base.wrapping_add(mem.disp);
        if addr % 4 != 0 {
            return Err(ExecError::Unaligned { addr });
        }
        self.mem.insert(addr, v);
        Ok(())
    }
}

fn fx_eval(op: FxBinOp, a: i64, b: i64) -> i64 {
    // One shared definition of the total fixed point semantics lives on
    // FxBinOp (the constant folder uses the same).
    op.eval(a, b)
}

fn fp_eval(op: FpBinOp, a: f64, b: f64) -> f64 {
    match op {
        FpBinOp::Add => a + b,
        FpBinOp::Sub => a - b,
        FpBinOp::Mul => a * b,
        FpBinOp::Div => a / b,
    }
}

fn cmp_bits(ord: std::cmp::Ordering) -> u8 {
    match ord {
        std::cmp::Ordering::Less => 0x1,
        std::cmp::Ordering::Greater => 0x2,
        std::cmp::Ordering::Equal => 0x4,
    }
}

/// Deterministic stand-in semantics for an opaque call: each def receives
/// a value mixed from the callee name, the argument values and the def's
/// position. Deterministic so that differential testing works.
fn call_value(name: &str, args: &[i64], slot: usize) -> i64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for byte in name.bytes() {
        mix(byte as u64);
    }
    for &a in args {
        mix(a as u64);
    }
    mix(slot as u64);
    h as i64
}

/// Runs `f` with the given initial memory (`(byte address, value)` pairs).
///
/// # Errors
///
/// Returns [`ExecError::StepLimit`] when the dynamic instruction budget is
/// exhausted and [`ExecError::Unaligned`] on a misaligned access.
pub fn execute(
    f: &Function,
    initial_memory: &[(i64, i64)],
    config: &ExecConfig,
) -> Result<ExecOutcome, ExecError> {
    let mut st = State::default();
    for &(addr, v) in initial_memory {
        if addr % 4 != 0 {
            return Err(ExecError::Unaligned { addr });
        }
        st.mem.insert(addr, v);
    }
    let mut output = Vec::new();
    let mut steps = 0u64;
    let mut block_trace = Vec::new();
    let mut branch_counts: HashMap<InstId, (u64, u64)> = HashMap::new();
    let mut next: Option<BlockId> = Some(f.entry());

    while let Some(bid) = next {
        block_trace.push(bid);
        let block = f.block(bid);
        let mut transferred = false;
        for inst in block.insts() {
            steps += 1;
            if steps > config.max_steps {
                return Err(ExecError::StepLimit { steps });
            }
            match &inst.op {
                Op::Load { rt, mem } => {
                    let v = st.load(mem, st.read_g(mem.base))?;
                    if rt.class() == RegClass::Fpr {
                        st.write_f(*rt, f64::from_bits(v as u64));
                    } else {
                        st.write_g(*rt, v);
                    }
                }
                Op::LoadUpdate { rt, mem } => {
                    let base = st.read_g(mem.base);
                    let v = st.load(mem, base)?;
                    if rt.class() == RegClass::Fpr {
                        st.write_f(*rt, f64::from_bits(v as u64));
                    } else {
                        st.write_g(*rt, v);
                    }
                    st.write_g(mem.base, base.wrapping_add(mem.disp));
                }
                Op::Store { rs, mem } => {
                    let v = if rs.class() == RegClass::Fpr {
                        st.read_f(*rs).to_bits() as i64
                    } else {
                        st.read_g(*rs)
                    };
                    st.store(mem, st.read_g(mem.base), v)?;
                }
                Op::StoreUpdate { rs, mem } => {
                    let base = st.read_g(mem.base);
                    let v = if rs.class() == RegClass::Fpr {
                        st.read_f(*rs).to_bits() as i64
                    } else {
                        st.read_g(*rs)
                    };
                    st.store(mem, base, v)?;
                    st.write_g(mem.base, base.wrapping_add(mem.disp));
                }
                Op::LoadImm { rt, imm } => st.write_g(*rt, *imm),
                Op::Move { rt, rs } => match rt.class() {
                    RegClass::Gpr => {
                        let v = st.read_g(*rs);
                        st.write_g(*rt, v);
                    }
                    RegClass::Fpr => {
                        let v = st.read_f(*rs);
                        st.write_f(*rt, v);
                    }
                    RegClass::Cr => {
                        let v = st.read_cr(*rs);
                        st.write_cr(*rt, v);
                    }
                },
                Op::Fx { op, rt, ra, rb } => {
                    let v = fx_eval(*op, st.read_g(*ra), st.read_g(*rb));
                    st.write_g(*rt, v);
                }
                Op::FxImm { op, rt, ra, imm } => {
                    let v = fx_eval(*op, st.read_g(*ra), *imm);
                    st.write_g(*rt, v);
                }
                Op::Fp { op, rt, ra, rb } => {
                    let v = fp_eval(*op, st.read_f(*ra), st.read_f(*rb));
                    st.write_f(*rt, v);
                }
                Op::Compare { crt, ra, rb } => {
                    let bits = cmp_bits(st.read_g(*ra).cmp(&st.read_g(*rb)));
                    st.write_cr(*crt, bits);
                }
                Op::CompareImm { crt, ra, imm } => {
                    let bits = cmp_bits(st.read_g(*ra).cmp(imm));
                    st.write_cr(*crt, bits);
                }
                Op::FpCompare { crt, ra, rb } => {
                    let (a, b) = (st.read_f(*ra), st.read_f(*rb));
                    // NaN compares as "equal bit clear, lt/gt clear".
                    let bits = a.partial_cmp(&b).map_or(0, cmp_bits);
                    st.write_cr(*crt, bits);
                }
                Op::BranchCond {
                    target,
                    cr,
                    bit,
                    when,
                } => {
                    let set = st.read_cr(*cr) & bit.mask() != 0;
                    let counts = branch_counts.entry(inst.id).or_insert((0, 0));
                    if set == *when {
                        counts.0 += 1;
                        next = Some(*target);
                        transferred = true;
                    } else {
                        counts.1 += 1;
                    }
                }
                Op::Branch { target } => {
                    next = Some(*target);
                    transferred = true;
                }
                Op::Ret => {
                    next = None;
                    transferred = true;
                }
                Op::Call(call) => {
                    let args: Vec<i64> = call.uses.iter().map(|u| st.read_g(*u)).collect();
                    for (slot, d) in call.defs.iter().enumerate() {
                        st.write_g(*d, call_value(&call.name, &args, slot));
                    }
                    output.push(OutputEvent::Call(call.name.clone(), args));
                }
                Op::Print { rs } => output.push(OutputEvent::Print(st.read_g(*rs))),
            }
        }
        if !transferred {
            // Fall through to the next layout block.
            let n = bid.index() + 1;
            next = if n < f.num_blocks() {
                Some(BlockId::new(n as u32))
            } else {
                None
            };
        }
    }

    Ok(ExecOutcome {
        output,
        memory: st.mem,
        steps,
        block_trace,
        branch_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::parse_function;
    use gis_workloads::minmax;

    fn run(text: &str) -> ExecOutcome {
        let f = parse_function(text).expect("parses");
        execute(&f, &[], &ExecConfig::default()).expect("executes")
    }

    #[test]
    fn explain_difference_pinpoints_first_divergence() {
        let a = run("func a\nE:\n LI r1=3\n PRINT r1\n RET\n");
        let b = run("func a\nE:\n LI r1=5\n PRINT r1\n RET\n");
        assert!(a.explain_difference(&a).is_none());
        let why = a.explain_difference(&b).expect("differs");
        assert!(why.contains("output[0]"), "{why}");
        assert!(why.contains("3") && why.contains("5"), "{why}");

        let c = run("func a\nE:\n LI r1=4096\n LI r2=9\n ST r2=>*(r1,0)\n RET\n");
        let d = run("func a\nE:\n LI r1=4096\n LI r2=8\n ST r2=>*(r1,4)\n RET\n");
        let why = c.explain_difference(&d).expect("differs");
        assert!(why.contains("memory[0x1000]"), "{why}");
        assert!(why.contains("<unwritten>"), "{why}");
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run("func a\nE:\n LI r1=6\n LI r2=7\n MUL r3=r1,r2\n PRINT r3\n\
             DIVI r4=r3,0\n PRINT r4\n SI r5=r1,10\n PRINT r5\n RET\n");
        assert_eq!(out.printed(), vec![42, 0, -4]);
    }

    #[test]
    fn loads_stores_and_update_forms() {
        let out = run("func m\nE:\n LI r9=4096\n LI r1=11\n ST r1=>a(r9,0)\n\
             LU r2,r9=a(r9,0)\n PRINT r2\n PRINT r9\n RET\n");
        // LU with disp 0: loads the stored 11, base unchanged (+0).
        assert_eq!(out.printed(), vec![11, 4096]);
        assert_eq!(out.memory.get(&4096), Some(&11));
    }

    #[test]
    fn branches_and_loop() {
        let out = run(
            "func l\nE:\n LI r1=0\n LI r2=5\nL:\n AI r1=r1,1\n C cr0=r1,r2\n BT L,cr0,0x1/lt\nX:\n PRINT r1\n RET\n",
        );
        assert_eq!(out.printed(), vec![5]);
        // Block trace: entry, 5 loop iterations, exit.
        assert_eq!(out.block_trace.len(), 7);
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let f = parse_function("func i\nL:\n B L\n").expect("parses");
        let err = execute(&f, &[], &ExecConfig { max_steps: 100 }).unwrap_err();
        assert!(matches!(err, ExecError::StepLimit { .. }));
    }

    #[test]
    fn unaligned_access_detected() {
        let f = parse_function("func u\nE:\n LI r9=3\n L r1=a(r9,0)\n RET\n").expect("parses");
        let err = execute(&f, &[], &ExecConfig::default()).unwrap_err();
        assert_eq!(err, ExecError::Unaligned { addr: 3 });
    }

    #[test]
    fn calls_are_deterministic_and_traced() {
        let a = run("func c\nE:\n LI r1=5\n CALL f(r1)->(r2)\n PRINT r2\n RET\n");
        let b = run("func c\nE:\n LI r1=5\n CALL f(r1)->(r2)\n PRINT r2\n RET\n");
        assert_eq!(a.output, b.output);
        assert!(
            matches!(a.output[0], OutputEvent::Call(ref n, ref args) if n == "f" && args == &[5])
        );
    }

    #[test]
    fn minmax_matches_reference_on_many_inputs() {
        let arrays: Vec<Vec<i64>> = vec![
            vec![5],
            vec![5, 5, 5],
            vec![3, 9, 1],
            vec![9, 7, 3],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            vec![-5, 100, -200, 3, 17, 0, 8, -1, 2],
        ];
        for a in arrays {
            let f = minmax::figure2_function(a.len() as i64);
            let out =
                execute(&f, &minmax::memory_image(&a), &ExecConfig::default()).expect("executes");
            let (min, max) = minmax::reference_minmax(&a);
            assert_eq!(out.printed(), vec![min, max], "array {a:?}");
        }
    }

    #[test]
    fn equivalence_ignores_registers_but_not_output() {
        let a = run("func x\nE:\n LI r1=1\n PRINT r1\n LI r9=99\n RET\n");
        let b = run("func x\nE:\n LI r5=1\n PRINT r5\n RET\n");
        assert!(a.equivalent(&b), "dead registers don't matter");
        let c = run("func x\nE:\n LI r1=2\n PRINT r1\n RET\n");
        assert!(!a.equivalent(&c));
    }
}
