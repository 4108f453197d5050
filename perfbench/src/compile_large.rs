//! `compile-large`: whole-function compiles of large seeded
//! `many_loops_scaled` functions, in-process, at `jobs = 2`.
//!
//! Why: compile time is super-linear in function size here; the two
//! global passes dominate, through per-region set-up (whole-function
//! liveness, dependence build) and the parallel merge. Region-memo
//! splicing is bypassed: the memo is cleared before every function, so
//! it only ever misses and records.

use crate::inproc::{self, MemoReset, Op};
use crate::layers::EndToEnd;
use crate::oracle::{bb_only_cycles, Reference};
use crate::report::{geomean, median, percentile, Report};
use crate::{setup_median, sub_seed, Args};
use gis_core::{region_memo_clear, SchedConfig};
use gis_machine::MachineDescription;
use gis_workloads::synth::many_loops_scaled;

/// `(loops, statements per loop)` of the drawn functions, from the
/// `many-loops-m` preset (about 4k IR instructions) to `many-loops-l`
/// (about 19k). The seed draws each function's body. The median size
/// class is drawn three times, so `compile_ms_p50` rests on three
/// functions rather than one.
const CLASSES: [(usize, usize); 7] = [
    (48, 4),
    (64, 6),
    (72, 7),
    (72, 7),
    (72, 7),
    (80, 8),
    (96, 10),
];

const JOBS: usize = 2;

struct Input {
    source: String,
    reference: Reference,
}

impl Input {
    fn op<'a>(&'a self, machine: &'a MachineDescription, config: &'a SchedConfig) -> Op<'a> {
        Op {
            source: &self.source,
            reference: &self.reference,
            machine,
            config,
        }
    }
}

fn inputs(seed: u64) -> Result<Vec<Input>, String> {
    CLASSES
        .iter()
        .enumerate()
        .map(|(i, &(loops, stmts))| {
            let w = many_loops_scaled(loops, stmts, sub_seed(seed, i as u64));
            Ok(Input {
                reference: Reference::new(w.program.function, w.memory)?,
                source: w.source,
            })
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let machine = MachineDescription::rs6k();
    let mut config = SchedConfig::speculative();
    config.jobs = JOBS;
    let inputs = match inputs(args.seed) {
        Ok(v) => v,
        Err(e) => {
            r.fail(e);
            return r;
        }
    };

    // Set-up: a warm-up compile of a small function of the same family
    // (the size of the `many-loops-s` preset).
    let warm = many_loops_scaled(16, 2, sub_seed(args.seed, 0x5e7));
    let warm = Reference::new(warm.program.function, warm.memory).map(|reference| Input {
        reference,
        source: warm.source,
    });
    let setup_s = warm.and_then(|warm| {
        setup_median(|| {
            region_memo_clear();
            inproc::run(&warm.op(&machine, &config)).map(|_| ())
        })
    });
    let setup_s = match setup_s {
        Ok(s) => s,
        Err(e) => {
            r.fail(format!("set-up: {e}"));
            return r;
        }
    };

    let ops: Vec<Op> = inputs.iter().map(|i| i.op(&machine, &config)).collect();
    let name = |i: usize| format!("function {i}");
    let p = inproc::run_passes(&ops, name, MemoReset::PerOp, 1, JOBS, args, &mut r);

    // Oracle work outside the timed window: the bb-only baseline, and
    // the same schedule at jobs = 1 for the smallest function.
    let mut speedups = Vec::new();
    let (mut sim_cycles, mut code_insts) = (0, 0);
    for (input, c) in inputs.iter().zip(&p.first) {
        let Some(c) = c else { continue };
        sim_cycles += c.cycles;
        code_insts += c.insts as u64;
        match bb_only_cycles(&input.reference, &machine) {
            Ok(bb) => speedups.push(bb as f64 / c.cycles as f64),
            Err(e) => r.fail(e),
        }
    }
    let mut serial = config.clone();
    serial.jobs = 1;
    region_memo_clear();
    r.attempted += 1;
    match inproc::run(&inputs[0].op(&machine, &serial)) {
        Ok(done) if p.first[0].map(|c| c.hash) != Some(done.checked.hash) => r.fail(format!(
            "function 0: schedule hash at jobs 1 ({:016x}) differs from jobs {JOBS}",
            done.checked.hash
        )),
        Ok(_) => {}
        Err(e) => r.fail(format!("function 0 at jobs 1: {e}")),
    }

    if args.trace {
        p.layers().emit(&mut r);
        r.spans = Some(p.tracer.jsonl());
    } else {
        let latencies = p.repeats.medians_ms();
        EndToEnd {
            compile_insts_per_s: p.repeats.insts_per_s(),
            compile_ms_p50: median(&latencies),
            compile_ms_p99: percentile(&latencies, 99.0),
            latency_samples: latencies.len(),
            ops_per_s: p.ops_per_s(),
            sim_cycles,
            sched_speedup: geomean(&speedups),
            code_insts,
            setup_s,
        }
        .emit(&mut r);
    }
    r
}
