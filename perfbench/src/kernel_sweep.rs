//! `kernel-sweep`: the experiment-matrix shape, repeated. Every sweep
//! compiles each kernel × machine × policy cell cold (jobs = 1, region
//! memo cleared per sweep), executes it and times it in cycles against
//! a bb-only baseline. Two worker threads take cells in order, as a
//! `make -j2` build would; on a machine whose two CPUs run at different
//! speeds from moment to moment, that also averages the two.
//!
//! Why: the functions are small, so fixed per-compile costs, the final
//! basic-block pass, the machine model and the simulator dominate. A
//! fix to how compile time scales with function size should not move
//! this workload; any change to schedule quality shows in its cycles.

use crate::inproc::{self, MemoReset, Op};
use crate::layers::EndToEnd;
use crate::oracle::{bb_only_cycles, Reference};
use crate::report::{geomean, median, percentile, Report};
use crate::{setup_median, sub_seed, Args};
use gis_core::{region_memo_clear, SchedConfig};
use gis_machine::MachineDescription;
use gis_workloads::rng::XorShift64Star;
use gis_workloads::spec::Workload;
use gis_workloads::{kernels, spec, synth};
use std::fmt::Write as _;

/// Threads the sweep runs cells on (each cell compiles at jobs = 1).
const WORKERS: usize = 2;

struct Kernel {
    name: &'static str,
    source: String,
    reference: Reference,
}

/// The paper's Figure 1 kernel over a seeded array of `n` (odd) values.
fn minmax_source(n: usize) -> String {
    let mut src = String::new();
    let _ = write!(
        src,
        "int a[{}];\nint n = {n};\nvoid minmax() {{\n\
         int min = a[0]; int max = min; int i = 1;\n\
         while (i < n) {{\n\
         int u = a[i]; int v = a[i+1];\n\
         if (u > v) {{ if (u > max) max = u; if (v < min) min = v; }}\n\
         else {{ if (v > max) max = v; if (u < min) min = u; }}\n\
         i = i + 2;\n}}\nprint(min); print(max);\n}}\n",
        n + 1
    );
    src
}

fn kernel(name: &'static str, w: Workload) -> Result<Kernel, String> {
    if w.source.is_empty() {
        return Err(format!("kernel {name} has no source text"));
    }
    Ok(Kernel {
        name,
        reference: Reference::new(w.program.function, w.memory)?,
        source: w.source,
    })
}

fn corpus(seed: u64) -> Result<Vec<Kernel>, String> {
    const MINMAX_LEN: usize = 255;
    let minmax = {
        let source = minmax_source(MINMAX_LEN);
        let program = gis_tinyc::compile_program(&source).map_err(|e| format!("minmax: {e}"))?;
        let mut rng = XorShift64Star::new(sub_seed(seed, 3));
        let a: Vec<i64> = (0..MINMAX_LEN)
            .map(|_| rng.range_i64(-5000, 5000))
            .collect();
        let memory = program.initial_memory(&[("a", &a)])?;
        Kernel {
            name: "minmax",
            reference: Reference::new(program.function, memory)?,
            source,
        }
    };
    Ok(vec![
        kernel("idct8", kernels::idct8(32))?,
        kernel("fletcher", kernels::fletcher(256))?,
        kernel("memwalk", kernels::memwalk(256))?,
        kernel(
            "dispatch-decode",
            synth::dispatch_decode(192, sub_seed(seed, 1)),
        )?,
        kernel(
            "dispatch-diamonds",
            synth::dispatch_diamonds(48, sub_seed(seed, 2)),
        )?,
        kernel("li", spec::li(256))?,
        kernel("eqntott", spec::eqntott(256))?,
        minmax,
    ])
}

fn machines() -> Vec<MachineDescription> {
    vec![
        MachineDescription::rs6k(),
        MachineDescription::issue4(),
        MachineDescription::issue8(),
    ]
}

fn policy_ladder(jobs: usize) -> Vec<(&'static str, SchedConfig)> {
    let mut dup = SchedConfig::speculative();
    dup.duplication = true;
    let mut out = vec![
        ("global", SchedConfig::useful()),
        ("spec1", SchedConfig::speculative()),
        ("dup", dup),
    ];
    for (_, c) in &mut out {
        c.jobs = jobs;
    }
    out
}

type Policies = [(&'static str, SchedConfig)];

fn cell_op<'a>(
    corpus: &'a [Kernel],
    machines: &'a [MachineDescription],
    policies: &'a Policies,
    (k, m, p): (usize, usize, usize),
) -> Op<'a> {
    Op {
        source: &corpus[k].source,
        reference: &corpus[k].reference,
        machine: &machines[m],
        config: &policies[p].1,
    }
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let corpus = match corpus(args.seed) {
        Ok(c) => c,
        Err(e) => {
            r.fail(e);
            return r;
        }
    };
    let machines = machines();
    let policies = policy_ladder(1);
    let cells: Vec<(usize, usize, usize)> = (0..corpus.len())
        .flat_map(|k| (0..machines.len()).flat_map(move |m| (0..3).map(move |p| (k, m, p))))
        .collect();
    let cell_name = |&(k, m, p): &(usize, usize, usize)| {
        format!(
            "{}/{}/{}",
            corpus[k].name,
            machines[m].name(),
            policies[p].0
        )
    };
    let op = |cell: &(usize, usize, usize), policies| cell_op(&corpus, &machines, policies, *cell);

    // Baselines, outside any timing: bb-only cycles per kernel × machine.
    let mut baseline = vec![vec![0u64; machines.len()]; corpus.len()];
    for (k, kernel) in corpus.iter().enumerate() {
        for (m, machine) in machines.iter().enumerate() {
            match bb_only_cycles(&kernel.reference, machine) {
                Ok(c) => baseline[k][m] = c,
                Err(e) => r.fail(e),
            }
        }
    }

    // Set-up: one warm-up cell (idct8 on rs6k under spec1).
    let setup_s = setup_median(|| {
        region_memo_clear();
        inproc::run(&op(&(0, 0, 1), &policies)).map(|_| ())
    });
    let setup_s = match setup_s {
        Ok(s) => s,
        Err(e) => {
            r.fail(format!("set-up: {e}"));
            return r;
        }
    };

    let ops: Vec<Op> = cells.iter().map(|cell| op(cell, &policies)).collect();
    let p = inproc::run_passes(
        &ops,
        |c| cell_name(&cells[c]),
        MemoReset::PerPass,
        WORKERS,
        WORKERS,
        args,
        &mut r,
    );

    // The same sweep at jobs = 2 must give the same schedules.
    let wide = policy_ladder(2);
    region_memo_clear();
    for (c, cell) in cells.iter().enumerate() {
        r.attempted += 1;
        match inproc::run(&op(cell, &wide)) {
            Ok(done) if p.first[c].map(|f| f.hash) != Some(done.checked.hash) => r.fail(format!(
                "{}: schedule hash at jobs 2 differs from jobs 1",
                cell_name(cell)
            )),
            Ok(_) => {}
            Err(e) => r.fail(format!("{} at jobs 2: {e}", cell_name(cell))),
        }
    }

    if args.trace {
        p.layers().emit(&mut r);
        r.spans = Some(p.tracer.jsonl());
    } else {
        let (mut sim_cycles, mut code_insts, mut speedups) = (0, 0, Vec::new());
        for (&(k, m, _), got) in cells.iter().zip(&p.first) {
            if let Some(c) = got {
                sim_cycles += c.cycles;
                code_insts += c.insts as u64;
                speedups.push(baseline[k][m] as f64 / c.cycles as f64);
            }
        }
        let latencies = p.repeats.medians_ms();
        let e2e = EndToEnd {
            compile_insts_per_s: p.repeats.insts_per_s(),
            compile_ms_p50: median(&latencies),
            compile_ms_p99: percentile(&latencies, 99.0),
            latency_samples: latencies.len(),
            ops_per_s: p.ops_per_s(),
            sim_cycles,
            sched_speedup: geomean(&speedups),
            code_insts,
            setup_s,
        };
        r.note("cells_per_s", e2e.ops_per_s, "cells/s");
        e2e.emit(&mut r);
    }
    r
}
