//! The correctness oracle: every scheduled output is executed and
//! compared with the *unscheduled* function the front end produced,
//! never with another output of the scheduler.

use gis_core::{compile, SchedConfig};
use gis_ir::hash::fnv64_str;
use gis_ir::Function;
use gis_machine::MachineDescription;
use gis_sim::{execute, ExecConfig, ExecOutcome, TimingSim};
use std::time::{Duration, Instant};

/// An unscheduled function, its input memory and what it does.
pub struct Reference {
    pub function: Function,
    pub memory: Vec<(i64, i64)>,
    pub outcome: ExecOutcome,
}

impl Reference {
    /// Runs the front end's output once to learn its behaviour.
    pub fn new(function: Function, memory: Vec<(i64, i64)>) -> Result<Self, String> {
        let outcome = execute(&function, &memory, &ExecConfig::default())
            .map_err(|e| format!("reference execution of {}: {e}", function.name()))?;
        Ok(Reference {
            function,
            memory,
            outcome,
        })
    }

    /// Static instruction count of the unscheduled function.
    pub fn insts(&self) -> usize {
        self.function.num_insts()
    }
}

/// What checking one scheduled output found.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    /// FNV-64 of the printed schedule (the hash the daemon reports).
    pub hash: u64,
    /// Static instructions of the schedule.
    pub insts: usize,
    /// Dynamic cycles on the target machine.
    pub cycles: u64,
    /// Dynamic instructions executed.
    pub steps: u64,
    pub execute: Duration,
    pub timing: Duration,
}

/// Executes `scheduled`, insists it behaves as `reference` does, and
/// times it on `machine`.
pub fn check(
    scheduled: &Function,
    reference: &Reference,
    machine: &MachineDescription,
) -> Result<Checked, String> {
    let t0 = Instant::now();
    let out = execute(scheduled, &reference.memory, &ExecConfig::default())
        .map_err(|e| format!("{}: scheduled output fails to run: {e}", scheduled.name()))?;
    let execute_time = t0.elapsed();
    if !reference.outcome.equivalent(&out) {
        let diff = reference
            .outcome
            .explain_difference(&out)
            .unwrap_or_default();
        return Err(format!(
            "{}: scheduled output behaves differently from the unscheduled function: {diff}",
            scheduled.name()
        ));
    }
    let t1 = Instant::now();
    let cycles = TimingSim::new(scheduled, machine)
        .run(&out.block_trace)
        .cycles;
    Ok(Checked {
        hash: fnv64_str(&scheduled.to_string()),
        insts: scheduled.num_insts(),
        cycles,
        steps: out.steps,
        execute: execute_time,
        timing: t1.elapsed(),
    })
}

/// Dynamic cycles of the §6 BASE compiler's output (basic-block
/// scheduling only) — the denominator-free side of `sched_speedup`.
pub fn bb_only_cycles(reference: &Reference, machine: &MachineDescription) -> Result<u64, String> {
    let mut f = reference.function.clone();
    compile(&mut f, machine, &SchedConfig::base())
        .map_err(|e| format!("{}: bb-only compile: {e}", f.name()))?;
    check(&f, reference, machine).map(|c| c.cycles)
}
