//! What compile-large and kernel-sweep share: the in-process operation
//! (front end + `compile` of one generated source, then the oracle
//! check, with optional spans around each layer call) and the loop that
//! repeats a fixed list of operations pass after pass.

use crate::layers::{Counts, Layers};
use crate::oracle::{check, Checked, Reference};
use crate::report::{median, ms, process_cpu_s, ratio, Report};
use crate::trace::{standalone_layers, Tracer, PASS_LAYERS};
use crate::Args;
use gis_core::{compile, region_memo_clear, region_memo_counters, SchedConfig};
use gis_machine::MachineDescription;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One unit of work: a source to compile for a machine under a config,
/// and the reference its output must match.
pub struct Op<'a> {
    pub source: &'a str,
    pub reference: &'a Reference,
    pub machine: &'a MachineDescription,
    pub config: &'a SchedConfig,
}

/// What one operation produced.
pub struct Done {
    /// IR instructions the front end produced (the compile's input size).
    pub input_insts: usize,
    /// Wall time of front end + `compile`.
    pub compile: Duration,
    pub checked: Checked,
}

/// What a traced pass accumulates besides its spans.
#[derive(Debug, Default)]
struct Tally {
    pub counts: Counts,
    /// Standalone whole-function liveness time × the pipeline's
    /// `liveness_full`, summed over operations.
    pub liveness_est_ms: f64,
}

/// Runs `op` untraced.
pub fn run(op: &Op) -> Result<Done, String> {
    let t0 = Instant::now();
    let program = gis_tinyc::compile_program(op.source).map_err(|e| format!("front end: {e}"))?;
    let input_insts = program.function.num_insts();
    let mut f = program.function;
    compile(&mut f, op.machine, op.config).map_err(|e| format!("{}: compile: {e}", f.name()))?;
    let compile_time = t0.elapsed();
    let checked = check(&f, op.reference, op.machine)?;
    Ok(Done {
        input_insts,
        compile: compile_time,
        checked,
    })
}

/// Runs `op` with a span around every layer call (one root span per
/// operation, identified by `id`), plus the standalone layer calls.
fn run_traced(op: &Op, t: &mut Tracer, id: u64, tally: &mut Tally) -> Result<Done, String> {
    let root = t.begin("op", id, None);
    let t0 = Instant::now();
    let span = t.begin("frontend.parse", id, Some(root));
    let program = gis_tinyc::compile_program(op.source);
    t.end(span);
    let input = program.map_err(|e| format!("front end: {e}"))?.function;
    let mut f = input.clone();
    let span = t.begin("core.compile", id, Some(root));
    let result = compile(&mut f, op.machine, op.config);
    t.end(span);
    let compile_time = t0.elapsed();
    let stats = result.map_err(|e| format!("{}: compile: {e}", f.name()))?;
    t.passes(span, &stats);

    let span = t.begin("standalone", id, Some(root));
    let liveness_ms = standalone_layers(t, span, &input, &f, op.machine, op.config);
    t.end(span);
    tally.liveness_est_ms += liveness_ms * stats.liveness_full as f64;

    let span = t.begin("oracle", id, Some(root));
    let checked = check(&f, op.reference, op.machine);
    t.end(span);
    let checked = checked?;
    t.child("sim.execute", span, checked.execute.as_nanos() as u64);
    t.child("sim.timing", span, checked.timing.as_nanos() as u64);
    t.end(root);
    tally.counts.add(&stats);
    tally.counts.steps += checked.steps;
    Ok(Done {
        input_insts: input.num_insts(),
        compile: compile_time,
        checked,
    })
}

/// Fills the time layers of `layers` from the spans of `passes` traced
/// passes (per-pass means, summed over workers), and the coverage: the
/// summed self time of the layers on the compile path ÷ that path's wall
/// time. What no layer accounts for is `core.compile`'s own self time.
fn span_layers(t: &Tracer, passes: usize, layers: &mut Layers) {
    let per = |name: &str| t.total_ms(name) / passes.max(1) as f64;
    layers.frontend_parse_ms = per("frontend.parse");
    layers.cfg_analyze_ms = per("cfg.analyze");
    layers.rename_standalone_ms = per("pdg.rename_standalone");
    layers.liveness_ms = per("pdg.liveness");
    layers.deps_ms = per("pdg.deps");
    layers.execute_ms = per("sim.execute");
    layers.timing_ms = per("sim.timing");
    let [rename, unroll, global, rotate, final_bb] = PASS_LAYERS.map(per);
    layers.rename_ms = rename;
    layers.unroll_ms = unroll;
    layers.global_ms = global;
    layers.rotate_ms = rotate;
    layers.final_bb_ms = final_bb;
    let unaccounted = t.self_ms("core.compile");
    layers.compile_other_ms = unaccounted / passes.max(1) as f64;
    let wall = t.total_ms("frontend.parse") + t.total_ms("core.compile");
    layers.coverage = ratio(wall - unaccounted, wall);
}

/// Front end + compile latencies of a fixed operation list, repeated
/// pass after pass. Each operation is summarised by its median, which
/// keeps a burst of interference from other tenants of the machine out
/// of the figures.
pub struct Repeats {
    insts: Vec<usize>,
    times: Vec<Vec<Duration>>,
}

impl Repeats {
    pub fn new(ops: usize) -> Self {
        Repeats {
            insts: vec![0; ops],
            times: vec![Vec::new(); ops],
        }
    }

    pub fn add(&mut self, op: usize, done: &Done) {
        self.insts[op] = done.input_insts;
        self.times[op].push(done.compile);
    }

    /// Per-operation median latency in ms, for operations that succeeded.
    pub fn medians_ms(&self) -> Vec<f64> {
        self.times
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| median(&t.iter().map(|d| ms(*d)).collect::<Vec<_>>()))
            .collect()
    }

    /// Input IR instructions ÷ summed median latency.
    pub fn insts_per_s(&self) -> f64 {
        let insts: usize = (0..self.insts.len())
            .filter(|&i| !self.times[i].is_empty())
            .map(|i| self.insts[i])
            .sum();
        let ms: f64 = self.medians_ms().iter().sum();
        ratio(insts as f64, ms / 1e3)
    }

    /// Every sample as `(input insts, latency)`.
    pub fn samples(&self) -> Vec<(usize, Duration)> {
        self.insts
            .iter()
            .zip(&self.times)
            .flat_map(|(&n, t)| t.iter().map(move |&d| (n, d)))
            .collect()
    }
}

/// ns per input instruction of the largest function ÷ that of the
/// smallest, from `(input insts, compile time)` samples (per size, the
/// median sample).
pub fn ns_per_inst_ratio(samples: &[(usize, Duration)]) -> f64 {
    let (Some(min), Some(max)) = (
        samples.iter().map(|s| s.0).min(),
        samples.iter().map(|s| s.0).max(),
    ) else {
        return 0.0;
    };
    let ns_per_inst = |size: usize| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.0 == size)
            .map(|s| s.1.as_nanos() as f64 / size.max(1) as f64)
            .collect();
        median(&v)
    };
    ratio(ns_per_inst(max), ns_per_inst(min))
}

/// When the region memo is emptied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoReset {
    /// Before every operation: each compile starts cold.
    PerOp,
    /// Before every pass: operations of one pass may share regions.
    PerPass,
}

/// What repeating a list of operations produced.
pub struct Passes {
    pub repeats: Repeats,
    /// Each operation's first result; every later one must match its hash.
    pub first: Vec<Option<Checked>>,
    /// Wall time of each untraced pass, ms.
    pub untraced_ms: Vec<f64>,
    /// Process CPU time ÷ (wall × jobs) of each untraced pass.
    pub cpu_util: Vec<f64>,
    /// Wall time of each traced pass, ms.
    pub traced_ms: Vec<f64>,
    pub tracer: Tracer,
    /// The first traced pass's counts; every later one must match.
    pub counts: Counts,
    pub liveness_est_ms: f64,
    /// Region memo counters summed over the traced passes, and the
    /// entries held at the end of the last one.
    pub memo: (u64, u64, u64),
}

/// Runs `ops` pass after pass until `args.seconds` have passed (at least
/// once). Each pass runs on `threads` workers that take operations in
/// order from a shared counter; `jobs` is how many threads that keeps busy
/// (for `core.parallel.cpu_util`). A traced run follows every untraced
/// pass with a traced pass over the same operations. Failures and hash
/// mismatches go to `r`; `name` labels an operation in them.
pub fn run_passes(
    ops: &[Op],
    name: impl Fn(usize) -> String,
    memo_reset: MemoReset,
    threads: usize,
    jobs: usize,
    args: &Args,
    r: &mut Report,
) -> Passes {
    let mut p = Passes {
        repeats: Repeats::new(ops.len()),
        first: vec![None; ops.len()],
        untraced_ms: Vec::new(),
        cpu_util: Vec::new(),
        traced_ms: Vec::new(),
        tracer: Tracer::new(),
        counts: Counts::default(),
        liveness_est_ms: 0.0,
        memo: (0, 0, 0),
    };
    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let cpu0 = process_cpu_s();
        let workers = pass(ops, threads, memo_reset, None);
        let wall = t0.elapsed();
        p.untraced_ms.push(ms(wall));
        p.cpu_util
            .push((process_cpu_s() - cpu0) / (wall.as_secs_f64() * jobs as f64));
        for (i, result) in results(workers.iter().flat_map(|w| &w.results)) {
            r.attempted += 1;
            match result {
                Ok(done) => {
                    p.repeats.add(i, done);
                    p.agree(i, &name, done.checked, "a repeat", r);
                }
                Err(e) => r.fail(format!("{}: {e}", name(i))),
            }
        }

        if args.trace {
            let t0 = Instant::now();
            let first_id = (p.traced_ms.len() * ops.len()) as u64;
            let workers = pass(
                ops,
                threads,
                memo_reset,
                Some((p.tracer.origin(), first_id)),
            );
            p.traced_ms.push(ms(t0.elapsed()));
            for (i, result) in results(workers.iter().flat_map(|w| &w.results)) {
                match result {
                    Ok(done) => p.agree(i, &name, done.checked, "the traced pass", r),
                    Err(e) => r.fail(format!("{} (traced): {e}", name(i))),
                }
            }
            let mut counts = Counts::default();
            for w in workers {
                counts.merge(&w.tally.counts);
                p.liveness_est_ms += w.tally.liveness_est_ms;
                p.memo.0 += w.memo.0;
                p.memo.1 += w.memo.1;
                p.memo.2 = p.memo.2.max(w.memo.2);
                p.tracer.absorb(w.tracer);
            }
            if memo_reset == MemoReset::PerPass {
                let c = region_memo_counters();
                p.memo.0 += c.hits;
                p.memo.1 += c.misses;
                p.memo.2 = c.entries;
            }
            if p.traced_ms.len() == 1 {
                p.counts = counts;
            } else if p.counts != counts {
                r.fail(format!(
                    "layer counts differ between traced passes: {:?} vs {counts:?}",
                    p.counts
                ));
            }
        }
        if start.elapsed() >= seconds {
            break;
        }
    }
    p
}

/// One worker's share of a pass.
struct Worker {
    results: Vec<(usize, Result<Done, String>)>,
    tracer: Tracer,
    tally: Tally,
    /// Region memo hits, misses and entries (per-operation resets only).
    memo: (u64, u64, u64),
}

/// One pass over `ops` on `threads` workers. With `trace`, the workers
/// record spans against the given origin, numbering operations from the
/// given id.
fn pass(
    ops: &[Op],
    threads: usize,
    memo_reset: MemoReset,
    trace: Option<(Instant, u64)>,
) -> Vec<Worker> {
    assert!(
        threads == 1 || memo_reset == MemoReset::PerPass,
        "a per-operation memo reset would clear the memo under another worker"
    );
    if memo_reset == MemoReset::PerPass {
        region_memo_clear();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut w = Worker {
            results: Vec::new(),
            tracer: trace.map_or_else(Tracer::new, |(origin, _)| Tracer::starting_at(origin)),
            tally: Tally::default(),
            memo: (0, 0, 0),
        };
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(op) = ops.get(i) else { break };
            if memo_reset == MemoReset::PerOp {
                region_memo_clear();
            }
            let result = match trace {
                None => run(op),
                Some((_, first_id)) => {
                    run_traced(op, &mut w.tracer, first_id + i as u64, &mut w.tally)
                }
            };
            if memo_reset == MemoReset::PerOp {
                let c = region_memo_counters();
                w.memo = (w.memo.0 + c.hits, w.memo.1 + c.misses, c.entries);
            }
            w.results.push((i, result));
        }
        w
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark worker panicked"))
            .collect()
    })
}

/// Workers' results in operation order.
fn results<'a>(
    all: impl Iterator<Item = &'a (usize, Result<Done, String>)>,
) -> Vec<(usize, &'a Result<Done, String>)> {
    let mut v: Vec<_> = all.map(|(i, res)| (*i, res)).collect();
    v.sort_by_key(|&(i, _)| i);
    v
}

impl Passes {
    /// Records operation `i`'s first result, or checks a later one
    /// against it.
    pub fn agree(
        &mut self,
        i: usize,
        name: impl Fn(usize) -> String,
        got: Checked,
        what: &str,
        r: &mut Report,
    ) {
        match self.first[i] {
            None => self.first[i] = Some(got),
            Some(want) if want.hash != got.hash => r.fail(format!(
                "{}: schedule hash {:016x} on {what} differs from {:016x}",
                name(i),
                got.hash,
                want.hash
            )),
            Some(_) => {}
        }
    }

    /// The per-layer metrics of a traced run (per traced pass).
    pub fn layers(&self) -> Layers {
        let passes = self.traced_ms.len().max(1);
        let mut layers = Layers::default();
        span_layers(&self.tracer, passes, &mut layers);
        layers.counts = self.counts;
        layers.liveness_est_ms = self.liveness_est_ms / passes as f64;
        layers.ns_per_inst_ratio = ns_per_inst_ratio(&self.repeats.samples());
        layers.cpu_util = median(&self.cpu_util);
        layers.memo_hits = self.memo.0 / passes as u64;
        layers.memo_misses = self.memo.1 / passes as u64;
        layers.memo_entries = self.memo.2;
        layers.untraced_ms = median(&self.untraced_ms);
        layers.traced_ms = median(&self.traced_ms);
        layers
    }

    /// Operations per second of an untraced pass (median pass).
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.first.len() as f64, median(&self.untraced_ms) / 1e3)
    }
}
