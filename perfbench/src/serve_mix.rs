//! `serve-mix`: an in-process daemon with 2 workers, driven in a closed
//! loop by 2 client connections (build-system callers each wait for
//! their reply). Every request carries one tiny-C function:
//!
//! * 50% exact repeats of an earlier request (whole-function cache hits);
//! * 30% edits of an earlier function with one loop's trip count changed,
//!   so every other region is byte-identical (region-memo splices);
//! * 20% fresh `many_loops_source` functions of 8/16/32 loops × 1/2/4
//!   statements.
//!
//! A request that refers to an earlier function is sent only once that
//! function's first request has been answered, so which requests hit the
//! whole-function cache, and which regions an edit can splice, do not
//! depend on thread timing.
//!
//! Why: it exercises the per-request front end, the cache key, both
//! cache tiers and renaming (the whole warm cost). Its working set
//! outgrows the region memo over a run.

use crate::layers::{Counts, EndToEnd, Layers};
use crate::oracle::{bb_only_cycles, check, Checked, Reference};
use crate::report::{geomean, median, ms, ns_to_ms, percentile, process_cpu_s, ratio, Report};
use crate::trace::{analyze, Tracer};
use crate::{setup_median, sub_seed, Args};
use gis_core::{region_memo_clear, region_memo_counters, SchedConfig};
use gis_ir::hash::fnv64_str;
use gis_machine::MachineDescription;
use gis_pdg::webs::rename_webs;
use gis_serve::{Client, FuncOutcome, FuncSpec, Lang, Listen, ServeConfig, Server};
use gis_workloads::rng::XorShift64Star;
use gis_workloads::synth::{many_loops_scaled, many_loops_source};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const MACHINE: &str = "rs6k";
/// Requests generated per run; a run stops at its deadline long before.
const STREAM: usize = 6000;
/// The deterministic metrics cover the distinct functions of this many
/// leading requests; every run completes at least these.
const PREFIX: usize = 1200;
/// Requests per pass of a traced run.
const TRACED_PASS: usize = 600;
const FRESH_LOOPS: [usize; 3] = [8, 16, 32];
const FRESH_STMTS: [usize; 3] = [1, 2, 4];

/// A distinct function of the stream.
struct Func {
    source: String,
    /// The fresh function it descends from (edits share its memory image).
    root: (usize, usize, u64),
    /// The request that first carries it.
    first_request: usize,
    /// The first request of the function it is an edit of (its own first
    /// request when fresh): the memo splices from that function's regions.
    base_request: usize,
}

struct Stream {
    funcs: Vec<Func>,
    /// Per request: the function it carries.
    requests: Vec<usize>,
}

/// Changes the trip count of loop `which` (mod the loop count).
fn edit_trip_count(source: &str, which: usize, rng: &mut XorShift64Star) -> String {
    const HEAD: &str = "while (j < ";
    let starts: Vec<usize> = source
        .match_indices(HEAD)
        .map(|(i, _)| i + HEAD.len())
        .collect();
    let at = starts[which % starts.len()];
    let len = source[at..]
        .find(')')
        .expect("a trip count closes its condition");
    let old: i64 = source[at..at + len]
        .parse()
        .expect("trip counts are literals");
    let mut new = old;
    while new == old {
        new = rng.range_i64(2, 8);
    }
    format!("{}{new}{}", &source[..at], &source[at + len..])
}

/// Request kinds, per block of ten: 5 repeats, 3 edits, 2 fresh.
const BLOCK: [Kind; 10] = [
    Kind::Repeat,
    Kind::Repeat,
    Kind::Repeat,
    Kind::Repeat,
    Kind::Repeat,
    Kind::Edit,
    Kind::Edit,
    Kind::Edit,
    Kind::Fresh,
    Kind::Fresh,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Repeat,
    Edit,
    Fresh,
}

fn shuffle<T>(items: &mut [T], rng: &mut XorShift64Star) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The request stream. The mix is stratified: every block of ten
/// requests holds exactly the block's kinds in a seeded order, and fresh
/// functions cycle through every size in a seeded order, so two seeds
/// differ in which functions they send, not in how much of each kind.
fn stream(seed: u64) -> Stream {
    let mut rng = XorShift64Star::new(sub_seed(seed, 7));
    let sizes: Vec<(usize, usize)> = FRESH_LOOPS
        .iter()
        .flat_map(|&l| FRESH_STMTS.iter().map(move |&s| (l, s)))
        .collect();
    let mut size_order: Vec<(usize, usize)> = Vec::new();
    let mut kinds: Vec<Kind> = Vec::with_capacity(STREAM);
    while kinds.len() < STREAM {
        let mut block = BLOCK;
        shuffle(&mut block, &mut rng);
        kinds.extend(block);
    }
    // The first request has nothing earlier to refer to.
    let first_fresh = kinds
        .iter()
        .position(|&k| k == Kind::Fresh)
        .expect("blocks hold fresh requests");
    kinds.swap(0, first_fresh);

    let mut funcs: Vec<Func> = Vec::new();
    // Per fresh function, the functions descending from it, oldest first.
    let mut families: Vec<Vec<usize>> = Vec::new();
    let mut by_source: HashMap<String, usize> = HashMap::new();
    let mut requests = Vec::with_capacity(STREAM);
    for (k, kind) in kinds.into_iter().take(STREAM).enumerate() {
        // Repeats and edits pick a family uniformly, so the mix of sizes
        // they touch follows the fresh functions' stratified sizes.
        let family = (!families.is_empty()).then(|| rng.below(families.len()));
        let (source, root, family, base_request) = match (kind, family) {
            (Kind::Repeat, Some(fam)) => {
                let members = &families[fam];
                requests.push(members[rng.below(members.len())]);
                continue;
            }
            (Kind::Edit, Some(fam)) => {
                // A build system edits the current version of a file.
                let latest = &funcs[*families[fam].last().expect("families are non-empty")];
                let which = rng.below(64);
                (
                    edit_trip_count(&latest.source, which, &mut rng),
                    latest.root,
                    fam,
                    latest.first_request,
                )
            }
            _ => {
                if size_order.is_empty() {
                    size_order = sizes.clone();
                    shuffle(&mut size_order, &mut rng);
                }
                let (loops, stmts) = size_order.pop().expect("refilled above");
                let fseed = sub_seed(seed, 1000 + k as u64);
                families.push(Vec::new());
                (
                    many_loops_source(loops, stmts, fseed),
                    (loops, stmts, fseed),
                    families.len() - 1,
                    k,
                )
            }
        };
        // An edit that recreates an earlier function is a repeat of it.
        let f = match by_source.get(&source) {
            Some(&f) => f,
            None => {
                funcs.push(Func {
                    source: source.clone(),
                    root,
                    first_request: k,
                    base_request,
                });
                by_source.insert(source, funcs.len() - 1);
                families[family].push(funcs.len() - 1);
                funcs.len() - 1
            }
        };
        requests.push(f);
    }
    Stream { funcs, requests }
}

/// One answered request.
struct Answer {
    request: usize,
    round_trip: Duration,
    server_ns: u64,
    cached: bool,
    hash: u64,
    hash_matches_text: bool,
    moved: (u64, u64),
    /// The returned schedule, kept for a function's first request only.
    schedule: String,
}

fn socket_path(tag: &str) -> PathBuf {
    crate::runs_dir().join(format!("serve-{}-{tag}.sock", std::process::id()))
}

/// A running daemon with its client connections.
struct Daemon {
    server: Server,
    clients: Vec<Client>,
}

fn start_daemon(tag: &str) -> Result<Daemon, String> {
    let path = socket_path(tag);
    let _ = std::fs::create_dir_all(crate::runs_dir());
    let _ = std::fs::remove_file(&path);
    let mut config = ServeConfig::new(Listen::Unix(path.clone()));
    config.jobs = WORKERS;
    let server = gis_serve::start(config).map_err(|e| format!("daemon start: {e}"))?;
    let mut daemon = Daemon {
        server,
        clients: Vec::new(),
    };
    for _ in 0..CONNECTIONS {
        let client = Client::connect(&Listen::Unix(path.clone()))
            .and_then(|mut c| c.ping().map(|()| c))
            .map_err(|e| format!("connect: {e}"));
        match client {
            Ok(c) => daemon.clients.push(c),
            Err(e) => {
                daemon.stop();
                return Err(e);
            }
        }
    }
    Ok(daemon)
}

impl Daemon {
    fn stop(self) {
        drop(self.clients);
        self.server.request_shutdown();
        let _ = self.server.join();
    }

    fn counters(&mut self) -> Result<HashMap<String, u64>, String> {
        Ok(self.clients[0]
            .stats()
            .map_err(|e| format!("stats: {e}"))?
            .into_iter()
            .collect())
    }
}

fn request(client: &mut Client, source: &str) -> Result<(Duration, FuncOutcome), String> {
    let spec = [FuncSpec {
        name: None,
        text: source.to_owned(),
    }];
    let t0 = Instant::now();
    let batch = client
        .schedule_batch(Lang::TinyC, MACHINE, Vec::new(), &spec)
        .map_err(|e| format!("request: {e}"))?;
    let round_trip = t0.elapsed();
    let outcome = batch
        .funcs
        .into_iter()
        .next()
        .ok_or("empty batch response")?
        .outcome;
    Ok((round_trip, outcome))
}

/// Per-request spans of a traced pass, shared by the client threads.
struct TraceCtx<'a> {
    tracer: &'a Mutex<Tracer>,
    machine: &'a MachineDescription,
    config: &'a SchedConfig,
    /// Webs the standalone renaming of this pass's misses renamed.
    webs_renamed: AtomicU64,
}

/// Drives `requests` (a prefix of the stream, or until `deadline` once
/// `min_requests` are done) through the daemon's connections in a closed
/// loop. Returns the answers and the failures, in request order.
fn drive(
    s: &Stream,
    clients: &mut [Client],
    limit: usize,
    deadline: Option<Instant>,
    min_requests: usize,
    trace: Option<&TraceCtx>,
) -> (Vec<Answer>, Vec<(usize, String)>) {
    let next = AtomicUsize::new(0);
    let answered = Mutex::new(vec![false; limit]);
    let wake = Condvar::new();
    let results: Mutex<Vec<Result<Answer, (usize, String)>>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::SeqCst);
                let past_deadline = deadline.is_some_and(|d| Instant::now() >= d);
                if k >= limit || (past_deadline && k >= min_requests) {
                    // Unblock anyone waiting on a request that will never run.
                    wake.notify_all();
                    break;
                }
                let func = &s.funcs[s.requests[k]];
                let first = func.first_request == k;
                let deps = [func.first_request, func.base_request];
                let mut done = answered.lock().expect("answer table lock");
                while deps.iter().any(|&d| d < k && !done[d]) {
                    done = wake.wait(done).expect("answer table lock");
                }
                drop(done);
                let outcome = match trace {
                    None => request(client, &func.source),
                    Some(ctx) => traced_request(ctx, client, &func.source, k as u64),
                };
                let result = match outcome {
                    Ok((
                        round_trip,
                        FuncOutcome::Ok {
                            cached,
                            hash,
                            nanos,
                            moved_useful,
                            moved_speculative,
                            schedule,
                        },
                    )) => {
                        // Only a function's first answer is executed; later
                        // ones must carry the same hash, so their text is
                        // checked against it here and then dropped.
                        Ok(Answer {
                            request: k,
                            round_trip,
                            server_ns: nanos,
                            cached,
                            hash,
                            hash_matches_text: fnv64_str(&schedule) == hash,
                            moved: (moved_useful, moved_speculative),
                            schedule: if first { schedule } else { String::new() },
                        })
                    }
                    Ok((_, FuncOutcome::Error { message })) => {
                        Err((k, format!("serve error: {message}")))
                    }
                    Ok((_, FuncOutcome::Timeout)) => Err((k, "serve timeout".to_owned())),
                    Err(e) => Err((k, e)),
                };
                results.lock().expect("results lock").push(result);
                answered.lock().expect("answer table lock")[k] = true;
                wake.notify_all();
            });
        }
    });
    let (mut answers, mut failures) = (Vec::new(), Vec::new());
    for result in results.into_inner().expect("results lock") {
        match result {
            Ok(a) => answers.push(a),
            Err(f) => failures.push(f),
        }
    }
    answers.sort_by_key(|a| a.request);
    failures.sort();
    (answers, failures)
}

/// One request with spans: the standalone front end and cache key the
/// daemon will also compute, then the round trip, whose child is the
/// daemon's own reported time (the rest is framing, JSON and queueing);
/// for a cache miss, also the standalone CFG analyses and web renaming
/// the daemon ran. Work is timed on the client thread and recorded under
/// the tracer's lock afterwards.
fn traced_request(
    ctx: &TraceCtx,
    client: &mut Client,
    source: &str,
    id: u64,
) -> Result<(Duration, FuncOutcome), String> {
    let start = Instant::now();
    let program = gis_tinyc::compile_program(source);
    let parsed = Instant::now();
    let function = program.map_err(|e| format!("front end: {e}"))?.function;
    std::hint::black_box(gis_serve::cache_key(&function, ctx.machine, ctx.config));
    let keyed = Instant::now();
    let result = request(client, source);
    let answered = Instant::now();
    let mut standalone = None;
    if let Ok((_, FuncOutcome::Ok { cached: false, .. })) = &result {
        let mut copy = function.clone();
        let begun = Instant::now();
        let (cfg, _) = analyze(&function);
        let analyzed = Instant::now();
        let webs = rename_webs(&mut copy, &cfg).renamed;
        standalone = Some((begun, analyzed, Instant::now()));
        ctx.webs_renamed.fetch_add(webs as u64, Ordering::Relaxed);
    }
    let end = standalone.map_or(answered, |(_, _, renamed)| renamed);
    let mut t = ctx.tracer.lock().expect("tracer lock");
    let root = t.record("request", id, None, start, end);
    t.record("frontend.parse", id, Some(root), start, parsed);
    t.record("serve.key", id, Some(root), parsed, keyed);
    let span = t.record("serve.round_trip", id, Some(root), keyed, answered);
    if let Ok((_, FuncOutcome::Ok { nanos, .. })) = &result {
        t.child("serve.server", span, *nanos);
    }
    if let Some((begun, analyzed, renamed)) = standalone {
        t.record("cfg.analyze", id, Some(root), begun, analyzed);
        t.record("pdg.rename_standalone", id, Some(root), analyzed, renamed);
    }
    result
}

/// References are built lazily: only functions a run actually requested
/// are checked.
struct Oracle<'a> {
    stream: &'a Stream,
    machine: MachineDescription,
    references: HashMap<usize, Reference>,
    checked: HashMap<usize, Checked>,
}

impl<'a> Oracle<'a> {
    fn reference(&mut self, func: usize) -> Result<&Reference, String> {
        if !self.references.contains_key(&func) {
            let f = &self.stream.funcs[func];
            let (loops, stmts, fseed) = f.root;
            let root = many_loops_scaled(loops, stmts, fseed);
            let function = if root.source == f.source {
                root.program.function
            } else {
                gis_tinyc::compile_program(&f.source)
                    .map_err(|e| format!("front end on an edited function: {e}"))?
                    .function
            };
            self.references
                .insert(func, Reference::new(function, root.memory)?);
        }
        Ok(&self.references[&func])
    }

    /// Checks every answer: one hash per function across repeats and
    /// connections, the hash matching the returned text, and the first
    /// schedule of each function behaving like its unscheduled source.
    fn check_answers(&mut self, answers: &[Answer], trace: Option<&mut Tracer>, r: &mut Report) {
        let mut trace = trace;
        let mut seen: HashMap<usize, u64> = HashMap::new();
        for a in answers {
            let func = self.stream.requests[a.request];
            if !a.hash_matches_text {
                r.fail(format!(
                    "request {}: reported hash does not match the schedule text",
                    a.request
                ));
            }
            match seen.get(&func) {
                Some(&h) if h != a.hash => r.fail(format!(
                    "request {}: hash {:016x} differs from {h:016x} for identical input",
                    a.request, a.hash
                )),
                Some(_) => {}
                None => {
                    seen.insert(func, a.hash);
                    // A traced pass re-checks, so its oracle spans cover
                    // every distinct function it sent.
                    if trace.is_none() && self.checked.contains_key(&func) {
                        continue;
                    }
                    let scheduled = match gis_ir::parse_function(&a.schedule) {
                        Ok(f) => f,
                        Err(e) => {
                            r.fail(format!(
                                "request {}: schedule does not parse: {e}",
                                a.request
                            ));
                            continue;
                        }
                    };
                    let machine = self.machine.clone();
                    let span = trace
                        .as_deref_mut()
                        .map(|t| t.begin("oracle", a.request as u64, None));
                    let result = self
                        .reference(func)
                        .and_then(|reference| check(&scheduled, reference, &machine));
                    if let (Some(t), Some(span)) = (trace.as_deref_mut(), span) {
                        t.end(span);
                        if let Ok(c) = &result {
                            t.child("sim.execute", span, c.execute.as_nanos() as u64);
                            t.child("sim.timing", span, c.timing.as_nanos() as u64);
                        }
                    }
                    match result {
                        Ok(c) => {
                            self.checked.insert(func, c);
                        }
                        Err(e) => r.fail(format!("request {}: {e}", a.request)),
                    }
                }
            }
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let s = stream(args.seed);
    let machine = MachineDescription::rs6k();
    let config = SchedConfig::speculative();

    // Set-up: daemon start until both connections are accepted, plus one
    // warm-up request per connection. All but the last daemon are
    // stopped again (outside the timing).
    let warm = many_loops_source(4, 1, sub_seed(args.seed, 0x5e7));
    let mut daemon: Option<Daemon> = None;
    let setup_s = setup_median(|| {
        if let Some(d) = daemon.take() {
            d.stop();
        }
        let mut d = start_daemon("m")?;
        for c in &mut d.clients {
            request(c, &warm)?;
        }
        daemon = Some(d);
        Ok(())
    });
    let (setup_s, mut daemon) = match (setup_s, daemon) {
        (Ok(t), Some(d)) => (t, d),
        (Err(e), d) => {
            if let Some(d) = d {
                d.stop();
            }
            r.fail(format!("set-up: {e}"));
            return r;
        }
        (Ok(_), None) => unreachable!("a successful set-up leaves a daemon"),
    };
    region_memo_clear();

    let mut oracle = Oracle {
        stream: &s,
        machine: machine.clone(),
        references: HashMap::new(),
        checked: HashMap::new(),
    };
    if args.trace {
        traced_run(args, &s, daemon, &machine, &config, &mut oracle, &mut r);
        return r;
    }

    let before = daemon.counters();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let (answers, failures) = drive(
        &s,
        &mut daemon.clients,
        STREAM,
        Some(deadline),
        PREFIX,
        None,
    );
    let wall = start.elapsed();
    let after = daemon.counters();
    daemon.stop();
    r.attempted = (answers.len() + failures.len()) as u64;
    for (k, e) in failures {
        r.fail(format!("request {k}: {e}"));
    }
    oracle.check_answers(&answers, None, &mut r);

    // The same schedules from an in-process compile at jobs = 2.
    let mut wide = config.clone();
    wide.jobs = 2;
    for a in answers.iter().filter(|a| !a.cached).take(8) {
        let func = s.requests[a.request];
        r.attempted += 1;
        let mut f = match oracle.reference(func) {
            Ok(reference) => reference.function.clone(),
            Err(e) => {
                r.fail(e);
                continue;
            }
        };
        match gis_core::compile(&mut f, &machine, &wide) {
            Ok(_) if fnv64_str(&f.to_string()) != a.hash => r.fail(format!(
                "request {}: in-process jobs 2 schedule differs from the daemon's",
                a.request
            )),
            Ok(_) => {}
            Err(e) => r.fail(format!("request {}: in-process compile: {e}", a.request)),
        }
    }

    let (sim_cycles, code_insts, speedups) = prefix_quality(&s, &mut oracle, &mut r);
    let latencies: Vec<f64> = answers.iter().map(|a| ms(a.round_trip)).collect();
    let insts: usize = answers
        .iter()
        .filter_map(|a| oracle.references.get(&s.requests[a.request]))
        .map(Reference::insts)
        .sum();
    let e2e = EndToEnd {
        compile_insts_per_s: insts as f64 / wall.as_secs_f64(),
        compile_ms_p50: median(&latencies),
        compile_ms_p99: percentile(&latencies, 99.0),
        latency_samples: latencies.len(),
        ops_per_s: answers.len() as f64 / wall.as_secs_f64(),
        sim_cycles,
        sched_speedup: geomean(&speedups),
        code_insts,
        setup_s,
    };
    r.note("req_ms_p50", e2e.compile_ms_p50, "ms");
    r.note("req_ms_p99", e2e.compile_ms_p99, "ms");
    r.note("req_per_s", e2e.ops_per_s, "req/s");
    if let (Ok(b), Ok(a)) = (before, after) {
        let delta = |k: &str| a.get(k).copied().unwrap_or(0) - b.get(k).copied().unwrap_or(0);
        let (hits, misses) = (delta("cache.hits"), delta("cache.misses"));
        r.note(
            "serve.cache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        );
        let (rh, rm) = (delta("cache.region.hit"), delta("cache.region.miss"));
        r.note(
            "core.memo.hit_ratio",
            ratio(rh as f64, (rh + rm) as f64),
            "ratio",
        );
    }
    e2e.emit(&mut r);
    r
}

/// Cycles, size and bb-only speedup over the distinct functions of the
/// first [`PREFIX`] requests.
fn prefix_quality(s: &Stream, oracle: &mut Oracle, r: &mut Report) -> (u64, u64, Vec<f64>) {
    let mut funcs: Vec<usize> = s.requests[..PREFIX].to_vec();
    funcs.sort_unstable();
    funcs.dedup();
    let (mut cycles, mut insts, mut speedups) = (0, 0, Vec::new());
    for func in funcs {
        let Some(c) = oracle.checked.get(&func).copied() else {
            r.fail(format!(
                "function {func} of the deterministic prefix was not checked"
            ));
            continue;
        };
        cycles += c.cycles;
        insts += c.insts as u64;
        let machine = oracle.machine.clone();
        match oracle
            .reference(func)
            .and_then(|reference| bb_only_cycles(reference, &machine))
        {
            Ok(bb) => speedups.push(bb as f64 / c.cycles as f64),
            Err(e) => r.fail(e),
        }
    }
    (cycles, insts, speedups)
}

/// Alternates untraced and traced passes over the first
/// [`TRACED_PASS`] requests, each on a fresh daemon with an empty
/// region memo.
fn traced_run(
    args: &Args,
    s: &Stream,
    daemon: Daemon,
    machine: &MachineDescription,
    config: &SchedConfig,
    oracle: &mut Oracle,
    r: &mut Report,
) {
    daemon.stop();
    let tracer = Mutex::new(Tracer::new());
    let ctx = TraceCtx {
        tracer: &tracer,
        machine,
        config,
        webs_renamed: AtomicU64::new(0),
    };
    let start = Instant::now();
    let mut layers = Layers::default();
    let (mut untraced, mut traced, mut cpu_util) = (Vec::new(), Vec::new(), Vec::new());
    let (mut server_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    let mut samples: Vec<(usize, Duration)> = Vec::new();
    let mut first_counts: Option<Counts> = None;
    let mut passes = 0;
    loop {
        for traced_pass in [false, true] {
            region_memo_clear();
            let mut d = match start_daemon(if traced_pass { "t" } else { "u" }) {
                Ok(d) => d,
                Err(e) => {
                    r.fail(e);
                    return;
                }
            };
            let before = d.counters();
            let memo_before = region_memo_counters();
            ctx.webs_renamed.store(0, Ordering::Relaxed);
            let cpu0 = process_cpu_s();
            let t0 = Instant::now();
            let (answers, failures) = drive(
                s,
                &mut d.clients,
                TRACED_PASS,
                None,
                TRACED_PASS,
                traced_pass.then_some(&ctx),
            );
            let wall = t0.elapsed();
            let cpu = process_cpu_s() - cpu0;
            let after = d.counters();
            let memo = region_memo_counters();
            d.stop();
            r.attempted += (answers.len() + failures.len()) as u64;
            for (k, e) in failures {
                r.fail(format!("request {k}: {e}"));
            }
            let mut guard = tracer.lock().expect("tracer lock");
            oracle.check_answers(&answers, traced_pass.then_some(&mut *guard), r);
            drop(guard);
            if !traced_pass {
                untraced.push(ms(wall));
                cpu_util.push(cpu / (wall.as_secs_f64() * WORKERS as f64));
                continue;
            }
            traced.push(ms(wall));
            for a in &answers {
                server_ms.push(ns_to_ms(a.server_ns));
                overhead_ms.push(ms(a.round_trip) - ns_to_ms(a.server_ns));
                if !a.cached {
                    if let Some(reference) = oracle.references.get(&s.requests[a.request]) {
                        samples.push((reference.insts(), Duration::from_nanos(a.server_ns)));
                    }
                }
            }
            let mut counts = Counts {
                webs_renamed: ctx.webs_renamed.load(Ordering::Relaxed),
                ..Counts::default()
            };
            for a in answers.iter().filter(|a| !a.cached) {
                counts.moved_useful += a.moved.0;
                counts.moved_speculative += a.moved.1;
            }
            let distinct: std::collections::BTreeSet<usize> =
                answers.iter().map(|a| s.requests[a.request]).collect();
            counts.steps = distinct
                .iter()
                .filter_map(|f| oracle.checked.get(f))
                .map(|c| c.steps)
                .sum();
            match (before, after) {
                (Ok(b), Ok(a)) => {
                    let delta =
                        |k: &str| a.get(k).copied().unwrap_or(0) - b.get(k).copied().unwrap_or(0);
                    counts.liveness_full = delta("perf.liveness-full");
                    counts.dep_edges = delta("perf.dep-edges");
                    layers.cache_hits += delta("cache.hits");
                    layers.cache_misses += delta("cache.misses");
                }
                (Err(e), _) | (_, Err(e)) => r.fail(e),
            }
            layers.memo_hits += memo.hits - memo_before.hits;
            layers.memo_misses += memo.misses - memo_before.misses;
            layers.memo_entries = memo.entries;
            match first_counts {
                None => first_counts = Some(counts),
                Some(c) if c != counts => r.fail(format!(
                    "layer counts differ between traced passes: {c:?} vs {counts:?}"
                )),
                Some(_) => {}
            }
        }
        passes += 1;
        if start.elapsed() >= Duration::from_secs(args.seconds) {
            break;
        }
    }

    let t = tracer.into_inner().expect("tracer lock");
    let per = |name: &str| t.total_ms(name) / passes as f64;
    layers.frontend_parse_ms = per("frontend.parse");
    layers.cfg_analyze_ms = per("cfg.analyze");
    layers.rename_standalone_ms = per("pdg.rename_standalone");
    layers.key_ms = per("serve.key");
    layers.execute_ms = per("sim.execute");
    layers.timing_ms = per("sim.timing");
    layers.server_ms_p50 = median(&server_ms);
    layers.overhead_ms_p50 = median(&overhead_ms);
    layers.cache_hits /= passes as u64;
    layers.cache_misses /= passes as u64;
    layers.memo_hits /= passes as u64;
    layers.memo_misses /= passes as u64;
    layers.counts = first_counts.unwrap_or_default();
    layers.ns_per_inst_ratio = crate::inproc::ns_per_inst_ratio(&samples);
    layers.cpu_util = median(&cpu_util);
    layers.untraced_ms = median(&untraced);
    layers.traced_ms = median(&traced);
    // The daemon's own time is opaque here: coverage is the share of the
    // round trip the daemon reports for itself.
    layers.coverage = ratio(t.total_ms("serve.server"), t.total_ms("serve.round_trip"));
    layers.emit(r);
    r.spans = Some(t.jsonl());
}
