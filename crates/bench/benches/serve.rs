//! Daemon throughput benchmark with a tracked baseline: a cold batch of
//! distinct functions against an empty schedule cache, then the same
//! batch warm — every request a content-addressed hit. The tracked
//! numbers quantify what the cache buys a client that resubmits
//! mostly-unchanged programs (the build-system recompile pattern).
//!
//! A third row, `serve/warm-region`, measures the second cache tier on
//! its own: the same batch on a fresh daemon with the whole-function
//! cache disabled (`cache_cap: 0`), after the cold pass has filled the
//! process-wide region memo. Every function misses the first tier and
//! splices its regions instead of re-scheduling them, so the row sets
//! the warm whole-function hit against the warm region splice.
//!
//! Hand-rolled harness (`harness = false`, like `hotpaths.rs`): the
//! sandbox builds offline, so criterion is unavailable. The run starts a
//! real in-process daemon on a unix socket and drives it through the
//! protocol client, so the measured path includes framing, the worker
//! pool and response streaming — not just the cache lookup.
//!
//! Besides the human-readable listing, the run writes `BENCH_serve.json`
//! (at the repository root by default) so the numbers are tracked in the
//! tree and CI can smoke them:
//!
//! ```text
//! cargo bench -p gis-bench --bench serve            # full run
//! cargo bench -p gis-bench --bench serve -- --smoke # tiny corpus, CI
//! cargo bench -p gis-bench --bench serve -- --out out.json
//! ```
//!
//! Correctness is part of the measurement contract: the warm and
//! warm-region passes must return bit-identical schedule hashes to the
//! cold pass (neither cache tier may change the scheduler's answer), and
//! the warm pass must be at least 5x faster per function — the run
//! aborts rather than record a baseline that violates either.

use gis_serve::{start, Client, FuncOutcome, FuncSpec, Lang, Listen, ServeConfig};
use gis_workloads::loadgen;
use std::time::Instant;

/// One emitted measurement: a whole batch, wall-clock.
struct Row {
    name: String,
    funcs: usize,
    total_ns: u128,
    per_func_ns: u128,
}

/// Collects `name -> hash` for a batch, asserting every function
/// scheduled successfully with the expected cache disposition.
fn hashes_of(batch: &gis_serve::client::BatchResult, expect_cached: bool) -> Vec<(String, u64)> {
    batch
        .funcs
        .iter()
        .map(|f| match &f.outcome {
            FuncOutcome::Ok { cached, hash, .. } => {
                assert_eq!(
                    *cached, expect_cached,
                    "{}: expected cached={expect_cached}",
                    f.name
                );
                (f.name.clone(), *hash)
            }
            other => panic!("{}: expected a schedule, got {other:?}", f.name),
        })
        .collect()
}

/// Serializes the rows and summary as a stable, pretty-printed JSON
/// document (std only — names are ASCII, so no escaping is needed).
fn to_json(rows: &[Row], speedups: &[(&str, f64)], hashes_match: bool, smoke: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"bench\": \"serve\",\n  \"machine\": \"rs6k\",\n");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"hashes_match\": {hashes_match},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"funcs\": {}, \"total_ns\": {}, \"per_func_ns\": {}}}",
            r.name, r.funcs, r.total_ns, r.per_func_ns
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"speedups\": {\n");
    for (i, (name, x)) in speedups.iter().enumerate() {
        let _ = write!(out, "    \"{name}\": {x:.2}");
        out.push_str(if i + 1 < speedups.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let mut smoke = false;
    let mut out_path = format!(
        "{}/../../BENCH_serve.json",
        env!("CARGO_MANIFEST_DIR") // the tracked baseline at the repo root
    );
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out expects a path"),
            // Cargo passes --bench (and test-harness flags) through.
            _ => {}
        }
    }
    // The full corpus uses many-loops-s-shaped functions — big enough
    // that a cold compile dwarfs protocol overhead, small enough that
    // eight of them keep the run in seconds. Smoke shrinks both axes.
    let (distinct, loops, stmts) = if smoke { (2, 4, 2) } else { (8, 16, 2) };
    let corpus = loadgen::corpus(distinct, distinct, loops, stmts, 11);
    let funcs: Vec<FuncSpec> = corpus
        .iter()
        .map(|i| FuncSpec {
            name: Some(i.name.clone()),
            text: i.source.clone(),
        })
        .collect();

    // `cache_cap: None` keeps the default whole-function cache.
    let daemon = |tag: &str, cache_cap: Option<usize>| {
        let sock =
            std::env::temp_dir().join(format!("gis-bench-serve-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let mut config = ServeConfig::new(Listen::Unix(sock.clone()));
        config.jobs = 4;
        if let Some(cap) = cache_cap {
            config.cache_cap = cap;
        }
        let server = start(config).expect("daemon starts");
        let client = Client::connect(&Listen::Unix(sock)).expect("client connects");
        (server, client)
    };
    let (server, mut client) = daemon("cached", None);

    println!("serve: {distinct} distinct functions ({loops} loops x {stmts} stmts), jobs 4");
    let t0 = Instant::now();
    let cold = client
        .schedule_batch(Lang::TinyC, "rs6k", Vec::new(), &funcs)
        .expect("cold batch");
    let cold_ns = t0.elapsed().as_nanos();
    let cold_hashes = hashes_of(&cold, false);
    assert_eq!(
        cold.summary.cache_misses as usize, distinct,
        "all-miss cold"
    );

    let t0 = Instant::now();
    let warm = client
        .schedule_batch(Lang::TinyC, "rs6k", Vec::new(), &funcs)
        .expect("warm batch");
    let warm_ns = t0.elapsed().as_nanos();
    let warm_hashes = hashes_of(&warm, true);
    assert_eq!(warm.summary.cache_hits as usize, distinct, "all-hit warm");

    let hashes_match = cold_hashes == warm_hashes;
    assert!(
        hashes_match,
        "warm hashes diverge from cold ({cold_hashes:x?} vs {warm_hashes:x?}) — \
         the cache changed the scheduler's output"
    );
    let speedup = cold_ns as f64 / warm_ns.max(1) as f64;
    assert!(
        speedup >= 5.0,
        "warm pass only {speedup:.2}x faster than cold (acceptance floor is 5x)"
    );

    client.shutdown_server().expect("shutdown");
    let metrics = server.join();
    assert_eq!(metrics.counter("cache.hits") as usize, distinct);
    assert_eq!(metrics.counter("cache.misses") as usize, distinct);

    // The region tier alone: whole-function cache off, memo still warm.
    let (server, mut client) = daemon("region", Some(0));
    let splices_before = gis_core::region_memo_counters().splices;
    let t0 = Instant::now();
    let region = client
        .schedule_batch(Lang::TinyC, "rs6k", Vec::new(), &funcs)
        .expect("warm-region batch");
    let region_ns = t0.elapsed().as_nanos();
    let region_hashes = hashes_of(&region, false);
    client.shutdown_server().expect("shutdown");
    server.join();
    assert!(
        cold_hashes == region_hashes,
        "warm-region hashes diverge from cold ({cold_hashes:x?} vs {region_hashes:x?}) — \
         the region memo changed the scheduler's output"
    );
    assert!(
        gis_core::region_memo_counters().splices > splices_before,
        "the warm-region pass spliced nothing"
    );

    let rows = vec![
        Row {
            name: "serve/cold".to_owned(),
            funcs: distinct,
            total_ns: cold_ns,
            per_func_ns: cold_ns / distinct as u128,
        },
        Row {
            name: "serve/warm".to_owned(),
            funcs: distinct,
            total_ns: warm_ns,
            per_func_ns: warm_ns / distinct as u128,
        },
        Row {
            name: "serve/warm-region".to_owned(),
            funcs: distinct,
            total_ns: region_ns,
            per_func_ns: region_ns / distinct as u128,
        },
    ];
    for r in &rows {
        println!(
            "{:<30} {:>12} ns/batch  {:>12} ns/func",
            r.name, r.total_ns, r.per_func_ns
        );
    }
    let speedups = [
        ("warm-over-cold", speedup),
        (
            "warm-region-over-cold",
            cold_ns as f64 / region_ns.max(1) as f64,
        ),
        (
            "warm-over-warm-region",
            region_ns as f64 / warm_ns.max(1) as f64,
        ),
    ];
    for (name, x) in speedups {
        println!("speedup/{name:<30} {x:>10.2}x");
    }
    let json = to_json(&rows, &speedups, hashes_match, smoke);
    std::fs::write(&out_path, &json).expect("writing the baseline file");
    println!("serve: baseline written to {out_path}");
}
