//! Smoke tests for the `gisc` command-line driver.

use std::process::Command;

fn gisc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gisc"))
}

#[test]
fn schedules_a_tinyc_kernel_end_to_end() {
    let out = gisc()
        .args(["--opt", "--run", "--stats", "examples/kernels/minmax.c"])
        .output()
        .expect("gisc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("func minmax"), "{stdout}");
    assert!(stderr.contains("cycles on rs6k"), "{stderr}");
    assert!(stderr.contains("->"), "reports a before/after: {stderr}");
}

#[test]
fn assembles_ir_from_stdin() {
    use std::io::Write as _;
    let mut child = gisc()
        .args(["--asm", "--level", "useful", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"func t\nA:\n LI r1=5\n PRINT r1\n RET\n")
        .expect("writes");
    let out = child.wait_with_output().expect("finishes");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PRINT"), "{stdout}");
}

#[test]
fn rejects_bad_input_with_a_message() {
    use std::io::Write as _;
    let mut child = gisc()
        .args(["--asm", "-"])
        .stdin(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"garbage !!\n")
        .expect("writes");
    let out = child.wait_with_output().expect("finishes");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("gisc:"));
}

#[test]
fn a_second_func_header_is_a_clean_error() {
    use std::io::Write as _;
    let mut child = gisc()
        .args(["--asm", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"func a\nA:\n LI r1=1\nB:\n RET\nfunc b\nC:\n RET\n")
        .expect("writes");
    let out = child.wait_with_output().expect("finishes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "an error exit, not a panic: {stderr}"
    );
    assert!(
        stderr.contains("gisc:") && stderr.contains("line 6"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn renames_an_unreachable_loop_reading_an_undefined_register() {
    use std::io::Write as _;
    // L is unreachable and r9 circulates around its back edge with no
    // definition reaching it: renaming falls back to the entry value.
    let mut child = gisc()
        .args(["--asm", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            b"func u\nA:\n LI r1=1\n PRINT r1\n RET\n\
              L:\n AI r1=r1,1\n C cr0=r1,r9\n BT L,cr0,0x1/lt\n\
              M:\n PRINT r9\n RET\n",
        )
        .expect("writes");
    let out = child.wait_with_output().expect("finishes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PRINT  r9"), "{stdout}");
}

#[test]
fn malformed_jobs_gets_a_specific_error() {
    for bad in ["banana", "-2", "1.5", ""] {
        let out = gisc()
            .args(["--jobs", bad, "examples/kernels/minmax.c"])
            .output()
            .expect("gisc runs");
        assert_eq!(out.status.code(), Some(2), "--jobs {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--jobs expects"), "--jobs {bad}: {stderr}");
    }
    // A missing value is reported too, not silently swallowed.
    let out = gisc().args(["--jobs"]).output().expect("gisc runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs expects"));
}

#[test]
fn malformed_fuzz_flags_get_specific_errors() {
    let cases: &[(&[&str], &str)] = &[
        (&["fuzz", "--seed", "x"], "--seed expects"),
        (&["fuzz", "--seed", "-1"], "--seed expects"),
        (&["fuzz", "--iters", "many"], "--iters expects"),
        (&["fuzz", "--out"], "--out expects"),
        (&["fuzz", "--bogus"], "unknown fuzz argument"),
    ];
    for (args, needle) in cases {
        let out = gisc().args(*args).output().expect("gisc runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn fuzz_smoke_run_agrees() {
    let out = gisc()
        .args(["fuzz", "--seed", "7", "--iters", "3"])
        .output()
        .expect("gisc runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("no divergence"), "{stderr}");
}

#[test]
fn verify_accepts_corpus_files() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/rotation-adjacent-loops.gis"
    );
    let out = gisc().args(["verify", path]).output().expect("gisc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains(": ok"));
}

#[test]
fn verify_rejects_ill_formed_ir() {
    use std::io::Write as _;
    let mut child = gisc()
        .args(["verify", "-"])
        .stdin(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        // r2 is used before its (only) definition below it.
        .write_all(b"func bad\ne:\n A r1=r2,r2\n LI r2=1\n PRINT r1\n RET\n")
        .expect("writes");
    let out = child.wait_with_output().expect("finishes");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not dominated"), "{stderr}");
}

#[test]
fn verify_without_a_file_is_a_usage_error() {
    let out = gisc().args(["verify"]).output().expect("gisc runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("verify expects"));
}

#[test]
fn dot_output_mode() {
    let out = gisc()
        .args(["--dot-cfg", "examples/kernels/dotproduct.c"])
        .output()
        .expect("gisc runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

#[test]
fn traced_dot_overlays_the_schedule() {
    let out = gisc()
        .args(["--dot-cfg=traced", "examples/kernels/minmax.c"])
        .output()
        .expect("gisc runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph"), "{stdout}");
    assert!(stdout.contains("style=bold"), "motions drawn: {stdout}");
    assert!(stdout.contains("legend"), "{stdout}");
}

#[test]
fn traced_cspdg_prints_one_graph_per_region() {
    let out = gisc()
        .args(["--dot-cspdg=traced", "examples/kernels/minmax.c"])
        .output()
        .expect("gisc runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("// region"), "{stdout}");
    assert!(stdout.contains("digraph cspdg"), "{stdout}");
}

#[test]
fn report_writes_self_contained_html() {
    let dir = std::env::temp_dir().join("gisc-report-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("minmax.html");
    let out = gisc()
        .args(["--report"])
        .arg(&path)
        .arg("examples/kernels/minmax.c")
        .output()
        .expect("gisc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let html = std::fs::read_to_string(&path).expect("report written");
    for id in [
        "summary", "schedule", "motions", "regions", "metrics", "timeline",
    ] {
        assert!(html.contains(&format!("id=\"{id}\"")), "missing {id}");
    }
    assert!(!html.contains("<script"), "report must not contain scripts");
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_flag_prints_the_perf_counters() {
    let out = gisc()
        .args(["--metrics", "examples/kernels/minmax.c"])
        .output()
        .expect("gisc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for counter in [
        "perf.dep-edges",
        "perf.dep-edges-reduced",
        "perf.liveness-full",
        "perf.liveness-region",
        "perf.liveness-incremental",
        "perf.scratch-allocs",
        "perf.scratch-reuses",
    ] {
        assert!(stderr.contains(counter), "missing {counter}: {stderr}");
    }
    // Event-derived counters and pass times come along from the trace.
    assert!(stderr.contains("regions-scheduled"), "{stderr}");
    assert!(stderr.contains("pass.global-1"), "{stderr}");
}

#[test]
fn malformed_metrics_gets_a_specific_error() {
    let out = gisc()
        .args(["--metrics=json", "examples/kernels/minmax.c"])
        .output()
        .expect("gisc runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--metrics expects no value, got 'json'"),
        "{stderr}"
    );
}

#[test]
fn malformed_viz_flags_get_specific_errors() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["--dot-cfg=fancy", "examples/kernels/minmax.c"],
            "--dot-cfg expects no value or 'traced'",
        ),
        (
            &["--dot-cspdg=yes", "examples/kernels/minmax.c"],
            "--dot-cspdg expects no value or 'traced'",
        ),
        (&["--report"], "--report expects an output file path"),
        (
            &["--trace=xml:foo", "examples/kernels/minmax.c"],
            "--trace expects no value or 'json:<path>'",
        ),
        (
            &["--dot-cgf", "examples/kernels/minmax.c"],
            "unknown flag '--dot-cgf'",
        ),
    ];
    for (args, needle) in cases {
        let out = gisc().args(*args).output().expect("gisc runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn malformed_serve_flags_get_specific_errors() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["serve", "--listen", "bogus"],
            "--listen expects unix:PATH or tcp:HOST:PORT, got 'bogus'",
        ),
        (
            &["serve", "--listen", "unix:"],
            "--listen expects unix:PATH or tcp:HOST:PORT, got 'unix:'",
        ),
        (
            &["serve", "--listen", "tcp:noport"],
            "--listen expects unix:PATH or tcp:HOST:PORT, got 'tcp:noport'",
        ),
        (&["serve", "--listen"], "--listen expects"),
        (
            &[
                "serve",
                "--cache-cap",
                "many",
                "--listen",
                "unix:/tmp/x.sock",
            ],
            "--cache-cap expects",
        ),
        (
            &[
                "serve",
                "--timeout-ms",
                "soon",
                "--listen",
                "unix:/tmp/x.sock",
            ],
            "--timeout-ms expects",
        ),
        (
            &["serve", "--jobs", "-1", "--listen", "unix:/tmp/x.sock"],
            "--jobs expects",
        ),
        (&["serve"], "serve expects --listen"),
        (&["serve", "--bogus"], "unknown serve argument"),
        (&["serve-request"], "serve-request expects --listen"),
        (
            &[
                "serve-request",
                "--workload",
                "nope",
                "--listen",
                "unix:/tmp/x.sock",
            ],
            "--workload expects a preset name",
        ),
        (
            &[
                "serve-request",
                "--repeat",
                "0",
                "--listen",
                "unix:/tmp/x.sock",
            ],
            "--repeat expects a positive integer",
        ),
        (
            &["serve-request", "--bogus"],
            "unknown serve-request argument",
        ),
    ];
    for (args, needle) in cases {
        let out = gisc().args(*args).output().expect("gisc runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn serve_round_trip_hits_the_cache_on_the_second_pass() {
    let sock = std::env::temp_dir().join(format!("gisc-cli-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let listen = format!("unix:{}", sock.display());
    let mut daemon = gisc()
        .args(["serve", "--listen", &listen, "--jobs", "2"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    // Wait for the socket to appear before connecting.
    for _ in 0..100 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(sock.exists(), "daemon never bound its socket");

    let out = gisc()
        .args([
            "serve-request",
            "--listen",
            &listen,
            "--ping",
            "--workload",
            "many-loops-s",
            "--repeat",
            "2",
            "--stats",
            "--shutdown",
        ])
        .output()
        .expect("client runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("pong"), "{stdout}");
    assert!(stdout.contains("many-loops-s: miss"), "{stdout}");
    assert!(stdout.contains("many-loops-s: hit"), "{stdout}");
    assert!(stdout.contains("cache.hits 1"), "{stdout}");
    // Both passes return the same schedule hash — one per line, and
    // exactly one distinct value between them.
    let hashes: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("many-loops-s:"))
        .map(|l| l.split_whitespace().nth(2).expect("hash field"))
        .collect();
    assert_eq!(hashes.len(), 2, "{stdout}");
    assert_eq!(hashes[0], hashes[1], "warm hash differs: {stdout}");

    // The daemon drains and exits zero after the client's shutdown.
    let mut status = None;
    for _ in 0..200 {
        if let Some(s) = daemon.try_wait().expect("try_wait") {
            status = Some(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let Some(status) = status else {
        daemon.kill().ok();
        panic!("daemon did not exit after shutdown");
    };
    assert!(status.success(), "daemon exit: {status:?}");
    assert!(!sock.exists(), "socket file not removed on shutdown");
}

#[test]
fn extra_positional_argument_is_an_error() {
    let out = gisc()
        .args(["examples/kernels/minmax.c", "examples/kernels/dotproduct.c"])
        .output()
        .expect("gisc runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected extra argument"));
}

/// A one-diamond tinyc kernel whose join load is pinned below both arm
/// stores (they go through data-dependent indices into the same array,
/// so every hoist of the join load is blocked by a may-alias
/// dependence): the shape `--dup` exists for.
const DIAMOND_SRC: &[u8] = b"int a[64];
void synth() {
  int acc = 0; int j = 0; int x = 0;
  while (j < 5) {
    x = a[(j + 1) & 63];
    if (x > 0) { a[x & 63] = x + 3; acc = acc + a[(x + 1) & 63]; }
    else { a[(x + 7) & 63] = x - 3; acc = acc + a[(x + 2) & 63]; }
    acc = acc + a[9] + x;
    j = j + 1;
  }
  print(acc);
}
";

/// Runs `gisc` with the given flags, feeding `src` on stdin.
fn run_on_stdin(args: &[&str], src: &[u8]) -> std::process::Output {
    use std::io::Write as _;
    let mut child = gisc()
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(src)
        .expect("writes");
    child.wait_with_output().expect("finishes")
}

#[test]
fn dup_flag_turns_on_duplication_motion() {
    // Gate off (the default): the stats line reports zero duplicated
    // motions on the same input.
    let off = run_on_stdin(&["--tinyc", "--stats", "--run", "-"], DIAMOND_SRC);
    let off_err = String::from_utf8_lossy(&off.stderr);
    assert!(off.status.success(), "{off_err}");
    assert!(off_err.contains(" 0 duplicated"), "{off_err}");

    // Gate on: the join load is duplicated into both arms, and the
    // scheduled program still runs equivalently (`--run` checks).
    let on = run_on_stdin(&["--tinyc", "--dup", "--stats", "--run", "-"], DIAMOND_SRC);
    let on_err = String::from_utf8_lossy(&on.stderr);
    assert!(on.status.success(), "{on_err}");
    assert!(
        on_err.contains("duplicated") && !on_err.contains(" 0 duplicated"),
        "{on_err}"
    );
    assert!(on_err.contains("cycles on rs6k"), "{on_err}");
}

#[test]
fn malformed_dup_gets_a_specific_error() {
    let out = gisc()
        .args(["--dup=yes", "examples/kernels/minmax.c"])
        .output()
        .expect("gisc runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--dup expects no value"), "{stderr}");
}

#[test]
fn serve_accepts_a_duplication_config_override() {
    let sock = std::env::temp_dir().join(format!("gisc-cli-dup-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let listen = format!("unix:{}", sock.display());
    let mut daemon = gisc()
        .args(["serve", "--listen", &listen])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    for _ in 0..100 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(sock.exists(), "daemon never bound its socket");

    // A schedule round yields two frames (per-function + batch end), so
    // the drain and the shutdown both go through `--raw` — each reads
    // exactly one response line.
    let raw = r#"{"req":"schedule","id":1,"lang":"asm","machine":"rs6k","config":{"duplication":true},"funcs":[{"name":"d","text":"func d\ne:\n LI r1=1\n PRINT r1\n RET\n"}]}"#;
    let shutdown = r#"{"req":"shutdown","id":2}"#;
    let out = gisc()
        .args([
            "serve-request",
            "--listen",
            &listen,
            "--raw",
            raw,
            "--raw",
            shutdown,
        ])
        .output()
        .expect("client runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("\"schedule\""), "{stdout}");
    assert!(stdout.contains("\"status\":\"ok\""), "{stdout}");
    assert!(!stdout.contains("\"error\""), "{stdout}");

    let mut status = None;
    for _ in 0..200 {
        if let Some(s) = daemon.try_wait().expect("try_wait") {
            status = Some(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let Some(status) = status else {
        daemon.kill().ok();
        panic!("daemon did not exit after shutdown");
    };
    assert!(status.success(), "daemon exit: {status:?}");
}

#[test]
fn machine_flag_accepts_the_width_presets() {
    for machine in ["issue2", "issue4", "issue8", "vliw4", "wide3", "scalar"] {
        let out = gisc()
            .args(["--machine", machine, "--run", "examples/kernels/minmax.c"])
            .output()
            .expect("gisc runs");
        assert!(
            out.status.success(),
            "--machine {machine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("cycles on {machine}")),
            "--machine {machine}: {stderr}"
        );
    }
    let out = gisc()
        .args(["--machine", "issue3", "examples/kernels/minmax.c"])
        .output()
        .expect("gisc runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--machine expects"), "{stderr}");
}

#[test]
fn bench_matrix_smoke_round_trips_with_check() {
    let dir = std::env::temp_dir().join(format!("gisc-bench-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json = dir.join("m.json");
    let md = dir.join("m.md");
    let json_s = json.to_str().expect("utf8 path");
    let md_s = md.to_str().expect("utf8 path");

    let out = gisc()
        .args([
            "bench-matrix",
            "--smoke",
            "--out",
            json_s,
            "--results",
            md_s,
        ])
        .output()
        .expect("gisc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json_text = std::fs::read_to_string(&json).expect("matrix JSON written");
    assert!(json_text.contains("\"bench\": \"matrix\""), "{json_text}");
    assert!(json_text.contains("\"smoke\": true"), "{json_text}");
    let md_text = std::fs::read_to_string(&md).expect("markdown written");
    assert!(
        md_text.contains("global-vs-bb speedup by issue width"),
        "{md_text}"
    );

    // The freshly written pair passes --check …
    let out = gisc()
        .args([
            "bench-matrix",
            "--check",
            "--out",
            json_s,
            "--results",
            md_s,
        ])
        .output()
        .expect("gisc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // … and a hand-edited report fails it.
    std::fs::write(&md, format!("{md_text}\nstale edit\n")).expect("tamper");
    let out = gisc()
        .args([
            "bench-matrix",
            "--check",
            "--out",
            json_s,
            "--results",
            md_s,
        ])
        .output()
        .expect("gisc runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("out of date"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_matrix_rejects_unknown_arguments() {
    let out = gisc()
        .args(["bench-matrix", "--frobnicate"])
        .output()
        .expect("gisc runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown bench-matrix argument"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
