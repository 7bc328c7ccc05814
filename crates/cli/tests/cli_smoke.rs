//! CLI smoke tests: malformed flags must come back as one-line
//! diagnostics on stderr with a nonzero exit — never a panic backtrace —
//! and a well-formed invocation must still succeed.

use std::process::{Command, Output};

fn flat(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flat"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_seed_is_a_diagnostic_not_a_panic() {
    let out = flat(&["serve", "--requests", "4", "--seed", "abc"]);
    assert!(!out.status.success(), "malformed --seed must exit nonzero");
    let err = stderr(&out);
    assert!(
        err.contains("--seed") && err.contains("abc"),
        "diagnostic names the flag: {err}"
    );
    assert!(!err.contains("panicked"), "no panic backtrace: {err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line diagnostic: {err}");
}

#[test]
fn unknown_task_is_a_diagnostic() {
    let out = flat(&["serve", "--requests", "4", "--task", "mining"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("mining"),
        "diagnostic names the bad value: {err}"
    );
    assert!(!err.contains("panicked"), "no panic backtrace: {err}");
}

#[test]
fn bad_slo_and_chaos_values_are_diagnostics() {
    for (flag, value) in [
        ("--slo-ms", "soon"),
        ("--slo-ms", "inf"),
        ("--chaos", "maybe"),
    ] {
        let out = flat(&["serve", "--requests", "4", flag, value]);
        assert!(!out.status.success(), "{flag} {value} must exit nonzero");
        let err = stderr(&out);
        assert!(err.contains(flag), "diagnostic names {flag}: {err}");
        assert!(!err.contains("panicked"), "no panic backtrace: {err}");
    }
}

#[test]
fn bad_width_and_target_milli_are_diagnostics() {
    let out = flat(&["trace", "--seq", "512", "--width", "wide"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--width"));
    let out = flat(&["bw", "--seq", "512", "--target-milli", "most"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--target-milli"));
}

#[test]
fn good_serve_run_emits_json() {
    let out = flat(&[
        "serve",
        "--platform",
        "edge",
        "--model",
        "bert",
        "--requests",
        "8",
        "--arrival-rate",
        "200",
        "--prompt",
        "32",
        "--output",
        "4",
        "--seed",
        "3",
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = String::from_utf8_lossy(&out.stdout).replace(char::is_whitespace, "");
    assert!(
        json.contains("\"finished\":8"),
        "all requests finish: {json}"
    );
    assert!(
        json.contains("\"drops\""),
        "drop counters are reported: {json}"
    );
}

/// The distributed-sweep determinism contract: the same seed and flags
/// produce byte-identical JSON, twice.
#[test]
fn dist_json_is_byte_identical_across_runs() {
    let args = [
        "dist",
        "--platform",
        "cloud",
        "--model",
        "bert",
        "--seq",
        "2048",
        "--batch",
        "4",
        "--chips",
        "1,2",
        "--topology",
        "ring,fc",
        "--partition",
        "head",
        "--seed",
        "7",
        "--json",
    ];
    let first = flat(&args);
    let second = flat(&args);
    assert!(first.status.success(), "stderr: {}", stderr(&first));
    assert_eq!(
        first.stdout, second.stdout,
        "dist --json must be deterministic"
    );
    let json = String::from_utf8_lossy(&first.stdout).replace(char::is_whitespace, "");
    assert!(json.contains("\"points\""), "sweep points present: {json}");
    assert!(json.contains("\"knee_chips\""), "knees reported: {json}");
    assert!(json.contains("\"seed\":7"), "seed echoed: {json}");
}

/// Serving mode rides the same subcommand and stays deterministic too.
#[test]
fn dist_serve_mode_runs_and_reports_fabric_time() {
    let args = [
        "dist",
        "--platform",
        "edge",
        "--model",
        "bert",
        "--requests",
        "8",
        "--arrival-rate",
        "200",
        "--prompt",
        "32",
        "--output",
        "4",
        "--chips",
        "1,2",
        "--topology",
        "fc",
        "--seed",
        "3",
        "--json",
    ];
    let first = flat(&args);
    let second = flat(&args);
    assert!(first.status.success(), "stderr: {}", stderr(&first));
    assert_eq!(
        first.stdout, second.stdout,
        "dist serve mode must be deterministic"
    );
    let json = String::from_utf8_lossy(&first.stdout).replace(char::is_whitespace, "");
    assert!(
        json.contains("\"fabric_busy_ms\""),
        "fabric metrics present: {json}"
    );
    assert!(
        json.contains("\"per_shard_kv_peak_occupancy\""),
        "shard occupancy present: {json}"
    );
}

#[test]
fn bad_dist_flags_are_diagnostics() {
    for args in [
        ["dist", "--chips", "0,2"].as_slice(),
        &["dist", "--chips", "two"],
        &["dist", "--topology", "hypercube"],
        &["dist", "--partition", "expert"],
        &["dist", "--algo", "double-tree"],
        &["dist", "--link-gbps", "-3"],
        &["dist", "--link-us", "soon"],
    ] {
        let out = flat(args);
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "no panic backtrace: {err}");
        assert_eq!(err.trim().lines().count(), 1, "one-line diagnostic: {err}");
    }
}

#[test]
fn chaos_flag_survives_end_to_end() {
    let out = flat(&[
        "serve",
        "--platform",
        "edge",
        "--model",
        "bert",
        "--requests",
        "12",
        "--arrival-rate",
        "200",
        "--prompt",
        "32",
        "--output",
        "4",
        "--slo-ms",
        "50",
        "--chaos",
        "5",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "chaos runs must not panic: {}",
        stderr(&out)
    );
    let json = String::from_utf8_lossy(&out.stdout).replace(char::is_whitespace, "");
    assert!(
        json.contains("\"requests\":12"),
        "conservation visible in JSON: {json}"
    );
}

#[test]
fn bad_sim_engine_and_tolerance_are_diagnostics() {
    let out = flat(&["sim", "--seq", "512", "--engine", "magic"]);
    assert!(!out.status.success(), "bad --engine must exit nonzero");
    let err = stderr(&out);
    assert!(
        err.contains("magic") && err.contains("analytical, event, or both"),
        "diagnostic lists the valid engines: {err}"
    );
    assert!(!err.contains("panicked"), "no panic backtrace: {err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line diagnostic: {err}");

    let out = flat(&[
        "sim",
        "--seq",
        "512",
        "--engine",
        "both",
        "--tolerance",
        "lots",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--tolerance"), "{}", stderr(&out));

    let out = flat(&[
        "sim",
        "--seq",
        "512",
        "--engine",
        "both",
        "--tolerance",
        "7",
    ]);
    assert!(!out.status.success(), "tolerance > 1 must be rejected");
    assert!(stderr(&out).contains("--tolerance"), "{}", stderr(&out));

    let out = flat(&["sim", "--seq", "512", "--engine", "event", "--buffers", "0"]);
    assert!(!out.status.success(), "--buffers 0 must be rejected");
    assert!(stderr(&out).contains("--buffers"), "{}", stderr(&out));

    let out = flat(&["sim", "--seq", "512", "--sweep"]);
    assert!(
        !out.status.success(),
        "--sweep without both must be rejected"
    );
    assert!(stderr(&out).contains("--engine both"), "{}", stderr(&out));

    let out = flat(&["sim", "--seq", "512", "--trace-json", "t.json"]);
    assert!(
        !out.status.success(),
        "--trace-json on the analytical engine must be rejected"
    );
    let err = stderr(&out);
    assert!(err.contains("--trace-json"), "{err}");
    assert_eq!(err.trim().lines().count(), 1, "one-line diagnostic: {err}");
}

/// `flat sim --engine both --json` is the CI validation smoke: it must
/// report a divergence field and agree within the default tolerance on
/// an uncontended config.
#[test]
fn sim_both_json_reports_divergence() {
    let out = flat(&[
        "sim",
        "--platform",
        "edge",
        "--model",
        "bert",
        "--seq",
        "1024",
        "--dataflow",
        "flat-r64",
        "--engine",
        "both",
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = String::from_utf8_lossy(&out.stdout).replace(char::is_whitespace, "");
    assert!(
        json.contains("\"divergence\":"),
        "divergence reported: {json}"
    );
    assert!(
        json.contains("\"within_tolerance\":true"),
        "uncontended config agrees: {json}"
    );
}

/// The default engine prices the closed form and simulates nothing.
#[test]
fn sim_analytical_json_prices_without_simulating() {
    let out = flat(&["sim", "--seq", "512", "--engine", "analytical", "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = String::from_utf8_lossy(&out.stdout).replace(char::is_whitespace, "");
    assert!(json.contains("\"analytical_cycles\":"), "{json}");
    assert!(
        !json.contains("simulated") && !json.contains("event"),
        "{json}"
    );
}

/// The event backend exports a Perfetto-loadable trace with per-lane
/// thread names and a counter track.
#[test]
fn sim_event_trace_is_perfetto_shaped() {
    let path = std::env::temp_dir().join("flat_cli_test_desim_trace.json");
    let path_str = path.display().to_string();
    let out = flat(&[
        "sim",
        "--seq",
        "512",
        "--dataflow",
        "flat-r64",
        "--engine",
        "event",
        "--trace-json",
        &path_str,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let trace = std::fs::read_to_string(&path).expect("trace written");
    assert!(trace.starts_with("{\"traceEvents\":["));
    for needle in [
        "\"name\":\"flat-desim\"",
        "\"name\":\"pe\"",
        "\"name\":\"dma\"",
        "\"ph\":\"X\"",
        "\"ph\":\"C\"",
        "tiles in flight",
    ] {
        assert!(trace.contains(needle), "{needle} missing from trace");
    }
}
