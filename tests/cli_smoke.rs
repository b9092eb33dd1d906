//! End-to-end smoke tests of the `scpm` binary: every subcommand through a
//! real process, including the error paths' exit codes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scpm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scpm"))
        .args(args)
        .output()
        .expect("failed to spawn scpm binary")
}

fn temp_graph(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("scpm_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.txt"));
    scpm_graph::io::save_attributed(&scpm_graph::figure1::figure1(), &path).unwrap();
    path
}

#[test]
fn no_arguments_prints_usage_and_exit_2() {
    let out = scpm(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_command_fails() {
    let out = scpm(&["transmogrify"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_graph_file_fails_cleanly() {
    let out = scpm(&["stats", "--graph", "/nonexistent/g.txt"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn mine_reproduces_table1_via_process() {
    let path = temp_graph("mine");
    let out = scpm(&[
        "mine",
        "--graph",
        path.to_str().unwrap(),
        "--sigma-min",
        "3",
        "--gamma",
        "0.6",
        "--min-size",
        "4",
        "--eps-min",
        "0.5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("top structural correlation"));
    assert!(stdout.contains("patterns"));
    // 7 qualifying pattern rows exist; the default limit shows them.
    assert!(stdout.contains("{A, B}"));
}

#[test]
fn mine_rejects_unknown_repr() {
    let path = temp_graph("badrepr");
    for repr in ["avx512", "simd"] {
        let out = scpm(&["mine", "--graph", path.to_str().unwrap(), "--repr", repr]);
        assert_eq!(out.status.code(), Some(1), "--repr {repr}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("invalid --repr `{repr}`")),
            "{stderr}"
        );
        // The hint lists every accepted value.
        assert!(stderr.contains("(want bitset|slice)"), "{stderr}");
    }
}

#[test]
fn mine_repr_simd_gated_on_feature() {
    // There is no `simd` feature to build with: `--repr simd` is an
    // unknown value like any other, with no build hint.
    let path = temp_graph("simdrepr");
    let out = scpm(&["mine", "--graph", path.to_str().unwrap(), "--repr", "simd"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid --repr `simd`"), "{stderr}");
    assert!(!stderr.contains("feature"), "{stderr}");
    assert!(!stderr.contains("cargo build"), "{stderr}");
}

#[test]
fn induce_reports_epsilon_and_pvalue() {
    let path = temp_graph("induce");
    let out = scpm(&[
        "induce",
        "--graph",
        path.to_str().unwrap(),
        "--attrs",
        "A,B",
        "--gamma",
        "0.6",
        "--min-size",
        "4",
        "--pvalue-sims",
        "9",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ε = 1.0000"), "stdout: {stdout}");
    assert!(stdout.contains("empirical p-value"));
    assert!(stdout.contains("δ_lb"));
}

#[test]
fn induce_unknown_attribute_fails() {
    let path = temp_graph("induce_bad");
    let out = scpm(&[
        "induce",
        "--graph",
        path.to_str().unwrap(),
        "--attrs",
        "NOPE",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown attribute"));
}

#[test]
fn closed_lists_nonredundant_sets() {
    let path = temp_graph("closed");
    let out = scpm(&[
        "closed",
        "--graph",
        path.to_str().unwrap(),
        "--sigma-min",
        "3",
        "--max-attrs",
        "4",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("closed attribute sets"));
    // {A} is closed (σ=11, no superset matches); {B} is NOT closed: every
    // B-vertex also has A, so {A,B} subsumes it.
    assert!(stdout.contains("{A}"));
    assert!(stdout.contains("{A, B}"));
    assert!(
        !stdout.contains(" {B} "),
        "non-closed {{B}} listed: {stdout}"
    );
}

#[test]
fn serve_starts_answers_and_shuts_down_cleanly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let path = temp_graph("serve");
    // Port 0 binds an ephemeral port; the listening line on stdout is the
    // hand-off telling us which one.
    let mut child = Command::new(env!("CARGO_BIN_EXE_scpm"))
        .args([
            "serve",
            "--graph",
            path.to_str().unwrap(),
            "--port",
            "0",
            "--threads",
            "2",
            "--sigma-min",
            "3",
            "--gamma",
            "0.6",
            "--min-size",
            "4",
            "--eps-min",
            "0.5",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("failed to spawn scpm serve");

    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr: std::net::SocketAddr = line
        .trim()
        .strip_prefix("scpm serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("unparseable listen address");

    let client = scpm_serve::Client::new(addr);
    let health = client.get("/health").expect("health check failed");
    assert_eq!(health.status, 200);
    assert_eq!(
        health.body,
        r#"{"result":{"status":"ok"},"error":null,"generation":0}"#
    );
    // Table 1 catalog over the socket: 5 reports, 7 patterns.
    let stats = client.get("/stats").expect("stats failed");
    assert!(stats.body.contains("\"reports\":5"), "{}", stats.body);
    assert!(stats.body.contains("\"patterns\":7"), "{}", stats.body);

    // Clean shutdown over the ctrl channel, not a kill.
    let bye = client.post("/shutdown", "").expect("shutdown failed");
    assert_eq!(bye.status, 200);
    let status = child.wait().expect("serve process did not exit");
    assert_eq!(status.code(), Some(0), "serve exited uncleanly");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(
        rest.contains("scpm serve: shut down cleanly"),
        "missing clean-shutdown line: {rest:?}"
    );
}

#[test]
fn serve_rejects_invalid_parameters_at_startup() {
    let path = temp_graph("serve_bad");
    let out = scpm(&[
        "serve",
        "--graph",
        path.to_str().unwrap(),
        "--port",
        "0",
        "--gamma",
        "7",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("gamma"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn misspelled_flags_exit_2_with_usage() {
    let path = temp_graph("misspelled");
    let graph = path.to_str().unwrap();
    // `serve` gets a missing graph file so that, were the flag accepted,
    // the run would fail on loading instead of serving forever.
    for args in [
        ["mine", "--graph", graph, "--sigma-mn", "999999"],
        ["serve", "--graph", "/nonexistent/g.txt", "--sigma-mn", "5"],
    ] {
        let out = scpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag `--sigma-mn`"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing may be mined");
    }
}

#[test]
fn non_mining_commands_reject_mining_flags_with_usage() {
    let path = temp_graph("foreign_flags");
    let graph = path.to_str().unwrap();
    let out_path = path.with_extension("copy.txt");
    let copy = out_path.to_str().unwrap();
    for (args, flag) in [
        (
            vec![
                "stats", "--graph", graph, "--top-k", "0", "--order", "sideways",
            ],
            "`--top-k` is not a flag of `scpm stats`",
        ),
        (
            vec!["convert", "--graph", graph, "--out", copy, "--eps-min", "7"],
            "`--eps-min` is not a flag of `scpm convert`",
        ),
    ] {
        let out = scpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "the command must not run");
    }
    assert!(!out_path.exists(), "convert must not have written");
    // The same commands still run with their own flags.
    assert!(scpm(&["stats", "--graph", graph]).status.success());
    assert!(scpm(&["convert", "--graph", graph, "--out", copy])
        .status
        .success());
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn generate_convert_nullmodel_pipeline() {
    let dir = std::env::temp_dir().join("scpm_cli_smoke_pipe");
    std::fs::create_dir_all(&dir).unwrap();
    let text = dir.join("g.txt");
    let snap = dir.join("g.snap");
    let out = scpm(&[
        "generate",
        "--dataset",
        "dblp",
        "--scale",
        "0.003",
        "--seed",
        "3",
        "--out",
        text.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = scpm(&[
        "convert",
        "--graph",
        text.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    // Snapshot loads transparently everywhere a graph is accepted.
    let out = scpm(&[
        "nullmodel",
        "--graph",
        snap.to_str().unwrap(),
        "--points",
        "3",
        "--sims",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("max-exp"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mine_rejects_out_of_range_thresholds() {
    let path = temp_graph("badthresholds");
    let graph = path.to_str().unwrap();
    for (flags, message) in [
        (
            &["--eps-min", "nan"][..],
            "`eps_min` must be in [0, 1], got NaN",
        ),
        (
            &["--eps-min", "2"][..],
            "`eps_min` must be in [0, 1], got 2",
        ),
        (
            &["--delta-min", "-1"][..],
            "`delta_min` must be non-negative, got -1",
        ),
        (&["--top-k", "0"][..], "`top_k` must be at least 1"),
        (
            &["--max-attrs", "1", "--min-attrs", "3"][..],
            "`max_attrs` (1) must be at least `min_attrs` (3)",
        ),
        (&["--gamma", "0"][..], "`gamma` must be in (0, 1], got 0"),
        (&["--min-size", "0"][..], "`min_size` must be at least 1"),
    ] {
        let mut args = vec!["mine", "--graph", graph];
        args.extend_from_slice(flags);
        let out = scpm(&args);
        assert_eq!(out.status.code(), Some(1), "{flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?}: nothing may be mined");
    }
}

#[test]
fn induce_and_nullmodel_reject_out_of_range_gamma() {
    let path = temp_graph("badgamma");
    let graph = path.to_str().unwrap();
    for args in [
        &["induce", "--graph", graph, "--attrs", "A", "--gamma", "0"][..],
        &["nullmodel", "--graph", graph, "--gamma", "1.5"][..],
    ] {
        let out = scpm(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("`gamma` must be in (0, 1]"), "{stderr}");
    }
}

/// The Table-1 thresholds as CLI flags (`--top-k` and `--max-attrs` keep
/// their CLI defaults, 5 and 3).
const TABLE1_FLAGS: [&str; 8] = [
    "--sigma-min",
    "3",
    "--gamma",
    "0.6",
    "--min-size",
    "4",
    "--eps-min",
    "0.5",
];

#[test]
fn update_json_equals_mine_json_on_the_updated_graph() {
    let dir = std::env::temp_dir().join("scpm_cli_smoke_update");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graph = temp_graph("update");
    let delta = dir.join("d.txt");
    let updated = dir.join("updated.snap");
    // Paper vertex 5 gains B and an edge to 8: a new B quasi-clique.
    std::fs::write(&delta, "e 4 7\na 4 B\nv 1\ne 11 0\n").unwrap();
    let mut args = vec![
        "update",
        "--graph",
        graph.to_str().unwrap(),
        "--delta",
        delta.to_str().unwrap(),
        "--out",
        updated.to_str().unwrap(),
        "--json",
    ];
    args.extend(TABLE1_FLAGS);
    let update = scpm(&args);
    assert!(
        update.status.success(),
        "{}",
        String::from_utf8_lossy(&update.stderr)
    );
    let mut args = vec!["mine", "--graph", updated.to_str().unwrap(), "--json"];
    args.extend(TABLE1_FLAGS);
    let mine = scpm(&args);
    assert!(mine.status.success());
    assert!(!mine.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&update.stdout),
        String::from_utf8_lossy(&mine.stdout)
    );
}

#[test]
fn recover_reports_the_generation_an_aborted_server_left() {
    use scpm_core::ScpmParams;
    use scpm_serve::{Client, DurabilityConfig, ServeConfig, Server};

    let dir = std::env::temp_dir().join("scpm_cli_smoke_recover");
    let _ = std::fs::remove_dir_all(&dir);
    // The CLI's parameters for TABLE1_FLAGS, so the memo replays.
    let params = ScpmParams::new(3, 0.6, 4)
        .with_eps_min(0.5)
        .with_top_k(5)
        .with_max_attrs(3);
    let config = ServeConfig::new(params, 1)
        .with_durability(DurabilityConfig::new(&dir).with_checkpoint_every(100));
    let server = Server::start(scpm_graph::figure1::figure1(), config).unwrap();
    let client = Client::new(server.addr());
    for body in [r#"{"edges":[[4,7]]}"#, r#"{"attrs":[[4,"B"]]}"#] {
        let response = client.post("/update", body).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
    }
    // No final checkpoint: both deltas live only in the journal.
    server.abort();

    let mut args = vec!["recover", dir.to_str().unwrap()];
    args.extend(TABLE1_FLAGS);
    let out = scpm(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("snapshot generation 0, 2 journaled delta(s) to replay"),
        "{stdout}"
    );
    assert!(stdout.contains("memo replayed"), "{stdout}");
    assert!(
        stdout.contains("recovered generation 2: 11 vertices, 20 edges"),
        "{stdout}"
    );
}
