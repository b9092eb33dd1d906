//! Protocol conformance suite for `scpm serve`: an in-process client drives
//! every endpoint over a real loopback socket and asserts **byte-exact**
//! JSON against golden responses on the Figure 1 graph with the Table 1
//! parameters (σmin=3, γ=0.6, min_size=4, εmin=0.5, top-k=5).
//!
//! The goldens are stable because the catalog JSON renderer is
//! deterministic (insertion-ordered keys, shortest-roundtrip floats) and
//! the miner is bit-identical at any thread count. The suite closes with
//! the ISSUE's acceptance check: the `GET /catalog` result payload is
//! byte-identical to `scpm mine --json` run as a separate batch process.

use std::path::PathBuf;
use std::process::Command;

use scpm_core::ScpmParams;
use scpm_graph::figure1::figure1;
use scpm_serve::{Client, Json, ServeConfig, Server};

/// Table 1 parameters, aligned with the `scpm` CLI defaults for
/// `--top-k` (5) and `--max-attrs` (3) so the batch binary mines the
/// identical catalog.
fn table1_params() -> ScpmParams {
    ScpmParams::new(3, 0.6, 4)
        .with_eps_min(0.5)
        .with_top_k(5)
        .with_max_attrs(3)
}

/// Starts a figure-1 server and hands `(server, client)` to the test body.
fn with_server(test: impl FnOnce(&Server, Client)) {
    let server = Server::start(figure1(), ServeConfig::new(table1_params(), 2))
        .expect("server failed to start");
    let client = Client::new(server.addr());
    test(&server, client);
    server.stop();
}

/// Asserts one GET round-trip byte-for-byte.
fn assert_get(client: &Client, target: &str, status: u16, golden: &str) {
    let response = client.get(target).expect(target);
    assert_eq!(response.status, status, "status of GET {target}");
    assert_eq!(response.body, golden, "body of GET {target}");
}

#[test]
fn health_is_byte_exact() {
    with_server(|_, client| {
        assert_get(
            &client,
            "/health",
            200,
            r#"{"result":{"status":"ok"},"error":null,"generation":0}"#,
        );
    });
}

#[test]
fn top_k_orderings_are_byte_exact() {
    with_server(|_, client| {
        assert_get(
            &client,
            "/top?by=delta&k=2",
            200,
            r#"{"result":{"by":"delta","k":2,"count":2,"reports":[{"attrs":["A","B"],"support":6,"covered":6,"epsilon":1,"delta_lb":1.8429319371727748,"qualified":true},{"attrs":["B"],"support":6,"covered":6,"epsilon":1,"delta_lb":1.8429319371727748,"qualified":true}]},"error":null,"generation":0}"#,
        );
        assert_get(
            &client,
            "/top?by=epsilon&k=2",
            200,
            r#"{"result":{"by":"epsilon","k":2,"count":2,"reports":[{"attrs":["A","B"],"support":6,"covered":6,"epsilon":1,"delta_lb":1.8429319371727748,"qualified":true},{"attrs":["B"],"support":6,"covered":6,"epsilon":1,"delta_lb":1.8429319371727748,"qualified":true}]},"error":null,"generation":0}"#,
        );
        // {A} has full support σ=11: the unique top-1 by support.
        assert_get(
            &client,
            "/top?by=support&k=1",
            200,
            r#"{"result":{"by":"support","k":1,"count":1,"reports":[{"attrs":["A"],"support":11,"covered":9,"epsilon":0.8181818181818182,"delta_lb":0.8181818181818182,"qualified":true}]},"error":null,"generation":0}"#,
        );
    });
}

#[test]
fn attribute_set_query_is_byte_exact() {
    with_server(|_, client| {
        // The paper's flagship pattern: ({A,B}, {5..10}), ε = 1.
        assert_get(
            &client,
            "/patterns?attrs=A,B",
            200,
            r#"{"result":{"attrs":["A","B"],"report":{"attrs":["A","B"],"support":6,"covered":6,"epsilon":1,"delta_lb":1.8429319371727748,"qualified":true},"count":1,"patterns":[{"attrs":["A","B"],"vertices":[5,6,7,8,9,10],"size":6,"gamma":0.6,"density":0.6}]},"error":null,"generation":0}"#,
        );
        // Attribute order and duplicates in the query must not matter.
        let canonical = client.get("/patterns?attrs=A,B").unwrap();
        for variant in ["/patterns?attrs=B,A", "/patterns?attrs=B,A,B,%20A"] {
            let response = client.get(variant).expect(variant);
            assert_eq!(response.body, canonical.body, "GET {variant}");
        }
    });
}

#[test]
fn covering_query_is_byte_exact() {
    with_server(|_, client| {
        // Vertex 1 is outside every quasi-clique; vertex 10 sits in the
        // dense right-hand community and is covered by all three σ≥3
        // qualifying sets.
        assert_get(
            &client,
            "/patterns/covering?v=1",
            200,
            r#"{"result":{"vertex":1,"count":0,"patterns":[]},"error":null,"generation":0}"#,
        );
        assert_get(
            &client,
            "/patterns/covering?v=10",
            200,
            r#"{"result":{"vertex":10,"count":3,"patterns":[{"attrs":["A"],"vertices":[5,6,7,8,9,10],"size":6,"gamma":0.6,"density":0.6},{"attrs":["B"],"vertices":[5,6,7,8,9,10],"size":6,"gamma":0.6,"density":0.6},{"attrs":["A","B"],"vertices":[5,6,7,8,9,10],"size":6,"gamma":0.6,"density":0.6}]},"error":null,"generation":0}"#,
        );
    });
}

#[test]
fn delta_threshold_query_is_byte_exact() {
    with_server(|_, client| {
        assert_get(
            &client,
            "/reports?delta_min=1.0",
            200,
            r#"{"result":{"delta_min":1,"count":2,"reports":[{"attrs":["B"],"support":6,"covered":6,"epsilon":1,"delta_lb":1.8429319371727748,"qualified":true},{"attrs":["A","B"],"support":6,"covered":6,"epsilon":1,"delta_lb":1.8429319371727748,"qualified":true}]},"error":null,"generation":0}"#,
        );
    });
}

#[test]
fn error_responses_are_byte_exact() {
    with_server(|_, client| {
        assert_get(
            &client,
            "/nope",
            404,
            r#"{"result":null,"error":{"code":"not_found","message":"unknown endpoint `/nope`"},"generation":0}"#,
        );
        assert_get(
            &client,
            "/top?by=bogus",
            422,
            r#"{"result":null,"error":{"code":"invalid_parameter","message":"invalid `by` value `bogus` (want delta|epsilon|support)"},"generation":0}"#,
        );
        assert_get(
            &client,
            "/top?k=0",
            422,
            r#"{"result":null,"error":{"code":"invalid_parameter","message":"k must be at least 1"},"generation":0}"#,
        );
        assert_get(
            &client,
            "/patterns?attrs=A,NOPE",
            422,
            r#"{"result":null,"error":{"code":"unknown_attribute","message":"unknown attribute `NOPE`"},"generation":0}"#,
        );
        assert_get(
            &client,
            "/patterns/covering?v=99",
            422,
            r#"{"result":null,"error":{"code":"invalid_parameter","message":"vertex 99 out of range (graph has 11 vertices)"},"generation":0}"#,
        );
        assert_get(
            &client,
            "/reports?delta_min=-1",
            422,
            r#"{"result":null,"error":{"code":"invalid_parameter","message":"delta_min must be a finite non-negative number, got -1"},"generation":0}"#,
        );
        // Wrong verb on a known path is 405, distinguishable from 404.
        let response = client.post("/health", "").unwrap();
        assert_eq!(response.status, 405);
        assert_eq!(
            response.body,
            r#"{"result":null,"error":{"code":"method_not_allowed","message":"POST is not supported on /health (use GET)"},"generation":0}"#,
        );
    });
}

#[test]
fn full_catalog_is_byte_exact() {
    with_server(|_, client| {
        assert_get(
            &client,
            "/catalog",
            200,
            r#"{"result":{"params":{"sigma_min":3,"gamma":0.6,"min_size":4,"eps_min":0.5,"delta_min":0,"top_k":5,"min_attrs":1,"max_attrs":3},"num_vertices":11,"num_attributes":5,"num_reports":5,"num_patterns":7,"reports":[{"attrs":["A"],"support":11,"covered":9,"epsilon":0.8181818181818182,"delta_lb":0.8181818181818182,"qualified":true},{"attrs":["C"],"support":3,"covered":0,"epsilon":0,"delta_lb":0,"qualified":false},{"attrs":["D"],"support":3,"covered":0,"epsilon":0,"delta_lb":0,"qualified":false},{"attrs":["B"],"support":6,"covered":6,"epsilon":1,"delta_lb":1.8429319371727748,"qualified":true},{"attrs":["A","B"],"support":6,"covered":6,"epsilon":1,"delta_lb":1.8429319371727748,"qualified":true}],"patterns":[{"attrs":["A"],"vertices":[5,6,7,8,9,10],"size":6,"gamma":0.6,"density":0.6},{"attrs":["A"],"vertices":[2,3,4,5],"size":4,"gamma":1,"density":1},{"attrs":["A"],"vertices":[2,3,5,6],"size":4,"gamma":0.6666666666666666,"density":0.8333333333333334},{"attrs":["A"],"vertices":[2,4,5,6],"size":4,"gamma":0.6666666666666666,"density":0.8333333333333334},{"attrs":["A"],"vertices":[2,5,6,7],"size":4,"gamma":0.6666666666666666,"density":0.8333333333333334},{"attrs":["B"],"vertices":[5,6,7,8,9,10],"size":6,"gamma":0.6,"density":0.6},{"attrs":["A","B"],"vertices":[5,6,7,8,9,10],"size":6,"gamma":0.6,"density":0.6}],"stats":{"attribute_sets_examined":5,"attribute_sets_qualified":3,"pruned_support":0,"pruned_apriori":0,"pruned_eps_bound":2,"pruned_delta_bound":0,"qc_nodes_coverage":5,"qc_nodes_topk":35,"qc_edge_tests":37,"qc_kernel_ops":1140,"qc_fused_ops":386,"qc_blocks_skipped":0,"qc_probes_elided":251,"qc_batch_ops":83}},"error":null,"generation":0}"#,
        );
    });
}

/// ISSUE acceptance check: the catalog served over the socket is
/// byte-identical to a fresh batch `scpm mine --json` run in a separate
/// process on the same snapshot and parameters.
#[test]
fn socket_catalog_matches_batch_mine_bytes() {
    let dir = std::env::temp_dir().join("scpm_serve_protocol");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("figure1.txt");
    scpm_graph::io::save_attributed(&figure1(), &path).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_scpm"))
        .args([
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
            "--json",
        ])
        .output()
        .expect("failed to spawn scpm binary");
    assert!(
        out.status.success(),
        "batch mine failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let batch = String::from_utf8(out.stdout).unwrap();

    with_server(|_, client| {
        let response = client.get("/catalog").unwrap();
        assert_eq!(response.status, 200);
        let served = response.result().unwrap().render();
        assert_eq!(
            served,
            batch.trim_end(),
            "served catalog differs from batch `scpm mine --json`"
        );
    });
}

#[test]
fn keep_alive_pipelines_two_requests_on_one_connection() {
    with_server(|_, client| {
        // Two requests on one connection: the first keeps the connection
        // open, the second closes it. `raw` reads everything to EOF.
        let payload = b"GET /health HTTP/1.1\r\nHost: scpm\r\n\r\n\
                        GET /health HTTP/1.1\r\nHost: scpm\r\nConnection: close\r\n\r\n";
        let raw = client.raw(payload).unwrap();
        let text = String::from_utf8(raw).unwrap();
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
        assert_eq!(
            text.matches(r#"{"result":{"status":"ok"},"error":null,"generation":0}"#)
                .count(),
            2,
            "{text}"
        );
        assert!(text.contains("Connection: keep-alive"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
    });
}

#[test]
fn response_headers_frame_the_body() {
    with_server(|_, client| {
        let payload = b"GET /health HTTP/1.1\r\nHost: scpm\r\nConnection: close\r\n\r\n";
        let raw = client.raw(payload).unwrap();
        let text = String::from_utf8(raw).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("no header separator");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("Content-Type: application/json"), "{head}");
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("no Content-Length")
            .trim()
            .parse()
            .unwrap();
        assert_eq!(declared, body.len(), "Content-Length must frame the body");
    });
}

/// Every success envelope is `{"result":…,"error":null,"generation":N}`
/// and every error envelope carries a structured `code` + `message`.
#[test]
fn envelopes_are_uniform_across_endpoints() {
    with_server(|_, client| {
        for target in [
            "/health",
            "/stats",
            "/catalog",
            "/patterns?attrs=A",
            "/patterns/covering?v=0",
            "/reports?delta_min=0",
            "/top",
        ] {
            let response = client.get(target).expect(target);
            assert_eq!(response.status, 200, "GET {target}");
            let envelope = response.json().unwrap();
            assert_eq!(
                envelope.keys(),
                vec!["result", "error", "generation"],
                "GET {target}"
            );
            assert_eq!(envelope.get("error"), Some(&Json::Null), "GET {target}");
            assert_eq!(response.generation().unwrap(), 0, "GET {target}");
        }
        for target in ["/nope", "/top?k=0"] {
            let response = client.get(target).expect(target);
            assert!(response.status >= 400, "GET {target}");
            let envelope = response.json().unwrap();
            assert_eq!(envelope.get("result"), Some(&Json::Null), "GET {target}");
            let error = envelope.get("error").expect("error field");
            assert!(error.get("code").is_some(), "GET {target}");
            assert!(error.get("message").is_some(), "GET {target}");
        }
    });
}

/// `/stats` is structural (counters move between runs), so it is checked
/// shape-wise rather than byte-wise — but the mining counters themselves
/// are deterministic and must match the golden run.
#[test]
fn stats_reports_all_sections() {
    with_server(|_, client| {
        let response = client.get("/stats").unwrap();
        assert_eq!(response.status, 200);
        let stats = response.result().unwrap();
        assert_eq!(
            stats.keys(),
            vec![
                "server",
                "catalog",
                "mining",
                "null_model_cache",
                "durability"
            ]
        );
        // In-memory serving reports no durability state.
        assert_eq!(stats.get("durability"), Some(&Json::Null));
        let server = stats.get("server").unwrap();
        assert_eq!(server.get("threads").and_then(Json::as_u64), Some(2));
        let catalog = stats.get("catalog").unwrap();
        assert_eq!(catalog.get("reports").and_then(Json::as_u64), Some(5));
        assert_eq!(catalog.get("patterns").and_then(Json::as_u64), Some(7));
        assert_eq!(catalog.get("generation").and_then(Json::as_u64), Some(0));
        let mining = stats.get("mining").unwrap();
        assert_eq!(
            mining.get("attribute_sets_examined").and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(
            mining.get("qc_kernel_ops").and_then(Json::as_u64),
            Some(1140)
        );
        // The batched-promotion counters are served alongside the classic
        // kernel figures; on Figure 1 the elided probes are exactly the
        // point probes the slice path would have issued at those sites.
        assert_eq!(
            mining.get("qc_probes_elided").and_then(Json::as_u64),
            Some(251)
        );
        assert_eq!(mining.get("qc_batch_ops").and_then(Json::as_u64), Some(83));
        let cache = stats.get("null_model_cache").unwrap();
        assert!(cache.get("entries").and_then(Json::as_u64).is_some());
    });
}
