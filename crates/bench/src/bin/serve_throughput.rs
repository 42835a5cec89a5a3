//! Load generator for the HTTP transport: boots an in-process
//! `mintri-serve` server over one shared engine and measures request
//! throughput **cold** (every request hits a graph the engine has never
//! seen — the full enumeration runs) vs. **warm-replay** (the same query
//! again — served from the session's completed answer cache with zero
//! `Extend` calls). Emits `BENCH_serve.json`.
//!
//! The gate workload is a budget-free best-k scan with the policy's
//! `"plan": false` and `"ranked": false`: the response body is tiny (k = 2 items), so
//! the measured ratio is compute-vs-replay, not JSON rendering;
//! planning is disabled so every distinct cold graph owns a distinct
//! whole-graph session (no atom sharing between the "cold" requests);
//! the ranked gear is disabled because its output-sensitive scan never
//! drains the enumeration, which is the very compute this gate measures. Cold graphs are an `n`-cycle
//! plus one chord at varying positions — structurally similar cost,
//! pairwise distinct fingerprints. A second, ungated workload streams a
//! full `enumerate` (items and all) for end-to-end wire throughput.
//!
//! Flags: `--out FILE` (default `BENCH_serve.json`), `--quick 1` (CI
//! smoke: smaller cycle, fewer rounds), `--warm N` (warm requests,
//! default 50).
//!
//! Per the `BENCH_engine.json` convention the document stamps the
//! host's CPU count and `"speedup_observable": false` when `cpus == 1`
//! — the replay-vs-compute ratios here are single-stream and remain
//! valid either way (the stamp gates only thread-scaling readings).
//!
//! `bench_check` consumes this file and fails CI when the warm-replay
//! gate (ratio, equal scan counts, `is_replay`) regresses.

use mintri_bench::Args;
use mintri_core::json::{graph_to_json, JsonValue};
use mintri_engine::Engine;
use mintri_graph::{Graph, Node};
use mintri_serve::client::Client;
use mintri_serve::{ServeConfig, Server};
use mintri_workloads::random::chord_cycle;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Measured {
    requests: usize,
    seconds: f64,
    scanned_last: usize,
    replay_last: bool,
}

/// Runs `specs` sequentially over one keep-alive connection; returns
/// wall-clock plus the last response's scan count and replay flag.
fn drive(client: &mut Client, specs: &[String]) -> Measured {
    let started = Instant::now();
    let mut scanned_last = 0;
    let mut replay_last = false;
    for spec in specs {
        let resp = client
            .request("POST", "/v1/query", Some(spec))
            .expect("query request");
        assert_eq!(resp.status, 200, "query failed: {}", resp.body);
        let doc = JsonValue::parse(&resp.body).expect("response parses");
        scanned_last = doc
            .get("outcome")
            .and_then(|o| o.get("scanned"))
            .and_then(JsonValue::as_usize)
            .expect("outcome.scanned");
        replay_last = doc
            .get("is_replay")
            .and_then(JsonValue::as_bool)
            .expect("is_replay");
    }
    Measured {
        requests: specs.len(),
        seconds: started.elapsed().as_secs_f64(),
        scanned_last,
        replay_last,
    }
}

fn upload(client: &mut Client, g: &Graph) -> String {
    let resp = client
        .request("POST", "/v1/graphs", Some(&graph_to_json(g)))
        .expect("upload request");
    assert_eq!(resp.status, 200, "upload failed: {}", resp.body);
    JsonValue::parse(&resp.body)
        .expect("upload response parses")
        .get("graph_id")
        .and_then(JsonValue::as_str)
        .expect("graph_id")
        .to_string()
}

// `"policy": {"ranked": false}` keeps this the full-scan gate: the
// ranked gear is output-sensitive (stops after ~k pulls, deposits no
// answer cache), so a ranked cold request would neither exercise the
// compute being gated nor arm the warm replay.
fn best_k_spec(graph_id: &str) -> String {
    format!(
        r#"{{"graph_id":"{graph_id}","query":{{"task":{{"type":"best_k","k":2,"cost":"width"}},"policy":{{"plan":false,"ranked":false}}}}}}"#
    )
}

fn enumerate_spec(graph_id: &str) -> String {
    format!(r#"{{"graph_id":"{graph_id}","query":{{"task":{{"type":"enumerate"}}}}}}"#)
}

fn main() -> std::io::Result<()> {
    let args = Args::parse();
    let out_path = args.get_str("out", "BENCH_serve.json");
    let quick = args.get_usize("quick", 0) != 0;
    let warm_rounds = args.get_usize("warm", 50);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup_observable = cpus > 1;

    // The chord family: quick keeps CI fast, full pushes the cold cost
    // up so the ratio reading is steadier.
    let n = if quick { 10 } else { 12 };
    let chords: Vec<Node> = (2..(n as Node - 1)).collect();

    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
        Arc::new(Engine::new()),
    )?;
    let addr = server.local_addr()?;
    let handle = server.handle()?;
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr)?;

    // -- gate workload: best-k over the chord family ---------------------
    let ids: Vec<String> = chords
        .iter()
        .map(|&j| upload(&mut client, &chord_cycle(n, j)))
        .collect();
    eprintln!(
        "cold: {} distinct C{n}+chord graphs, best-k scan each …",
        ids.len()
    );
    let cold_specs: Vec<String> = ids.iter().map(|id| best_k_spec(id)).collect();
    let cold = drive(&mut client, &cold_specs);
    assert!(!cold.replay_last, "cold requests must compute, not replay");

    // The gate graph is the last cold one; its scan count is in hand.
    let gate_id = ids.last().expect("non-empty chord family");
    let cold_scanned = cold.scanned_last;
    eprintln!("warm: {warm_rounds} replays of the same best-k query …");
    let warm_specs: Vec<String> = (0..warm_rounds).map(|_| best_k_spec(gate_id)).collect();
    let warm = drive(&mut client, &warm_specs);
    assert!(warm.replay_last, "warm requests must replay");
    assert_eq!(
        warm.scanned_last, cold_scanned,
        "replay must scan the same answer set"
    );

    let cold_rps = cold.requests as f64 / cold.seconds.max(1e-9);
    let warm_rps = warm.requests as f64 / warm.seconds.max(1e-9);
    let ratio = warm_rps / cold_rps.max(1e-9);
    eprintln!("gate: cold {cold_rps:.1} req/s, warm-replay {warm_rps:.1} req/s ({ratio:.0}x)");

    // -- side workload: full enumerate stream over the wire --------------
    let enum_id = upload(&mut client, &Graph::cycle(if quick { 7 } else { 8 }));
    let enum_cold = drive(&mut client, &[enumerate_spec(&enum_id)]);
    let enum_warm_specs: Vec<String> = (0..warm_rounds).map(|_| enumerate_spec(&enum_id)).collect();
    let enum_warm = drive(&mut client, &enum_warm_specs);
    assert!(enum_warm.replay_last);
    assert_eq!(enum_warm.scanned_last, enum_cold.scanned_last);
    let enum_cold_rps = enum_cold.requests as f64 / enum_cold.seconds.max(1e-9);
    let enum_warm_rps = enum_warm.requests as f64 / enum_warm.seconds.max(1e-9);
    eprintln!(
        "enumerate: cold {enum_cold_rps:.1} req/s, warm {enum_warm_rps:.1} req/s \
         ({} results per response)",
        enum_cold.scanned_last
    );

    drop(client);
    handle.shutdown();
    server_thread.join().expect("server thread").ok();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve_throughput\",");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"speedup_observable\": {speedup_observable},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"gate\": {{");
    let _ = writeln!(json, "    \"workload\": \"bestk_C{n}_chord\",");
    let _ = writeln!(json, "    \"cold_requests\": {},", cold.requests);
    let _ = writeln!(json, "    \"cold_seconds\": {:.6},", cold.seconds);
    let _ = writeln!(json, "    \"cold_rps\": {cold_rps:.2},");
    let _ = writeln!(json, "    \"warm_requests\": {},", warm.requests);
    let _ = writeln!(json, "    \"warm_seconds\": {:.6},", warm.seconds);
    let _ = writeln!(json, "    \"warm_rps\": {warm_rps:.2},");
    let _ = writeln!(json, "    \"warm_over_cold\": {ratio:.2},");
    let _ = writeln!(json, "    \"cold_scanned\": {cold_scanned},");
    let _ = writeln!(json, "    \"warm_scanned\": {},", warm.scanned_last);
    let _ = writeln!(json, "    \"warm_is_replay\": {}", warm.replay_last);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"enumerate\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": \"enumerate_C{}\",",
        if quick { 7 } else { 8 }
    );
    let _ = writeln!(
        json,
        "    \"results_per_response\": {},",
        enum_cold.scanned_last
    );
    let _ = writeln!(json, "    \"cold_rps\": {enum_cold_rps:.2},");
    let _ = writeln!(json, "    \"warm_rps\": {enum_warm_rps:.2},");
    let _ = writeln!(json, "    \"warm_is_replay\": {}", enum_warm.replay_last);
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::write(&out_path, &json)?;
    eprintln!("wrote {out_path}");
    Ok(())
}
