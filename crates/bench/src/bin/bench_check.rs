//! The bench-regression gate: parses `BENCH_*.json` documents (with the
//! same `mintri_core::json` parser the wire uses — the benches' output
//! is not write-only either) and fails loudly when an invariant doesn't
//! hold. CI runs it after the `--quick` bench smoke runs; locally it
//! doubles as a sanity check on freshly regenerated baselines.
//!
//! Checks:
//! * `--serve FILE` (`serve_throughput` output): the warm-replay gate —
//!   `warm_is_replay` true, warm and cold scans count the same answer
//!   set, and warm-replay req/s at least `--min-ratio` (default 10)
//!   times cold.
//! * `--reduction FILE` (`reduction_gain` output): every workload
//!   enumerated a positive number of results in positive time (the
//!   planned-vs-unreduced *equality* is asserted inside the bench run
//!   itself; this guards the document).
//! * `--ranked FILE` (`ranked_gain` output): every workload's ranked
//!   best-k ran at least `--min-ranked-ratio` (default 3) times faster
//!   than the exhaustive scan, with the full complement of winners
//!   (the winner *equality* is asserted inside the bench run itself).
//! * `--store FILE` (`store_gain` output): the persistence gate —
//!   `hydrated_is_replay` true, hydrated and cold scans count the same
//!   answer set, and disk-hydration at least `--min-store-ratio`
//!   (default 5) times faster than cold compute.
//! * `--telemetry FILE` (`telemetry_overhead` output): span tracing
//!   cost stays under `--max-overhead-pct` (default 5) and the traced
//!   run produced results.
//! * `--kernel FILE` (`kernel_gain` output): the scratch-space execution
//!   kernel keeps cold enumeration at least `--min-kernel-ratio`
//!   (default 1.3, fractional allowed) times faster than the ablated
//!   allocating path, with a positive `Extend` count on both sides.
//! * `--parse FILE`: the file parses with `mintri_core::json` — the
//!   serve smoke uses this to prove a `"trace": true` response
//!   round-trips through the core parser.
//!
//! Exits non-zero on the first violation, printing what failed.

use mintri_bench::Args;
use mintri_core::json::JsonValue;
use std::process::ExitCode;

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn field<'a>(doc: &'a JsonValue, path: &[&str]) -> Result<&'a JsonValue, String> {
    let mut v = doc;
    for key in path {
        v = v
            .get(key)
            .ok_or_else(|| format!("missing field {:?}", path.join(".")))?;
    }
    Ok(v)
}

fn check_serve(path: &str, min_ratio: f64) -> Result<(), String> {
    let doc = load(path)?;
    let gate = field(&doc, &["gate"])?;
    let replay = field(gate, &["warm_is_replay"])?
        .as_bool()
        .ok_or("warm_is_replay must be a boolean")?;
    if !replay {
        return Err(format!("{path}: warm requests did not replay"));
    }
    let cold_scanned = field(gate, &["cold_scanned"])?
        .as_usize()
        .ok_or("cold_scanned must be an integer")?;
    let warm_scanned = field(gate, &["warm_scanned"])?
        .as_usize()
        .ok_or("warm_scanned must be an integer")?;
    if cold_scanned == 0 || cold_scanned != warm_scanned {
        return Err(format!(
            "{path}: scan counts diverge (cold {cold_scanned}, warm {warm_scanned})"
        ));
    }
    let ratio = field(gate, &["warm_over_cold"])?
        .as_f64()
        .ok_or("warm_over_cold must be a number")?;
    if ratio < min_ratio {
        return Err(format!(
            "{path}: warm-replay only {ratio:.2}x cold (gate: >= {min_ratio}x)"
        ));
    }
    eprintln!(
        "serve ok: {} — replay {ratio:.0}x cold over {cold_scanned} answers",
        field(gate, &["workload"])?.as_str().unwrap_or("?")
    );
    Ok(())
}

fn check_reduction(path: &str) -> Result<(), String> {
    let doc = load(path)?;
    let workloads = field(&doc, &["workloads"])?
        .as_array()
        .ok_or("workloads must be an array")?;
    if workloads.is_empty() {
        return Err(format!("{path}: no workloads recorded"));
    }
    for w in workloads {
        let name = field(w, &["name"])?.as_str().unwrap_or("?").to_string();
        let results = field(w, &["results"])?
            .as_usize()
            .ok_or_else(|| format!("{name}: results must be an integer"))?;
        if results == 0 {
            return Err(format!("{path}: workload {name} produced no results"));
        }
        for key in ["unreduced_seconds", "planned_seconds"] {
            let seconds = field(w, &[key])?
                .as_f64()
                .ok_or_else(|| format!("{name}: {key} must be a number"))?;
            if seconds <= 0.0 || seconds.is_nan() {
                return Err(format!("{path}: workload {name} has {key} = {seconds}"));
            }
        }
    }
    eprintln!(
        "reduction ok: {} workloads, all non-degenerate",
        workloads.len()
    );
    Ok(())
}

fn check_ranked(path: &str, min_ratio: f64) -> Result<(), String> {
    let doc = load(path)?;
    let k = field(&doc, &["k"])?
        .as_usize()
        .ok_or("k must be an integer")?;
    let workloads = field(&doc, &["workloads"])?
        .as_array()
        .ok_or("workloads must be an array")?;
    if workloads.is_empty() {
        return Err(format!("{path}: no workloads recorded"));
    }
    for w in workloads {
        let name = format!(
            "{}/{}",
            field(w, &["name"])?.as_str().unwrap_or("?"),
            field(w, &["cost"])?.as_str().unwrap_or("?")
        );
        let winners = field(w, &["winners"])?
            .as_usize()
            .ok_or_else(|| format!("{name}: winners must be an integer"))?;
        if winners != k {
            return Err(format!(
                "{path}: workload {name} produced {winners} winners (asked for {k})"
            ));
        }
        for key in ["exhaustive_seconds", "ranked_seconds"] {
            let seconds = field(w, &[key])?
                .as_f64()
                .ok_or_else(|| format!("{name}: {key} must be a number"))?;
            if seconds <= 0.0 || seconds.is_nan() {
                return Err(format!("{path}: workload {name} has {key} = {seconds}"));
            }
        }
        let speedup = field(w, &["speedup"])?
            .as_f64()
            .ok_or_else(|| format!("{name}: speedup must be a number"))?;
        if speedup.is_nan() || speedup < min_ratio {
            return Err(format!(
                "{path}: workload {name} ranked only {speedup:.2}x exhaustive \
                 (gate: >= {min_ratio}x)"
            ));
        }
        eprintln!("ranked ok: {name} — {speedup:.1}x exhaustive at k={k}");
    }
    Ok(())
}

fn check_store(path: &str, min_ratio: f64) -> Result<(), String> {
    let doc = load(path)?;
    let gate = field(&doc, &["gate"])?;
    let replay = field(gate, &["hydrated_is_replay"])?
        .as_bool()
        .ok_or("hydrated_is_replay must be a boolean")?;
    if !replay {
        return Err(format!("{path}: disk-hydrated requests did not replay"));
    }
    let cold_scanned = field(gate, &["cold_scanned"])?
        .as_usize()
        .ok_or("cold_scanned must be an integer")?;
    let hydrated_scanned = field(gate, &["hydrated_scanned"])?
        .as_usize()
        .ok_or("hydrated_scanned must be an integer")?;
    if cold_scanned == 0 || cold_scanned != hydrated_scanned {
        return Err(format!(
            "{path}: scan counts diverge (cold {cold_scanned}, hydrated {hydrated_scanned})"
        ));
    }
    let ratio = field(gate, &["cold_over_hydrated"])?
        .as_f64()
        .ok_or("cold_over_hydrated must be a number")?;
    if ratio.is_nan() || ratio < min_ratio {
        return Err(format!(
            "{path}: disk-hydration only {ratio:.2}x cold (gate: >= {min_ratio}x)"
        ));
    }
    eprintln!(
        "store ok: {} — disk-hydrate {ratio:.0}x cold over {cold_scanned} answers",
        field(gate, &["workload"])?.as_str().unwrap_or("?")
    );
    Ok(())
}

fn check_telemetry(path: &str, max_overhead_pct: f64) -> Result<(), String> {
    let doc = load(path)?;
    let results = field(&doc, &["results"])?
        .as_usize()
        .ok_or("results must be an integer")?;
    if results == 0 {
        return Err(format!("{path}: traced run produced no results"));
    }
    for key in ["untraced_seconds", "traced_seconds"] {
        let seconds = field(&doc, &[key])?
            .as_f64()
            .ok_or_else(|| format!("{key} must be a number"))?;
        if seconds <= 0.0 || seconds.is_nan() {
            return Err(format!("{path}: {key} = {seconds}"));
        }
    }
    let overhead = field(&doc, &["overhead_pct"])?
        .as_f64()
        .ok_or("overhead_pct must be a number")?;
    if overhead.is_nan() || overhead > max_overhead_pct {
        return Err(format!(
            "{path}: tracing costs {overhead:.2}% (gate: <= {max_overhead_pct}%)"
        ));
    }
    eprintln!(
        "telemetry ok: {} — tracing {overhead:.2}% over {results} answers",
        field(&doc, &["family"])?.as_str().unwrap_or("?")
    );
    Ok(())
}

fn check_kernel(path: &str, min_ratio: f64) -> Result<(), String> {
    let doc = load(path)?;
    let extends = field(&doc, &["extends_per_sweep"])?
        .as_usize()
        .ok_or("extends_per_sweep must be an integer")?;
    if extends == 0 {
        return Err(format!("{path}: the family triggered no Extend calls"));
    }
    for key in ["ablated_seconds", "kernel_seconds"] {
        let seconds = field(&doc, &[key])?
            .as_f64()
            .ok_or_else(|| format!("{key} must be a number"))?;
        if seconds <= 0.0 || seconds.is_nan() {
            return Err(format!("{path}: {key} = {seconds}"));
        }
    }
    let speedup = field(&doc, &["speedup"])?
        .as_f64()
        .ok_or("speedup must be a number")?;
    if speedup.is_nan() || speedup < min_ratio {
        return Err(format!(
            "{path}: scratch kernel only {speedup:.2}x the allocating path \
             (gate: >= {min_ratio}x)"
        ));
    }
    eprintln!(
        "kernel ok: {} — scratch kernel {speedup:.2}x over {extends} extends/sweep",
        field(&doc, &["family"])?.as_str().unwrap_or("?")
    );
    Ok(())
}

/// Not a gate on values — a gate on *shape*: the document must survive
/// the same parser the wire clients use.
fn check_parse(path: &str) -> Result<(), String> {
    let doc = load(path)?;
    eprintln!(
        "parse ok: {path} ({})",
        match &doc {
            JsonValue::Obj(fields) => format!("object, {} fields", fields.len()),
            JsonValue::Arr(items) => format!("array, {} items", items.len()),
            _ => "scalar".to_string(),
        }
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = Args::parse();
    let min_ratio = args.get_u64("min-ratio", 10) as f64;
    let min_ranked_ratio = args.get_u64("min-ranked-ratio", 3) as f64;
    let min_store_ratio = args.get_u64("min-store-ratio", 5) as f64;
    let max_overhead_pct = args.get_u64("max-overhead-pct", 5) as f64;
    // Fractional gate (1.3x is a meaningful floor), so parsed as f64
    // rather than through get_u64 like the integer ratios above.
    let min_kernel_ratio = args
        .get_str("min-kernel-ratio", "1.3")
        .parse::<f64>()
        .unwrap_or(1.3);
    let serve = args.get_str("serve", "");
    let reduction = args.get_str("reduction", "");
    let ranked = args.get_str("ranked", "");
    let store = args.get_str("store", "");
    let telemetry = args.get_str("telemetry", "");
    let kernel = args.get_str("kernel", "");
    let parse = args.get_str("parse", "");
    if serve.is_empty()
        && reduction.is_empty()
        && ranked.is_empty()
        && store.is_empty()
        && telemetry.is_empty()
        && kernel.is_empty()
        && parse.is_empty()
    {
        eprintln!(
            "usage: bench_check [--serve BENCH_serve.json] [--reduction BENCH_reduction.json] \
             [--ranked BENCH_ranked.json] [--store BENCH_store.json] \
             [--telemetry BENCH_telemetry.json] [--kernel BENCH_kernel.json] \
             [--parse FILE.json] \
             [--min-ratio R] [--min-ranked-ratio R] [--min-store-ratio R] [--max-overhead-pct P] \
             [--min-kernel-ratio R]"
        );
        return ExitCode::FAILURE;
    }
    let mut checks: Vec<Result<(), String>> = Vec::new();
    if !serve.is_empty() {
        checks.push(check_serve(&serve, min_ratio));
    }
    if !reduction.is_empty() {
        checks.push(check_reduction(&reduction));
    }
    if !ranked.is_empty() {
        checks.push(check_ranked(&ranked, min_ranked_ratio));
    }
    if !store.is_empty() {
        checks.push(check_store(&store, min_store_ratio));
    }
    if !telemetry.is_empty() {
        checks.push(check_telemetry(&telemetry, max_overhead_pct));
    }
    if !kernel.is_empty() {
        checks.push(check_kernel(&kernel, min_kernel_ratio));
    }
    if !parse.is_empty() {
        checks.push(check_parse(&parse));
    }
    for check in checks {
        if let Err(e) = check {
            eprintln!("BENCH CHECK FAILED: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
