//! Wall-clock benchmark of the SCPM suite.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload citeseer-oocore|skewed-mine|dblp-serve|all \
//!     --seed N --seconds S --trace 0|1 [--tiny] [--pins FILE] [--cache DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! split; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 only
//! when every output was correct. See `README.md` for the workloads and
//! metrics.

mod inputs;
mod run;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inputs::Workload;
use scpm_serve::Json;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    prepare: bool,
    pins: PathBuf,
    cache: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        prepare: false,
        pins: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/pins.tsv")),
        cache: PathBuf::from(".wallbench-cache"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--pins" => args.pins = PathBuf::from(value()?),
            "--cache" => args.cache = PathBuf::from(value()?),
            "--tiny" => args.tiny = true,
            "--prepare" => args.prepare = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("wallbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    // Spill files of the library's out-of-core paths go to the temp dir;
    // keep them inside the benchmark's scratch space.
    let tmp = args.cache.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("wallbench: creating {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", std::fs::canonicalize(&tmp).unwrap_or(tmp));

    if args.prepare {
        return match inputs::prepare(&args.cache, workload, args.tiny, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("wallbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let prepared = match inputs::ensure_prepared(&args.cache, workload, args.tiny, args.seed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = args.cache.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("wallbench: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = run::Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        cache: args.cache.clone(),
        pins: args.pins.clone(),
        prepared,
        work: work.clone(),
        start: Instant::now(),
    };
    let outcome = run::run(&ctx, args.trace);
    let _ = std::fs::remove_dir_all(&work);

    let t = &outcome.tally;
    let correct = t.failed == 0 && t.attempted > 0;
    eprintln!(
        "# {} seed={} trace={} correct={correct} attempted={} failed={}",
        workload.name(),
        args.seed,
        args.trace as u8,
        t.attempted,
        t.failed
    );
    for note in &outcome.notes {
        eprintln!("# {note}");
    }
    for e in &t.errors {
        eprintln!("# error: {e}");
    }
    for (name, (value, unit)) in &outcome.metrics.0 {
        eprintln!("{name:>28} {value:>16.6} {unit}");
    }
    if args.trace {
        eprintln!("# dominant layer: {}", trace::dominant(&outcome.metrics));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.attempted.max(1),
        t.failed,
        outcome.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process (so each has its own memory
/// high-water mark) and prints one table of their metrics.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("wallbench: locating the benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut merged = Vec::new();
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed"])
            .arg(args.seed.to_string())
            .arg("--seconds")
            .arg(args.seconds.to_string())
            .arg("--trace")
            .arg(if args.trace { "1" } else { "0" })
            .arg("--pins")
            .arg(&args.pins)
            .arg("--cache")
            .arg(&args.cache);
        if args.tiny {
            cmd.arg("--tiny");
        }
        let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("wallbench: running {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        all_ok &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let Some(Ok(result)) = stdout.lines().last().map(Json::parse) else {
            all_ok = false;
            continue;
        };
        let count = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, metric) in metrics {
                merged.push(format!("\"{}/{name}\": {}", w.name(), metric.render()));
            }
        }
    }
    println!(
        "{{\"correct\": {all_ok}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        merged.join(", ")
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
