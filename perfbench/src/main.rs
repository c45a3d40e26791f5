//! The mkss benchmark: one command that runs a named workload from a
//! seed, checks its outputs, and prints every metric by name with its
//! unit and sample count.
//!
//! ```text
//! perfbench --workload fig6|engine-soak|serve-mix --seed N --seconds S --trace 0|1
//!           [--size full|tiny] [--out-dir DIR]
//! perfbench daemon --socket PATH
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` records a span around every layer call and reports the
//! per-layer metrics, writing the spans as Chrome Trace Event JSON to
//! `<out-dir>/spans-<workload>-seed<N>.json`. The last line of standard
//! output is the one-line JSON result.

mod cpu;
mod fig6;
mod gen;
mod layers;
mod probe;
mod report;
mod serve_mix;
mod soak;
mod spans;
mod stats;
mod steal;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Host, Outcome};
use spans::Span;
use stats::Samples;

/// Settings of one workload run.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test size: every phase runs, on a few small inputs.
    pub tiny: bool,
    pub out_dir: PathBuf,
}

/// Median of a sample set that is never empty by construction.
pub fn median_of(samples: &mut Samples) -> f64 {
    samples.median().unwrap_or(f64::NAN)
}

/// Writes the span file of a traced run and notes where it went.
pub fn write_spans(opts: &Opts, out: &mut Outcome, workload: &str, spans: &[Span]) {
    let path = opts
        .out_dir
        .join(format!("spans-{workload}-seed{}.json", opts.seed));
    match std::fs::write(
        &path,
        spans::chrome_json(&format!("perfbench {workload}"), spans),
    ) {
        Ok(()) => out
            .notes
            .push(format!("spans: {} ({} spans)", path.display(), spans.len())),
        Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
    }
}

const WORKLOADS: [&str; 3] = ["fig6", "engine-soak", "serve-mix"];

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--size" => {
                opts.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size expects full or tiny, got {other}")),
                }
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok((workload, opts))
}

/// `perfbench daemon --socket PATH`: an `mkss-serve` daemon with the
/// default config, serving until a client sends `shutdown`.
fn daemon(args: &[String]) -> ExitCode {
    let [flag, path] = args else {
        eprintln!("usage: perfbench daemon --socket PATH");
        return ExitCode::FAILURE;
    };
    if flag != "--socket" {
        eprintln!("usage: perfbench daemon --socket PATH");
        return ExitCode::FAILURE;
    }
    match mkss_serve::Server::bind_unix(path, mkss_serve::ServerConfig::default()) {
        Ok(server) => {
            server.run();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("daemon: bind {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        return daemon(&args[1..]);
    }
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: creating {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    let host = Host::detect();
    let mut outcome = Outcome::default();
    match workload.as_str() {
        "fig6" => fig6::run(&opts, &mut outcome),
        "engine-soak" => soak::run(&opts, &mut outcome),
        _ => serve_mix::run(&opts, &mut outcome),
    }
    outcome.e2e(
        "error_rate",
        outcome.error_rate(),
        "ratio",
        outcome.attempted,
    );
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let doc = report::result_document(&workload, opts.seed, opts.trace, &host, &outcome);
    let doc_path = opts.out_dir.join(format!(
        "result-{workload}-seed{}-trace{}.json",
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&doc_path, doc) {
        eprintln!("perfbench: writing {}: {e}", doc_path.display());
        return ExitCode::FAILURE;
    }
    print!(
        "{}",
        report::human_lines(&workload, opts.seed, opts.trace, &host, &outcome)
    );
    match report::result_line(&outcome, opts.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
