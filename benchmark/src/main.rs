//! Benchmark driver.
//!
//! ```text
//! crisp-e2e-bench --workload NAME|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints human-readable lines, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--workload all` runs each workload in its own child process (so no
//! peak RSS carries over) and prints every metric of every workload.
//! The exit status is 1 when any checked output was wrong.

use std::io::Write as _;
use std::process::{Command, ExitCode};

use crisp_e2e_bench::corpus::Corpus;
use crisp_e2e_bench::diff::DiffCampaign;
use crisp_e2e_bench::fault::FaultCampaign;
use crisp_e2e_bench::measure::{self, Report};
use crisp_e2e_bench::tables::PaperTables;
use crisp_e2e_bench::{trace, Workload};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "corpus_run",
    "diff_campaign",
    "fault_campaign",
    "paper_tables",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload: want one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_one<W: Workload>(args: &Args) -> Report {
    if args.trace {
        measure::per_layer_run::<W>(args.seed, args.seconds)
    } else {
        measure::end_to_end::<W>(args.seed, args.seconds)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Write the traced run's spans under `out/` in this package.
fn write_spans(workload: &str, spans: &[trace::Span]) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{workload}.jsonl");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let file = std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    trace::write_jsonl(&mut w, spans)
        .and_then(|()| w.flush())
        .map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

/// Run every workload in a child process and combine the results;
/// returns whether every output was right.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        let out = cmd
            .output()
            .map_err(|e| format!("running {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let (last, human) = lines.split_last().ok_or("empty output")?;
        for line in human {
            println!("{line}");
        }
        let result = parse_result(last).ok_or_else(|| format!("{workload}: bad result line"))?;
        // A wrong output exits 1 after its result line; anything else
        // is a crash.
        if out.status.code() != Some(if result.0 { 0 } else { 1 }) {
            return Err(format!("{workload} exited with {}", out.status));
        }
        correct &= result.0;
        attempted += result.1;
        failed += result.2;
        metrics.extend(
            result
                .3
                .into_iter()
                .map(|(name, v, unit)| (format!("{workload}.{name}"), v, unit)),
        );
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Parse a result line this program printed.
#[allow(clippy::type_complexity)]
fn parse_result(line: &str) -> Option<(bool, u64, u64, Vec<(String, f64, String)>)> {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim().to_owned())
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1)?;
        let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
        let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
        metrics.push((
            name.to_owned(),
            value.parse().unwrap_or(f64::NAN),
            unit.to_owned(),
        ));
    }
    Some((correct, attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("crisp-e2e-bench: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("crisp-e2e-bench: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match args.workload.as_str() {
        "corpus_run" => run_one::<Corpus>(&args),
        "diff_campaign" => run_one::<DiffCampaign>(&args),
        "fault_campaign" => run_one::<FaultCampaign>(&args),
        _ => run_one::<PaperTables>(&args),
    };
    if !report.spans.is_empty() {
        match write_spans(&args.workload, &report.spans) {
            Ok(path) => println!("# spans written to {path}"),
            Err(msg) => {
                eprintln!("crisp-e2e-bench: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "# {} seed {} ({}):",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, v, unit) in &report.metrics {
        println!("# {name:<34} {v:>18.9} {unit}");
    }
    let metrics: Vec<(String, f64, String)> = report
        .metrics
        .iter()
        .map(|(n, v, u)| (n.clone(), *v, (*u).to_owned()))
        .collect();
    println!(
        "{}",
        result_line(report.correct, report.attempted, report.failed, &metrics)
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
