//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs trials of one workload until `--seconds` have passed, each trial
//! in a fresh child process (so set-up time and resident-set growth start
//! from a clean heap), and prints every metric as the median over the
//! trials. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1`, untraced and traced
//! trials alternate and the metrics are the per-layer ones, and the last
//! traced trial's spans and self-time table are written under
//! `perfbench/out/`. Exits non-zero when the correctness gate finds a
//! violation.

use perfbench::trial;
use perfbench::workload::{Workload, CONNECTIONS, WAVE};
use perfbench::{Source, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <entangle-pairs|point-rw|durable-shards> \
                     --seed <n> --seconds <1..=60> --trace <0|1>";

/// The command must end within 180 s; a trial still running this long
/// after the start is killed, and the command fails.
const TIME_LIMIT: Duration = Duration::from_secs(150);

/// Directory the traced trials write spans and tables into, relative to
/// the checkout root the command runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: run one trial of this kind and report it.
    trial: Option<Source>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument {key:?}"));
        };
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        kv.insert(name.to_string(), value);
    }
    let mut take = |k: &str| kv.remove(k);
    let workload = take("workload")
        .and_then(|w| Workload::parse(&w))
        .ok_or("missing or unknown --workload")?;
    let seed = take("seed")
        .and_then(|s| s.parse().ok())
        .ok_or("missing or invalid --seed")?;
    let seconds = match take("seconds") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|s| (1..=60).contains(s))
            .ok_or("--seconds must be 1..=60")?,
        None => 10,
    };
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return Err("--trace must be 0 or 1".into()),
    };
    let trial = match take("trial").as_deref() {
        None => None,
        Some("untraced") => Some(Source::Untraced),
        Some("traced") => Some(Source::Traced),
        Some(_) => return Err("--trial must be untraced or traced".into()),
    };
    let out = take("out").map(PathBuf::from);
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trial,
        out,
    })
}

/// Child process: run one trial and print `value <name> <x>` and
/// `violation <text>` lines for the parent.
fn child(args: &Args, kind: Source) -> ExitCode {
    let n = args.workload.txns();
    let trial = match kind {
        Source::Untraced => trial::untraced(args.workload, args.seed, n, CONNECTIONS),
        Source::Traced => {
            match trial::traced(
                args.workload,
                args.seed,
                n,
                CONNECTIONS,
                args.out.as_deref(),
            ) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("perfbench: writing the trace failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    for (name, v) in &trial.values {
        println!("value {name} {v}");
    }
    for v in &trial.violations {
        println!("violation {}", v.replace('\n', " "));
    }
    ExitCode::SUCCESS
}

/// A child's report: metric values by name and gate violations.
#[derive(Default)]
struct Report {
    values: BTreeMap<String, f64>,
    violations: Vec<String>,
}

/// Run one trial in a child process and read its report back. A child
/// still running at `kill_at` is killed and reaped.
fn spawn_trial(
    args: &Args,
    kind: Source,
    out: Option<&Path>,
    kill_at: Instant,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--workload")
        .arg(args.workload.name())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--trial")
        .arg(match kind {
            Source::Untraced => "untraced",
            Source::Traced => "traced",
        });
    if let Some(out) = out {
        cmd.arg("--out").arg(out);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning a trial: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        if let Some(status) = child
            .try_wait()
            .map_err(|e| format!("waiting for a trial: {e}"))?
        {
            break status;
        }
        if Instant::now() >= kill_at {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err("a trial overran the time limit and was killed".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let text = reader
        .join()
        .expect("reader thread panicked")
        .map_err(|e| format!("reading trial output: {e}"))?;
    if !status.success() {
        return Err(format!("trial exited with {status}"));
    }
    let mut report = Report::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("value ") {
            let parsed = rest
                .split_once(' ')
                .and_then(|(name, v)| Some((name, v.parse::<f64>().ok()?)));
            let (name, v) = parsed.ok_or_else(|| format!("malformed trial output {line:?}"))?;
            report.values.insert(name.to_string(), v);
        } else if let Some(v) = line.strip_prefix("violation ") {
            report.violations.push(v.to_string());
        }
    }
    Ok(report)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = args.trial {
        return child(&args, kind);
    }

    let name = args.workload.name();
    let n = args.workload.txns();
    let out_prefix = PathBuf::from(OUT_DIR).join(format!("{name}-seed{}", args.seed));
    if args.trace {
        if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
            eprintln!("perfbench: creating {OUT_DIR}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let started = Instant::now();
    let deadline = started + Duration::from_secs(args.seconds);
    let mut trials: Vec<(Source, Report)> = Vec::new();
    loop {
        let kind = if args.trace && trials.len() % 2 == 1 {
            Source::Traced
        } else {
            Source::Untraced
        };
        let out = (kind == Source::Traced).then_some(out_prefix.as_path());
        match spawn_trial(&args, kind, out, started + TIME_LIMIT) {
            Ok(t) => trials.push((kind, t)),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
        let need = if args.trace { 2 } else { 1 };
        if trials.len() >= need && Instant::now() >= deadline {
            break;
        }
    }

    let values = |kind: Source, metric: &str| -> Vec<f64> {
        trials
            .iter()
            .filter(|(k, _)| *k == kind)
            .filter_map(|(_, t)| t.values.get(metric).copied())
            .collect()
    };
    let untraced = trials
        .iter()
        .filter(|(k, _)| *k == Source::Untraced)
        .count();
    let traced = trials.len() - untraced;
    let attempted = trials.len() * n;
    let failed: u64 = trials
        .iter()
        .map(|(_, t)| t.values.get("failed").copied().unwrap_or(n as f64) as u64)
        .sum();
    let violations: Vec<&String> = trials.iter().flat_map(|(_, t)| &t.violations).collect();

    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    println!(
        "perfbench {name} seed {}: {untraced} untraced + {traced} traced trials of {n} \
         transactions each (closed loop, one client, waves of {WAVE} on {CONNECTIONS} \
         connections, {cores} cores available); values are medians over trials",
        args.seed
    );
    let metrics = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::new();
    for m in metrics {
        let v = median(values(m.source, m.name));
        let note = match m.name {
            "txn_p50_ms" | "txn_p99_ms" => format!("  ({n} samples per trial x {untraced})"),
            _ => String::new(),
        };
        println!("{:<36} {:>14.4} {}{note}", m.name, v, m.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(v),
            m.unit
        ));
    }
    if !args.trace {
        println!(
            "{:<36} {:>14.4} ratio  (1 - commit_ratio)",
            "fail_ratio",
            median(values(Source::Untraced, "fail_ratio"))
        );
    } else {
        let plain = median(values(Source::Untraced, "txn_per_s"));
        let with_trace = median(values(Source::Traced, "trace.txn_per_s"));
        println!(
            "txn_per_s untraced {plain:.1} vs traced driver {with_trace:.1} \
             (gap {:.1}% = tracing plus driver overhead)",
            100.0 * (plain - with_trace) / plain
        );
        let table = out_prefix.with_file_name(format!("{name}-seed{}.layers.txt", args.seed));
        match std::fs::read_to_string(&table) {
            Ok(t) => print!(
                "self time by span, last traced trial ({}):\n{t}",
                table.display()
            ),
            Err(e) => eprintln!("perfbench: reading {}: {e}", table.display()),
        }
    }
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        violations.is_empty(),
        json.join(", ")
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
