//! Single-threaded Monte-Carlo sweep benchmark for the invnorm workspace.
//!
//! ```text
//! sweepbench --workload <probe_additive|cnn_drift|paper_resnet|all>
//!            --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload runs in a child process of its own, with the rayon pool
//! pinned to one thread (`RAYON_NUM_THREADS=1`), so peak memory is per
//! workload and phase times add up to wall time. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See README.md for the workloads and metrics.

#![forbid(unsafe_code)]

mod host;
mod run;
mod stats;
mod workloads;

use std::io::Read;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: sweepbench --workload <probe_additive|cnn_drift|paper_resnet|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }

    /// The report row: `metric <name> <value> <unit>`, which the parent
    /// process parses back in `--workload all` mode.
    fn row(&self) -> String {
        format!(
            "metric {:<34} {:>16.6} {}",
            self.name, self.value, self.unit
        )
    }

    fn parse_row(line: &str) -> Option<Self> {
        let mut fields = line.strip_prefix("metric ")?.split_whitespace();
        let name = fields.next()?;
        let value = fields.next()?.parse().ok()?;
        Some(Self::new(name, value, fields.next()?))
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; an unmeasurable value is written as null.
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Measure in this process (set by the parent on its children).
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        child,
    })
}

/// Measures one workload in this process and prints its report and result.
fn run_child(args: &Args) -> ExitCode {
    match run::measure(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(out) => {
            for line in &out.report {
                println!("{line}");
            }
            println!("status {} {} {}", out.correct, out.attempted, out.failed);
            println!(
                "{}",
                result_json(out.correct, out.attempted, out.failed, &out.metrics)
            );
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sweepbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Waits for `child` until `deadline`, killing it if it overruns, and
/// returns its standard output and whether it exited successfully.
fn collect(mut child: Child, deadline: Instant) -> std::io::Result<(String, bool)> {
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // Read on a second thread so a chatty child never blocks on a full pipe.
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let status = loop {
        if let Some(status) = child.try_wait()? {
            break status;
        }
        if Instant::now() >= deadline {
            eprintln!("sweepbench: workload overran its deadline; stopping it");
            child.kill()?;
            break child.wait()?;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = reader.join().expect("stdout reader panicked")?;
    Ok((out, status.success()))
}

/// Runs each selected workload in a child process of its own.
fn run_parent(args: &Args) -> ExitCode {
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sweepbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Leaves room inside the 180 s a run may take.
    let limit = Duration::from_secs(170.max(2 * args.seconds + 60));
    let (mut all_ok, mut attempted, mut failed) = (true, 0usize, 0usize);
    let mut combined = Vec::new();
    for name in &names {
        let spawned = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }, "--child"])
            .env("RAYON_NUM_THREADS", "1")
            .stdout(Stdio::piped())
            .spawn();
        let (out, ok) = match spawned.and_then(|c| collect(c, Instant::now() + limit)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sweepbench: running {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        all_ok &= ok;
        if names.len() == 1 {
            print!("{out}");
            break;
        }
        for line in out.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
            if let Some(m) = Metric::parse_row(line) {
                combined.push(Metric {
                    name: format!("{name}.{}", m.name),
                    ..m
                });
            }
            if let Some(status) = line.strip_prefix("status ") {
                let f: Vec<&str> = status.split_whitespace().collect();
                all_ok &= f.first() == Some(&"true");
                attempted += f.get(1).and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);
                failed += f.get(2).and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);
            }
        }
        println!();
    }
    if names.len() > 1 {
        println!("{}", result_json(all_ok, attempted, failed, &combined));
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sweepbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        run_child(&args)
    } else {
        run_parent(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&argv(
            "--workload cnn_drift --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "cnn_drift".into(),
                seed: 7,
                seconds: 10,
                trace: true,
                child: false,
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload all --seed x --seconds 1 --trace 0",
            "--workload all --seed 1 --seconds 0 --trace 0",
            "--workload all --seed 1 --seconds 1 --trace 2",
            "--workload all --seed 1 --seconds 1",
            "--workload all --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_rows_round_trip() {
        let m = Metric::new("sweep_p50_ms", 71.25, "ms");
        assert_eq!(Metric::parse_row(&m.row()), Some(m));
        assert_eq!(Metric::parse_row("# host: nproc=2"), None);
        assert_eq!(
            Metric::parse_row("metric sweep_p90_ms - ms (missing)"),
            None
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let json = result_json(
            true,
            3,
            0,
            &[Metric::new("a", 1.5, "ms"), Metric::new("b", f64::NAN, "s")],
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
