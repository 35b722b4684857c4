//! `observatory` — the AutoDBaaS benchmark. One process runs one workload:
//!
//! ```text
//! observatory --workload W [--seed S] [--seconds N] [--trace [0|1]]
//!             [--reps R] [--quick] [--out-dir DIR]
//! observatory --describe        # prints BENCHMARK.json
//! ```
//!
//! It prints every metric as `name value unit`, then — as the last line of
//! standard output — the JSON result the driver reads. Any failed output
//! check sets `"correct": false` and the exit code to 1. `run.sh` builds
//! this binary and, without `--workload`, runs all five workloads.

mod affinity;
mod fleet;
mod fleet_trace;
mod gateway;
mod metrics;
mod stats;
mod trace;
mod tuner;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    /// Every input is generated from this; the program never sees it.
    pub seed: u64,
    /// How long to measure (set-up and checks come on top).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs, two repetitions: exercises every path in seconds.
    pub quick: bool,
    /// Fixed repetition count instead of filling `seconds`.
    pub reps: Option<usize>,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

impl Args {
    /// How many repetitions of `floor..` to run: `--reps` wins, `--quick`
    /// takes the floor, otherwise repeat while the time budget lasts.
    pub fn keep_going(&self, done: usize, floor: usize, started: Instant, budget_s: f64) -> bool {
        match self.reps {
            Some(r) => done < r.max(1),
            None if self.quick => done < floor,
            None => done < floor || started.elapsed().as_secs_f64() < budget_s,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: observatory --workload {{{}}} [--seed S] [--seconds N] [--trace [0|1]] [--reps R] [--quick] [--out-dir DIR]\n       observatory --describe",
        metrics::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        reps: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => args.workload = value(&mut i, flag)?,
            "--seed" => {
                args.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value(&mut i, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds expects a positive number")?;
            }
            "--reps" => {
                args.reps = Some(
                    value(&mut i, flag)?
                        .parse()
                        .map_err(|_| "--reps expects an integer".to_string())?,
                );
            }
            "--out-dir" => args.out_dir = PathBuf::from(value(&mut i, flag)?),
            "--quick" => args.quick = true,
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if !metrics::WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--describe") {
        print!("{}", metrics::describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {} host_parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let outcome = if args.workload == "gateway_mix" {
        gateway::run(&args) // places its own threads
    } else {
        // One thread does all the work: keep it on one core, the last one,
        // away from the interrupts CPU 0 usually serves.
        if let Some(&cpu) = affinity::allowed().last() {
            affinity::pin(cpu);
        }
        match args.workload.as_str() {
            "tuner_loop" => tuner::run(&args),
            fleet => fleet::run(fleet, &args),
        }
    };
    metrics::print_values(&outcome.values);
    println!("{}", metrics::result_line(&outcome, args.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
