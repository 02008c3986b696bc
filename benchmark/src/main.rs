//! The repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! panda-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! panda-benchmark [--seed N] [--seconds S] [--trace] [--smoke]       the suite: every workload, each in a child process
//! panda-benchmark --compare BASE.json [NEW.json]                     verdict per metric and workload
//! ```

mod compare;
mod data;
mod gate;
mod host;
mod json;
mod ladder;
mod loadgen;
mod report;
mod spans;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spec::Workload;
use workloads::RunCfg;

/// Everything the command line can say.
pub struct Cli {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub traced: bool,
    pub smoke: bool,
    pub compare: Option<(PathBuf, Option<PathBuf>)>,
    pub out_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        smoke: false,
        compare: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&mut it, arg)?;
                cli.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                cli.seconds = Some(s);
            }
            // the driver passes `--trace 0|1`; a person types `--trace`
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.traced = false;
                }
                Some("1") => {
                    it.next();
                    cli.traced = true;
                }
                _ => cli.traced = true,
            },
            "--smoke" => cli.smoke = true,
            "--out" => cli.out_dir = PathBuf::from(value(&mut it, arg)?),
            "--compare" => {
                let base = PathBuf::from(value(&mut it, arg)?);
                let new = it.next_if(|s| !s.starts_with("--")).map(PathBuf::from);
                cli.compare = Some((base, new));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// One workload in this process: print the table, write the detailed
/// record, and end with the driver's JSON line.
fn run_one(cli: &Cli, workload: Workload, process_start: Instant) -> ExitCode {
    let cfg = RunCfg {
        workload,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.smoke { 1.0 } else { 10.0 }),
        smoke: cli.smoke,
        setups: if cli.smoke { 1 } else { 3 },
        rounds: if cli.smoke { 1 } else { 3 },
        out_dir: cli.out_dir.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let record = if cli.traced {
        ladder::run(&cfg)
    } else {
        workloads::run(&cfg, process_start)
    };
    print!("{}", record.table());
    let path = report::record_path(&cfg.out_dir, workload.name(), cli.traced);
    if let Err(e) = std::fs::write(&path, record.detailed().pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    if !record.complete() {
        // a stopped run has no metrics to report; say why and fail
        eprintln!(
            "{}: no result: {}",
            workload.name(),
            record.notes.join("; ")
        );
        return ExitCode::FAILURE;
    }
    println!("{}", record.driver_line());
    if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("panda-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &cli.compare {
        return compare::run(base, new.as_deref(), &cli.out_dir);
    }
    match cli.workload {
        Some(w) => run_one(&cli, w, process_start),
        None => suite::run(&cli),
    }
}
