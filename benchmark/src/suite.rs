//! The suite: every workload in a child process of its own (clean
//! worker pool, its own `VmHWM`), gathered into one result file.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::spec::Workload;
use crate::{host, report, Cli};

/// Result file of a suite run inside `out_dir`.
pub fn result_path(out_dir: &Path, traced: bool) -> std::path::PathBuf {
    out_dir.join(if traced { "trace.json" } else { "result.json" })
}

pub fn run(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records = Vec::new();
    let mut all_ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &cli.seed.to_string()])
            .args(["--trace", if cli.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&cli.out_dir)
            .stdin(Stdio::null());
        if let Some(s) = cli.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if cli.smoke {
            cmd.arg("--smoke");
        }
        // the child's table goes straight to the terminal; `status` waits
        // for it, so no process outlives the suite
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: {status}", w.name());
                all_ok = false;
            }
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name());
                all_ok = false;
                continue;
            }
        }
        let path = report::record_path(&cli.out_dir, w.name(), cli.traced);
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(record) => records.push((w.name(), record)),
            Err(e) => {
                eprintln!("{}: no record at {}: {e}", w.name(), path.display());
                all_ok = false;
            }
        }
    }
    let result = Json::obj([
        ("schema", Json::Num(1.0)),
        ("host", host::host_block()),
        ("seed", Json::Num(cli.seed as f64)),
        ("traced", Json::Bool(cli.traced)),
        ("smoke", Json::Bool(cli.smoke)),
        ("workloads", Json::obj(records)),
    ]);
    let path = result_path(&cli.out_dir, cli.traced);
    if let Err(e) = std::fs::write(&path, result.pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
