//! detlint CLI.
//!
//! ```text
//! cargo run -p autodbaas-lint                  # lint the workspace
//! cargo run -p autodbaas-lint -- --json        # machine-readable output
//! cargo run -p autodbaas-lint -- --explain D003
//! cargo run -p autodbaas-lint -- --list        # rule summary table
//! cargo run -p autodbaas-lint -- --root <dir>
//! ```
//!
//! Exit codes: 0 clean, 1 active findings, 2 usage/config error.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: autodbaas-lint [--json] [--explain RULE] [--list] [--root DIR]"
}

/// Print to stdout, tolerating a closed pipe (`autodbaas-lint | head`
/// must not panic — findings already decide the exit code).
fn emit(s: &str) {
    use std::io::Write;
    let _ = std::io::stdout().write_all(s.as_bytes());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut explain: Option<String> = None;
    let mut list = false;
    let mut root: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--explain" => match it.next() {
                Some(r) => explain = Some(r.clone()),
                None => {
                    eprintln!("error: --explain needs a rule id\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root needs a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                emit(&format!("{}\n", usage()));
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    if list {
        for r in autodbaas_lint::rules::all_rules() {
            emit(&format!("{}  {}\n", r.id, r.title));
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = explain {
        match autodbaas_lint::rule_by_id(&id) {
            Some(r) => {
                emit(&format!("{}\n", r.explain));
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("error: unknown rule `{id}` (try --list for the rule table)");
                return ExitCode::from(2);
            }
        }
    }

    // Default root: the workspace that contains this crate, so the gate
    // lints the same tree no matter where cargo invokes the binary from.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });
    if !root.is_dir() {
        eprintln!(
            "error: workspace root {} is not a directory",
            root.display()
        );
        return ExitCode::from(2);
    }

    match autodbaas_lint::run_workspace(&root) {
        Ok(report) => {
            if json {
                emit(&autodbaas_lint::render_json(&report));
            } else {
                emit(&autodbaas_lint::render_human(&report));
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: io error: {e}");
            ExitCode::from(2)
        }
    }
}
