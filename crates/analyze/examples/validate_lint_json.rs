//! Checks every line of `sampsim lint --format json` / `sampsim audit
//! --format json` output on stdin against [`sampsim_analyze::DIAGNOSTIC`]
//! and exits non-zero (offending line on stderr) on the first violation.
//!
//! ```text
//! sampsim lint --format json | cargo run -p sampsim-analyze --example validate_lint_json
//! ```

use sampsim_analyze::DIAGNOSTIC;
use sampsim_util::json::validate;
use std::process::ExitCode;

fn main() -> ExitCode {
    let Ok(input) = std::io::read_to_string(std::io::stdin()) else {
        eprintln!("validate_lint_json: stdin is not UTF-8");
        return ExitCode::FAILURE;
    };
    let mut checked = 0usize;
    for line in input.lines().filter(|l| !l.trim().is_empty()) {
        if let Err(why) = validate(line, &DIAGNOSTIC) {
            eprintln!("validate_lint_json: {why}\n  in line: {line}");
            return ExitCode::FAILURE;
        }
        checked += 1;
    }
    println!("validate_lint_json: {checked} diagnostic line(s) conform");
    ExitCode::SUCCESS
}
