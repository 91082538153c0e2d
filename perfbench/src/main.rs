//! Command line of the live-stack benchmark.
//!
//! ```text
//! perfbench --workload <hit_zipf|paper_lossy|update_wide> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Progress lines start with `#`; the last line of standard output is the
//! JSON result. The exit code is 0 when every correctness check passed, 1
//! when one failed (the result line says `"correct": false`), and 2 when
//! the run could not be made at all (no result line).

use perfbench::inputs::Workload;
use perfbench::Options;
use std::io::Write;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                let n = value
                    .parse::<u64>()
                    .map_err(|_| format!("--seed must be a whole number, got {value:?}"))?;
                seed = Some(n);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds must be a number, got {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options::new(
        workload,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match perfbench::run(&options, &mut stdout) {
        Ok(outcome) => {
            if writeln!(stdout, "{}", outcome.json())
                .and_then(|()| stdout.flush())
                .is_err()
            {
                return ExitCode::from(2);
            }
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
