//! Command-line entry of the DynFD benchmark (normally started through
//! `python3 perfbench/run.py`, which builds it first):
//!
//! ```text
//! dynfd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--scale full|smoke] [--dynfd-bin <path>] [--out-dir <dir>]
//! ```
//!
//! Prints `# ...` notes, then one JSON result line. Exits 1 when the
//! correctness gate fails and 2 on a usage or run error.

use dynfd_perfbench::{run, Options, Scale, ServerKind, WORKLOADS};
use std::path::PathBuf;

fn die(code: i32, msg: &str) -> ! {
    eprintln!("dynfd-perfbench: {msg}");
    std::process::exit(code);
}

fn parse() -> Options {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        server: ServerKind::InProcess,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut bin: Option<PathBuf> = std::env::var_os("DYNFD_BIN").map(PathBuf::from);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| die(2, &format!("{flag} needs a value")));
        let bad = || -> ! { die(2, &format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| bad())
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--scale" => {
                opts.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => bad(),
                }
            }
            "--dynfd-bin" => bin = Some(PathBuf::from(value)),
            "--out-dir" => opts.out_dir = PathBuf::from(value),
            _ => die(2, &format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        die(
            2,
            &format!("--workload must be one of {}", WORKLOADS.join(", ")),
        );
    }
    if opts.workload == "serve-window" {
        let bin = bin.unwrap_or_else(|| die(2, "serve-window needs --dynfd-bin or DYNFD_BIN"));
        if !bin.is_file() {
            die(2, &format!("no dynfd binary at {}", bin.display()));
        }
        opts.server = ServerKind::Binary(bin);
    }
    opts
}

fn main() {
    let opts = parse();
    let report = run(&opts).unwrap_or_else(|e| die(2, &format!("{}: {e}", opts.workload)));
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.to_json());
    if !report.correct {
        eprintln!(
            "dynfd-perfbench: {}: correctness gate failed",
            opts.workload
        );
        std::process::exit(1);
    }
}
