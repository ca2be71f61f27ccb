//! `perfbench gen|run` — see the crate docs and `perfbench/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use vermem_perfbench::corpus::{self, Params};
use vermem_perfbench::harness::{measure, Outcome};
use vermem_perfbench::models::Models;
use vermem_perfbench::probe::{host_ref_ms, reset_peak_rss};
use vermem_perfbench::stream::Stream;
use vermem_perfbench::vmc::{Vmc, REUSE_MAX_STATES};
use vermem_perfbench::workload::{Corpus, Workload};

const USAGE: &str = "usage: perfbench gen --workload W --seed N --dir D\n       \
    perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D";

struct Args {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String], run: bool) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut dir = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--dir" => dir = Some(PathBuf::from(value)),
            "--seconds" if run => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" if run => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if run && (seconds.is_none() || trace.is_none()) {
        return Err("run needs --seconds and --trace".into());
    }
    let seconds = seconds.unwrap_or(0.0);
    if run && !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        dir: dir.ok_or("--dir is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Generate the corpus unless a complete one for the same seed and
/// parameters is already there.
fn gen(a: &Args) -> Result<(), String> {
    let params = Params::of(a.workload).fingerprint();
    if let Ok(c) = Corpus::load(&a.dir) {
        if c.manifest.params == params && c.manifest.seed == a.seed {
            println!(
                "# corpus: cached, {} inputs in {}",
                c.manifest.entries.len(),
                a.dir.display()
            );
            return Ok(());
        }
    }
    let t0 = Instant::now();
    let m = corpus::generate(a.workload, a.seed, &a.dir)?;
    println!(
        "# corpus: generated {} inputs, {} ops, {} bytes in {:.3} s ({params})",
        m.entries.len(),
        m.total_ops(),
        m.total_bytes(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

fn run(a: &Args) -> Result<(), String> {
    let corpus = Corpus::load(&a.dir)?;
    let m = &corpus.manifest;
    if m.workload != a.workload.name() || m.seed != a.seed {
        return Err(format!(
            "corpus in {} is not {} at seed {}",
            a.dir.display(),
            a.workload.name(),
            a.seed
        ));
    }
    println!(
        "# perfbench {} seed {} seconds {} trace {}: {} files, {} ops, {} bytes",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        m.entries.len(),
        m.total_ops(),
        m.total_bytes()
    );
    let host_before = host_ref_ms();
    reset_peak_rss();
    let out = match a.workload {
        Workload::VerifySim | Workload::VerifyPlain => {
            measure(&Vmc::new(corpus, None), a.seconds, a.trace)
        }
        Workload::VerifyReuse => measure(
            &Vmc::new(corpus, Some(REUSE_MAX_STATES)),
            a.seconds,
            a.trace,
        ),
        Workload::ScModels => measure(&Models::new(corpus), a.seconds, a.trace),
        Workload::ServeStream => measure(&Stream::new(corpus), a.seconds, a.trace),
    };
    let host_after = host_ref_ms();
    for line in &out.notes {
        println!("{line}");
    }
    println!("# host.ref_ms before {host_before:.3} after {host_after:.3}");
    for m in &out.metrics {
        println!("{:<36} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&out)?);
    Ok(())
}

fn json(out: &Outcome) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (k, m) in out.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        let sep = if k == 0 { "" } else { ", " };
        s += &format!(
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s += "}}";
    Ok(s)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A run with failed inputs still succeeds: its result says correct: false.
    let result = match argv.split_first() {
        Some((cmd, rest)) if cmd == "gen" => parse(rest, false).and_then(|a| gen(&a)),
        Some((cmd, rest)) if cmd == "run" => parse(rest, true).and_then(|a| run(&a)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
