//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! run one workload closed-loop — each pass starts when the previous one
//! ends — for `--seconds`, check every pass, and print one JSON result
//! line last. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. `--setup-only` stops after input generation and prints
//! `ready`; the run spawns itself that way to time its set-up.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use perfbench::check::Checks;
use perfbench::fleet::{Fleet, FleetOut};
use perfbench::paper::{PaperOut, PaperSuite};
use perfbench::report::{per_layer_metrics, result_line, Traced, END_TO_END};
use perfbench::stats::{median, Digest};
use perfbench::trace::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 3] = ["paper_suite", "fleet_10k", "fleet_long"];
/// Child processes timed from spawn to ready; `setup_s` is their median.
const SETUP_SAMPLES: usize = 21;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        setup_only,
    })
}

enum Suite {
    Paper(PaperSuite),
    Fleet(Fleet),
}

enum Out {
    Paper(PaperOut),
    Fleet(Box<FleetOut>),
}

impl Suite {
    fn new(workload: &str, seed: u64, jobs: usize) -> Self {
        match workload {
            "paper_suite" => Suite::Paper(PaperSuite::new(seed)),
            "fleet_10k" => Suite::Fleet(Fleet::new(seed, 10_000, 30_000, false, jobs)),
            "fleet_long" => Suite::Fleet(Fleet::new(seed, 100, 30_000, true, jobs)),
            _ => unreachable!("workload validated by parse_args"),
        }
    }

    fn run(&self) -> Out {
        match self {
            Suite::Paper(w) => Out::Paper(w.run()),
            Suite::Fleet(w) => Out::Fleet(Box::new(w.run())),
        }
    }

    fn verify(&self, out: &Out, checks: &mut Checks) -> (Digest, f64) {
        match (self, out) {
            (Suite::Paper(w), Out::Paper(o)) => w.verify(o, checks),
            (Suite::Fleet(w), Out::Fleet(o)) => w.verify(o, checks),
            _ => unreachable!("outputs come from the same suite"),
        }
    }

    fn verify_once(&self, out: &Out, checks: &mut Checks) {
        if let (Suite::Fleet(w), Out::Fleet(o)) = (self, out) {
            w.verify_once(o, checks);
        }
    }

    fn probe(&self, out: &Out, checks: &mut Checks) {
        match (self, out) {
            (Suite::Paper(w), Out::Paper(o)) => w.probe(o, checks),
            (Suite::Fleet(w), Out::Fleet(_)) => w.probe(),
            _ => unreachable!("outputs come from the same suite"),
        }
    }
}

/// Median seconds from spawning this binary with `--setup-only` to its
/// ready line: process start, argument parsing and input generation.
fn setup_seconds() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let mut child = Command::new(&exe)
            .args(std::env::args().skip(1))
            .arg("--setup-only")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn setup child: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read setup child: {e}"))?;
        let elapsed = t.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("wait setup child: {e}"))?;
        if line.trim() != "ready" || !status.success() {
            return Err(format!("setup child failed: {status}, said {line:?}"));
        }
        samples.push(elapsed);
    }
    Ok(median(&samples))
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds N --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.setup_only {
        let _suite = Suite::new(&args.workload, args.seed, jobs);
        println!("ready");
        return std::io::stdout().flush().map_err(|e| e.to_string());
    }
    let setup_s = setup_seconds()?;
    let suite = Suite::new(&args.workload, args.seed, jobs);

    let budget = Duration::from_secs(args.seconds);
    // A traced run alternates untraced and traced passes, so tracing
    // overhead is measured under the same host conditions.
    let min_passes = if args.trace { 4 } else { 3 };
    let mut checks = Checks::default();
    let mut traced = Traced::default();
    let mut walls = Vec::new();
    let mut first_digest = None;
    let mut claim_err = 0.0;
    let mut last: Option<Out> = None;
    let start = Instant::now();
    let mut pass = 0;
    while pass < min_passes || start.elapsed() < budget {
        // Drop the previous pass's outputs first: peak RSS is one pass's.
        drop(last.take());
        let is_traced = args.trace && pass % 2 == 1;
        if is_traced {
            trace::enable();
        }
        let t = Instant::now();
        let out = suite.run();
        let wall = t.elapsed().as_secs_f64();
        if is_traced {
            trace::disable();
            let (spans, counts) = trace::take();
            traced.passes.push(spans);
            traced.walls.push(wall);
            for (name, v) in counts {
                *traced.counts.entry(name).or_insert(0.0) += v;
            }
        } else if args.trace {
            traced.untraced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        let (digest, err) = suite.verify(&out, &mut checks);
        claim_err = err;
        match first_digest {
            None => first_digest = Some(digest.value()),
            Some(first) => {
                checks.digest(first, digest.value());
            }
        }
        println!(
            "pass {pass}{}: wall {wall:.6} s, digest {:016x}",
            if is_traced { " (traced)" } else { "" },
            digest.value()
        );
        last = Some(out);
        pass += 1;
    }
    let peak_rss_mb = peak_rss_mb()?;
    let last = last.expect("at least one pass ran");
    suite.verify_once(&last, &mut checks);
    if args.trace {
        trace::enable();
        for _ in 0..traced.walls.len() {
            suite.probe(&last, &mut checks);
        }
        trace::disable();
        let (probe, probe_counts) = trace::take();
        traced.probe = probe;
        traced.probe_counts = probe_counts;
    }

    for name in checks.failed_names() {
        println!("FAILED check: {name}");
    }
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let values = traced.metrics();
        per_layer_metrics()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = values[&name];
                (name, v, unit)
            })
            .collect()
    } else {
        let wall_s = median(&walls);
        println!(
            "{}: wall_s median {wall_s:.6} s over {} passes, seed {}, jobs {jobs}",
            args.workload,
            walls.len(),
            args.seed
        );
        if args.workload != "paper_suite" {
            println!(
                "claim_err_pct covers only the fleet's reference-SoC calibration; \
                 the fleet replay model is unvalidated (no reference data)"
            );
        }
        let values = [wall_s, peak_rss_mb, setup_s, checks.fail_ratio(), claim_err];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    };
    println!(
        "{}",
        result_line(checks.attempted(), checks.failed(), &metrics)
    );
    Ok(())
}
