#![warn(missing_docs)]

//! Experiment harness utilities: the command-line parser, gate
//! collection, table rendering, paper-vs-measured comparison rows, and
//! JSON result persistence.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` (see `DESIGN.md` for the index). Binaries print the
//! regenerated rows/series and write machine-readable results under
//! `target/experiments/` which the `report` binary assembles into
//! `EXPERIMENTS.md`.
//!
//! Each binary declares its flags as one `const` table of [`Flag`]
//! rows and hands it to [`cli`], which drives `--help`, parsing and
//! usage errors from that table alone. Exit codes are uniform across
//! the suite: 0 ok, 1 failed gate or deny finding, 2 usage error or
//! unwritable output path.

pub mod plot;

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// One row of a binary's flag table: `(flag, metavar, help)`. An empty
/// metavar marks a switch; any other flag takes the next argument as
/// its value.
pub type Flag = (&'static str, &'static str, &'static str);

/// The shared `--jobs N` row. A binary that runs independent sessions
/// through `heterollm::exec::Executor` opts in by listing it; every
/// `--jobs` value must be a positive integer.
pub const JOBS: Flag = (
    "--jobs",
    "N",
    "workers for the independent sessions (default 1; output is byte-identical for every value)",
);

// Rows every binary accepts. `--help` is matched before parsing, so
// its row is only ever rendered.
const ANALYZE: Flag = (
    "--analyze",
    "",
    "run the static invariant checker first; abort on deny findings",
);

const HELP: Flag = ("--help, -h", "", "print this help and exit");

/// Command-line values parsed against a binary's flag table.
#[derive(Debug)]
pub struct Args {
    bin: &'static str,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The last value given for `flag`, read through `FromStr`. A value
    /// that does not parse exits **2** via [`Args::bad_value`].
    pub fn get<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let raw = self.raw(flag)?;
        Some(raw.parse().unwrap_or_else(|_| self.bad_value(flag)))
    }

    /// Exit **2** with the uniform `bin: bad value 'x' for --flag`
    /// message for the last value given for `flag`.
    pub fn bad_value(&self, flag: &str) -> ! {
        let raw = self.raw(flag).unwrap_or_default();
        usage_error(self.bin, &format!("bad value '{raw}' for {flag}"))
    }

    fn raw(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }
}

/// The command-line entry point of every experiment binary.
///
/// `--help` or `-h` anywhere prints the flag table (plus the shared
/// `--analyze` and `--help` rows) and exits **0**. Otherwise argv is
/// parsed against `flags`, and `read` pulls the typed values out by
/// name; an unknown flag, a missing value, a bad value or `--jobs 0`
/// exits **2** before any work starts. Only then, if `--analyze` was
/// given, the static invariant checker runs over the solver output for
/// the paper's evaluation models, and any deny-level finding exits
/// **1**. Returns what `read` built.
pub fn cli<T>(bin: &'static str, about: &str, flags: &[Flag], read: impl FnOnce(&Args) -> T) -> T {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help(bin, about, flags));
        std::process::exit(0);
    }
    let args = parse(bin, flags, argv).unwrap_or_else(|msg| usage_error(bin, &msg));
    if args.get::<usize>("--jobs") == Some(0) {
        args.bad_value("--jobs");
    }
    let out = read(&args);
    if args.has("--analyze") {
        analyze();
    }
    out
}

fn usage_error(bin: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(2)
}

fn parse(bin: &'static str, flags: &[Flag], argv: Vec<String>) -> Result<Args, String> {
    let mut given = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let Some(&(flag, metavar, _)) = flags.iter().chain([&ANALYZE]).find(|row| row.0 == arg)
        else {
            return Err(format!("unknown flag '{arg}'"));
        };
        let value = if metavar.is_empty() {
            None
        } else {
            Some(it.next().ok_or_else(|| format!("{flag} needs a value"))?)
        };
        given.push((flag, value));
    }
    Ok(Args { bin, given })
}

fn help(bin: &str, about: &str, flags: &[Flag]) -> String {
    let rows: Vec<(String, &str)> = flags
        .iter()
        .chain([&ANALYZE, &HELP])
        .map(|&(flag, metavar, help)| match metavar {
            "" => (flag.to_string(), help),
            _ => (format!("{flag} {metavar}"), help),
        })
        .collect();
    let width = rows.iter().map(|(f, _)| f.len()).max().unwrap_or(0);
    let mut out = format!(
        "{bin}: {about}\n\nusage: cargo run --release -p hetero-bench --bin {bin} [--] [FLAGS]\n\n"
    );
    for (f, d) in rows {
        out.push_str(&format!("  {f:<width$}  {d}\n"));
    }
    out
}

/// Run the static invariant checker over the solver output for the
/// paper's evaluation models (prefill sweep + decode, fast sync) and
/// exit **1** on any deny-level finding. The sweep includes the
/// abstract-interpretation bound certification: static peak footprint
/// and `[lo, hi]` latency bounds per model, gated for soundness
/// against fresh DES runs (`bound-unsound`).
fn analyze() {
    let models = heterollm::ModelConfig::evaluation_models();
    let mut report = hetero_analyze::lint_models(
        &models,
        &hetero_analyze::sweep::DEFAULT_SEQS,
        hetero_soc::sync::SyncMechanism::Fast,
    );
    report.merge(hetero_analyze::bound_lint_models(
        &models,
        300,
        4,
        hetero_analyze::DEFAULT_POOL_BYTES,
    ));
    for d in &report.findings {
        eprintln!("{d}");
    }
    eprintln!(
        "[analyze] checked {} plans: {} deny, {} warn",
        report.summary.checked, report.summary.deny, report.summary.warn
    );
    if !report.is_clean() {
        eprintln!("[analyze] deny-level findings; aborting experiment");
        std::process::exit(1);
    }
}

/// Write `bytes` to a path the user supplied on the command line, or
/// exit **2** with `bin: cannot write PATH: err`.
pub fn write_output(bin: &str, path: &str, bytes: impl AsRef<[u8]>) {
    if let Err(e) = fs::write(path, bytes) {
        eprintln!("{bin}: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

/// Gate failures collected across a run. Every gate is checked, so one
/// run names all that failed; [`Gates::finish`] then exits **1**.
#[derive(Debug, Default)]
pub struct Gates(Vec<String>);

impl Gates {
    /// Record `failure()` unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) -> bool {
        if !ok {
            self.0.push(failure());
        }
        ok
    }

    /// Name every failed gate on stderr as `bin: gate failed: ...` and
    /// exit **1** if any fired.
    pub fn finish(self, bin: &str) {
        if self.0.is_empty() {
            return;
        }
        for failure in &self.0 {
            eprintln!("{bin}: gate failed: {failure}");
        }
        std::process::exit(1);
    }
}

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// A paper-claim check: the measured value against the paper's value
/// with a qualitative tolerance.
#[derive(Debug, Clone, Serialize)]
pub struct Claim {
    /// What is being compared.
    pub what: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Acceptable |measured/paper - 1| for a ✓.
    pub rel_tol: f64,
}

impl Claim {
    /// Whether the measured value falls within tolerance.
    pub fn holds(&self) -> bool {
        if self.paper == 0.0 {
            return self.measured == 0.0;
        }
        (self.measured / self.paper - 1.0).abs() <= self.rel_tol
    }

    /// One-line rendering.
    pub fn render(&self) -> String {
        format!(
            "  [{}] {}: paper {:.2}, measured {:.2} ({:+.1}%)",
            if self.holds() { "ok" } else { "--" },
            self.what,
            self.paper,
            self.measured,
            (self.measured / self.paper - 1.0) * 100.0,
        )
    }
}

/// Print a titled claim block.
pub fn print_claims(title: &str, claims: &[Claim]) {
    println!("\n{title}");
    for c in claims {
        println!("{}", c.render());
    }
}

/// Directory for machine-readable experiment results.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Persist a serializable result set under `target/experiments/`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize experiment");
    fs::write(&path, json).expect("write experiment json");
    println!("\n[saved {}]", path.display());
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[("--seed", "N", "seed"), ("--json", "", "json"), JOBS];

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_reads_the_last_value_by_name() {
        let args = ["--seed", "7", "--json", "--seed", "9", "--analyze"];
        let a = parse("t", FLAGS, argv(&args)).expect("valid argv");
        assert_eq!(a.get::<u64>("--seed"), Some(9));
        assert!(a.has("--json") && a.has("--analyze"));
        assert_eq!(a.get::<usize>("--jobs"), None);
    }

    #[test]
    fn parse_rejects_unknown_flags_and_missing_values() {
        let err = |flags, args: &[&str]| parse("t", flags, argv(args)).unwrap_err();
        assert_eq!(err(FLAGS, &["--bogus"]), "unknown flag '--bogus'");
        assert_eq!(err(FLAGS, &["--json", "--seed"]), "--seed needs a value");
        assert_eq!(err(&[], &["--jobs", "2"]), "unknown flag '--jobs'");
    }

    #[test]
    fn help_aligns_every_row() {
        let h = help("t", "about", FLAGS);
        assert!(h.starts_with(
            "t: about\n\nusage: cargo run --release -p hetero-bench --bin t [--] [FLAGS]\n\n"
        ));
        assert!(h.contains("\n  --seed N    seed\n  --json      json\n  --jobs N    workers"));
        assert!(
            h.ends_with("\n  --help, -h  print this help and exit\n"),
            "{h}"
        );
    }

    #[test]
    fn gates_record_only_failures() {
        let mut gates = Gates::default();
        assert!(gates.check(true, || unreachable!()));
        assert!(!gates.check(false, || "x".into()));
        assert_eq!(gates.0, ["x"]);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("name"));
        assert!(r.lines().count() == 4);
        let md = t.render_markdown();
        assert!(md.starts_with("| name | value |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_checks_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn claim_tolerance() {
        let c = Claim {
            what: "x".into(),
            paper: 100.0,
            measured: 108.0,
            rel_tol: 0.10,
        };
        assert!(c.holds());
        let c2 = Claim {
            what: "x".into(),
            paper: 100.0,
            measured: 130.0,
            rel_tol: 0.10,
        };
        assert!(!c2.holds());
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1234.5), "1234"); // round-half-to-even
        assert_eq!(fmt(34.56), "34.6");
        assert_eq!(fmt(3.456), "3.46");
        assert_eq!(fmt(0.0), "0");
    }
}
