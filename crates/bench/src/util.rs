//! Shared harness plumbing: timing, miner dispatch, grid/row printing and
//! CSV output.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ftpm_core::{
    mine_approximate_with_density, ApproxOutcome, MinePlan, MinerConfig, MiningResult,
    MAX_EVENTS_HARD_CAP,
};
use ftpm_datagen::Dataset;

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// The five miners of the Table VII/VIII comparisons, in the paper's
/// presentation order, plus A-HTPGM at a given correlation-graph density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    HDfs,
    IEMiner,
    TPMiner,
    EHtpgm,
    /// Multi-threaded E-HTPGM with this many worker threads — the
    /// `--threads` path of the CLI, for the threads-scaling experiment.
    EHtpgmPar(usize),
    /// A-HTPGM keeping this fraction of correlation-graph edges
    /// (Def 5.6; the paper's "A-HTPGM (80%)" etc.).
    AHtpgm(f64),
}

impl Method {
    /// The paper's standard line-up.
    pub fn lineup() -> Vec<Method> {
        vec![
            Method::HDfs,
            Method::IEMiner,
            Method::TPMiner,
            Method::EHtpgm,
            Method::AHtpgm(0.8),
            Method::AHtpgm(0.6),
            Method::AHtpgm(0.4),
            Method::AHtpgm(0.2),
        ]
    }

    /// Display label matching the paper's tables.
    pub fn label(&self) -> String {
        match self {
            Method::HDfs => "H-DFS".into(),
            Method::IEMiner => "IEMiner".into(),
            Method::TPMiner => "TPMiner".into(),
            Method::EHtpgm => "E-HTPGM".into(),
            Method::EHtpgmPar(threads) => format!("E-HTPGM ({threads}thr)"),
            Method::AHtpgm(d) => format!("A-HTPGM ({:.0}%)", d * 100.0),
        }
    }

    /// Runs the miner on a dataset.
    pub fn run(&self, data: &Dataset, cfg: &MinerConfig) -> MiningResult {
        match self {
            Method::HDfs => ftpm_baselines::mine_hdfs(&data.seq, cfg),
            Method::IEMiner => ftpm_baselines::mine_ieminer(&data.seq, cfg),
            Method::TPMiner => ftpm_baselines::mine_tpminer(&data.seq, cfg),
            Method::EHtpgm => ftpm_core::mine_exact(&data.seq, cfg),
            Method::EHtpgmPar(threads) => {
                let plan = MinePlan::new(&data.seq, cfg).with_threads(*threads);
                plan.collect().0
            }
            Method::AHtpgm(density) => approximate(data, *density, cfg).result,
        }
    }
}

/// A-HTPGM on `data`, keeping `density` of the correlation graph's
/// edges. The graph is built on `data.syb`, which `data.seq` was
/// converted from, so it fits; a mismatch is named on stderr and exits
/// with status 1, like a usage error.
pub fn approximate(data: &Dataset, density: f64, cfg: &MinerConfig) -> ApproxOutcome {
    mine_approximate_with_density(&data.syb, &data.seq, density, cfg).unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", data.name);
        std::process::exit(1)
    })
}

/// Harness options shared by every experiment binary: positional args
/// `[scale] [max_events]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// Dataset scale in (0, 1] relative to the paper's full size.
    pub scale: f64,
    /// Pattern-length cap, to keep the low-σ cells bounded.
    pub max_events: usize,
}

impl Opts {
    /// Parses `[scale] [max_events]` from argv with the given defaults.
    /// An argument that does not parse or is out of range, and any third
    /// argument, is a usage error: it is named on stderr and the process
    /// exits with status 1 instead of running the defaults.
    pub fn from_args(default_scale: f64, default_max_events: usize) -> Opts {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        let args: Vec<String> = argv.collect();
        let defaults = Opts { scale: default_scale, max_events: default_max_events };
        Opts::parse(&args, defaults).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {bin} [scale] [max_events]");
            std::process::exit(1)
        })
    }

    fn parse(args: &[String], mut opts: Opts) -> Result<Opts, String> {
        if let Some(extra) = args.get(2) {
            return Err(format!("unexpected argument {extra:?}"));
        }
        if let Some(s) = args.first() {
            opts.scale = s
                .parse()
                .ok()
                .filter(|x: &f64| *x > 0.0 && *x <= 1.0)
                .ok_or_else(|| format!("scale must be a number in (0, 1], got {s:?}"))?;
        }
        if let Some(s) = args.get(1) {
            let cap = MAX_EVENTS_HARD_CAP;
            opts.max_events = s
                .parse()
                .ok()
                .filter(|n| (2..=cap).contains(n))
                .ok_or_else(|| format!("max_events must be an integer in 2..={cap}, got {s:?}"))?;
        }
        Ok(opts)
    }
}

/// A simple results table that prints aligned rows and can be saved as
/// CSV under `results/`.
pub struct Report {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report with the experiment id (e.g. `"table7"`).
    pub fn new(name: &str, header: &[&str]) -> Self {
        Report {
            name: name.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Prints the table and writes `results/<name>.csv`. If the CSV
    /// cannot be written, the error is named on stderr and the process
    /// exits with status 1: a run without its results file failed.
    pub fn finish(self) {
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.header));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for r in &self.rows {
            println!("{}", fmt_row(r));
        }
        match self.save(Path::new("results")) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1)
            }
        }
    }

    /// Writes the table to `<dir>/<name>.csv`, creating `dir` first, and
    /// returns the file's path.
    fn save(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("could not create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut csv = self.header.join(",") + "\n";
        for r in &self.rows {
            csv.push_str(&r.join(","));
            csv.push('\n');
        }
        std::fs::write(&path, csv)
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Formats a duration in seconds with sensible precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::{Opts, Report};

    #[test]
    fn saving_into_a_file_instead_of_a_directory_is_an_error() {
        let scratch = std::env::temp_dir().join(format!("ftpm_bench_save_{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let mut report = Report::new("t", &["a", "b"]);
        report.row(vec!["1".into(), "2".into()]);

        let dir = scratch.join("results");
        let path = report.save(&dir).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");

        let file = scratch.join("not_a_dir");
        std::fs::write(&file, "").unwrap();
        let err = report.save(&file).expect_err("a file cannot hold the CSV");
        assert!(err.starts_with("could not create"), "{err}");
        assert!(err.contains("not_a_dir"), "{err}");
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    #[test]
    fn bad_or_extra_arguments_are_usage_errors_that_name_them() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Opts::parse(&args, Opts { scale: 0.02, max_events: 3 })
        };
        assert_eq!(parse(&[]), Ok(Opts { scale: 0.02, max_events: 3 }));
        assert_eq!(parse(&["1", "4"]), Ok(Opts { scale: 1.0, max_events: 4 }));
        for (args, bad) in [
            (&["0,01"][..], "0,01"),
            (&["0"], "0"),
            (&["1.5"], "1.5"),
            (&["nan"], "nan"),
            (&["0.01", "3.5"], "3.5"),
            (&["0.01", "1"], "1"),
            (&["0.01", "3", "x"], "x"),
        ] {
            let err = parse(args).expect_err("a usage error");
            assert!(err.contains(&format!("{bad:?}")), "{args:?}: {err}");
        }
    }
}
