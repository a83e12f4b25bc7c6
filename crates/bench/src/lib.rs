//! # tb-bench — the experiment harness
//!
//! One binary per artifact of the paper's evaluation:
//!
//! | binary | regenerates | paper section |
//! |--------|-------------|---------------|
//! | `table1` | benchmark characteristics + speedup table | Table 1 |
//! | `table2` | geo-mean speedups of the variant ladder | Table 2 |
//! | `fig4` | SIMD utilization vs block size | Figure 4 |
//! | `fig5` | speedup vs workers at block size 2⁵ | Figure 5 |
//! | `theory` | measured-vs-bound step counts (Theorems 1–4) | §4 |
//! | `sweep` | the block-size search behind Table 1's "Block size" column | Table 1 |
//!
//! plus `trace`, which exports one traced run for Perfetto (see
//! [`trace_check`]). Every paper binary takes `--scale tiny|small|paper`
//! (default `small`), `--workers N` (default: the paper's 16), and writes
//! both an aligned text table to stdout and a CSV under `results/`.

use std::fmt::Write as _;
use std::path::PathBuf;

use tb_suite::Scale;

pub mod trace_check;

/// Common command-line arguments for the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Input scale preset.
    pub scale: Scale,
    /// Worker count for the multicore columns (the paper used 16 workers
    /// on an 8-core machine).
    pub workers: usize,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Restrict to benchmarks whose name is in this list (empty = all).
    pub only: Vec<String>,
    /// Explicit `Q` override (`--q N`). When absent, [`HarnessArgs::bench_q`]
    /// scales each benchmark's Table 1 width to the CPU detected at startup.
    pub q: Option<usize>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: Scale::Small,
            workers: 16,
            out_dir: PathBuf::from("results"),
            only: Vec::new(),
            q: None,
        }
    }
}

impl HarnessArgs {
    /// One-line usage, printed after a parse error.
    pub const USAGE: &'static str =
        "usage: [--scale tiny|small|paper] [--workers N] [--out DIR] [--only a,b] [--q N]";

    /// Parse from `std::env::args`; on a bad value print the error and
    /// [`HarnessArgs::USAGE`] to stderr and exit with status 2.
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::try_parse(&argv).unwrap_or_else(|e| {
            eprintln!("{e}\n{}", Self::USAGE);
            std::process::exit(2);
        })
    }

    /// Parse `argv` (program name already stripped). Unknown flags are
    /// ignored so binaries can add their own; a known flag with a missing
    /// or malformed value is an error.
    pub fn try_parse(argv: &[String]) -> Result<Self, String> {
        fn number(flag: &str, v: &str) -> Result<usize, String> {
            v.parse().map_err(|_| format!("{flag} takes a non-negative integer, got {v:?}"))
        }
        let mut args = HarnessArgs::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    args.scale = match value()?.as_str() {
                        "tiny" => Scale::Tiny,
                        "small" => Scale::Small,
                        "paper" => Scale::Paper,
                        other => return Err(format!("unknown scale {other:?} (use tiny|small|paper)")),
                    };
                }
                "--workers" => args.workers = number(flag, value()?)?,
                "--out" => args.out_dir = PathBuf::from(value()?),
                "--only" => args.only = value()?.split(',').map(str::to_string).collect(),
                "--q" => args.q = Some(number(flag, value()?)?),
                _ => {}
            }
        }
        Ok(args)
    }

    /// Does `name` pass the `--only` filter?
    pub fn selected(&self, name: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|n| n == name)
    }

    /// The `Q` a harness binary should run a benchmark at: the `--q`
    /// override when given, otherwise the benchmark's Table 1 width
    /// (lanes per 128-bit SSE register) scaled to the vector width
    /// detected on this CPU at startup — `tb_simd::detected_vector_bits`,
    /// the ROADMAP's SIMD-width autodetection. The scaling preserves the
    /// per-element-width ratios of the Table 1 caption: a `char` benchmark
    /// stays 4× wider than an `int` one at every ISA.
    pub fn bench_q(&self, table1_q: usize) -> usize {
        self.q.unwrap_or_else(|| table1_q * (tb_simd::detected_vector_bits() / 128).max(1))
    }

    /// Scale name for file naming.
    pub fn scale_name(&self) -> &'static str {
        match self.scale {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }
}

/// The per-benchmark "best" block size (`t_dfe`) and restart-block size
/// (`t_restart`) reported in Table 1 of the paper. Restart sizes are
/// clamped to the block size (§3.5 requires `t_restart <= t_dfe`).
pub fn paper_block_sizes(name: &str) -> (usize, usize) {
    let (block, rb) = match name {
        "knapsack" => (1 << 12, 1 << 10),
        "fib" => (1 << 14, 4096),
        "parentheses" => (1 << 13, 4607),
        "nqueens" => (1 << 12, 2040),
        "graphcol" => (1 << 10, 473),
        "uts" => (1 << 11, 2047),
        "binomial" => (1 << 13, 4096),
        "minmax" => (1 << 10, 32767),
        "barneshut" => (1 << 9, 511),
        "pointcorr" => (1 << 10, 256),
        "knn" => (1 << 9, 128),
        other => panic!("unknown benchmark {other}"),
    };
    (block, rb.min(block))
}

/// Geometric mean (ignores non-positive values, as the paper's table does
/// for ratios).
pub fn geomean(xs: &[f64]) -> f64 {
    let vals: Vec<f64> = xs.iter().copied().filter(|&x| x > 0.0).collect();
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|x| x.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// A simple aligned-text + CSV table sink.
pub struct TableSink {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    csv_path: PathBuf,
}

impl TableSink {
    /// A sink writing CSV to `<out_dir>/<name>.csv`.
    pub fn new(out_dir: &std::path::Path, name: &str, headers: &[&str]) -> Self {
        std::fs::create_dir_all(out_dir).expect("create results dir");
        TableSink {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            csv_path: out_dir.join(format!("{name}.csv")),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(out, "{c:>w$}  ", w = w);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Write the CSV file and print the text table; returns the CSV path.
    pub fn finish(self) -> PathBuf {
        let mut csv = String::new();
        let esc = |s: &String| {
            if s.contains(',') {
                format!("\"{s}\"")
            } else {
                s.clone()
            }
        };
        csv.push_str(&self.headers.iter().map(esc).collect::<Vec<_>>().join(","));
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            csv.push('\n');
        }
        std::fs::write(&self.csv_path, csv).expect("write csv");
        println!("{}", self.render());
        println!("[csv written to {}]", self.csv_path.display());
        self.csv_path
    }
}

/// Format seconds compactly.
pub fn secs(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{:.2}m", s * 1e3)
    } else {
        format!("{:.0}u", s * 1e6)
    }
}

/// Format a ratio.
pub fn ratio(a: f64, b: f64) -> String {
    if b <= 0.0 {
        "-".to_string()
    } else {
        format!("{:.2}", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(line: &str) -> Result<HarnessArgs, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        HarnessArgs::try_parse(&argv)
    }

    #[test]
    fn try_parse_reads_known_flags_and_skips_unknown_ones() {
        let a = try_parse("--scale tiny --smoke --workers 3 --only fib,uts --q 8 --out /tmp/x").unwrap();
        assert!(matches!(a.scale, Scale::Tiny));
        assert_eq!((a.workers, a.q), (3, Some(8)));
        assert_eq!(a.only, ["fib", "uts"]);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn try_parse_reports_bad_values_instead_of_panicking() {
        let err = |line| try_parse(line).unwrap_err();
        assert!(err("--scale bogus").contains("unknown scale \"bogus\""));
        assert!(err("--workers abc").contains("--workers takes a non-negative integer"));
        assert!(err("--q -1").contains("--q takes"));
        assert!(err("--only fib --out").contains("--out needs a value"));
        assert!(err("--scale").contains("--scale needs a value"));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[1.0, 0.0, 4.0]) - 2.0).abs() < 1e-12, "non-positive filtered");
    }

    #[test]
    fn paper_blocks_clamp_restart() {
        let (b, r) = paper_block_sizes("minmax");
        assert!(r <= b);
        let (b, r) = paper_block_sizes("fib");
        assert_eq!(b, 1 << 14);
        assert_eq!(r, 4096);
    }

    #[test]
    fn table_renders_aligned() {
        let dir = std::env::temp_dir().join("tb-bench-test");
        let mut t = TableSink::new(&dir, "unit", &["a", "bench"]);
        t.row(vec!["1".into(), "fib".into()]);
        let s = t.render();
        assert!(s.contains("bench"));
        assert!(s.contains("fib"));
    }

    #[test]
    fn secs_formats() {
        use std::time::Duration;
        assert_eq!(secs(Duration::from_secs(200)), "200");
        assert!(secs(Duration::from_millis(5)).ends_with('m'));
    }
}
