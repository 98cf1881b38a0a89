//! Minimal CSV ingestion for the CLI and for programmatic use: a time
//! column at a constant step followed by numeric variable columns.
//!
//! Two line sources feed one column builder: [`parse_csv`] walks text
//! already in memory, and [`read_csv`] streams any [`BufRead`] through a
//! single reused line buffer, so reading a file never holds its text —
//! only the growing `f64` columns. Both accept the same inputs and
//! report the same errors.

use std::collections::HashSet;
use std::io::BufRead;

use ftpm_timeseries::TimeSeries;

/// Parses CSV text into one [`TimeSeries`] per variable column.
///
/// Expected shape:
///
/// ```csv
/// time,kitchen,toaster
/// 0,120.0,0.0
/// 5,130.0,900.0
/// ```
///
/// Lines end in `\n` or `\r\n`, and blank or whitespace-only lines are
/// skipped. The time column must increase by a constant positive step,
/// and the series must end inside the `i64` tick range: the last sample
/// holds until `start + rows × step`.
///
/// # Errors
///
/// Returns a human-readable message on any structural problem (a
/// header that repeats a variable name, ragged rows, non-numeric cells,
/// irregular timestamps, a time axis that overflows `i64`). A message
/// about one row says `line N`, the row's line in the text: every line
/// counts, blank ones included, and the first line is line 1.
pub fn parse_csv(text: &str) -> Result<Vec<TimeSeries>, String> {
    let mut columns = Columns::default();
    for line in text.lines() {
        columns.push_line(line)?;
    }
    columns.finish()
}

/// Streams CSV from `reader` into one [`TimeSeries`] per variable
/// column: the shape, the checks and the messages of [`parse_csv`], read
/// one line at a time into a reused buffer, so the input's text is never
/// held whole.
///
/// # Errors
///
/// Every error of [`parse_csv`]; a read error of `reader`; and a line
/// that is not UTF-8, named `line N` as `parse_csv` numbers lines.
pub fn read_csv<R: BufRead>(mut reader: R) -> Result<Vec<TimeSeries>, String> {
    let mut columns = Columns::default();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let read = reader
            .read_until(b'\n', &mut buf)
            .map_err(|e| e.to_string())?;
        if read == 0 {
            break;
        }
        // The line keeps its `\n` or `\r\n`: the parser trims every
        // field and skips blank lines, so the ending changes nothing.
        let line =
            std::str::from_utf8(&buf).map_err(|e| format!("line {}: {e}", columns.lines + 1))?;
        columns.push_line(line)?;
    }
    columns.finish()
}

/// The column builder behind both line sources: the first non-blank
/// line is the header, every later one a row, and [`Columns::finish`]
/// checks the time axis once every row is in.
#[derive(Default)]
struct Columns {
    /// Lines seen, blank ones included: the current line's `line N`.
    lines: usize,
    /// The header's variable names; empty until the header is read.
    names: Vec<String>,
    times: Vec<i64>,
    columns: Vec<Vec<f64>>,
}

impl Columns {
    fn push_line(&mut self, line: &str) -> Result<(), String> {
        self.lines += 1;
        if line.trim().is_empty() {
            return Ok(());
        }
        if self.names.is_empty() {
            self.header(line)
        } else {
            self.row(line)
        }
    }

    fn header(&mut self, header: &str) -> Result<(), String> {
        self.names = header
            .split(',')
            .skip(1)
            .map(|name| name.trim().to_owned())
            .collect();
        if self.names.is_empty() {
            return Err("csv needs a time column plus at least one variable".into());
        }
        // Events are labelled `name=symbol`, so a repeated name would
        // mine two columns under one label.
        let mut seen = HashSet::new();
        if let Some(name) = self.names.iter().find(|name| !seen.insert(name.as_str())) {
            return Err(format!(
                "line {}: column {name:?} appears twice",
                self.lines
            ));
        }
        self.columns = vec![Vec::new(); self.names.len()];
        Ok(())
    }

    fn row(&mut self, line: &str) -> Result<(), String> {
        let row = self.lines;
        let mut fields = line.split(',').map(str::trim);
        let t = fields.next().ok_or_else(|| format!("line {row}: missing time"))?;
        self.times.push(
            t.parse::<i64>()
                .map_err(|e| format!("line {row}: bad time {t:?}: {e}"))?,
        );
        for (name, column) in self.names.iter().zip(self.columns.iter_mut()) {
            let f = fields
                .next()
                .ok_or_else(|| format!("line {row}: missing value for {name}"))?;
            column.push(
                f.parse::<f64>()
                    .map_err(|e| format!("line {row}: bad value {f:?}: {e}"))?,
            );
        }
        if fields.next().is_some() {
            return Err(format!("line {row}: too many fields"));
        }
        Ok(())
    }

    fn finish(self) -> Result<Vec<TimeSeries>, String> {
        let Columns {
            names,
            times,
            columns,
            ..
        } = self;
        if names.is_empty() {
            return Err("empty csv".into());
        }
        if times.len() < 2 {
            return Err("need at least two data rows".into());
        }
        let start = times[0];
        let step = times[1].checked_sub(start).ok_or_else(|| {
            format!("time column overflows: the step from {start} to {} exceeds i64", times[1])
        })?;
        if step <= 0 || !times.windows(2).all(|w| w[1].checked_sub(w[0]) == Some(step)) {
            return Err("time column must increase at a constant step".into());
        }
        let rows = times.len();
        let end = i64::try_from(rows)
            .ok()
            .and_then(|rows| rows.checked_mul(step))
            .and_then(|span| start.checked_add(span));
        if end.is_none() {
            return Err(format!(
                "time column overflows: {rows} rows of step {step} from {start} end past i64::MAX"
            ));
        }
        Ok(names
            .into_iter()
            .zip(columns)
            .map(|(name, column)| TimeSeries::new(name, start, step, column))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_csv() {
        let series = parse_csv("time,a,b\n0,1.5,2\n5,0.5,3\n10,0,4\n").unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].name(), "a");
        assert_eq!(series[0].step(), 5);
        assert_eq!(series[1].values(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn rejects_irregular_timestamps() {
        let err = parse_csv("time,a\n0,1\n5,2\n12,3\n").unwrap_err();
        assert!(err.contains("constant step"), "{err}");
    }

    #[test]
    fn rejects_a_header_that_repeats_a_name() {
        let err = parse_csv("time,a,a\n0,1,2\n5,3,4\n").unwrap_err();
        assert_eq!(err, "line 1: column \"a\" appears twice");
        let err = read_csv("\ntime, b ,a,b\n0,1,2,3\n5,1,2,3\n".as_bytes()).unwrap_err();
        assert_eq!(err, "line 2: column \"b\" appears twice");
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = parse_csv("time,a,b\n0,1\n").unwrap_err();
        assert!(err.contains("missing value"), "{err}");
        let err = parse_csv("time,a\n0,1,9\n5,2,9\n").unwrap_err();
        assert!(err.contains("too many fields"), "{err}");
    }

    #[test]
    fn rejects_a_time_axis_that_overflows_i64() {
        let (min, max) = (i64::MIN, i64::MAX);
        // The step itself does not fit.
        let err = parse_csv(&format!("time,a\n{min},1\n{max},0\n")).unwrap_err();
        assert!(err.contains("time column overflows"), "{err}");
        // The step fits, but the series ends one step after i64::MAX.
        let err = parse_csv(&format!("time,a\n{},1\n{max},0\n", max - 1)).unwrap_err();
        assert!(err.contains("time column overflows"), "{err}");
        // A later difference that does not fit is irregular too.
        let err = parse_csv(&format!("time,a\n{min},1\n{},0\n{max},1\n", min + 1)).unwrap_err();
        assert!(err.contains("constant step"), "{err}");
        // Axes at either end of the range that fit: the first starts at
        // i64::MIN, the second ends exactly at i64::MAX.
        let series = parse_csv(&format!("time,a\n{min},1\n{},0\n", min + 1)).unwrap();
        assert_eq!((series[0].start(), series[0].step()), (min, 1));
        let series = parse_csv(&format!("time,a\n{},1\n{},0\n", max - 2, max - 1)).unwrap();
        assert_eq!((series[0].start(), series[0].step()), (max - 2, 1));
    }

    #[test]
    fn rejects_non_numeric_cells() {
        let err = parse_csv("time,a\n0,x\n5,1\n").unwrap_err();
        assert!(err.contains("bad value"), "{err}");
    }

    #[test]
    fn rejects_too_short_input() {
        assert!(parse_csv("time,a\n0,1\n").is_err());
        assert!(parse_csv("").is_err());
        assert!(parse_csv("time\n0\n5\n").is_err());
    }

    #[test]
    fn skips_blank_lines() {
        let series = parse_csv("time,a\n\n0,1\n\n5,2\n\n").unwrap();
        assert_eq!(series[0].len(), 2);
    }

    #[test]
    fn errors_name_the_line_of_the_text_counting_blank_lines() {
        let err = parse_csv("\n time,a\n0,1\n\r\n \n5,x\n").unwrap_err();
        assert!(err.starts_with("line 6: bad value"), "{err}");
        let err = parse_csv("\ntime\n0\n").unwrap_err();
        assert!(err.starts_with("csv needs a time column"), "{err}");
        assert_eq!(parse_csv("\n \n\n").unwrap_err(), "empty csv");
    }

    #[test]
    fn read_csv_rejects_a_line_that_is_not_utf8_naming_it() {
        // The blank line counts: the bad row is the fourth line.
        let bytes = b"time,a\n0,1\n\n5,\xff\n10,2\n";
        let err = read_csv(&bytes[..]).unwrap_err();
        assert!(err.starts_with("line 4: invalid utf-8"), "{err}");
        let err = read_csv(&b"time,\xc3\n0,1\n5,2\n"[..]).unwrap_err();
        assert!(err.starts_with("line 1: "), "{err}");
    }

    #[test]
    fn read_csv_reports_a_read_error() {
        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let err = read_csv(std::io::BufReader::new(Failing)).unwrap_err();
        assert_eq!(err, "disk on fire");
    }

    /// Renders one random CSV from `draws`: the first draw fixes the
    /// shape (columns, clock, line endings, final newline, whether rows
    /// may be faulty), every later one a line — mostly well-formed rows,
    /// blank and whitespace-only lines and NaN cells, and in a faulty
    /// shape also ragged rows, extra fields, bad numbers, and
    /// decreasing, duplicate or unparsable timestamps. Clocks near
    /// `i64::MAX` or with a huge step overflow the axis.
    fn random_csv(draws: &[u64]) -> String {
        let shape = draws[0];
        let n_cols = 1 + (shape % 3) as usize;
        let (start, step) = match (shape >> 2) % 5 {
            0 => (0, 5),
            1 => (-100, 1),
            2 => (i64::MAX - 12, 3),
            3 => (i64::MIN, 1 << 61),
            _ => (7, 1),
        };
        let faulty = (shape >> 11).is_multiple_of(2);
        let crlf = |d: u64| match (shape >> 5) % 3 {
            0 => false,
            1 => true,
            _ => d & 1 == 1,
        };
        let final_newline = !(shape >> 7).is_multiple_of(4);
        let mut lines: Vec<(String, bool)> = Vec::new();
        let header: Vec<String> = (0..=n_cols).map(|c| format!(" c{c} ")).collect();
        lines.push((header.join(","), crlf(shape >> 9)));
        let mut t = start;
        for &d in &draws[1..] {
            let cells = |bad: Option<&str>| -> Vec<String> {
                (0..n_cols)
                    .map(|c| match bad {
                        Some(b) if c + 1 == n_cols => b.to_owned(),
                        _ => format!("{}", (d >> (8 * c)) as u8 as f64 / 7.0),
                    })
                    .collect()
            };
            let row = |time: String, cells: Vec<String>| {
                std::iter::once(time).chain(cells).collect::<Vec<_>>().join(",")
            };
            let line = match (d >> 40) % 32 {
                20 => String::new(),
                21 => " \t ".to_owned(),
                22 => {
                    let line = row(t.to_string(), cells(Some(" NaN ")));
                    t = t.saturating_add(step);
                    line
                }
                23 if faulty => row(t.to_string(), cells(None)[1..].to_vec()),
                24 if faulty => row(t.to_string(), cells(None)) + ",9",
                25 if faulty => row(t.to_string(), cells(Some("1.x"))),
                26 if faulty => {
                    row(t.saturating_sub(step * (d as i64 & 1)).to_string(), cells(None))
                }
                27 if faulty => row("t0".to_owned(), cells(None)),
                _ => {
                    let line = row(t.to_string(), cells(None));
                    t = t.saturating_add(step);
                    line
                }
            };
            lines.push((line, crlf(d)));
        }
        let mut text = String::new();
        let last = lines.len() - 1;
        for (i, (line, crlf)) in lines.into_iter().enumerate() {
            text.push_str(&line);
            if i < last || final_newline {
                text.push_str(if crlf { "\r\n" } else { "\n" });
            }
        }
        text
    }

    proptest::proptest! {
        /// The streaming reader and the in-memory parser agree on any
        /// input and any buffer size: lines straddle buffer refills at
        /// capacities 1, 2, 3 and 7. Equal names, clocks and bitwise-
        /// equal values, or the identical error message.
        #[test]
        fn read_csv_agrees_with_parse_csv_across_buffer_refills(
            draws in proptest::collection::vec(0u64..u64::MAX, 1..24),
        ) {
            let text = random_csv(&draws);
            let expected = parse_csv(&text);
            for capacity in [1, 2, 3, 7, 64] {
                let got = read_csv(std::io::BufReader::with_capacity(capacity, text.as_bytes()));
                match (&expected, &got) {
                    (Ok(want), Ok(got)) => {
                        proptest::prop_assert_eq!(want.len(), got.len());
                        for (w, g) in want.iter().zip(got) {
                            proptest::prop_assert_eq!(
                                (w.name(), w.start(), w.step()),
                                (g.name(), g.start(), g.step())
                            );
                            let bits = |ts: &TimeSeries| -> Vec<u64> {
                                ts.values().iter().map(|v| v.to_bits()).collect()
                            };
                            proptest::prop_assert_eq!(bits(w), bits(g));
                        }
                    }
                    (Err(want), Err(got)) => proptest::prop_assert_eq!(want, got),
                    _ => proptest::prop_assert!(
                        false,
                        "capacity {capacity} on {text:?}: {expected:?} vs {got:?}"
                    ),
                }
            }
        }
    }
}
