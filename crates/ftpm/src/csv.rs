//! Minimal CSV ingestion for the CLI and for programmatic use: a time
//! column at a constant step followed by numeric variable columns.

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
/// The time column must increase by a constant positive step, and the
/// series must end inside the `i64` tick range: the last sample holds
/// until `start + rows × step`.
///
/// # Errors
///
/// Returns a human-readable message on any structural problem (ragged
/// rows, non-numeric cells, irregular timestamps, a time axis that
/// overflows `i64`).
pub fn parse_csv(text: &str) -> Result<Vec<TimeSeries>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty csv")?;
    let names: Vec<&str> = header.split(',').skip(1).map(str::trim).collect();
    if names.is_empty() {
        return Err("csv needs a time column plus at least one variable".into());
    }
    let mut times: Vec<i64> = Vec::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for (lno, line) in lines.enumerate() {
        let row = lno + 2;
        let mut fields = line.split(',').map(str::trim);
        let t = fields.next().ok_or_else(|| format!("line {row}: missing time"))?;
        times.push(
            t.parse::<i64>()
                .map_err(|e| format!("line {row}: bad time {t:?}: {e}"))?,
        );
        for (name, column) in names.iter().zip(columns.iter_mut()) {
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
        .iter()
        .zip(columns)
        .map(|(name, column)| TimeSeries::new(*name, start, step, column))
        .collect())
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
}
