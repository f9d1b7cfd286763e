//! CSV import/export for time-series matrices — the adoption path for
//! running CausalFormer on user data.
//!
//! The format is plain CSV with one **column per series** and one row per
//! time slot (the layout NOAA/NetSim-style exports use), with an optional
//! header row of series names. [`write_series_csv`] round-trips exactly.

use cf_tensor::Tensor;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A cell failed to parse as a number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// 1-based column number.
        column: usize,
        /// Offending cell text.
        text: String,
    },
    /// A cell parsed as `NaN` or an infinity: no series can carry one
    /// through training.
    NonFinite {
        /// 1-based line number.
        line: usize,
        /// 1-based column number.
        column: usize,
        /// Offending cell text.
        text: String,
    },
    /// A row has a different number of cells than the first row.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Cells found.
        found: usize,
        /// Cells expected.
        expected: usize,
    },
    /// No data rows were found.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::BadNumber { line, column, text } => {
                write!(
                    f,
                    "line {line}, column {column}: cannot parse {text:?} as a number"
                )
            }
            CsvError::NonFinite { line, column, text } => {
                write!(
                    f,
                    "line {line}, column {column}: {text:?} is not a finite number"
                )
            }
            CsvError::RaggedRow {
                line,
                found,
                expected,
            } => write!(f, "line {line}: {found} cells, expected {expected}"),
            CsvError::Empty => write!(f, "no data rows found"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Result of [`read_series_csv`]: the `N×L` matrix plus series names
/// (from the header, or `S1…SN`).
#[derive(Debug, Clone)]
pub struct SeriesCsv {
    /// Series matrix, one row per series.
    pub series: Tensor,
    /// One name per series.
    pub names: Vec<String>,
}

/// Reads a column-per-series CSV from any reader. A first row with a cell
/// that fails numeric parsing is treated as a header. A `NaN` or infinite
/// cell is an error.
pub fn read_series_csv<R: Read>(reader: R) -> Result<SeriesCsv, CsvError> {
    let buf = BufReader::new(reader);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut names: Option<Vec<String>> = None;
    let mut expected = None;

    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let cells: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if let Some(exp) = expected {
            if cells.len() != exp {
                return Err(CsvError::RaggedRow {
                    line: line_no,
                    found: cells.len(),
                    expected: exp,
                });
            }
        } else {
            expected = Some(cells.len());
        }

        let parsed: Result<Vec<f64>, usize> = cells
            .iter()
            .enumerate()
            .map(|(c, s)| s.parse::<f64>().map_err(|_| c))
            .collect();
        match parsed {
            Ok(values) => {
                if let Some(col) = values.iter().position(|v| !v.is_finite()) {
                    return Err(CsvError::NonFinite {
                        line: line_no,
                        column: col + 1,
                        text: cells[col].to_string(),
                    });
                }
                rows.push(values)
            }
            Err(col) => {
                // A non-numeric row is only legal as the very first line
                // (header).
                if rows.is_empty() && names.is_none() {
                    names = Some(cells.iter().map(|s| s.to_string()).collect());
                } else {
                    return Err(CsvError::BadNumber {
                        line: line_no,
                        column: col + 1,
                        text: cells[col].to_string(),
                    });
                }
            }
        }
    }

    if rows.is_empty() {
        return Err(CsvError::Empty);
    }
    let l = rows.len();
    let n = rows[0].len();
    // Transpose rows (time-major) into the N×L series matrix.
    let mut data = vec![0.0f64; n * l];
    for (t, row) in rows.iter().enumerate() {
        for (i, &v) in row.iter().enumerate() {
            data[i * l + t] = v;
        }
    }
    let series = Tensor::from_vec(vec![n, l], data).expect("consistent by construction");
    let names = names.unwrap_or_else(|| (1..=n).map(|i| format!("S{i}")).collect());
    Ok(SeriesCsv { series, names })
}

/// Reads a column-per-series CSV file.
pub fn read_series_csv_file(path: impl AsRef<Path>) -> Result<SeriesCsv, CsvError> {
    read_series_csv(std::fs::File::open(path)?)
}

/// Writes an `N×L` series matrix as column-per-series CSV with a header.
pub fn write_series_csv<W: Write>(
    writer: &mut W,
    series: &Tensor,
    names: &[String],
) -> Result<(), CsvError> {
    assert_eq!(series.rank(), 2, "series must be N×L");
    let (n, l) = (series.shape()[0], series.shape()[1]);
    assert_eq!(names.len(), n, "one name per series");
    writeln!(writer, "{}", names.join(","))?;
    for t in 0..l {
        let row: Vec<String> = (0..n).map(|i| format!("{}", series.get2(i, t))).collect();
        writeln!(writer, "{}", row.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_headerless_csv() {
        let csv = "1.0,2.0\n3.0,4.0\n5.0,6.0\n";
        let parsed = read_series_csv(csv.as_bytes()).unwrap();
        assert_eq!(parsed.series.shape(), &[2, 3]);
        // Column 0 is series 0 over time.
        assert_eq!(parsed.series.row(0), &[1.0, 3.0, 5.0]);
        assert_eq!(parsed.names, vec!["S1", "S2"]);
    }

    #[test]
    fn parses_header_and_whitespace() {
        let csv = "temp, pressure \n 1.5 , -2.0\n2.5, -3.0\n";
        let parsed = read_series_csv(csv.as_bytes()).unwrap();
        assert_eq!(parsed.names, vec!["temp", "pressure"]);
        assert_eq!(parsed.series.row(1), &[-2.0, -3.0]);
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = read_series_csv("1,2\n3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { line: 2, .. }), "{err}");
    }

    #[test]
    fn rejects_bad_numbers_after_data() {
        let err = read_series_csv("1,2\n3,x\n".as_bytes()).unwrap_err();
        match err {
            CsvError::BadNumber { line, column, text } => {
                assert_eq!((line, column), (2, 2));
                assert_eq!(text, "x");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn rejects_non_finite_cells() {
        for (csv, line, column, text) in [
            ("a,b\n1,2\n3,NaN\n", 3, 2, "NaN"),
            ("1,inf\n", 1, 2, "inf"),
            ("1,2\n-infinity,4\n", 2, 1, "-infinity"),
        ] {
            match read_series_csv(csv.as_bytes()).unwrap_err() {
                CsvError::NonFinite {
                    line: l,
                    column: c,
                    text: t,
                } => assert_eq!((l, c, t.as_str()), (line, column, text), "{csv:?}"),
                other => panic!("{csv:?}: wrong error: {other}"),
            }
        }
        let err = read_series_csv("1,2\n3,nan\n".as_bytes()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2, column 2: \"nan\" is not a finite number"
        );
    }

    #[test]
    fn rejects_empty_input() {
        assert!(matches!(
            read_series_csv("".as_bytes()).unwrap_err(),
            CsvError::Empty
        ));
        assert!(matches!(
            read_series_csv("a,b\n".as_bytes()).unwrap_err(),
            CsvError::Empty
        ));
    }

    #[test]
    fn roundtrip_write_read() {
        let series =
            Tensor::from_vec(vec![2, 4], vec![1.0, 2.5, -3.0, 0.125, 9.0, 8.0, 7.0, 6.5]).unwrap();
        let names = vec!["a".to_string(), "b".to_string()];
        let mut buf = Vec::new();
        write_series_csv(&mut buf, &series, &names).unwrap();
        let parsed = read_series_csv(buf.as_slice()).unwrap();
        assert_eq!(parsed.series, series);
        assert_eq!(parsed.names, names);
    }
}
