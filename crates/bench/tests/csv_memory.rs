//! The CSV reader's heap budget. `read_csv` streams a file through one
//! reused line buffer into `f64` columns, so its peak heap stays below
//! the size of the file it reads; reading the whole text first and
//! parsing it (`read_to_string` + `parse_csv`) must exceed that size,
//! or the budget could not tell the two apart. The file's cells print
//! 17 characters, more than twice the 8 bytes of the `f64` they hold.
//!
//! One test per binary: the counting allocator is process-wide, so a
//! second test running alongside would count into this one.

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;

use ftpm::{parse_csv, read_csv, TimeSeries};
use ftpm_bench::TrackingAllocator;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// A power of two: every column's capacity equals its length, so the
/// reader's peak does not depend on where its growth stopped.
const ROWS: usize = 1 << 15;
const COLUMNS: usize = 8;

#[test]
fn read_csv_peaks_below_the_file_size() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("csv_memory.csv");
    let mut text = String::from("time");
    for c in 0..COLUMNS {
        write!(text, ",v{c}").expect("writing to a String");
    }
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for row in 0..ROWS {
        write!(text, "\n{}", row * 5).expect("writing to a String");
        for _ in 0..COLUMNS {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let cell = (state >> 11) as f64 / (1u64 << 53) as f64;
            write!(text, ",{cell:.15}").expect("writing to a String");
        }
    }
    text.push('\n');
    std::fs::write(&path, &text).expect("the temp dir is writable");
    let file_size = text.len();
    drop(text);
    assert!(file_size >= 4 << 20, "the file has {file_size} bytes");

    let (streamed, _, streamed_peak) = TrackingAllocator::measure(|| {
        let file = File::open(&path).expect("the file was written");
        read_csv(BufReader::new(file))
    });
    let (parsed, _, parsed_peak) = TrackingAllocator::measure(|| {
        let text = std::fs::read_to_string(&path).expect("the file was written");
        parse_csv(&text)
    });
    std::fs::remove_file(&path).expect("the file was written");

    eprintln!(
        "file {file_size} bytes: read_csv peaks at {streamed_peak} bytes, \
         read_to_string + parse_csv at {parsed_peak}"
    );
    let (streamed, parsed) = (
        streamed.expect("the file is well-formed"),
        parsed.expect("the file is well-formed"),
    );
    assert_eq!(streamed, parsed, "both sources read the same series");
    assert_eq!(streamed.len(), COLUMNS);
    assert!(streamed.iter().all(|ts: &TimeSeries| ts.len() == ROWS));
    assert!(
        streamed_peak < file_size,
        "read_csv peaked at {streamed_peak} bytes, not below the file's {file_size}"
    );
    assert!(
        parsed_peak > file_size,
        "read_to_string + parse_csv peaked at {parsed_peak} bytes, not above the \
         file's {file_size}"
    );
}
