//! Order-independent digests of exported rows.
//!
//! A [`RowDigest`] is the row count plus the wrapping sum of a 64-bit
//! hash of every row, so it identifies the *multiset* of rows: two
//! exports agree exactly when they hold the same rows, in any order.
//! That is what the parallel and sharded engines promise — the same
//! pattern set, with a discovery order that depends on the schedule.

use std::io::{self, Write};

/// Row count and order-independent checksum of a set of rows.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RowDigest {
    pub rows: u64,
    pub sum: u64,
}

impl RowDigest {
    /// Adds one row (without its line terminator).
    pub fn add(&mut self, row: &[u8]) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(row_hash(row));
    }

    /// The checksum as fixed-width hex, for reports and pinned values.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.sum)
    }
}

/// 64-bit hash of one row: a word-at-a-time multiply–rotate pass with a
/// SplitMix64 finalizer. Not cryptographic; it only has to make an
/// accidental match between a wrong row set and the expected one
/// vanishingly unlikely.
fn row_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = bytes.len() as u64 ^ K;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        h = (h.rotate_left(23) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h.rotate_left(23) ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A [`Write`] sink that digests every `\n`-terminated line written to
/// it and counts the bytes; nothing is stored beyond a line that spans
/// two writes.
#[derive(Debug, Default)]
pub struct DigestWriter {
    digest: RowDigest,
    bytes: u64,
    partial: Vec<u8>,
}

impl DigestWriter {
    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The digest of every line, counting a final unterminated one.
    pub fn finish(mut self) -> RowDigest {
        if !self.partial.is_empty() {
            self.digest.add(&self.partial);
        }
        self.digest
    }
}

impl Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        let mut rest = buf;
        while let Some(end) = rest.iter().position(|&b| b == b'\n') {
            if self.partial.is_empty() {
                self.digest.add(&rest[..end]);
            } else {
                self.partial.extend_from_slice(&rest[..end]);
                self.digest.add(&self.partial);
                self.partial.clear();
            }
            rest = &rest[end + 1..];
        }
        self.partial.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_text(text: &str) -> RowDigest {
        let mut w = DigestWriter::default();
        w.write_all(text.as_bytes()).unwrap();
        w.finish()
    }

    const ROWS: &str = "{\"pattern\":\"a+ -> b+\",\"support\":14}\n\
                        {\"pattern\":\"a+ >= c+\",\"support\":13}\n\
                        {\"pattern\":\"b+ -> c+\",\"support\":21}\n";

    #[test]
    fn row_order_does_not_change_the_digest() {
        let lines: Vec<&str> = ROWS.lines().collect();
        let reordered = format!("{}\n{}\n{}\n", lines[2], lines[0], lines[1]);
        assert_eq!(digest_text(ROWS), digest_text(&reordered));
        assert_eq!(digest_text(ROWS).rows, 3);
    }

    #[test]
    fn a_mutated_row_is_flagged() {
        let mutated = ROWS.replace("\"support\":13", "\"support\":12");
        assert_ne!(digest_text(ROWS), digest_text(&mutated));
        let dropped: String = ROWS.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert_ne!(digest_text(ROWS), digest_text(&dropped));
        let duplicated = format!("{ROWS}{}\n", ROWS.lines().next().unwrap_or_default());
        assert_ne!(digest_text(ROWS), digest_text(&duplicated));
    }

    #[test]
    fn write_boundaries_do_not_matter() {
        let whole = digest_text(ROWS);
        for chunk in [1, 3, 7, 8, 64] {
            let mut w = DigestWriter::default();
            for piece in ROWS.as_bytes().chunks(chunk) {
                w.write_all(piece).unwrap();
            }
            assert_eq!(w.bytes(), ROWS.len() as u64);
            assert_eq!(w.finish(), whole, "chunk size {chunk}");
        }
    }
}
