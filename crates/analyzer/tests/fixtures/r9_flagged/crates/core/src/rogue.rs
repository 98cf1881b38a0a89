//! R9 fixture (flagged): a public miner that never routes through the
//! `mine_*_internal` seam family — it would bypass the shared sink,
//! boundary and correlation plumbing.

pub fn mine_rogue(windows: &[u32]) -> usize {
    windows.len()
}
