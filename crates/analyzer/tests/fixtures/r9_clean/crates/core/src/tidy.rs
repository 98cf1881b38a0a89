//! R9 fixture (clean): the public miner delegates to the seam.

pub fn mine_tidy(windows: &[u32]) -> usize {
    mine_parallel_internal(windows)
}

fn mine_parallel_internal(windows: &[u32]) -> usize {
    windows.len()
}
