//! The host-speed reference: a fixed kernel, independent of the
//! repository's code, timed between CLI children.
//!
//! The shared host slows memory-bound code by up to 1.5× for stretches
//! of tens of seconds to minutes, so the raw wall time of a child moves
//! 20–30 % between runs of the same code. The reference kernel slows in
//! step (its 20 s window medians correlate with the children's at about
//! 0.9), so a time scaled by `REFERENCE_S / median(kernel)` reads what
//! it would on a host where the kernel takes `REFERENCE_S`. The kernel
//! is the benchmark's own and a change to the program cannot move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys sorted and hashed per kernel call (8 MB of `u64`).
const KEYS: usize = 1 << 20;

/// What the kernel takes on a quiet host: the seconds every scaled
/// time is expressed in.
pub const REFERENCE_S: f64 = 0.1;

/// The kernel: fill, sort, build a hash map over a quarter of the keys,
/// probe it with all of them. Random access over a working set of a few
/// MB, like the miner's. Returns a checksum.
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let map: HashMap<u64, u32> = keys.iter().step_by(4).enumerate().map(|(i, k)| (k >> 20, i as u32)).collect();
    keys.iter()
        .filter_map(|k| map.get(&(k >> 20)))
        .fold(0u64, |s, i| s.wrapping_add(u64::from(*i)))
}

/// Wall seconds of one kernel call on each of `threads` threads at once,
/// so a workload that mines on two cores is referenced on two.
pub fn sample(threads: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads.max(1) {
            s.spawn(move || black_box(kernel(black_box(0x9e37_79b9_7f4a_7c15 ^ t as u64))));
        }
    });
    started.elapsed().as_secs_f64()
}
