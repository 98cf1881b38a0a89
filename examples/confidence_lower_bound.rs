//! Theorem 1 in practice: the confidence of every frequent event pair
//! from mu-correlated series stays above the closed-form lower bound
//! LB(sigma, sigma_m, n_x, mu).
//!
//! Run with: `cargo run --release --example confidence_lower_bound`

use ftpm::*;

fn main() -> Result<(), LowerBoundError> {
    println!("LB(sigma, sigma_m, n_x, mu) — Eq. 11 of the paper\n");
    println!("  sigma  sigma_m  n_x   mu     LB");
    for &(sigma, sigma_m, n_x) in &[(0.2, 0.4, 2), (0.3, 0.5, 2), (0.3, 0.5, 5)] {
        for &mu in &[0.2, 0.4, 0.6, 0.8, 0.95] {
            let lb = confidence_lower_bound(sigma, sigma_m, n_x, mu)?;
            println!("  {sigma:>5}  {sigma_m:>7}  {n_x:>3}  {mu:>4}  {lb:>6.4}");
        }
        println!();
    }

    // Empirical side: on correlated series, frequent pairs keep high
    // confidence; on uncorrelated ones the confidence floor collapses —
    // which is exactly why A-HTPGM may prune them (Fig 8).
    let data = dataport_like(0.02);
    let cfg = MinerConfig::new(0.3, 0.01).with_max_events(2);
    let exact = mine_exact(&data.seq, &cfg);

    let graph = CorrelationGraph::build_with_density(&data.syb, 0.4);
    let mu = graph.mu();
    let registry = data.seq.registry();

    let (mut corr_min, mut uncorr_min) = (f64::INFINITY, f64::INFINITY);
    let (mut n_corr, mut n_uncorr) = (0usize, 0usize);
    for p in exact.patterns.iter().filter(|p| p.pattern.len() == 2) {
        let va = registry.variable(p.pattern.events()[0]);
        let vb = registry.variable(p.pattern.events()[1]);
        if graph.has_edge(va, vb) {
            corr_min = corr_min.min(p.confidence);
            n_corr += 1;
        } else {
            uncorr_min = uncorr_min.min(p.confidence);
            n_uncorr += 1;
        }
    }
    println!(
        "dataport-like at 40% graph density (mu = {mu:.3}):\n  \
         {n_corr} pairs from correlated series, min confidence {corr_min:.2}\n  \
         {n_uncorr} pairs from uncorrelated series, min confidence {uncorr_min:.2}"
    );

    // Arguments outside the theorem's ranges are a typed error, not a
    // panic: sigma_m is the larger support, so it cannot lie below sigma.
    if let Err(err) = confidence_lower_bound(0.5, 0.3, 2, 0.8) {
        println!("\nLB(0.5, 0.3, 2, 0.8): {err}");
    }
    Ok(())
}
