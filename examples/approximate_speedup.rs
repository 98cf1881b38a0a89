//! E-HTPGM vs A-HTPGM: the accuracy / runtime trade-off of Section V,
//! swept over correlation-graph densities (the paper's Fig 9 in
//! miniature), then one density mined by a threaded `MinePlan`.
//!
//! Run with: `cargo run --release --example approximate_speedup`

use std::time::Instant;

use ftpm::*;

fn main() -> Result<(), GraphMismatch> {
    let data = nist_like(0.02);
    let cfg = MinerConfig::new(0.3, 0.3).with_max_events(3);

    let started = Instant::now();
    let exact = mine_exact(&data.seq, &cfg);
    let exact_time = started.elapsed();
    println!(
        "E-HTPGM: {} patterns in {exact_time:.1?} on {} sequences x {} events",
        exact.len(),
        data.seq.len(),
        data.seq.registry().len(),
    );

    println!("\n density    mu    patterns  accuracy  runtime   gain");
    for density in [0.8, 0.6, 0.4, 0.2] {
        let started = Instant::now();
        let approx = mine_approximate_with_density(&data.syb, &data.seq, density, &cfg)?;
        let t = started.elapsed();
        let accuracy = approx.result.accuracy_against(&exact);
        let gain = 1.0 - t.as_secs_f64() / exact_time.as_secs_f64();
        println!(
            "   {:>3.0}%  {:>5.2}  {:>8}  {:>7.1}%  {:>7.1?}  {:>5.1}%",
            density * 100.0,
            approx.mu,
            approx.result.len(),
            accuracy * 100.0,
            t,
            gain * 100.0,
        );
    }

    println!(
        "\nLike the paper's Fig 9: pick a high density (>= 60%) for both good\n\
         accuracy and a solid runtime gain; low densities trade too much\n\
         accuracy for the extra speed."
    );

    // One graph, any execution: a `MinePlan` runs the same A-HTPGM on
    // more threads (or over time shards) and finds the same patterns.
    let graph = CorrelationGraph::build_with_density(&data.syb, 0.6);
    let started = Instant::now();
    let (parallel, _) = MinePlan::new(&data.seq, &cfg)
        .with_correlation(Correlation::Series(&graph))?
        .with_threads(4)
        .collect();
    println!(
        "\nA-HTPGM (60%) on 4 threads: {} patterns in {:.1?}",
        parallel.len(),
        started.elapsed()
    );
    Ok(())
}
