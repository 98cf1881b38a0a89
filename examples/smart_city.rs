//! Weather → collision association mining — the paper's smart-city
//! scenario (patterns P12–P17 of Table VI: extreme weather conditions
//! linked to high collision injuries, rare but high-confidence).
//!
//! Run with: `cargo run --release --example smart_city`

use ftpm::*;

fn main() {
    let data = smartcity_like(0.02);
    println!(
        "dataset {}: {} sequences, {} variables, {} distinct events",
        data.name,
        data.seq.len(),
        data.syb.n_variables(),
        data.seq.registry().len(),
    );

    // Rare-but-confident patterns: low support, high confidence — the
    // regime the paper highlights for weather/collision associations.
    let cfg = MinerConfig::new(0.1, 0.5).with_max_events(2);
    let started = std::time::Instant::now();
    let result = mine_exact(&data.seq, &cfg);
    println!(
        "\nE-HTPGM(sigma=10%, delta=50%): {} patterns in {:.1?}",
        result.len(),
        started.elapsed()
    );

    let registry = data.seq.registry();
    let is_extreme_weather = |label: &str| {
        label.starts_with("weather") && (label.ends_with("VeryHigh") || label.ends_with("VeryLow"))
    };
    let is_bad_collision = |label: &str| {
        label.starts_with("collision") && (label.ends_with("High") || label.ends_with("Medium"))
    };
    let mut findings: Vec<&FrequentPattern> = result
        .patterns
        .iter()
        .filter(|p| {
            let labels: Vec<&str> = p
                .pattern
                .events()
                .iter()
                .map(|&e| registry.label(e))
                .collect();
            labels.iter().any(|l| is_extreme_weather(l))
                && labels.iter().any(|l| is_bad_collision(l))
        })
        .collect();
    findings.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));

    println!("\nextreme weather -> collision patterns (rare, high confidence):");
    for p in findings.iter().take(12) {
        println!(
            "  {}  supp={:.0}% conf={:.0}%",
            p.pattern.display(registry),
            p.rel_support * 100.0,
            p.confidence * 100.0
        );
    }
    if findings.is_empty() {
        println!("  (none at these thresholds — try lowering sigma)");
    }

    // The correlation graph view A-HTPGM exploits: weather variables on
    // the same latent factor cluster together.
    let graph = CorrelationGraph::build_with_density(&data.syb, 0.2);
    let mu = graph.mu();
    println!(
        "\ncorrelation graph at 20% density: mu={mu:.3}, {} edges, {} correlated of {} series",
        graph.n_edges(),
        graph.correlated_variables().len(),
        data.syb.n_variables(),
    );
}
