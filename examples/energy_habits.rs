//! Mining living habits from smart-home energy data — the paper's
//! motivating scenario (Section I and patterns P1–P11 of Table VI).
//!
//! Generates a NIST-like household (72 appliances with daily routines),
//! mines it exactly, and prints the strongest cross-appliance patterns
//! with a habit-style interpretation. Also demonstrates what the pruning
//! techniques save (the Fig 6/7 ablation, in miniature).
//!
//! Run with: `cargo run --release --example energy_habits`

use ftpm::*;

fn main() {
    let data = nist_like(0.02); // ~30 sequences, 72 appliances
    println!(
        "dataset {}: {} sequences, {} variables, {} distinct events",
        data.name,
        data.seq.len(),
        data.syb.n_variables(),
        data.seq.registry().len(),
    );

    let cfg = MinerConfig::new(0.25, 0.25).with_max_events(3);
    let started = std::time::Instant::now();
    let result = mine_exact(&data.seq, &cfg);
    println!(
        "\nE-HTPGM(sigma=25%, delta=25%): {} patterns in {:.1?}",
        result.len(),
        started.elapsed()
    );

    // Show the strongest multi-appliance "habit" patterns: both events On,
    // different appliances.
    let registry = data.seq.registry();
    let mut habits: Vec<&FrequentPattern> = result
        .patterns
        .iter()
        .filter(|p| {
            let evs = p.pattern.events();
            evs.iter().all(|&e| registry.label(e).ends_with("=On"))
                && evs
                    .windows(2)
                    .any(|w| registry.variable(w[0]) != registry.variable(w[1]))
        })
        .collect();
    habits.sort_by(|a, b| {
        (
            b.pattern.len(),
            b.support,
            b.confidence.total_cmp(&a.confidence),
        )
            .cmp(&(
                a.pattern.len(),
                a.support,
                a.confidence.total_cmp(&b.confidence),
            ))
    });
    println!("\ntop habit patterns (co-activations across appliances):");
    for p in habits.iter().take(10) {
        println!(
            "  {}  supp={:.0}% conf={:.0}%",
            p.pattern.display(registry),
            p.rel_support * 100.0,
            p.confidence * 100.0
        );
    }

    // Redundancy elimination and interestingness ranking: the raw output
    // is huge, but most of it is implied by longer patterns.
    let closed = closed_patterns(&result);
    let maximal = maximal_patterns(&result);
    println!(
        "\nredundancy: {} raw patterns -> {} closed -> {} maximal",
        result.len(),
        closed.len(),
        maximal.len()
    );
    println!("most surprising co-activations (by lift):");
    for (p, lift) in top_k_by_lift(&result, 5) {
        println!(
            "  lift {:>5.1}  {}  supp={:.0}%",
            lift,
            p.pattern.display(registry),
            p.rel_support * 100.0
        );
    }

    // Ablation in miniature: how much work do the prunings save?
    println!("\npruning ablation (same output, different work):");
    for (name, pruning) in [
        ("NoPrune", PruningConfig::NO_PRUNE),
        ("Apriori", PruningConfig::APRIORI),
        ("Trans  ", PruningConfig::TRANSITIVITY),
        ("All    ", PruningConfig::ALL),
    ] {
        let cfg = cfg.with_pruning(pruning);
        let started = std::time::Instant::now();
        let r = mine_exact(&data.seq, &cfg);
        println!(
            "  {name}: {:>10} instance checks, {:>4} patterns, {:.1?}",
            r.stats.instance_checks,
            r.len(),
            started.elapsed()
        );
    }
}
