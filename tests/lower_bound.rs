//! Empirical validation of Theorem 1 (the confidence lower bound): for
//! every pair of symbolic series and every frequent symbol pair, the
//! confidence observed in D_SEQ must be at least
//! `LB(σ, σ_m, n_x, μ)` where μ is the observed NMI.
//!
//! σ is instantiated as the pair's actual D_SYB support and σ_m
//! conservatively as the largest of the four supports the proof chain
//! bounds with it (the event supports in D_SYB and in D_SEQ) — LB is
//! monotonically decreasing in σ_m, so this choice only weakens the
//! bound, never fabricates it.

use ftpm::*;

/// Builds D_SYB from boolean step matrices and the matching D_SEQ.
fn build(rows: &[Vec<bool>], window: i64) -> (SymbolicDatabase, SequenceDatabase) {
    let n = rows[0].len();
    let mut syb = SymbolicDatabase::new(0, 1, n);
    for (i, row) in rows.iter().enumerate() {
        let labels = row.iter().map(|&b| if b { "On" } else { "Off" });
        syb.push(SymbolicSeries::from_labels(
            format!("V{i}"),
            Alphabet::on_off(),
            labels,
        ));
    }
    let seq = to_sequence_database(&syb, SplitConfig::new(window, 0));
    (syb, seq)
}

/// Deterministic pseudo-random boolean rows with controllable coupling:
/// row `i` copies row 0 with probability `couple`, else flips a biased
/// coin. (Plain LCG; no external RNG needed in this integration test.)
fn correlated_rows(n_rows: usize, n_steps: usize, couple: f64, seed: u64) -> Vec<Vec<bool>> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let base: Vec<bool> = (0..n_steps).map(|_| next() < 0.5).collect();
    (0..n_rows)
        .map(|i| {
            if i == 0 {
                base.clone()
            } else {
                base.iter()
                    .map(|&b| if next() < couple { b } else { next() < 0.4 })
                    .collect()
            }
        })
        .collect()
}

/// Relative support of symbol pair `(x1, y1)` in D_SYB: fraction of
/// aligned steps carrying both symbols (Eq. 12).
fn syb_pair_support(x: &SymbolicSeries, y: &SymbolicSeries, x1: SymbolId, y1: SymbolId) -> f64 {
    let hits = x
        .symbols()
        .iter()
        .zip(y.symbols())
        .filter(|(&a, &b)| a == x1 && b == y1)
        .count();
    hits as f64 / x.len() as f64
}

/// Relative support of a single event in D_SEQ: fraction of sequences
/// containing at least one instance.
fn seq_event_support(seq_db: &SequenceDatabase, event: EventId) -> f64 {
    let n = seq_db.len() as f64;
    seq_db
        .sequences()
        .iter()
        .filter(|s| s.contains_event(event))
        .count() as f64
        / n
}

fn seq_pair_support(seq_db: &SequenceDatabase, a: EventId, b: EventId) -> f64 {
    let n = seq_db.len() as f64;
    seq_db
        .sequences()
        .iter()
        .filter(|s| s.contains_event(a) && s.contains_event(b))
        .count() as f64
        / n
}

#[test]
fn theorem1_bound_holds_empirically() {
    let mut checked = 0usize;
    for seed in 1..8u64 {
        for &couple in &[0.95, 0.8, 0.6] {
            let rows = correlated_rows(4, 240, couple, seed);
            let (syb, seq_db) = build(&rows, 12);
            let reg = seq_db.registry();
            for (vi, x) in syb.iter() {
                for (vj, y) in syb.iter() {
                    if vi == vj {
                        continue;
                    }
                    let mu = normalized_mutual_information(x, y);
                    if mu <= 0.0 {
                        continue;
                    }
                    for x1 in x.alphabet().ids() {
                        for y1 in y.alphabet().ids() {
                            let sigma = syb_pair_support(x, y, x1, y1);
                            if sigma < 0.05 {
                                continue; // not frequent in D_SYB
                            }
                            let (Some(ea), Some(eb)) = (reg.get(vi, x1), reg.get(vj, y1)) else {
                                continue;
                            };
                            let sa = seq_event_support(&seq_db, ea);
                            let sb = seq_event_support(&seq_db, eb);
                            let pair = seq_pair_support(&seq_db, ea, eb);
                            if pair == 0.0 {
                                continue;
                            }
                            let conf = pair / sa.max(sb);
                            let px = x.symbol_probabilities()[x1.0 as usize];
                            let py = y.symbol_probabilities()[y1.0 as usize];
                            let sigma_m = px.max(py).max(sa).max(sb).min(1.0);
                            let lb = confidence_lower_bound(
                                sigma.min(sigma_m),
                                sigma_m,
                                x.alphabet().len(),
                                mu,
                            );
                            checked += 1;
                            assert!(
                                conf + 1e-9 >= lb,
                                "Theorem 1 violated: conf={conf:.4} < LB={lb:.4} \
                                 (sigma={sigma:.3}, sigma_m={sigma_m:.3}, mu={mu:.3}, \
                                 seed={seed}, couple={couple})"
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(
        checked > 100,
        "only {checked} pairs checked — test too weak"
    );
}

#[test]
fn bound_is_informative_for_tightly_correlated_series() {
    // For strongly coupled series the bound should be meaningfully above
    // zero (otherwise Theorem 1 would be vacuous as a pruning criterion).
    let rows = correlated_rows(2, 480, 0.98, 3);
    let (syb, _) = build(&rows, 12);
    let x = syb.series(VariableId(0));
    let y = syb.series(VariableId(1));
    let mu = normalized_mutual_information(x, y);
    assert!(mu > 0.5, "coupling should give high NMI, got {mu}");
    let lb = confidence_lower_bound(0.3, 0.55, 2, mu);
    assert!(lb > 0.05, "LB should be informative, got {lb}");
}
