//! Golden tests against the paper's worked examples: Table I (the
//! symbolic database), Table III (its conversion to D_SEQ), the Fig 4
//! HPG walkthrough (sigma = delta = 0.7 leaves 11 frequent single
//! events), and the Section V-A mutual information example
//! (I(K;T) = 0.29, NMI ≈ 0.42–0.43).

use ftpm::*;

/// Table I of the paper, verbatim: 6 appliances, 36 five-minute samples
/// from 10:00 (tick 600) to 12:55.
fn table1() -> SymbolicDatabase {
    let rows = [
        ("K", "111100011000000111000011100110011100"),
        ("T", "011100011001100111000011100110001110"),
        ("M", "000011100111011000110110011001110011"),
        ("C", "000011100110111000110110011001110011"),
        ("I", "000000000110000011000000000110001100"),
        ("B", "000000011000000000110000000110000011"),
    ];
    let mut syb = SymbolicDatabase::new(600, 5, 36);
    for (name, bits) in rows {
        let labels = bits.chars().map(|c| if c == '1' { "On" } else { "Off" });
        syb.push(SymbolicSeries::from_labels(
            name,
            Alphabet::on_off(),
            labels,
        ));
    }
    syb
}

/// The paper's 4-sequence split: windows of 9 samples (45 ticks).
fn table3() -> SequenceDatabase {
    to_sequence_database(&table1(), SplitConfig::new(45, 0))
}

#[test]
fn table1_marginals_match_paper() {
    let syb = table1();
    let k = syb.series(syb.lookup("K").unwrap());
    let t = syb.series(syb.lookup("T").unwrap());
    let pk = k.symbol_probabilities();
    let pt = t.symbol_probabilities();
    // Section V-A: p(KOn) = 17/36, p(KOff) = 19/36, p(TOn) = p(TOff) = 18/36.
    assert!((pk[1] - 17.0 / 36.0).abs() < 1e-12, "p(KOn) = {}", pk[1]);
    assert!((pk[0] - 19.0 / 36.0).abs() < 1e-12);
    assert!((pt[1] - 0.5).abs() < 1e-12);
}

#[test]
fn mutual_information_worked_example() {
    let syb = table1();
    let k = syb.series(syb.lookup("K").unwrap());
    let t = syb.series(syb.lookup("T").unwrap());
    // "Using Eq. 9, we have I(K;T) = 0.29" (natural log).
    let mi = mutual_information(k, t);
    assert!(
        (mi - 0.29).abs() < 0.01,
        "I(K;T) = {mi}, paper reports 0.29"
    );
    // "we have NMI(K;T) = 0.43 … and NMI(T;K) = 0.42". The paper rounds
    // aggressively; recomputing from its own Table I probabilities gives
    // 0.42 both ways, so accept ±0.015.
    let nmi_kt = normalized_mutual_information(k, t);
    let nmi_tk = normalized_mutual_information(t, k);
    assert!((nmi_kt - 0.425).abs() < 0.015, "NMI(K;T) = {nmi_kt}");
    assert!((nmi_tk - 0.42).abs() < 0.015, "NMI(T;K) = {nmi_tk}");
    // And the asymmetry direction matches the paper: NMI(K;T) > NMI(T;K)
    // because H(K) < H(T).
    assert!(nmi_kt > nmi_tk);
}

#[test]
fn table3_sequence_structure() {
    let seq_db = table3();
    assert_eq!(seq_db.len(), 4, "paper splits Table I into 4 sequences");
    // Sequence 1 (Table III row 1) has 16 instances:
    // K:3 T:4 M:3 C:3 I:1 B:2.
    assert_eq!(seq_db.sequences()[0].len(), 16);
    let reg = seq_db.registry();
    let k_on = reg.lookup_label("K=On").unwrap();
    let s1 = &seq_db.sequences()[0];
    assert_eq!(s1.instances_of(k_on).count(), 2, "KOn twice in sequence 1");
    // Def 3.4's example: KOn has 6 instances across the whole database.
    let total_kon: usize = seq_db
        .sequences()
        .iter()
        .map(|s| s.instances_of(k_on).count())
        .sum();
    assert_eq!(total_kon, 6);
}

#[test]
fn fig4_frequent_single_events() {
    let seq_db = table3();
    let result = mine_exact(&seq_db, &MinerConfig::new(0.7, 0.7).with_max_events(3));
    // "1Freq contains 11 frequent events … The event IOn is not frequent
    // since it only appears in sequences 2 and 4."
    assert_eq!(result.frequent_events.len(), 11);
    let reg = seq_db.registry();
    let i_on = reg.lookup_label("I=On").unwrap();
    assert!(
        !result.frequent_events.iter().any(|(e, _)| *e == i_on),
        "IOn must not be frequent"
    );
    // The KOn bitmap at L1 is [1,1,1,1]: support 4.
    let k_on = reg.lookup_label("K=On").unwrap();
    let (_, supp) = result
        .frequent_events
        .iter()
        .find(|(e, _)| *e == k_on)
        .unwrap();
    assert_eq!(*supp, 4);
}

#[test]
fn fig4_kitchen_contains_toaster() {
    // Fig 1/Fig 4's flagship relation: the kitchen's activation contains
    // the toaster's in every sequence.
    let seq_db = table3();
    let result = mine_exact(&seq_db, &MinerConfig::new(0.7, 0.7).with_max_events(2));
    let reg = seq_db.registry();
    let k_on = reg.lookup_label("K=On").unwrap();
    let t_on = reg.lookup_label("T=On").unwrap();
    let hit = result.patterns.iter().find(|p| {
        p.pattern.events() == [k_on, t_on] && p.pattern.relations() == [TemporalRelation::Contain]
    });
    let hit = hit.expect("(K=On Contain T=On) must be frequent");
    assert_eq!(hit.support, 4);
    assert!((hit.confidence - 1.0).abs() < 1e-9);
}

#[test]
fn fig5_correlation_graph_density_example() {
    // Section V-C: "The complete graph of 6 vertices has 15 edges. If we
    // set the density of the correlation graph to be 40%, then G_C will
    // have 15 × 40% = 6 edges."
    let syb = table1();
    let mu = mu_for_density(&syb, 0.4);
    let graph = CorrelationGraph::build(&syb, mu);
    assert_eq!(graph.n_vertices(), 6);
    assert!(
        graph.n_edges() >= 6,
        "40% density must keep at least 6 of 15 edges, got {}",
        graph.n_edges()
    );
    // Fig 5 shows K,T,M,C forming the correlated core (I and B are too
    // sparse). Verify K-T, K-M/C-M style edges exist among the top ones.
    let (k, t) = (syb.lookup("K").unwrap(), syb.lookup("T").unwrap());
    assert!(graph.has_edge(k, t), "K–T edge expected, as in Fig 5");
}

#[test]
fn approximate_on_paper_example_matches_exact_at_full_density() {
    let syb = table1();
    let seq_db = table3();
    let cfg = MinerConfig::new(0.7, 0.7).with_max_events(3);
    let exact = mine_exact(&seq_db, &cfg);
    // Keep every positively-correlated edge: accuracy should be perfect
    // on this tiny example because all of K,T,M,C correlate.
    let approx =
        mine_approximate(&syb, &seq_db, 1e-6, &cfg).expect("the graph is built on the same data");
    assert_eq!(approx.result.len(), exact.len());
    // And a high threshold prunes patterns but never invents them.
    let strict =
        mine_approximate(&syb, &seq_db, 0.42, &cfg).expect("the graph is built on the same data");
    assert!(strict.result.len() <= exact.len());
    let exact_keys = exact.pattern_keys();
    for p in &strict.result.patterns {
        assert!(exact_keys.contains(&p.pattern));
    }
}
