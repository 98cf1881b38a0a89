//! One function per table/figure of the paper's evaluation (Section VI).
//! Each prints the same rows/series the paper reports and writes a CSV
//! under `results/`. Dataset sizes default to a documented fraction of
//! the paper's (see DESIGN.md "Substitutions"); pass a larger scale as
//! the first CLI argument to push towards the full size.

use ftpm_core::{
    mine_approximate_with_density, mine_exact, mine_exact_parallel_with_sink,
    mine_exact_with_sink, CollectSink, CountingSink, JsonlSink, MinerConfig, PatternSink,
    PruningConfig,
};
use ftpm_datagen::{dataport_like, nist_like, smartcity_like, ukdale_like, Dataset};

use crate::alloc_track::measure_peak;
use crate::util::{secs, time, Method, Opts, Report};

fn config(sigma: f64, delta: f64, opts: &Opts) -> MinerConfig {
    MinerConfig::new(sigma, delta).with_max_events(opts.max_events)
}

/// Table V: number of extracted patterns per dataset over the
/// σ × δ ∈ {20,40,60,80}² grid.
pub fn table5(opts: &Opts) {
    println!("Table V: extracted patterns (scale {})\n", opts.scale);
    let datasets = [
        nist_like(opts.scale),
        ukdale_like(opts.scale),
        dataport_like(opts.scale),
        smartcity_like(opts.scale),
    ];
    let grid = [0.2, 0.4, 0.6, 0.8];
    let mut report = Report::new(
        "table5",
        &["dataset", "sigma%", "conf=20", "conf=40", "conf=60", "conf=80"],
    );
    for data in &datasets {
        for &sigma in &grid {
            let mut cells = vec![data.name.clone(), format!("{:.0}", sigma * 100.0)];
            for &delta in &grid {
                let result = mine_exact(&data.seq, &config(sigma, delta, opts));
                cells.push(result.len().to_string());
            }
            report.row(cells);
        }
    }
    report.finish();
}

/// Shared grid runner for Tables VII (runtime) and VIII (memory).
fn baseline_grid(opts: &Opts, measure_memory: bool) {
    let (name, unit) = if measure_memory {
        ("table8", "peak MB")
    } else {
        ("table7", "seconds")
    };
    println!(
        "Table {}: {} comparison (scale {})\n",
        if measure_memory { "VIII" } else { "VII" },
        unit,
        opts.scale
    );
    // The full smartcity-like alphabet (274 events) makes the sigma=20%
    // baseline cells take tens of minutes each, as in the paper (IEMiner
    // 1419 s); the default harness projects it to 30 variables so the
    // whole grid completes in minutes. Raise `scale`/edit here for the
    // full-size run.
    let datasets = [
        nist_like(opts.scale),
        smartcity_like(opts.scale).project_variables(30),
    ];
    let grid = [0.2, 0.5, 0.8];
    let mut report = Report::new(
        name,
        &[
            "dataset", "sigma%", "method", "conf=20", "conf=50", "conf=80",
        ],
    );
    for data in &datasets {
        for &sigma in &grid {
            for method in Method::lineup() {
                let mut cells = vec![
                    data.name.clone(),
                    format!("{:.0}", sigma * 100.0),
                    method.label(),
                ];
                for &delta in &grid {
                    let cfg = config(sigma, delta, opts);
                    if measure_memory {
                        let (_, peak) = measure_peak(|| method.run(data, &cfg));
                        cells.push(format!("{:.2}", peak as f64 / (1024.0 * 1024.0)));
                    } else {
                        let (_, elapsed) = time(|| method.run(data, &cfg));
                        cells.push(secs(elapsed));
                    }
                }
                report.row(cells);
            }
        }
    }
    report.finish();
}

/// Table VII: runtimes of the three baselines, E-HTPGM and A-HTPGM at
/// four densities, on NIST-like and SmartCity-like data.
pub fn table7(opts: &Opts) {
    baseline_grid(opts, false);
}

/// Table VIII: peak memory for the same grid (requires the harness binary
/// to install [`crate::TrackingAllocator`]).
pub fn table8(opts: &Opts) {
    baseline_grid(opts, true);
}

/// Table IX: accuracy of A-HTPGM vs the density target, over the σ × δ
/// grid.
pub fn table9(opts: &Opts) {
    println!("Table IX: A-HTPGM accuracy % (scale {})\n", opts.scale);
    let datasets = [
        nist_like(opts.scale),
        smartcity_like(opts.scale).project_variables(30),
    ];
    let sigma_grid = [0.2, 0.5, 0.8];
    let density_grid = [0.4, 0.6, 0.8, 0.9];
    let mut report = Report::new(
        "table9",
        &[
            "dataset", "sigma%", "density%", "conf=20", "conf=50", "conf=80",
        ],
    );
    for data in &datasets {
        for &sigma in &sigma_grid {
            // Mine the exact reference once per (sigma, delta) cell and
            // reuse it across all densities.
            let exacts: Vec<_> = sigma_grid
                .iter()
                .map(|&delta| mine_exact(&data.seq, &config(sigma, delta, opts)))
                .collect();
            for &density in &density_grid {
                let mut cells = vec![
                    data.name.clone(),
                    format!("{:.0}", sigma * 100.0),
                    format!("{:.0}", density * 100.0),
                ];
                for (&delta, exact) in sigma_grid.iter().zip(&exacts) {
                    let cfg = config(sigma, delta, opts);
                    let approx =
                        mine_approximate_with_density(&data.syb, &data.seq, density, &cfg);
                    let acc = approx.result.accuracy_against(exact);
                    cells.push(format!("{:.0}", acc * 100.0));
                }
                report.row(cells);
            }
        }
    }
    report.finish();
}

/// Figs 6 (NIST) and 7 (Smart City): runtimes of the four pruning
/// configurations of E-HTPGM while varying %data, confidence and support.
pub fn fig67(opts: &Opts, city: bool) {
    let (name, data) = if city {
        ("fig7", smartcity_like(opts.scale).project_variables(30))
    } else {
        ("fig6", nist_like(opts.scale))
    };
    println!(
        "Fig {}: E-HTPGM pruning ablation on {} (scale {})\n",
        if city { 7 } else { 6 },
        data.name,
        opts.scale
    );
    let variants = [
        ("NoPrune", PruningConfig::NO_PRUNE),
        ("Apriori", PruningConfig::APRIORI),
        ("Trans", PruningConfig::TRANSITIVITY),
        ("All", PruningConfig::ALL),
    ];
    let mut report = Report::new(
        name,
        &["panel", "x%", "variant", "seconds", "instance_checks"],
    );
    // Panel a: varying % of data at sigma = delta = 0.5.
    for pct in [20, 40, 60, 80, 100] {
        let sub = data.take_sequences(data.seq.len() * pct / 100);
        for (label, pruning) in variants {
            let cfg = config(0.5, 0.5, opts).with_pruning(pruning);
            let (r, elapsed) = time(|| mine_exact(&sub.seq, &cfg));
            report.row(vec![
                "a:data".into(),
                pct.to_string(),
                label.into(),
                secs(elapsed),
                r.stats.instance_checks.to_string(),
            ]);
        }
    }
    // Panel b: varying confidence at sigma = 0.5.
    for pct in [20, 40, 60, 80, 100] {
        for (label, pruning) in variants {
            let cfg = config(0.5, pct as f64 / 100.0, opts).with_pruning(pruning);
            let (r, elapsed) = time(|| mine_exact(&data.seq, &cfg));
            report.row(vec![
                "b:conf".into(),
                pct.to_string(),
                label.into(),
                secs(elapsed),
                r.stats.instance_checks.to_string(),
            ]);
        }
    }
    // Panel c: varying support at delta = 0.5.
    for pct in [20, 40, 60, 80, 100] {
        for (label, pruning) in variants {
            let cfg = config(pct as f64 / 100.0, 0.5, opts).with_pruning(pruning);
            let (r, elapsed) = time(|| mine_exact(&data.seq, &cfg));
            report.row(vec![
                "c:supp".into(),
                pct.to_string(),
                label.into(),
                secs(elapsed),
                r.stats.instance_checks.to_string(),
            ]);
        }
    }
    report.finish();
}

/// Fig 8: cumulative confidence distribution of the patterns pruned by
/// A-HTPGM at 20% density, for supports 10–40%.
pub fn fig8(opts: &Opts) {
    println!(
        "Fig 8: confidence CDF of patterns pruned by A-HTPGM (density 20%, scale {})\n",
        opts.scale
    );
    let datasets = [
        nist_like(opts.scale),
        ukdale_like(opts.scale),
        smartcity_like(opts.scale).project_variables(30),
    ];
    let mut report = Report::new(
        "fig8",
        &["dataset", "sigma%", "conf_bucket", "cumulative_probability"],
    );
    for data in &datasets {
        for sigma_pct in [10, 20, 30, 40] {
            // delta ~ 0 so the exact miner keeps even low-confidence
            // patterns: we are studying what A-HTPGM would discard.
            let cfg = MinerConfig::new(sigma_pct as f64 / 100.0, 1e-9)
                .with_max_events(opts.max_events);
            let exact = mine_exact(&data.seq, &cfg);
            let approx = mine_approximate_with_density(&data.syb, &data.seq, 0.2, &cfg);
            let kept = approx.result.pattern_keys();
            let pruned: Vec<f64> = exact
                .patterns
                .iter()
                .filter(|p| !kept.contains(&p.pattern))
                .map(|p| p.confidence)
                .collect();
            if pruned.is_empty() {
                continue;
            }
            for bucket in (10..=100).step_by(10) {
                let cutoff = bucket as f64 / 100.0;
                let cdf = pruned.iter().filter(|&&c| c <= cutoff).count() as f64
                    / pruned.len() as f64;
                report.row(vec![
                    data.name.clone(),
                    sigma_pct.to_string(),
                    bucket.to_string(),
                    format!("{cdf:.3}"),
                ]);
            }
        }
    }
    report.finish();
}

/// Fig 9: accuracy vs runtime gain of A-HTPGM as the density target
/// varies — the trade-off analysis for choosing μ.
pub fn fig9(opts: &Opts) {
    println!(
        "Fig 9: A-HTPGM accuracy / runtime-gain trade-off (scale {})\n",
        opts.scale
    );
    let datasets = [
        nist_like(opts.scale),
        ukdale_like(opts.scale),
        smartcity_like(opts.scale).project_variables(30),
    ];
    let mut report = Report::new(
        "fig9",
        &["dataset", "density%", "mu", "accuracy%", "runtime_gain%"],
    );
    for data in &datasets {
        let cfg = config(0.3, 0.3, opts);
        let (exact, exact_time) = time(|| mine_exact(&data.seq, &cfg));
        for density in [0.2, 0.4, 0.6, 0.8] {
            let (approx, t) =
                time(|| mine_approximate_with_density(&data.syb, &data.seq, density, &cfg));
            let accuracy = approx.result.accuracy_against(&exact);
            let gain = 1.0 - t.as_secs_f64() / exact_time.as_secs_f64();
            report.row(vec![
                data.name.clone(),
                format!("{:.0}", density * 100.0),
                format!("{:.3}", approx.mu),
                format!("{:.1}", accuracy * 100.0),
                format!("{:.1}", gain * 100.0),
            ]);
        }
    }
    report.finish();
}

/// Figs 10 (NIST) / 11 (Smart City): scalability in the number of
/// sequences — all five methods at σ = δ ∈ {20, 50, 80}%.
pub fn fig1011(opts: &Opts, city: bool) {
    let (name, data) = if city {
        ("fig11", smartcity_like(opts.scale).project_variables(30))
    } else {
        ("fig10", nist_like(opts.scale))
    };
    println!(
        "Fig {}: scalability in %sequences on {} (scale {})\n",
        if city { 11 } else { 10 },
        data.name,
        opts.scale
    );
    scalability(name, &data, opts, true);
}

/// Figs 12 (NIST) / 13 (Smart City): scalability in the number of
/// attributes.
pub fn fig1213(opts: &Opts, city: bool) {
    let (name, data) = if city {
        ("fig13", smartcity_like(opts.scale).project_variables(30))
    } else {
        ("fig12", nist_like(opts.scale))
    };
    println!(
        "Fig {}: scalability in %attributes on {} (scale {})\n",
        if city { 13 } else { 12 },
        data.name,
        opts.scale
    );
    scalability(name, &data, opts, false);
}

/// Threads scaling (beyond the paper): E-HTPGM wall clock and speedup as
/// the worker count grows — the `--threads` path of the CLI. Verifies
/// that the sharded miner finds the same number of patterns at every
/// thread count.
pub fn threads_scaling(opts: &Opts) {
    println!("Threads scaling: parallel E-HTPGM (scale {})\n", opts.scale);
    let datasets = [nist_like(opts.scale), ukdale_like(opts.scale)];
    let mut report = Report::new(
        "threads",
        &["dataset", "threads", "seconds", "patterns", "speedup"],
    );
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json_rows = Vec::new();
    for data in &datasets {
        let cfg = config(0.4, 0.4, opts);
        let mut base: Option<(f64, usize)> = None;
        for threads in [1usize, 2, 4, 8] {
            let (r, elapsed) = time(|| Method::EHtpgmPar(threads).run(data, &cfg));
            let (base_secs, base_patterns) =
                *base.get_or_insert((elapsed.as_secs_f64(), r.len()));
            assert_eq!(
                r.len(),
                base_patterns,
                "{}: {threads}-thread run diverged from single-threaded pattern count",
                data.name
            );
            let speedup = base_secs / elapsed.as_secs_f64();
            report.row(vec![
                data.name.clone(),
                threads.to_string(),
                secs(elapsed),
                r.len().to_string(),
                format!("{speedup:.2}"),
            ]);
            json_rows.push(format!(
                "    {{\"dataset\": \"{}\", \"threads\": {threads}, \
                 \"seconds\": {:.6}, \"patterns\": {}, \"speedup\": {speedup:.3}}}",
                data.name,
                elapsed.as_secs_f64(),
                r.len(),
            ));
        }
    }
    report.finish();

    // Machine-readable summary for archiving. `host_cores` is recorded
    // because on a single-core host the speedup column is structural
    // (shows the sharded path adds no divergence and bounded overhead),
    // not a parallelism measurement.
    let json = format!(
        "{{\n  \"experiment\": \"threads_scaling\",\n  \"scale\": {},\n  \
         \"host_cores\": {host_cores},\n  \"runs\": [\n{}\n  ]\n}}\n",
        opts.scale,
        json_rows.join(",\n"),
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/threads_scaling.json", json) {
        Ok(()) => println!("wrote results/threads_scaling.json"),
        Err(e) => eprintln!("could not write results/threads_scaling.json: {e}"),
    }
}

/// Output-path memory (extends Table VIII): peak heap of one E-HTPGM run
/// when the patterns are collected into a `MiningResult`, only counted,
/// or streamed to a JSONL writer — the sink architecture's memory story.
pub fn sink_memory(opts: &Opts) {
    println!(
        "Sink memory: collect vs count vs stream output paths (scale {})\n",
        opts.scale
    );
    let data = nist_like(opts.scale);
    let cfg = config(0.4, 0.4, opts);
    let mut report = Report::new(
        "sink_memory",
        &["dataset", "path", "threads", "peak_mb", "patterns"],
    );
    let mb = |bytes: usize| format!("{:.2}", bytes as f64 / (1024.0 * 1024.0));
    // Collect: the classic MiningResult vector.
    let (n, peak) = measure_peak(|| {
        let mut sink = CollectSink::new();
        let stats = mine_exact_with_sink(&data.seq, &cfg, &mut sink);
        sink.into_result(stats).len()
    });
    report.row(vec![data.name.clone(), "collect".into(), "1".into(), mb(peak), n.to_string()]);
    // Count: stats only, nothing retained.
    let (n, peak) = measure_peak(|| {
        let mut sink = CountingSink::default();
        mine_exact_with_sink(&data.seq, &cfg, &mut sink);
        sink.patterns()
    });
    report.row(vec![data.name.clone(), "count".into(), "1".into(), mb(peak), n.to_string()]);
    // Stream: every pattern serialized to a JSONL writer, none retained.
    for threads in [1usize, 2] {
        let (n, peak) = measure_peak(|| {
            let mut sink = JsonlSink::new(std::io::sink(), data.seq.registry());
            mine_exact_parallel_with_sink(&data.seq, &cfg, threads, &mut sink);
            sink.finish().expect("io::sink never fails");
            sink.written()
        });
        report.row(vec![
            data.name.clone(),
            "stream-jsonl".into(),
            threads.to_string(),
            mb(peak),
            n.to_string(),
        ]);
    }
    report.finish();
}

/// Boundary-artifact equivalence (beyond the paper; ROADMAP
/// "Window-boundary artifacts"): mines the energy demo once unsplit and
/// once through an overlapped split with `t_ov = t_max`, under each
/// [`ftpm_events::BoundaryPolicy`]. With `TrueExtent` the split's
/// pattern set must equal the unsplit baseline for every pattern of
/// (true) duration ≤ `t_max` — the Fig 3 overlap lemma made exact —
/// while `Clip` fabricates and loses patterns at the cuts. Writes
/// `results/boundary_equivalence.{csv,json}` and returns whether the
/// `TrueExtent` sets matched.
pub fn boundary_equivalence(opts: &Opts) -> bool {
    use ftpm_events::{to_sequence_database, BoundaryPolicy, RelationConfig, SplitConfig};

    // A handful of appliances keeps the single unsplit sequence minable
    // by the same exact miner in seconds.
    let data = nist_like(opts.scale).project_variables(8);
    let syb = &data.syb;
    let (step, n_steps) = (syb.step(), syb.n_steps());
    // Six-hour windows overlapped by t_ov = t_max = 3 h. Derive the
    // step geometry from the same rounding the split itself applies, so
    // the baseline prefix below cannot drift from it.
    let window = 6 * 60;
    let t_max = 3 * 60;
    let overlapped = SplitConfig::new(window, t_max);
    let eff = overlapped.effective(step);
    assert_eq!(
        eff.overlap, t_max,
        "t_max must survive step rounding or the lemma does not apply"
    );
    let win_steps = (eff.window / step) as usize;
    let stride_steps = (eff.stride() / step) as usize;
    assert!(n_steps >= win_steps, "scale too small for one window");
    // The split emits only full windows, so the baseline is the
    // full-window *prefix* the windows actually tile — one unsplit
    // sequence covering exactly that many steps.
    let covered_steps = ((n_steps - win_steps) / stride_steps) * stride_steps + win_steps;
    let unsplit = SplitConfig::new(covered_steps as i64 * step, 0);

    println!(
        "Boundary equivalence: {} unsplit [0, {}) vs split {} (t_max {t_max}, scale {})\n",
        data.name,
        covered_steps as i64 * step,
        overlapped,
        opts.scale
    );
    let mut report = Report::new(
        "boundary_equivalence",
        &[
            "policy", "baseline", "split", "missing", "extra", "equal",
        ],
    );
    let mut json_rows = Vec::new();
    let mut true_extent_equal = false;
    // The policy is applied at mining time, not split time, so one
    // conversion per geometry serves all three policies.
    let unsplit_db = to_sequence_database(syb, unsplit);
    let overlapped_db = to_sequence_database(syb, overlapped);
    for policy in [
        BoundaryPolicy::Clip,
        BoundaryPolicy::TrueExtent,
        BoundaryPolicy::Discard,
    ] {
        let cfg = MinerConfig::new(0.01, 0.01)
            .with_max_events(opts.max_events)
            .with_relation(RelationConfig::new(0, 1, t_max).with_boundary(policy));
        // The two conversions intern events in different orders, so raw
        // EventId-based pattern keys are not comparable across them —
        // render through each database's own registry instead.
        let labelled = |db: &ftpm_events::SequenceDatabase| {
            let result = mine_exact(db, &cfg);
            let keys: std::collections::HashSet<String> = result
                .patterns
                .iter()
                .map(|p| p.pattern.display(db.registry()).to_string())
                .collect();
            (result, keys)
        };
        let (base, base_keys) = labelled(&unsplit_db);
        let (split, split_keys) = labelled(&overlapped_db);
        let missing = base_keys.difference(&split_keys).count();
        let extra = split_keys.difference(&base_keys).count();
        let equal = missing == 0 && extra == 0;
        if policy == BoundaryPolicy::TrueExtent {
            true_extent_equal = equal;
        }
        report.row(vec![
            policy.to_string(),
            base.len().to_string(),
            split.len().to_string(),
            missing.to_string(),
            extra.to_string(),
            equal.to_string(),
        ]);
        json_rows.push(format!(
            "    {{\"policy\": \"{policy}\", \"baseline_patterns\": {}, \
             \"split_patterns\": {}, \"missing\": {missing}, \"extra\": {extra}, \
             \"equal\": {equal}}}",
            base.len(),
            split.len(),
        ));
    }
    report.finish();

    // Machine-readable summary for the CI boundary-equivalence gate.
    let json = format!(
        "{{\n  \"experiment\": \"boundary_equivalence\",\n  \"dataset\": \"{}\",\n  \
         \"window\": {window},\n  \"overlap\": {t_max},\n  \"t_max\": {t_max},\n  \
         \"scale\": {},\n  \"true_extent_equal\": {true_extent_equal},\n  \
         \"policies\": [\n{}\n  ]\n}}\n",
        data.name,
        opts.scale,
        json_rows.join(",\n"),
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/boundary_equivalence.json", json) {
        Ok(()) => println!("wrote results/boundary_equivalence.json"),
        Err(e) => eprintln!("could not write results/boundary_equivalence.json: {e}"),
    }
    true_extent_equal
}

/// Candidate-exchange pruning (beyond the paper; ROADMAP
/// "Sharding/scale"): mines the energy demo unsharded and sharded through
/// the two-phase candidate exchange, for K ∈ {2, 4}. The exchange must
/// (a) reproduce the unsharded pattern set exactly and (b) prune
/// candidates at every K — the whole point of exchanging candidates is
/// that the global σ/δ gate kills losers before the next level is
/// enumerated anywhere. Writes `results/exchange_pruning.{csv,json}`
/// (per-shard candidate counts and wall times included) and returns
/// whether both held (the CI gate).
pub fn exchange_pruning(opts: &Opts) -> bool {
    use std::collections::HashMap;

    use ftpm_core::{ShardPlanner, ShardReport};
    use ftpm_events::{BoundaryPolicy, EventRegistry, RelationConfig};

    let data = nist_like(opts.scale).project_variables(8);
    let t_max = 3 * 60;
    let cfg = MinerConfig::new(0.25, 0.25)
        .with_max_events(opts.max_events)
        .with_relation(
            RelationConfig::new(0, 1, t_max).with_boundary(BoundaryPolicy::TrueExtent),
        );
    println!(
        "Exchange pruning: {} ({} windows, {}, t_max {t_max}, scale {})\n",
        data.name,
        data.seq.len(),
        data.split,
        opts.scale
    );

    let labelled = |result: &ftpm_core::MiningResult, registry: &EventRegistry| {
        result
            .patterns
            .iter()
            .map(|p| {
                (
                    p.pattern.display(registry).to_string(),
                    (p.support, p.confidence, p.clipped_occurrences),
                )
            })
            .collect::<HashMap<String, (usize, f64, usize)>>()
    };
    let (base, base_secs) = time(|| mine_exact(&data.seq, &cfg));
    let base_map = labelled(&base, data.seq.registry());

    let mut report = Report::new(
        "exchange_pruning",
        &[
            "shards", "mode", "candidates", "pruned", "patterns", "missing", "extra",
            "seconds", "equal",
        ],
    );
    report.row(vec![
        "1".into(),
        "unsharded".into(),
        base.stats.patterns_found.iter().sum::<usize>().to_string(),
        "0".into(),
        base.len().to_string(),
        "0".into(),
        "0".into(),
        secs(base_secs),
        "true".into(),
    ]);
    let shard_rows_json = |reports: &[ShardReport]| {
        reports
            .iter()
            .map(|r| {
                format!(
                    "        {{\"shard\": {}, \"windows_owned\": {}, \
                     \"candidates_proposed\": {}, \"candidates_pruned\": {}, \
                     \"wall_ms\": {}}}",
                    r.shard,
                    r.windows_owned,
                    r.candidates_proposed,
                    r.candidates_pruned,
                    r.wall.as_millis()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };

    let mut json_rows = Vec::new();
    let mut exchange_equal = true;
    let mut exchange_prunes = true;
    for k in [2usize, 4] {
        let plan = ShardPlanner::new(k)
            .plan(&data.syb, data.split, t_max)
            .expect("valid shard geometry");
        let ((result, reports), elapsed) = time(|| plan.mine_exchange(&cfg, 1));
        let candidates: usize = reports.iter().map(|r| r.candidates_proposed).sum();
        let pruned: usize = reports.iter().map(|r| r.candidates_pruned).sum();
        if pruned == 0 {
            exchange_prunes = false;
        }
        let merged_map = labelled(&result, plan.registry());
        let missing = base_map.keys().filter(|l| !merged_map.contains_key(*l)).count();
        let extra = merged_map.keys().filter(|l| !base_map.contains_key(*l)).count();
        let stat_mismatches = base_map
            .iter()
            .filter(|(label, (supp, conf, clipped))| {
                merged_map.get(*label).is_some_and(|(s, c, cl)| {
                    s != supp || (c - conf).abs() >= 1e-9 || cl != clipped
                })
            })
            .count();
        let equal = missing == 0 && extra == 0 && stat_mismatches == 0;
        exchange_equal &= equal;
        report.row(vec![
            k.to_string(),
            "exchange".into(),
            candidates.to_string(),
            pruned.to_string(),
            result.len().to_string(),
            missing.to_string(),
            extra.to_string(),
            secs(elapsed),
            equal.to_string(),
        ]);
        json_rows.push(format!(
            "    {{\"shards\": {k}, \"mode\": \"exchange\", \
             \"candidates_proposed\": {candidates}, \"candidates_pruned\": {pruned}, \
             \"patterns\": {}, \"missing\": {missing}, \"extra\": {extra}, \
             \"stat_mismatches\": {stat_mismatches}, \"equal\": {equal}, \
             \"seconds\": {}, \"shard_reports\": [\n{}\n    ]}}",
            result.len(),
            elapsed.as_secs_f64(),
            shard_rows_json(&reports),
        ));
    }
    report.finish();

    // Machine-readable summary for the CI exchange-pruning gate.
    let json = format!(
        "{{\n  \"experiment\": \"exchange_pruning\",\n  \"dataset\": \"{}\",\n  \
         \"windows\": {},\n  \"t_ov\": {t_max},\n  \"t_max\": {t_max},\n  \
         \"boundary\": \"true-extent\",\n  \"scale\": {},\n  \
         \"unsharded_candidates\": {},\n  \
         \"exchange_equal\": {exchange_equal},\n  \
         \"exchange_prunes\": {exchange_prunes},\n  \"runs\": [\n{}\n  ]\n}}\n",
        data.name,
        data.seq.len(),
        opts.scale,
        base.stats.patterns_found.iter().sum::<usize>(),
        json_rows.join(",\n"),
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/exchange_pruning.json", json) {
        Ok(()) => println!("wrote results/exchange_pruning.json"),
        Err(e) => eprintln!("could not write results/exchange_pruning.json: {e}"),
    }
    exchange_equal && exchange_prunes
}

/// A-HTPGM composition gate on the energy demo (beyond the paper;
/// ROADMAP "One mining plan"): one correlation graph (density 0.8),
/// every execution composition — parallel, sharded candidate-exchange,
/// threads × shards — must reproduce the
/// unsharded single-threaded `mine_approximate` pattern set exactly,
/// and MI-at-propose must generate strictly fewer exchange candidates
/// than the exact exchange it post-hoc-filters to. Writes
/// `results/approx_composition.{csv,json}` and returns whether both the
/// equality and the pruning held (the CI gate).
pub fn approx_composition(opts: &Opts) -> bool {
    use std::collections::HashMap;

    use ftpm_core::{mine_approximate_parallel, ShardPlanner};
    use ftpm_events::{BoundaryPolicy, EventRegistry, RelationConfig};
    use ftpm_mi::CorrelationGraph;

    const DENSITY: f64 = 0.8;
    let data = nist_like(opts.scale).project_variables(8);
    let t_max = 3 * 60;
    let cfg = MinerConfig::new(0.25, 0.25)
        .with_max_events(opts.max_events)
        .with_relation(
            RelationConfig::new(0, 1, t_max).with_boundary(BoundaryPolicy::TrueExtent),
        );
    println!(
        "A-HTPGM composition: {} ({} windows, {}, density {DENSITY}, t_max {t_max}, scale {})\n",
        data.name,
        data.seq.len(),
        data.split,
        opts.scale
    );

    let labelled = |result: &ftpm_core::MiningResult, registry: &EventRegistry| {
        result
            .patterns
            .iter()
            .map(|p| {
                (
                    p.pattern.display(registry).to_string(),
                    (p.support, p.confidence, p.clipped_occurrences),
                )
            })
            .collect::<HashMap<String, (usize, f64, usize)>>()
    };

    // The baseline the acceptance contract names: unsharded,
    // single-threaded A-HTPGM via the density parameterization.
    let (base, base_secs) =
        time(|| mine_approximate_with_density(&data.syb, &data.seq, DENSITY, &cfg));
    let base_map = labelled(&base.result, data.seq.registry());

    // The one graph every composition below shares — same μ as the
    // baseline resolved to, asserted rather than assumed.
    let graph = CorrelationGraph::build_with_density(&data.syb, DENSITY);
    let mut approx_equal = (graph.mu() - base.mu).abs() < 1e-12;

    let mut report = Report::new(
        "approx_composition",
        &[
            "mode", "threads", "shards", "candidates", "patterns", "missing", "extra",
            "seconds", "equal",
        ],
    );
    report.row(vec![
        "sequential".into(),
        "1".into(),
        "1".into(),
        "-".into(),
        base.result.len().to_string(),
        "0".into(),
        "0".into(),
        secs(base_secs),
        "true".into(),
    ]);

    let mut json_rows = Vec::new();
    let mut check = |mode: &str,
                     threads: usize,
                     shards: usize,
                     candidates: Option<usize>,
                     result: &ftpm_core::MiningResult,
                     registry: &EventRegistry,
                     elapsed: std::time::Duration|
     -> bool {
        let map = labelled(result, registry);
        let missing = base_map.keys().filter(|l| !map.contains_key(*l)).count();
        let extra = map.keys().filter(|l| !base_map.contains_key(*l)).count();
        let stat_mismatches = base_map
            .iter()
            .filter(|(label, (supp, conf, clipped))| {
                map.get(*label).is_some_and(|(s, c, cl)| {
                    s != supp || (c - conf).abs() >= 1e-9 || cl != clipped
                })
            })
            .count();
        let equal = missing == 0 && extra == 0 && stat_mismatches == 0;
        report.row(vec![
            mode.into(),
            threads.to_string(),
            shards.to_string(),
            candidates.map_or("-".into(), |c| c.to_string()),
            result.len().to_string(),
            missing.to_string(),
            extra.to_string(),
            secs(elapsed),
            equal.to_string(),
        ]);
        json_rows.push(format!(
            "    {{\"mode\": \"{mode}\", \"threads\": {threads}, \"shards\": {shards}, \
             \"candidates_proposed\": {}, \"patterns\": {}, \"missing\": {missing}, \
             \"extra\": {extra}, \"stat_mismatches\": {stat_mismatches}, \
             \"equal\": {equal}, \"seconds\": {}}}",
            candidates.map_or("null".into(), |c| c.to_string()),
            result.len(),
            elapsed.as_secs_f64(),
        ));
        equal
    };

    let (par, par_secs) =
        time(|| mine_approximate_parallel(&data.syb, &data.seq, graph.mu(), &cfg, 4));
    approx_equal &= check(
        "parallel",
        4,
        1,
        None,
        &par.result,
        data.seq.registry(),
        par_secs,
    );

    let plan = ShardPlanner::new(4)
        .plan(&data.syb, data.split, t_max)
        .expect("valid shard geometry");
    let ((approx_result, approx_reports), elapsed) =
        time(|| plan.mine_approximate_exchange(&graph, &cfg, 4));
    let approx_candidates: usize =
        approx_reports.iter().map(|r| r.candidates_proposed).sum();
    approx_equal &= check(
        "sharded exchange",
        4,
        plan.shards().len(),
        Some(approx_candidates),
        &approx_result,
        plan.registry(),
        elapsed,
    );

    // The pruning claim: the exact exchange on the same plan enumerates
    // every pair MI would have rejected, so gating at propose time must
    // come in strictly under it.
    let ((_, exact_reports), _) = time(|| plan.mine_exchange(&cfg, 4));
    let exact_candidates: usize = exact_reports.iter().map(|r| r.candidates_proposed).sum();
    let propose_prunes = approx_candidates < exact_candidates;
    println!(
        "\nexchange candidates: {approx_candidates} with MI at propose time, \
         {exact_candidates} exact (post-hoc baseline) — pruning {}",
        if propose_prunes { "held" } else { "FAILED" }
    );
    report.finish();

    // Machine-readable summary for the CI approx-composition gate.
    let json = format!(
        "{{\n  \"experiment\": \"approx_composition\",\n  \"dataset\": \"{}\",\n  \
         \"windows\": {},\n  \"density\": {DENSITY},\n  \"mu\": {},\n  \
         \"t_max\": {t_max},\n  \"boundary\": \"true-extent\",\n  \"scale\": {},\n  \
         \"baseline_patterns\": {},\n  \
         \"approx_exchange_candidates\": {approx_candidates},\n  \
         \"exact_exchange_candidates\": {exact_candidates},\n  \
         \"approx_equal\": {approx_equal},\n  \
         \"propose_prunes\": {propose_prunes},\n  \"runs\": [\n{}\n  ]\n}}\n",
        data.name,
        data.seq.len(),
        graph.mu(),
        opts.scale,
        base.result.len(),
        json_rows.join(",\n"),
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/approx_composition.json", json) {
        Ok(()) => println!("wrote results/approx_composition.json"),
        Err(e) => eprintln!("could not write results/approx_composition.json: {e}"),
    }
    approx_equal && propose_prunes
}

/// Hot-path kernel speedup (beyond the paper; ROADMAP "Kernelize the hot
/// path"): times the block-unrolled CSA `Bitmap::and_count` kernel
/// against the retained scalar reference (`and_count_scalar`) at
/// L1-resident and cache-straddling operand sizes, the fused
/// `and_count_many` batch against the equivalent per-pair loop on
/// support bitmaps built from the energy demo itself, and one
/// end-to-end exact mine of the demo through the kernelized path.
///
/// The scalar "before" survives only as the bench/proptest reference —
/// the miner cannot be toggled back at runtime — so the microbenches
/// carry the before/after story and the end-to-end row pins the absolute
/// wall clock CI tracks across runs. All timings are best-of-N over
/// millisecond-scale samples: the CI container is a single shared core
/// with ±10% noise, and the minimum is the stable estimator there.
/// Writes `results/kernel_speedup.{csv,json}` and returns whether
/// `and_count` beat the scalar reference by ≥ 1.5× at any measured size
/// (the CI gate; the CSA kernel's design point is the ≥ 1024-word range).
pub fn kernel_speedup(opts: &Opts) -> bool {
    use std::collections::HashMap;
    use std::hint::black_box;
    use std::time::Instant;

    use ftpm_bitmap::Bitmap;
    use ftpm_events::EventId;

    const SAMPLES: usize = 9;
    /// u64 words touched per timed sample — keeps every sample around a
    /// millisecond so the best-of-N minimum is meaningful.
    const WORDS_PER_SAMPLE: usize = 1 << 22;

    println!("Kernel speedup: and_count / and_count_many (scale {})\n", opts.scale);

    // Best-of-N ns/call for a closure returning a count (black_boxed so
    // the intersection is not hoisted or dead-code-eliminated).
    let best_ns = |iters: usize, f: &mut dyn FnMut() -> usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..SAMPLES {
            let mut sink = 0usize;
            let started = Instant::now();
            for _ in 0..iters {
                sink = sink.wrapping_add(black_box(f()));
            }
            let elapsed = started.elapsed().as_secs_f64();
            black_box(sink);
            best = best.min(elapsed);
        }
        best / iters as f64 * 1e9
    };

    // Deterministic ~50%-density operands (splitmix64 bit soup — the
    // worst case for popcount shortcuts, so the speedup is the kernel's,
    // not the data's).
    let random_bitmap = |words: usize, seed: u64| -> Bitmap {
        let mut bm = Bitmap::new(words * 64);
        let mut state = seed;
        for w in 0..words {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            for b in 0..64 {
                if (z >> b) & 1 == 1 {
                    bm.set(w * 64 + b);
                }
            }
        }
        bm
    };

    let mut report = Report::new(
        "kernel_speedup",
        &["benchmark", "size", "baseline", "kernelized", "speedup"],
    );
    let mut json_rows = Vec::new();
    let mut best_speedup = 0.0f64;

    // 1. and_count: scalar reference vs the CSA kernel, at one
    //    L1-resident size and two that straddle L1/L2.
    for words in [256usize, 1024, 4096] {
        let a = random_bitmap(words, 0x0dd0_11ed + words as u64);
        let b = random_bitmap(words, 0xface_feed + words as u64);
        let iters = (WORDS_PER_SAMPLE / words).max(16);
        let scalar_ns = best_ns(iters, &mut || a.and_count_scalar(&b));
        let kernel_ns = best_ns(iters, &mut || a.and_count(&b));
        let speedup = scalar_ns / kernel_ns;
        best_speedup = best_speedup.max(speedup);
        report.row(vec![
            "and_count".into(),
            format!("{words} w"),
            format!("{scalar_ns:.0} ns"),
            format!("{kernel_ns:.0} ns"),
            format!("{speedup:.2}x"),
        ]);
        json_rows.push(format!(
            "    {{\"benchmark\": \"and_count\", \"words\": {words}, \
             \"scalar_ns\": {scalar_ns:.1}, \"kernel_ns\": {kernel_ns:.1}, \
             \"speedup\": {speedup:.3}}}"
        ));
    }
    let and_count_ok = best_speedup >= 1.5;

    // 2. and_count_many: the grow-candidates batch (one candidate bitmap
    //    intersected with every Lemma-5 survivor) vs the per-pair loop it
    //    replaced — once at the CSA kernel's design size with synthetic
    //    operands, once on the demo's real per-event support bitmaps
    //    (tiny universes, where the batch must at least not regress).
    let mut fused_bench = |label: &str, candidate: &Bitmap, partners: &[&Bitmap]| {
        let words = candidate.len().div_ceil(64);
        let words_touched = partners.len() * words;
        let iters = (WORDS_PER_SAMPLE / words_touched.max(1)).max(16);
        let mut counts = Vec::new();
        let pairwise_ns = best_ns(iters, &mut || {
            partners.iter().map(|p| candidate.and_count(p)).sum()
        });
        let fused_ns = best_ns(iters, &mut || {
            candidate.and_count_many(partners, &mut counts);
            counts.iter().sum()
        });
        let speedup = pairwise_ns / fused_ns;
        report.row(vec![
            "and_count_many".into(),
            format!("{label} {}x{words} w", partners.len()),
            format!("{pairwise_ns:.0} ns"),
            format!("{fused_ns:.0} ns"),
            format!("{speedup:.2}x"),
        ]);
        json_rows.push(format!(
            "    {{\"benchmark\": \"and_count_many\", \"operands\": \"{label}\", \
             \"partners\": {}, \"words\": {words}, \"pairwise_ns\": {pairwise_ns:.1}, \
             \"fused_ns\": {fused_ns:.1}, \"speedup\": {speedup:.3}}}",
            partners.len(),
        ));
    };
    {
        let candidate = random_bitmap(1024, 0xc0ffee);
        let partner_bitmaps: Vec<Bitmap> = (0..8)
            .map(|i| random_bitmap(1024, 0xbeef + i as u64))
            .collect();
        let partners: Vec<&Bitmap> = partner_bitmaps.iter().collect();
        fused_bench("synthetic", &candidate, &partners);
    }
    let data = nist_like(opts.scale);
    let n_seqs = data.seq.len();
    let mut by_event: HashMap<EventId, Bitmap> = HashMap::new();
    for (si, seq) in data.seq.sequences().iter().enumerate() {
        for inst in seq.instances() {
            by_event
                .entry(inst.event)
                .or_insert_with(|| Bitmap::new(n_seqs))
                .set(si);
        }
    }
    let mut supports: Vec<Bitmap> = by_event.into_values().collect();
    supports.sort_by_key(|b| std::cmp::Reverse(b.count_ones()));
    if supports.len() >= 3 {
        let partners: Vec<&Bitmap> = supports[1..].iter().collect();
        fused_bench("demo", &supports[0], &partners);
    }

    // 3. End to end: one exact mine of the demo through the kernelized
    //    verify path — the absolute number CI archives run over run.
    let cfg = config(0.4, 0.4, opts);
    let (result, elapsed) = time(|| mine_exact(&data.seq, &cfg));
    report.row(vec![
        "mine_exact".into(),
        format!("{} windows", n_seqs),
        "-".into(),
        format!("{} s", secs(elapsed)),
        "-".into(),
    ]);
    report.finish();

    // Machine-readable summary for the CI kernel-speedup gate.
    let json = format!(
        "{{\n  \"experiment\": \"kernel_speedup\",\n  \"dataset\": \"{}\",\n  \
         \"scale\": {},\n  \"samples\": {SAMPLES},\n  \
         \"and_count_best_speedup\": {best_speedup:.3},\n  \
         \"and_count_speedup_ok\": {and_count_ok},\n  \
         \"end_to_end\": {{\"sigma\": 0.4, \"delta\": 0.4, \
         \"seconds\": {:.6}, \"patterns\": {}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        data.name,
        opts.scale,
        elapsed.as_secs_f64(),
        result.len(),
        json_rows.join(",\n"),
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/kernel_speedup.json", json) {
        Ok(()) => println!("wrote results/kernel_speedup.json"),
        Err(e) => eprintln!("could not write results/kernel_speedup.json: {e}"),
    }
    and_count_ok
}

/// Hash-consed pattern-pool speedup gate (beyond the paper; ROADMAP
/// "hash-consed pattern pool"): A/B of the merge accumulation hot path —
/// the retired pattern-keyed design (clone every emitted [`Pattern`]
/// into a `HashMap<Pattern, stats>`, re-hashing the full event/relation
/// vectors per emission) against the pooled design that interns each
/// pattern once and accumulates in flat columns indexed by `PatternId`.
///
/// The A side survives only inside this benchmark — the miner cannot be
/// toggled back — so the microbench carries the before/after story; the
/// end-to-end row pins the absolute exchange wall clock CI tracks across
/// runs. Timings are best-of-N minima (single shared CI core);
/// allocation counts come from the tracking allocator and are exact.
/// Writes `results/intern_speedup.{csv,json}` and returns whether the
/// pooled path beat the pattern-keyed path ≥ 1.3× on accumulation wall
/// time, or cut its allocation count ≥ 5× (the CI gate — the allocation
/// arm keeps the gate meaningful on a noisy one-core container).
pub fn intern_speedup(opts: &Opts) -> bool {
    use std::collections::HashMap;
    use std::hint::black_box;
    use std::time::Instant;

    use ftpm_core::{Pattern, PatternPool, ShardPlanner};

    use crate::alloc_track::measure_allocs;

    const SAMPLES: usize = 9;
    /// Simulated shard count: each distinct pattern is emitted once per
    /// "shard", as the merge seam sees it in a sharded run.
    const SHARDS: usize = 4;

    println!(
        "Pattern-pool intern speedup: pattern-keyed vs id-keyed merge \
         accumulation (scale {})\n",
        opts.scale
    );

    // The workload: the real pattern set of the nist demo, emitted
    // SHARDS times into the accumulator (what ShardMerge sees).
    let data = nist_like(opts.scale);
    let cfg = config(0.4, 0.4, opts);
    let result = mine_exact(&data.seq, &cfg);
    let patterns: Vec<Pattern> = result.patterns.iter().map(|p| p.pattern.clone()).collect();
    let n_roots = data.seq.registry().len();

    // A: the retired design — owned-Pattern keys, one clone + one
    // whole-vector hash per emission.
    let keyed = || {
        let mut map: HashMap<Pattern, (usize, usize)> = HashMap::new();
        for _ in 0..SHARDS {
            for p in &patterns {
                let entry = map.entry(p.clone()).or_insert((0, 0));
                entry.0 += 1;
            }
        }
        map.len()
    };
    // B: the pooled design — intern once, accumulate by u32 id.
    let pooled = || {
        let mut pool = PatternPool::with_roots(n_roots);
        let mut entries: Vec<(usize, usize)> = Vec::new();
        for _ in 0..SHARDS {
            for p in &patterns {
                let id = pool.intern(p);
                if entries.len() <= id.0 as usize {
                    entries.resize(pool.len(), (0, 0));
                }
                entries[id.0 as usize].0 += 1;
            }
        }
        entries.iter().filter(|e| e.0 > 0).count()
    };

    let best_s = |f: &mut dyn FnMut() -> usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..SAMPLES {
            let started = Instant::now();
            let out = black_box(f());
            let elapsed = started.elapsed().as_secs_f64();
            black_box(out);
            best = best.min(elapsed);
        }
        best
    };

    let emissions = SHARDS * patterns.len();
    let mut keyed_run = keyed;
    let mut pooled_run = pooled;
    let keyed_s = best_s(&mut keyed_run);
    let pooled_s = best_s(&mut pooled_run);
    let speedup = keyed_s / pooled_s;
    let (_, keyed_allocs) = measure_allocs(keyed);
    let (_, pooled_allocs) = measure_allocs(pooled);
    let alloc_ratio = keyed_allocs as f64 / pooled_allocs.max(1) as f64;

    let mut report = Report::new(
        "intern_speedup",
        &["benchmark", "size", "pattern-keyed", "pooled", "improvement"],
    );
    report.row(vec![
        "accumulate".into(),
        format!("{emissions} emissions"),
        format!("{:.0} ns/em", keyed_s / emissions.max(1) as f64 * 1e9),
        format!("{:.0} ns/em", pooled_s / emissions.max(1) as f64 * 1e9),
        format!("{speedup:.2}x"),
    ]);
    report.row(vec![
        "allocations".into(),
        format!("{emissions} emissions"),
        format!("{keyed_allocs}"),
        format!("{pooled_allocs}"),
        format!("{alloc_ratio:.1}x fewer"),
    ]);

    // End to end: the exchange run of the same demo — the path whose
    // inner loops the pool rewired. Absolute wall clock only; CI archives
    // it run over run.
    let plan = ShardPlanner::new(4)
        .plan(&data.syb, data.split, cfg.relation.t_max)
        .expect("demo geometry shards cleanly");
    let (exchange_out, exchange_wall) = time(|| plan.mine_exchange(&cfg, 1));
    report.row(vec![
        "mine_exchange".into(),
        format!("{} windows, 4 shards", plan.n_windows()),
        "-".into(),
        format!("{} s", secs(exchange_wall)),
        "-".into(),
    ]);
    report.finish();
    assert_eq!(
        exchange_out.0.len(),
        result.len(),
        "the exchange must find the unsharded pattern set on the demo"
    );

    let ok = speedup >= 1.3 || alloc_ratio >= 5.0;
    let json = format!(
        "{{\n  \"experiment\": \"intern_speedup\",\n  \"dataset\": \"{}\",\n  \
         \"scale\": {},\n  \"samples\": {SAMPLES},\n  \"shards\": {SHARDS},\n  \
         \"patterns\": {},\n  \"emissions\": {emissions},\n  \
         \"keyed_s\": {keyed_s:.6},\n  \"pooled_s\": {pooled_s:.6},\n  \
         \"accumulate_speedup\": {speedup:.3},\n  \
         \"keyed_allocs\": {keyed_allocs},\n  \"pooled_allocs\": {pooled_allocs},\n  \
         \"alloc_ratio\": {alloc_ratio:.3},\n  \
         \"exchange_wall_ms\": {:.3},\n  \
         \"intern_speedup_ok\": {ok}\n}}\n",
        data.name,
        opts.scale,
        patterns.len(),
        exchange_wall.as_secs_f64() * 1e3,
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/intern_speedup.json", json) {
        Ok(()) => println!("wrote results/intern_speedup.json"),
        Err(e) => eprintln!("could not write results/intern_speedup.json: {e}"),
    }
    ok
}

fn scalability(name: &str, data: &Dataset, opts: &Opts, by_sequences: bool) {
    let methods = [
        Method::AHtpgm(0.6),
        Method::EHtpgm,
        Method::TPMiner,
        Method::IEMiner,
        Method::HDfs,
    ];
    let mut report = Report::new(
        name,
        &["setting", "x%", "method", "seconds", "patterns"],
    );
    for sd in [0.2, 0.5, 0.8] {
        let cfg = config(sd, sd, opts);
        for pct in [20, 40, 60, 80, 100] {
            let sub = if by_sequences {
                data.take_sequences(data.seq.len() * pct / 100)
            } else {
                data.project_variables(data.syb.n_variables() * pct / 100)
            };
            for method in methods {
                let (r, elapsed) = time(|| method.run(&sub, &cfg));
                report.row(vec![
                    format!("supp=conf={:.0}%", sd * 100.0),
                    pct.to_string(),
                    method.label(),
                    secs(elapsed),
                    r.len().to_string(),
                ]);
            }
        }
    }
    report.finish();
}

/// Systematic schedule sweep (beyond the paper; ROADMAP "deterministic
/// schedule checking"): [`ftpm_core::Explorer`] walks *every* two-worker
/// interleaving of the parallel miner and of the candidate-exchange
/// executor on a small on/off workload — each run's output must be
/// bit-identical to the single-threaded baseline — then every
/// at-most-one-preemption interleaving at four workers (the regime
/// scheduler bugs live in; K = 4 is too wide to exhaust outright).
/// Writes `results/schedule_sweep.{csv,json}` and returns whether every
/// sweep was exhaustive, uncapped and divergence-free (the CI gate).
pub fn schedule_sweep() -> bool {
    use std::collections::HashMap;

    use ftpm_core::{ExploreStats, Explorer, MiningResult, Schedule, ShardPlanner};
    use ftpm_events::{
        to_sequence_database, BoundaryPolicy, EventRegistry, RelationConfig, SplitConfig,
    };
    use ftpm_timeseries::{Alphabet, SymbolId, SymbolicDatabase, SymbolicSeries};

    // Deterministic pseudo-random on/off database (xorshift64*), the
    // generator idiom of the schedule-invariance tests. The workload must
    // stay tiny: the interleaving space is exponential in the number of
    // contended task claims, and the whole point is to exhaust it.
    fn random_syb(seed: u64, vars: usize, n_steps: usize, max_run: u64) -> SymbolicDatabase {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545f4914f6cdd1d)
        };
        let mut db = SymbolicDatabase::new(0, 5, n_steps);
        for v in 0..vars {
            let mut symbols = Vec::with_capacity(n_steps);
            let mut sym = SymbolId((next() % 2) as u16);
            while symbols.len() < n_steps {
                let run = 1 + (next() % max_run) as usize;
                for _ in 0..run.min(n_steps - symbols.len()) {
                    symbols.push(sym);
                }
                sym = SymbolId(1 - sym.0);
            }
            db.push(SymbolicSeries::new(
                format!("V{v}"),
                Alphabet::on_off(),
                symbols,
            ));
        }
        db
    }

    type Labelled = HashMap<String, (usize, f64, usize)>;
    fn labelled(result: &MiningResult, reg: &EventRegistry) -> Labelled {
        result
            .patterns
            .iter()
            .map(|p| {
                (
                    p.pattern.display(reg).to_string(),
                    (p.support, p.confidence, p.clipped_occurrences),
                )
            })
            .collect()
    }
    fn divergence(base: &Labelled, other: &Labelled) -> Option<String> {
        for (label, (supp, conf, clipped)) in base {
            match other.get(label) {
                None => return Some(format!("lost pattern {label}")),
                Some((s, c, cl)) => {
                    if s != supp || (c - conf).abs() >= 1e-9 || cl != clipped {
                        return Some(format!("stats diverged on {label}"));
                    }
                }
            }
        }
        if base.len() != other.len() {
            return Some(format!(
                "fabricated patterns: {} vs baseline {}",
                other.len(),
                base.len()
            ));
        }
        None
    }

    let cfg = MinerConfig::new(0.3, 0.4)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, 60).with_boundary(BoundaryPolicy::TrueExtent));
    println!("Schedule sweep: systematic interleaving exploration (mini-loom)\n");

    let mut report = Report::new(
        "schedule_sweep",
        &[
            "sweep", "workers", "preemption_bound", "schedules", "distinct_traces",
            "max_decisions", "exhausted", "capped", "equal", "seconds",
        ],
    );
    let mut json_rows = Vec::new();
    let mut all_ok = true;
    let mut record = |name: &str,
                      workers: usize,
                      bound: Option<usize>,
                      outcome: Result<ExploreStats, String>,
                      elapsed: std::time::Duration| {
        let bound_cell = bound.map_or("none".to_owned(), |b| b.to_string());
        let bound_json = bound.map_or("null".to_owned(), |b| b.to_string());
        let (stats, equal) = match outcome {
            Ok(stats) => (stats, true),
            Err(why) => {
                eprintln!("schedule sweep {name}: {why}");
                (
                    ExploreStats {
                        schedules: 0,
                        distinct_traces: 0,
                        max_decisions: 0,
                        exhausted: false,
                        capped: false,
                    },
                    false,
                )
            }
        };
        let ok = equal && stats.exhausted && !stats.capped;
        all_ok = all_ok && ok;
        report.row(vec![
            name.to_owned(),
            workers.to_string(),
            bound_cell,
            stats.schedules.to_string(),
            stats.distinct_traces.to_string(),
            stats.max_decisions.to_string(),
            stats.exhausted.to_string(),
            stats.capped.to_string(),
            equal.to_string(),
            secs(elapsed),
        ]);
        json_rows.push(format!(
            "    {{\"sweep\": \"{name}\", \"workers\": {workers}, \
             \"preemption_bound\": {bound_json}, \"schedules\": {}, \
             \"distinct_traces\": {}, \"max_decisions\": {}, \
             \"exhausted\": {}, \"capped\": {}, \"equal\": {equal}}}",
            stats.schedules, stats.distinct_traces, stats.max_decisions,
            stats.exhausted, stats.capped,
        ));
    };

    // Sweep 1: every 2-worker interleaving of the parallel miner.
    let syb = random_syb(42, 2, 60, 5);
    let seq = to_sequence_database(&syb, SplitConfig::new(30, 0));
    let base = labelled(&mine_exact(&seq, &cfg), seq.registry());
    let (outcome, elapsed) = time(|| {
        Explorer::new(2).with_max_schedules(50_000).explore(|sched: &Schedule| {
            let run = sched.mine_parallel(&seq, &cfg);
            match divergence(&base, &labelled(&run, seq.registry())) {
                None => Ok(()),
                Some(d) => Err(format!("parallel trace {:?}: {d}", sched.trace())),
            }
        })
    });
    record("parallel", 2, None, outcome, elapsed);

    // Sweep 2: every 2-worker interleaving of the exchange executor's
    // propose -> gate -> expand rounds across 2 shards.
    let syb_x = random_syb(7, 2, 100, 6);
    let split = SplitConfig::new(50, 0);
    let seq_x = to_sequence_database(&syb_x, split);
    let base_x = labelled(&mine_exact(&seq_x, &cfg), seq_x.registry());
    let plan = ShardPlanner::new(2)
        .plan(&syb_x, split, cfg.relation.t_max)
        .expect("valid shard geometry");
    let (outcome, elapsed) = time(|| {
        Explorer::new(2).with_max_schedules(50_000).explore(|sched: &Schedule| {
            let (run, _) = sched.mine_exchange(&plan, &cfg);
            match divergence(&base_x, &labelled(&run, plan.registry())) {
                None => Ok(()),
                Some(d) => Err(format!("exchange trace {:?}: {d}", sched.trace())),
            }
        })
    });
    record("exchange", 2, None, outcome, elapsed);

    // Sweep 3: 4 workers under a preemption bound of 1 — exhaustive
    // *within the bound*.
    let (outcome, elapsed) = time(|| {
        Explorer::new(4)
            .with_preemption_bound(1)
            .with_max_schedules(50_000)
            .explore(|sched: &Schedule| {
                let run = sched.mine_parallel(&seq, &cfg);
                match divergence(&base, &labelled(&run, seq.registry())) {
                    None => Ok(()),
                    Some(d) => Err(format!("bounded trace {:?}: {d}", sched.trace())),
                }
            })
    });
    record("parallel_bounded", 4, Some(1), outcome, elapsed);

    report.finish();

    // Machine-readable summary for the CI schedule-sweep gate.
    let json = format!(
        "{{\n  \"experiment\": \"schedule_sweep\",\n  \
         \"explorer\": \"dfs, symmetry-reduced, state-hash deduplicated\",\n  \
         \"schedule_sweep_ok\": {all_ok},\n  \"sweeps\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
    );
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/schedule_sweep.json", json) {
        Ok(()) => println!("wrote results/schedule_sweep.json"),
        Err(e) => eprintln!("could not write results/schedule_sweep.json: {e}"),
    }
    all_ok
}
