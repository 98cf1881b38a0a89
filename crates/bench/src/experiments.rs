//! One function per table/figure of the paper's evaluation (Section VI),
//! plus two runs beyond it: threads scaling and output-path peak memory.
//! Each prints the same rows/series the paper reports and saves them as
//! `results/<name>.csv`, both through `Report`. Dataset sizes default
//! to a fraction of the paper's (each `repro_*` binary sets its own);
//! pass a larger scale as the first CLI argument to push towards the
//! full size.

use ftpm_core::{
    mine_exact, CollectSink, CountingSink, JsonlSink, MinePlan, MinerConfig, PatternSink,
    PruningConfig,
};
use ftpm_datagen::{dataport_like, nist_like, smartcity_like, ukdale_like, Dataset};

use crate::alloc_track::measure_peak;
use crate::util::{approximate, secs, time, Method, Opts, Report};

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
                    let approx = approximate(data, density, &cfg);
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
            let approx = approximate(data, 0.2, &cfg);
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
            let (approx, t) = time(|| approximate(data, density, &cfg));
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
/// that every thread count finds the same number of patterns. The
/// `host_cores` column says how many cores the run had: with fewer cores
/// than threads, the speedup column shows scheduling overhead, not
/// parallelism.
///
/// # Panics
///
/// Panics if a thread count finds a different number of patterns than
/// one thread.
pub fn threads_scaling(opts: &Opts) {
    println!("Threads scaling: parallel E-HTPGM (scale {})\n", opts.scale);
    let datasets = [nist_like(opts.scale), ukdale_like(opts.scale)];
    let mut report = Report::new(
        "threads",
        &["dataset", "threads", "seconds", "patterns", "speedup", "host_cores"],
    );
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
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
                host_cores.to_string(),
            ]);
        }
    }
    report.finish();
}

/// Output-path memory (extends Table VIII): peak heap of one E-HTPGM run
/// when the patterns are collected into a `MiningResult`, only counted,
/// or streamed to a JSONL writer — the sink architecture's memory story.
///
/// # Panics
///
/// Panics if the JSONL sink reports a write error, which `io::sink()`
/// never does.
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
    let plan = MinePlan::new(&data.seq, &cfg);
    // Collect: the classic MiningResult vector.
    let (n, peak) = measure_peak(|| {
        let mut sink = CollectSink::new();
        let (stats, _) = plan.run(&mut sink);
        sink.into_result(stats).len()
    });
    report.row(vec![data.name.clone(), "collect".into(), "1".into(), mb(peak), n.to_string()]);
    // Count: stats only, nothing retained.
    let (n, peak) = measure_peak(|| {
        let mut sink = CountingSink::default();
        plan.run(&mut sink);
        sink.patterns()
    });
    report.row(vec![data.name.clone(), "count".into(), "1".into(), mb(peak), n.to_string()]);
    // Stream: every pattern serialized to a JSONL writer, none retained.
    for threads in [1usize, 2] {
        let (n, peak) = measure_peak(|| {
            let mut sink = JsonlSink::new(std::io::sink(), data.seq.registry());
            plan.with_threads(threads).run(&mut sink);
            #[expect(clippy::expect_used, reason = "io::sink never fails")]
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
