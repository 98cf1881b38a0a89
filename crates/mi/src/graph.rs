use ftpm_bitmap::Bitmap;
use ftpm_timeseries::{SymbolicDatabase, SymbolicSeries, VariableId};

use crate::info::{entropy, joint_counts, mi_sum, mi_terms, normalized};

/// The correlation graph `G_C = (V, E)` of Def 5.5: vertices are symbolic
/// series, and there is an (undirected) edge between `X_i` and `X_j` iff
/// `Ĩ(X_i;X_j) ≥ μ ∧ Ĩ(X_j;X_i) ≥ μ` — both directions, because NMI is
/// asymmetric.
///
/// # Examples
///
/// ```
/// use ftpm_timeseries::{Alphabet, SymbolicDatabase, SymbolicSeries, VariableId};
/// use ftpm_mi::CorrelationGraph;
///
/// let mut db = SymbolicDatabase::new(0, 1, 4);
/// db.push(SymbolicSeries::from_labels("A", Alphabet::on_off(),
///     ["On", "On", "Off", "Off"]));
/// db.push(SymbolicSeries::from_labels("B", Alphabet::on_off(),
///     ["On", "On", "Off", "Off"]));
/// let g = CorrelationGraph::build(&db, 0.9);
/// assert!(g.has_edge(VariableId(0), VariableId(1)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationGraph {
    n: usize,
    mu: f64,
    /// Row-major `n × n` pairwise NMI, `nmi[i][j] = Ĩ(X_i;X_j)`.
    nmi: Vec<Vec<f64>>,
    /// Symmetric adjacency matrix.
    adj: Vec<Vec<bool>>,
}

impl CorrelationGraph {
    /// Builds the correlation graph of a symbolic database for threshold
    /// `μ` (Alg. 2, lines 2–6).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < μ ≤ 1` (Def 5.4).
    pub fn build(db: &SymbolicDatabase, mu: f64) -> Self {
        assert!(mu > 0.0 && mu <= 1.0, "mu must be in (0, 1]");
        Self::from_nmi_matrix(nmi_matrix(db), mu)
    }

    /// Builds the graph with `μ` chosen so that the given fraction of the
    /// complete graph's edges survives (Def 5.6). Computes the pairwise
    /// NMI matrix only once, unlike calling [`mu_for_density`] followed by
    /// [`CorrelationGraph::build`].
    ///
    /// # Panics
    ///
    /// Panics unless `0 < density ≤ 1` (Def 5.6).
    pub fn build_with_density(db: &SymbolicDatabase, density: f64) -> Self {
        assert!(
            density > 0.0 && density <= 1.0,
            "density must be in (0, 1]"
        );
        let nmi = nmi_matrix(db);
        let mu = mu_from_matrix(&nmi, density);
        Self::from_nmi_matrix(nmi, mu)
    }

    fn from_nmi_matrix(nmi: Vec<Vec<f64>>, mu: f64) -> Self {
        let n = nmi.len();
        let mut adj = vec![vec![false; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if nmi[i][j] >= mu && nmi[j][i] >= mu {
                    adj[i][j] = true;
                    adj[j][i] = true;
                }
            }
        }
        CorrelationGraph { n, mu, nmi, adj }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// The threshold this graph was built with.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Pairwise NMI `Ĩ(X_i;X_j)`.
    pub fn nmi(&self, i: VariableId, j: VariableId) -> f64 {
        self.nmi[i.0 as usize][j.0 as usize]
    }

    /// True iff `i` and `j` are connected (both-direction NMI ≥ μ).
    /// Every vertex is trivially connected to itself
    /// (`Ĩ(X;X) = 1 ≥ μ`), which lets A-HTPGM keep self-relations.
    pub fn has_edge(&self, i: VariableId, j: VariableId) -> bool {
        i == j || self.adj[i.0 as usize][j.0 as usize]
    }

    /// Number of undirected edges `|E|` (self-loops not counted).
    pub fn n_edges(&self) -> usize {
        self.adj
            .iter()
            .enumerate()
            .map(|(i, row)| row[i + 1..].iter().filter(|&&b| b).count())
            .sum()
    }

    /// Graph density `d_C = |E| / (n·(n−1)/2)` (Def 5.6).
    pub fn density(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.n_edges() as f64 / (self.n * (self.n - 1) / 2) as f64
    }

    /// The correlated set `X_C`: vertices incident to at least one edge
    /// (Alg. 2, line 5). A-HTPGM mines only these series.
    pub fn correlated_variables(&self) -> Vec<VariableId> {
        (0..self.n)
            .filter(|&i| self.adj[i].iter().any(|&b| b))
            .map(|i| VariableId(i as u32))
            .collect()
    }
}

/// Chooses `μ` so that the resulting correlation graph keeps (at least)
/// the `density` fraction of the complete graph's edges (Def 5.6 and the
/// worked example: "if we set the density of the correlation graph to be
/// 40%, then G_C will have 15 × 40% = 6 edges, which corresponds to
/// μ = 0.40").
///
/// Concretely: each pair's edge weight is `min(Ĩ(X_i;X_j), Ĩ(X_j;X_i))`
/// (an edge survives a threshold iff both directions do); the returned μ
/// is the weight of the `⌈density · |pairs|⌉`-th largest pair, so
/// building the graph with it retains exactly that many edges (up to
/// ties).
///
/// # Panics
///
/// Panics unless `0 < density ≤ 1` and the database has ≥ 2 variables.
pub fn mu_for_density(db: &SymbolicDatabase, density: f64) -> f64 {
    assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
    assert!(db.n_variables() >= 2, "need at least two variables");
    mu_from_matrix(&nmi_matrix(db), density)
}

/// Largest alphabet whose joint counts come from per-symbol bitmaps. A
/// table of `|Σ_X|·|Σ_Y|` cells costs that many `and_count`s of
/// `⌈T/64⌉` words each, a counting pass costs `T` symbol reads, so up to
/// 8 × 8 = 64 cells the bitmaps read no more than the pass does.
const BITMAP_MAX_SYMBOLS: usize = 8;

/// What one series contributes to every pair it is in, computed once:
/// its marginal `p(x)`, its entropy `H(X)`, and (for small alphabets)
/// one indicator bitmap per symbol over the `T` steps.
struct Marginal<'a> {
    series: &'a SymbolicSeries,
    probs: Vec<f64>,
    entropy: f64,
    indicators: Option<Vec<Bitmap>>,
}

impl<'a> Marginal<'a> {
    fn new(series: &'a SymbolicSeries) -> Self {
        let probs = series.symbol_probabilities();
        let entropy = entropy(&probs);
        let indicators = (probs.len() <= BITMAP_MAX_SYMBOLS).then(|| {
            let mut bits = vec![Bitmap::new(series.len()); probs.len()];
            for (t, s) in series.symbols().iter().enumerate() {
                bits[s.0 as usize].set(t);
            }
            bits
        });
        Marginal {
            series,
            probs,
            entropy,
            indicators,
        }
    }
}

/// The joint count table of a pair, row-major `|Σ_X| × |Σ_Y|` as
/// [`joint_counts`] lays it out: `and_count` over the indicator bitmaps
/// when both alphabets are small, one pass over the symbols otherwise.
fn pair_counts(x: &Marginal, y: &Marginal) -> Vec<usize> {
    match (&x.indicators, &y.indicators) {
        (Some(xb), Some(yb)) => xb
            .iter()
            .flat_map(|a| yb.iter().map(move |b| a.and_count(b)))
            .collect(),
        _ => joint_counts(x.series, y.series),
    }
}

/// The full pairwise NMI matrix of a symbolic database (diagonal 1).
///
/// Each unordered pair gets one joint count table and one table of Eq. 9
/// summands, and both directions sum it: row-major for `Ĩ(X_i;X_j)`,
/// column-major for `Ĩ(X_j;X_i)` — the orders
/// [`mutual_information`](crate::mutual_information) uses for each. Every
/// cell therefore has the bits
/// [`normalized_mutual_information`](crate::normalized_mutual_information)
/// returns for its pair.
fn nmi_matrix(db: &SymbolicDatabase) -> Vec<Vec<f64>> {
    let marginals: Vec<Marginal> = db.iter().map(|(_, s)| Marginal::new(s)).collect();
    let n = marginals.len();
    let mut nmi = vec![vec![1.0; n]; n];
    for (i, x) in marginals.iter().enumerate() {
        for (j, y) in marginals.iter().enumerate().skip(i + 1) {
            // Constant series are NMI 1 in their own direction; a pair of
            // them needs no table.
            if x.entropy == 0.0 && y.entropy == 0.0 {
                continue;
            }
            let steps = x.series.len() as f64;
            let terms = mi_terms(&pair_counts(x, y), steps, &x.probs, &y.probs);
            let cols = y.probs.len();
            nmi[i][j] = normalized(x.entropy, || mi_sum(terms.iter().copied()));
            nmi[j][i] = normalized(y.entropy, || {
                mi_sum((0..cols).flat_map(|b| terms.iter().skip(b).step_by(cols).copied()))
            });
        }
    }
    nmi
}

fn mu_from_matrix(nmi: &[Vec<f64>], density: f64) -> f64 {
    let n = nmi.len();
    let mut weights = Vec::with_capacity(n * (n - 1) / 2);
    // Symmetric (i, j)/(j, i) access — an enumerate() rewrite obscures it.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for j in (i + 1)..n {
            weights.push(nmi[i][j].min(nmi[j][i]));
        }
    }
    weights.sort_by(|a, b| b.total_cmp(a));
    let keep = ((density * weights.len() as f64).ceil() as usize)
        .clamp(1, weights.len());
    // An edge needs weight >= mu, so the cutoff is the weight of the last
    // kept pair. Guard against zero so the Def 5.4 constraint mu > 0 holds.
    weights[keep - 1].max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::normalized_mutual_information;
    use ftpm_timeseries::{Alphabet, SymbolId, SymbolicSeries};
    use proptest::prelude::*;

    fn onoff(name: &str, bits: &str) -> SymbolicSeries {
        SymbolicSeries::from_labels(
            name,
            Alphabet::on_off(),
            bits.chars().map(|c| if c == '1' { "On" } else { "Off" }),
        )
    }

    fn db(rows: &[(&str, &str)]) -> SymbolicDatabase {
        let mut db = SymbolicDatabase::new(0, 1, rows[0].1.len());
        for (name, bits) in rows {
            db.push(onoff(name, bits));
        }
        db
    }

    #[test]
    fn perfectly_correlated_pair_connected() {
        let db = db(&[("A", "11001010"), ("B", "11001010"), ("C", "11110000")]);
        let g = CorrelationGraph::build(&db, 0.99);
        assert!(g.has_edge(VariableId(0), VariableId(1)));
        assert!(!g.has_edge(VariableId(0), VariableId(2)));
        assert_eq!(g.n_edges(), 1);
        assert_eq!(
            g.correlated_variables(),
            vec![VariableId(0), VariableId(1)]
        );
    }

    #[test]
    fn self_edge_always_present() {
        let db = db(&[("A", "1100"), ("B", "0101")]);
        let g = CorrelationGraph::build(&db, 1.0);
        assert!(g.has_edge(VariableId(0), VariableId(0)));
    }

    #[test]
    fn edge_requires_both_directions() {
        // y is a function of x (NMI(Y;X)=1) but not vice versa.
        let abc = Alphabet::new(["A", "B", "C"]);
        let mut d = SymbolicDatabase::new(0, 1, 6);
        d.push(SymbolicSeries::from_labels(
            "X",
            abc,
            ["A", "B", "C", "A", "B", "C"],
        ));
        d.push(onoff("Y", "011011"));
        let g = CorrelationGraph::build(&d, 0.9);
        assert!(g.nmi(VariableId(1), VariableId(0)) > 0.99);
        assert!(g.nmi(VariableId(0), VariableId(1)) < 0.9);
        assert!(!g.has_edge(VariableId(0), VariableId(1)));
    }

    #[test]
    fn density_counts_fraction_of_complete_graph() {
        let d = db(&[("A", "110010"), ("B", "110010"), ("C", "110010"), ("D", "010101")]);
        let g = CorrelationGraph::build(&d, 0.99);
        // A-B, A-C, B-C connected: 3 of 6 possible edges.
        assert_eq!(g.n_edges(), 3);
        assert!((g.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mu_for_density_hits_target_edge_count() {
        let d = db(&[
            ("A", "1100101001"),
            ("B", "1100101001"),
            ("C", "1100101101"),
            ("D", "0011010110"),
            ("E", "0110110100"),
        ]);
        for &target in &[0.2, 0.4, 0.6] {
            let mu = mu_for_density(&d, target);
            let g = CorrelationGraph::build(&d, mu);
            let total_pairs = 10.0;
            let want = (target * total_pairs).ceil() as usize;
            assert!(
                g.n_edges() >= want,
                "density {target}: got {} edges, want >= {want}",
                g.n_edges()
            );
        }
        // Density 1.0 keeps every pair with positive two-way NMI; pairs
        // with NMI exactly 0 can never be edges since Def 5.4 needs mu > 0.
        let mu = mu_for_density(&d, 1.0);
        let g = CorrelationGraph::build(&d, mu);
        let positive_pairs = (0..5)
            .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                g.nmi(VariableId(i), VariableId(j)) > 0.0
                    && g.nmi(VariableId(j), VariableId(i)) > 0.0
            })
            .count();
        assert_eq!(g.n_edges(), positive_pairs);
    }

    #[test]
    fn mu_one_densest_graph_is_identical_series_only() {
        let d = db(&[("A", "1100"), ("B", "1100"), ("C", "1001")]);
        let g = CorrelationGraph::build(&d, 1.0);
        assert!(g.has_edge(VariableId(0), VariableId(1)));
        assert!(!g.has_edge(VariableId(0), VariableId(2)));
    }

    #[test]
    #[should_panic(expected = "mu must be in")]
    fn mu_zero_rejected() {
        let d = db(&[("A", "10"), ("B", "01")]);
        let _ = CorrelationGraph::build(&d, 0.0);
    }

    /// A random database over `steps` steps, one series per entry of
    /// `sizes` (its alphabet size). Each series uses a random window of
    /// its alphabet — a one-symbol window makes it constant, a narrower
    /// one leaves symbols unused — and follows a latent sequence all
    /// series share, a noisy copy of it, or draws of its own.
    fn random_db(sizes: &[usize], steps: usize, seed: u64) -> SymbolicDatabase {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let latent: Vec<u64> = (0..steps).map(|_| next()).collect();
        let mut d = SymbolicDatabase::new(0, 1, steps);
        for (s, &size) in sizes.iter().enumerate() {
            let used = 1 + next() % size as u64;
            let offset = next() % (size as u64 - used + 1);
            let mode = next() % 3;
            let symbols = latent
                .iter()
                .map(|&l| {
                    let r = match mode {
                        0 => l,
                        1 if next() % 4 != 0 => l,
                        _ => next(),
                    };
                    SymbolId((offset + r % used) as u16)
                })
                .collect();
            let alphabet = Alphabet::new((0..size).map(|k| format!("S{k}")));
            d.push(SymbolicSeries::new(format!("X{s}"), alphabet, symbols));
        }
        d
    }

    /// Every off-diagonal cell of the graph's matrix has the bits of the
    /// scalar Def 5.3, and the density route picks the μ and the edges
    /// that `build(mu_for_density(..))` does.
    fn assert_matches_scalar(d: &SymbolicDatabase, density: f64) {
        let g = CorrelationGraph::build_with_density(d, density);
        for (i, x) in d.iter() {
            for (j, y) in d.iter() {
                if i != j {
                    assert_eq!(
                        g.nmi(i, j).to_bits(),
                        normalized_mutual_information(x, y).to_bits(),
                        "NMI({}; {})",
                        x.name(),
                        y.name()
                    );
                }
            }
        }
        let by_mu = CorrelationGraph::build(d, mu_for_density(d, density));
        assert_eq!(g.mu().to_bits(), by_mu.mu().to_bits());
        for (i, _) in d.iter() {
            for (j, _) in d.iter() {
                assert_eq!(g.has_edge(i, j), by_mu.has_edge(i, j), "{i:?}-{j:?}");
            }
        }
    }

    #[test]
    fn matrix_matches_scalar_definitions_on_both_sides_of_the_bitmap_rule() {
        // Alphabets of 1 (constant), 2 and 8 symbols take the bitmap
        // table; pairs with 9 or 12 take the counting pass.
        let d = random_db(&[1, 2, 8, 9, 12, 2, 8, 12], 500, 7);
        assert_matches_scalar(&d, 0.5);
    }

    proptest! {
        #[test]
        fn prop_matrix_matches_scalar_definitions(
            sizes in proptest::collection::vec(1usize..13, 2..7),
            steps in 1usize..301,
            seed in 0u64..u64::MAX,
            density in 0.01f64..1.0,
        ) {
            assert_matches_scalar(&random_db(&sizes, steps, seed), density);
        }
    }
}
