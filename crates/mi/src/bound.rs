/// The confidence lower bound of Theorem 1 (Eq. 11).
///
/// If an event pair `(X_1, Y_1)` is frequent in `D_SYB`
/// (`supp ≥ σ`) and the two symbolic series are μ-correlated
/// (`Ĩ(X_S;Y_S) ≥ μ`), then in `D_SEQ`:
///
/// ```text
/// conf(X1, Y1) ≥ LB = ( σ^σ_m · (1 − σ_m/(n_x − 1))^(1−σ) )^((1−μ)/σ) · σ/(2σ_m − σ)
/// ```
///
/// where `n_x = |Σ_X|` is the alphabet size and `σ_m` the maximum support
/// of the pair in `D_SYB`. A-HTPGM uses the contrapositive: event pairs of
/// *uncorrelated* series may fall below this confidence, so they (and by
/// Lemma 3 every pattern containing them) can be pruned with bounded loss.
///
/// All supports are relative (fractions in `(0, 1]`).
///
/// # Errors
///
/// Returns a [`LowerBoundError`] unless `0 < σ ≤ σ_m ≤ 1`, `0 < μ ≤ 1`
/// and `n_x ≥ 2`; a NaN argument lies in no range.
///
/// # Examples
///
/// ```
/// use ftpm_mi::{confidence_lower_bound, LowerBoundError};
///
/// let lb = confidence_lower_bound(0.3, 0.5, 2, 0.8)?;
/// assert!(lb > 0.0 && lb <= 1.0);
/// // A stronger correlation requirement gives a stronger guarantee:
/// assert!(confidence_lower_bound(0.3, 0.5, 2, 0.9)? > lb);
/// // σ_m is the larger of the two supports, so it cannot lie below σ:
/// assert_eq!(
///     confidence_lower_bound(0.5, 0.3, 2, 0.8),
///     Err(LowerBoundError::SigmaMax { value: 0.3, sigma: 0.5 })
/// );
/// # Ok::<(), LowerBoundError>(())
/// ```
pub fn confidence_lower_bound(
    sigma: f64,
    sigma_m: f64,
    n_x: usize,
    mu: f64,
) -> Result<f64, LowerBoundError> {
    if !(sigma > 0.0 && sigma <= 1.0) {
        return Err(LowerBoundError::Sigma { value: sigma });
    }
    if !(sigma_m >= sigma && sigma_m <= 1.0) {
        return Err(LowerBoundError::SigmaMax {
            value: sigma_m,
            sigma,
        });
    }
    if !(mu > 0.0 && mu <= 1.0) {
        return Err(LowerBoundError::Mu { value: mu });
    }
    if n_x < 2 {
        return Err(LowerBoundError::Alphabet { n_x });
    }

    // Base of the exponentiation: σ^σ_m · (1 − σ_m/(n_x−1))^(1−σ).
    // For a binary alphabet with σ_m = 1 the second factor is 0^0 = 1
    // (the (1−p(X1))·log((1−p(X1))/(n_x−1)) term of Eq. 21 vanishes when
    // p(X1) → 1), so treat 0^0 as 1 here.
    let shrink = 1.0 - sigma_m / (n_x as f64 - 1.0);
    let second = if shrink <= 0.0 && (1.0 - sigma) == 0.0 {
        1.0
    } else {
        shrink.max(0.0).powf(1.0 - sigma)
    };
    let base = sigma.powf(sigma_m) * second;
    let conf_syb_bound = base.powf((1.0 - mu) / sigma);
    Ok((conf_syb_bound * sigma / (2.0 * sigma_m - sigma)).clamp(0.0, 1.0))
}

/// Why [`confidence_lower_bound`] cannot evaluate Eq. 11 for its
/// arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LowerBoundError {
    /// The pair's support `σ` is NaN or outside `(0, 1]`.
    Sigma {
        /// The `σ` given.
        value: f64,
    },
    /// The maximum support `σ_m` is NaN or outside `[σ, 1]`.
    SigmaMax {
        /// The `σ_m` given.
        value: f64,
        /// The pair's support `σ`, the least `σ_m` can be.
        sigma: f64,
    },
    /// The correlation threshold `μ` is NaN or outside `(0, 1]`.
    Mu {
        /// The `μ` given.
        value: f64,
    },
    /// The alphabet has fewer than two symbols.
    Alphabet {
        /// The alphabet size `n_x` given.
        n_x: usize,
    },
}

impl std::fmt::Display for LowerBoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LowerBoundError::Sigma { value } => {
                write!(f, "sigma is {value}; it must lie in (0, 1]")
            }
            LowerBoundError::SigmaMax { value, sigma } => write!(
                f,
                "sigma_m is {value}; it must lie in [sigma, 1], with sigma = {sigma}"
            ),
            LowerBoundError::Mu { value } => write!(f, "mu is {value}; it must lie in (0, 1]"),
            LowerBoundError::Alphabet { n_x } => write!(
                f,
                "the alphabet has {n_x} symbol(s); the bound needs at least 2"
            ),
        }
    }
}

impl std::error::Error for LowerBoundError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bound_is_one_at_mu_one_sigma_max() {
        // mu = 1: (base)^0 = 1, and sigma = sigma_m makes the tail
        // sigma/(2 sigma_m - sigma) = 1.
        let lb = confidence_lower_bound(0.4, 0.4, 2, 1.0).unwrap();
        assert!((lb - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_decreases_as_mu_decreases() {
        let mut prev = f64::INFINITY;
        for mu in [0.9, 0.7, 0.5, 0.3, 0.1] {
            let lb = confidence_lower_bound(0.3, 0.5, 2, mu).unwrap();
            assert!(lb < prev, "LB must shrink with mu: {lb} !< {prev}");
            prev = lb;
        }
    }

    #[test]
    fn binary_alphabet_sigma_m_one_does_not_nan() {
        let lb = confidence_lower_bound(1.0, 1.0, 2, 0.5).unwrap();
        assert!(lb.is_finite());
        assert!(lb > 0.0);
    }

    #[test]
    fn larger_alphabet_changes_bound() {
        let b2 = confidence_lower_bound(0.3, 0.5, 2, 0.6).unwrap();
        let b5 = confidence_lower_bound(0.3, 0.5, 5, 0.6).unwrap();
        assert!(b2.is_finite() && b5.is_finite());
        assert_ne!(b2, b5);
    }

    /// `σ` outside `(0, 1]`, NaN included.
    #[test]
    fn sigma_out_of_range_is_an_error() {
        for value in [0.0, -0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = confidence_lower_bound(value, 0.5, 2, 0.5).unwrap_err();
            assert!(
                matches!(err, LowerBoundError::Sigma { value: v } if v.to_bits() == value.to_bits()),
                "{value}: {err:?}"
            );
        }
    }

    /// `σ_m` below `σ`, above 1 or NaN.
    #[test]
    fn sigma_m_out_of_range_is_an_error() {
        for value in [0.3, 1.01, f64::NAN] {
            let err = confidence_lower_bound(0.5, value, 2, 0.5).unwrap_err();
            assert!(
                matches!(err, LowerBoundError::SigmaMax { value: v, sigma } if v.to_bits() == value.to_bits() && sigma == 0.5),
                "{value}: {err:?}"
            );
        }
        assert_eq!(
            confidence_lower_bound(0.5, 0.3, 2, 0.5)
                .unwrap_err()
                .to_string(),
            "sigma_m is 0.3; it must lie in [sigma, 1], with sigma = 0.5"
        );
    }

    /// `μ` outside `(0, 1]`, NaN included.
    #[test]
    fn mu_out_of_range_is_an_error() {
        for value in [0.0, -1.0, 1.0 + 1e-9, f64::NAN] {
            let err = confidence_lower_bound(0.3, 0.5, 2, value).unwrap_err();
            assert!(
                matches!(err, LowerBoundError::Mu { value: v } if v.to_bits() == value.to_bits()),
                "{value}: {err:?}"
            );
        }
    }

    /// An alphabet of fewer than two symbols.
    #[test]
    fn an_alphabet_below_two_symbols_is_an_error() {
        for n_x in [0, 1] {
            assert_eq!(
                confidence_lower_bound(0.3, 0.5, n_x, 0.5),
                Err(LowerBoundError::Alphabet { n_x })
            );
        }
        assert!(confidence_lower_bound(0.3, 0.5, 2, 0.5).is_ok());
    }

    proptest! {
        #[test]
        fn prop_bound_in_unit_interval(
            sigma in 0.01f64..1.0,
            extra in 0.0f64..0.5,
            n_x in 2usize..6,
            mu in 0.01f64..1.0,
        ) {
            let sigma_m = (sigma + extra).min(1.0);
            let lb = confidence_lower_bound(sigma, sigma_m, n_x, mu).unwrap();
            prop_assert!((0.0..=1.0).contains(&lb), "lb = {lb}");
            prop_assert!(lb.is_finite());
        }

        #[test]
        fn prop_bound_monotone_in_mu(
            sigma in 0.05f64..0.9,
            extra in 0.0f64..0.1,
            n_x in 2usize..5,
            mu in 0.1f64..0.9,
        ) {
            let sigma_m = (sigma + extra).min(1.0);
            let lo = confidence_lower_bound(sigma, sigma_m, n_x, mu).unwrap();
            let hi = confidence_lower_bound(sigma, sigma_m, n_x, (mu + 0.1).min(1.0)).unwrap();
            prop_assert!(hi >= lo - 1e-12);
        }
    }
}
