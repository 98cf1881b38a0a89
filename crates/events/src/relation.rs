use crate::event::EventId;
use crate::instance::{EventInstance, Interval};

/// The three temporal relations of the paper's simplified Allen model
/// (Defs 3.6–3.8, Table II). `ℜ = {Follow, Contain, Overlap}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TemporalRelation {
    /// `E1 → E2`: e2 starts after e1 ends (within the buffer `ε`).
    Follow,
    /// `E1 ≺ E2` (paper: `<`): e2 lies within e1 (within `ε` at the end).
    Contain,
    /// `E1 ⋒ E2` (paper: `G`): e1 and e2 overlap by at least `d_o` and e2
    /// outlives e1.
    Overlap,
}

impl TemporalRelation {
    /// All relations, in a fixed order used for dense indexing.
    pub const ALL: [TemporalRelation; 3] = [
        TemporalRelation::Follow,
        TemporalRelation::Contain,
        TemporalRelation::Overlap,
    ];

    /// Dense index 0..3.
    pub fn index(self) -> usize {
        match self {
            TemporalRelation::Follow => 0,
            TemporalRelation::Contain => 1,
            TemporalRelation::Overlap => 2,
        }
    }

    /// The paper's infix glyph for the relation.
    pub fn glyph(self) -> &'static str {
        match self {
            TemporalRelation::Follow => "->",
            TemporalRelation::Contain => "<",
            TemporalRelation::Overlap => "G",
        }
    }
}

impl std::fmt::Display for TemporalRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            TemporalRelation::Follow => "Follow",
            TemporalRelation::Contain => "Contain",
            TemporalRelation::Overlap => "Overlap",
        };
        f.write_str(name)
    }
}

/// How the miner treats event instances whose runs were clipped at a
/// window boundary by the split (Section IV-B2).
///
/// Clipping a long run at a window cut fabricates one-or-two *short*
/// instances; with the end-based `t_max` duration constraint this
/// inflates support for short patterns and makes non-overlapping splits
/// non-comparable across window placements. The policy decides which
/// interval of an [`EventInstance`] the relation model and the duration
/// constraint reason about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BoundaryPolicy {
    /// Use the window-clipped interval — the historical behaviour and
    /// the default. Boundary artifacts are counted as real instances.
    #[default]
    Clip,
    /// Use the true run extent: relations, chronological order and the
    /// `t_max` constraint all apply to the run as it exists in the
    /// underlying data. With an overlapped split of `t_ov = t_max`, the
    /// per-window pattern sets match the unsplit database for every
    /// pattern of true duration ≤ `t_max` (the Fig 3 lemma, exactly).
    TrueExtent,
    /// Drop instances clipped on either side: they take part in neither
    /// single-event supports nor pattern occurrences. Conservative —
    /// never counts an artifact, at the cost of losing real occurrences
    /// near the cut.
    Discard,
}

impl BoundaryPolicy {
    /// The CLI spelling of the policy (`clip`, `true-extent`, `discard`).
    pub fn as_str(self) -> &'static str {
        match self {
            BoundaryPolicy::Clip => "clip",
            BoundaryPolicy::TrueExtent => "true-extent",
            BoundaryPolicy::Discard => "discard",
        }
    }

    /// Monomorphization seam: maps the runtime policy to its
    /// compile-time [`BoundaryKernel`] type and runs `visitor` under it.
    ///
    /// This is the *only* place a policy value is turned into a kernel
    /// type — miners call it once per run at their entry point, and
    /// every per-instance decision below that point compiles to the
    /// straight-line code of the chosen kernel instead of re-matching
    /// on the policy inside the hot verification loops.
    pub fn dispatch<V: BoundaryVisit>(self, visitor: V) -> V::Out {
        match self {
            BoundaryPolicy::Clip => visitor.visit::<ClipKernel>(),
            BoundaryPolicy::TrueExtent => visitor.visit::<TrueExtentKernel>(),
            BoundaryPolicy::Discard => visitor.visit::<DiscardKernel>(),
        }
    }
}

/// A computation generic over the boundary kernel, for use with
/// [`BoundaryPolicy::dispatch`]. (A plain closure cannot be generic over
/// a type parameter, so dispatch takes a visitor object instead.)
pub trait BoundaryVisit {
    /// Result of the computation.
    type Out;
    /// Runs the computation with `K` fixed at compile time.
    fn visit<K: BoundaryKernel>(self) -> Self::Out;
}

/// Compile-time form of one [`BoundaryPolicy`] variant: the two
/// per-instance decisions of the verification hot loops — which interval
/// an instance exposes and how instances are ordered — as associated
/// functions that monomorphize to branch-free straight-line code.
///
/// The zero-sized kernel types ([`ClipKernel`], [`TrueExtentKernel`],
/// [`DiscardKernel`]) mirror [`RelationConfig::effective_interval`] and
/// [`RelationConfig::effective_key`] exactly; a property test pins the
/// agreement.
pub trait BoundaryKernel: Copy + Default + Send + Sync + 'static {
    /// The policy this kernel compiles.
    const POLICY: BoundaryPolicy;

    /// [`RelationConfig::effective_interval`] for this policy.
    fn interval(inst: &EventInstance) -> Option<Interval>;

    /// [`RelationConfig::effective_key`] for this policy.
    fn key(inst: &EventInstance) -> (i64, i64, EventId);
}

/// [`BoundaryPolicy::Clip`] as a kernel: the window-clipped view.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClipKernel;

impl BoundaryKernel for ClipKernel {
    const POLICY: BoundaryPolicy = BoundaryPolicy::Clip;

    #[inline(always)]
    fn interval(inst: &EventInstance) -> Option<Interval> {
        Some(inst.interval)
    }

    #[inline(always)]
    fn key(inst: &EventInstance) -> (i64, i64, EventId) {
        inst.chrono_key()
    }
}

/// [`BoundaryPolicy::TrueExtent`] as a kernel: the full run extent.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrueExtentKernel;

impl BoundaryKernel for TrueExtentKernel {
    const POLICY: BoundaryPolicy = BoundaryPolicy::TrueExtent;

    #[inline(always)]
    fn interval(inst: &EventInstance) -> Option<Interval> {
        Some(inst.extent)
    }

    #[inline(always)]
    fn key(inst: &EventInstance) -> (i64, i64, EventId) {
        inst.extent_key()
    }
}

/// [`BoundaryPolicy::Discard`] as a kernel: clipped instances vanish.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardKernel;

impl BoundaryKernel for DiscardKernel {
    const POLICY: BoundaryPolicy = BoundaryPolicy::Discard;

    #[inline(always)]
    fn interval(inst: &EventInstance) -> Option<Interval> {
        (!inst.is_clipped()).then_some(inst.interval)
    }

    #[inline(always)]
    fn key(inst: &EventInstance) -> (i64, i64, EventId) {
        inst.chrono_key()
    }
}

impl std::fmt::Display for BoundaryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for BoundaryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "clip" => Ok(BoundaryPolicy::Clip),
            "true-extent" | "true_extent" => Ok(BoundaryPolicy::TrueExtent),
            "discard" => Ok(BoundaryPolicy::Discard),
            other => Err(format!(
                "unknown boundary policy {other:?} (use clip|true-extent|discard)"
            )),
        }
    }
}

/// Parameters of the relation model and the pattern-duration constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelationConfig {
    /// Buffer `ε ≥ 0` added to interval endpoints as tolerated jitter
    /// (Defs 3.6–3.8). An overlap of at most `ε` still counts as Follow.
    pub epsilon: i64,
    /// Minimal overlapping duration `d_o` for the Overlap relation
    /// (Def 3.8). The paper requires `0 ≤ ε ≤ d_o`.
    pub min_overlap: i64,
    /// Maximal pattern duration `t_max` (Section III-C): the last instance
    /// of a pattern occurrence must end within `t_max` of the first
    /// instance's start.
    pub t_max: i64,
    /// Treatment of window-boundary-clipped instances. [`Clip`]
    /// (the default) preserves the historical numbers.
    ///
    /// [`Clip`]: BoundaryPolicy::Clip
    pub boundary: BoundaryPolicy,
}

impl Default for RelationConfig {
    /// `ε = 0`, `d_o = 1` tick, `t_max = i64::MAX / 4` (effectively
    /// unconstrained). With these defaults the three relations are both
    /// mutually exclusive and complete for instance pairs with distinct
    /// start times.
    fn default() -> Self {
        RelationConfig {
            epsilon: 0,
            min_overlap: 1,
            t_max: i64::MAX / 4,
            boundary: BoundaryPolicy::Clip,
        }
    }
}

impl RelationConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ ε ≤ d_o` and `t_max > 0`.
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract; try_new is the fallible path"
    )]
    pub fn new(epsilon: i64, min_overlap: i64, t_max: i64) -> Self {
        RelationConfig::try_new(epsilon, min_overlap, t_max).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`RelationConfig::new`] for parameters
    /// that come from user input: returns a message instead of panicking
    /// when `ε < 0`, `ε > d_o`, or `t_max ≤ 0`.
    pub fn try_new(epsilon: i64, min_overlap: i64, t_max: i64) -> Result<Self, String> {
        if epsilon < 0 {
            return Err(format!("epsilon must be non-negative, got {epsilon}"));
        }
        if min_overlap < epsilon {
            return Err(format!(
                "paper requires epsilon <= d_o (Def 3.8), got epsilon {epsilon} with d_o \
                 {min_overlap}"
            ));
        }
        if t_max <= 0 {
            return Err(format!("t_max must be positive, got {t_max}"));
        }
        Ok(RelationConfig {
            epsilon,
            min_overlap,
            t_max,
            boundary: BoundaryPolicy::Clip,
        })
    }

    /// Same config with a different `t_max`.
    pub fn with_t_max(self, t_max: i64) -> Self {
        RelationConfig { t_max, ..self }
    }

    /// Same config with a different boundary policy.
    pub fn with_boundary(self, boundary: BoundaryPolicy) -> Self {
        RelationConfig { boundary, ..self }
    }

    /// The interval of `inst` this config's boundary policy reasons
    /// about, or `None` when the policy discards the instance outright.
    ///
    /// [`Clip`] sees the window-clipped interval, [`TrueExtent`] the full
    /// run extent, and [`Discard`] refuses instances clipped on either
    /// side.
    ///
    /// [`Clip`]: BoundaryPolicy::Clip
    /// [`TrueExtent`]: BoundaryPolicy::TrueExtent
    /// [`Discard`]: BoundaryPolicy::Discard
    #[inline]
    pub fn effective_interval(&self, inst: &EventInstance) -> Option<Interval> {
        match self.boundary {
            BoundaryPolicy::Clip => Some(inst.interval),
            BoundaryPolicy::TrueExtent => Some(inst.extent),
            BoundaryPolicy::Discard => (!inst.is_clipped()).then_some(inst.interval),
        }
    }

    /// The chronological key matching [`effective_interval`]: miners must
    /// bind occurrences in the order of the intervals they relate, so
    /// under [`TrueExtent`] the key is the extent's.
    ///
    /// [`effective_interval`]: RelationConfig::effective_interval
    /// [`TrueExtent`]: BoundaryPolicy::TrueExtent
    #[inline]
    pub fn effective_key(&self, inst: &EventInstance) -> (i64, i64, EventId) {
        match self.boundary {
            BoundaryPolicy::TrueExtent => inst.extent_key(),
            BoundaryPolicy::Clip | BoundaryPolicy::Discard => inst.chrono_key(),
        }
    }

    /// Determines the relation between two instances whose chronological
    /// order is `first` then `second` (i.e. `first.chrono_key() <=
    /// second.chrono_key()`).
    ///
    /// Returns `None` when no relation applies — possible when start times
    /// coincide, or when intervals overlap by more than `ε` but less than
    /// `d_o` while `second` outlives `first`.
    ///
    /// The predicates are evaluated in the order Follow, Contain, Overlap,
    /// which makes them mutually exclusive even for `ε > 0` (the paper's
    /// stated intent in Section III-B).
    pub fn relate(&self, first: &Interval, second: &Interval) -> Option<TemporalRelation> {
        debug_assert!(
            (first.start, first.end) <= (second.start, second.end),
            "relate() requires chronological argument order"
        );
        // Def 3.6 (Follow): t_e1 ± ε ≤ t_s2 — the second instance begins
        // once the first has ended, tolerating up to ε of overlap.
        if second.start >= first.end - self.epsilon {
            return Some(TemporalRelation::Follow);
        }
        // Def 3.7 (Contain): t_s1 ≤ t_s2 ∧ t_e1 ± ε ≥ t_e2.
        if first.start <= second.start && second.end <= first.end + self.epsilon {
            return Some(TemporalRelation::Contain);
        }
        // Def 3.8 (Overlap): t_s1 < t_s2 ∧ t_e1 ± ε < t_e2 ∧
        // t_e1 − t_s2 ≥ d_o.
        if first.start < second.start
            && second.end > first.end + self.epsilon
            && first.end - second.start >= self.min_overlap
        {
            return Some(TemporalRelation::Overlap);
        }
        None
    }

    /// True iff a pattern occurrence whose chronologically first instance
    /// starts at `first_start` and whose last instance ends at `last_end`
    /// satisfies the maximal-duration constraint.
    pub fn within_t_max(&self, first_start: i64, last_end: i64) -> bool {
        last_end - first_start <= self.t_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e)
    }

    #[test]
    fn follow_basic() {
        let cfg = RelationConfig::default();
        assert_eq!(
            cfg.relate(&iv(0, 5), &iv(5, 8)),
            Some(TemporalRelation::Follow)
        );
        assert_eq!(
            cfg.relate(&iv(0, 5), &iv(9, 12)),
            Some(TemporalRelation::Follow)
        );
    }

    #[test]
    fn contain_basic() {
        let cfg = RelationConfig::default();
        assert_eq!(
            cfg.relate(&iv(0, 10), &iv(2, 8)),
            Some(TemporalRelation::Contain)
        );
        // Shared right endpoint still contains.
        assert_eq!(
            cfg.relate(&iv(0, 10), &iv(2, 10)),
            Some(TemporalRelation::Contain)
        );
        // Shared start: ts1 <= ts2 holds, so Contain applies.
        assert_eq!(
            cfg.relate(&iv(0, 10), &iv(0, 10)),
            Some(TemporalRelation::Contain)
        );
    }

    #[test]
    fn overlap_basic() {
        let cfg = RelationConfig::default();
        assert_eq!(
            cfg.relate(&iv(0, 10), &iv(5, 15)),
            Some(TemporalRelation::Overlap)
        );
    }

    #[test]
    fn overlap_requires_min_duration() {
        let cfg = RelationConfig::new(0, 3, 1000);
        // Overlap of 2 < d_o = 3: no relation at all.
        assert_eq!(cfg.relate(&iv(0, 10), &iv(8, 15)), None);
        // Overlap of exactly 3 qualifies.
        assert_eq!(
            cfg.relate(&iv(0, 10), &iv(7, 15)),
            Some(TemporalRelation::Overlap)
        );
    }

    #[test]
    fn epsilon_turns_small_overlap_into_follow() {
        let cfg = RelationConfig::new(2, 2, 1000);
        // Overlap of 2 <= epsilon: tolerated, counted as Follow.
        assert_eq!(
            cfg.relate(&iv(0, 10), &iv(8, 15)),
            Some(TemporalRelation::Follow)
        );
        // Overlap of 3 > epsilon and >= d_o: Overlap.
        assert_eq!(
            cfg.relate(&iv(0, 10), &iv(7, 15)),
            Some(TemporalRelation::Overlap)
        );
    }

    #[test]
    fn epsilon_extends_contain_at_the_end() {
        let cfg = RelationConfig::new(2, 2, 1000);
        // e2 outlives e1 by 2 <= epsilon: still contained.
        assert_eq!(
            cfg.relate(&iv(0, 10), &iv(3, 12)),
            Some(TemporalRelation::Contain)
        );
        // Outlives by 3 > epsilon: overlap (overlap duration 7 >= d_o).
        assert_eq!(
            cfg.relate(&iv(0, 10), &iv(3, 13)),
            Some(TemporalRelation::Overlap)
        );
    }

    #[test]
    fn same_start_longer_second_has_no_relation() {
        // ts1 == ts2 but e2 ends later: none of the three relations applies
        // (Overlap needs strict ts1 < ts2, Contain needs te2 <= te1).
        let cfg = RelationConfig::default();
        assert_eq!(cfg.relate(&iv(0, 5), &iv(0, 9)), None);
    }

    #[test]
    fn t_max_constraint() {
        let cfg = RelationConfig::new(0, 1, 60);
        assert!(cfg.within_t_max(0, 60));
        assert!(!cfg.within_t_max(0, 61));
    }

    #[test]
    #[should_panic(expected = "epsilon <= d_o")]
    fn epsilon_greater_than_min_overlap_panics() {
        let _ = RelationConfig::new(5, 2, 100);
    }

    #[test]
    fn boundary_policy_parses_and_displays() {
        for (text, policy) in [
            ("clip", BoundaryPolicy::Clip),
            ("true-extent", BoundaryPolicy::TrueExtent),
            ("true_extent", BoundaryPolicy::TrueExtent),
            ("discard", BoundaryPolicy::Discard),
        ] {
            assert_eq!(text.parse::<BoundaryPolicy>(), Ok(policy));
        }
        assert_eq!(BoundaryPolicy::TrueExtent.to_string(), "true-extent");
        assert!("chop".parse::<BoundaryPolicy>().is_err());
        assert_eq!(BoundaryPolicy::default(), BoundaryPolicy::Clip);
    }

    #[test]
    fn effective_interval_follows_policy() {
        use crate::instance::EventInstance;
        let clipped =
            EventInstance::with_extent(EventId(0), Interval::new(10, 20), Interval::new(4, 26));
        let clean = EventInstance::new(EventId(1), 12, 18);
        let base = RelationConfig::default();

        let clip = base.with_boundary(BoundaryPolicy::Clip);
        assert_eq!(
            clip.effective_interval(&clipped),
            Some(Interval::new(10, 20))
        );
        assert_eq!(clip.effective_key(&clipped), clipped.chrono_key());

        let ext = base.with_boundary(BoundaryPolicy::TrueExtent);
        assert_eq!(ext.effective_interval(&clipped), Some(Interval::new(4, 26)));
        assert_eq!(ext.effective_key(&clipped), clipped.extent_key());

        let discard = base.with_boundary(BoundaryPolicy::Discard);
        assert_eq!(discard.effective_interval(&clipped), None);
        assert_eq!(discard.effective_interval(&clean), Some(clean.interval));
    }

    #[test]
    fn dispatch_selects_matching_kernel() {
        struct PolicyOf;
        impl BoundaryVisit for PolicyOf {
            type Out = BoundaryPolicy;
            fn visit<K: BoundaryKernel>(self) -> BoundaryPolicy {
                K::POLICY
            }
        }
        for policy in [
            BoundaryPolicy::Clip,
            BoundaryPolicy::TrueExtent,
            BoundaryPolicy::Discard,
        ] {
            assert_eq!(policy.dispatch(PolicyOf), policy);
        }
    }

    proptest! {
        /// Each kernel agrees with the runtime-branching
        /// `effective_interval`/`effective_key` pair it compiles.
        #[test]
        fn prop_kernels_match_effective_fns(
            s in 0i64..500, d in 1i64..60,
            pad_l in 0i64..10, pad_r in 0i64..10,
        ) {
            let iv = Interval::new(s, s + d);
            let ext = Interval::new(s - pad_l, s + d + pad_r);
            let inst = EventInstance::with_extent(EventId(3), iv, ext);

            struct Check<'a>(&'a EventInstance);
            impl BoundaryVisit for Check<'_> {
                type Out = ();
                fn visit<K: BoundaryKernel>(self) {
                    let cfg = RelationConfig::default().with_boundary(K::POLICY);
                    assert_eq!(K::interval(self.0), cfg.effective_interval(self.0));
                    assert_eq!(K::key(self.0), cfg.effective_key(self.0));
                }
            }
            for policy in [
                BoundaryPolicy::Clip,
                BoundaryPolicy::TrueExtent,
                BoundaryPolicy::Discard,
            ] {
                policy.dispatch(Check(&inst));
            }
        }

        /// With the default config the relation is total for instance pairs
        /// with distinct start times — the "completeness" the paper claims
        /// for its simplified model.
        #[test]
        fn prop_complete_for_distinct_starts(
            s1 in 0i64..1000, d1 in 1i64..100,
            s2 in 0i64..1000, d2 in 1i64..100,
        ) {
            prop_assume!(s1 != s2);
            let (a, b) = if (s1, s1 + d1) <= (s2, s2 + d2) {
                (iv(s1, s1 + d1), iv(s2, s2 + d2))
            } else {
                (iv(s2, s2 + d2), iv(s1, s1 + d1))
            };
            let cfg = RelationConfig::default();
            prop_assert!(cfg.relate(&a, &b).is_some());
        }

        /// The three paper predicates, evaluated independently with ε = 0,
        /// never both hold for the same pair: mutual exclusivity.
        #[test]
        fn prop_mutually_exclusive_eps0(
            s1 in 0i64..500, d1 in 1i64..60,
            s2 in 0i64..500, d2 in 1i64..60,
            min_overlap in 1i64..10,
        ) {
            let (a, b) = if (s1, s1 + d1) <= (s2, s2 + d2) {
                (iv(s1, s1 + d1), iv(s2, s2 + d2))
            } else {
                (iv(s2, s2 + d2), iv(s1, s1 + d1))
            };
            let follow = b.start >= a.end;
            let contain = a.start <= b.start && b.end <= a.end && b.start < a.end;
            let overlap = a.start < b.start && b.end > a.end
                && a.end - b.start >= min_overlap;
            prop_assert!(u8::from(follow) + u8::from(contain) + u8::from(overlap) <= 1);
            // And relate() agrees with whichever predicate holds.
            let cfg = RelationConfig::new(0, min_overlap, i64::MAX / 4);
            let got = cfg.relate(&a, &b);
            if follow { prop_assert_eq!(got, Some(TemporalRelation::Follow)); }
            if contain { prop_assert_eq!(got, Some(TemporalRelation::Contain)); }
            if overlap { prop_assert_eq!(got, Some(TemporalRelation::Overlap)); }
        }

        /// relate() never returns Overlap with less than d_o of overlap.
        #[test]
        fn prop_overlap_duration_respected(
            s1 in 0i64..500, d1 in 1i64..60,
            s2 in 0i64..500, d2 in 1i64..60,
            eps in 0i64..5, extra in 0i64..5,
        ) {
            let min_overlap = eps + extra + 1;
            let (a, b) = if (s1, s1 + d1) <= (s2, s2 + d2) {
                (iv(s1, s1 + d1), iv(s2, s2 + d2))
            } else {
                (iv(s2, s2 + d2), iv(s1, s1 + d1))
            };
            let cfg = RelationConfig::new(eps, min_overlap, i64::MAX / 4);
            if cfg.relate(&a, &b) == Some(TemporalRelation::Overlap) {
                prop_assert!(a.overlap_duration(&b) >= min_overlap);
            }
        }
    }
}
