use crate::event::EventId;

/// Error returned by [`Interval::try_new`] when `end <= start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidInterval {
    /// The offending start time.
    pub start: i64,
    /// The offending end time.
    pub end: i64,
}

impl std::fmt::Display for InvalidInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "interval must have positive duration: [{}, {})",
            self.start, self.end
        )
    }
}

impl std::error::Error for InvalidInterval {}

/// A half-open time interval `[start, end)` in integer ticks.
///
/// Instances always have positive duration; zero-length and reversed
/// (`start > end`) intervals are rejected at construction — a reversed
/// interval would report a negative [`duration`](Interval::duration) and
/// a vacuously-false [`intersects`](Interval::intersects), silently
/// corrupting every relation decision downstream. Use
/// [`Interval::try_new`] where the endpoints come from untrusted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    /// Inclusive start time `t_s`.
    pub start: i64,
    /// Exclusive end time `t_e`.
    pub end: i64,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn new(start: i64, end: i64) -> Self {
        assert!(
            end > start,
            "interval must have positive duration: [{start}, {end})"
        );
        Interval { start, end }
    }

    /// Fallible counterpart of [`Interval::new`] for endpoints that come
    /// from user input: returns an error instead of panicking when
    /// `end <= start`.
    pub fn try_new(start: i64, end: i64) -> Result<Self, InvalidInterval> {
        if end > start {
            Ok(Interval { start, end })
        } else {
            Err(InvalidInterval { start, end })
        }
    }

    /// Duration `t_e − t_s` in ticks.
    pub fn duration(&self) -> i64 {
        debug_assert!(self.end > self.start, "corrupted interval {self}");
        self.end - self.start
    }

    /// True iff the two intervals share at least one instant.
    pub fn intersects(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The length of the intersection, zero if disjoint.
    pub fn overlap_duration(&self, other: &Interval) -> i64 {
        (self.end.min(other.end) - self.start.max(other.start)).max(0)
    }

    /// True iff `other` lies entirely within `self` (non-strictly).
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A single occurrence of a temporal event during an interval — the tuple
/// `e = (ω, [t_s, t_e])` of Def 3.5 — plus the *true extent* of the
/// underlying symbol run.
///
/// The window split clips runs at window boundaries, so `interval` is the
/// portion visible inside the window while `extent` is the full run as it
/// exists in the underlying data. For instances that were never clipped
/// (the common case) the two are identical. The clipped flags record
/// which side(s) the window cut; [`crate::BoundaryPolicy`] decides which
/// interval the miner reasons about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventInstance {
    /// The event this is an instance of.
    pub event: EventId,
    /// When the occurrence was observed inside its window (clipped).
    pub interval: Interval,
    /// The true extent of the underlying run, possibly reaching beyond
    /// the window on either side. Always contains `interval`.
    pub extent: Interval,
    /// True iff the run started before the window (`extent.start <
    /// interval.start`).
    pub clipped_left: bool,
    /// True iff the run ended after the window (`extent.end >
    /// interval.end`).
    pub clipped_right: bool,
}

impl EventInstance {
    /// Creates an unclipped instance: the extent equals the interval.
    pub fn new(event: EventId, start: i64, end: i64) -> Self {
        let interval = Interval::new(start, end);
        EventInstance {
            event,
            interval,
            extent: interval,
            clipped_left: false,
            clipped_right: false,
        }
    }

    /// Creates an instance whose observed `interval` is a window-clipped
    /// view of the run `extent`. The clipped flags are derived.
    ///
    /// # Panics
    ///
    /// Panics unless `extent` contains `interval`.
    pub fn with_extent(event: EventId, interval: Interval, extent: Interval) -> Self {
        assert!(
            extent.contains(&interval),
            "extent {extent} must contain the clipped interval {interval}"
        );
        EventInstance {
            event,
            interval,
            extent,
            clipped_left: extent.start < interval.start,
            clipped_right: extent.end > interval.end,
        }
    }

    /// True iff the window boundary cut this run on either side.
    pub fn is_clipped(&self) -> bool {
        self.clipped_left || self.clipped_right
    }

    /// Chronological key: instances are ordered by start time, with ties
    /// broken by end time and then event id so sequences have a canonical
    /// order (Def 3.9 orders by start time only; the tie-breaks make the
    /// order total). Uses the clipped interval — the order the split
    /// observes inside a window.
    pub fn chrono_key(&self) -> (i64, i64, EventId) {
        (self.interval.start, self.interval.end, self.event)
    }

    /// Chronological key over the true extent — the order of the
    /// underlying runs, used when mining under
    /// [`crate::BoundaryPolicy::TrueExtent`].
    pub fn extent_key(&self) -> (i64, i64, EventId) {
        (self.extent.start, self.extent.end, self.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_and_intersection() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 20);
        let c = Interval::new(10, 12);
        assert_eq!(a.duration(), 10);
        assert!(a.intersects(&b));
        assert!(
            !a.intersects(&c),
            "half-open intervals touching do not intersect"
        );
        assert_eq!(a.overlap_duration(&b), 5);
        assert_eq!(a.overlap_duration(&c), 0);
        assert!(a.contains(&Interval::new(0, 10)));
        assert!(a.contains(&Interval::new(3, 7)));
        assert!(!a.contains(&b));
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn empty_interval_panics() {
        let _ = Interval::new(5, 5);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn reversed_interval_panics() {
        let _ = Interval::new(9, 3);
    }

    #[test]
    fn try_new_rejects_without_panicking() {
        assert_eq!(Interval::try_new(0, 4), Ok(Interval::new(0, 4)));
        assert_eq!(
            Interval::try_new(4, 4),
            Err(InvalidInterval { start: 4, end: 4 })
        );
        let err = Interval::try_new(9, 3).expect_err("reversed");
        assert_eq!(
            err.to_string(),
            "interval must have positive duration: [9, 3)"
        );
    }

    #[test]
    fn unclipped_instance_extent_equals_interval() {
        let a = EventInstance::new(EventId(7), 0, 10);
        assert_eq!(a.extent, a.interval);
        assert!(!a.is_clipped());
        assert_eq!(a.chrono_key(), a.extent_key());
    }

    #[test]
    fn with_extent_derives_clip_flags() {
        let iv = Interval::new(10, 20);
        let both = EventInstance::with_extent(EventId(1), iv, Interval::new(5, 25));
        assert!(both.clipped_left && both.clipped_right && both.is_clipped());
        let left = EventInstance::with_extent(EventId(1), iv, Interval::new(5, 20));
        assert!(left.clipped_left && !left.clipped_right);
        let none = EventInstance::with_extent(EventId(1), iv, iv);
        assert!(!none.is_clipped());
        assert_eq!(both.extent_key(), (5, 25, EventId(1)));
        assert_eq!(both.chrono_key(), (10, 20, EventId(1)));
    }

    #[test]
    #[should_panic(expected = "must contain")]
    fn with_extent_rejects_non_containing_extent() {
        let _ = EventInstance::with_extent(EventId(0), Interval::new(0, 10), Interval::new(2, 12));
    }

    #[test]
    fn chrono_key_orders_by_start_then_end() {
        let a = EventInstance::new(EventId(7), 0, 10);
        let b = EventInstance::new(EventId(1), 0, 12);
        let c = EventInstance::new(EventId(0), 3, 4);
        let mut v = [c, b, a];
        v.sort_by_key(|i| i.chrono_key());
        assert_eq!(v[0], a);
        assert_eq!(v[1], b);
        assert_eq!(v[2], c);
    }
}
