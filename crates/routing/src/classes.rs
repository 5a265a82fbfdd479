//! Virtual-channel layouts: how the `V` virtual channels of a physical
//! channel are split between fully adaptive (*class-a*) channels and
//! negative-hop *escape* (*class-b*) levels.
//!
//! The paper's Enhanced-Nbc uses the **minimum** number of class-b levels the
//! negative-hop scheme needs on the topology (`⌊H/2⌋ + 1` for a 2-colourable
//! network of diameter `H`; 4 levels for `S5`) and turns every remaining
//! virtual channel into a fully adaptive class-a channel.

/// Classification of a single virtual channel within a physical channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcClass {
    /// Fully adaptive class-a channel (Enhanced-Nbc only).
    Adaptive,
    /// Escape (class-b) channel belonging to the given negative-hop level.
    Escape(usize),
}

/// Split of the `V` virtual channels of every physical channel into adaptive
/// and escape channels.
///
/// Virtual-channel indices `0..adaptive` are class-a; index `adaptive + l` is
/// the escape channel of level `l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VirtualChannelLayout {
    /// Number of fully adaptive (class-a) virtual channels.
    pub adaptive: usize,
    /// Number of escape (class-b) levels.
    pub escape_levels: usize,
}

impl VirtualChannelLayout {
    /// A layout with only escape levels (NHop / Nbc).
    ///
    /// # Panics
    /// Panics if `levels` is zero.
    #[must_use]
    pub fn escape_only(levels: usize) -> Self {
        assert!(levels > 0, "need at least one escape level");
        Self { adaptive: 0, escape_levels: levels }
    }

    /// The Enhanced-Nbc layout for a total of `total_vcs` virtual channels on
    /// a network that needs `required_levels` escape levels: the escape set is
    /// kept at its minimum and every remaining channel becomes class-a.
    ///
    /// # Panics
    /// Panics if `total_vcs <= required_levels` (Enhanced-Nbc needs at least
    /// one adaptive channel) or `required_levels` is zero.
    #[must_use]
    pub fn enhanced(total_vcs: usize, required_levels: usize) -> Self {
        assert!(required_levels > 0, "need at least one escape level");
        assert!(
            total_vcs > required_levels,
            "Enhanced-Nbc needs more than {required_levels} virtual channels, got {total_vcs}"
        );
        Self { adaptive: total_vcs - required_levels, escape_levels: required_levels }
    }

    /// Total number of virtual channels per physical channel.
    #[must_use]
    pub fn total(&self) -> usize {
        self.adaptive + self.escape_levels
    }

    /// Class of a virtual-channel index.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    #[must_use]
    pub fn class_of(&self, vc: usize) -> VcClass {
        assert!(vc < self.total(), "virtual channel {vc} out of range");
        if vc < self.adaptive {
            VcClass::Adaptive
        } else {
            VcClass::Escape(vc - self.adaptive)
        }
    }

    /// Virtual-channel index of an escape level.
    ///
    /// # Panics
    /// Panics if the level is out of range.
    #[must_use]
    pub fn escape_vc(&self, level: usize) -> usize {
        assert!(level < self.escape_levels, "escape level {level} out of range");
        self.adaptive + level
    }

    /// Indices of all class-a virtual channels.
    #[must_use]
    pub fn adaptive_vcs(&self) -> std::ops::Range<usize> {
        0..self.adaptive
    }

    /// Whether the index denotes a class-a channel.
    #[must_use]
    pub fn is_adaptive(&self, vc: usize) -> bool {
        vc < self.adaptive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enhanced_layout_matches_paper_configurations() {
        // S5 needs 4 escape levels; the paper evaluates V = 6, 9, 12.
        for &(v, expected_adaptive) in &[(6usize, 2usize), (9, 5), (12, 8)] {
            let layout = VirtualChannelLayout::enhanced(v, 4);
            assert_eq!(layout.total(), v);
            assert_eq!(layout.adaptive, expected_adaptive);
            assert_eq!(layout.escape_levels, 4);
        }
    }

    #[test]
    fn class_mapping_roundtrips() {
        let layout = VirtualChannelLayout::enhanced(9, 4);
        for vc in 0..layout.total() {
            match layout.class_of(vc) {
                VcClass::Adaptive => {
                    assert!(layout.is_adaptive(vc));
                    assert!(layout.adaptive_vcs().contains(&vc));
                }
                VcClass::Escape(level) => {
                    assert_eq!(layout.escape_vc(level), vc);
                    assert!(!layout.is_adaptive(vc));
                }
            }
        }
    }

    #[test]
    fn escape_only_layout() {
        let layout = VirtualChannelLayout::escape_only(6);
        assert_eq!(layout.total(), 6);
        assert_eq!(layout.adaptive, 0);
        assert_eq!(layout.class_of(0), VcClass::Escape(0));
        assert_eq!(layout.class_of(5), VcClass::Escape(5));
        assert!(layout.adaptive_vcs().is_empty());
    }

    #[test]
    #[should_panic(expected = "needs more than")]
    fn enhanced_requires_surplus_channels() {
        let _ = VirtualChannelLayout::enhanced(4, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn class_of_out_of_range() {
        let _ = VirtualChannelLayout::enhanced(6, 4).class_of(6);
    }
}
