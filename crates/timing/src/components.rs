//! Closed, config-selected timing components.
//!
//! The paper's premise is that the timing side is the part you *vary* while
//! the single functional specification stays fixed. Three components vary:
//! branch prediction, cache replacement, and prefetching. Each is a closed
//! set of named variants — a [`PredictorKind`], a [`ReplacementKind`], a
//! [`PrefetchKind`] — that a [`TimingConfig`] selects and that flows from the
//! CLI and the serve protocol into every core model. The state of each
//! variant lives in the struct that uses it ([`Predictor`](crate::Predictor),
//! [`Cache`](crate::Cache)), which matches on the kind in place.
//!
//! Every variant is deterministic (the "random" replacement policy is a
//! fixed-seed xorshift), so sweeps and trace replays remain byte-identical
//! across job counts and machines.

/// Which branch predictor a core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Two-bit bimodal counters with a direct-mapped BTB (the seed model).
    Bimodal,
    /// Global-history gshare with the same BTB.
    Gshare,
    /// Static always-not-taken.
    NotTaken,
}

impl PredictorKind {
    /// The kind's name as it appears in presets and JSON.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Bimodal => "bimodal",
            PredictorKind::Gshare => "gshare",
            PredictorKind::NotTaken => "not-taken",
        }
    }
}

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// True LRU (the seed model).
    Lru,
    /// First-in first-out.
    Fifo,
    /// Seeded pseudo-random.
    Random,
}

impl ReplacementKind {
    /// The kind's name as it appears in presets and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementKind::Lru => "lru",
            ReplacementKind::Fifo => "fifo",
            ReplacementKind::Random => "random",
        }
    }
}

/// Which prefetcher a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchKind {
    /// No prefetching (the seed model).
    None,
    /// Next-line on demand miss.
    NextLine,
    /// Global-stride.
    Stride,
}

impl PrefetchKind {
    /// The kind's name as it appears in presets and JSON.
    pub fn name(self) -> &'static str {
        match self {
            PrefetchKind::None => "none",
            PrefetchKind::NextLine => "next-line",
            PrefetchKind::Stride => "stride",
        }
    }
}

/// One named selection of timing components — the unit the sweep's timing
/// axis and `lis trace replay --timing` iterate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Preset name as used on the command line and in sweep JSON.
    pub name: &'static str,
    /// Branch predictor selection.
    pub predictor: PredictorKind,
    /// Cache replacement selection (both caches).
    pub replacement: ReplacementKind,
    /// Prefetcher selection (both caches).
    pub prefetcher: PrefetchKind,
}

impl TimingConfig {
    /// The seed components: bimodal predictor, LRU replacement, no
    /// prefetching. Byte-identical behavior to the models before components
    /// were selectable.
    pub const CLASSIC: TimingConfig = TimingConfig {
        name: "classic",
        predictor: PredictorKind::Bimodal,
        replacement: ReplacementKind::Lru,
        prefetcher: PrefetchKind::None,
    };

    /// Gshare prediction with next-line prefetching over LRU caches.
    pub const AGGRESSIVE: TimingConfig = TimingConfig {
        name: "aggressive",
        predictor: PredictorKind::Gshare,
        replacement: ReplacementKind::Lru,
        prefetcher: PrefetchKind::NextLine,
    };

    /// Bimodal prediction with FIFO replacement and stride prefetching.
    pub const STREAM: TimingConfig = TimingConfig {
        name: "stream",
        predictor: PredictorKind::Bimodal,
        replacement: ReplacementKind::Fifo,
        prefetcher: PrefetchKind::Stride,
    };

    /// The floor: not-taken prediction, random replacement, no prefetching.
    pub const MINIMAL: TimingConfig = TimingConfig {
        name: "minimal",
        predictor: PredictorKind::NotTaken,
        replacement: ReplacementKind::Random,
        prefetcher: PrefetchKind::None,
    };

    /// Every named preset, in catalog order.
    pub const PRESETS: [TimingConfig; 4] =
        [Self::CLASSIC, Self::AGGRESSIVE, Self::STREAM, Self::MINIMAL];

    /// Looks a preset up by name.
    pub fn named(name: &str) -> Option<TimingConfig> {
        Self::PRESETS.into_iter().find(|p| p.name == name)
    }

    /// Comma-separated preset names, for error messages and usage text.
    pub fn preset_names() -> String {
        Self::PRESETS.map(|p| p.name).join(", ")
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig::CLASSIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_catalog_is_complete_and_unique() {
        // The catalog must cross all three dimensions: every variant of
        // every component appears in at least one preset.
        assert!(TimingConfig::PRESETS.len() >= 3);
        for kind in [PredictorKind::Bimodal, PredictorKind::Gshare, PredictorKind::NotTaken] {
            assert!(TimingConfig::PRESETS.iter().any(|p| p.predictor == kind), "{kind:?}");
        }
        for kind in [ReplacementKind::Lru, ReplacementKind::Fifo, ReplacementKind::Random] {
            assert!(TimingConfig::PRESETS.iter().any(|p| p.replacement == kind), "{kind:?}");
        }
        for kind in [PrefetchKind::None, PrefetchKind::NextLine, PrefetchKind::Stride] {
            assert!(TimingConfig::PRESETS.iter().any(|p| p.prefetcher == kind), "{kind:?}");
        }
        let mut names: Vec<_> = TimingConfig::PRESETS.iter().map(|p| p.name).collect();
        names.dedup();
        assert_eq!(names.len(), TimingConfig::PRESETS.len(), "duplicate preset name");
        assert_eq!(TimingConfig::named("classic"), Some(TimingConfig::CLASSIC));
        assert_eq!(TimingConfig::named("no-such"), None);
        assert_eq!(TimingConfig::default(), TimingConfig::CLASSIC);
    }
}
