//! The branch predictor: bimodal, gshare, or static not-taken direction
//! prediction over one table of two-bit counters and a direct-mapped BTB.

use crate::components::PredictorKind;

/// Two-bit-counter direction predictor plus a direct-mapped BTB; the
/// [`PredictorKind`] chosen at construction selects how the counters are
/// indexed and trained.
#[derive(Debug, Clone)]
pub struct Predictor {
    kind: PredictorKind,
    counters: Vec<u8>,
    btb_tags: Vec<u64>,
    btb_targets: Vec<u64>,
    mask: usize,
    /// Global outcome history; only gshare shifts it, so it stays 0 (and
    /// the direction index stays the plain PC index) for the other kinds.
    history: u64,
    /// Correct direction predictions.
    pub correct: u64,
    /// Mispredictions (direction or target).
    pub mispredicts: u64,
}

impl Predictor {
    /// Builds a `kind` predictor with `entries` counters/BTB slots (power
    /// of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(kind: PredictorKind, entries: usize) -> Predictor {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Predictor {
            kind,
            counters: vec![1; entries], // weakly not-taken
            btb_tags: vec![u64::MAX; entries],
            btb_targets: vec![0; entries],
            mask: entries - 1,
            history: 0,
            correct: 0,
            mispredicts: 0,
        }
    }

    #[inline]
    fn dir_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) as usize) & self.mask
    }

    #[inline]
    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & self.mask
    }

    /// Predicts a branch at `pc`: `(taken, predicted_target)`.
    pub fn predict(&self, pc: u64) -> (bool, Option<u64>) {
        let taken = self.counters[self.dir_index(pc)] >= 2;
        let b = self.btb_index(pc);
        let target = (self.btb_tags[b] == pc).then(|| self.btb_targets[b]);
        (taken, target)
    }

    /// Updates with the architectural outcome; returns whether the earlier
    /// prediction was fully correct (direction and, when taken, target).
    ///
    /// A not-taken predictor never trains: its counters stay weakly
    /// not-taken and its BTB empty, so it is correct exactly when the
    /// branch falls through.
    pub fn update(&mut self, pc: u64, taken: bool, target: u64) -> bool {
        let (pred_taken, pred_target) = self.predict(pc);
        let ok = pred_taken == taken && (!taken || pred_target == Some(target));
        if ok {
            self.correct += 1;
        } else {
            self.mispredicts += 1;
        }
        if self.kind == PredictorKind::NotTaken {
            return ok;
        }
        let i = self.dir_index(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
            let b = self.btb_index(pc);
            self.btb_tags[b] = pc;
            self.btb_targets[b] = target;
        } else {
            *c = c.saturating_sub(1);
        }
        if self.kind == PredictorKind::Gshare {
            self.history = (self.history << 1) | u64::from(taken);
        }
        ok
    }

    /// Misprediction rate so far.
    pub fn mispredict_rate(&self) -> f64 {
        let total = self.correct + self.mispredicts;
        if total == 0 {
            0.0
        } else {
            self.mispredicts as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_loop_branch() {
        let mut p = Predictor::new(PredictorKind::Bimodal, 64);
        let pc = 0x1000;
        // Train: always taken to 0x2000.
        let mut last_ok = false;
        for _ in 0..8 {
            last_ok = p.update(pc, true, 0x2000);
        }
        assert!(last_ok, "predictor should have learned the branch");
        assert_eq!(p.predict(pc), (true, Some(0x2000)));
        // A single not-taken outcome is a mispredict but doesn't unlearn.
        assert!(!p.update(pc, false, 0));
        assert!(p.predict(pc).0);
    }

    #[test]
    fn target_change_counts_as_mispredict() {
        let mut p = Predictor::new(PredictorKind::Bimodal, 64);
        let pc = 0x1000;
        for _ in 0..4 {
            p.update(pc, true, 0x2000);
        }
        assert!(!p.update(pc, true, 0x3000), "new target must mispredict");
        assert!(p.update(pc, true, 0x3000));
    }

    #[test]
    fn initial_state_predicts_not_taken() {
        let p = Predictor::new(PredictorKind::Bimodal, 16);
        assert_eq!(p.predict(0x1000), (false, None));
        assert_eq!(p.mispredict_rate(), 0.0);
    }

    #[test]
    fn gshare_separates_correlated_branches() {
        let mut g = Predictor::new(PredictorKind::Gshare, 16);
        let mut b = Predictor::new(PredictorKind::Bimodal, 16);
        // Alternating taken/not-taken at one pc: bimodal oscillates around
        // the weakly-not-taken boundary, gshare keys off the history bit.
        for i in 0..64u64 {
            let taken = i % 2 == 0;
            g.update(0x1000, taken, 0x2000);
            b.update(0x1000, taken, 0x2000);
        }
        assert!(
            g.mispredicts < b.mispredicts,
            "gshare {} vs bimodal {}",
            g.mispredicts,
            b.mispredicts
        );
    }

    #[test]
    fn not_taken_counts_outcomes() {
        let mut p = Predictor::new(PredictorKind::NotTaken, 16);
        assert!(p.update(0x10, false, 0));
        assert!(!p.update(0x10, true, 0x20));
        // A taken outcome trains nothing: the branch is still predicted
        // not-taken with no target.
        assert!(!p.update(0x10, true, 0x20));
        assert_eq!((p.correct, p.mispredicts), (1, 2));
        assert_eq!(p.predict(0x10), (false, None));
    }
}
