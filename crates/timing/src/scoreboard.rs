//! The register scoreboard shared by the out-of-order core and the
//! timing-directed pipeline.

use lis_core::OperandRef;

/// Cycle at which each architectural register's value becomes available,
/// stored flat per register class and grown on demand.
///
/// A zero entry means "no constraint": every consumer computes readiness as
/// at least one cycle, so a register never written reads exactly like one
/// that was never tracked. Growth is bounded by the operand encoding
/// (`u8` class, `u16` index): a hostile record stream can grow a class to
/// at most 64 Ki entries (512 KiB), never without bound.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scoreboard {
    classes: Vec<Vec<u64>>,
}

impl Scoreboard {
    /// The cycle `r` becomes available, or 0 when nothing wrote it.
    #[inline]
    pub(crate) fn get(&self, r: OperandRef) -> u64 {
        self.classes
            .get(usize::from(r.class))
            .and_then(|regs| regs.get(usize::from(r.index)))
            .copied()
            .unwrap_or(0)
    }

    /// Records that `r` becomes available at `cycle`.
    #[inline]
    pub(crate) fn set(&mut self, r: OperandRef, cycle: u64) {
        let (class, index) = (usize::from(r.class), usize::from(r.index));
        if class >= self.classes.len() {
            self.classes.resize_with(class + 1, Vec::new);
        }
        let regs = &mut self.classes[class];
        if index >= regs.len() {
            regs.resize(index + 1, 0);
        }
        regs[index] = cycle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_registers_read_zero_and_sets_grow() {
        let mut sb = Scoreboard::default();
        let r = |class, index| OperandRef { class, index };
        assert_eq!(sb.get(r(3, 40)), 0);
        sb.set(r(3, 40), 9);
        sb.set(r(0, 1), 4);
        assert_eq!(sb.get(r(3, 40)), 9);
        assert_eq!(sb.get(r(0, 1)), 4);
        assert_eq!(sb.get(r(3, 39)), 0);
        assert_eq!(sb.get(r(2, 0)), 0);
        sb.set(r(255, u16::MAX), 1);
        assert_eq!(sb.get(r(255, u16::MAX)), 1);
    }
}
