//! The shared in-order core timing model.
//!
//! All five organizations price instructions the same way — one cycle per
//! instruction plus cache and branch-prediction penalties — so their cycle
//! counts are comparable and the differences between organizations show up
//! where the paper says they do: in interface traffic, checking, and
//! recovery mechanics.

use crate::cache::Cache;
use crate::predict::Predictor;
use crate::report::{CoreConfig, TimingReport};
use lis_core::{DynInst, InstClass, IsaSpec, F_BR_TAKEN, F_BR_TARGET, F_EFF_ADDR, F_OPCODE};

/// Cycle accounting for an in-order core.
#[derive(Debug)]
pub struct CoreModel {
    /// Instruction cache.
    pub icache: Cache,
    /// Data cache.
    pub dcache: Cache,
    /// Branch predictor.
    pub pred: Predictor,
    /// Accumulated cycles.
    pub cycles: u64,
    mispredict_penalty: u64,
}

impl CoreModel {
    /// Builds the model from a configuration; `cfg.timing` selects the
    /// predictor, replacement policy, and prefetcher.
    pub fn new(cfg: &CoreConfig) -> CoreModel {
        let t = cfg.timing;
        CoreModel {
            icache: Cache::with_components(cfg.icache, t.replacement, t.prefetcher),
            dcache: Cache::with_components(cfg.dcache, t.replacement, t.prefetcher),
            pred: Predictor::new(t.predictor, cfg.predictor_entries),
            cycles: 0,
            mispredict_penalty: cfg.mispredict_penalty,
        }
    }

    /// Accounts for one retired instruction described by a published record.
    ///
    /// Uses only information available at the `Decode` level: the opcode
    /// index (for the class), the effective address, and branch resolution.
    pub fn retire(&mut self, isa: &IsaSpec, di: &DynInst) {
        self.cycles += 1 + self.icache.access(di.header.phys_pc);
        let Some(op) = di.field(F_OPCODE) else { return };
        let class = isa.inst(op as u16).class;
        match class {
            InstClass::Load | InstClass::Store => {
                if let Some(ea) = di.field(F_EFF_ADDR) {
                    self.cycles += self.dcache.access(ea);
                }
            }
            InstClass::Branch | InstClass::Jump => {
                let taken = di.field(F_BR_TAKEN).unwrap_or(0) != 0;
                let target = di.field(F_BR_TARGET).unwrap_or(di.header.next_pc);
                if !self.pred.update(di.header.pc, taken, target) {
                    self.cycles += self.mispredict_penalty;
                }
            }
            _ => {}
        }
    }

    /// Folds the model's counters into a report.
    pub fn fill(&self, report: &mut TimingReport) {
        report.cycles = self.cycles;
        report.icache_misses = self.icache.misses;
        report.dcache_misses = self.dcache.misses;
        report.mispredicts = self.pred.mispredicts;
    }
}
