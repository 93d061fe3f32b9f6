//! Ingress/egress pipeline with recirculation accounting.
//!
//! Models Figure 4 of the paper: a directory state transition enters the
//! ingress pipeline, traverses the lookup MAU and the state-transition-table
//! MAU, then *recirculates* so the first MAU can apply the entry update the
//! second MAU decided. Invalidations are generated in the egress pipeline
//! via multicast. The pipeline charges time per traversal and per
//! recirculation, and counts recirculations for reporting.

use mind_sim::SimTime;

use crate::mau::{MauStage, OpBudgetExceeded};

/// The switch data-plane pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    traversal_time: SimTime,
    recirculation_time: SimTime,
    lookup_mau: MauStage,
    stt_mau: MauStage,
    recirculations: u64,
}

impl Pipeline {
    /// Creates a pipeline with the given per-traversal and per-recirculation
    /// costs (from `mind_net::LatencyConfig`).
    pub fn new(traversal_time: SimTime, recirculation_time: SimTime) -> Self {
        Pipeline {
            traversal_time,
            recirculation_time,
            lookup_mau: MauStage::new(MauStage::DEFAULT_OP_BUDGET),
            stt_mau: MauStage::new(MauStage::DEFAULT_OP_BUDGET),
            recirculations: 0,
        }
    }

    /// A directory state transition: lookup MAU, STT MAU, then one
    /// recirculation back to the lookup MAU to apply the update (paper
    /// Figure 4, steps 1–3). Returns the total data-plane delay.
    ///
    /// # Errors
    ///
    /// Propagates [`OpBudgetExceeded`] if a per-stage program would not fit
    /// (indicates a mis-designed pipeline program, not a runtime condition).
    pub fn directory_transition(&mut self) -> Result<SimTime, OpBudgetExceeded> {
        // Pass 1: lookup the directory entry (1 op) and match the STT row
        // (3 ops: key compose, match, action select).
        self.lookup_mau.execute(1)?;
        self.stt_mau.execute(3)?;
        // Recirculate; pass 2 applies the update in the lookup MAU (2 ops:
        // state write + sharer-list update).
        self.lookup_mau.execute(2)?;
        self.recirculations += 1;
        Ok(self.traversal_time + self.recirculation_time)
    }

    /// Total recirculations.
    pub fn recirculations(&self) -> u64 {
        self.recirculations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> Pipeline {
        Pipeline::new(SimTime::from_nanos(400), SimTime::from_nanos(600))
    }

    #[test]
    fn transition_charges_recirculation() {
        let mut p = pipeline();
        let t = p.directory_transition().unwrap();
        assert_eq!(t, SimTime::from_nanos(1_000));
        assert_eq!(p.recirculations(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut p = pipeline();
        for _ in 0..5 {
            p.directory_transition().unwrap();
        }
        assert_eq!(p.recirculations(), 5);
    }
}
