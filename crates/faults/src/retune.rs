//! The retune trigger: the hook through which degradation events reach the
//! serving layer's autotuner (`DESIGN.md` §15).
//!
//! The simulated machine accumulates monotone degradation counters (banks
//! quarantined, regions degraded off their Eq-2 tier). The autotuner does not
//! care about the totals — it cares about *new* events since it last looked,
//! because a fresh quarantine invalidates whatever placement the incumbent
//! variant was promoted on. [`RetuneTrigger`] is that edge detector: a
//! watermark over any monotonically non-decreasing event count.

/// Edge detector over a monotone degradation-event counter.
///
/// One trigger sits beside each serve worker's resident machine (a machine
/// rebuilt after a caught panic gets a fresh one); after every served run
/// the worker feeds it the machine's current
/// `degradation_events()` total and demotes the artifact's incumbent tune
/// variant iff new events fired during that execution.
#[derive(Debug, Clone, Default)]
pub struct RetuneTrigger {
    watermark: u64,
}

impl RetuneTrigger {
    /// A trigger that has seen no events.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the current monotone event total and returns how many events
    /// are *new* since the previous observation (0 when nothing changed).
    /// A total below the watermark (a machine rebuilt from scratch) resets
    /// the watermark rather than underflowing.
    pub fn observe(&mut self, total: u64) -> u64 {
        let new = total.saturating_sub(self.watermark);
        self.watermark = total;
        new
    }

    /// The highest total observed so far.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_only_new_events() {
        let mut t = RetuneTrigger::new();
        assert_eq!(t.observe(0), 0);
        assert_eq!(t.observe(3), 3);
        assert_eq!(t.observe(3), 0);
        assert_eq!(t.observe(5), 2);
        assert_eq!(t.watermark(), 5);
    }

    #[test]
    fn rebuilt_machine_resets_watermark() {
        let mut t = RetuneTrigger::new();
        assert_eq!(t.observe(4), 4);
        // A fresh machine starts its counters at zero again; the trigger
        // must not underflow or report phantom events.
        assert_eq!(t.observe(0), 0);
        assert_eq!(t.observe(2), 2);
    }
}
