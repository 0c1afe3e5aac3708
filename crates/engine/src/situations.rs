//! The measured counterpart of the paper's Table I: nine retrieval
//! situations, their observed probabilities and mean service times.

use simclock::{RunningStats, SimDuration};

/// The nine situations of Table I. "R" is a result lookup, "I" an
/// inverted-list lookup; the suffix names the device combination that
/// served it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Situation {
    /// S1 — result served from memory.
    S1ResultMem,
    /// S2 — list served entirely from memory.
    S2ListMem,
    /// S3 — result served from SSD.
    S3ResultSsd,
    /// S4 — list served entirely from SSD.
    S4ListSsd,
    /// S5 — list served from memory + SSD.
    S5ListMemSsd,
    /// S6 — list served from memory + HDD.
    S6ListMemHdd,
    /// S7 — list served from SSD + HDD (possibly with a memory prefix).
    S7ListSsdHdd,
    /// S8 — result not cached: computed from the index (HDD path).
    S8ResultHdd,
    /// S9 — list read entirely from HDD.
    S9ListHdd,
}

impl Situation {
    /// All situations, in table order.
    pub const ALL: [Situation; 9] = [
        Situation::S1ResultMem,
        Situation::S2ListMem,
        Situation::S3ResultSsd,
        Situation::S4ListSsd,
        Situation::S5ListMemSsd,
        Situation::S6ListMemHdd,
        Situation::S7ListSsdHdd,
        Situation::S8ResultHdd,
        Situation::S9ListHdd,
    ];

    /// Row label ("S1" … "S9").
    pub fn label(&self) -> &'static str {
        match self {
            Situation::S1ResultMem => "S1",
            Situation::S2ListMem => "S2",
            Situation::S3ResultSsd => "S3",
            Situation::S4ListSsd => "S4",
            Situation::S5ListMemSsd => "S5",
            Situation::S6ListMemHdd => "S6",
            Situation::S7ListSsdHdd => "S7",
            Situation::S8ResultHdd => "S8",
            Situation::S9ListHdd => "S9",
        }
    }

    /// Human description matching the table's columns.
    pub fn description(&self) -> &'static str {
        match self {
            Situation::S1ResultMem => "R from memory",
            Situation::S2ListMem => "I from memory",
            Situation::S3ResultSsd => "R from SSD",
            Situation::S4ListSsd => "I from SSD",
            Situation::S5ListMemSsd => "I from memory+SSD",
            Situation::S6ListMemHdd => "I from memory+HDD",
            Situation::S7ListSsdHdd => "I from SSD+HDD",
            Situation::S8ResultHdd => "R computed (HDD)",
            Situation::S9ListHdd => "I from HDD",
        }
    }

    fn index(&self) -> usize {
        Situation::ALL
            .iter()
            .position(|s| s == self)
            .expect("ALL is exhaustive")
    }
}

/// Classify an inverted-list byte split into its situation.
pub fn classify_list(from_mem: u64, from_ssd: u64, from_hdd: u64) -> Situation {
    match (from_mem > 0, from_ssd > 0, from_hdd > 0) {
        (true, false, false) => Situation::S2ListMem,
        (false, true, false) => Situation::S4ListSsd,
        (true, true, false) => Situation::S5ListMemSsd,
        (true, false, true) => Situation::S6ListMemHdd,
        (_, true, true) => Situation::S7ListSsdHdd,
        _ => Situation::S9ListHdd,
    }
}

/// Occurrence counts and service-time statistics per situation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SituationTable {
    stats: [RunningStats; 9],
}

impl SituationTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event.
    pub fn record(&mut self, situation: Situation, time: SimDuration) {
        self.stats[situation.index()].push_duration(time);
    }

    /// Occurrences of a situation.
    pub fn count(&self, situation: Situation) -> u64 {
        self.stats[situation.index()].count()
    }

    /// Total recorded events.
    pub fn total(&self) -> u64 {
        self.stats.iter().map(RunningStats::count).sum()
    }

    /// Observed probability of a situation.
    pub fn probability(&self, situation: Situation) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(situation) as f64 / total as f64
        }
    }

    /// Mean service time of a situation.
    pub fn mean_time(&self, situation: Situation) -> SimDuration {
        self.stats[situation.index()].mean_duration()
    }

    /// The running service-time statistics (nanoseconds) of a situation:
    /// the float state `PartialEq` compares, for digests that must see a
    /// change in the order records arrived.
    pub fn stats(&self, situation: Situation) -> &RunningStats {
        &self.stats[situation.index()]
    }

    /// Render the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::from("Situation  Description           Probability  Mean time\n");
        for s in Situation::ALL {
            out.push_str(&format!(
                "{:<10} {:<21} {:>10.4}%  {}\n",
                s.label(),
                s.description(),
                self.probability(s) * 100.0,
                self.mean_time(s),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_combinations() {
        assert_eq!(classify_list(1, 0, 0), Situation::S2ListMem);
        assert_eq!(classify_list(0, 1, 0), Situation::S4ListSsd);
        assert_eq!(classify_list(1, 1, 0), Situation::S5ListMemSsd);
        assert_eq!(classify_list(1, 0, 1), Situation::S6ListMemHdd);
        assert_eq!(classify_list(0, 1, 1), Situation::S7ListSsdHdd);
        assert_eq!(classify_list(1, 1, 1), Situation::S7ListSsdHdd);
        assert_eq!(classify_list(0, 0, 1), Situation::S9ListHdd);
        assert_eq!(classify_list(0, 0, 0), Situation::S9ListHdd);
    }

    #[test]
    fn table_accumulates() {
        let mut t = SituationTable::new();
        t.record(Situation::S1ResultMem, SimDuration::from_micros(1));
        t.record(Situation::S1ResultMem, SimDuration::from_micros(3));
        t.record(Situation::S8ResultHdd, SimDuration::from_millis(10));
        assert_eq!(t.count(Situation::S1ResultMem), 2);
        assert_eq!(t.total(), 3);
        assert!((t.probability(Situation::S1ResultMem) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            t.mean_time(Situation::S1ResultMem),
            SimDuration::from_micros(2)
        );
    }

    #[test]
    fn render_mentions_every_row() {
        let t = SituationTable::new();
        let s = t.render();
        for row in Situation::ALL {
            assert!(s.contains(row.label()));
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Situation::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 9);
    }
}
