//! Bit accounting — the "standard information theory" closing step of every
//! encoding argument.
//!
//! Each lower bound ends with: "the sketch losslessly encodes `b` arbitrary
//! bits, hence `|S| = Ω(b)`". The experiments execute the round trip
//! payload → database → sketch → decoded payload and record the three
//! numbers that sentence relates. A sketch that recovers the payload
//! exactly while being *smaller* than the payload would contradict the
//! information-theoretic step (up to the δ slack) — the harness flags such
//! anomalies, and their absence across sweeps is the reproduction's
//! evidence.

/// One encode→sketch→decode round trip.
#[derive(Clone, Copy, Debug)]
pub struct RoundTrip {
    /// Arbitrary bits hidden in the database.
    pub payload_bits: u64,
    /// Size of the sketch the decoder was given.
    pub sketch_bits: u64,
    /// Fraction of payload bits recovered correctly (1.0 = lossless).
    pub recovered_fraction: f64,
    /// Whether an exact (ECC-assisted) recovery succeeded.
    pub exact: bool,
}

impl RoundTrip {
    /// An exact recovery from a sketch materially smaller than the payload
    /// would violate the encoding argument (allowing `slack` for the code
    /// rate and the δ failure probability).
    pub fn violates_information_bound(&self, slack: f64) -> bool {
        self.exact && (self.sketch_bits as f64) < slack * self.payload_bits as f64
    }
}

/// Aggregates round trips at one parameter point.
#[derive(Clone, Debug, Default)]
pub struct Aggregate {
    trips: Vec<RoundTrip>,
}

impl Aggregate {
    /// Adds one trip.
    pub fn push(&mut self, t: RoundTrip) {
        self.trips.push(t);
    }

    /// Number of trips recorded.
    pub fn len(&self) -> usize {
        self.trips.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.trips.is_empty()
    }

    /// Fraction of trips with exact recovery.
    pub fn exact_rate(&self) -> f64 {
        if self.trips.is_empty() {
            return 0.0;
        }
        self.trips.iter().filter(|t| t.exact).count() as f64 / self.trips.len() as f64
    }

    /// Any trip violating the information bound at the given slack.
    pub fn any_violation(&self, slack: f64) -> bool {
        self.trips.iter().any(|t| t.violates_information_bound(slack))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_violation() {
        let ok =
            RoundTrip { payload_bits: 100, sketch_bits: 300, recovered_fraction: 1.0, exact: true };
        assert!(!ok.violates_information_bound(0.5));

        let impossible =
            RoundTrip { payload_bits: 1000, sketch_bits: 10, recovered_fraction: 1.0, exact: true };
        assert!(impossible.violates_information_bound(0.5));

        let lossy = RoundTrip {
            payload_bits: 1000,
            sketch_bits: 10,
            recovered_fraction: 0.5,
            exact: false,
        };
        // Lossy recovery carries no contradiction.
        assert!(!lossy.violates_information_bound(0.5));
    }

    #[test]
    fn aggregate_statistics() {
        let mut agg = Aggregate::default();
        for i in 0..4u64 {
            agg.push(RoundTrip {
                payload_bits: 100,
                sketch_bits: 200 + i * 100,
                recovered_fraction: if i < 3 { 1.0 } else { 0.5 },
                exact: i < 3,
            });
        }
        assert_eq!(agg.len(), 4);
        assert_eq!(agg.exact_rate(), 0.75);
        assert!(!agg.any_violation(0.5));
    }
}
