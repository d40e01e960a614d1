//! Arrival processes: *when* the requests of a generated or replayed
//! stream arrive.
//!
//! [`ArrivalProcess`] is the inter-arrival law — Poisson, uniform,
//! immediate, or a Markov-modulated chain of those ([`MarkovArrivals`],
//! the MMPP-style model behind the flash-crowd and diurnal presets) — and
//! the crate-private `Pacer` turns one into the virtual clock a
//! [`PacedSource`](crate::session::PacedSource) stamps its requests with.
//! Everything is seeded and deterministic; nothing here touches a session.
//! Re-exported from [`crate::session`].

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inter-arrival process of a synthetic or replayed request stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_hz` requests per second (exponential
    /// inter-arrival gaps — a Poisson process).
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_hz: f64,
    },
    /// Fixed inter-arrival interval.
    Uniform {
        /// Gap between consecutive arrivals.
        interval: Duration,
    },
    /// All requests arrive immediately (no pacing) — an offered load far
    /// above capacity, useful for exercising admission control.
    Immediate,
    /// Markov-modulated arrivals ([`MarkovArrivals`]): a discrete state
    /// chain where each state carries its own simple arrival process and
    /// the chain steps after every arrival — the MMPP-style model behind
    /// flash-crowd and diurnal load shapes
    /// ([`ArrivalProcess::flash_crowd`], [`ArrivalProcess::diurnal`]).
    MarkovModulated(MarkovArrivals),
}

impl ArrivalProcess {
    fn validate(&self) {
        match self {
            ArrivalProcess::Poisson { rate_hz } => {
                assert!(
                    *rate_hz > 0.0 && rate_hz.is_finite(),
                    "Poisson rate must be positive and finite"
                );
            }
            ArrivalProcess::MarkovModulated(chain) => chain.validate(),
            ArrivalProcess::Uniform { .. } | ArrivalProcess::Immediate => {}
        }
    }

    fn next_gap(&mut self, rng: &mut StdRng) -> Duration {
        match self {
            ArrivalProcess::Poisson { rate_hz } => {
                // Inverse-CDF sample of Exp(rate). The unit sample is
                // clamped away from both endpoints: at u → 1 the ln
                // argument hits zero and the gap diverges to infinity (a
                // permanently stalled source); at u → 0 the gap collapses
                // to zero and defeats pacing. The 1 ns floor keeps the
                // virtual clock strictly monotone even at rates where the
                // exponential gap rounds below timer resolution.
                let u: f64 = rng.gen_range(0.0..1.0);
                let u = u.clamp(1e-12, 1.0 - 1e-12);
                Duration::from_secs_f64(-(1.0 - u).ln() / *rate_hz).max(Duration::from_nanos(1))
            }
            ArrivalProcess::Uniform { interval } => *interval,
            ArrivalProcess::Immediate => Duration::ZERO,
            ArrivalProcess::MarkovModulated(chain) => chain.next_gap(rng),
        }
    }

    /// Two-state flash-crowd preset: a `steady` state at `steady_hz` and a
    /// `flash` state at `spike_factor × steady_hz`, with geometric dwell
    /// times of `steady_arrivals` and `spike_arrivals` requests
    /// respectively (the chain steps once per arrival).
    ///
    /// # Panics
    ///
    /// Panics if a rate, factor, or dwell length is not positive.
    pub fn flash_crowd(
        steady_hz: f64,
        spike_factor: f64,
        steady_arrivals: u64,
        spike_arrivals: u64,
    ) -> Self {
        assert!(
            spike_factor > 1.0 && spike_factor.is_finite(),
            "spike factor must exceed 1"
        );
        assert!(
            steady_arrivals > 0 && spike_arrivals > 0,
            "dwell lengths must be positive"
        );
        let leave_steady = 1.0 / steady_arrivals as f64;
        let leave_spike = 1.0 / spike_arrivals as f64;
        ArrivalProcess::MarkovModulated(MarkovArrivals::new(
            vec![
                ("steady", ArrivalProcess::Poisson { rate_hz: steady_hz }),
                (
                    "flash",
                    ArrivalProcess::Poisson {
                        rate_hz: steady_hz * spike_factor,
                    },
                ),
            ],
            vec![
                vec![1.0 - leave_steady, leave_steady],
                vec![leave_spike, 1.0 - leave_spike],
            ],
        ))
    }

    /// Four-state diurnal preset: a trough → ramp → peak → ramp cycle
    /// between `trough_hz` and `peak_hz` (the ramp runs at the geometric
    /// mean), advancing with probability `1 / dwell_arrivals` per arrival.
    ///
    /// # Panics
    ///
    /// Panics if a rate or the dwell length is not positive.
    pub fn diurnal(trough_hz: f64, peak_hz: f64, dwell_arrivals: u64) -> Self {
        assert!(dwell_arrivals > 0, "dwell length must be positive");
        assert!(
            trough_hz > 0.0 && peak_hz > trough_hz,
            "need peak_hz > trough_hz > 0"
        );
        let ramp_hz = (trough_hz * peak_hz).sqrt();
        let advance = 1.0 / dwell_arrivals as f64;
        let stay = 1.0 - advance;
        let p = |rate_hz: f64| ArrivalProcess::Poisson { rate_hz };
        ArrivalProcess::MarkovModulated(MarkovArrivals::new(
            vec![
                ("trough", p(trough_hz)),
                ("rise", p(ramp_hz)),
                ("peak", p(peak_hz)),
                ("fall", p(ramp_hz)),
            ],
            vec![
                vec![stay, advance, 0.0, 0.0],
                vec![0.0, stay, advance, 0.0],
                vec![0.0, 0.0, stay, advance],
                vec![advance, 0.0, 0.0, stay],
            ],
        ))
    }
}

/// A Markov-modulated arrival chain: named states each holding a *simple*
/// [`ArrivalProcess`] (Poisson / Uniform / Immediate — nesting another
/// chain is rejected), plus a row-stochastic transition matrix sampled
/// once per emitted arrival. The state is exposed
/// ([`MarkovArrivals::state`]) so a workload generator can couple key
/// choice to the regime — a flash crowd that also flips the hot set.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovArrivals {
    states: Vec<(String, ArrivalProcess)>,
    transitions: Vec<Vec<f64>>,
    current: usize,
}

impl MarkovArrivals {
    /// Builds the chain, starting in state 0.
    ///
    /// # Panics
    ///
    /// Panics (via [`MarkovArrivals::validate`]) if there are no states, a
    /// state nests another chain, the matrix is not square over the
    /// states, or a row is not a probability distribution.
    pub fn new(states: Vec<(&str, ArrivalProcess)>, transitions: Vec<Vec<f64>>) -> Self {
        let chain = MarkovArrivals {
            states: states
                .into_iter()
                .map(|(name, p)| (name.to_string(), p))
                .collect(),
            transitions,
            current: 0,
        };
        chain.validate();
        chain
    }

    /// Validates the chain shape.
    ///
    /// # Panics
    ///
    /// See [`MarkovArrivals::new`].
    pub fn validate(&self) {
        let n = self.states.len();
        assert!(n > 0, "Markov chain needs at least one state");
        for (name, process) in &self.states {
            assert!(
                !matches!(process, ArrivalProcess::MarkovModulated(_)),
                "state {name:?} nests a Markov chain"
            );
            process.validate();
        }
        assert_eq!(self.transitions.len(), n, "transition matrix must be n×n");
        for (i, row) in self.transitions.iter().enumerate() {
            assert_eq!(row.len(), n, "transition row {i} must have {n} entries");
            let mut sum = 0.0;
            for &p in row {
                assert!(
                    (0.0..=1.0).contains(&p) && p.is_finite(),
                    "transition probabilities must be in [0, 1]"
                );
                sum += p;
            }
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "transition row {i} must sum to 1 (got {sum})"
            );
        }
    }

    /// Index of the current state.
    pub fn state(&self) -> usize {
        self.current
    }

    /// Name of the current state.
    pub fn state_name(&self) -> &str {
        &self.states[self.current].0
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Samples one inter-arrival gap from the current state's process,
    /// then steps the chain. Public so a workload generator can drive the
    /// chain itself and read [`MarkovArrivals::state`] between arrivals.
    pub fn next_gap(&mut self, rng: &mut StdRng) -> Duration {
        let gap = self.states[self.current].1.next_gap(rng);
        let u: f64 = rng.gen_range(0.0..1.0);
        let row = &self.transitions[self.current];
        let mut acc = 0.0;
        for (next, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                self.current = next;
                break;
            }
        }
        gap
    }
}

/// Shared pacing state of the generated sources: a virtual clock advanced
/// by the arrival process.
#[derive(Debug)]
pub(crate) struct Pacer {
    clock: Duration,
    arrivals: ArrivalProcess,
    rng: StdRng,
}

impl Pacer {
    pub(crate) fn new(arrivals: ArrivalProcess, seed: u64) -> Self {
        arrivals.validate();
        Pacer {
            clock: Duration::ZERO,
            arrivals,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub(crate) fn next_arrival(&mut self) -> Duration {
        self.clock += self.arrivals.next_gap(&mut self.rng);
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- Poisson gap sampler (bugfix pin) ---------------------------------

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The inverse-CDF exponential sampler must never emit an
        /// infinite gap (u → 1 stalls the source forever), a zero gap
        /// (defeats pacing), or a NaN — at any rate and seed.
        #[test]
        fn poisson_gaps_are_always_finite_and_positive(
            seed in 0u64..u64::MAX,
            rate_exp in -3i32..9,
        ) {
            let rate_hz = 10f64.powi(rate_exp);
            let mut arrivals = ArrivalProcess::Poisson { rate_hz };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut clock = Duration::ZERO;
            for _ in 0..256 {
                let gap = arrivals.next_gap(&mut rng);
                proptest::prop_assert!(gap > Duration::ZERO, "gap must be positive");
                // ~27.7 mean gaps is the clamp ceiling: -ln(1e-12)/rate.
                proptest::prop_assert!(
                    gap.as_secs_f64() <= 28.0 / rate_hz,
                    "gap {:?} exceeds the clamp ceiling at rate {rate_hz}",
                    gap
                );
                let next = clock + gap;
                proptest::prop_assert!(next > clock, "virtual clock must advance");
                clock = next;
            }
        }
    }

    // -- Markov-modulated arrivals ----------------------------------------

    #[test]
    fn markov_arrivals_sample_finite_monotone_gaps_and_visit_states() {
        let mut arrivals = ArrivalProcess::flash_crowd(1000.0, 10.0, 20, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let ArrivalProcess::MarkovModulated(chain) = &mut arrivals else {
            panic!("flash_crowd builds a Markov chain");
        };
        assert_eq!(chain.num_states(), 2);
        assert_eq!(chain.state_name(), "steady");
        let mut visited = [false; 2];
        let mut clock = Duration::ZERO;
        for _ in 0..2000 {
            visited[chain.state()] = true;
            let gap = chain.next_gap(&mut rng);
            assert!(gap > Duration::ZERO);
            clock += gap;
        }
        assert!(visited[0] && visited[1], "chain must visit both states");
        assert!(clock > Duration::ZERO);
    }

    #[test]
    fn diurnal_preset_cycles_through_four_states() {
        let mut arrivals = ArrivalProcess::diurnal(100.0, 10_000.0, 8);
        let mut rng = StdRng::seed_from_u64(11);
        let ArrivalProcess::MarkovModulated(chain) = &mut arrivals else {
            panic!("diurnal builds a Markov chain");
        };
        assert_eq!(chain.num_states(), 4);
        let mut visited = [false; 4];
        for _ in 0..500 {
            visited[chain.state()] = true;
            chain.next_gap(&mut rng);
        }
        assert!(visited.iter().all(|&v| v), "cycle must reach every state");
    }

    #[test]
    #[should_panic(expected = "row")]
    fn markov_rejects_non_stochastic_rows() {
        let _ = MarkovArrivals::new(
            vec![
                ("a", ArrivalProcess::Immediate),
                ("b", ArrivalProcess::Immediate),
            ],
            vec![vec![0.7, 0.7], vec![0.5, 0.5]],
        );
    }

    #[test]
    #[should_panic(expected = "nests a Markov chain")]
    fn markov_rejects_nested_chains() {
        let inner = MarkovArrivals::new(vec![("x", ArrivalProcess::Immediate)], vec![vec![1.0]]);
        let _ = MarkovArrivals::new(
            vec![("outer", ArrivalProcess::MarkovModulated(inner))],
            vec![vec![1.0]],
        );
    }
}
