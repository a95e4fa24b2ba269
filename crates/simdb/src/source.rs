//! A [`HistorySource`] over the simulator: directed-test-generation
//! fleets, one simulated history per seed.
//!
//! CLOTHO-style directed test generation produces *fleets* of histories
//! that must be checked in bulk. [`SimSource`] is that producer shaped as
//! the engine API's input edge: give it a base [`SimConfig`], a per-seed
//! workload factory, and a seed range, and feed it straight to
//! [`Engine::check_source`](awdit_core::Engine::check_source) (or drain
//! it with [`collect_source`](awdit_core::collect_source)).
//!
//! ```
//! use awdit_core::{Engine, IsolationLevel};
//! use awdit_simdb::{DbIsolation, OpSpec, SimConfig, SimSource, TxnSpec};
//! use rand::rngs::SmallRng;
//!
//! let base = SimConfig::new(DbIsolation::Causal, 4, 0);
//! let mut source = SimSource::new(base, 50, 0..4, |_seed| {
//!     let mut i = 0u64;
//!     move |_session: usize, _rng: &mut SmallRng| {
//!         i += 1;
//!         TxnSpec::new(vec![OpSpec::Write(i % 8), OpSpec::Read(i % 8)])
//!     }
//! });
//! let mut engine = Engine::new();
//! let mut names = Vec::new();
//! engine
//!     .check_source(&mut source, Some(IsolationLevel::Causal), |name, _, outcomes| {
//!         assert!(outcomes[0].is_consistent());
//!         names.push(name);
//!     })
//!     .unwrap();
//! assert_eq!(names.len(), 4);
//! ```

use std::ops::Range;

use awdit_core::{HistorySource, SourceError, SourcedHistory};

use crate::config::SimConfig;
use crate::harness::collect_history;
use crate::spec::TxnSource;

/// A fleet of simulated histories: the base config re-seeded per history,
/// a fresh workload from the factory per seed. Yields histories named
/// `sim-<db>-s<seed>` in seed order.
pub struct SimSource<W, F> {
    config: SimConfig,
    txns: usize,
    seeds: Range<u64>,
    make: F,
    _workload: std::marker::PhantomData<fn() -> W>,
}

impl<W, F> SimSource<W, F>
where
    W: TxnSource,
    F: FnMut(u64) -> W,
{
    /// A fleet over `seeds`, each history driven for `txns` transactions
    /// on a fresh workload from `make(seed)`.
    pub fn new(config: SimConfig, txns: usize, seeds: Range<u64>, make: F) -> Self {
        SimSource {
            config,
            txns,
            seeds,
            make,
            _workload: std::marker::PhantomData,
        }
    }

    /// Number of histories left to generate.
    pub fn remaining(&self) -> usize {
        self.seeds.end.saturating_sub(self.seeds.start) as usize
    }

    /// Pops the next seed, deriving the history name, the per-seed
    /// config, and a fresh workload — shared by both source edges so the
    /// streaming and materializing paths cannot drift.
    fn next_seeded(&mut self) -> Option<(String, SimConfig, W)> {
        let seed = self.seeds.next()?;
        let name = format!("sim-{}-s{}", self.config.isolation, seed);
        let config = SimConfig {
            seed,
            ..self.config
        };
        Some((name, config, (self.make)(seed)))
    }
}

impl<W, F> HistorySource for SimSource<W, F>
where
    W: TxnSource,
    F: FnMut(u64) -> W,
{
    fn next_history(&mut self) -> Option<Result<SourcedHistory, SourceError>> {
        let (name, config, mut workload) = self.next_seeded()?;
        Some(match collect_history(config, &mut workload, self.txns) {
            Ok(history) => Ok(SourcedHistory { name, history }),
            Err(e) => Err(SourceError {
                origin: name,
                message: e.to_string(),
            }),
        })
    }

    /// The streaming edge: the simulated run's record is pushed straight
    /// into `sink` (an [`Engine`](awdit_core::Engine)'s recycled ingest
    /// arenas, typically) — the fleet never materializes a per-history
    /// nested representation.
    fn next_into(
        &mut self,
        sink: &mut dyn awdit_core::HistorySink,
    ) -> Option<Result<String, SourceError>> {
        let (name, config, mut workload) = self.next_seeded()?;
        let mut harness = crate::harness::Harness::new(config);
        harness.drive(&mut workload, self.txns);
        harness.emit_into(sink);
        Some(Ok(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbIsolation;
    use crate::spec::{OpSpec, TxnSpec};
    use awdit_core::collect_source;

    fn uniform_workload(_seed: u64) -> impl TxnSource {
        let mut i = 0u64;
        move |_session: usize, _rng: &mut rand::rngs::SmallRng| {
            i += 1;
            TxnSpec::new(vec![OpSpec::Write(i % 16), OpSpec::Read((i + 3) % 16)])
        }
    }

    #[test]
    fn fleet_yields_one_history_per_seed() {
        let base = SimConfig::new(DbIsolation::Causal, 4, 99);
        let mut src = SimSource::new(base, 40, 10..14, uniform_workload);
        assert_eq!(src.remaining(), 4);
        let fleet = collect_source(&mut src).unwrap();
        assert_eq!(fleet.len(), 4);
        assert_eq!(fleet[0].name, "sim-causal-s10");
        // Different seeds generate genuinely different histories.
        assert!(fleet.iter().all(|s| s.history.num_txns() > 0));
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let base = SimConfig::new(DbIsolation::ReadAtomic, 3, 0);
        let a = collect_source(&mut SimSource::new(base, 30, 5..8, uniform_workload)).unwrap();
        let b = collect_source(&mut SimSource::new(base, 30, 5..8, uniform_workload)).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.history.size(), y.history.size());
        }
    }
}
