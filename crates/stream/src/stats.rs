//! Live counters of an [`OnlineChecker`](crate::OnlineChecker) run.

/// Counters tracking stream progress and memory behaviour. `live_txns` vs
/// `retired_txns` is the headline pair: under watermark pruning the former
/// stays bounded while the latter grows with the stream.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events accepted.
    pub events: u64,
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted (including implicit aborts at `finish`).
    pub aborts: u64,
    /// Committed transactions fully processed (checked and indexed).
    pub processed: u64,
    /// Processed transactions retired by watermark pruning.
    pub retired_txns: u64,
    /// `Condensed` edges that retirement added to the DAG: orderings
    /// through a retired transaction that no live edge carried yet.
    pub condensed_edges: u64,
    /// Processed transactions currently held live (`processed - retired`).
    pub live_txns: u64,
    /// High-water mark of `live_txns`.
    pub peak_live_txns: u64,
    /// Committed transactions currently staged (waiting on dependencies).
    pub staged_txns: u64,
    /// High-water mark of `staged_txns`.
    pub peak_staged_txns: u64,
    /// Commit-relation edges currently live in the incremental DAG.
    pub live_edges: u64,
    /// Violations emitted so far.
    pub violations: u64,
    /// Reads that missed the retained window because their key had pruned
    /// writes (reported as beyond-horizon violations).
    pub horizon_misses: u64,
    /// Open transactions force-aborted by `finish`.
    pub implicit_aborts: u64,
}
