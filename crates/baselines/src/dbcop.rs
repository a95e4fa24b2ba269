//! A DBCop-style Causal Consistency checker (after Biswas & Enea, OOPSLA
//! 2019).
//!
//! DBCop checks CC by computing the full transitive closure of `so ∪ wr`
//! and then saturating the commit relation against it. The closure is the
//! dominating cost: stored as one bitset per transaction, it takes
//! `O(m²/64)` space and `O(m·e/64)` time — polynomial, but a full factor
//! of `m` behind AWDIT's vector-clock representation, which is exactly the
//! scaling gap Fig. 7 shows.

use awdit_core::{base_commit_graph, check_read_consistency, EdgeKind, History, HistoryIndex};

/// A dense bitset over transaction ids.
#[derive(Clone, Debug)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: u32) {
        self.words[(i / 64) as usize] |= 1 << (i % 64);
    }

    #[inline]
    fn get(&self, i: u32) -> bool {
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    fn union_with(&mut self, other: &BitSet) {
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// DBCop-style CC check: bitset transitive closure + exhaustive
/// saturation. Returns `true` iff the history satisfies Causal
/// Consistency.
pub fn check_dbcop_cc(history: &History) -> bool {
    if !check_read_consistency(history).is_empty() {
        return false;
    }
    let index = HistoryIndex::new(history);
    let mut g = base_commit_graph(&index);
    let m = index.num_committed();
    let topo = match g.topological_order() {
        Some(t) => t,
        None => return false,
    };

    // Transitive closure of so ∪ wr in reverse topological order:
    // reach[v] = ⋃ over successors w of ({w} ∪ reach[w]).
    let mut reach: Vec<BitSet> = vec![BitSet::new(m); m];
    for &v in topo.iter().rev() {
        let mut r = BitSet::new(m);
        for &e in g.successors(v) {
            let w = awdit_core::graph::target(e);
            r.set(w);
            r.union_with(&reach[w as usize]);
        }
        reach[v as usize] = r;
    }

    // Saturation: for each read (x, t1) of t3 and every t2 writing x with
    // t2 →+ t3 (closure membership), add t2 → t1.
    let mut writers_of: std::collections::HashMap<awdit_core::Key, Vec<u32>> =
        std::collections::HashMap::new();
    for t in 0..m as u32 {
        for &x in index.keys_written(t) {
            writers_of.entry(x).or_default().push(t);
        }
    }
    for t3 in 0..m as u32 {
        for &(x, t1) in index.read_pairs(t3) {
            if let Some(ws) = writers_of.get(&x) {
                for &t2 in ws {
                    if t2 != t1 && t2 != t3 && reach[t2 as usize].get(t3) {
                        g.add_edge(t2, t1, EdgeKind::Inferred(x));
                    }
                }
            }
        }
    }
    g.freeze();
    g.is_acyclic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{random_noisy_history, random_plausible_history, GenParams};
    use awdit_core::{check, IsolationLevel};

    #[test]
    fn agrees_with_awdit_on_random_histories() {
        for seed in 0..40 {
            let h = random_plausible_history(
                seed,
                GenParams {
                    sessions: 4,
                    txns: 12,
                    ..GenParams::default()
                },
            );
            assert_eq!(
                check_dbcop_cc(&h),
                check(&h, IsolationLevel::Causal).is_consistent(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn agrees_with_awdit_on_noisy_histories() {
        for seed in 0..25 {
            let h = random_noisy_history(seed, GenParams::default());
            assert_eq!(
                check_dbcop_cc(&h),
                check(&h, IsolationLevel::Causal).is_consistent(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn bitset_basics() {
        let mut a = BitSet::new(130);
        a.set(0);
        a.set(64);
        a.set(129);
        assert!(a.get(0) && a.get(64) && a.get(129));
        assert!(!a.get(1) && !a.get(65));
        let mut b = BitSet::new(130);
        b.set(65);
        b.union_with(&a);
        assert!(b.get(65) && b.get(129));
    }
}
