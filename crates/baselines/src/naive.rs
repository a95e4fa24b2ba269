//! Reference oracles for differential testing.
//!
//! * [`check_naive`] — exhaustive single-pass saturation in the style of
//!   Biswas & Enea 2019: enumerate *every* instance of the level's axiom
//!   premise (which only involves the fixed relations `po`, `so`, `wr`,
//!   and `(so ∪ wr)+`), add all implied commit edges, and test acyclicity.
//!   No minimality tricks; cubic-ish and obviously correct.
//! * [`check_bruteforce`] — for tiny histories, enumerate all permutations
//!   of the committed transactions and ask the independent axiom validator
//!   whether any is a witnessing commit order. The ground truth of ground
//!   truths.

use awdit_core::{
    base_commit_graph, check_read_consistency, validate_commit_order, EdgeKind, History,
    HistoryIndex, IsolationLevel, SessionId, TxnId,
};

/// Exhaustive-saturation consistency check (see module docs).
pub fn check_naive(history: &History, level: IsolationLevel) -> bool {
    if !check_read_consistency(history).is_empty() {
        return false;
    }
    let index = HistoryIndex::new(history);
    let mut g = base_commit_graph(&index);
    let m = index.num_committed();

    match level {
        IsolationLevel::ReadCommitted => {
            // For every pair of reads r (from t2) po-before r_x (from t1):
            // t2 writes r_x.key ∧ t1 ≠ t2 ⇒ t2 → t1.
            for t3 in 0..m as u32 {
                let reads = index.ext_reads(t3);
                for (i, r) in reads.iter().enumerate() {
                    let t2 = r.writer;
                    for rx in &reads[i + 1..] {
                        let t1 = rx.writer;
                        if t1 != t2 && index.writes_key(t2, rx.key) {
                            g.add_edge(t2, t1, EdgeKind::Inferred(rx.key));
                        }
                    }
                }
            }
        }
        IsolationLevel::ReadAtomic => {
            // Visible set = all session predecessors ∪ all direct writers.
            for t3 in 0..m as u32 {
                let visible = ra_visible(&index, t3);
                infer_from_visible(&index, &mut g, t3, &visible);
            }
        }
        IsolationLevel::Causal => {
            // Visible set = all happens-before predecessors, via per-node
            // reverse reachability over so ∪ wr.
            if g.topological_order().is_none() {
                return false;
            }
            let preds = predecessor_lists(&index);
            for t3 in 0..m as u32 {
                let visible = hb_visible(&preds, m, t3);
                infer_from_visible(&index, &mut g, t3, &visible);
            }
        }
    }
    g.freeze();
    g.is_acyclic()
}

fn ra_visible(index: &HistoryIndex, t3: u32) -> Vec<u32> {
    let mut vis = Vec::new();
    let tid = index.txn_id(t3);
    let list = index.session_committed(SessionId(tid.session));
    let pos = index.committed_pos(t3) as usize;
    vis.extend_from_slice(&list[..pos]);
    for r in index.ext_reads(t3) {
        vis.push(r.writer);
    }
    vis.sort_unstable();
    vis.dedup();
    vis
}

fn predecessor_lists(index: &HistoryIndex) -> Vec<Vec<u32>> {
    let m = index.num_committed();
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); m];
    for s in 0..index.num_sessions() {
        let list = index.session_committed(SessionId(s as u32));
        for w in list.windows(2) {
            preds[w[1] as usize].push(w[0]);
        }
    }
    for t in 0..m as u32 {
        for r in index.ext_reads(t) {
            preds[t as usize].push(r.writer);
        }
    }
    preds
}

fn hb_visible(preds: &[Vec<u32>], m: usize, t3: u32) -> Vec<u32> {
    let mut seen = vec![false; m];
    let mut stack = preds[t3 as usize].clone();
    let mut out = Vec::new();
    while let Some(v) = stack.pop() {
        if seen[v as usize] || v == t3 {
            continue;
        }
        seen[v as usize] = true;
        out.push(v);
        stack.extend_from_slice(&preds[v as usize]);
    }
    out
}

fn infer_from_visible(
    index: &HistoryIndex,
    g: &mut awdit_core::CommitGraph,
    t3: u32,
    visible: &[u32],
) {
    for &(x, t1) in index.read_pairs(t3) {
        for &t2 in visible {
            if t2 != t1 && index.writes_key(t2, x) {
                g.add_edge(t2, t1, EdgeKind::Inferred(x));
            }
        }
    }
}

/// Maximum committed transactions [`check_bruteforce`] will attempt.
pub const BRUTE_FORCE_LIMIT: usize = 8;

/// Brute-force oracle: tries every permutation of the committed
/// transactions as a commit order. Returns `None` if the history has more
/// than [`BRUTE_FORCE_LIMIT`] committed transactions.
pub fn check_bruteforce(history: &History, level: IsolationLevel) -> Option<bool> {
    if history.num_committed() > BRUTE_FORCE_LIMIT {
        return None;
    }
    if !check_read_consistency(history).is_empty() {
        return Some(false);
    }
    let ids: Vec<TxnId> = history.committed_txns().map(|(t, _)| t).collect();
    let mut perm = ids.clone();
    Some(permutations_any(&mut perm, 0, &mut |order| {
        validate_commit_order(history, level, order).is_ok()
    }))
}

fn permutations_any(
    items: &mut [TxnId],
    k: usize,
    pred: &mut impl FnMut(&[TxnId]) -> bool,
) -> bool {
    if k == items.len() {
        return pred(items);
    }
    for i in k..items.len() {
        items.swap(k, i);
        if permutations_any(items, k + 1, pred) {
            items.swap(k, i);
            return true;
        }
        items.swap(k, i);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use awdit_core::{check, HistoryBuilder};

    fn fig4b() -> History {
        let mut b = HistoryBuilder::new();
        let s1 = b.session();
        let s2 = b.session();
        let (x, y) = (0, 1);
        b.begin(s1);
        b.write(s1, x, 1);
        b.commit(s1);
        b.begin(s1);
        b.write(s1, x, 2);
        b.write(s1, y, 2);
        b.commit(s1);
        b.begin(s2);
        b.read(s2, x, 1);
        b.read(s2, y, 2);
        b.commit(s2);
        b.finish().unwrap()
    }

    #[test]
    fn oracles_agree_on_fig4b() {
        let h = fig4b();
        assert!(check_naive(&h, IsolationLevel::ReadCommitted));
        assert!(!check_naive(&h, IsolationLevel::ReadAtomic));
        assert!(!check_naive(&h, IsolationLevel::Causal));
        assert_eq!(
            check_bruteforce(&h, IsolationLevel::ReadCommitted),
            Some(true)
        );
        assert_eq!(
            check_bruteforce(&h, IsolationLevel::ReadAtomic),
            Some(false)
        );
        assert_eq!(check_bruteforce(&h, IsolationLevel::Causal), Some(false));
    }

    #[test]
    fn oracles_agree_with_awdit_on_random_small_histories() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..60 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut b = HistoryBuilder::new();
            let sessions: Vec<_> = (0..3).map(|_| b.session()).collect();
            let mut value = 1u64;
            for _ in 0..6 {
                let s = sessions[rng.gen_range(0..3)];
                b.begin(s);
                for _ in 0..rng.gen_range(1..4) {
                    let key = rng.gen_range(0..3);
                    if rng.gen_bool(0.5) {
                        b.write(s, key, value);
                        value += 1;
                    } else {
                        // Read a random previously-written value (or a
                        // fresh bogus one occasionally).
                        let v = rng.gen_range(0..value.max(2));
                        b.read(s, key, v);
                    }
                }
                b.commit(s);
            }
            let h = b.finish().unwrap();
            for level in IsolationLevel::ALL {
                let fast = check(&h, level).is_consistent();
                let slow = check_naive(&h, level);
                assert_eq!(fast, slow, "seed {seed} level {level} (naive)");
                if let Some(brute) = check_bruteforce(&h, level) {
                    assert_eq!(fast, brute, "seed {seed} level {level} (brute)");
                }
            }
        }
    }

    #[test]
    fn brute_force_respects_limit() {
        let mut b = HistoryBuilder::new();
        let s = b.session();
        for i in 0..(BRUTE_FORCE_LIMIT as u64 + 1) {
            b.begin(s);
            b.write(s, i, i);
            b.commit(s);
        }
        let h = b.finish().unwrap();
        assert_eq!(check_bruteforce(&h, IsolationLevel::Causal), None);
    }
}
