//! Definition 3.1 has two halves. Saturation (*no forced ordering is
//! missing*) is cross-checked by the differential suites; this test checks
//! **minimality**: every inferred edge `t2 → t1` the algorithms add must be
//! individually *required* — either `t2 →(so ∪ wr)→ t1`, or the level's
//! axiom premise holds for some reader `t3` (so every valid commit order
//! must place `t2` before `t1`).
//!
//! Minimality is what separates AWDIT from the exhaustive baselines, so a
//! regression here silently destroys the complexity guarantees even while
//! all verdicts stay correct.

use awdit_core::graph::{is_inferred, target};
use awdit_core::{
    check_repeatable_reads, saturate_cc, saturate_ra, saturate_rc, CcStrategy, HistoryBuilder,
    HistoryIndex, IsolationLevel, SessionId,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Is `t2 -> t1` forced for `level`? Checks the axiom premise by direct
/// (slow) enumeration.
fn edge_is_required(index: &HistoryIndex, level: IsolationLevel, t2: u32, t1: u32) -> bool {
    // so ∪ wr edges are always allowed in co′.
    let so_edge = {
        let a = index.txn_id(t2);
        let b = index.txn_id(t1);
        a.session == b.session && a.index < b.index
    };
    let wr_edge = index.ext_reads(t1).iter().any(|r| r.writer == t2);
    if so_edge || wr_edge {
        return true;
    }
    let m = index.num_committed() as u32;
    match level {
        IsolationLevel::ReadCommitted => {
            // ∃ t3, reads r (from t2) po-before r_x (from t1, key x), with
            // t2 writing x.
            (0..m).any(|t3| {
                let reads = index.ext_reads(t3);
                reads.iter().enumerate().any(|(i, r)| {
                    r.writer == t2
                        && reads[i + 1..]
                            .iter()
                            .any(|rx| rx.writer == t1 && index.writes_key(t2, rx.key))
                })
            })
        }
        IsolationLevel::ReadAtomic => (0..m).any(|t3| {
            let visible = {
                let tid = index.txn_id(t3);
                let list = index.session_committed(SessionId(tid.session));
                let pos = index.committed_pos(t3) as usize;
                list[..pos].contains(&t2) || index.ext_reads(t3).iter().any(|r| r.writer == t2)
            };
            visible
                && index
                    .read_pairs(t3)
                    .iter()
                    .any(|&(x, w)| w == t1 && index.writes_key(t2, x))
        }),
        IsolationLevel::Causal => {
            // t2 hb t3 via reverse reachability (slow; fine for tests).
            let mut preds: Vec<Vec<u32>> = vec![Vec::new(); m as usize];
            for s in 0..index.num_sessions() {
                let list = index.session_committed(SessionId(s as u32));
                for w in list.windows(2) {
                    preds[w[1] as usize].push(w[0]);
                }
            }
            for t in 0..m {
                for r in index.ext_reads(t) {
                    preds[t as usize].push(r.writer);
                }
            }
            (0..m).any(|t3| {
                if !index
                    .read_pairs(t3)
                    .iter()
                    .any(|&(x, w)| w == t1 && index.writes_key(t2, x))
                {
                    return false;
                }
                // Does t2 happen-before t3?
                let mut seen = vec![false; m as usize];
                let mut stack = preds[t3 as usize].clone();
                while let Some(v) = stack.pop() {
                    if v == t2 {
                        return true;
                    }
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        stack.extend_from_slice(&preds[v as usize]);
                    }
                }
                false
            })
        }
    }
}

fn random_history(seed: u64) -> awdit_core::History {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = HistoryBuilder::new();
    let sessions: Vec<_> = (0..4).map(|_| b.session()).collect();
    let mut committed: Vec<Vec<u64>> = vec![Vec::new(); 4];
    let mut value = 1u64;
    for _ in 0..15 {
        let s = sessions[rng.gen_range(0..4)];
        b.begin(s);
        let mut pending = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            let key = rng.gen_range(0..4u64);
            if rng.gen_bool(0.5) {
                let vs = &committed[key as usize];
                if !vs.is_empty() {
                    b.read(s, key, vs[rng.gen_range(0..vs.len())]);
                }
            } else if !pending.iter().any(|&(k, _)| k == key) {
                b.write(s, key, value);
                pending.push((key, value));
                value += 1;
            }
        }
        b.commit(s);
        for (k, v) in pending {
            committed[k as usize].push(v);
        }
    }
    b.finish().unwrap()
}

#[test]
fn every_inferred_edge_is_required() {
    for seed in 0..60 {
        let h = random_history(seed);
        let index = HistoryIndex::new(&h);
        let mut graphs = vec![(IsolationLevel::ReadCommitted, saturate_rc(&index))];
        if check_repeatable_reads(&index).is_empty() {
            graphs.push((IsolationLevel::ReadAtomic, saturate_ra(&index)));
        }
        if let Ok(g) = saturate_cc(&index, CcStrategy::default()) {
            graphs.push((IsolationLevel::Causal, g));
        }
        for (level, mut g) in graphs {
            g.freeze();
            for t2 in 0..g.num_nodes() as u32 {
                for &e in g.successors(t2) {
                    let t1 = target(e);
                    if is_inferred(e) {
                        assert!(
                            edge_is_required(&index, level, t2, t1),
                            "seed {seed} {level}: spurious edge {} -> {}",
                            index.txn_id(t2),
                            index.txn_id(t1),
                        );
                    }
                }
            }
        }
    }
}

/// Inferred-edge counts must stay sane: minimal saturation never exceeds
/// one edge per (read pair × writing session) for CC, nor per read pair
/// for RC/RA.
#[test]
fn inferred_edge_counts_are_bounded() {
    for seed in 0..30 {
        let h = random_history(seed + 1000);
        let index = HistoryIndex::new(&h);
        let total_pairs: usize = (0..index.num_committed() as u32)
            .map(|t| index.read_pairs(t).len())
            .sum();
        let count_inferred = |mut g: awdit_core::CommitGraph| -> usize {
            g.freeze();
            (0..g.num_nodes() as u32)
                .map(|v| g.successors(v).iter().filter(|&&e| is_inferred(e)).count())
                .sum()
        };
        let rc = saturate_rc(&index);
        assert!(count_inferred(rc) <= index.num_ext_reads());
        if check_repeatable_reads(&index).is_empty() {
            let ra = saturate_ra(&index);
            assert!(count_inferred(ra) <= 2 * total_pairs);
        }
        if let Ok(cc) = saturate_cc(&index, CcStrategy::default()) {
            assert!(count_inferred(cc) <= total_pairs * index.num_sessions());
        }
    }
}
