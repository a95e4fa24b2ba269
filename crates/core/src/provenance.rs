//! Full edge provenance for witness cycles, derived on demand.
//!
//! The commit graph keeps one bit per edge — base (`so ∪ wr`) or inferred
//! — which is all cycle search needs. The label a user reads (session
//! order, write–read on a key, or inferred on a key) is recovered here,
//! for the edges of extracted witnesses only, so the cost is paid only by
//! inconsistent histories:
//!
//! * a base edge is session order when its endpoints are consecutive in
//!   one session, and otherwise a write–read edge on the key of the
//!   target's first read from the source — the label
//!   [`base_commit_graph`](crate::graph::base_commit_graph) emits first;
//! * an inferred edge `t2 → t1` is re-emitted by the level's
//!   per-transaction kernel ([`RcKernel`], [`RaKernel`],
//!   [`infer_cc_edges`]) run over the readers of `t1` — every kernel
//!   orders some other writer before the writer `t1` that a reader reads
//!   from. The CC kernel gets the full clock table's rows, so it drops
//!   the same hb-implied edges the saturator dropped. The readers are
//!   visited in the saturator's sequential order, so the label is the
//!   pair's first emission there: dense-id order (session-major) for RC
//!   and RA, the topological order of `so ∪ wr` for CC.

use std::collections::HashMap;

use crate::cc::{compute_hb_into, ClockTable};
use crate::graph::{base_commit_graph, Cycle, EdgeKind};
use crate::incremental::{infer_cc_edges, EdgeSink, RaKernel, RcKernel, WriterSearch};
use crate::index::HistoryIndex;
use crate::isolation::IsolationLevel;
use crate::types::SessionId;
use crate::witness::{WitnessCycle, WitnessEdge};

/// Labels every edge of `cycles` — dense-id cycles of `level`'s saturated
/// commit graph over `index` — and translates them into witnesses.
pub(crate) fn witness_cycles(
    cycles: &[Cycle],
    index: &HistoryIndex,
    level: IsolationLevel,
) -> Vec<WitnessCycle> {
    let mut labels: HashMap<(u32, u32), Option<EdgeKind>> = cycles
        .iter()
        .flat_map(|c| &c.edges)
        .filter(|e| e.inferred)
        .map(|e| ((e.from, e.to), None))
        .collect();
    if !labels.is_empty() {
        label_inferred(index, level, &mut labels);
    }
    cycles
        .iter()
        .map(|c| WitnessCycle {
            edges: c
                .edges
                .iter()
                .map(|e| WitnessEdge {
                    from: index.txn_id(e.from),
                    to: index.txn_id(e.to),
                    kind: if e.inferred {
                        labels[&(e.from, e.to)]
                            .expect("the level's kernel re-emits every inferred edge")
                    } else {
                        base_kind(index, e.from, e.to)
                    },
                })
                .collect(),
        })
        .collect()
}

/// The label of the base edge `from → to`.
fn base_kind(index: &HistoryIndex, from: u32, to: u32) -> EdgeKind {
    if index.session_of(from) == index.session_of(to)
        && index.committed_pos(to) == index.committed_pos(from) + 1
    {
        return EdgeKind::SessionOrder;
    }
    let read = index
        .ext_reads(to)
        .iter()
        .find(|r| r.writer == from)
        .expect("a base edge is session order or write-read");
    EdgeKind::WriteRead(read.key)
}

/// A sink that drops what it is given: the RA kernel's session state must
/// see every earlier transaction of a session, but only the readers'
/// emissions matter.
struct Discard;

impl EdgeSink for Discard {
    fn add_edge(&mut self, _: u32, _: u32, _: EdgeKind) {}
}

/// Fills each pending label with its pair's first emission, returning
/// `true` once none is left.
fn record(
    emitted: &mut Vec<(u32, u32, EdgeKind)>,
    labels: &mut HashMap<(u32, u32), Option<EdgeKind>>,
    pending: &mut usize,
) -> bool {
    for &(from, to, kind) in emitted.iter() {
        if let Some(slot @ None) = labels.get_mut(&(from, to)) {
            *slot = Some(kind);
            *pending -= 1;
        }
    }
    emitted.clear();
    *pending == 0
}

fn label_inferred(
    index: &HistoryIndex,
    level: IsolationLevel,
    labels: &mut HashMap<(u32, u32), Option<EdgeKind>>,
) {
    let m = index.num_committed();
    let mut is_target = vec![false; m];
    for &(_, to) in labels.keys() {
        is_target[to as usize] = true;
    }
    let is_reader: Vec<bool> = (0..m as u32)
        .map(|t| {
            index
                .ext_reads(t)
                .iter()
                .any(|r| is_target[r.writer as usize])
        })
        .collect();
    let mut pending = labels.len();
    let mut emitted: Vec<(u32, u32, EdgeKind)> = Vec::new();
    match level {
        IsolationLevel::ReadCommitted => {
            let mut kernel = RcKernel::new();
            // Readers in dense-id (session-major) order.
            for t3 in (0..m as u32).filter(|&t| is_reader[t as usize]) {
                kernel.process(index, t3, &mut emitted);
                if record(&mut emitted, labels, &mut pending) {
                    return;
                }
            }
        }
        IsolationLevel::ReadAtomic => {
            // The kernel carries per-session state: replay each reader's
            // session from its start.
            let mut kernel = RaKernel::new();
            for s in 0..index.num_sessions() as u32 {
                let list = index.session_committed(SessionId(s));
                let Some(last) = list.iter().rposition(|&t| is_reader[t as usize]) else {
                    continue;
                };
                for &t3 in &list[..=last] {
                    if !is_reader[t3 as usize] {
                        kernel.process(index, t3, &mut Discard);
                        continue;
                    }
                    kernel.process(index, t3, &mut emitted);
                    if record(&mut emitted, labels, &mut pending) {
                        return;
                    }
                }
            }
        }
        IsolationLevel::Causal => {
            // The saturation releases clock rows after their last reader,
            // so the rows are recomputed.
            let topo = base_commit_graph(index)
                .topological_order()
                .expect("a saturated CC graph has an acyclic base");
            let mut table = ClockTable::new();
            compute_hb_into(index, &topo, &mut table);
            let mut search = WriterSearch::new(0);
            for &t3 in topo.iter().filter(|&&t| is_reader[t as usize]) {
                infer_cc_edges(
                    index,
                    t3,
                    table.row(t3),
                    |w| table.row(w),
                    &mut search,
                    &mut emitted,
                );
                if record(&mut emitted, labels, &mut pending) {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Edge;
    use crate::history::HistoryBuilder;
    use crate::types::{Key, TxnId};

    /// Figure 4b: t3 reads x from t1 but y from t2, which also writes x.
    /// RA orders t2 before t1 on x, closing a cycle with t1 -so-> t2.
    #[test]
    fn fractured_read_edges_get_their_keys() {
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
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let t1 = index.dense_id(TxnId::new(0, 0));
        let t2 = index.dense_id(TxnId::new(0, 1));
        let t3 = index.dense_id(TxnId::new(1, 0));
        let edge = |from, to, inferred| Edge { from, to, inferred };
        let cycles = [
            Cycle {
                edges: vec![edge(t1, t2, false), edge(t2, t1, true)],
            },
            Cycle {
                edges: vec![edge(t2, t3, false)],
            },
        ];
        let ws = witness_cycles(&cycles, &index, IsolationLevel::ReadAtomic);
        let kinds: Vec<EdgeKind> = ws.iter().flat_map(|w| &w.edges).map(|e| e.kind).collect();
        let name = |k: Key| h.key_name(k);
        match kinds[..] {
            [EdgeKind::SessionOrder, EdgeKind::Inferred(kx), EdgeKind::WriteRead(ky)] => {
                assert_eq!((name(kx), name(ky)), (x, y));
            }
            _ => panic!("unexpected labels {kinds:?}"),
        }
        assert_eq!(ws[0].edges[0].from, TxnId::new(0, 0));
    }

    /// Two CC readers infer the same pair `t2 → t1`, on different keys,
    /// and the topological order visits them in the reverse of dense-id
    /// order. The label is the first emission in the order the saturation
    /// runs in: topological (`y`, from `b`), not session-major (`x`, from
    /// `a`).
    #[test]
    fn cc_label_follows_the_topological_emission_order() {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let s2 = b.session();
        let s3 = b.session();
        let (x, y, z, u) = (0, 1, 2, 3);
        b.begin(s0); // t1
        b.write(s0, x, 1);
        b.write(s0, y, 1);
        b.commit(s0);
        b.begin(s0); // t2
        b.write(s0, x, 2);
        b.write(s0, y, 2);
        b.write(s0, z, 2);
        b.commit(s0);
        b.begin(s1); // a: t2 happens before it through c; reads x from t1
        b.read(s1, u, 1);
        b.read(s1, x, 1);
        b.commit(s1);
        b.begin(s2); // b: sees t2 directly; reads y from t1
        b.read(s2, z, 2);
        b.read(s2, y, 1);
        b.commit(s2);
        b.begin(s3); // c
        b.read(s3, z, 2);
        b.write(s3, u, 1);
        b.commit(s3);
        let h = b.finish().unwrap();
        let index = HistoryIndex::new(&h);
        let reader_a = index.dense_id(TxnId::new(1, 0));
        let reader_b = index.dense_id(TxnId::new(2, 0));
        let topo = base_commit_graph(&index).topological_order().unwrap();
        let pos = |t| topo.iter().position(|&v| v == t).unwrap();
        assert!(reader_a < reader_b && pos(reader_b) < pos(reader_a));

        let out = crate::check(&h, IsolationLevel::Causal);
        let labels: Vec<EdgeKind> = out
            .violations()
            .iter()
            .flat_map(|v| match v {
                crate::Violation::CommitOrderCycle { cycle, .. } => cycle.edges.clone(),
                other => panic!("unexpected violation {other:?}"),
            })
            .map(|e| e.kind)
            .collect();
        match labels[..] {
            [EdgeKind::SessionOrder, EdgeKind::Inferred(k)] => assert_eq!(h.key_name(k), y),
            _ => panic!("unexpected labels {labels:?}"),
        }
    }
}
