//! A persistent parked worker pool for the sharded saturation engine.
//!
//! The checkers parallelize by **sharding a canonical processing sequence
//! into contiguous chunks**: each worker runs the per-transaction kernel
//! over its chunk, emitting into its own edge buffer, and the buffers are
//! adopted **in chunk order**. Because the kernels are
//! independent across chunk boundaries (RC is transaction-local, RA only
//! consults its own session's state and chunks align to session
//! boundaries, CC reads precomputed clocks), the concatenation equals the
//! sequential emission for *any* partition — so verdicts, witnesses, and
//! violation order are bit-identical for every thread count, including 1.
//!
//! Dispatch runs on a long-lived [`Pool`]: `width − 1` OS threads are
//! spawned lazily on the first parallel dispatch and then **parked** on a
//! `Mutex`+`Condvar`, woken by a generation counter when a job is
//! published. A fork–join on a warm pool is therefore one lock + wake
//! instead of `W` thread spawns + joins — the per-stage fork cost that
//! used to dominate small levels. Built on `std` only — no extra
//! dependencies. Work below a threshold ([`SEQUENTIAL_CUTOFF`]) still
//! skips dispatch entirely at the call sites, and a pool of width 1
//! ([`Pool::new`] with one thread) never spawns anything: every dispatch
//! runs inline on the caller.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::index::HistoryIndex;
use crate::types::SessionId;

/// Below this many work items (committed transactions), the RC and RA
/// saturators skip parallel dispatch entirely: even a warm-pool wake over
/// a tiny history costs more than the saturation itself. CC needs no
/// cutoff: its shards have a fixed size, so a small history is one shard
/// and runs inline.
pub const SEQUENTIAL_CUTOFF: usize = 512;

/// The machine's available hardware parallelism (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a user-facing thread-count knob: `0` means "use all available
/// cores", anything else is taken literally.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// A long-lived worker pool with parked threads and scoped dispatch.
///
/// `Pool::new(w)` fixes the pool's *width* — the maximum number of
/// participants (caller + workers) any single dispatch can use; `0`
/// resolves to all cores. The `w − 1` worker threads are spawned lazily
/// on the first dispatch that wants them and then parked on a condvar
/// between jobs, so an idle pool costs nothing but parked threads and a
/// width-1 pool never spawns at all.
///
/// [`Pool::scope`] is the dispatch primitive: it publishes a borrowed
/// closure to the workers, runs the closure itself as participant 0, and
/// before returning revokes every unclaimed participant slot and waits
/// until no worker is still inside the closure — mirroring
/// [`std::thread::scope`]'s guarantee that borrows can't outlive the
/// call. A worker panic is caught, parked, and re-raised on the
/// dispatching caller; the worker itself survives and goes back to
/// parking, so one poisoned job can't wedge the pool.
///
/// Dispatches may nest (a participant may fork a dispatch of its own):
/// the inner caller always participates itself, so progress never
/// depends on a free worker existing.
#[derive(Debug)]
pub struct Pool {
    /// `None` when the width is 1 — the pool is a pure pass-through and
    /// owns no threads, locks, or counters.
    inner: Option<Arc<Inner>>,
    width: usize,
    live: LiveWorkers,
}

/// A pool's count of live worker threads: incremented when a worker is
/// spawned, decremented as its thread exits. The handle stays readable
/// after the pool is dropped, so a caller can see that `Drop` joined
/// every worker.
#[derive(Debug, Clone, Default)]
pub struct LiveWorkers(Arc<AtomicUsize>);

impl LiveWorkers {
    /// Worker threads of the pool that have not exited yet.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

/// Decrements the live-worker count when a worker thread's body ends,
/// panicking or not.
struct WorkerExit(LiveWorkers);

impl Drop for WorkerExit {
    fn drop(&mut self) {
        (self.0).0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A snapshot of the pool's lifetime counters (see the
/// `awdit_pool_{parks,wakes,steals,spawned_threads}_total` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Times a worker parked on the condvar (no claimable job).
    pub parks: u64,
    /// Times a parked worker woke to claim a job.
    pub wakes: u64,
    /// Shard-range halves stolen from another participant's slot.
    pub steals: u64,
    /// Worker threads spawned over the pool's lifetime (lazy; ≤ width−1).
    pub spawned_threads: u64,
}

#[derive(Debug)]
struct Inner {
    state: Mutex<Shared>,
    /// Workers park here; woken by a generation-counter bump.
    work: Condvar,
    /// Dispatchers wait here for their job's active participants to drain.
    done: Condvar,
    parks: AtomicU64,
    wakes: AtomicU64,
    steals: AtomicU64,
    spawned: AtomicU64,
    /// Jobs currently queued (the `awdit_pool_queue_depth` gauge).
    queue_depth: AtomicU64,
    /// Watermarks of what [`Pool::publish_metrics`] has already exported,
    /// so counters drain into the registry exactly once without resetting
    /// the lifetime totals that [`Pool::stats`] reports.
    published: [AtomicU64; 4],
}

#[derive(Debug)]
struct Shared {
    /// Published jobs with unclaimed participant tickets, oldest first.
    queue: VecDeque<Arc<Job>>,
    /// Bumped on every publish and on shutdown; parked workers recheck
    /// the queue when it moves. Wrapping is harmless: a worker only
    /// compares for *inequality* against the value it parked on.
    generation: u64,
    shutdown: bool,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// One scoped dispatch, shared between the caller and the workers that
/// claim a ticket for it.
struct Job {
    task: TaskPtr,
    /// The dispatcher's obs context, re-installed inside each worker so
    /// nested instrumented code finds it via `awdit_obs::current()`.
    obs: awdit_obs::Obs,
    /// Unclaimed participant slots. Claimed and revoked only under the
    /// pool lock (atomic only so `Job` is `Sync`).
    tickets: AtomicUsize,
    /// Next participant index to hand out; 0 is the dispatcher.
    next_part: AtomicUsize,
    /// Workers currently inside the task. Incremented/decremented under
    /// the pool lock, paired with the `done` condvar.
    active: AtomicUsize,
    /// First worker panic, re-raised on the dispatcher.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("tickets", &self.tickets)
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

/// A borrowed task pointer with its lifetime erased. Soundness rests on
/// [`Pool::scope`]: the pointee lives on the dispatcher's stack, and
/// `scope` does not return until every unclaimed ticket is revoked and
/// `active == 0` under the pool lock — after which no worker can reach
/// the pointer. This is one of the repo's three `unsafe` islands
/// (alongside the mmap window in `awdit-formats` and the `signal(2)`
/// shim in `awdit-serve`).
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are fine) and the pointer
// is only dereferenced between job publish and the scope's drain barrier,
// while the dispatcher's stack frame is pinned inside `Pool::scope`.
#[allow(unsafe_code)]
unsafe impl Send for TaskPtr {}
#[allow(unsafe_code)]
unsafe impl Sync for TaskPtr {}

impl Pool {
    /// A pool of the given width (`0` → all cores). Width 1 is a
    /// pass-through: no threads, no locks, every dispatch inline.
    pub fn new(threads: usize) -> Self {
        let width = effective_threads(threads);
        if width <= 1 {
            return Pool {
                inner: None,
                width: 1,
                live: LiveWorkers::default(),
            };
        }
        Pool {
            inner: Some(Arc::new(Inner {
                state: Mutex::new(Shared {
                    queue: VecDeque::new(),
                    generation: 0,
                    shutdown: false,
                    workers: Vec::new(),
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                parks: AtomicU64::new(0),
                wakes: AtomicU64::new(0),
                steals: AtomicU64::new(0),
                spawned: AtomicU64::new(0),
                queue_depth: AtomicU64::new(0),
                published: [const { AtomicU64::new(0) }; 4],
            })),
            width,
            live: LiveWorkers::default(),
        }
    }

    /// The pool's participant cap (≥ 1).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Worker threads spawned so far (0 until the first parallel
    /// dispatch; always 0 for a width-1 pool).
    pub fn spawned_threads(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.spawned.load(Ordering::Relaxed))
    }

    /// A handle on the count of worker threads still running; it reaches
    /// 0 once the pool is dropped.
    pub fn live_workers(&self) -> LiveWorkers {
        self.live.clone()
    }

    /// Lifetime counter snapshot.
    pub fn stats(&self) -> PoolStats {
        let Some(inner) = &self.inner else {
            return PoolStats::default();
        };
        PoolStats {
            parks: inner.parks.load(Ordering::Relaxed),
            wakes: inner.wakes.load(Ordering::Relaxed),
            steals: inner.steals.load(Ordering::Relaxed),
            spawned_threads: inner.spawned.load(Ordering::Relaxed),
        }
    }

    /// Runs `f(participant)` on up to `max_participants` threads — the
    /// caller as participant 0 plus any pool workers that claim a ticket
    /// before the caller finishes — and returns once **no thread** is
    /// still inside `f`. Participant indices are dense in
    /// `0..max_participants` but a given index may never run: callers
    /// must treat them as slot ids (e.g. steal targets), never as a
    /// completeness guarantee. The caller always participates, so the
    /// dispatch makes progress even if every worker is busy (this is what
    /// makes nested dispatch deadlock-free). Panics inside `f` — on any
    /// participant — are re-raised here after the drain barrier.
    pub fn scope<F>(&self, max_participants: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let workers = max_participants.min(self.width);
        let inner = match &self.inner {
            Some(inner) if workers > 1 => inner,
            _ => {
                f(0);
                return;
            }
        };
        let task: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: erases `task`'s borrow of the current stack frame. The
        // frame outlives every dereference: workers only reach the
        // pointer between the publish below and the drain barrier at the
        // end of this function (unclaimed tickets revoked + `active == 0`
        // observed under the pool lock), and this function does not
        // return before that barrier — including on panic paths, which
        // are funneled through `catch_unwind` first.
        #[allow(unsafe_code)]
        let task = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        });
        let job = Arc::new(Job {
            task,
            obs: awdit_obs::current(),
            tickets: AtomicUsize::new(workers - 1),
            next_part: AtomicUsize::new(1),
            active: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        {
            let mut st = inner.state.lock().unwrap();
            // Lazily grow the worker set to what this dispatch can use.
            while st.workers.len() < workers - 1 {
                let arc = Arc::clone(inner);
                self.live.0.fetch_add(1, Ordering::SeqCst);
                let exit = WorkerExit(self.live.clone());
                let handle = std::thread::Builder::new()
                    .name("awdit-pool".into())
                    .spawn(move || {
                        let _exit = exit;
                        worker_loop(&arc)
                    })
                    .expect("spawn pool worker");
                st.workers.push(handle);
                inner.spawned.fetch_add(1, Ordering::Relaxed);
            }
            st.queue.push_back(Arc::clone(&job));
            inner
                .queue_depth
                .store(st.queue.len() as u64, Ordering::Relaxed);
            st.generation = st.generation.wrapping_add(1);
            inner.work.notify_all();
        }
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0)));
        // Drain barrier: revoke every unclaimed ticket so no new worker
        // can join, then wait out the ones already inside the task.
        {
            let mut st = inner.state.lock().unwrap();
            if job.tickets.swap(0, Ordering::Relaxed) > 0 {
                if let Some(pos) = st.queue.iter().position(|j| Arc::ptr_eq(j, &job)) {
                    st.queue.remove(pos);
                    inner
                        .queue_depth
                        .store(st.queue.len() as u64, Ordering::Relaxed);
                }
            }
            while job.active.load(Ordering::Relaxed) > 0 {
                st = inner.done.wait(st).unwrap();
            }
        }
        let worker_panic = job.panic.lock().unwrap().take();
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
    }

    /// Drains the pool counters into the metrics registry (exactly-once
    /// via published watermarks) and refreshes the queue-depth gauge.
    pub fn publish_metrics(&self, metrics: &awdit_obs::metrics::MetricsRegistry) {
        let Some(inner) = &self.inner else { return };
        let series: [(&str, &AtomicU64); 4] = [
            ("awdit_pool_parks_total", &inner.parks),
            ("awdit_pool_wakes_total", &inner.wakes),
            ("awdit_pool_steals_total", &inner.steals),
            ("awdit_pool_spawned_threads_total", &inner.spawned),
        ];
        for (i, (name, total)) in series.iter().enumerate() {
            let delta = drain_watermark(total, &inner.published[i]);
            if delta > 0 {
                metrics.counter(name).add(delta);
            }
        }
        metrics
            .gauge("awdit_pool_queue_depth")
            .set(inner.queue_depth.load(Ordering::Relaxed) as f64);
    }

    fn note_steals(&self, n: u64) {
        if n > 0 {
            if let Some(inner) = &self.inner {
                inner.steals.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let Some(inner) = &self.inner else { return };
        let handles = {
            let mut st = inner.state.lock().unwrap();
            st.shutdown = true;
            st.generation = st.generation.wrapping_add(1);
            inner.work.notify_all();
            std::mem::take(&mut st.workers)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Advances `published` to `total` with a CAS and returns the step, so
/// concurrent publishers never double-export a delta.
fn drain_watermark(total: &AtomicU64, published: &AtomicU64) -> u64 {
    loop {
        let cur = total.load(Ordering::Relaxed);
        let prev = published.load(Ordering::Relaxed);
        if cur <= prev {
            return 0;
        }
        if published
            .compare_exchange(prev, cur, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return cur - prev;
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut st = inner.state.lock().unwrap();
    let mut just_woke = false;
    loop {
        if st.shutdown {
            return;
        }
        let claimable = st
            .queue
            .iter()
            .position(|j| j.tickets.load(Ordering::Relaxed) > 0);
        let Some(pos) = claimable else {
            let parked_gen = st.generation;
            inner.parks.fetch_add(1, Ordering::Relaxed);
            // Loop-free wait is fine: the top of the loop re-derives the
            // predicate (shutdown / claimable job) from scratch, so a
            // spurious wakeup just parks again.
            st = inner.work.wait(st).unwrap();
            just_woke = st.generation != parked_gen;
            continue;
        };
        if just_woke {
            inner.wakes.fetch_add(1, Ordering::Relaxed);
            just_woke = false;
        }
        let job = Arc::clone(&st.queue[pos]);
        let remaining = job.tickets.load(Ordering::Relaxed) - 1;
        job.tickets.store(remaining, Ordering::Relaxed);
        if remaining == 0 {
            st.queue.remove(pos);
            inner
                .queue_depth
                .store(st.queue.len() as u64, Ordering::Relaxed);
        }
        let participant = job.next_part.fetch_add(1, Ordering::Relaxed);
        job.active.fetch_add(1, Ordering::Relaxed);
        drop(st);
        run_participant(&job, participant);
        st = inner.state.lock().unwrap();
        job.active.fetch_sub(1, Ordering::Relaxed);
        // Under the lock, paired with the dispatcher's `done` wait — no
        // missed wakeup is possible.
        inner.done.notify_all();
    }
}

fn run_participant(job: &Job, participant: usize) {
    let _ctx = awdit_obs::set_current(&job.obs);
    let _span = job.obs.span("pool_worker");
    // SAFETY: the dispatcher is blocked inside `Pool::scope` until this
    // participant's `active` decrement, so the pointee is alive (see
    // `TaskPtr`).
    #[allow(unsafe_code)]
    let task = unsafe { &*job.task.0 };
    if let Err(payload) =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(participant)))
    {
        let mut slot = job.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

// ---------------------------------------------------------------------------
// Shard dispatch on the pool
// ---------------------------------------------------------------------------

/// Runs `f` over every shard, on up to `threads` pool participants, and
/// returns the results **in shard order** (the deterministic-merge
/// contract). `threads` is the per-dispatch budget; the pool's width caps
/// it. Shards are dealt as contiguous per-participant ranges with
/// upper-half chunk-stealing, so uneven shards still balance.
///
/// `stage` names the pipeline stage for the per-stage pool metrics
/// (`awdit_pool_stage_busy_ns_total{stage="..."}`), so a metrics snapshot
/// shows *which* stage saturates the pool, not just that something did.
///
/// With `threads <= 1`, a width-1 pool, or a single shard this
/// degenerates to a plain sequential loop — no dispatch at all.
pub fn map_shards<S, R, F>(
    pool: &Pool,
    threads: usize,
    stage: &'static str,
    shards: &[S],
    f: F,
) -> Vec<R>
where
    S: Sync,
    R: Send,
    F: Fn(usize, &S) -> R + Sync,
{
    let workers = threads.min(pool.width()).min(shards.len());
    if workers <= 1 {
        return shards.iter().enumerate().map(|(i, s)| f(i, s)).collect();
    }
    debug_assert!(shards.len() <= u32::MAX as usize, "shard count fits u32");
    // The dispatch is instrumented through the *dispatcher's* obs
    // context: workers re-install it before running (nested instrumented
    // code then finds it via `awdit_obs::current()`). Per-shard busy
    // timing only runs when the handle is enabled.
    let obs = awdit_obs::current();
    let timed = obs.enabled();
    let pool_start = timed.then(std::time::Instant::now);
    // Each participant owns a packed (start, end) range slot; it pops its
    // own front, and when empty steals the upper half of another slot.
    let slots: Vec<AtomicU64> = {
        let ranges = split_even(shards.len(), workers);
        (0..workers)
            .map(|p| {
                let r = ranges.get(p).cloned().unwrap_or(0..0);
                AtomicU64::new(pack_range(r.start, r.end))
            })
            .collect()
    };
    let stolen = AtomicU64::new(0);
    let busy_ns = AtomicU64::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(shards.len()));
    pool.scope(workers, |p| {
        let mut local: Vec<(usize, R)> = Vec::new();
        let mut busy = 0u64;
        while let Some(i) = claim_shard(&slots, p, &stolen) {
            let t = timed.then(std::time::Instant::now);
            local.push((i, f(i, &shards[i])));
            if let Some(t) = t {
                busy += t.elapsed().as_nanos() as u64;
            }
        }
        if busy > 0 {
            busy_ns.fetch_add(busy, Ordering::Relaxed);
        }
        if !local.is_empty() {
            collected.lock().unwrap().extend(local);
        }
    });
    pool.note_steals(stolen.load(Ordering::Relaxed));
    if let (Some(start), Some(metrics)) = (pool_start, obs.metrics()) {
        // Capacity = wall time × participants; utilization is the
        // fraction of that capacity the shard kernels actually ran for.
        let capacity_ns = (start.elapsed().as_nanos() as u64).saturating_mul(workers as u64);
        record_pool_metrics(metrics, stage, busy_ns.load(Ordering::Relaxed), capacity_ns);
        pool.publish_metrics(metrics);
    }
    let mut tagged = collected.into_inner().unwrap();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

fn pack_range(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

fn unpack_range(packed: u64) -> (u32, u32) {
    ((packed >> 32) as u32, packed as u32)
}

/// Claims the next shard index for participant `p`: pop the front of its
/// own range, else steal the upper half of another participant's range
/// (the stolen remainder parks in `p`'s own — empty — slot). Every range
/// is either in a slot (stealable) or held by a live participant that
/// will drain it, so the dispatch completes even when some participant
/// slots are never claimed by a worker. CAS races are benign: ranges only
/// shrink and ranges from disjoint index regions never repeat, so there
/// is no ABA.
fn claim_shard(slots: &[AtomicU64], p: usize, stolen: &AtomicU64) -> Option<usize> {
    let own = &slots[p];
    loop {
        let cur = own.load(Ordering::Relaxed);
        let (start, end) = unpack_range(cur);
        if start >= end {
            break;
        }
        if own
            .compare_exchange_weak(
                cur,
                pack_range(start + 1, end),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            return Some(start as usize);
        }
    }
    let k = slots.len();
    for off in 1..k {
        let victim = &slots[(p + off) % k];
        loop {
            let cur = victim.load(Ordering::Relaxed);
            let (start, end) = unpack_range(cur);
            if start >= end {
                break;
            }
            let mid = start + (end - start) / 2;
            if victim
                .compare_exchange(
                    cur,
                    pack_range(start, mid),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                stolen.fetch_add(1, Ordering::Relaxed);
                own.store(pack_range(mid + 1, end), Ordering::Relaxed);
                return Some(mid as usize);
            }
        }
    }
    None
}

/// Emits one fork–join's pool metrics: the aggregate counters plus the
/// per-stage labeled series (the labeled busy counters partition the
/// aggregate, so a snapshot shows *which* stage saturates the pool).
fn record_pool_metrics(
    metrics: &awdit_obs::metrics::MetricsRegistry,
    stage: &'static str,
    busy_ns: u64,
    capacity_ns: u64,
) {
    metrics.counter("awdit_pool_forks_total").inc();
    metrics.counter("awdit_pool_busy_ns_total").add(busy_ns);
    metrics.counter("awdit_pool_wall_ns_total").add(capacity_ns);
    if capacity_ns > 0 {
        metrics
            .gauge("awdit_pool_utilization")
            .set(busy_ns as f64 / capacity_ns as f64);
    }
    metrics
        .counter(&format!(
            "awdit_pool_stage_forks_total{{stage=\"{stage}\"}}"
        ))
        .inc();
    metrics
        .counter(&format!(
            "awdit_pool_stage_busy_ns_total{{stage=\"{stage}\"}}"
        ))
        .add(busy_ns);
}

/// Splits `0..n` into up to `parts` contiguous, near-equal ranges (none
/// empty; fewer ranges when `n < parts`).
pub fn split_even(n: usize, parts: usize) -> Vec<Range<u32>> {
    if n == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start as u32..(start + len) as u32);
        start += len;
    }
    out
}

/// Splits the index range of `weights` into up to `parts` contiguous
/// groups of near-equal total weight (greedy sweep; every group
/// non-empty). Used to shard *sessions* so each worker gets a similar
/// number of transactions even when session lengths are skewed.
pub fn split_weighted(weights: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    if n == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let total: usize = weights.iter().sum();
    let target = total / parts + 1;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        // Close the group when it reaches the target, but always leave at
        // least one element per remaining group.
        let remaining_groups = parts - out.len();
        let remaining_items = n - i - 1;
        if (acc >= target && remaining_groups > 1) || remaining_items < remaining_groups {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
            if out.len() == parts {
                break;
            }
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

/// Contiguous session groups for per-session sharding (RA), weighted by
/// each session's committed-transaction count so skewed session lengths
/// still balance.
pub fn session_groups(index: &HistoryIndex, parts: usize) -> Vec<Range<usize>> {
    let weights: Vec<usize> = (0..index.num_sessions())
        .map(|s| index.session_committed(SessionId(s as u32)).len())
        .collect();
    split_weighted(&weights, parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_covers_range() {
        let parts = split_even(10, 3);
        assert_eq!(parts, vec![0..4, 4..7, 7..10]);
        assert_eq!(split_even(2, 8).len(), 2);
        assert!(split_even(0, 4).is_empty());
    }

    #[test]
    fn split_weighted_is_contiguous_and_total() {
        let w = [5usize, 1, 1, 1, 10, 1, 1];
        let groups = split_weighted(&w, 3);
        assert!(groups.len() <= 3 && !groups.is_empty());
        // Contiguous cover of 0..7.
        assert_eq!(groups.first().unwrap().start, 0);
        assert_eq!(groups.last().unwrap().end, 7);
        for pair in groups.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // More groups than items degenerates to singletons.
        assert_eq!(split_weighted(&[1, 1], 5).len(), 2);
    }

    #[test]
    fn map_shards_preserves_shard_order() {
        let shards: Vec<usize> = (0..37).collect();
        let seq_pool = Pool::new(1);
        let par_pool = Pool::new(8);
        let seq = map_shards(&seq_pool, 1, "test_stage", &shards, |i, &s| (i, s * 2));
        let par = map_shards(&par_pool, 8, "test_stage", &shards, |i, &s| (i, s * 2));
        assert_eq!(seq, par);
        for (i, &(j, v)) in par.iter().enumerate() {
            assert_eq!(i, j);
            assert_eq!(v, i * 2);
        }
    }

    #[test]
    fn width_one_pool_never_spawns() {
        let pool = Pool::new(1);
        let shards: Vec<usize> = (0..100).collect();
        let out = map_shards(&pool, 8, "test_stage", &shards, |_, &s| s + 1);
        assert_eq!(out.len(), 100);
        assert_eq!(pool.spawned_threads(), 0);
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn pool_reuses_workers_across_dispatches() {
        let pool = Pool::new(4);
        for round in 0..16 {
            let shards: Vec<usize> = (0..64).collect();
            let out = map_shards(&pool, 4, "test_stage", &shards, move |_, &s| s * 2 + round);
            assert_eq!(out.len(), 64);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i * 2 + round);
            }
        }
        // Lazy spawn happens once; later dispatches reuse the parked set.
        assert!(pool.spawned_threads() <= 3);
    }

    #[test]
    fn claim_shard_drains_every_index_exactly_once() {
        let ranges = split_even(97, 4);
        let slots: Vec<AtomicU64> = (0..4)
            .map(|p| {
                let r = ranges.get(p).cloned().unwrap_or(0..0);
                AtomicU64::new(pack_range(r.start, r.end))
            })
            .collect();
        let stolen = AtomicU64::new(0);
        // A single participant must still drain all slots (steals).
        let mut seen = [false; 97];
        while let Some(i) = claim_shard(&slots, 2, &stolen) {
            assert!(!seen[i], "index {i} claimed twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
        assert!(stolen.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}
