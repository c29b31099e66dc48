//! `cor-aio`: asynchronous I/O submission over a [`DiskManager`].
//!
//! The batched read path (PR 5) made physical submissions *coalesced* —
//! a sorted batch of adjacent pages costs one positioned read — but
//! every submission is still synchronous: the CPU idles while each run
//! is in flight. This module adds the completion-queue model the
//! ROADMAP's async-I/O item calls for:
//!
//! * [`AioEngine::submit`] takes a sorted page batch, splits it into
//!   maximal consecutive runs (the same run structure
//!   `DiskManager::read_pages` coalesces to), and hands the runs to a
//!   backend that keeps up to `queue_depth` of them in flight at once;
//! * the returned [`SubmissionTicket`] is a completion queue: callers
//!   harvest with [`poll`](SubmissionTicket::poll) /
//!   [`wait`](SubmissionTicket::wait) (or per-page via
//!   [`Completion`]), overlapping their own compute with in-flight
//!   reads;
//! * a failed run **poisons** its ticket: no partial bytes are ever
//!   observable — every completion of the failed run reports the error,
//!   and [`SubmissionTicket::wait_pages`] returns nothing but the error.
//!
//! # Backends
//!
//! * [`AioBackend::Sync`] — the degenerate backend: `submit` performs
//!   every run inline on the calling thread. Used at queue depth 1 and
//!   when no worker thread can be spawned; byte-identical to a plain
//!   `read_pages` loop by construction.
//! * [`AioBackend::ThreadPool`] — `queue_depth` worker threads pull
//!   runs from a shared queue and execute them with ordinary blocking
//!   `read_pages` calls. Portable, zero external dependencies, and the
//!   backend every [`DiskManager`] supports — including wrappers that
//!   add behaviour per call ([`FaultyDisk`](crate::FaultyDisk) fault
//!   ordinals, seek charging), because the reads still flow through
//!   the trait.
//!
//! The depth alone picks the backend; there is nothing to configure. A
//! raw-syscall kernel-ring backend shipped once and was removed: it
//! could engage only on an unwrapped `FileDisk`, where depth > 1 does
//! not pay with either backend, and never on the seek-charged leg that
//! carries the committed async win (DESIGN.md §13).
//!
//! # Accounting
//!
//! The engine deliberately does **not** touch the core
//! [`IoStats`] transfer counters: a read is counted
//! only when its bytes cross into a pool frame, and the pool reads
//! synchronously, so `reads` totals stay comparable across queue
//! depths. The engine maintains only the
//! new `aio_*` counters — runs submitted, runs completed, and the peak
//! number of runs in flight — which are zero whenever the engine is
//! unused (the depth-1 byte-identity mode).
//!
//! When a submission would exceed the configured depth the surplus runs
//! queue up (submission never blocks) and the event is journaled to the
//! flight recorder as a queue-saturation mark; time a demand access
//! spends blocked on an incomplete run is profiled under the
//! `aio_completion` wait class.

use crate::disk::{DiskError, DiskManager};
use crate::page::{PageBuf, PageId, PAGE_SIZE};
use crate::stats::IoStats;
use cor_obs::{flight, wait};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Hard cap on worker threads / kernel queue entries, a safety bound
/// for absurd depth requests; the effective queue depth is clamped here.
const MAX_QUEUE_DEPTH: usize = 64;

/// Which submission backend an [`AioEngine`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AioBackend {
    /// Inline execution on the submitting thread (depth 1 / fallback).
    Sync,
    /// Portable worker-thread pool over blocking `read_pages`.
    ThreadPool,
}

impl AioBackend {
    /// Stable lowercase name, stamped into bench JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            AioBackend::Sync => "sync",
            AioBackend::ThreadPool => "threadpool",
        }
    }
}

/// Configuration for an [`AioEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AioConfig {
    /// Maximum runs in flight at once. Depth 1 resolves to the inline
    /// [`AioBackend::Sync`] backend, anything above it to the thread
    /// pool.
    pub queue_depth: usize,
}

impl AioConfig {
    /// Config for `queue_depth`.
    pub fn with_depth(queue_depth: usize) -> Self {
        AioConfig { queue_depth }
    }
}

/// `DiskError` carries a non-clonable `std::io::Error`; completions of a
/// poisoned run each need to report it, so reproduce the error losslessly
/// enough (kind + rendered message) for every observer.
fn clone_err(e: &DiskError) -> DiskError {
    match e {
        DiskError::BadPage(p) => DiskError::BadPage(*p),
        DiskError::Io { op, path, source } => DiskError::Io {
            op,
            path: path.clone(),
            source: std::io::Error::new(source.kind(), source.to_string()),
        },
        DiskError::Crashed => DiskError::Crashed,
    }
}

/// One run's shared completion slot: filled exactly once by whichever
/// backend executed the run, awaited by any number of harvesters.
struct RunSlot {
    state: Mutex<Option<Result<Vec<PageBuf>, DiskError>>>,
    cv: Condvar,
}

impl RunSlot {
    fn new() -> Arc<Self> {
        Arc::new(RunSlot {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, result: Result<Vec<PageBuf>, DiskError>) {
        let mut st = self.state.lock().expect("aio slot lock");
        debug_assert!(st.is_none(), "run completed twice");
        *st = Some(result);
        self.cv.notify_all();
    }

    fn is_done(&self) -> bool {
        self.state.lock().expect("aio slot lock").is_some()
    }

    /// Block until the run completes, then run `f` over the outcome.
    fn with_result<R>(&self, f: impl FnOnce(&Result<Vec<PageBuf>, DiskError>) -> R) -> R {
        let mut st = self.state.lock().expect("aio slot lock");
        while st.is_none() {
            st = self.cv.wait(st).expect("aio slot lock");
        }
        f(st.as_ref().expect("checked above"))
    }
}

/// Handle to one page of an in-flight submission: the unit the buffer
/// pool parks in its pending table until the page is demanded.
pub struct Completion {
    pid: PageId,
    slot: Arc<RunSlot>,
    /// The page's index within its run's buffer vector.
    offset: usize,
}

impl Completion {
    /// The page this completion will deliver.
    pub fn page_id(&self) -> PageId {
        self.pid
    }

    /// Whether the page's run has completed (successfully or not).
    pub fn is_done(&self) -> bool {
        self.slot.is_done()
    }

    /// Wait for the run and copy the page's bytes into `dst`. A failed
    /// run poisons every one of its completions: the error comes back
    /// and `dst` is untouched — partial bytes are never observable.
    ///
    /// Time spent blocked on an incomplete run is profiled under
    /// [`wait::WaitClass::AioCompletion`].
    pub fn wait_into(&self, dst: &mut PageBuf) -> Result<(), DiskError> {
        let harvest = |res: &Result<Vec<PageBuf>, DiskError>| match res {
            Ok(pages) => {
                dst.copy_from_slice(&pages[self.offset][..]);
                Ok(())
            }
            Err(e) => Err(clone_err(e)),
        };
        if self.slot.is_done() {
            self.slot.with_result(harvest)
        } else {
            wait::timed(wait::WaitClass::AioCompletion, || {
                self.slot.with_result(harvest)
            })
        }
    }
}

/// Progress of a [`SubmissionTicket`], from [`SubmissionTicket::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketStatus {
    /// Some runs are still in flight: `done` of `total` completed so far.
    Pending {
        /// Runs completed so far.
        done: usize,
        /// Total runs in the submission.
        total: usize,
    },
    /// Every run completed successfully; pages are ready to harvest.
    Ready,
    /// At least one run failed; the whole ticket is poisoned.
    Poisoned,
}

/// The completion queue for one [`AioEngine::submit`] call.
///
/// Holds one [`Completion`] per *requested page position* (duplicates
/// included), in request order. Harvest the whole batch with
/// [`wait_pages`](Self::wait_pages), or split the ticket into per-page
/// handles with [`into_completions`](Self::into_completions) for
/// deferred, out-of-order harvesting.
pub struct SubmissionTicket {
    runs: Vec<Arc<RunSlot>>,
    pages: Vec<Completion>,
}

impl SubmissionTicket {
    /// Number of physical runs the submission was split into.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of requested page positions (duplicates included).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Non-blocking progress check.
    pub fn poll(&self) -> TicketStatus {
        let mut done = 0usize;
        let mut poisoned = false;
        for run in &self.runs {
            let st = run.state.lock().expect("aio slot lock");
            match st.as_ref() {
                Some(Err(_)) => poisoned = true,
                Some(Ok(_)) => done += 1,
                None => {}
            }
        }
        if poisoned {
            TicketStatus::Poisoned
        } else if done == self.runs.len() {
            TicketStatus::Ready
        } else {
            TicketStatus::Pending {
                done,
                total: self.runs.len(),
            }
        }
    }

    /// Block until every run has completed. `Ok` only when all runs
    /// succeeded; the first failure (in run order) otherwise.
    pub fn wait(&self) -> Result<(), DiskError> {
        for run in &self.runs {
            run.with_result(|res| match res {
                Ok(_) => Ok(()),
                Err(e) => Err(clone_err(e)),
            })?;
        }
        Ok(())
    }

    /// Block until every run has completed and return the page bytes in
    /// request order. A poisoned ticket yields only the error — never a
    /// partially-filled vector.
    pub fn wait_pages(&self) -> Result<Vec<PageBuf>, DiskError> {
        self.wait()?;
        let mut out = Vec::with_capacity(self.pages.len());
        for c in &self.pages {
            let mut buf = [0u8; PAGE_SIZE];
            c.wait_into(&mut buf)?;
            out.push(buf);
        }
        Ok(out)
    }

    /// Split the ticket into its per-page completion handles (request
    /// order), for deferred harvesting — the buffer pool's pending
    /// table is built from these.
    pub fn into_completions(self) -> Vec<Completion> {
        self.pages
    }
}

/// One run handed to a backend for execution.
struct Job {
    ids: Vec<PageId>,
    slot: Arc<RunSlot>,
}

/// Execute one run synchronously: the worker-side body of every backend.
fn read_run(disk: &dyn DiskManager, ids: &[PageId]) -> Result<Vec<PageBuf>, DiskError> {
    let mut pages: Vec<PageBuf> = vec![[0u8; PAGE_SIZE]; ids.len()];
    let mut refs: Vec<&mut PageBuf> = pages.iter_mut().collect();
    disk.read_pages(ids, &mut refs)?;
    Ok(pages)
}

/// Shared state between submitters and thread-pool workers.
struct TpShared {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Runs currently executing on a worker (not merely queued).
    running: AtomicU64,
}

struct ThreadPool {
    shared: Arc<TpShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    fn spawn(disk: Arc<dyn DiskManager>, stats: Arc<IoStats>, depth: usize) -> Option<Self> {
        let shared = Arc::new(TpShared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            running: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(depth);
        for i in 0..depth {
            let worker_shared = Arc::clone(&shared);
            let disk = Arc::clone(&disk);
            let stats = Arc::clone(&stats);
            let spawned = std::thread::Builder::new()
                .name(format!("cor-aio-{i}"))
                .spawn(move || Self::worker(&worker_shared, &*disk, &stats));
            match spawned {
                Ok(h) => workers.push(h),
                Err(_) if !workers.is_empty() => break, // run with fewer workers
                Err(_) => {
                    shared.shutdown.store(true, Ordering::Relaxed);
                    return None; // caller falls back to Sync
                }
            }
        }
        Some(ThreadPool { shared, workers })
    }

    fn worker(shared: &TpShared, disk: &dyn DiskManager, stats: &IoStats) {
        loop {
            let job = {
                let mut q = shared.queue.lock().expect("aio queue lock");
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    if shared.shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                    q = shared.cv.wait(q).expect("aio queue lock");
                }
            };
            let now = shared.running.fetch_add(1, Ordering::Relaxed) + 1;
            stats.note_aio_in_flight(now);
            let result = read_run(disk, &job.ids);
            shared.running.fetch_sub(1, Ordering::Relaxed);
            stats.record_aio_completed(1);
            job.slot.complete(result);
        }
    }

    /// Queued + running runs, for the saturation check at submit time.
    fn backlog(&self) -> usize {
        let queued = self.shared.queue.lock().expect("aio queue lock").len();
        queued + self.shared.running.load(Ordering::Relaxed) as usize
    }

    fn enqueue(&self, job: Job) {
        let mut q = self.shared.queue.lock().expect("aio queue lock");
        q.push_back(job);
        drop(q);
        self.shared.cv.notify_one();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

enum BackendImpl {
    Sync,
    ThreadPool(ThreadPool),
}

/// Asynchronous submission engine over a shared [`DiskManager`].
///
/// Created by the buffer pool when its `queue_depth` knob exceeds 1, or
/// directly for tests and benchmarks. Submissions never block; harvest
/// order is the caller's choice. See the [module docs](self) for the
/// backend and accounting model.
pub struct AioEngine {
    disk: Arc<dyn DiskManager>,
    stats: Arc<IoStats>,
    depth: usize,
    backend: BackendImpl,
}

impl AioEngine {
    /// Build an engine over `disk`, counting `aio_*` activity into
    /// `stats`. Infallible: depth <= 1 runs inline, and so does any
    /// depth whose worker threads cannot be spawned.
    pub fn new(disk: Arc<dyn DiskManager>, stats: Arc<IoStats>, config: AioConfig) -> Self {
        let depth = config.queue_depth.clamp(1, MAX_QUEUE_DEPTH);
        let pool = (depth > 1)
            .then(|| ThreadPool::spawn(Arc::clone(&disk), Arc::clone(&stats), depth))
            .flatten();
        AioEngine {
            disk,
            stats,
            depth,
            backend: pool.map_or(BackendImpl::Sync, BackendImpl::ThreadPool),
        }
    }

    /// The backend this engine resolved to.
    pub fn backend(&self) -> AioBackend {
        match self.backend {
            BackendImpl::Sync => AioBackend::Sync,
            BackendImpl::ThreadPool(_) => AioBackend::ThreadPool,
        }
    }

    /// The effective queue depth (clamped).
    pub fn queue_depth(&self) -> usize {
        self.depth
    }

    /// Split `ids` at every non-consecutive step — the exact run
    /// structure `read_pages` coalesces a sorted batch into.
    fn split_runs(ids: &[PageId]) -> Vec<Vec<PageId>> {
        let mut runs: Vec<Vec<PageId>> = Vec::new();
        for &id in ids {
            match runs.last_mut() {
                Some(run) if run.last().copied() == id.checked_sub(1) => run.push(id),
                _ => runs.push(vec![id]),
            }
        }
        runs
    }

    /// Submit a batch of page ids for asynchronous reading. Sorted,
    /// deduplicated ids coalesce best (each maximal consecutive run is
    /// one physical submission), but any order is legal — duplicates
    /// simply start fresh runs, exactly as `read_pages` treats them.
    ///
    /// Never blocks: runs beyond the queue depth wait their turn in the
    /// backend's queue (journaled as a queue-saturation flight event).
    /// Harvest via the returned ticket.
    pub fn submit(&self, ids: &[PageId]) -> SubmissionTicket {
        let runs = Self::split_runs(ids);
        self.stats.record_aio_submitted(runs.len() as u64);
        let mut slots: Vec<Arc<RunSlot>> = Vec::with_capacity(runs.len());
        let mut pages: Vec<Completion> = Vec::with_capacity(ids.len());
        for run in &runs {
            let slot = RunSlot::new();
            for (offset, &pid) in run.iter().enumerate() {
                pages.push(Completion {
                    pid,
                    slot: Arc::clone(&slot),
                    offset,
                });
            }
            slots.push(slot);
        }
        match &self.backend {
            BackendImpl::Sync => {
                for (run, slot) in runs.into_iter().zip(&slots) {
                    self.stats.note_aio_in_flight(1);
                    let result = read_run(&*self.disk, &run);
                    self.stats.record_aio_completed(1);
                    slot.complete(result);
                }
            }
            BackendImpl::ThreadPool(tp) => {
                let backlog = tp.backlog();
                if backlog + runs.len() > self.depth {
                    flight::record(
                        flight::FlightKind::AioSaturated,
                        self.depth as u64,
                        backlog as u64,
                        runs.len() as u64,
                    );
                }
                for (run, slot) in runs.into_iter().zip(&slots) {
                    tp.enqueue(Job {
                        ids: run,
                        slot: Arc::clone(slot),
                    });
                }
            }
        }
        SubmissionTicket { runs: slots, pages }
    }
}

impl std::fmt::Debug for AioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AioEngine")
            .field("backend", &self.backend())
            .field("queue_depth", &self.depth)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn store(pages: usize) -> Arc<MemDisk> {
        let disk = Arc::new(MemDisk::new());
        for i in 0..pages {
            let pid = disk.allocate_page().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = i as u8;
            buf[1] = (i >> 8) as u8;
            buf[PAGE_SIZE - 1] = 0xA5;
            disk.write_page(pid, &buf).unwrap();
        }
        disk
    }

    fn engine(disk: Arc<MemDisk>, depth: usize) -> AioEngine {
        AioEngine::new(disk, IoStats::new(), AioConfig::with_depth(depth))
    }

    #[test]
    fn split_runs_matches_coalescing() {
        let cases: &[(&[PageId], usize)] = &[
            (&[], 0),
            (&[5], 1),
            (&[1, 2, 3], 1),
            (&[1, 3, 5], 3),
            (&[1, 2, 2, 3], 2), // duplicate starts a new run, which continues
            (&[9, 4, 5, 6, 1], 3),
        ];
        for &(ids, want) in cases {
            assert_eq!(AioEngine::split_runs(ids).len(), want, "{ids:?}");
        }
    }

    #[test]
    fn depth_one_resolves_to_sync_and_matches_read_pages() {
        let disk = store(16);
        let eng = engine(Arc::clone(&disk), 1);
        assert_eq!(eng.backend(), AioBackend::Sync);
        let ids: Vec<PageId> = vec![0, 1, 2, 7, 9, 10];
        let ticket = eng.submit(&ids);
        assert_eq!(ticket.num_runs(), 3);
        assert_eq!(ticket.poll(), TicketStatus::Ready);
        let pages = ticket.wait_pages().unwrap();
        let mut expect: Vec<PageBuf> = vec![[0u8; PAGE_SIZE]; ids.len()];
        {
            let mut refs: Vec<&mut PageBuf> = expect.iter_mut().collect();
            disk.read_pages(&ids, &mut refs).unwrap();
        }
        assert_eq!(pages, expect);
    }

    #[test]
    fn threadpool_harvests_byte_identical_pages() {
        let disk = store(64);
        let eng = engine(Arc::clone(&disk), 4);
        assert_eq!(eng.backend(), AioBackend::ThreadPool);
        let ids: Vec<PageId> = vec![3, 4, 5, 6, 20, 21, 40, 0, 1, 2, 63];
        let ticket = eng.submit(&ids);
        ticket.wait().unwrap();
        let got = ticket.wait_pages().unwrap();
        for (i, &pid) in ids.iter().enumerate() {
            let mut want = [0u8; PAGE_SIZE];
            disk.read_page(pid, &mut want).unwrap();
            assert_eq!(got[i], want, "page {pid}");
        }
        assert_eq!(eng.stats.aio_submitted(), eng.stats.aio_completed());
        assert!(eng.stats.aio_in_flight_peak() >= 1);
    }

    #[test]
    fn bad_page_poisons_only_its_run() {
        let disk = store(8);
        let eng = engine(disk, 4);
        // Runs: [0,1] ok, [99] bad, [4,5] ok.
        let ids: Vec<PageId> = vec![0, 1, 99, 4, 5];
        let ticket = eng.submit(&ids);
        assert!(matches!(ticket.wait(), Err(DiskError::BadPage(99))));
        assert_eq!(ticket.poll(), TicketStatus::Poisoned);
        // The poisoned batch yields no bytes at all.
        assert!(ticket.wait_pages().is_err());
        // Per-page: completions of the good runs still deliver, the bad
        // run's completion reports the error with the buffer untouched.
        let completions = ticket.into_completions();
        let mut buf = [0x77u8; PAGE_SIZE];
        assert!(matches!(
            completions[2].wait_into(&mut buf),
            Err(DiskError::BadPage(99))
        ));
        assert!(buf.iter().all(|&b| b == 0x77), "no partial bytes");
        completions[0].wait_into(&mut buf).unwrap();
        assert_eq!(buf[PAGE_SIZE - 1], 0xA5);
    }

    #[test]
    fn counters_track_runs_not_pages() {
        let disk = store(32);
        let stats = IoStats::new();
        let eng = AioEngine::new(disk, Arc::clone(&stats), AioConfig::with_depth(2));
        let ticket = eng.submit(&[0, 1, 2, 3, 10, 11, 30]);
        ticket.wait().unwrap();
        assert_eq!(stats.aio_submitted(), 3);
        assert_eq!(stats.aio_completed(), 3);
        assert!(stats.aio_in_flight_peak() <= 2, "bounded by queue depth");
        // Core transfer counters are untouched by the engine itself.
        assert_eq!(stats.reads(), 0);
    }

    #[test]
    fn empty_submission_is_trivially_ready() {
        let eng = engine(store(1), 4);
        let t = eng.submit(&[]);
        assert_eq!(t.num_runs(), 0);
        assert_eq!(t.poll(), TicketStatus::Ready);
        assert!(t.wait_pages().unwrap().is_empty());
    }
}
