//! The job scheduler: a bounded priority queue drained by `std::thread`
//! workers, with in-flight request coalescing, per-job queue deadlines,
//! and load shedding.
//!
//! Invariants:
//!
//! * **Coalescing** — at most one job per [`CacheKey`] is queued or
//!   running at any time. Concurrent submissions of the same key attach
//!   to the existing job's completion cell and all observe the single
//!   result; the runner executes exactly once.
//! * **Load shedding** — [`Scheduler::submit`] never blocks. A full
//!   queue returns [`SubmitError::Busy`] immediately (a typed rejection
//!   the protocol surfaces as its own response), never a hang.
//! * **Deadlines** — a job that waited in the queue past its deadline is
//!   failed with [`JobError::Expired`] instead of being run; the work it
//!   would have done is shed.
//! * **Shutdown** — pending and in-flight waiters are woken with
//!   [`JobError::Shutdown`]; workers are joined on [`Scheduler::shutdown`]
//!   or drop.
//! * **Containment** — a runner that panics fails its job with
//!   [`JobError::Panicked`] for the submitter and every coalesced waiter;
//!   the key leaves the in-flight table and the worker lives on.

use crate::key::{CacheKey, JobSpec};
use crate::store::{ArtifactStore, CompiledArtifact};
use epic_driver::Measurement;
use epic_trace::{Counter, Gauge, Histogram, SpanNode, Trace};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Job priority; higher drains first, FIFO within a class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum Priority {
    /// Background refill work.
    Low = 0,
    /// Interactive default.
    #[default]
    Normal = 1,
    /// Ahead of everything else.
    High = 2,
}

impl Priority {
    /// Stable one-byte wire encoding.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`tag`](Priority::tag).
    pub fn from_tag(tag: u8) -> Option<Priority> {
        match tag {
            0 => Some(Priority::Low),
            1 => Some(Priority::Normal),
            2 => Some(Priority::High),
            _ => None,
        }
    }
}

/// Why a job did not produce a measurement.
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// The compile or simulation itself failed.
    Runner(String),
    /// The job's queue deadline passed before a worker picked it up.
    Expired,
    /// The scheduler shut down before the job ran.
    Shutdown,
    /// The runner panicked; the payload is the panic message.
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Runner(e) => write!(f, "job failed: {e}"),
            JobError::Expired => write!(f, "queue deadline expired before the job started"),
            JobError::Shutdown => write!(f, "scheduler shut down"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A rejected submission.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// The work queue is full; retry later or shed load upstream. The
    /// payload is the queue depth observed at rejection.
    Busy {
        /// Jobs waiting when the submission was rejected.
        queue_depth: usize,
    },
    /// The scheduler is shutting down.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { queue_depth } => {
                write!(f, "busy: queue full ({queue_depth} waiting)")
            }
            SubmitError::Shutdown => write!(f, "scheduler shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Executes one job. The production implementation compiles and
/// simulates through `epic-driver`; tests substitute stubs to make
/// coalescing and shedding deterministic.
pub trait JobRunner: Send + Sync + 'static {
    /// Produce the measurement for `spec`, using `store` for
    /// compile-artifact reuse.
    ///
    /// # Errors
    /// A human-readable description of the failing stage.
    fn run(&self, spec: &JobSpec, store: &ArtifactStore) -> Result<Measurement, String>;

    /// (compiles, sims) performed so far — the server's `stats` verb
    /// reports these to prove warm sweeps do zero work.
    fn work_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// The production runner: compile (reusing the store's machine-code
/// cache when a sibling job already compiled this source at this level)
/// and simulate.
#[derive(Default)]
pub struct DriverRunner {
    compiles: AtomicU64,
    sims: AtomicU64,
}

impl JobRunner for DriverRunner {
    fn run(&self, spec: &JobSpec, store: &ArtifactStore) -> Result<Measurement, String> {
        let artifact = match store.lookup_mach(spec.compile_key()) {
            Some(a) => a,
            None => {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                let compiled = epic_driver::compile_source(
                    &spec.source,
                    &spec.train_args,
                    &spec.ref_args,
                    &spec.compile_options(),
                )
                .map_err(|e| format!("compile [{}]: {e}", spec.level.name()))?;
                epic_trace::global()
                    .histogram("serve.compile_us")
                    .record(t0.elapsed().as_micros() as u64);
                let stats = compiled.stats();
                store.insert_mach(
                    spec.compile_key(),
                    CompiledArtifact {
                        mach: compiled.mach,
                        stats,
                    },
                )
            }
        };
        self.sims.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let sim = epic_sim::run(&artifact.mach, &spec.ref_args, &spec.sim_options())
            .map_err(|e| format!("sim [{}]: {e}", spec.level.name()))?;
        let g = epic_trace::global();
        g.histogram("serve.sim_us")
            .record(t0.elapsed().as_micros() as u64);
        let pname = spec.predictor.name();
        g.counter(&format!("sim.predict.{pname}.predictions"))
            .add(sim.counters.branch_predictions);
        g.counter(&format!("sim.predict.{pname}.mispredictions"))
            .add(sim.counters.branch_mispredictions);
        Ok(Measurement {
            level: spec.level,
            compiled: artifact.stats.clone(),
            sim,
        })
    }

    fn work_counts(&self) -> (u64, u64) {
        (
            self.compiles.load(Ordering::Relaxed),
            self.sims.load(Ordering::Relaxed),
        )
    }
}

/// A completion-notification hook: runs exactly once, on whichever
/// thread completes the job (or immediately on the registering thread if
/// the job already finished). Hooks must be cheap and non-blocking — the
/// event loop registers one that enqueues the result and wakes the loop.
pub type CompletionHook = Box<dyn FnOnce(Result<Arc<Measurement>, JobError>) + Send>;

/// Completion cell shared by every waiter coalesced onto one job.
/// Waiters come in two shapes: blocking ([`wait`](JobCell::wait), the
/// condvar path) and completion-driven (registered [`CompletionHook`]s,
/// the event-loop path — one loop thread multiplexes thousands of
/// in-flight submits instead of parking one thread per submit).
struct JobCell {
    state: Mutex<CellState>,
    cv: Condvar,
}

#[derive(Default)]
struct CellState {
    done: Option<Result<Arc<Measurement>, JobError>>,
    hooks: Vec<CompletionHook>,
}

impl JobCell {
    fn new() -> Arc<JobCell> {
        Arc::new(JobCell {
            state: Mutex::new(CellState::default()),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, r: Result<Arc<Measurement>, JobError>) {
        let hooks = {
            let mut g = self.state.lock().expect("job cell");
            g.done = Some(r.clone());
            std::mem::take(&mut g.hooks)
        };
        self.cv.notify_all();
        // run hooks outside the lock: a hook may re-enter the scheduler
        for h in hooks {
            h(r.clone());
        }
    }

    fn wait(&self) -> Result<Arc<Measurement>, JobError> {
        let mut g = self.state.lock().expect("job cell");
        loop {
            if let Some(r) = g.done.as_ref() {
                return r.clone();
            }
            g = self.cv.wait(g).expect("job cell");
        }
    }

    fn subscribe(&self, hook: CompletionHook) {
        let ready = {
            let mut g = self.state.lock().expect("job cell");
            match g.done.clone() {
                Some(r) => Some(r),
                None => {
                    g.hooks.push(hook);
                    return;
                }
            }
        };
        if let Some(r) = ready {
            hook(r);
        }
    }
}

/// Handle to a submitted (or instantly served) job.
pub struct Ticket {
    /// Content key of the job.
    pub key: CacheKey,
    /// True when the submission was answered straight from the store.
    pub cache_hit: bool,
    /// True when the submission attached to an already-in-flight job.
    pub coalesced: bool,
    state: TicketState,
}

enum TicketState {
    Ready(Arc<Measurement>),
    Pending(Arc<JobCell>),
}

impl Ticket {
    /// Block until the measurement is available.
    ///
    /// # Errors
    /// The job's failure, if it expired, errored, or was shut down.
    pub fn wait(&self) -> Result<Arc<Measurement>, JobError> {
        match &self.state {
            TicketState::Ready(m) => Ok(Arc::clone(m)),
            TicketState::Pending(cell) => cell.wait(),
        }
    }

    /// The measurement of an instant cache hit: `None` for a job that is
    /// queued or running. The `epicd` loop answers a ready ticket in the
    /// turn that read its request.
    pub fn ready(&self) -> Option<&Arc<Measurement>> {
        match &self.state {
            TicketState::Ready(m) => Some(m),
            TicketState::Pending(_) => None,
        }
    }

    /// Non-blocking probe: the result if the job has finished.
    pub fn try_result(&self) -> Option<Result<Arc<Measurement>, JobError>> {
        match &self.state {
            TicketState::Ready(m) => Some(Ok(Arc::clone(m))),
            TicketState::Pending(cell) => cell.state.lock().expect("job cell").done.clone(),
        }
    }

    /// Completion-driven alternative to [`wait`](Ticket::wait): run
    /// `hook` exactly once when the job finishes — immediately on this
    /// thread if it already has (including instant cache hits), else on
    /// the completing thread. This is how the `epicd` event loop
    /// multiplexes thousands of in-flight submits without parking a
    /// thread per connection.
    pub fn on_complete(
        self,
        hook: impl FnOnce(Result<Arc<Measurement>, JobError>) + Send + 'static,
    ) {
        match self.state {
            TicketState::Ready(m) => hook(Ok(m)),
            TicketState::Pending(cell) => cell.subscribe(Box::new(hook)),
        }
    }
}

struct QueuedJob {
    prio: Priority,
    seq: u64,
    key: CacheKey,
    spec: JobSpec,
    deadline: Option<Instant>,
    enqueued: Instant,
    cell: Arc<JobCell>,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &QueuedJob) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &QueuedJob) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &QueuedJob) -> std::cmp::Ordering {
        // max-heap: higher priority first, then lower sequence (FIFO)
        (self.prio, std::cmp::Reverse(self.seq)).cmp(&(other.prio, std::cmp::Reverse(other.seq)))
    }
}

struct QueueState {
    heap: BinaryHeap<QueuedJob>,
    inflight: HashMap<CacheKey, Arc<JobCell>>,
    shutdown: bool,
    seq: u64,
}

/// Scheduler statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Submissions accepted (including instant cache hits).
    pub submitted: u64,
    /// Submissions answered straight from the store.
    pub cache_hits: u64,
    /// Submissions attached to an in-flight job.
    pub coalesced: u64,
    /// Submissions rejected with `Busy`.
    pub shed: u64,
    /// Jobs that ran to completion (success or runner error).
    pub jobs_run: u64,
    /// Jobs dropped because their queue deadline passed.
    pub expired: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Jobs queued or running right now.
    pub in_flight: u64,
}

/// Handles into the process-wide [`epic_trace::global`] registry — the
/// scheduler records every event there (always on; one relaxed atomic
/// per event), which is what the `metrics` protocol verb and `epicc
/// top` read.
struct ServeMetrics {
    submitted: Counter,
    cache_hits: Counter,
    coalesced: Counter,
    shed: Counter,
    jobs_run: Counter,
    expired: Counter,
    panicked: Counter,
    queue_depth: Gauge,
    queue_wait_us: Histogram,
    run_us: Histogram,
    store_us: Histogram,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let g = epic_trace::global();
        ServeMetrics {
            submitted: g.counter("serve.submitted"),
            cache_hits: g.counter("serve.cache_hits"),
            coalesced: g.counter("serve.coalesced"),
            shed: g.counter("serve.shed"),
            jobs_run: g.counter("serve.jobs_run"),
            expired: g.counter("serve.expired"),
            panicked: g.counter("serve.jobs.panicked"),
            queue_depth: g.gauge("serve.queue_depth"),
            queue_wait_us: g.histogram("serve.queue_wait_us"),
            run_us: g.histogram("serve.run_us"),
            store_us: g.histogram("serve.store_us"),
        }
    }
}

struct Inner {
    store: Arc<ArtifactStore>,
    runner: Box<dyn JobRunner>,
    q: Mutex<QueueState>,
    cv: Condvar,
    queue_cap: usize,
    submitted: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    jobs_run: AtomicU64,
    expired: AtomicU64,
    metrics: ServeMetrics,
    trace: Trace,
}

/// The scheduler: owns its worker threads for its whole lifetime.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Production scheduler over `store` with the [`DriverRunner`].
    /// `workers == 0` uses the machine's available parallelism.
    pub fn new(store: Arc<ArtifactStore>, workers: usize, queue_cap: usize) -> Scheduler {
        Scheduler::with_runner(store, Box::new(DriverRunner::default()), workers, queue_cap)
    }

    /// Scheduler with a caller-supplied runner (tests).
    pub fn with_runner(
        store: Arc<ArtifactStore>,
        runner: Box<dyn JobRunner>,
        workers: usize,
        queue_cap: usize,
    ) -> Scheduler {
        Scheduler::with_runner_traced(store, runner, workers, queue_cap, Trace::disabled())
    }

    /// [`with_runner`](Scheduler::with_runner) recording per-job
    /// `serve → queue-wait/run/store` span trees into `trace` (metrics
    /// always go to the process-wide registry either way).
    pub fn with_runner_traced(
        store: Arc<ArtifactStore>,
        runner: Box<dyn JobRunner>,
        workers: usize,
        queue_cap: usize,
        trace: Trace,
    ) -> Scheduler {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            workers
        };
        let inner = Arc::new(Inner {
            store,
            runner,
            q: Mutex::new(QueueState {
                heap: BinaryHeap::new(),
                inflight: HashMap::new(),
                shutdown: false,
                seq: 0,
            }),
            cv: Condvar::new(),
            queue_cap: queue_cap.max(1),
            submitted: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            jobs_run: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            metrics: ServeMetrics::new(),
            trace,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("epic-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// The store this scheduler serves from.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.inner.store
    }

    /// The trace this scheduler records job span trees into (a disabled
    /// handle unless built with
    /// [`with_runner_traced`](Scheduler::with_runner_traced)).
    pub fn trace(&self) -> &Trace {
        &self.inner.trace
    }

    /// Submit a job. Never blocks: returns a ready ticket on a cache
    /// hit, a pending ticket otherwise (coalescing onto an in-flight
    /// job with the same key when one exists).
    ///
    /// # Errors
    /// [`SubmitError::Busy`] when the queue is full, or
    /// [`SubmitError::Shutdown`].
    pub fn submit(
        &self,
        spec: JobSpec,
        prio: Priority,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        let inner = &self.inner;
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        inner.metrics.submitted.inc();
        let key = spec.job_key();
        if let Some(m) = inner.store.lookup(key) {
            inner.cache_hits.fetch_add(1, Ordering::Relaxed);
            inner.metrics.cache_hits.inc();
            return Ok(Ticket {
                key,
                cache_hit: true,
                coalesced: false,
                state: TicketState::Ready(m),
            });
        }
        let mut q = inner.q.lock().expect("scheduler queue");
        if q.shutdown {
            return Err(SubmitError::Shutdown);
        }
        if let Some(cell) = q.inflight.get(&key) {
            inner.coalesced.fetch_add(1, Ordering::Relaxed);
            inner.metrics.coalesced.inc();
            return Ok(Ticket {
                key,
                cache_hit: false,
                coalesced: true,
                state: TicketState::Pending(Arc::clone(cell)),
            });
        }
        if q.heap.len() >= inner.queue_cap {
            inner.shed.fetch_add(1, Ordering::Relaxed);
            inner.metrics.shed.inc();
            return Err(SubmitError::Busy {
                queue_depth: q.heap.len(),
            });
        }
        let cell = JobCell::new();
        q.seq += 1;
        let job = QueuedJob {
            prio,
            seq: q.seq,
            key,
            spec,
            deadline: deadline.map(|d| Instant::now() + d),
            enqueued: Instant::now(),
            cell: Arc::clone(&cell),
        };
        q.inflight.insert(key, Arc::clone(&cell));
        q.heap.push(job);
        inner.metrics.queue_depth.set(q.heap.len() as i64);
        inner.cv.notify_one();
        Ok(Ticket {
            key,
            cache_hit: false,
            coalesced: false,
            state: TicketState::Pending(cell),
        })
    }

    /// Is this key queued, running, or already stored? (`status` verb.)
    pub fn status(&self, key: CacheKey) -> JobStatus {
        if self
            .inner
            .q
            .lock()
            .expect("scheduler queue")
            .inflight
            .contains_key(&key)
        {
            return JobStatus::InFlight;
        }
        // probe memory/disk without skewing hit/miss accounting? The
        // status verb is observability; one lookup's worth of skew is
        // acceptable and keeps the store API small.
        if self.inner.store.lookup(key).is_some() {
            JobStatus::Done
        } else {
            JobStatus::Unknown
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SchedStats {
        let (queue_depth, in_flight) = {
            let q = self.inner.q.lock().expect("scheduler queue");
            (q.heap.len() as u64, q.inflight.len() as u64)
        };
        SchedStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            cache_hits: self.inner.cache_hits.load(Ordering::Relaxed),
            coalesced: self.inner.coalesced.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            jobs_run: self.inner.jobs_run.load(Ordering::Relaxed),
            expired: self.inner.expired.load(Ordering::Relaxed),
            queue_depth,
            in_flight,
        }
    }

    /// (compiles, sims) the runner has performed.
    pub fn work_counts(&self) -> (u64, u64) {
        self.inner.runner.work_counts()
    }

    /// Stop accepting work, fail queued jobs with
    /// [`JobError::Shutdown`], and join the workers.
    pub fn shutdown(&self) {
        {
            let mut q = self.inner.q.lock().expect("scheduler queue");
            q.shutdown = true;
            while let Some(job) = q.heap.pop() {
                q.inflight.remove(&job.key);
                job.cell.complete(Err(JobError::Shutdown));
            }
            self.inner.cv.notify_all();
        }
        let mut workers = self.workers.lock().expect("worker handles");
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Status of a key in the service.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobStatus {
    /// Never seen (or evicted without persistence).
    Unknown,
    /// Queued or running.
    InFlight,
    /// A result is stored.
    Done,
}

impl JobStatus {
    /// Stable one-byte wire encoding.
    pub fn tag(self) -> u8 {
        match self {
            JobStatus::Unknown => 0,
            JobStatus::InFlight => 1,
            JobStatus::Done => 2,
        }
    }

    /// Inverse of [`tag`](JobStatus::tag).
    pub fn from_tag(tag: u8) -> Option<JobStatus> {
        match tag {
            0 => Some(JobStatus::Unknown),
            1 => Some(JobStatus::InFlight),
            2 => Some(JobStatus::Done),
            _ => None,
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = inner.q.lock().expect("scheduler queue");
            loop {
                if let Some(job) = q.heap.pop() {
                    inner.metrics.queue_depth.set(q.heap.len() as i64);
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = inner.cv.wait(q).expect("scheduler queue");
            }
        };
        let wait = job.enqueued.elapsed();
        inner.metrics.queue_wait_us.record(wait.as_micros() as u64);
        if job.deadline.is_some_and(|d| Instant::now() > d) {
            inner.expired.fetch_add(1, Ordering::Relaxed);
            inner.metrics.expired.inc();
            finish(inner, &job, Err(JobError::Expired));
            continue;
        }
        let run_start = Instant::now();
        // A panicking runner must not take the worker with it, nor leave
        // the key in `inflight` where every later submit would hang: the
        // panic becomes this job's typed failure. The runner is shared
        // and immutable through `&self`; whatever it left half-done is
        // its own, and the job's result is the panic.
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inner.runner.run(&job.spec, &inner.store)
        }));
        let run_dur = run_start.elapsed();
        inner.metrics.run_us.record(run_dur.as_micros() as u64);
        let store_start = Instant::now();
        let result = match ran {
            Ok(Ok(m)) => Ok(inner.store.insert(job.key, m)),
            Ok(Err(e)) => Err(JobError::Runner(e)),
            Err(payload) => {
                inner.metrics.panicked.inc();
                Err(JobError::Panicked(panic_message(payload.as_ref())))
            }
        };
        let store_dur = store_start.elapsed();
        inner.metrics.store_us.record(store_dur.as_micros() as u64);
        inner.jobs_run.fetch_add(1, Ordering::Relaxed);
        inner.metrics.jobs_run.inc();
        if inner.trace.is_enabled() {
            // One manual span tree per job, anchored at enqueue time so
            // queue-wait, run, and store tile the job's full wall span.
            let start_ns = inner.trace.rel_ns(job.enqueued);
            let wait_ns = wait.as_nanos() as u64;
            let run_ns = run_dur.as_nanos() as u64;
            let store_ns = store_dur.as_nanos() as u64;
            inner.trace.record_manual(SpanNode {
                name: "serve".to_string(),
                start_ns,
                dur_ns: wait_ns + run_ns + store_ns,
                children: vec![
                    SpanNode::leaf("queue-wait", start_ns, wait_ns),
                    SpanNode::leaf("run", start_ns + wait_ns, run_ns),
                    SpanNode::leaf("store", start_ns + wait_ns + run_ns, store_ns),
                ],
            });
        }
        finish(inner, &job, result);
    }
}

/// The text a panic was raised with (`panic!` with a literal or with a
/// format string), or a placeholder for any other payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn finish(inner: &Inner, job: &QueuedJob, result: Result<Arc<Measurement>, JobError>) {
    inner
        .q
        .lock()
        .expect("scheduler queue")
        .inflight
        .remove(&job.key);
    job.cell.complete(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::dummy_measurement;
    use std::sync::mpsc;

    /// Runner that counts invocations and can be made to block until
    /// released, so tests control exactly when the worker is busy.
    struct StubRunner {
        runs: AtomicU64,
        gate: Mutex<Option<mpsc::Receiver<()>>>,
    }

    impl StubRunner {
        fn free() -> StubRunner {
            StubRunner {
                runs: AtomicU64::new(0),
                gate: Mutex::new(None),
            }
        }

        fn gated() -> (StubRunner, mpsc::Sender<()>) {
            let (tx, rx) = mpsc::channel();
            (
                StubRunner {
                    runs: AtomicU64::new(0),
                    gate: Mutex::new(Some(rx)),
                },
                tx,
            )
        }
    }

    impl JobRunner for StubRunner {
        fn run(&self, spec: &JobSpec, _store: &ArtifactStore) -> Result<Measurement, String> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            if let Some(rx) = &*self.gate.lock().unwrap() {
                let _ = rx.recv();
            }
            if spec.source.contains("FAIL") {
                return Err("stub failure".into());
            }
            if spec.source.contains("PANIC") {
                panic!("stub panic");
            }
            Ok(dummy_measurement(spec.source.len() as u64))
        }

        fn work_counts(&self) -> (u64, u64) {
            (self.runs.load(Ordering::SeqCst), 0)
        }
    }

    fn spec(src: &str) -> JobSpec {
        let w = epic_workloads::by_name("mcf_mc").unwrap();
        let mut s = JobSpec::for_workload(&w, epic_driver::OptLevel::Gcc);
        s.source = src.to_string();
        s
    }

    #[test]
    fn eight_concurrent_submissions_of_one_key_run_exactly_once() {
        let store = Arc::new(ArtifactStore::in_memory());
        let (runner, release) = StubRunner::gated();
        let sched = Arc::new(Scheduler::with_runner(store, Box::new(runner), 2, 64));
        let tickets: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let sched = Arc::clone(&sched);
                    scope.spawn(move || {
                        let t = sched.submit(spec("same"), Priority::Normal, None).unwrap();
                        (t.coalesced, t.wait())
                    })
                })
                .collect();
            // let every submitter land before releasing the single run,
            // then feed the gate enough tokens for any stragglers
            std::thread::sleep(Duration::from_millis(100));
            for _ in 0..16 {
                let _ = release.send(());
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let (compiles, _) = sched.work_counts();
        assert_eq!(compiles, 1, "coalescing must yield exactly one run");
        let digests: Vec<_> = tickets
            .iter()
            .map(|(_, r)| crate::codec::digest(r.as_ref().unwrap()))
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
        assert!(
            tickets.iter().filter(|(coalesced, _)| *coalesced).count() >= 1,
            "later submitters attach to the in-flight job"
        );
        assert_eq!(sched.stats().in_flight, 0);
    }

    #[test]
    fn full_queue_returns_typed_busy_not_a_hang() {
        let store = Arc::new(ArtifactStore::in_memory());
        let (runner, release) = StubRunner::gated();
        // one worker, queue of 2: job A occupies the worker, B and C
        // fill the queue, D must shed
        let sched = Scheduler::with_runner(store, Box::new(runner), 1, 2);
        let ta = sched.submit(spec("a"), Priority::Normal, None).unwrap();
        // wait until the worker has actually picked A up (the queue is
        // empty again), so B and C both sit in the queue
        let t0 = Instant::now();
        while sched.stats().queue_depth > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "worker never started"
            );
            std::thread::yield_now();
        }
        let tb = sched.submit(spec("b"), Priority::Normal, None).unwrap();
        let tc = sched.submit(spec("c"), Priority::Normal, None).unwrap();
        match sched.submit(spec("d"), Priority::Normal, None) {
            Err(SubmitError::Busy { queue_depth }) => assert_eq!(queue_depth, 2),
            other => panic!("expected Busy, got {:?}", other.map(|t| t.key)),
        }
        assert_eq!(sched.stats().shed, 1);
        for _ in 0..8 {
            let _ = release.send(());
        }
        assert!(ta.wait().is_ok());
        assert!(tb.wait().is_ok());
        assert!(tc.wait().is_ok());
    }

    #[test]
    fn second_submission_after_completion_is_a_cache_hit() {
        let store = Arc::new(ArtifactStore::in_memory());
        let sched = Scheduler::with_runner(store, Box::new(StubRunner::free()), 1, 8);
        let t1 = sched.submit(spec("x"), Priority::Normal, None).unwrap();
        assert!(!t1.cache_hit);
        let first = t1.wait().unwrap();
        let t2 = sched.submit(spec("x"), Priority::Normal, None).unwrap();
        assert!(t2.cache_hit, "stored result must be served instantly");
        assert_eq!(
            crate::codec::digest(&first),
            crate::codec::digest(&t2.wait().unwrap())
        );
        assert_eq!(sched.work_counts().0, 1);
        assert_eq!(sched.status(t1.key), JobStatus::Done);
        assert_eq!(sched.stats().cache_hits, 1);
    }

    #[test]
    fn expired_deadline_fails_the_job_without_running_it() {
        let store = Arc::new(ArtifactStore::in_memory());
        let (runner, release) = StubRunner::gated();
        let sched = Scheduler::with_runner(store, Box::new(runner), 1, 8);
        // occupy the single worker...
        let ta = sched.submit(spec("hold"), Priority::Normal, None).unwrap();
        let t0 = Instant::now();
        while sched.stats().queue_depth > 0 {
            assert!(t0.elapsed() < Duration::from_secs(5));
            std::thread::yield_now();
        }
        // ...queue a job whose deadline lapses while it waits
        let tb = sched
            .submit(spec("late"), Priority::Normal, Some(Duration::ZERO))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        for _ in 0..8 {
            let _ = release.send(());
        }
        assert!(ta.wait().is_ok());
        assert!(matches!(tb.wait(), Err(JobError::Expired)));
        assert_eq!(sched.stats().expired, 1);
        assert_eq!(sched.work_counts().0, 1, "expired job never ran");
    }

    #[test]
    fn priorities_drain_high_before_low() {
        let store = Arc::new(ArtifactStore::in_memory());
        let (runner, release) = StubRunner::gated();
        let sched = Scheduler::with_runner(store, Box::new(runner), 1, 8);
        let _hold = sched.submit(spec("hold"), Priority::Normal, None).unwrap();
        let t0 = Instant::now();
        while sched.stats().queue_depth > 0 {
            assert!(t0.elapsed() < Duration::from_secs(5));
            std::thread::yield_now();
        }
        let tlow = sched.submit(spec("low"), Priority::Low, None).unwrap();
        let thigh = sched.submit(spec("high"), Priority::High, None).unwrap();
        // release jobs one at a time; high must complete before low
        let _ = release.send(()); // hold
        let _ = release.send(()); // first queued job
        let done_first = {
            let t0 = Instant::now();
            loop {
                let high_done = thigh.try_result().is_some();
                let low_done = tlow.try_result().is_some();
                if high_done || low_done {
                    break high_done;
                }
                assert!(t0.elapsed() < Duration::from_secs(5));
                std::thread::yield_now();
            }
        };
        assert!(done_first, "high-priority job must drain first");
        for _ in 0..4 {
            let _ = release.send(());
        }
        let _ = tlow.wait();
        let _ = thigh.wait();
    }

    #[test]
    fn completion_hooks_fire_for_pending_ready_and_failed_jobs() {
        let store = Arc::new(ArtifactStore::in_memory());
        let (runner, release) = StubRunner::gated();
        let sched = Scheduler::with_runner(store, Box::new(runner), 1, 8);
        let (tx, rx) = mpsc::channel();
        // pending job: the hook runs on the worker thread at completion
        let t = sched.submit(spec("hook"), Priority::Normal, None).unwrap();
        let txc = tx.clone();
        t.on_complete(move |r| txc.send(("pending", r.is_ok())).unwrap());
        assert!(
            rx.try_recv().is_err(),
            "hook must not fire before the job runs"
        );
        let _ = release.send(());
        let (tag, ok) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!((tag, ok), ("pending", true));
        // already-complete job: cache hit, hook runs inline
        let t2 = sched.submit(spec("hook"), Priority::Normal, None).unwrap();
        assert!(t2.cache_hit);
        let txc = tx.clone();
        t2.on_complete(move |r| txc.send(("ready", r.is_ok())).unwrap());
        assert_eq!(rx.try_recv().unwrap(), ("ready", true));
        // failing job: the hook observes the error
        let t3 = sched.submit(spec("FAIL"), Priority::Normal, None).unwrap();
        let _ = release.send(());
        t3.on_complete(move |r| tx.send(("failed", r.is_ok())).unwrap());
        let (tag, ok) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!((tag, ok), ("failed", false));
    }

    #[test]
    fn a_runner_panic_fails_every_waiter_and_spares_the_worker() {
        let store = Arc::new(ArtifactStore::in_memory());
        let (runner, release) = StubRunner::gated();
        let sched = Scheduler::with_runner(store, Box::new(runner), 1, 8);
        let first = sched.submit(spec("PANIC"), Priority::Normal, None).unwrap();
        let waiter = sched.submit(spec("PANIC"), Priority::Normal, None).unwrap();
        assert!(waiter.coalesced, "the second submit rides the first job");
        let _ = release.send(());
        let panicked = Err(JobError::Panicked("stub panic".to_string()));
        assert_eq!(first.wait().map(|_| ()), panicked);
        assert_eq!(waiter.wait().map(|_| ()), panicked);
        assert_eq!(
            sched.stats().in_flight,
            0,
            "the key left the in-flight table"
        );
        // a later submit of the same key runs again and gets the typed
        // error again instead of hanging on a dead job
        let again = sched.submit(spec("PANIC"), Priority::Normal, None).unwrap();
        assert!(!again.coalesced && !again.cache_hit);
        let _ = release.send(());
        assert_eq!(again.wait().map(|_| ()), panicked);
        // the single worker survived both panics
        let ok = sched.submit(spec("fine"), Priority::Normal, None).unwrap();
        let _ = release.send(());
        assert!(ok.wait().is_ok());
        assert_eq!(sched.work_counts().0, 3);
        // no other test in this binary panics a runner
        let panicked = epic_trace::global()
            .snapshot()
            .counter("serve.jobs.panicked");
        assert_eq!(panicked, 2);
    }

    #[test]
    fn runner_failure_propagates_and_shutdown_wakes_waiters() {
        let store = Arc::new(ArtifactStore::in_memory());
        let sched = Scheduler::with_runner(store, Box::new(StubRunner::free()), 1, 8);
        let t = sched.submit(spec("FAIL"), Priority::Normal, None).unwrap();
        match t.wait() {
            Err(JobError::Runner(e)) => assert!(e.contains("stub failure")),
            other => panic!("expected runner error, got {other:?}"),
        }
        sched.shutdown();
        assert!(matches!(
            sched.submit(spec("y"), Priority::Normal, None),
            Err(SubmitError::Shutdown)
        ));
    }
}
