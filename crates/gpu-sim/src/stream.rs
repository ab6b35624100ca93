//! Streams and events: CUDA-style asynchronous launch queues.
//!
//! A [`StreamId`] names an in-order queue of operations on a device. Work
//! submitted to the same stream executes (in the modelled timeline) strictly
//! in submission order; work on different streams may overlap. An
//! [`EventId`] is a marker recorded into one stream that other streams can
//! wait on, expressing cross-stream dependencies — together they form the
//! task DAG that [`crate::timeline`] resolves into modelled wall-clock time.
//!
//! The simulator executes nothing, so a queue holds only timing: the
//! caller runs a launch's arithmetic on the host when it charges the
//! launch (host submission order is always a valid topological order of
//! the DAG, so results are bit-identical to the synchronous path), and the
//! *timing* of the launch is deferred until
//! [`crate::device::Gpu::synchronize`].

/// Handle to an in-order launch queue on a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub(crate) usize);

impl StreamId {
    /// The stream's index (dense, starting at 0 per device).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a recorded event (a point in one stream's queue).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) u64);

/// Name of the pseudo-op a stream carries for watchdog-killed hung launch
/// attempts. It occupies the stream for the deadline + backoff like a real
/// hang would, but consumes no device resources and is attributed to the
/// ledger as a stall, never as a kernel call.
pub const WATCHDOG_STALL: &str = "watchdog_stall";

/// Timing description of one asynchronously launched kernel, captured at
/// enqueue time. All durations are contention-free ("alone") values; the
/// timeline engine stretches them under contention.
#[derive(Clone, Debug)]
pub(crate) struct QueuedKernel {
    pub name: &'static str,
    pub blocks: usize,
    /// Launch overhead in seconds (driver/queueing latency; overlappable).
    pub overhead: f64,
    /// Issue-port time in seconds if the kernel ran alone.
    pub issue_seconds: f64,
    /// DRAM time in seconds if the kernel ran alone.
    pub dram_seconds: f64,
    /// Fraction of the device's SMs this launch can occupy
    /// (`min(blocks, sms) / sms`); its weight in issue-port contention.
    pub sm_fraction: f64,
    /// Useful flops (for the ledger and trace export).
    pub flops: f64,
    /// DRAM bytes (for the ledger and trace export).
    pub bytes: f64,
}

impl QueuedKernel {
    /// A watchdog stall occupying `seconds` of stream time while consuming
    /// no device resources (pure overhead phase: it overlaps work on other
    /// streams, exactly like the host-side kill + resubmit it models).
    pub(crate) fn stall(seconds: f64) -> Self {
        QueuedKernel {
            name: WATCHDOG_STALL,
            blocks: 0,
            overhead: seconds,
            issue_seconds: 0.0,
            dram_seconds: 0.0,
            sm_fraction: 0.0,
            flops: 0.0,
            bytes: 0.0,
        }
    }
}

/// One entry in a stream's in-order queue.
#[derive(Clone, Debug)]
pub(crate) enum StreamOp {
    /// A kernel launch (timing pending).
    Kernel(QueuedKernel),
    /// Record an event: fires when all earlier ops in this stream are done.
    Record(EventId),
    /// Block this stream until the named event has fired.
    Wait(EventId),
}

/// Per-device stream state: the queues accumulated since the last
/// synchronize, plus the event-id allocator.
#[derive(Debug, Default)]
pub(crate) struct StreamTable {
    pub queues: Vec<Vec<StreamOp>>,
    pub next_event: u64,
}

impl StreamTable {
    pub fn create_stream(&mut self) -> StreamId {
        self.queues.push(Vec::new());
        StreamId(self.queues.len() - 1)
    }

    pub fn push(&mut self, stream: StreamId, op: StreamOp) {
        let q = self
            .queues
            .get_mut(stream.0)
            .unwrap_or_else(|| panic!("unknown stream {:?} (create_stream first)", stream));
        q.push(op);
    }

    pub fn alloc_event(&mut self) -> EventId {
        let e = EventId(self.next_event);
        self.next_event += 1;
        e
    }

    /// Take all queued work, leaving the streams themselves valid (handles
    /// survive a synchronize; their queues restart empty).
    pub fn drain(&mut self) -> Vec<Vec<StreamOp>> {
        self.queues.iter_mut().map(std::mem::take).collect()
    }
}
