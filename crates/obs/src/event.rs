//! Fixed-size binary event model shared by every layer.

/// Number of distinct event kinds (array sizing for per-kind counters).
pub const KIND_COUNT: usize = 16;

/// Stored size of one event: seqlock word + ts + meta + arg.
pub const EVENT_BYTES: usize = 32;

/// What happened. Each variant is one fixed-size record; the meaning of
/// `arg0`/`arg` is per-kind (documented on the variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A job was pushed onto a worker's own deque. `arg0` = worker index.
    Spawn = 0,
    /// A steal sweep started (injector probe + victim scan). `arg0` = thief.
    StealAttempt = 1,
    /// A steal sweep took a job from a victim deque. `arg0` = thief,
    /// `arg` = victim worker index.
    StealHit = 2,
    /// A job was pushed into the pool's segmented injector.
    InjectorPush = 3,
    /// A job was popped from the injector by a worker. `arg0` = worker.
    InjectorPop = 4,
    /// A scheduler superstep boundary. `arg0` = level, `arg` = tasks
    /// executed in the superstep.
    Superstep = 5,
    /// A restart action: an underfull block was parked on the deque before
    /// a rescan — one per `ExecStats::restart_actions`. `arg0` = level,
    /// `arg` = tasks in the parked block.
    Restart = 6,
    /// A preemptible job parked at a superstep boundary (`arg` = job id),
    /// or an engine parked or split off a frontier (`arg` = its tasks).
    Park = 7,
    /// A parked job or frontier resumed. `arg` as for `Park`.
    Resume = 8,
    /// The admission scheduler requested preemption. `arg` = job id.
    Preempt = 9,
    /// A spec program was dispatched to an execution tier.
    /// `arg0` = lane width (1 = scalar, >1 = SIMD).
    SpecDispatch = 10,
    /// A spec tier began expanding one block. `arg0` = lane width.
    TierBegin = 11,
    /// The matching end. `arg0` = lane width, `arg` = tasks expanded.
    TierEnd = 12,
    /// The bulk API picked a chunk length. `arg0` = pending queue depth
    /// observed, `arg` = chosen chunk length.
    ChunkSize = 13,
    /// The admission scheduler started a job. `arg0` = tenant, `arg` = job id.
    Admit = 14,
    /// An admitted job finished. `arg0` = tenant, `arg` = job id.
    JobDone = 15,
}

impl EventKind {
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::Spawn,
        EventKind::StealAttempt,
        EventKind::StealHit,
        EventKind::InjectorPush,
        EventKind::InjectorPop,
        EventKind::Superstep,
        EventKind::Restart,
        EventKind::Park,
        EventKind::Resume,
        EventKind::Preempt,
        EventKind::SpecDispatch,
        EventKind::TierBegin,
        EventKind::TierEnd,
        EventKind::ChunkSize,
        EventKind::Admit,
        EventKind::JobDone,
    ];

    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }

    /// Stable snake_case name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Spawn => "spawn",
            EventKind::StealAttempt => "steal_attempt",
            EventKind::StealHit => "steal_hit",
            EventKind::InjectorPush => "injector_push",
            EventKind::InjectorPop => "injector_pop",
            EventKind::Superstep => "superstep",
            EventKind::Restart => "restart",
            EventKind::Park => "park",
            EventKind::Resume => "resume",
            EventKind::Preempt => "preempt",
            EventKind::SpecDispatch => "spec_dispatch",
            EventKind::TierBegin => "tier_begin",
            EventKind::TierEnd => "tier_end",
            EventKind::ChunkSize => "chunk_size",
            EventKind::Admit => "admit",
            EventKind::JobDone => "job_done",
        }
    }
}

/// One drained event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Per-ring monotone event number (the recording order on its thread).
    pub seq: u64,
    /// Nanoseconds since the trace epoch (set when tracing is enabled).
    pub ts_ns: u64,
    pub kind: EventKind,
    pub arg0: u32,
    pub arg: u64,
}

/// All events drained from one thread's ring, oldest first.
#[derive(Clone, Debug, Default)]
pub struct Track {
    pub name: String,
    pub events: Vec<Event>,
}
