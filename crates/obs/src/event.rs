//! The typed event schema: one table, one codec.
//!
//! Every event is stamped with **simulated** time, never wall-clock, so a
//! trace is a pure function of `(config, seed)` and byte-identical across
//! runs and `POLIMER_THREADS` settings.
//!
//! The `event_schema!` invocation below is the only place a variant, its
//! `"ev"` tag and its ordered field list are spelled out. It generates the
//! [`Event`] enum itself, [`Event::tag`], the writer
//! ([`TraceEvent::write_json`]), the strict reader
//! ([`TraceEvent::parse_line`]), the wire-form normalizer
//! ([`TraceEvent::wire_form`]) and a one-sample-per-variant generator
//! ([`TraceEvent::one_of_each`]) — so a variant cannot exist without its codec,
//! and the writer and reader cannot disagree about a field's name, type
//! or position. A field's wire key is its name; its wire type is its Rust
//! type, one of `u64 | usize | f64 | bool |` [`Tag`].
//!
//! Serialization is a hand-rolled compact JSONL line per event (the
//! workspace carries no registry dependencies): field order is fixed per
//! variant, floats print through Rust's shortest-roundtrip formatter, and
//! non-finite floats serialize as `null`, as they do in every persisted
//! document ([`crate::json::Value::pretty`]). The reader is deliberately strict: field
//! *order* must match the writer exactly (same keys, same sequence,
//! nothing missing, nothing extra), so a parsed line re-serializes
//! byte-for-byte and the round trip doubles as a test of the emitter.
//!
//! The reader is a single pass over the line: the generated
//! `read_fields` takes one `(key, value)` at a time from `json::Fields`
//! and reads the value straight into the table row's field; no tree is
//! built, and only a `decision` line allocates (its `Box`). A line with
//! several defects is therefore reported by the first in byte order. A
//! [`Tag`] on the `VOCABULARY` list below borrows that spelling, any
//! other is owned and equal: the list makes replay cheap and decides
//! nothing about what is accepted.

use crate::json::{self, Scalar};
use des::SimTime;
use std::borrow::Cow;
use std::fmt::Write as _;

/// A string-tag field (`role`, `kind`, `reason`, `tag`): borrowed from the
/// emitting crate's fixed vocabulary on the emit path (no allocation);
/// read back from a file it borrows the same spelling from this module's
/// list when it is on it, and is owned otherwise — a file's vocabulary is
/// whatever the file says, and an unknown fault tag is the audit
/// battery's finding to make, not a parse error.
pub type Tag = Cow<'static, str>;

/// A line-level parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct EventError(pub String);

impl std::fmt::Display for EventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for EventError {}

fn err<T>(msg: impl Into<String>) -> Result<T, EventError> {
    Err(EventError(msg.into()))
}

fn invalid_json(e: json::ParseError) -> EventError {
    EventError(format!("invalid JSON: {e}"))
}

/// A field present under the right key that is not `what` it must be.
fn wrong_type(key: &str, what: &str) -> EventError {
    EventError(format!("field \"{key}\" {what}"))
}

/// One wire scalar: how a field of this type is written, read back and
/// sampled. The schema table names only field types; everything
/// type-specific about the codec lives in these five impls.
trait Wire: Sized {
    /// Append the JSON value.
    fn write(&self, out: &mut String);
    /// Read the value back; the error says what the field is not.
    fn read(v: &Scalar<'_>) -> Result<Self, &'static str>;
    /// The `i`-th sample value ([`TraceEvent::one_of_each`]).
    fn sample(i: u64) -> Self;
    /// Whether the value is a float the wire cannot tell from NaN.
    fn is_infinite_float(&self) -> bool {
        false
    }
    /// Collapse such a float to NaN, as a write → read round trip does.
    fn collapse_infinity(&mut self) {}
}

impl Wire for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(v: &Scalar<'_>) -> Result<Self, &'static str> {
        match v {
            Scalar::Int(i) if *i >= 0 => Ok(*i as u64),
            _ => Err("is not a non-negative integer"),
        }
    }
    fn sample(i: u64) -> Self {
        i
    }
}

impl Wire for usize {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(v: &Scalar<'_>) -> Result<Self, &'static str> {
        usize::try_from(u64::read(v)?).map_err(|_| "is out of range")
    }
    fn sample(i: u64) -> Self {
        i as usize
    }
}

impl Wire for bool {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(v: &Scalar<'_>) -> Result<Self, &'static str> {
        match v {
            Scalar::Bool(b) => Ok(*b),
            _ => Err("is not a boolean"),
        }
    }
    fn sample(i: u64) -> Self {
        i % 2 == 1
    }
}

/// Floats print via the shortest-roundtrip formatter (deterministic for a
/// given bit pattern); non-finite values become `null`, matching the
/// persisted-results contract that NaN/∞ never appear as JSON numbers.
/// `null` reads back as NaN, and an integer literal reads as a float.
impl Wire for f64 {
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
    fn read(v: &Scalar<'_>) -> Result<Self, &'static str> {
        match v {
            Scalar::Int(i) => Ok(*i as f64),
            Scalar::Num(x) => Ok(*x),
            Scalar::Null => Ok(f64::NAN),
            _ => Err("is not a number"),
        }
    }
    /// Eighths: exact in binary, fractional for most `i`, integral (and so
    /// printed without a decimal point) for every eighth one.
    fn sample(i: u64) -> Self {
        i as f64 / 8.0
    }
    fn is_infinite_float(&self) -> bool {
        self.is_infinite()
    }
    fn collapse_infinity(&mut self) {
        if self.is_infinite() {
            *self = f64::NAN;
        }
    }
}

/// Tags are drawn from fixed vocabularies whose strings contain no
/// characters needing JSON escaping, so the writer never escapes — and the
/// reader refuses a string the writer could not have produced.
fn is_plain_tag(s: &str) -> bool {
    s.bytes().all(|c| c.is_ascii_graphic() && c != b'"' && c != b'\\')
}

/// The string a tag field (or `"ev"`) holds, borrowed from the line.
fn plain_tag<'s>(v: &'s Scalar<'_>) -> Result<&'s str, &'static str> {
    match v {
        Scalar::Str(s) if is_plain_tag(s) => Ok(s),
        Scalar::Str(_) => Err("is not a plain tag (unescaped printable ASCII)"),
        _ => Err("is not a string"),
    }
}

/// Every spelling an emitter in this workspace puts in a [`Tag`] field,
/// commonest first. A tag read from a file borrows it from here instead
/// of allocating; `tests/tag_vocabulary.rs` fails when one is missing.
#[rustfmt::skip]
const VOCABULARY: [&str; 33] = [
    // seesaw::Role, theta_sim::PhaseKind
    "sim", "analysis",
    "integrate", "force", "neighbor_rebuild", "sync_exchange", "thermo_io", "analysis_rdf",
    "analysis_vacf", "analysis_msd", "analysis_msd1d", "analysis_msd2d", "wait",
    // `controller_hold` reasons (crates/core/src/seesaw.rs)
    "corrupt_sample", "degenerate_feedback",
    // faults::FaultKind
    "node_crash", "straggler", "rapl_stuck", "rapl_delayed", "rapl_write_error", "sample_nan",
    "sample_spike", "sample_dropout", "monitor_death", "message_loss", "collective_timeout",
    // faults::RecoveryKind
    "monitor_reelected", "node_excluded", "budget_renormalized", "sample_rejected",
    "allocation_held", "cap_write_retried", "collective_retried",
];

impl Wire for Tag {
    fn write(&self, out: &mut String) {
        debug_assert!(is_plain_tag(self));
        out.push('"');
        out.push_str(self);
        out.push('"');
    }
    fn read(v: &Scalar<'_>) -> Result<Self, &'static str> {
        let s = plain_tag(v)?;
        Ok(match VOCABULARY.iter().find(|known| **known == s) {
            Some(known) => Tag::Borrowed(known),
            None => Tag::Owned(s.to_string()),
        })
    }
    fn sample(_: u64) -> Self {
        Tag::Borrowed("sample")
    }
}

fn write_field(out: &mut String, key: &str, v: &impl Wire) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    v.write(out);
}

/// Where `read_fields` takes its values from, in wire order: the cursor
/// over the line, or the tree the tests' reference reader walks.
trait FieldSource {
    /// The next field, which must be keyed `key` and hold a `T`.
    fn read<T: Wire>(&mut self, key: &str) -> Result<T, EventError>;
}

/// Cursor over a line's fields that enforces exact key order.
struct Fields<'a>(json::Fields<'a>);

impl<'a> Fields<'a> {
    /// The next field's value; the field must be keyed `key`.
    fn value_of(&mut self, key: &str) -> Result<Scalar<'a>, EventError> {
        match self.0.next_field().map_err(invalid_json)? {
            Some((k, v)) if k == key => Ok(v),
            Some((k, _)) => err(format!("expected field \"{key}\", found \"{k}\"")),
            None => err(format!("missing field \"{key}\"")),
        }
    }

    fn finish(mut self) -> Result<(), EventError> {
        match self.0.next_field().map_err(invalid_json)? {
            None => Ok(()),
            Some((k, _)) => err(format!("unexpected extra field \"{k}\"")),
        }
    }
}

impl FieldSource for Fields<'_> {
    fn read<T: Wire>(&mut self, key: &str) -> Result<T, EventError> {
        T::read(&self.value_of(key)?).map_err(|what| wrong_type(key, what))
    }
}

/// Expands the schema table into the [`Event`] enum and everything that
/// must agree with it. Rows are `Variant = "ev tag" { field: type, … }`
/// in wire order; the one `@boxed` row also names the payload struct its
/// variant boxes.
macro_rules! event_schema {
    (
        $(
            $(#[$vmeta:meta])*
            $V:ident = $tag:literal { $( $(#[$fmeta:meta])* $f:ident: $T:ty ),* $(,)? }
        )*
        @boxed
        $(#[$bmeta:meta])*
        $BV:ident = $btag:literal
        $(#[$smeta:meta])*
        $S:ident { $( $(#[$bfmeta:meta])* $bf:ident: $BT:ty ),* $(,)? }
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $S {
            $( $(#[$bfmeta])* pub $bf: $BT, )*
        }

        /// One structured trace event (payload only; the timestamp lives in
        /// [`TraceEvent`]).
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $( $(#[$vmeta])* $V { $( $(#[$fmeta])* $f: $T, )* }, )*
            $(#[$bmeta])*
            $BV(Box<$S>),
        }

        impl Event {
            /// Stable lowercase tag identifying the variant in serialized output.
            pub fn tag(&self) -> &'static str {
                match self {
                    $( Event::$V { .. } => $tag, )*
                    Event::$BV(_) => $btag,
                }
            }

            fn write_fields(&self, out: &mut String) {
                match self {
                    $( Event::$V { $($f),* } => { $( write_field(out, stringify!($f), $f); )* } )*
                    Event::$BV(b) => { $( write_field(out, stringify!($bf), &b.$bf); )* }
                }
            }

            fn read_fields(tag: &str, f: &mut impl FieldSource) -> Result<Event, EventError> {
                Ok(match tag {
                    $( $tag => Event::$V { $( $f: f.read(stringify!($f))?, )* }, )*
                    $btag => Event::$BV(Box::new($S { $( $bf: f.read(stringify!($bf))?, )* })),
                    other => return err(format!("unknown event tag \"{other}\"")),
                })
            }

            fn has_infinite_float(&self) -> bool {
                match self {
                    $( Event::$V { $($f),* } => false $( || $f.is_infinite_float() )*, )*
                    Event::$BV(b) => false $( || b.$bf.is_infinite_float() )*,
                }
            }

            fn collapse_infinities(&mut self) {
                match self {
                    $( Event::$V { $($f),* } => { $( $f.collapse_infinity(); )* } )*
                    Event::$BV(b) => { $( b.$bf.collapse_infinity(); )* }
                }
            }

            /// One instance of every variant, in table order, every field
            /// holding a distinct sample value.
            fn one_of_each() -> Vec<Event> {
                let mut i = 0;
                let mut next = || {
                    i += 1;
                    i
                };
                vec![
                    $( Event::$V { $( $f: Wire::sample(next()), )* }, )*
                    Event::$BV(Box::new($S { $( $bf: Wire::sample(next()), )* })),
                ]
            }
        }
    };
}

event_schema! {
    // --- insitu runtime: run header/footer and synchronization epochs ----
    /// Run context header, emitted once before the first sync: everything
    /// the audit layer needs to check budget conservation and cap ranges
    /// without being handed the job config out of band.
    RunStart = "run_start" {
        /// Simulation-partition node count.
        sim_nodes: usize,
        /// Analysis-partition node count.
        analysis_nodes: usize,
        /// Global power budget, watts.
        budget_w: f64,
        /// RAPL range floor (δ_min), watts.
        min_cap_w: f64,
        /// RAPL range ceiling (δ_max = TDP), watts.
        max_cap_w: f64,
        /// RAPL actuation latency, nanoseconds.
        actuation_ns: u64,
    }
    /// A synchronization interval opened.
    SyncStart = "sync_start" {
        /// 1-based synchronization index.
        sync: u64,
    }
    /// A node reached the rendezvous point.
    Arrival = "arrival" {
        /// Synchronization index.
        sync: u64,
        /// Node id.
        node: usize,
        /// Partition tag (`"sim"` / `"analysis"`).
        role: Tag,
        /// Time from interval start to arrival, seconds.
        time_s: f64,
    }
    /// Both partitions arrived; the earlier one waited.
    Rendezvous = "rendezvous" {
        /// Synchronization index.
        sync: u64,
        /// Simulation partition time (slowest node), seconds.
        sim_time_s: f64,
        /// Analysis partition time (slowest node), seconds.
        analysis_time_s: f64,
        /// Normalized wait slack `|T_S − T_A| / max(T_S, T_A)`.
        slack: f64,
    }
    /// The interval closed (allocation overhead included).
    SyncEnd = "sync_end" {
        /// Synchronization index.
        sync: u64,
        /// Allocation overhead charged at interval end, seconds.
        overhead_s: f64,
    }
    /// True cluster energy over one closed interval, joules. The intervals
    /// tile `[0, T]`, so these must sum to [`Event::RunEnd`]'s total — the
    /// audit layer's energy identity.
    SyncEnergy = "sync_energy" {
        /// Synchronization index.
        sync: u64,
        /// Energy over `[t_start, t_end)` summed across all nodes, joules.
        energy_j: f64,
    }
    /// Whole-run true energy of one node, joules (emitted at run end).
    NodeEnergy = "node_energy" {
        /// Node id.
        node: usize,
        /// Energy over `[0, T)`, joules.
        energy_j: f64,
    }
    /// Run footer: the totals every per-interval and per-node energy
    /// series must close against.
    RunEnd = "run_end" {
        /// Total simulated run time, seconds.
        total_time_s: f64,
        /// Total true energy, joules.
        total_energy_j: f64,
    }

    // --- theta-sim: node activity and RAPL actuation --------------------
    /// A node executed one phase (a completed span).
    Phase = "phase" {
        /// Node id.
        node: usize,
        /// Phase kind tag (e.g. `"force"`, `"analysis_msd"`).
        kind: Tag,
        /// Span start, nanoseconds of simulated time.
        start_ns: u64,
        /// Span end, nanoseconds of simulated time.
        end_ns: u64,
    }
    /// A node blocked at a synchronization point (wait slack span).
    Wait = "wait" {
        /// Node id.
        node: usize,
        /// Span start, nanoseconds of simulated time.
        start_ns: u64,
        /// Span end, nanoseconds of simulated time.
        end_ns: u64,
    }
    /// A RAPL cap request, with what the PCU will actually do about it.
    CapRequest = "cap_request" {
        /// Node id.
        node: usize,
        /// Cap the controller asked for, watts.
        requested_w: f64,
        /// Cap accepted after range clamping, watts.
        granted_w: f64,
        /// When enforcement changes (actuation latency included),
        /// nanoseconds of simulated time; equals the request time when the
        /// request was a no-op or was swallowed by a stuck PCU.
        effective_ns: u64,
    }

    // --- polimer: measurement and exchange ------------------------------
    /// A plausible node sample entered the aggregation window.
    Sample = "sample" {
        /// Node id.
        node: usize,
        /// Partition tag.
        role: Tag,
        /// Interval time, seconds.
        time_s: f64,
        /// Measured mean power, watts.
        power_w: f64,
        /// Cap in force, watts.
        cap_w: f64,
    }
    /// A sample failed the plausibility gate (or arrived from a dead node).
    SampleRejected = "sample_rejected" {
        /// Node id.
        node: usize,
    }
    /// One measurement exchange + decision completed.
    ExchangeDone = "exchange_done" {
        /// Synchronization index the exchange closed.
        sync: u64,
        /// Exchange + decision overhead, seconds.
        overhead_s: f64,
        /// Whether the controller produced a new allocation.
        decided: bool,
    }
    /// A node's monitor rank died and a peer was promoted.
    MonitorReelected = "monitor_reelected" {
        /// Node id.
        node: usize,
        /// The promoted global rank.
        new_rank: usize,
    }
    /// A crashed node was excluded from aggregation.
    NodeExcluded = "node_excluded" {
        /// Node id.
        node: usize,
    }
    /// The budget was renormalized over the surviving nodes.
    BudgetRenormalized = "budget_renormalized" {
        /// The new global budget, watts.
        budget_w: f64,
    }
    /// The exchange was abandoned and the previous allocation held.
    AllocationHeld = "allocation_held" {
        /// Synchronization index.
        sync: u64,
    }

    // --- seesaw controller: decision internals ---------------------------
    /// The controller held the current caps instead of allocating.
    ControllerHold = "controller_hold" {
        /// Synchronization index.
        sync: u64,
        /// Why (`"corrupt_sample"`, `"degenerate_feedback"`).
        reason: Tag,
    }

    // --- sched: machine-level job scheduling ------------------------------
    /// Machine scheduler header, emitted once when the epoch loop starts:
    /// the envelope every [`Event::MachineBudget`] division must sum to.
    MachineStart = "machine_start" {
        /// Machine node count.
        nodes: usize,
        /// Machine power envelope, watts.
        envelope_w: f64,
    }
    /// A job entered the machine queue.
    JobArrived = "job_arrived" {
        /// Job id (queue ordinal).
        job: usize,
    }
    /// A queued job was admitted and started running.
    JobStarted = "job_started" {
        /// Job id.
        job: usize,
        /// Nodes leased to the job.
        nodes: usize,
        /// Initial power budget handed to the job, watts.
        budget_w: f64,
    }
    /// A running job finished all its synchronizations.
    JobCompleted = "job_completed" {
        /// Job id.
        job: usize,
        /// The job's own simulated completion time, seconds.
        time_s: f64,
    }
    /// A running job was killed by fault injection.
    JobKilled = "job_killed" {
        /// Job id.
        job: usize,
    }
    /// The machine governor re-divided the envelope for one epoch.
    MachineBudget = "machine_budget" {
        /// Scheduling epoch ordinal.
        epoch: u64,
        /// Power allocated to running jobs, watts.
        allocated_w: f64,
        /// Power left in the pool (no running job can absorb it), watts.
        pool_w: f64,
    }

    // --- fleet: federation, failure domains, recovery ---------------------
    /// Fleet header, emitted once before the first fleet epoch: the global
    /// envelope and the retry contract every fleet invariant checks
    /// against.
    FleetStart = "fleet_start" {
        /// Number of federated machines.
        machines: usize,
        /// Global fleet power envelope, watts.
        envelope_w: f64,
        /// Backoff base, fleet epochs (first retry waits this long).
        retry_base_epochs: u64,
        /// Backoff ceiling, fleet epochs.
        retry_cap_epochs: u64,
        /// Retry budget per job (dispatches after the first).
        max_retries: u64,
    }
    /// A machine was declared down (heartbeat misses exceeded the
    /// threshold after a crash or partition).
    MachineDown = "machine_down" {
        /// Machine id (fleet ordinal).
        machine: usize,
        /// Fleet epoch of the declaration.
        epoch: u64,
    }
    /// A previously-down machine healed and rejoined (partitions only;
    /// crashes are permanent).
    MachineUp = "machine_up" {
        /// Machine id.
        machine: usize,
        /// Fleet epoch of the rejoin.
        epoch: u64,
    }
    /// A fleet job was handed to a machine (first dispatch or
    /// resubmission).
    JobDispatched = "job_dispatched" {
        /// Fleet-global job id.
        job: usize,
        /// Target machine.
        machine: usize,
    }
    /// A job lost to a machine failure was scheduled for resubmission.
    JobRetry = "job_retry" {
        /// Fleet-global job id.
        job: usize,
        /// Retry ordinal (1-based: first resubmission is attempt 1).
        attempt: u64,
        /// Fleet epochs the job waits before redispatch (capped
        /// exponential backoff).
        backoff_epochs: u64,
    }
    /// A retried job was placed on a different machine than it left.
    JobMigrated = "job_migrated" {
        /// Fleet-global job id.
        job: usize,
        /// Machine the job was evacuated from.
        from_machine: usize,
        /// Machine the job resumed on.
        to_machine: usize,
    }
    /// A job exhausted its retry budget and was reported failed.
    JobFailed = "job_failed" {
        /// Fleet-global job id.
        job: usize,
        /// Total dispatch attempts consumed.
        attempts: u64,
    }
    /// The fleet envelope was re-divided across live machines after a
    /// membership change (one event per surviving member, same epoch).
    EnvelopeRenorm = "envelope_renorm" {
        /// Fleet epoch of the renormalization.
        epoch: u64,
        /// Member machine receiving the share.
        machine: usize,
        /// Share handed to the machine, watts.
        share_w: f64,
        /// The machine's own envelope ceiling, watts.
        cap_w: f64,
    }

    // --- faults ----------------------------------------------------------
    /// An injected fault fired.
    Fault = "fault" {
        /// Synchronization interval (0-based plan ordinal).
        sync: u64,
        /// Target node.
        node: usize,
        /// Stable fault tag (`faults::FaultKind::tag`).
        tag: Tag,
    }
    /// A graceful-degradation action was taken.
    Recovery = "recovery" {
        /// Synchronization interval (0-based plan ordinal).
        sync: u64,
        /// Node the action concerned.
        node: usize,
        /// Stable recovery tag (`faults::RecoveryKind::tag`).
        tag: Tag,
    }

    @boxed
    /// One SeeSAw window closed and produced an allocation (Eqs. 1–4).
    Decision = "decision"
    /// The payload of a [`Event::Decision`] (boxed: the decision carries by
    /// far the widest field set, and boxing it keeps the common variants —
    /// phases, waits, samples — small enough that the hot-path buffer push
    /// stays a short memcpy).
    DecisionInfo {
        /// Synchronization index of the closing observation.
        sync: u64,
        /// Simulation nodes the split was computed over.
        sim_nodes: usize,
        /// Analysis nodes the split was computed over.
        analysis_nodes: usize,
        /// `α_S = 1/(T_S·P_S)` over the window (Eq. 1).
        alpha_sim: f64,
        /// `α_A = 1/(T_A·P_A)` over the window (Eq. 1).
        alpha_analysis: f64,
        /// Analytic optimum for the simulation partition, watts (Eq. 2).
        p_opt_sim_w: f64,
        /// Analytic optimum for the analysis partition, watts (Eq. 2).
        p_opt_analysis_w: f64,
        /// Post-EWMA partition total, simulation, watts (Eqs. 3–4).
        blend_sim_w: f64,
        /// Post-EWMA partition total, analysis, watts (Eqs. 3–4).
        blend_analysis_w: f64,
        /// Final per-node cap, simulation partition, watts.
        sim_node_w: f64,
        /// Final per-node cap, analysis partition, watts.
        analysis_node_w: f64,
        /// Whether the δ-limits clamped the blended split.
        clamped: bool,
    }
}

/// A timestamped event: what happened, and *when on the simulation clock*.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time at which the event was recorded.
    pub t: SimTime,
    /// The payload.
    pub ev: Event,
}

impl TraceEvent {
    /// Serialize as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out);
        out
    }

    /// Append the compact JSON form to `out`.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"t\":{},\"ev\":\"{}\"", self.t.as_nanos(), self.ev.tag());
        self.ev.write_fields(out);
        out.push('}');
    }

    /// Parse one compact JSONL line into a typed event. Strict: the line
    /// must be exactly `{"t":…,"ev":"…",<payload fields in emitter
    /// order>}` with nothing missing, reordered, or extra.
    pub fn parse_line(line: &str) -> Result<TraceEvent, EventError> {
        let Some(cursor) = json::Fields::open(line).map_err(invalid_json)? else {
            return err("event line is not a JSON object");
        };
        let mut f = Fields(cursor);
        let t: u64 = f.read("t")?;
        let tag = f.value_of("ev")?;
        let tag = plain_tag(&tag).map_err(|what| wrong_type("ev", what))?;
        let ev = Event::read_fields(tag, &mut f)?;
        f.finish()?;
        Ok(TraceEvent { t: SimTime::from_nanos(t), ev })
    }

    /// One event of every variant, in table order, stamped 500 ns apart,
    /// every field holding a distinct sample value — the input of the
    /// schema round-trip tests, which therefore cover a new variant the
    /// moment its row exists.
    pub fn one_of_each() -> Vec<TraceEvent> {
        (0..)
            .zip(Event::one_of_each())
            .map(|(i, ev)| TraceEvent { t: SimTime::from_nanos(i * 500), ev })
            .collect()
    }

    /// The event as a write → parse round trip would return it: `±∞`
    /// collapsed to NaN, because the wire form of every non-finite float
    /// is `null`. This is what makes auditing a live event equivalent to
    /// auditing its serialized line. Borrows unless an infinity is
    /// present, so the common case costs a few float compares.
    pub fn wire_form(&self) -> Cow<'_, TraceEvent> {
        if !self.ev.has_infinite_float() {
            return Cow::Borrowed(self);
        }
        let mut owned = self.clone();
        owned.ev.collapse_infinities();
        Cow::Owned(owned)
    }
}

/// Bytes [`to_jsonl`] reserves per event: above the 105.5 that perfbench's
/// `obs.bytes_per_event` measures on a 32-node seesaw trace, so a typical
/// export never regrows — and copies — the whole document.
const JSONL_BYTES_PER_EVENT: usize = 112;

/// Serialize a slice of events as JSONL (one event per line, trailing
/// newline after the last line — the format `SEESAW_TRACE` files use).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * JSONL_BYTES_PER_EVENT);
    for ev in events {
        ev.write_json(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<TraceEvent, EventError> {
        TraceEvent::parse_line(line)
    }

    #[test]
    fn line_shape_is_compact_json() {
        let ev = TraceEvent { t: SimTime::from_nanos(1_500_000), ev: Event::SyncStart { sync: 3 } };
        assert_eq!(ev.to_json_line(), "{\"t\":1500000,\"ev\":\"sync_start\",\"sync\":3}");
    }

    #[test]
    fn non_finite_floats_serialize_null() {
        let ev =
            TraceEvent { t: SimTime::ZERO, ev: Event::BudgetRenormalized { budget_w: f64::NAN } };
        assert!(ev.to_json_line().contains("\"budget_w\":null"));
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let evs = vec![
            TraceEvent { t: SimTime::ZERO, ev: Event::SyncStart { sync: 1 } },
            TraceEvent {
                t: SimTime::from_nanos(5),
                ev: Event::SyncEnd { sync: 1, overhead_s: 0.25 },
            },
        ];
        let s = to_jsonl(&evs);
        assert_eq!(s.lines().count(), 2);
        assert!(s.ends_with('\n'));
    }

    #[test]
    fn parse_round_trips_bytes() {
        let lines = [
            "{\"t\":0,\"ev\":\"run_start\",\"sim_nodes\":12,\"analysis_nodes\":4,\"budget_w\":1760,\"min_cap_w\":98,\"max_cap_w\":215,\"actuation_ns\":10000000}",
            "{\"t\":1500000,\"ev\":\"sync_start\",\"sync\":3}",
            "{\"t\":2000000,\"ev\":\"sample\",\"node\":7,\"role\":\"sim\",\"time_s\":2.5,\"power_w\":109.63,\"cap_w\":115}",
            "{\"t\":9,\"ev\":\"exchange_done\",\"sync\":1,\"overhead_s\":0.05,\"decided\":true}",
            "{\"t\":5,\"ev\":\"budget_renormalized\",\"budget_w\":null}",
            "{\"t\":0,\"ev\":\"fleet_start\",\"machines\":3,\"envelope_w\":2100,\"retry_base_epochs\":1,\"retry_cap_epochs\":8,\"max_retries\":3}",
            "{\"t\":7,\"ev\":\"machine_down\",\"machine\":1,\"epoch\":4}",
            "{\"t\":8,\"ev\":\"machine_up\",\"machine\":1,\"epoch\":9}",
            "{\"t\":7,\"ev\":\"job_dispatched\",\"job\":2,\"machine\":0}",
            "{\"t\":7,\"ev\":\"job_retry\",\"job\":2,\"attempt\":1,\"backoff_epochs\":1}",
            "{\"t\":9,\"ev\":\"job_migrated\",\"job\":2,\"from_machine\":1,\"to_machine\":0}",
            "{\"t\":9,\"ev\":\"job_failed\",\"job\":5,\"attempts\":4}",
            "{\"t\":7,\"ev\":\"envelope_renorm\",\"epoch\":4,\"machine\":0,\"share_w\":1050.5,\"cap_w\":1100}",
        ];
        for line in lines {
            let ev = parse(line).expect(line);
            assert_eq!(ev.to_json_line(), line);
        }
    }

    /// The table-generated sample set goes write → strict parse → `==` and
    /// → write byte-for-byte, so a variant is covered the moment its row
    /// exists.
    #[test]
    fn every_variant_round_trips_typed_and_byte_for_byte() {
        let all = TraceEvent::one_of_each();
        let mut tags: Vec<&str> = all.iter().map(|te| te.ev.tag()).collect();
        tags.dedup();
        assert_eq!(tags.len(), all.len(), "one sample per variant, distinct tags");
        for te in all {
            let line = te.to_json_line();
            let parsed = parse(&line).unwrap_or_else(|e| panic!("rejected {line}: {e}"));
            assert_eq!(parsed, te, "typed round trip drifted: {line}");
            assert_eq!(parsed.to_json_line(), line, "round trip not byte-identical");
            assert!(matches!(te.wire_form(), Cow::Borrowed(_)), "finite sample: {line}");
        }
    }

    #[test]
    fn reordered_fields_are_rejected() {
        let e = parse("{\"t\":1,\"ev\":\"sync_end\",\"overhead_s\":0.1,\"sync\":1}");
        assert_eq!(e.unwrap_err().0, "expected field \"sync\", found \"overhead_s\"");
    }

    #[test]
    fn extra_and_missing_fields_are_rejected() {
        let e = parse("{\"t\":1,\"ev\":\"sync_start\"}");
        assert_eq!(e.unwrap_err().0, "missing field \"sync\"");
        let e = parse("{\"t\":1,\"ev\":\"sync_start\",\"sync\":1,\"x\":2}");
        assert_eq!(e.unwrap_err().0, "unexpected extra field \"x\"");
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let e = parse("{\"t\":1,\"ev\":\"nope\"}");
        assert_eq!(e.unwrap_err().0, "unknown event tag \"nope\"");
    }

    #[test]
    fn non_object_lines_are_rejected() {
        assert_eq!(parse("[1,2]").unwrap_err().0, "event line is not a JSON object");
        let e = parse("{\"t\":1,\"ev\":\"sync_start\",\"sync\":1} junk");
        assert!(e.unwrap_err().0.starts_with("invalid JSON: trailing characters"));
    }

    #[test]
    fn wrongly_typed_fields_are_rejected() {
        let cases = [
            ("{\"t\":1.5,\"ev\":\"sync_start\",\"sync\":1}", "\"t\" is not a non-negative integer"),
            (
                "{\"t\":1,\"ev\":\"sync_start\",\"sync\":-1}",
                "\"sync\" is not a non-negative integer",
            ),
            // Past i64::MAX an integer literal reads as a float.
            (
                "{\"t\":1,\"ev\":\"sync_start\",\"sync\":9223372036854775808}",
                "\"sync\" is not a non-negative integer",
            ),
            (
                "{\"t\":1,\"ev\":\"node_excluded\",\"node\":null}",
                "\"node\" is not a non-negative integer",
            ),
            (
                "{\"t\":1,\"ev\":\"sync_end\",\"sync\":1,\"overhead_s\":\"x\"}",
                "\"overhead_s\" is not a number",
            ),
            (
                "{\"t\":1,\"ev\":\"exchange_done\",\"sync\":1,\"overhead_s\":0,\"decided\":1}",
                "\"decided\" is not a boolean",
            ),
            (
                "{\"t\":1,\"ev\":\"controller_hold\",\"sync\":1,\"reason\":7}",
                "\"reason\" is not a string",
            ),
            (
                "{\"t\":1,\"ev\":\"controller_hold\",\"sync\":1,\"reason\":\"a\\\"b\"}",
                "\"reason\" is not a plain tag (unescaped printable ASCII)",
            ),
            ("{\"t\":1,\"ev\":7}", "\"ev\" is not a string"),
        ];
        for (line, what) in cases {
            assert_eq!(parse(line).unwrap_err().0, format!("field {what}"), "{line}");
        }
    }

    #[test]
    fn float_field_accepts_integer_literal() {
        let ev = parse("{\"t\":0,\"ev\":\"budget_renormalized\",\"budget_w\":1700}").unwrap();
        assert_eq!(ev.ev, Event::BudgetRenormalized { budget_w: 1700.0 });
    }

    #[test]
    fn unknown_vocabulary_in_a_tag_field_still_parses() {
        let line = "{\"t\":0,\"ev\":\"fault\",\"sync\":1,\"node\":4,\"tag\":\"gremlin\"}";
        let ev = parse(line).expect("the audit battery judges the vocabulary, not the parser");
        assert_eq!(ev.ev, Event::Fault { sync: 1, node: 4, tag: "gremlin".into() });
        assert_eq!(ev.to_json_line(), line);
    }

    #[test]
    fn wire_form_collapses_infinities_like_the_round_trip() {
        let cases = vec![
            Event::BudgetRenormalized { budget_w: f64::INFINITY },
            Event::Rendezvous {
                sync: 2,
                sim_time_s: 1.5,
                analysis_time_s: f64::NAN,
                slack: f64::NEG_INFINITY,
            },
            Event::MachineBudget { epoch: 3, allocated_w: 440.0, pool_w: 440.0 },
            Event::Fault { sync: 1, node: 4, tag: "straggler".into() },
        ];
        for ev in cases {
            let te = TraceEvent { t: SimTime::from_nanos(9), ev };
            let wire = te.wire_form();
            let round = parse(&te.to_json_line()).unwrap();
            // NaN breaks PartialEq — compare float fields through Debug,
            // which tells NaN from inf where the byte format cannot.
            assert_eq!(format!("{:?}", *wire), format!("{round:?}"));
            assert_eq!(wire.to_json_line(), te.to_json_line());
        }
    }

    /// The reader this module had before the line cursor: the whole line
    /// parsed into a tree, then the tree's fields walked in order. Kept as
    /// the oracle the single-pass reader is compared against.
    struct TreeFields<'a> {
        fields: &'a [(String, json::Value)],
        next: usize,
    }

    impl FieldSource for TreeFields<'_> {
        fn read<T: Wire>(&mut self, key: &str) -> Result<T, EventError> {
            use json::Value;
            match self.fields.get(self.next) {
                Some((k, v)) if k == key => {
                    self.next += 1;
                    let v = match v {
                        Value::Null => Scalar::Null,
                        Value::Bool(b) => Scalar::Bool(*b),
                        Value::Int(i) => Scalar::Int(*i),
                        Value::Num(x) => Scalar::Num(*x),
                        Value::Str(s) => Scalar::Str(Cow::Borrowed(s)),
                        Value::Arr(_) | Value::Obj(_) => Scalar::Container,
                    };
                    T::read(&v).map_err(|what| EventError(format!("field \"{key}\" {what}")))
                }
                Some((k, _)) => err(format!("expected field \"{key}\", found \"{k}\"")),
                None => err(format!("missing field \"{key}\"")),
            }
        }
    }

    fn reference_parse_line(line: &str) -> Result<TraceEvent, EventError> {
        let value = json::parse(line).map_err(|e| EventError(format!("invalid JSON: {e}")))?;
        let Some(obj) = value.as_obj() else {
            return err("event line is not a JSON object");
        };
        let mut f = TreeFields { fields: obj, next: 0 };
        let t: u64 = f.read("t")?;
        let tag: Tag = f.read("ev")?;
        let ev = Event::read_fields(&tag, &mut f)?;
        if let Some((k, _)) = f.fields.get(f.next) {
            return err(format!("unexpected extra field \"{k}\""));
        }
        Ok(TraceEvent { t: SimTime::from_nanos(t), ev })
    }

    /// One seeded mutation of `line`. Field-level mutations cut the line
    /// at its commas (no sample value contains one), whatever an earlier
    /// mutation left of it.
    fn mutate(line: &str, below: &mut impl FnMut(usize) -> usize) -> String {
        // Every wire type in the writer's spelling, integers past i64::MAX
        // and u64::MAX, containers, escapes, and three malformed numbers.
        const VALUES: [&str; 16] = [
            "7",
            "0.5",
            "-3",
            "true",
            "null",
            "\"sim\"",
            "\"gremlin\"",
            "9223372036854776000",
            "18446744073709552000",
            "[{\"k\":[]}]",
            "{}",
            "\"a\\\"b\"",
            "\"\\u0073im\"",
            "01",
            "1.",
            "-",
        ];
        let at = below(line.len() + 1);
        let insert = |s: &str| format!("{}{s}{}", &line[..at], &line[at..]);
        match below(8) {
            0 => line[..at].to_string(),
            1 if !line.is_empty() => {
                let mut bytes = line.as_bytes().to_vec();
                bytes[at % line.len()] = below(128) as u8;
                String::from_utf8(bytes).expect("ASCII stays UTF-8")
            }
            2 => insert(" "),
            3 => insert(["{", "}", "[", "]", ",", ":", "\"", "\\"][below(8)]),
            kind => {
                let inner = line.get(1..line.len().saturating_sub(1)).unwrap_or("");
                let mut fields: Vec<String> = inner.split(',').map(String::from).collect();
                let (i, j) = (below(fields.len()), below(fields.len()));
                match kind {
                    4 => fields.swap(i, j),
                    5 => fields.insert(i, fields[j].clone()),
                    6 => drop(fields.remove(i)),
                    _ => {
                        let key = fields[i].split_once(':').map_or("", |(key, _)| key);
                        fields[i] = format!("{key}:{}", VALUES[below(VALUES.len())]);
                    }
                }
                format!("{{{}}}", fields.join(","))
            }
        }
    }

    /// The single-pass reader against the tree-walking one, over seeded
    /// single and double mutations of every variant's line: the same
    /// lines are accepted, to the same events; a rejected line gets the
    /// same message, except that where the old reader put any syntax error
    /// first, the new one reports the first defect in byte order — which
    /// is to say, the same message it gives the line cut off at the syntax
    /// error.
    #[test]
    fn single_pass_reader_matches_the_tree_walking_reader() {
        let lines: Vec<String> =
            TraceEvent::one_of_each().iter().map(TraceEvent::to_json_line).collect();
        let (mut accepted, mut same_message, mut earlier_defect) = (0, 0, 0);
        for seed in [1, 7] {
            let mut rng = des::Rng::seed_from_u64(seed);
            let mut below = |n: usize| rng.next_below(n as u64) as usize;
            for _ in 0..140 {
                for line in &lines {
                    let mut mutated = mutate(line, &mut below);
                    if below(2) == 1 {
                        mutated = mutate(&mutated, &mut below);
                    }
                    match (parse(&mutated), reference_parse_line(&mutated)) {
                        (Ok(new), Ok(old)) => {
                            accepted += 1;
                            // Debug tells NaN from NaN's absence and -0 from
                            // 0, which `==` and the wire form do not.
                            assert_eq!(format!("{new:?}"), format!("{old:?}"), "{mutated}");
                            assert_eq!(new.to_json_line(), old.to_json_line(), "{mutated}");
                        }
                        (Err(new), Err(old)) if new == old => same_message += 1,
                        (Err(new), Err(old)) => {
                            earlier_defect += 1;
                            let at = old
                                .0
                                .strip_prefix("invalid JSON: ")
                                .and_then(|msg| msg.rsplit_once(" at byte "))
                                .and_then(|(_, at)| at.parse::<usize>().ok())
                                .unwrap_or_else(|| panic!("{mutated}: {old} became {new}"));
                            assert!(!new.0.starts_with("invalid JSON:"), "{mutated}: {new}");
                            assert_eq!(parse(&mutated[..at]), Err(new), "{mutated}: {old}");
                        }
                        (new, old) => panic!("{mutated}: {old:?} became {new:?}"),
                    }
                }
            }
        }
        assert_eq!(accepted + same_message + earlier_defect, 2 * 140 * lines.len());
        assert!(accepted > 500 && same_message > 5000 && earlier_defect > 50, "vacuous");
    }

    #[test]
    fn event_stays_one_cache_line() {
        // The widest inline variant (`sample`: usize + Tag + 3 × f64) is
        // seven words and the Tag's niche holds the discriminant, so the
        // three-word `Tag` costs no more than `&'static str` did.
        assert_eq!(std::mem::size_of::<Event>(), 56);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 64);
    }
}
