//! The sessionized AP feedback server.
//!
//! [`ApServer`] partitions station sessions across `N` independent shards
//! (deterministic `id % N` mapping; one shard by default) and closes each
//! sounding round through a single [`ApServer::close`]: every shard runs the
//! *very same* per-shard round close over its own session map and round
//! arena, in parallel when there is more than one, and the per-shard outcomes
//! merge deterministically in shard order. Because the fused batched tail
//! kernel's per-element accumulation is independent of batch shape (see
//! [`splitbeam::fused`]), splitting a model's stations across shards changes
//! batch boundaries but not a single output bit: every shard count is
//! bit-exact with the station-at-a-time serial reference, under every kernel
//! backend.
//!
//! The server also owns **session lifecycle**:
//!
//! * *capacity caps* — [`ApServer::set_capacity`] bounds the station count;
//!   registrations beyond it are rejected with
//!   [`ServeError::CapacityExceeded`],
//! * *idle eviction* — [`ApServer::set_max_idle_rounds`] drops stations that
//!   produced no feedback for more than the configured number of rounds
//!   (never-reporting stations are measured from association),
//! * *clean re-registration* — a deregistered or evicted id can associate
//!   again and starts from a blank session.

use crate::ring::Ring;
use crate::session::{SessionHealth, StationId, StationSession};
use crate::slab::SessionSlab;
use crate::timing::{DeadlinePolicy, FrameClass, FrameStamp, RoundDelayStats};
use crate::ServeError;
use mimo_math::kernel::Kernel;
use mimo_math::Int8Kernel;
use rayon::prelude::*;
use splitbeam::fused::{QuantizedTail, TailScratch, TailWeights};
use splitbeam::model::SplitBeamModel;
use splitbeam::quantization::QuantizedFeedback;
use splitbeam::wire;
use std::sync::Arc;
use wifi_phy::precoding::BeamformingFeedback;

/// What one call to [`ApServer::close`] did, merged across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSummary {
    /// Index of the round that was just closed.
    pub round: u64,
    /// Stations whose payload was reconstructed this round (on-time plus
    /// late-but-usable).
    pub served: usize,
    /// Registered stations that have reported in some earlier round but
    /// delivered nothing this round — their feedback aged.
    pub stale: usize,
    /// Registered stations that have never produced feedback: they delivered
    /// nothing this round *and* have nothing to go stale. Kept apart from
    /// [`RoundSummary::stale`] so "aged feedback" and "no feedback yet" stay
    /// distinguishable in serving reports.
    pub awaiting_first_report: usize,
    /// Batched tail invocations performed (one per model with pending traffic).
    pub batches: usize,
    /// Served reports whose end-to-end delay fit the Eq. 7d budget
    /// (inclusive). Untimed lockstep closes count every served report here.
    pub on_time: usize,
    /// Served reports past the budget but within the deadline policy's grace
    /// window — reconstructed, but flagged, never silently fresh.
    pub late: usize,
    /// Reports past budget *and* grace: consumed without reconstruction.
    pub expired: usize,
    /// Virtual-delay breakdown (head/queue/air/tail) summed over served
    /// reports. All-zero under untimed lockstep serving.
    pub delay: RoundDelayStats,
    /// Frames the fault-injected medium dropped this round (event-driven
    /// serving only; always `0` for the lockstep servers).
    pub lost: usize,
    /// Frames rejected by the CRC-32 integrity check this round.
    pub corrupt: usize,
    /// Station retransmissions that were attempted this round (event-driven
    /// serving only; always `0` for the lockstep servers).
    pub retransmitted: usize,
    /// Stale stations still served from last-known-good feedback this round —
    /// their age is within the health policy's staleness cap. A subset of
    /// [`RoundSummary::stale`]; stations past the cap drop out of MU-MIMO
    /// grouping entirely.
    pub stale_served: usize,
}

/// Thresholds of the per-session health state machine (graceful degradation
/// under a lossy or hostile medium).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive silent rounds before a session is marked
    /// [`SessionHealth::Degraded`]; `0` disables degradation tracking.
    pub degrade_after_misses: u32,
    /// Consecutive corrupt frames before a session is quarantined; `0`
    /// disables quarantining.
    pub quarantine_after_corrupt: u32,
    /// How many rounds a quarantine lasts once triggered.
    pub quarantine_rounds: u64,
    /// Maximum feedback age (in rounds) a silent station may be served from
    /// last-known-good feedback before it drops out of MU-MIMO grouping.
    pub stale_serve_cap: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            degrade_after_misses: 2,
            quarantine_after_corrupt: 3,
            quarantine_rounds: 8,
            stale_serve_cap: 3,
        }
    }
}

/// How [`ApServer::close`] closes a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Coalesced: one batched tail inference per model per round (parallel
    /// across shards).
    Batched,
    /// Reference: one tail inference per station (sequential across shards).
    Serial,
    /// Streaming: no round barrier — frames queue on per-shard rings and
    /// shards micro-close on deadline watermarks; the round close only
    /// flushes what watermarks have not already served. With no intermediate
    /// watermark fired this degenerates bit-exactly to [`ServeMode::Batched`].
    Streaming,
}

/// Per-shard slice of the last round close, recorded in shard order. This is
/// how stall-isolation is observed: a deliberately slow shard shows up here
/// with depressed `on_time` while every other shard's numbers are untouched
/// under streaming closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardRoundStats {
    /// Stations this shard served.
    pub served: usize,
    /// Served reports within the Eq. 7d budget.
    pub on_time: usize,
    /// Served reports past budget but within grace.
    pub late: usize,
    /// Reports consumed unreconstructed past budget and grace.
    pub expired: usize,
    /// Batched tail invocations this shard ran.
    pub batches: usize,
    /// Watermark-triggered micro-batch closes (0 for barrier rounds).
    pub micro_closes: usize,
    /// Whether the shard had traffic this round: it ran a batch or expired a
    /// report.
    pub had_traffic: bool,
}

/// The AP-side serving state: model registry, `N` session shards (each
/// holding its stations' pending payload slots for the round being collected
/// and its own round arena), and the session-lifecycle policy.
///
/// Ingest and reconstruction are decoupled: [`ApServer::ingest_wire`] decodes
/// and validates frames as they arrive, [`ApServer::close`] coalesces
/// everything pending into one **fused dequantize→tail** batched inference per
/// model and shard — bit-exact with [`ServeMode::Serial`], which reconstructs
/// station by station through the unfused single-payload path and exists as
/// the reference (and comparison baseline).
///
/// All per-round storage (wire decode buffer, batch id list, fused tail
/// scratch, per-station payload and feedback buffers) is recycled, so a full
/// steady-state ingest→decode→batched-reconstruct round performs no heap
/// allocation once every buffer has reached its high-water capacity.
#[derive(Debug, Clone)]
pub struct ApServer {
    models: Vec<Arc<SplitBeamModel>>,
    /// Int8 tails bound from the registered models (same indices as
    /// `models`); consulted only when `tail_weights` is
    /// [`TailWeights::Int8`].
    tails: Vec<Arc<QuantizedTail>>,
    /// Which weight format round closes reconstruct with. The f32 default is
    /// bit-exact with the pre-quantization serving path.
    tail_weights: TailWeights,
    shards: Vec<ShardCore>,
    round: u64,
    /// When set, wire ingest routes through each shard's streaming ring and
    /// rounds close via watermark-driven micro-batches.
    streaming: bool,
    max_idle_rounds: Option<u64>,
    capacity: Option<usize>,
    last_evicted: usize,
    /// Per-shard stats of the last round close, in shard order. Observability
    /// only: deliberately not part of [`RoundSummary`], so the degenerate
    /// streaming round stays bit-identical to the barrier close.
    last_shard_stats: Vec<ShardRoundStats>,
}

/// Reusable per-round scratch owned by one shard.
#[derive(Debug, Clone)]
struct RoundArena {
    /// Wire frames decode into this buffer before validation; on successful
    /// ingest it is swapped with the station's payload slot, so the two
    /// buffers circulate without reallocating.
    decode_buf: QuantizedFeedback,
    /// Session-slab slots of the batch currently being reconstructed, in
    /// station-id order.
    slots: Vec<u32>,
    /// Buffers of the fused batched tail reconstruction.
    tail: TailScratch,
}

impl Default for RoundArena {
    fn default() -> Self {
        Self {
            decode_buf: QuantizedFeedback {
                bits_per_value: 1,
                min: 0.0,
                max: 0.0,
                codes: Vec::new(),
            },
            slots: Vec::new(),
            tail: TailScratch::new(),
        }
    }
}

/// Default capacity of a shard's streaming ingest ring.
const DEFAULT_STREAM_CAPACITY: usize = 256;

/// One decoded frame queued in a shard's streaming ring, awaiting its
/// watermark commit.
#[derive(Debug)]
struct StreamFrame {
    id: StationId,
    payload: QuantizedFeedback,
    stamp: FrameStamp,
    seq: u16,
}

/// One shard's streaming state: the bounded lock-free ingest ring, a
/// one-frame stash for FIFO head-gated commits, a freelist of recycled
/// payload buffers (steady-state streaming ingest allocates nothing), and
/// the micro-batch accumulator.
#[derive(Debug)]
struct StreamLane {
    ring: Ring<StreamFrame>,
    /// The first not-yet-due frame popped by a commit pass; commits are
    /// FIFO head-gated, so nothing behind it commits either.
    stash: Option<StreamFrame>,
    free: Vec<QuantizedFeedback>,
    /// Counters of the round's micro-batch closes, folded into the round
    /// outcome at the close. Health/staleness accounting deliberately does
    /// NOT live here — it runs exactly once per round, at the close, so
    /// streaming never emits phantom `awaiting_first_report`/`stale` counts
    /// per micro-batch.
    acc: ServePass,
    micro_closes: usize,
}

impl StreamLane {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: Ring::with_capacity(capacity),
            stash: None,
            free: Vec::new(),
            acc: ServePass::default(),
            micro_closes: 0,
        }
    }
}

impl Default for StreamLane {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_STREAM_CAPACITY)
    }
}

impl Clone for StreamLane {
    /// Cloning a serving core clones the lane *empty* (same capacity): the
    /// ring is a synchronization structure, not data to duplicate. Servers
    /// are only cloned quiescent (between rounds), where the lane holds
    /// nothing anyway.
    fn clone(&self) -> Self {
        Self::with_capacity(self.ring.capacity())
    }
}

/// Everything a round close needs to run the tail: the f32 master models, the
/// int8 tails bound from them at registration, which weight format serves this
/// round, and the resolved kernel of each precision tier. Built once per round
/// close and shared (it is `Copy`) by every shard, so the batched, serial,
/// and streaming micro-batch paths all dispatch identically.
#[derive(Debug, Clone, Copy)]
struct TailEngine<'a> {
    models: &'a [Arc<SplitBeamModel>],
    tails: &'a [Arc<QuantizedTail>],
    mode: TailWeights,
    kern: Kernel,
    ik: Int8Kernel,
}

impl<'a> TailEngine<'a> {
    /// Bundles the registries with the kernels currently selected for the f32
    /// and int8 tiers (`SPLITBEAM_KERNEL` / [`mimo_math::kernel::set_kernel`]).
    fn new(
        models: &'a [Arc<SplitBeamModel>],
        tails: &'a [Arc<QuantizedTail>],
        mode: TailWeights,
    ) -> Self {
        Self {
            models,
            tails,
            mode,
            kern: mimo_math::kernel::selected(),
            ik: mimo_math::kernel::int8::selected_int8(),
        }
    }
}

/// One shard's worth of serving state: a session partition plus its private
/// round arena. [`ApServer`] owns `N` and closes them in parallel. Every
/// round-close code path lives here, so every shard count is bit-exact by
/// construction.
#[derive(Debug, Clone, Default)]
struct ShardCore {
    sessions: SessionSlab,
    arena: RoundArena,
    /// Health thresholds applied to every session of this shard.
    health: HealthPolicy,
    /// Corrupt frames seen since the last round close (reported in the next
    /// round's summary, then reset).
    round_corrupt: usize,
    /// Streaming micro-batch state (ring, stash, freelist, accumulator).
    lane: StreamLane,
    /// Artificial close lag injected into this shard's serving path (bench
    /// stall model). Barrier closes pay the *maximum* stall across shards —
    /// the whole round waits on the slowest shard — while streaming closes
    /// pay only the shard's own stall.
    stall_ns: u64,
}

/// What closing one round over one shard did (or, merged in shard order,
/// every shard). `pass.error` carries the first failure (in model-key, then
/// shard order) while the counters describe everything that still happened —
/// a failed batch never blocks the other models' batches.
#[derive(Debug, Default)]
struct RoundOutcome {
    pass: ServePass,
    stale: usize,
    awaiting_first_report: usize,
    corrupt: usize,
    stale_served: usize,
    /// Watermark-triggered micro-batch closes that fired during the round
    /// (streaming only; `0` for barrier closes).
    micro_closes: usize,
}

/// What one serving pass (a barrier close's serve step, or one streaming
/// micro-batch close) did. Health/staleness accounting is *not* here — it
/// belongs to the once-per-round close.
#[derive(Debug, Default)]
struct ServePass {
    served: usize,
    batches: usize,
    on_time: usize,
    late: usize,
    expired: usize,
    delay: RoundDelayStats,
    error: Option<ServeError>,
}

impl ServePass {
    /// Adds `other`'s counters; the first error wins.
    fn fold(&mut self, other: ServePass) {
        self.served += other.served;
        self.batches += other.batches;
        self.on_time += other.on_time;
        self.late += other.late;
        self.expired += other.expired;
        self.delay.merge(&other.delay);
        if self.error.is_none() {
            self.error = other.error;
        }
    }
}

impl RoundOutcome {
    /// Adds another shard's outcome (`RoundDelayStats::merge` is sums and a
    /// max, so folding one outcome into the default reproduces it exactly).
    fn fold(&mut self, other: RoundOutcome) {
        self.pass.fold(other.pass);
        self.stale += other.stale;
        self.awaiting_first_report += other.awaiting_first_report;
        self.corrupt += other.corrupt;
        self.stale_served += other.stale_served;
        self.micro_closes += other.micro_closes;
    }

    fn stats(&self) -> ShardRoundStats {
        let p = &self.pass;
        ShardRoundStats {
            served: p.served,
            on_time: p.on_time,
            late: p.late,
            expired: p.expired,
            batches: p.batches,
            micro_closes: self.micro_closes,
            had_traffic: p.batches > 0 || p.expired > 0,
        }
    }

    /// Converts the outcome into the public summary, surfacing the first
    /// error when one occurred (the partial round state is already applied).
    fn into_summary(self, round: u64) -> Result<RoundSummary, ServeError> {
        let p = self.pass;
        if let Some(e) = p.error {
            return Err(e);
        }
        Ok(RoundSummary {
            round,
            served: p.served,
            stale: self.stale,
            awaiting_first_report: self.awaiting_first_report,
            batches: p.batches,
            on_time: p.on_time,
            late: p.late,
            expired: p.expired,
            delay: p.delay,
            lost: 0,
            corrupt: self.corrupt,
            retransmitted: 0,
            stale_served: self.stale_served,
        })
    }
}

impl ShardCore {
    /// Registration validation, shared verbatim by fresh registration and
    /// roaming adoption so both report identical errors for identical bad
    /// input (model key first, then bit width, then duplicate id).
    fn validate_registration(
        &self,
        num_models: usize,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        if model_key >= num_models {
            return Err(ServeError::UnknownModel(model_key));
        }
        if !(1..=16).contains(&bits_per_value) {
            return Err(ServeError::Codec(format!(
                "station {id} announced invalid bits_per_value {bits_per_value}"
            )));
        }
        if self.sessions.contains(id) {
            return Err(ServeError::DuplicateStation(id));
        }
        Ok(())
    }

    /// Timestamped wire ingest: records the frame's virtual-time stamp so the
    /// deadline-aware round closer can classify it against the Eq. 7d budget.
    ///
    /// The fault-tolerant ingest order: session lookup, quarantine gate,
    /// CRC/decode (a [`ServeError::Corrupt`] rejection feeds the session's
    /// corrupt streak and can trigger quarantine), duplicate-sequence
    /// suppression, then payload validation and commit. A failed ingest of
    /// any kind leaves a previously pending payload untouched.
    fn ingest_wire_at(
        &mut self,
        models: &[Arc<SplitBeamModel>],
        id: StationId,
        frame: &[u8],
        stamp: FrameStamp,
        round: u64,
    ) -> Result<usize, ServeError> {
        let Self {
            sessions,
            arena,
            health,
            round_corrupt,
            ..
        } = self;
        let session = sessions.get_mut(id).ok_or(ServeError::UnknownStation(id))?;
        if session.is_quarantined(round) {
            return Err(ServeError::Quarantined(id));
        }
        if let Err(e) = wire::decode_feedback_into(frame, &mut arena.decode_buf) {
            return Err(match e {
                splitbeam::SplitBeamError::CorruptFrame(msg) => {
                    *round_corrupt += 1;
                    session.note_corrupt(round, health);
                    ServeError::Corrupt(id, msg)
                }
                other => ServeError::Codec(other.to_string()),
            });
        }
        let seq = wire::frame_seq(frame);
        if seq != 0 && session.has_pending() && session.pending_seq() == seq {
            return Err(ServeError::DuplicateFrame(id, seq));
        }
        Self::validate_payload(models, session, &arena.decode_buf)?;
        std::mem::swap(session.payload_slot(), &mut arena.decode_buf);
        session.set_pending(true);
        session.set_pending_stamp(stamp);
        session.set_pending_seq(seq);
        session.note_clean_ingest();
        session.record_ingest(frame.len());
        Ok(frame.len())
    }

    fn ingest_payload(
        &mut self,
        models: &[Arc<SplitBeamModel>],
        id: StationId,
        payload: QuantizedFeedback,
        wire_bytes: usize,
        round: u64,
    ) -> Result<usize, ServeError> {
        let session = self
            .sessions
            .get_mut(id)
            .ok_or(ServeError::UnknownStation(id))?;
        if session.is_quarantined(round) {
            return Err(ServeError::Quarantined(id));
        }
        Self::validate_payload(models, session, &payload)?;
        *session.payload_slot() = payload;
        session.set_pending(true);
        session.set_pending_stamp(FrameStamp::default());
        session.set_pending_seq(0);
        session.note_clean_ingest();
        session.record_ingest(wire_bytes);
        Ok(wire_bytes)
    }

    /// Shared ingest validation: announced quantizer width and bottleneck
    /// dimension must match the session.
    fn validate_payload(
        models: &[Arc<SplitBeamModel>],
        session: &StationSession,
        payload: &QuantizedFeedback,
    ) -> Result<(), ServeError> {
        let id = session.id();
        if payload.bits_per_value != session.bits_per_value() {
            return Err(ServeError::Codec(format!(
                "station {id} sent {} bits/value, session announced {}",
                payload.bits_per_value,
                session.bits_per_value()
            )));
        }
        let expected = models[session.model_key()].bottleneck_dim();
        if payload.codes.len() != expected {
            return Err(ServeError::Codec(format!(
                "station {id} sent {} codes, model bottleneck is {expected}",
                payload.codes.len()
            )));
        }
        Ok(())
    }

    fn pending_count(&self) -> usize {
        // Order-free count: the dense slot walk, not the id-ordered view.
        self.sessions
            .values_unordered()
            .filter(|s| s.has_pending())
            .count()
    }

    /// Post-round health pass. Splits unserved stations into `stale`
    /// (feedback aged this round) vs `awaiting_first_report` (never reported);
    /// stations served this round count as neither. Of the stale stations,
    /// those whose feedback age is still within the policy's staleness cap are
    /// counted `stale_served` — the AP keeps representing them with
    /// last-known-good feedback; past the cap they drop out of MU-MIMO
    /// grouping. Every session's health state machine advances here.
    fn health_pass(&mut self, round: u64) -> (usize, usize, usize) {
        let mut stale = 0usize;
        let mut awaiting = 0usize;
        let mut stale_served = 0usize;
        let policy = self.health;
        // Per-session counter fold: visit order cannot reach the output, so
        // the dense unordered walk is safe (and cache-friendly at fleet
        // session counts).
        for session in self.sessions.values_unordered_mut() {
            let mut reported = false;
            match session.last_round() {
                Some(r) if r == round => reported = true,
                Some(r) => {
                    stale += 1;
                    if round.saturating_sub(r) <= policy.stale_serve_cap {
                        stale_served += 1;
                    }
                }
                None => awaiting += 1,
            }
            session.close_health(round, &policy, reported);
        }
        (stale, awaiting, stale_served)
    }

    /// Deadline pass shared by the batched and serial closers: consumes every
    /// pending payload whose end-to-end delay (per its ingest stamp, plus
    /// `lag_ns` of close lag when a shard is stalled) falls past the policy's
    /// budget *and* grace window. Expired reports are never reconstructed —
    /// Eq. 7d is enforced at close, not measured post-hoc. Returns the number
    /// of expired reports; with no policy nothing expires.
    fn expire_pending(&mut self, policy: Option<DeadlinePolicy>, lag_ns: u64) -> usize {
        let Some(policy) = policy else { return 0 };
        let mut expired = 0usize;
        for session in self.sessions.values_unordered_mut() {
            if session.has_pending()
                && policy.classify(session.pending_stamp().total_ns().saturating_add(lag_ns))
                    == FrameClass::Expired
            {
                session.set_pending(false);
                session.set_pending_stamp(FrameStamp::default());
                expired += 1;
            }
        }
        expired
    }

    /// Classifies a served report against the policy and folds it into the
    /// round accounting, recording the class on the session. `lag_ns` is the
    /// close lag of a stalled shard: it counts as additional queueing, so a
    /// report held past its budget by a slow close is classified (and
    /// recorded) late — identity at `lag_ns == 0`.
    fn account_served(
        session: &mut StationSession,
        policy: Option<DeadlinePolicy>,
        lag_ns: u64,
        on_time: &mut usize,
        late: &mut usize,
        delay: &mut RoundDelayStats,
    ) {
        let stamp = session.pending_stamp().with_extra_queue(lag_ns);
        let is_late = match policy {
            Some(p) => p.classify(stamp.total_ns()) == FrameClass::Late,
            None => false,
        };
        if is_late {
            *late += 1;
        } else {
            *on_time += 1;
        }
        delay.record(&stamp);
        session.record_service_class(policy.map(|_| stamp), is_late);
        session.set_pending_stamp(FrameStamp::default());
    }

    /// Closes round `round` over this shard in `mode`, then runs the
    /// once-per-round health/staleness pass and harvests the corrupt counter.
    /// [`ServeMode::Batched`] runs one fused dequantize→tail batched inference
    /// per model; [`ServeMode::Serial`] reconstructs station by station;
    /// [`ServeMode::Streaming`] commits everything still queued, serves any
    /// remaining pending batch with the shard's **own** stall as close lag,
    /// and folds in the micro-batches its watermarks already closed — with no
    /// intermediate watermark fired it equals the batched close. Barrier
    /// closes pay `barrier_lag_ns`. With a [`DeadlinePolicy`], pending
    /// reports are classified first: expired ones are consumed without
    /// reconstruction, late-but-usable ones are served but flagged.
    ///
    /// **Partial-round semantics on failure:** a failed batch consumes only
    /// *its own* pending payloads (they are what failed); every other model's
    /// batch still runs and stores its reconstructions, and the first error
    /// (in model-key order) is reported in the outcome. Stations of healthy
    /// models are never penalized for an unrelated model's failure.
    fn close(
        &mut self,
        engine: &TailEngine<'_>,
        mode: ServeMode,
        round: u64,
        policy: Option<DeadlinePolicy>,
        barrier_lag_ns: u64,
    ) -> RoundOutcome {
        let (pass, micro_closes) = match mode {
            ServeMode::Batched => (
                self.serve_pending_batched(engine, round, policy, barrier_lag_ns),
                0,
            ),
            ServeMode::Serial => (
                self.serve_pending_serial(engine, round, policy, barrier_lag_ns),
                0,
            ),
            ServeMode::Streaming => {
                self.commit_due(u64::MAX);
                let tail = self.serve_pending_batched(engine, round, policy, self.stall_ns);
                let mut acc = std::mem::take(&mut self.lane.acc);
                acc.fold(tail);
                (acc, std::mem::take(&mut self.lane.micro_closes))
            }
        };
        let (stale, awaiting_first_report, stale_served) = self.health_pass(round);
        RoundOutcome {
            pass,
            stale,
            awaiting_first_report,
            corrupt: std::mem::take(&mut self.round_corrupt),
            stale_served,
            micro_closes,
        }
    }

    /// The serve step shared by the barrier close and streaming micro-batch
    /// closes: expires over-budget pending reports, then runs one fused
    /// dequantize→tail batched inference per model with pending traffic.
    /// Performs **no** health/staleness accounting — that happens once per
    /// round, in [`ShardCore::close`].
    fn serve_pending_batched(
        &mut self,
        engine: &TailEngine<'_>,
        round: u64,
        policy: Option<DeadlinePolicy>,
        lag_ns: u64,
    ) -> ServePass {
        let expired = self.expire_pending(policy, lag_ns);
        let mut served = 0usize;
        let mut batches = 0usize;
        let mut on_time = 0usize;
        let mut late = 0usize;
        let mut delay = RoundDelayStats::default();
        let mut first_error = None;
        let Self {
            sessions, arena, ..
        } = self;
        let RoundArena { slots, tail, .. } = arena;
        for (key, model) in engine.models.iter().enumerate() {
            // Slots, not ids: every served row reaches its session again
            // (payload, store, LRU touch) without an id-index lookup. Batch
            // and row order stay the id-ordered walk's.
            slots.clear();
            slots.extend(
                sessions
                    .values_with_slot()
                    .filter(|(_, s)| s.has_pending() && s.model_key() == key)
                    .map(|(slot, _)| slot),
            );
            if slots.is_empty() {
                continue;
            }
            batches += 1;
            let result = match engine.mode {
                TailWeights::F32 => model.reconstruct_quantized_batch_iter_into(
                    slots.iter().map(|&slot| sessions.at(slot).payload()),
                    slots.len(),
                    tail,
                    engine.kern,
                ),
                TailWeights::Int8 => engine.tails[key].reconstruct_quantized_batch_iter_into(
                    slots.iter().map(|&slot| sessions.at(slot).payload()),
                    slots.len(),
                    tail,
                    engine.ik,
                ),
            };
            match result {
                Ok(flats) => {
                    let width = flats.cols();
                    for (&slot, flat) in slots.iter().zip(flats.as_slice().chunks_exact(width)) {
                        let session = sessions.at_mut(slot);
                        session.store_feedback(flat, round);
                        session.set_pending(false);
                        Self::account_served(
                            session,
                            policy,
                            lag_ns,
                            &mut on_time,
                            &mut late,
                            &mut delay,
                        );
                        served += 1;
                        // Serving is the activity the idle-LRU orders by.
                        sessions.touch_slot(slot);
                    }
                }
                Err(e) => {
                    // Consume only the failed batch's payloads; other models'
                    // pending traffic is untouched and still gets its batch.
                    for &slot in slots.iter() {
                        let session = sessions.at_mut(slot);
                        session.set_pending(false);
                        session.set_pending_stamp(FrameStamp::default());
                    }
                    if first_error.is_none() {
                        first_error = Some(ServeError::Model(e.to_string()));
                    }
                }
            }
        }
        ServePass {
            served,
            batches,
            on_time,
            late,
            expired,
            delay,
            error: first_error,
        }
    }

    /// Serial analog of [`ShardCore::serve_pending_batched`]: one unfused
    /// reconstruction per station. Mirrors the batched partial-round
    /// semantics exactly, including on failure: each model's payloads are
    /// reconstructed first and committed only when the *whole* model
    /// succeeded — a failing payload consumes the failed model's pending
    /// payloads without storing any of them (just like the failed batch),
    /// stations bound to other models are served normally, and the first
    /// error (in model-key order) is reported. No health accounting.
    fn serve_pending_serial(
        &mut self,
        engine: &TailEngine<'_>,
        round: u64,
        policy: Option<DeadlinePolicy>,
        lag_ns: u64,
    ) -> ServePass {
        let expired = self.expire_pending(policy, lag_ns);
        let mut served = 0usize;
        let mut batches = 0usize;
        let mut on_time = 0usize;
        let mut late = 0usize;
        let mut delay = RoundDelayStats::default();
        let mut first_error = None;
        for (key, model) in engine.models.iter().enumerate() {
            let slots: Vec<u32> = self
                .sessions
                .values_with_slot()
                .filter(|(_, s)| s.has_pending() && s.model_key() == key)
                .map(|(slot, _)| slot)
                .collect();
            if slots.is_empty() {
                continue;
            }
            batches += 1;
            let mut flats = Vec::with_capacity(slots.len());
            let mut failure = None;
            for &slot in &slots {
                let payload = self.sessions.at(slot).payload();
                let result = match engine.mode {
                    TailWeights::F32 => model.reconstruct_quantized(payload),
                    TailWeights::Int8 => {
                        engine.tails[key].reconstruct_quantized(payload, engine.ik)
                    }
                };
                match result {
                    Ok(flat) => flats.push(flat),
                    Err(e) => {
                        failure = Some(ServeError::Model(e.to_string()));
                        break;
                    }
                }
            }
            match failure {
                None => {
                    for (&slot, flat) in slots.iter().zip(flats) {
                        let session = self.sessions.at_mut(slot);
                        session.store_feedback(&flat, round);
                        session.set_pending(false);
                        Self::account_served(
                            session,
                            policy,
                            lag_ns,
                            &mut on_time,
                            &mut late,
                            &mut delay,
                        );
                        served += 1;
                        self.sessions.touch_slot(slot);
                    }
                }
                Some(e) => {
                    for &slot in &slots {
                        let session = self.sessions.at_mut(slot);
                        session.set_pending(false);
                        session.set_pending_stamp(FrameStamp::default());
                    }
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        ServePass {
            served,
            batches,
            on_time,
            late,
            expired,
            delay,
            error: first_error,
        }
    }

    /// Streaming ingest: validates the frame exactly like
    /// [`ShardCore::ingest_wire_at`] but enqueues it onto the shard's bounded
    /// lock-free ring instead of committing straight into the session. The
    /// frame only becomes pending when a watermark later commits it
    /// ([`ShardCore::commit_due`]); a full ring rejects the frame with
    /// [`ServeError::Backpressure`] without touching session state.
    ///
    /// Duplicate suppression mirrors the lockstep path's window: a sequence
    /// number is suppressed while the station still has that frame in flight
    /// (queued on the ring) or pending (committed, not yet served) — the same
    /// frames that `ingest_wire_at` would reject are rejected here.
    fn stream_ingest(
        &mut self,
        models: &[Arc<SplitBeamModel>],
        id: StationId,
        frame: &[u8],
        stamp: FrameStamp,
        round: u64,
    ) -> Result<usize, ServeError> {
        let Self {
            sessions,
            arena,
            health,
            round_corrupt,
            lane,
            ..
        } = self;
        let session = sessions.get_mut(id).ok_or(ServeError::UnknownStation(id))?;
        if session.is_quarantined(round) {
            return Err(ServeError::Quarantined(id));
        }
        if let Err(e) = wire::decode_feedback_into(frame, &mut arena.decode_buf) {
            return Err(match e {
                splitbeam::SplitBeamError::CorruptFrame(msg) => {
                    *round_corrupt += 1;
                    session.note_corrupt(round, health);
                    ServeError::Corrupt(id, msg)
                }
                other => ServeError::Codec(other.to_string()),
            });
        }
        let seq = wire::frame_seq(frame);
        if seq != 0
            && session.pending_seq() == seq
            && (session.stream_inflight() > 0 || session.has_pending())
        {
            return Err(ServeError::DuplicateFrame(id, seq));
        }
        Self::validate_payload(models, session, &arena.decode_buf)?;
        // Move the decoded payload into a recycled buffer so ingest stays
        // allocation-free in steady state (mirrors the lockstep swap).
        let mut payload = lane.free.pop().unwrap_or_else(|| QuantizedFeedback {
            bits_per_value: 1,
            min: 0.0,
            max: 0.0,
            codes: Vec::new(),
        });
        std::mem::swap(&mut payload, &mut arena.decode_buf);
        match lane.ring.push(StreamFrame {
            id,
            payload,
            stamp,
            seq,
        }) {
            Ok(()) => {
                session.set_pending_seq(seq);
                session.inc_stream_inflight();
                session.note_clean_ingest();
                session.record_ingest(frame.len());
                Ok(frame.len())
            }
            Err(rejected) => {
                let cap = lane.ring.capacity();
                lane.free.push(rejected.payload);
                Err(ServeError::Backpressure(id, cap))
            }
        }
    }

    /// Commits every queued frame whose arrival stamp is at or before
    /// `watermark_ns` into its session, in ingest (FIFO) order — so a station
    /// reporting twice keeps last-wins semantics identical to lockstep
    /// ingest. Stops at the first frame still ahead of the watermark (head-
    /// gated: later frames wait even if individually due, preserving order).
    fn commit_due(&mut self, watermark_ns: u64) {
        loop {
            let frame = match self.lane.stash.take() {
                Some(f) => f,
                None => match self.lane.ring.pop() {
                    Some(f) => f,
                    None => break,
                },
            };
            if frame.stamp.arrival_ns > watermark_ns {
                self.lane.stash = Some(frame);
                break;
            }
            let StreamFrame {
                id,
                mut payload,
                stamp,
                seq,
            } = frame;
            match self.sessions.get_mut(id) {
                Some(session) => {
                    std::mem::swap(session.payload_slot(), &mut payload);
                    session.set_pending(true);
                    session.set_pending_stamp(stamp);
                    session.set_pending_seq(seq);
                    session.dec_stream_inflight();
                    self.lane.free.push(payload);
                }
                // Station deregistered with frames still in flight: drop the
                // frame, recycle its buffer.
                None => self.lane.free.push(payload),
            }
        }
    }

    /// One watermark tick: commits due frames, then micro-closes this shard's
    /// pending batch iff the oldest pending frame's Eq. 7d service deadline
    /// falls before the *next* watermark — i.e. this is the last watermark at
    /// which that frame can still be served within budget. Each shard decides
    /// independently; no cross-shard barrier.
    fn advance_watermark(
        &mut self,
        engine: &TailEngine<'_>,
        round: u64,
        watermark_ns: u64,
        step_ns: u64,
        policy: Option<DeadlinePolicy>,
    ) {
        self.commit_due(watermark_ns);
        let trigger = policy.unwrap_or_else(DeadlinePolicy::eq7d);
        let oldest_deadline = self
            .sessions
            .values_unordered()
            .filter(|s| s.has_pending())
            .map(|s| trigger.service_deadline_ns(s.pending_stamp()))
            .min();
        if let Some(deadline) = oldest_deadline {
            if deadline <= watermark_ns.saturating_add(step_ns) {
                let pass = self.serve_pending_batched(engine, round, policy, self.stall_ns);
                self.lane.acc.fold(pass);
                self.lane.micro_closes += 1;
            }
        }
    }
}

impl Default for ApServer {
    fn default() -> Self {
        Self::new()
    }
}

impl ApServer {
    /// Creates an empty single-shard server. The tail weight format starts
    /// from the `SPLITBEAM_TAIL_WEIGHTS` environment knob (`int8` opts into
    /// the quantized tier, anything else serves f32).
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// Creates an empty server with `num_shards` session shards (clamped to
    /// at least one), closed in parallel.
    pub fn with_shards(num_shards: usize) -> Self {
        Self {
            models: Vec::new(),
            tails: Vec::new(),
            tail_weights: TailWeights::from_env(),
            shards: (0..num_shards.max(1))
                .map(|_| ShardCore::default())
                .collect(),
            round: 0,
            streaming: false,
            max_idle_rounds: None,
            capacity: None,
            last_evicted: 0,
            last_shard_stats: Vec::new(),
        }
    }

    /// Number of session shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The deterministic shard a station id maps to (`id % num_shards`).
    pub fn shard_of(&self, id: StationId) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    /// Caps the number of simultaneously registered stations; `None` lifts
    /// the cap. Registrations beyond the cap fail with
    /// [`ServeError::CapacityExceeded`]; already-registered stations are
    /// never dropped by lowering the cap.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// Enables idle eviction: after each round close, stations idle for more
    /// than `max_idle_rounds` sounding rounds are removed. `None` (the
    /// default) disables eviction.
    pub fn set_max_idle_rounds(&mut self, max_idle_rounds: Option<u64>) {
        self.max_idle_rounds = max_idle_rounds;
    }

    /// Registers a tail model and returns its key. Stations referencing the
    /// same key share the model (and one batched inference per round and
    /// shard). The model's int8 tail is quantized and packed here, once,
    /// shared read-only by every shard, so round closes under
    /// [`TailWeights::Int8`] pay no bind cost.
    pub fn register_model(&mut self, model: SplitBeamModel) -> usize {
        self.tails.push(Arc::new(QuantizedTail::bind(&model)));
        self.models.push(Arc::new(model));
        self.models.len() - 1
    }

    /// The int8 tail bound from model `key`.
    pub fn quantized_tail(&self, key: usize) -> Option<&QuantizedTail> {
        self.tails.get(key).map(Arc::as_ref)
    }

    /// The weight format round closes currently reconstruct with.
    pub fn tail_weights(&self) -> TailWeights {
        self.tail_weights
    }

    /// Switches the tail weight format for subsequent round closes (all
    /// shards). Safe at any round boundary — the int8 tails were bound at
    /// registration.
    pub fn set_tail_weights(&mut self, mode: TailWeights) {
        self.tail_weights = mode;
    }

    /// The model behind `key`.
    pub fn model(&self, key: usize) -> Option<&SplitBeamModel> {
        self.models.get(key).map(Arc::as_ref)
    }

    /// Registration validation (model key, bit width, duplicate id — in that
    /// order) followed by the capacity check; returns the station's shard.
    fn admit(
        &self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<usize, ServeError> {
        let shard = self.shard_of(id);
        self.shards[shard].validate_registration(
            self.models.len(),
            id,
            model_key,
            bits_per_value,
        )?;
        match self.capacity {
            Some(cap) if self.num_stations() >= cap => Err(ServeError::CapacityExceeded(id, cap)),
            _ => Ok(shard),
        }
    }

    /// Associates a station with a registered model and quantizer width,
    /// placing its session on shard [`ApServer::shard_of`]`(id)`.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] for an unregistered key,
    /// [`ServeError::DuplicateStation`] when the id is already associated,
    /// [`ServeError::Codec`] for a bit width outside `1..=16`, and
    /// [`ServeError::CapacityExceeded`] when the request is otherwise valid
    /// but the server is at the configured cap.
    pub fn register_station(
        &mut self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        let shard = self.admit(id, model_key, bits_per_value)?;
        self.shards[shard]
            .sessions
            .insert(StationSession::new(
                id,
                model_key,
                bits_per_value,
                self.round,
            ))
            .map(|_| ())
            .map_err(|rejected| ServeError::DuplicateStation(rejected.id()))
    }

    /// Removes a station's session (disassociation). The id can be registered
    /// again afterwards with a completely fresh session.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] when the id is not registered.
    pub fn deregister_station(&mut self, id: StationId) -> Result<(), ServeError> {
        self.release_station(id).map(|_| ())
    }

    /// Releases station `id` for a fleet handoff, returning its full session
    /// state (pending payload, feedback history, health and staleness
    /// clocks) for the target AP to adopt. Unlike deregistration, nothing is
    /// reset.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] when the id is not registered.
    pub fn release_station(&mut self, id: StationId) -> Result<StationSession, ServeError> {
        let shard = self.shard_of(id);
        self.shards[shard]
            .sessions
            .remove(id)
            .ok_or(ServeError::UnknownStation(id))
    }

    /// Adopts a roaming station's released session, rebound to this server's
    /// `model_key` — the warm half of a fleet handoff; no cold re-register,
    /// so the station keeps its feedback, pending payload and health state.
    ///
    /// # Errors
    /// The same validations as [`ApServer::register_station`] (model key,
    /// bit width, duplicate id, capacity); the rejected session rides back in
    /// the error so the caller can restore it at the source AP instead of
    /// dropping the station.
    // The fat Err is the point: the rejected session must ride back to the
    // caller for restore, and boxing a cold failure path buys nothing.
    #[allow(clippy::result_large_err)]
    pub fn adopt_station(
        &mut self,
        mut session: StationSession,
        model_key: usize,
    ) -> Result<(), (StationSession, ServeError)> {
        let shard = match self.admit(session.id(), model_key, session.bits_per_value()) {
            Ok(shard) => shard,
            Err(e) => return Err((session, e)),
        };
        session.rebind_model(model_key);
        self.shards[shard]
            .sessions
            .insert(session)
            .map(|_| ())
            .map_err(|rejected| {
                let id = rejected.id();
                (rejected, ServeError::DuplicateStation(id))
            })
    }

    /// Number of registered stations across all shards.
    pub fn num_stations(&self) -> usize {
        self.shards.iter().map(|s| s.sessions.len()).sum()
    }

    /// The session of station `id`.
    pub fn session(&self, id: StationId) -> Option<&StationSession> {
        self.shards[self.shard_of(id)].sessions.get(id)
    }

    /// Iterates over all sessions, shard by shard (station-id order within a
    /// shard, so a single-shard server yields plain id order).
    pub fn sessions(&self) -> impl Iterator<Item = &StationSession> {
        self.shards.iter().flat_map(|s| s.sessions.values())
    }

    /// All registered station ids in ascending order (merged across shards).
    pub fn station_ids(&self) -> Vec<StationId> {
        let mut ids: Vec<StationId> = self.sessions().map(StationSession::id).collect();
        ids.sort_unstable();
        ids
    }

    /// Index of the sounding round currently being collected.
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Number of payloads waiting for the next round close.
    pub fn pending_count(&self) -> usize {
        self.shards.iter().map(ShardCore::pending_count).sum()
    }

    /// Ingests one bit-packed wire frame from station `id` for the current
    /// round, returning the decoded payload size in bytes. A station reporting
    /// twice in one round replaces its pending payload (last wins).
    ///
    /// The frame decodes into its shard's recycled decode buffer, which is
    /// then swapped with the station's payload slot — steady-state ingest
    /// allocates nothing.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] for an unassociated id,
    /// [`ServeError::Quarantined`] while the station is quarantined,
    /// [`ServeError::Corrupt`] when the frame fails its CRC-32 check,
    /// [`ServeError::DuplicateFrame`] when a sequenced frame re-delivers the
    /// pending sequence number, and [`ServeError::Codec`] when the frame fails
    /// to decode, its bit width disagrees with the session, or the code count
    /// does not match the station's model bottleneck. A failed ingest leaves
    /// any previously pending payload of the station untouched.
    pub fn ingest_wire(&mut self, id: StationId, frame: &[u8]) -> Result<usize, ServeError> {
        self.ingest_wire_at(id, frame, FrameStamp::default())
    }

    /// Timestamped wire ingest: like [`ApServer::ingest_wire`], but records
    /// the frame's virtual-time [`FrameStamp`] (arrival plus per-leg delay
    /// breakdown) on the session, so a deadline-aware [`ApServer::close`]
    /// can classify the report against the Eq. 7d budget.
    ///
    /// # Errors
    /// Same contract as [`ApServer::ingest_wire`].
    pub fn ingest_wire_at(
        &mut self,
        id: StationId,
        frame: &[u8],
        stamp: FrameStamp,
    ) -> Result<usize, ServeError> {
        let shard = self.shard_of(id);
        let shard = &mut self.shards[shard];
        if self.streaming {
            return shard.stream_ingest(&self.models, id, frame, stamp, self.round);
        }
        shard.ingest_wire_at(&self.models, id, frame, stamp, self.round)
    }

    /// Ingests an already-decoded payload (in-process stations, tests).
    ///
    /// # Errors
    /// Same validation as [`ApServer::ingest_wire`].
    pub fn ingest_payload(
        &mut self,
        id: StationId,
        payload: QuantizedFeedback,
        wire_bytes: usize,
    ) -> Result<usize, ServeError> {
        let shard = self.shard_of(id);
        self.shards[shard].ingest_payload(&self.models, id, payload, wire_bytes, self.round)
    }

    /// The health thresholds applied to every session.
    pub fn health_policy(&self) -> HealthPolicy {
        self.shards[0].health
    }

    /// Replaces the health thresholds on every shard (takes effect from the
    /// next ingest).
    pub fn set_health_policy(&mut self, policy: HealthPolicy) {
        for shard in &mut self.shards {
            shard.health = policy;
        }
    }

    /// Batched round close without a deadline policy:
    /// `close(ServeMode::Batched, None)`.
    ///
    /// # Errors
    /// Same contract as [`ApServer::close`].
    pub fn process_round(&mut self) -> Result<RoundSummary, ServeError> {
        self.close(ServeMode::Batched, None)
    }

    /// Station-at-a-time reference close without a deadline policy:
    /// `close(ServeMode::Serial, None)`.
    ///
    /// # Errors
    /// Same contract as [`ApServer::close`].
    pub fn process_round_serial(&mut self) -> Result<RoundSummary, ServeError> {
        self.close(ServeMode::Serial, None)
    }

    /// Closes the current round — the one close every serving path goes
    /// through — and advances the round counter:
    ///
    /// * every shard closes in `mode` (see [`ServeMode`]): batched and
    ///   streaming closes run the shards in parallel, serial closes run them
    ///   one after another;
    /// * with a `policy`, every pending report is classified against it by
    ///   its ingest stamp's end-to-end delay — on-time (within the Eq. 7d
    ///   budget, inclusive) and late-but-usable reports are reconstructed,
    ///   expired reports are consumed **without** reconstruction. Untimed
    ///   frames carry an all-zero stamp and always classify on-time;
    /// * barrier closes (batched, serial) couple every shard to the slowest:
    ///   each pays the maximum stall across shards as close lag, while
    ///   streaming closes pay only their own shard's;
    /// * idle stations are evicted when an idle budget is set;
    /// * the per-shard outcomes merge deterministically in shard order, into
    ///   the summary and [`ApServer::shard_round_stats`].
    ///
    /// Per-station results are bit-identical for every mode without a
    /// watermark micro-close, every shard count and every kernel backend.
    ///
    /// # Errors
    /// [`ServeError::Model`] when a tail reconstruction fails. The round is
    /// **partial, not voided**: the failed batch's payloads are discarded,
    /// but every other model's batch (and every other shard) still ran and
    /// stored its reconstructions, and the round counter advanced — the error
    /// reports the first failure in shard order.
    pub fn close(
        &mut self,
        mode: ServeMode,
        policy: Option<DeadlinePolicy>,
    ) -> Result<RoundSummary, ServeError> {
        let round = self.round;
        self.round += 1;
        let engine = TailEngine::new(&self.models, &self.tails, self.tail_weights);
        let max_idle = self.max_idle_rounds;
        let barrier_lag = self.shards.iter().map(|s| s.stall_ns).max().unwrap_or(0);
        let close_shard = |shard: &mut ShardCore| {
            let outcome = shard.close(&engine, mode, round, policy, barrier_lag);
            let evicted = max_idle.map_or(0, |budget| shard.sessions.evict_idle(round, budget));
            (outcome, evicted)
        };
        let mut merged = RoundOutcome::default();
        let mut evicted = 0;
        self.last_shard_stats.clear();
        let mut fold = |(outcome, shard_evicted): (RoundOutcome, usize)| {
            self.last_shard_stats.push(outcome.stats());
            evicted += shard_evicted;
            merged.fold(outcome);
        };
        // One shard (and the serial reference) folds in place; only a
        // parallel close collects its per-shard outcomes first.
        if self.shards.len() == 1 || mode == ServeMode::Serial {
            self.shards.iter_mut().map(close_shard).for_each(&mut fold);
        } else {
            let outcomes: Vec<_> = self.shards.par_iter_mut().map(close_shard).collect();
            outcomes.into_iter().for_each(&mut fold);
        }
        self.last_evicted = evicted;
        merged.into_summary(round)
    }

    /// Stations evicted by the most recent round close (`0` before the first
    /// close, or when eviction is disabled).
    pub fn evicted_in_last_round(&self) -> usize {
        self.last_evicted
    }

    /// Per-shard stats of the most recent round close, in shard order (empty
    /// before the first close).
    pub fn shard_round_stats(&self) -> &[ShardRoundStats] {
        &self.last_shard_stats
    }

    /// Switches between lockstep and streaming ingest across all shards. In
    /// streaming mode, [`ApServer::ingest_wire`]/[`ApServer::ingest_wire_at`]
    /// enqueue frames onto the bounded per-shard rings and commits happen on
    /// watermarks ([`ApServer::advance_watermark`]); the round still closes
    /// through [`ApServer::close`] with [`ServeMode::Streaming`]. Only toggle
    /// while quiescent (no frames queued or pending).
    pub fn set_streaming(&mut self, on: bool) {
        self.streaming = on;
    }

    /// Whether streaming ingest is active.
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Sets shard `shard`'s artificial close lag (stalled-shard model): its
    /// reports pay `ns` of additional queueing delay when classified. Under
    /// barrier closes **every** shard's reports pay the maximum stall (the
    /// barrier waits for the slowest shard); under streaming closes each
    /// shard pays only its own. Identity at 0.
    ///
    /// # Panics
    /// When `shard` is out of range.
    pub fn set_shard_stall_ns(&mut self, shard: usize, ns: u64) {
        self.shards[shard].stall_ns = ns;
    }

    /// Replaces every shard's streaming ingest ring with one of `capacity`
    /// slots (rounded up to a power of two, minimum 2). Only call while
    /// quiescent: any queued frames are dropped.
    pub fn set_stream_capacity(&mut self, capacity: usize) {
        for shard in &mut self.shards {
            shard.lane = StreamLane::with_capacity(capacity);
        }
    }

    /// One watermark tick at virtual time `watermark_ns` with tick period
    /// `step_ns`: every shard commits its due frames and micro-closes its
    /// pending batch iff its own oldest pending frame's Eq. 7d service
    /// deadline (per `policy`, default [`DeadlinePolicy::eq7d`]) falls before
    /// the next watermark — **independently of every other shard** (no
    /// barrier). Shards advance serially in shard order, which keeps the
    /// close deterministic. Micro-batch accounting accumulates into the next
    /// streaming close's summary.
    pub fn advance_watermark(
        &mut self,
        watermark_ns: u64,
        step_ns: u64,
        policy: Option<DeadlinePolicy>,
    ) {
        let round = self.round;
        let engine = TailEngine::new(&self.models, &self.tails, self.tail_weights);
        for shard in &mut self.shards {
            shard.advance_watermark(&engine, round, watermark_ns, step_ns, policy);
        }
    }

    /// The latest reconstructed feedback of station `id`, in the tail's flat
    /// real-interleaved layout.
    pub fn feedback_of(&self, id: StationId) -> Option<&[f32]> {
        self.session(id).and_then(StationSession::feedback)
    }

    /// The latest feedback of station `id` materialized as per-subcarrier
    /// `Nt x Nss` beamforming matrices.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] / [`ServeError::NoFeedback`] when the
    /// station is missing or was never served.
    pub fn feedback_matrices_of(
        &self,
        id: StationId,
    ) -> Result<Vec<mimo_math::CMatrix>, ServeError> {
        let session = self.session(id).ok_or(ServeError::UnknownStation(id))?;
        let flat = session.feedback().ok_or(ServeError::NoFeedback(id))?;
        self.models[session.model_key()]
            .feedback_to_matrices(flat)
            .map_err(|e| ServeError::Model(e.to_string()))
    }

    /// Stacks the latest feedback of `ids` (in the given order) into the
    /// per-user layout [`wifi_phy::precoding::ZfPrecoder`] consumes. Matrix
    /// materialization happens here, per precoding group — deliberately off
    /// the per-round serving path.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] / [`ServeError::NoFeedback`] when a
    /// station is missing or was never served.
    pub fn group_feedback(&self, ids: &[StationId]) -> Result<BeamformingFeedback, ServeError> {
        ids.iter()
            .map(|&id| self.feedback_matrices_of(id))
            .collect()
    }

    /// Stations (ascending id order, merged across shards) whose feedback is
    /// at most `max_age` rounds old, relative to the last closed round.
    /// Quarantined stations are excluded — their link is not trusted, so
    /// they never enter a precoding group.
    pub fn fresh_station_ids(&self, max_age: u64) -> Vec<StationId> {
        let now = self.round.saturating_sub(1);
        let mut ids: Vec<StationId> = self
            .sessions()
            .filter(|s| s.is_fresh(now, max_age) && s.health() != SessionHealth::Quarantined)
            .map(StationSession::id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Partitions fresh stations into MU-MIMO groups the zero-forcing precoder
    /// can serve simultaneously: stations sharing a model, chunked so each
    /// group's total stream count stays within the AP's `Nt` antennas.
    pub fn mu_mimo_groups(&self, max_age: u64) -> Vec<Vec<StationId>> {
        let fresh = self.fresh_station_ids(max_age);
        let mut groups = Vec::new();
        for key in 0..self.models.len() {
            let config = self.models[key].config();
            let per_group = (config.mimo.nt / config.mimo.nss.max(1)).max(1);
            let members: Vec<StationId> = fresh
                .iter()
                .copied()
                .filter(|&id| self.session(id).is_some_and(|s| s.model_key() == key))
                .collect();
            groups.extend(members.chunks(per_group).map(<[StationId]>::to_vec));
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use splitbeam::config::{CompressionLevel, SplitBeamConfig};
    use splitbeam::quantization::quantize_bottleneck;
    use wifi_phy::channel::{ChannelModel, EnvironmentProfile};
    use wifi_phy::ofdm::{Bandwidth, MimoConfig};

    fn model(seed: u64) -> SplitBeamModel {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        SplitBeamModel::new(
            SplitBeamConfig::new(
                MimoConfig::symmetric(2, Bandwidth::Mhz20),
                CompressionLevel::OneEighth,
            ),
            &mut rng,
        )
    }

    fn station_frame(model: &SplitBeamModel, seed: u64, bits: u8) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let channel = ChannelModel::new(EnvironmentProfile::e1(), Bandwidth::Mhz20, 2, 1, 1);
        let csi: Vec<f32> = channel
            .sample(&mut rng)
            .csi_real_vector(0)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let payload = model.compress_quantized(&csi, bits).unwrap();
        splitbeam::wire::encode_feedback(&payload).unwrap()
    }

    #[test]
    fn registration_is_validated() {
        let mut server = ApServer::new();
        assert_eq!(
            server.register_station(1, 0, 8),
            Err(ServeError::UnknownModel(0))
        );
        let key = server.register_model(model(1));
        assert!(server.register_station(1, key, 8).is_ok());
        assert_eq!(
            server.register_station(1, key, 8),
            Err(ServeError::DuplicateStation(1))
        );
        assert!(matches!(
            server.register_station(2, key, 0),
            Err(ServeError::Codec(_))
        ));
        assert_eq!(server.num_stations(), 1);
        assert!(server.model(key).is_some());
    }

    #[test]
    fn deregistration_enables_clean_reregistration() {
        let m = model(9);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        server.register_station(5, key, 8).unwrap();
        server.ingest_wire(5, &station_frame(&m, 40, 8)).unwrap();
        server.process_round().unwrap();
        assert!(server.feedback_of(5).is_some());
        assert_eq!(
            server.deregister_station(77),
            Err(ServeError::UnknownStation(77))
        );
        server.deregister_station(5).unwrap();
        assert_eq!(server.num_stations(), 0);
        assert_eq!(
            server.ingest_wire(5, &station_frame(&m, 41, 8)),
            Err(ServeError::UnknownStation(5))
        );
        // Re-registration starts from a blank session.
        server.register_station(5, key, 8).unwrap();
        let session = server.session(5).unwrap();
        assert!(session.feedback().is_none());
        assert_eq!(session.payloads_ingested(), 0);
        assert_eq!(session.joined_round(), 1);
    }

    #[test]
    fn ingest_validates_width_and_dimension() {
        let m = model(2);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        server.register_station(7, key, 8).unwrap();

        let frame = station_frame(&m, 3, 8);
        assert!(matches!(
            server.ingest_wire(99, &frame),
            Err(ServeError::UnknownStation(99))
        ));
        // Wrong announced width.
        let narrow = station_frame(&m, 3, 4);
        assert!(matches!(
            server.ingest_wire(7, &narrow),
            Err(ServeError::Codec(_))
        ));
        // Wrong bottleneck width.
        let short = quantize_bottleneck(&[0.5; 3], 8);
        assert!(matches!(
            server.ingest_payload(7, short, 10),
            Err(ServeError::Codec(_))
        ));
        // Valid frame; a second one in the same round replaces the first.
        assert_eq!(server.ingest_wire(7, &frame).unwrap(), frame.len());
        server.ingest_wire(7, &frame).unwrap();
        assert_eq!(server.pending_count(), 1);
        assert_eq!(server.session(7).unwrap().payloads_ingested(), 2);
    }

    #[test]
    fn corrupt_frames_feed_health_and_quarantine() {
        let m = model(11);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        server.register_station(0, key, 8).unwrap();
        let good = station_frame(&m, 90, 8);
        let mut bad = good.clone();
        bad[20] ^= 0x10; // damage a payload byte; the CRC must catch it
        let policy = server.health_policy();
        assert_eq!(policy.quarantine_after_corrupt, 3);

        // Two corrupt frames: rejected and counted, station still accepted.
        for _ in 0..2 {
            assert!(matches!(
                server.ingest_wire(0, &bad),
                Err(ServeError::Corrupt(0, _))
            ));
        }
        assert_eq!(server.session(0).unwrap().corrupt_streak(), 2);
        // The third crosses the threshold: quarantined for 8 rounds.
        assert!(matches!(
            server.ingest_wire(0, &bad),
            Err(ServeError::Corrupt(0, _))
        ));
        let session = server.session(0).unwrap();
        assert_eq!(session.health(), SessionHealth::Quarantined);
        assert_eq!(session.quarantined_until(), Some(policy.quarantine_rounds));
        // Even a pristine frame is rejected while quarantined.
        assert_eq!(
            server.ingest_wire(0, &good),
            Err(ServeError::Quarantined(0))
        );
        // The close reports the corrupt frames and keeps the station out of
        // MU-MIMO grouping.
        let summary = server.process_round().unwrap();
        assert_eq!(summary.corrupt, 3);
        assert_eq!(summary.served, 0);
        assert!(server.fresh_station_ids(u64::MAX).is_empty());
        // Quarantine expires after `quarantine_rounds` closes; the station
        // then reports normally again.
        for _ in 1..policy.quarantine_rounds {
            assert_eq!(
                server.ingest_wire(0, &good),
                Err(ServeError::Quarantined(0))
            );
            server.process_round().unwrap();
        }
        assert_eq!(server.current_round(), policy.quarantine_rounds);
        server.ingest_wire(0, &good).unwrap();
        let summary = server.process_round().unwrap();
        assert_eq!((summary.served, summary.corrupt), (1, 0));
        assert_eq!(server.session(0).unwrap().health(), SessionHealth::Healthy);
        assert_eq!(server.fresh_station_ids(0), vec![0]);
    }

    #[test]
    fn duplicate_sequenced_frames_are_suppressed() {
        let m = model(13);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        server.register_station(4, key, 8).unwrap();
        let frame = station_frame(&m, 91, 8);
        let payload = {
            let mut buf = splitbeam::quantization::quantize_bottleneck(&[0.0; 1], 8);
            splitbeam::wire::decode_feedback_into(&frame, &mut buf).unwrap();
            buf
        };
        let seq5 = splitbeam::wire::encode_feedback_with_seq(&payload, 5).unwrap();
        let seq6 = splitbeam::wire::encode_feedback_with_seq(&payload, 6).unwrap();

        server.ingest_wire(4, &seq5).unwrap();
        // Re-delivery of the pending sequence number is suppressed.
        assert_eq!(
            server.ingest_wire(4, &seq5),
            Err(ServeError::DuplicateFrame(4, 5))
        );
        assert_eq!(server.session(4).unwrap().payloads_ingested(), 1);
        // A different sequence number replaces the pending payload.
        server.ingest_wire(4, &seq6).unwrap();
        assert_eq!(server.session(4).unwrap().payloads_ingested(), 2);
        // Unsequenced (seq 0) frames keep last-wins semantics.
        server.ingest_wire(4, &frame).unwrap();
        server.ingest_wire(4, &frame).unwrap();
        assert_eq!(server.session(4).unwrap().payloads_ingested(), 4);
        assert_eq!(server.pending_count(), 1);
    }

    #[test]
    fn silent_stations_are_stale_served_up_to_the_cap() {
        let m = model(17);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        server.register_station(0, key, 8).unwrap();
        server.ingest_wire(0, &station_frame(&m, 92, 8)).unwrap();
        let summary = server.process_round().unwrap();
        assert_eq!((summary.served, summary.stale_served), (1, 0));
        let cap = server.health_policy().stale_serve_cap;
        // While within the staleness cap the silent station is still carried
        // by last-known-good feedback...
        for age in 1..=cap {
            let summary = server.process_round().unwrap();
            assert_eq!(
                (summary.stale, summary.stale_served),
                (1, 1),
                "age {age} within cap {cap}"
            );
        }
        // ...then it falls out.
        let summary = server.process_round().unwrap();
        assert_eq!((summary.stale, summary.stale_served), (1, 0));
        // Two consecutive misses degraded the session long ago.
        assert_eq!(server.session(0).unwrap().health(), SessionHealth::Degraded);
    }

    #[test]
    fn batched_round_matches_serial_round_exactly() {
        let m = model(4);
        let stations = 5u64;
        let mut batched = ApServer::new();
        let mut serial = ApServer::new();
        let bkey = batched.register_model(m.clone());
        let skey = serial.register_model(m.clone());
        for id in 0..stations {
            batched.register_station(id, bkey, 6).unwrap();
            serial.register_station(id, skey, 6).unwrap();
        }
        for round in 0..3u64 {
            for id in 0..stations {
                // Station `stations - 1` skips round 1 to exercise staleness.
                if round == 1 && id == stations - 1 {
                    continue;
                }
                let frame = station_frame(&m, 100 + round * stations + id, 6);
                batched.ingest_wire(id, &frame).unwrap();
                serial.ingest_wire(id, &frame).unwrap();
            }
            let b = batched.process_round().unwrap();
            let s = serial.process_round_serial().unwrap();
            assert_eq!(b, s, "round summaries must agree");
            if round == 1 {
                assert_eq!(b.served, stations as usize - 1);
                assert_eq!(b.stale, 1);
                assert_eq!(b.awaiting_first_report, 0);
            }
            for id in 0..stations {
                assert_eq!(
                    batched.feedback_of(id),
                    serial.feedback_of(id),
                    "round {round}, station {id}: batched and serial must be bit-exact"
                );
            }
        }
        // The skipping station's feedback aged but was refreshed in round 2.
        assert_eq!(batched.session(stations - 1).unwrap().last_round(), Some(2));
    }

    #[test]
    fn staleness_and_grouping() {
        let m = model(5);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        for id in 0..5u64 {
            server.register_station(id, key, 8).unwrap();
        }
        // Round 0: stations 0..3 report; 3 and 4 stay silent (and have never
        // reported, so they await a first report rather than going stale).
        for id in 0..3u64 {
            let frame = station_frame(&m, 50 + id, 8);
            server.ingest_wire(id, &frame).unwrap();
        }
        let summary = server.process_round().unwrap();
        assert_eq!(
            (
                summary.served,
                summary.stale,
                summary.awaiting_first_report,
                summary.batches
            ),
            (3, 0, 2, 1)
        );
        assert_eq!(server.fresh_station_ids(0), vec![0, 1, 2]);
        // Nt = 2, Nss = 1 -> groups of at most two stations.
        let groups = server.mu_mimo_groups(0);
        assert_eq!(groups, vec![vec![0, 1], vec![2]]);
        let feedback = server.group_feedback(&groups[0]).unwrap();
        assert_eq!(feedback.len(), 2);
        assert_eq!(feedback[0].len(), 56);
        assert_eq!(server.group_feedback(&[4]), Err(ServeError::NoFeedback(4)));
        assert_eq!(
            server.group_feedback(&[77]),
            Err(ServeError::UnknownStation(77))
        );
        // One idle round: the previously-served stations' feedback goes stale,
        // the never-reporting pair still awaits its first report.
        let summary = server.process_round().unwrap();
        assert_eq!(
            (summary.served, summary.stale, summary.awaiting_first_report),
            (0, 3, 2)
        );
        assert!(server.fresh_station_ids(0).is_empty());
        assert_eq!(server.fresh_station_ids(1), vec![0, 1, 2]);
    }

    #[test]
    fn steady_state_round_recycles_feedback_buffers() {
        let m = model(8);
        let mut server = ApServer::new();
        let key = server.register_model(m.clone());
        for id in 0..3u64 {
            server.register_station(id, key, 6).unwrap();
        }
        for id in 0..3u64 {
            server
                .ingest_wire(id, &station_frame(&m, 70 + id, 6))
                .unwrap();
        }
        server.process_round().unwrap();
        let ptrs: Vec<*const f32> = (0..3u64)
            .map(|id| server.feedback_of(id).unwrap().as_ptr())
            .collect();
        for round in 0..2u64 {
            for id in 0..3u64 {
                let frame = station_frame(&m, 80 + round * 3 + id, 6);
                server.ingest_wire(id, &frame).unwrap();
            }
            server.process_round().unwrap();
            for (id, &ptr) in ptrs.iter().enumerate() {
                assert_eq!(
                    server.feedback_of(id as StationId).unwrap().as_ptr(),
                    ptr,
                    "steady-state serving must reuse station {id}'s feedback buffer"
                );
            }
        }
        assert_eq!(server.pending_count(), 0);
    }

    #[test]
    fn multiple_models_batch_independently() {
        let m_a = model(6);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let m_b = SplitBeamModel::new(
            SplitBeamConfig::new(
                MimoConfig::symmetric(2, Bandwidth::Mhz20),
                CompressionLevel::OneQuarter,
            ),
            &mut rng,
        );
        let mut server = ApServer::new();
        let key_a = server.register_model(m_a.clone());
        let key_b = server.register_model(m_b.clone());
        server.register_station(0, key_a, 8).unwrap();
        server.register_station(1, key_b, 8).unwrap();
        server.ingest_wire(0, &station_frame(&m_a, 60, 8)).unwrap();
        server.ingest_wire(1, &station_frame(&m_b, 61, 8)).unwrap();
        let summary = server.process_round().unwrap();
        assert_eq!((summary.served, summary.batches), (2, 2));
    }

    /// Regression test for the historical error-path bug: a failed batch for
    /// one model used to consume the pending payloads of *every* station,
    /// including stations bound to other models whose batch never ran. The
    /// fixed semantics: the failure is scoped to the failing model's batch,
    /// every other model's batch still runs and stores its reconstructions —
    /// and the batched and serial paths agree on the failure path too (the
    /// failing model's batch is all-or-nothing in both, even for stations of
    /// that model whose own payload was fine).
    #[test]
    fn failed_batch_consumes_only_its_own_model() {
        let m_a = model(21);
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let m_b = SplitBeamModel::new(
            SplitBeamConfig::new(
                MimoConfig::symmetric(2, Bandwidth::Mhz20),
                CompressionLevel::OneQuarter,
            ),
            &mut rng,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let m_c = SplitBeamModel::new(
            SplitBeamConfig::new(
                MimoConfig::symmetric(2, Bandwidth::Mhz20),
                CompressionLevel::OneSixteenth,
            ),
            &mut rng,
        );
        for serial in [false, true] {
            let mut server = ApServer::new();
            let key_a = server.register_model(m_a.clone());
            let key_b = server.register_model(m_b.clone());
            let key_c = server.register_model(m_c.clone());
            server.register_station(0, key_a, 8).unwrap();
            // Model B serves two stations: 1 (valid payload) and 3 (payload
            // corrupted below). Station 1's id sorts before 3, so a
            // station-at-a-time pass would reconstruct it before hitting the
            // failure — the all-or-nothing commit must prevent that.
            server.register_station(1, key_b, 8).unwrap();
            server.register_station(2, key_c, 8).unwrap();
            server.register_station(3, key_b, 8).unwrap();
            server.ingest_wire(0, &station_frame(&m_a, 60, 8)).unwrap();
            server.ingest_wire(1, &station_frame(&m_b, 61, 8)).unwrap();
            server.ingest_wire(2, &station_frame(&m_c, 62, 8)).unwrap();
            server.ingest_wire(3, &station_frame(&m_b, 63, 8)).unwrap();
            // Corrupt station 3's validated payload so model B's batch fails
            // at reconstruction time (validation already passed at ingest).
            server.shards[0]
                .sessions
                .get_mut(3)
                .unwrap()
                .payload_slot()
                .codes
                .truncate(3);
            let result = if serial {
                server.process_round_serial()
            } else {
                server.process_round()
            };
            assert!(
                matches!(result, Err(ServeError::Model(_))),
                "serial={serial}: round must report the failed batch"
            );
            // The round advanced and the healthy models were still served.
            assert_eq!(server.current_round(), 1, "serial={serial}");
            assert!(server.feedback_of(0).is_some(), "serial={serial}");
            assert!(server.feedback_of(2).is_some(), "serial={serial}");
            // The failed model's payloads were all consumed without
            // reconstruction — including station 1's perfectly valid one.
            assert!(server.feedback_of(1).is_none(), "serial={serial}");
            assert!(server.feedback_of(3).is_none(), "serial={serial}");
            assert_eq!(server.pending_count(), 0, "serial={serial}");
        }
    }

    #[test]
    fn ids_map_to_shards_deterministically() {
        let server = ApServer::with_shards(4);
        assert_eq!(server.num_shards(), 4);
        for id in 0..32u64 {
            assert_eq!(server.shard_of(id), (id % 4) as usize);
        }
        // Shard count clamps to at least one.
        assert_eq!(ApServer::with_shards(0).num_shards(), 1);
        assert_eq!(ApServer::new().num_shards(), 1);
    }

    #[test]
    fn sharded_round_is_bit_exact_with_single_shard_and_serial() {
        let m = model(31);
        let stations = 9u64;
        let bits = 6u8;
        let mut single = ApServer::new();
        let skey = single.register_model(m.clone());
        let mut serial = ApServer::new();
        let serial_key = serial.register_model(m.clone());
        let mut sharded: Vec<ApServer> = [1usize, 2, 4, 7]
            .iter()
            .map(|&n| {
                let mut s = ApServer::with_shards(n);
                let key = s.register_model(m.clone());
                for id in 0..stations {
                    s.register_station(id, key, bits).unwrap();
                }
                s
            })
            .collect();
        for id in 0..stations {
            single.register_station(id, skey, bits).unwrap();
            serial.register_station(id, serial_key, bits).unwrap();
        }
        for round in 0..3u64 {
            for id in 0..stations {
                if (round + id) % 4 == 1 {
                    continue; // drop some reports
                }
                let frame = station_frame(&m, 500 + round * stations + id, bits);
                single.ingest_wire(id, &frame).unwrap();
                serial.ingest_wire(id, &frame).unwrap();
                for s in sharded.iter_mut() {
                    s.ingest_wire(id, &frame).unwrap();
                }
            }
            let want = single.process_round().unwrap();
            let want_serial = serial.process_round_serial().unwrap();
            assert_eq!(want, want_serial);
            for s in sharded.iter_mut() {
                let got = s.process_round().unwrap();
                assert_eq!(
                    (got.round, got.served, got.stale, got.awaiting_first_report),
                    (
                        want.round,
                        want.served,
                        want.stale,
                        want.awaiting_first_report
                    ),
                    "{} shards, round {round}",
                    s.num_shards()
                );
                assert_eq!(s.evicted_in_last_round(), 0);
                if s.num_shards() == 1 {
                    // One shard matches the single server exactly, batches
                    // included.
                    assert_eq!(got, want, "round {round}");
                }
                for id in 0..stations {
                    assert_eq!(
                        s.feedback_of(id),
                        single.feedback_of(id),
                        "{} shards, round {round}, station {id}",
                        s.num_shards()
                    );
                }
            }
        }
        assert_eq!(sharded[0].pending_count(), 0);
    }

    #[test]
    fn capacity_cap_rejects_and_reopens() {
        for shards in [1usize, 3] {
            let m = model(33);
            let mut server = ApServer::with_shards(shards);
            let key = server.register_model(m);
            server.set_capacity(Some(2));
            server.register_station(0, key, 8).unwrap();
            server.register_station(1, key, 8).unwrap();
            assert_eq!(
                server.register_station(2, key, 8),
                Err(ServeError::CapacityExceeded(2, 2)),
                "{shards} shards"
            );
            // A duplicate id reports as duplicate, not capacity.
            assert_eq!(
                server.register_station(1, key, 8),
                Err(ServeError::DuplicateStation(1)),
                "{shards} shards"
            );
            // Departures free capacity.
            server.deregister_station(0).unwrap();
            server.register_station(2, key, 8).unwrap();
            assert_eq!(server.num_stations(), 2);
            assert_eq!(server.station_ids(), vec![1, 2]);
            // Lifting the cap reopens registration.
            server.set_capacity(None);
            server.register_station(0, key, 8).unwrap();
            assert_eq!(server.num_stations(), 3);
        }
    }

    #[test]
    fn idle_stations_are_evicted_and_can_reregister() {
        for shards in [1usize, 2, 3] {
            let m = model(35);
            let mut server = ApServer::with_shards(shards);
            let key = server.register_model(m.clone());
            server.set_max_idle_rounds(Some(1));
            for id in 0..4u64 {
                server.register_station(id, key, 8).unwrap();
            }
            // Rounds 0..3: stations 0 and 1 keep reporting, 2 and 3 stay silent.
            let mut evicted_total = 0;
            for round in 0..3u64 {
                for id in 0..2u64 {
                    let frame = station_frame(&m, 700 + round * 2 + id, 8);
                    server.ingest_wire(id, &frame).unwrap();
                }
                server.process_round().unwrap();
                evicted_total += server.evicted_in_last_round();
            }
            // Stations 2 and 3 never reported; idle exceeded the 1-round budget
            // after round 2 closed.
            assert_eq!(evicted_total, 2, "{shards} shards");
            assert_eq!(server.num_stations(), 2);
            assert!(server.session(2).is_none());
            assert!(server.session(3).is_none());
            assert_eq!(
                server.ingest_wire(2, &station_frame(&m, 800, 8)),
                Err(ServeError::UnknownStation(2))
            );
            // Clean re-registration: fresh session, joins at the current round.
            server.register_station(2, key, 8).unwrap();
            let session = server.session(2).unwrap();
            assert!(session.feedback().is_none());
            assert_eq!(session.joined_round(), 3);
            // An active reporter is never evicted.
            assert!(server.session(0).is_some());
            assert!(server.feedback_of(0).is_some());
        }
    }

    #[test]
    fn sharded_serial_reference_matches_parallel() {
        let m = model(37);
        let bits = 5u8;
        let mut parallel = ApServer::with_shards(3);
        let pkey = parallel.register_model(m.clone());
        let mut serial = ApServer::with_shards(3);
        let skey = serial.register_model(m.clone());
        for id in 0..7u64 {
            parallel.register_station(id, pkey, bits).unwrap();
            serial.register_station(id, skey, bits).unwrap();
        }
        for round in 0..2u64 {
            for id in 0..7u64 {
                let frame = station_frame(&m, 900 + round * 7 + id, bits);
                parallel.ingest_wire(id, &frame).unwrap();
                serial.ingest_wire(id, &frame).unwrap();
            }
            let p = parallel.process_round().unwrap();
            let s = serial.process_round_serial().unwrap();
            assert_eq!(
                (p.round, p.served, p.stale, p.awaiting_first_report),
                (s.round, s.served, s.stale, s.awaiting_first_report)
            );
            for id in 0..7u64 {
                assert_eq!(parallel.feedback_of(id), serial.feedback_of(id));
            }
        }
    }
}
