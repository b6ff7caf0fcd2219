//! The sessionized AP feedback server.

use crate::ring::Ring;
use crate::session::{SessionHealth, StationId, StationSession};
use crate::slab::SessionSlab;
use crate::timing::{DeadlinePolicy, FrameClass, FrameStamp, RoundDelayStats};
use crate::ServeError;
use mimo_math::kernel::Kernel;
use mimo_math::Int8Kernel;
use splitbeam::fused::{QuantizedTail, TailScratch, TailWeights};
use splitbeam::model::SplitBeamModel;
use splitbeam::quantization::QuantizedFeedback;
use splitbeam::wire;
use std::sync::Arc;
use wifi_phy::precoding::BeamformingFeedback;

/// What one call to [`ApServer::process_round`] did.
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

/// The AP-side serving state: model registry, per-station sessions (each
/// holding its pending payload slot for the round being collected), and the
/// per-round scratch arena.
///
/// Ingest and reconstruction are decoupled: [`ApServer::ingest_wire`] decodes
/// and validates frames as they arrive, [`ApServer::process_round`] coalesces
/// everything pending into one **fused dequantize→tail** batched inference per
/// model — bit-exact with [`ApServer::process_round_serial`], which
/// reconstructs station by station through the unfused single-payload path and
/// exists as the reference (and comparison baseline).
///
/// All per-round storage (wire decode buffer, batch id list, fused tail
/// scratch, per-station payload and feedback buffers) is recycled, so a full
/// steady-state ingest→decode→batched-reconstruct round performs no heap
/// allocation once every buffer has reached its high-water capacity.
///
/// `ApServer` is the single-shard building block; the multi-core serving
/// layer ([`crate::shard::ShardedApServer`]) runs the very same per-shard
/// round-close code over many independent session partitions.
#[derive(Debug, Clone, Default)]
pub struct ApServer {
    models: Vec<Arc<SplitBeamModel>>,
    /// Int8 tails bound from the registered models (same indices as
    /// `models`); consulted only when `tail_weights` is
    /// [`TailWeights::Int8`].
    tails: Vec<Arc<QuantizedTail>>,
    /// Which weight format round closes reconstruct with. The f32 default is
    /// bit-exact with the pre-quantization serving path.
    tail_weights: TailWeights,
    core: ShardCore,
    round: u64,
    /// When set, wire ingest routes through the shard's streaming ring and
    /// rounds close via watermark-driven micro-batches.
    streaming: bool,
    /// Micro-closes of the last streaming round (0 for barrier rounds).
    /// Observability only: deliberately not part of [`RoundSummary`], so the
    /// degenerate streaming round stays bit-identical to the barrier close.
    last_micro_closes: usize,
}

/// Reusable per-round scratch owned by one shard.
#[derive(Debug, Clone)]
pub(crate) struct RoundArena {
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
pub(crate) const DEFAULT_STREAM_CAPACITY: usize = 256;

/// One decoded frame queued in a shard's streaming ring, awaiting its
/// watermark commit.
#[derive(Debug)]
pub(crate) struct StreamFrame {
    pub(crate) id: StationId,
    pub(crate) payload: QuantizedFeedback,
    pub(crate) stamp: FrameStamp,
    pub(crate) seq: u16,
}

/// Counters accumulated across a round's micro-batch closes, folded into the
/// round outcome at finalize. Health/staleness accounting deliberately does
/// NOT live here — it runs exactly once per round, at finalize, so streaming
/// never emits phantom `awaiting_first_report`/`stale` counts per micro-batch.
#[derive(Debug, Default)]
pub(crate) struct MicroAccum {
    served: usize,
    batches: usize,
    micro_closes: usize,
    on_time: usize,
    late: usize,
    expired: usize,
    delay: RoundDelayStats,
    error: Option<ServeError>,
}

impl MicroAccum {
    fn fold(&mut self, pass: ServePass) {
        self.served += pass.served;
        self.batches += pass.batches;
        self.on_time += pass.on_time;
        self.late += pass.late;
        self.expired += pass.expired;
        self.delay.merge(&pass.delay);
        if self.error.is_none() {
            self.error = pass.error;
        }
    }
}

/// One shard's streaming state: the bounded lock-free ingest ring, a
/// one-frame stash for FIFO head-gated commits, a freelist of recycled
/// payload buffers (steady-state streaming ingest allocates nothing), and
/// the micro-batch accumulator.
#[derive(Debug)]
pub(crate) struct StreamLane {
    ring: Ring<StreamFrame>,
    /// The first not-yet-due frame popped by a commit pass; commits are
    /// FIFO head-gated, so nothing behind it commits either.
    stash: Option<StreamFrame>,
    free: Vec<QuantizedFeedback>,
    acc: MicroAccum,
}

impl StreamLane {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: Ring::with_capacity(capacity),
            stash: None,
            free: Vec::new(),
            acc: MicroAccum::default(),
        }
    }

    fn queued(&self) -> usize {
        self.ring.len() + usize::from(self.stash.is_some())
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
pub(crate) struct TailEngine<'a> {
    pub(crate) models: &'a [Arc<SplitBeamModel>],
    pub(crate) tails: &'a [Arc<QuantizedTail>],
    pub(crate) mode: TailWeights,
    pub(crate) kern: Kernel,
    pub(crate) ik: Int8Kernel,
}

impl<'a> TailEngine<'a> {
    /// Bundles the registries with the kernels currently selected for the f32
    /// and int8 tiers (`SPLITBEAM_KERNEL` / [`mimo_math::kernel::set_kernel`]).
    pub(crate) fn new(
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
/// round arena. [`ApServer`] owns exactly one; `ShardedApServer` owns `N` and
/// closes them in parallel. Every round-close code path lives here, so the
/// single-shard and sharded servers are bit-exact by construction.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardCore {
    pub(crate) sessions: SessionSlab,
    pub(crate) arena: RoundArena,
    /// Health thresholds applied to every session of this shard.
    pub(crate) health: HealthPolicy,
    /// Corrupt frames seen since the last round close (reported in the next
    /// round's summary, then reset).
    pub(crate) round_corrupt: usize,
    /// Streaming micro-batch state (ring, stash, freelist, accumulator).
    pub(crate) lane: StreamLane,
    /// Artificial close lag injected into this shard's serving path (bench
    /// stall model). Barrier closes pay the *maximum* stall across shards —
    /// the whole round waits on the slowest shard — while streaming closes
    /// pay only the shard's own stall.
    pub(crate) stall_ns: u64,
}

/// What closing one round over one shard did. `error` carries the first
/// failure (in model-key order) while the counters describe everything that
/// still happened — a failed batch never blocks the other models' batches.
#[derive(Debug)]
pub(crate) struct RoundOutcome {
    pub(crate) served: usize,
    pub(crate) stale: usize,
    pub(crate) awaiting_first_report: usize,
    pub(crate) batches: usize,
    pub(crate) on_time: usize,
    pub(crate) late: usize,
    pub(crate) expired: usize,
    pub(crate) delay: RoundDelayStats,
    pub(crate) corrupt: usize,
    pub(crate) stale_served: usize,
    /// Watermark-triggered micro-batch closes that fired during the round
    /// (streaming only; `0` for barrier closes). Not part of the public
    /// summary — the bit-exactness anchor compares summaries across modes.
    pub(crate) micro_closes: usize,
    pub(crate) error: Option<ServeError>,
}

/// What one serving pass (a barrier close's serve step, or one streaming
/// micro-batch close) did. Health/staleness accounting is *not* here — it
/// belongs to the once-per-round finalize.
#[derive(Debug, Default)]
pub(crate) struct ServePass {
    served: usize,
    batches: usize,
    on_time: usize,
    late: usize,
    expired: usize,
    delay: RoundDelayStats,
    error: Option<ServeError>,
}

impl RoundOutcome {
    /// Converts the outcome into the public summary, surfacing the first
    /// error when one occurred (the partial round state is already applied).
    pub(crate) fn into_summary(self, round: u64) -> Result<RoundSummary, ServeError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(RoundSummary {
            round,
            served: self.served,
            stale: self.stale,
            awaiting_first_report: self.awaiting_first_report,
            batches: self.batches,
            on_time: self.on_time,
            late: self.late,
            expired: self.expired,
            delay: self.delay,
            lost: 0,
            corrupt: self.corrupt,
            retransmitted: 0,
            stale_served: self.stale_served,
        })
    }
}

impl ShardCore {
    /// Registration validation, shared verbatim by the single-shard and
    /// sharded servers so both report identical errors for identical bad
    /// input (model key first, then bit width, then duplicate id).
    pub(crate) fn validate_registration(
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

    pub(crate) fn register_station(
        &mut self,
        num_models: usize,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
        round: u64,
    ) -> Result<(), ServeError> {
        self.validate_registration(num_models, id, model_key, bits_per_value)?;
        self.sessions
            .insert(StationSession::new(id, model_key, bits_per_value, round))
            .map(|_| ())
            .map_err(|rejected| ServeError::DuplicateStation(rejected.id()))
    }

    /// Adopts a roaming station's full session state (payloads, health,
    /// staleness clocks) rebound to `model_key` on this server — the warm
    /// half of a fleet handoff; registration validation still applies, minus
    /// the fresh-join reset a cold re-register would perform.
    /// On failure the untouched session rides back in the error, so the
    /// caller can restore it at the source AP instead of dropping the
    /// station.
    // The fat Err is the point: the rejected session must ride back to the
    // caller for restore, and boxing a cold failure path buys nothing.
    #[allow(clippy::result_large_err)]
    pub(crate) fn adopt_station(
        &mut self,
        num_models: usize,
        mut session: StationSession,
        model_key: usize,
    ) -> Result<(), (StationSession, ServeError)> {
        if let Err(e) = self.validate_registration(
            num_models,
            session.id(),
            model_key,
            session.bits_per_value(),
        ) {
            return Err((session, e));
        }
        session.rebind_model(model_key);
        self.sessions
            .insert(session)
            .map(|_| ())
            .map_err(|rejected| {
                let id = rejected.id();
                (rejected, ServeError::DuplicateStation(id))
            })
    }

    /// Releases station `id` for a handoff, returning its full session
    /// state. The inverse of [`ShardCore::adopt_station`].
    pub(crate) fn release_station(&mut self, id: StationId) -> Result<StationSession, ServeError> {
        self.sessions
            .remove(id)
            .ok_or(ServeError::UnknownStation(id))
    }

    pub(crate) fn deregister_station(&mut self, id: StationId) -> Result<(), ServeError> {
        self.sessions
            .remove(id)
            .map(|_| ())
            .ok_or(ServeError::UnknownStation(id))
    }

    pub(crate) fn ingest_wire(
        &mut self,
        models: &[Arc<SplitBeamModel>],
        id: StationId,
        frame: &[u8],
        round: u64,
    ) -> Result<usize, ServeError> {
        self.ingest_wire_at(models, id, frame, FrameStamp::default(), round)
    }

    /// Timestamped wire ingest: like [`ShardCore::ingest_wire`] but records
    /// the frame's virtual-time stamp so the deadline-aware round closer can
    /// classify it against the Eq. 7d budget.
    ///
    /// The fault-tolerant ingest order: session lookup, quarantine gate,
    /// CRC/decode (a [`ServeError::Corrupt`] rejection feeds the session's
    /// corrupt streak and can trigger quarantine), duplicate-sequence
    /// suppression, then payload validation and commit. A failed ingest of
    /// any kind leaves a previously pending payload untouched.
    pub(crate) fn ingest_wire_at(
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

    pub(crate) fn ingest_payload(
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

    pub(crate) fn pending_count(&self) -> usize {
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

    /// Closes round `round` over this shard with one fused dequantize→tail
    /// batched inference per model. With a [`DeadlinePolicy`], pending
    /// reports are classified first: expired ones are consumed without
    /// reconstruction, late-but-usable ones are served but flagged.
    ///
    /// **Partial-round semantics on failure:** a failed batch consumes only
    /// *its own* pending payloads (they are what failed); every other model's
    /// batch still runs and stores its reconstructions, and the first error
    /// (in model-key order) is reported in the outcome. Stations of healthy
    /// models are never penalized for an unrelated model's failure.
    pub(crate) fn close_round_batched(
        &mut self,
        engine: &TailEngine<'_>,
        round: u64,
        policy: Option<DeadlinePolicy>,
        lag_ns: u64,
    ) -> RoundOutcome {
        let pass = self.serve_pending_batched(engine, round, policy, lag_ns);
        self.finish_round(round, pass, 0)
    }

    /// The serve step shared by the barrier close and streaming micro-batch
    /// closes: expires over-budget pending reports, then runs one fused
    /// dequantize→tail batched inference per model with pending traffic.
    /// Performs **no** health/staleness accounting — that happens once per
    /// round, in [`ShardCore::finish_round`].
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

    /// The once-per-round tail of every close path: health/staleness pass,
    /// corrupt-counter harvest, and outcome assembly.
    fn finish_round(&mut self, round: u64, pass: ServePass, micro_closes: usize) -> RoundOutcome {
        let (stale, awaiting_first_report, stale_served) = self.health_pass(round);
        RoundOutcome {
            served: pass.served,
            stale,
            awaiting_first_report,
            batches: pass.batches,
            on_time: pass.on_time,
            late: pass.late,
            expired: pass.expired,
            delay: pass.delay,
            corrupt: std::mem::take(&mut self.round_corrupt),
            stale_served,
            micro_closes,
            error: pass.error,
        }
    }

    /// Closes round `round` reconstructing one station at a time through the
    /// unfused path. Mirrors [`ShardCore::close_round_batched`]'s partial-round
    /// semantics exactly, including on failure: each model's payloads are
    /// reconstructed first and committed only when the *whole* model
    /// succeeded — a failing payload consumes the failed model's pending
    /// payloads without storing any of them (just like the failed batch),
    /// stations bound to other models are served normally, and the first
    /// error (in model-key order) is reported.
    pub(crate) fn close_round_serial(
        &mut self,
        engine: &TailEngine<'_>,
        round: u64,
        policy: Option<DeadlinePolicy>,
        lag_ns: u64,
    ) -> RoundOutcome {
        let pass = self.serve_pending_serial(engine, round, policy, lag_ns);
        self.finish_round(round, pass, 0)
    }

    /// Serial analog of [`ShardCore::serve_pending_batched`]: one unfused
    /// reconstruction per station, committed all-or-nothing per model. No
    /// health accounting.
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
    pub(crate) fn stream_ingest(
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
    pub(crate) fn advance_watermark(
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
                self.lane.acc.micro_closes += 1;
            }
        }
    }

    /// Streaming round close: commits everything still queued, serves any
    /// remaining pending batch, folds in the round's accumulated micro-batch
    /// summaries, and runs the once-per-round health pass. Equivalent to
    /// [`ShardCore::close_round_batched`] when no intermediate watermark
    /// fired (the whole round serves as one batch).
    pub(crate) fn finalize_stream_round(
        &mut self,
        engine: &TailEngine<'_>,
        round: u64,
        policy: Option<DeadlinePolicy>,
    ) -> RoundOutcome {
        self.commit_due(u64::MAX);
        let tail = self.serve_pending_batched(engine, round, policy, self.stall_ns);
        let mut acc = std::mem::take(&mut self.lane.acc);
        acc.fold(tail);
        let micro_closes = acc.micro_closes;
        let pass = ServePass {
            served: acc.served,
            batches: acc.batches,
            on_time: acc.on_time,
            late: acc.late,
            expired: acc.expired,
            delay: acc.delay,
            error: acc.error,
        };
        self.finish_round(round, pass, micro_closes)
    }

    /// Whether this shard saw any traffic this round — streaming analog of
    /// the barrier path's `pending_count() > 0` check, which must also count
    /// frames already served by micro-closes and frames still queued on the
    /// ring.
    pub(crate) fn round_had_traffic(&self) -> bool {
        self.pending_count() > 0
            || self.lane.queued() > 0
            || self.lane.acc.batches > 0
            || self.lane.acc.served > 0
            || self.lane.acc.expired > 0
            || self.lane.acc.error.is_some()
    }

    /// Evicts every station idle for more than `max_idle_rounds` sounding
    /// rounds at the just-closed round, returning how many were removed.
    /// Never-reporting stations are measured from their association round.
    pub(crate) fn evict_idle(&mut self, closed_round: u64, max_idle_rounds: u64) -> usize {
        // The slab walks its idle-LRU list from the cold end and stops at
        // the first survivor: O(evicted), not O(sessions).
        self.sessions.evict_idle(closed_round, max_idle_rounds)
    }
}

impl ApServer {
    /// Creates an empty server. The tail weight format starts from the
    /// `SPLITBEAM_TAIL_WEIGHTS` environment knob (`int8` opts into the
    /// quantized tier, anything else serves f32).
    pub fn new() -> Self {
        Self {
            tail_weights: TailWeights::from_env(),
            ..Self::default()
        }
    }

    /// Registers a tail model and returns its key. Stations referencing the
    /// same key share the model (and one batched inference per round). The
    /// model's int8 tail is quantized and packed here, once, so round closes
    /// under [`TailWeights::Int8`] pay no bind cost.
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

    /// Switches the tail weight format for subsequent round closes. Safe at
    /// any round boundary — the int8 tails were bound at registration.
    pub fn set_tail_weights(&mut self, mode: TailWeights) {
        self.tail_weights = mode;
    }

    /// The model behind `key`.
    pub fn model(&self, key: usize) -> Option<&SplitBeamModel> {
        self.models.get(key).map(Arc::as_ref)
    }

    /// Associates a station with a registered model and quantizer width.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] for an unregistered key,
    /// [`ServeError::DuplicateStation`] when the id is already associated, and
    /// [`ServeError::Codec`] for a bit width outside `1..=16`.
    pub fn register_station(
        &mut self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        self.core
            .register_station(self.models.len(), id, model_key, bits_per_value, self.round)
    }

    /// Removes a station's session (disassociation). The id can be registered
    /// again afterwards with a completely fresh session.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] when the id is not registered.
    pub fn deregister_station(&mut self, id: StationId) -> Result<(), ServeError> {
        self.core.deregister_station(id)
    }

    /// Releases station `id` for a fleet handoff, returning its full session
    /// state (pending payload, feedback history, health and staleness
    /// clocks) for the target AP to adopt. Unlike deregistration, nothing is
    /// reset.
    ///
    /// # Errors
    /// [`ServeError::UnknownStation`] when the id is not registered.
    pub fn release_station(&mut self, id: StationId) -> Result<StationSession, ServeError> {
        self.core.release_station(id)
    }

    /// Adopts a roaming station's released session, rebound to this server's
    /// `model_key` — the warm half of a fleet handoff; no cold re-register,
    /// so the station keeps its feedback, pending payload and health state.
    ///
    /// # Errors
    /// The same registration validations as
    /// [`ApServer::register_station`] (model key, bit width, duplicate id);
    /// the rejected session rides back in the error so the caller can
    /// restore it at the source AP instead of dropping the station.
    // The fat Err is the point: the rejected session must ride back to the
    // caller for restore, and boxing a cold failure path buys nothing.
    #[allow(clippy::result_large_err)]
    pub fn adopt_station(
        &mut self,
        session: StationSession,
        model_key: usize,
    ) -> Result<(), (StationSession, ServeError)> {
        self.core
            .adopt_station(self.models.len(), session, model_key)
    }

    /// Number of registered stations.
    pub fn num_stations(&self) -> usize {
        self.core.sessions.len()
    }

    /// The session of station `id`.
    pub fn session(&self, id: StationId) -> Option<&StationSession> {
        self.core.sessions.get(id)
    }

    /// Iterates over all sessions in station-id order.
    pub fn sessions(&self) -> impl Iterator<Item = &StationSession> {
        self.core.sessions.values()
    }

    /// Index of the sounding round currently being collected.
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Number of payloads waiting for the next `process_round`.
    pub fn pending_count(&self) -> usize {
        self.core.pending_count()
    }

    /// Ingests one bit-packed wire frame from station `id` for the current
    /// round, returning the decoded payload size in bytes. A station reporting
    /// twice in one round replaces its pending payload (last wins).
    ///
    /// The frame decodes into the server's recycled decode buffer, which is
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
        if self.streaming {
            return self.core.stream_ingest(
                &self.models,
                id,
                frame,
                FrameStamp::default(),
                self.round,
            );
        }
        self.core.ingest_wire(&self.models, id, frame, self.round)
    }

    /// Timestamped wire ingest: like [`ApServer::ingest_wire`], but records
    /// the frame's virtual-time [`FrameStamp`] (arrival plus per-leg delay
    /// breakdown) on the session, so a subsequent
    /// [`ApServer::process_round_deadline`] can classify the report against
    /// the Eq. 7d budget.
    ///
    /// # Errors
    /// Same contract as [`ApServer::ingest_wire`].
    pub fn ingest_wire_at(
        &mut self,
        id: StationId,
        frame: &[u8],
        stamp: FrameStamp,
    ) -> Result<usize, ServeError> {
        if self.streaming {
            return self
                .core
                .stream_ingest(&self.models, id, frame, stamp, self.round);
        }
        self.core
            .ingest_wire_at(&self.models, id, frame, stamp, self.round)
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
        self.core
            .ingest_payload(&self.models, id, payload, wire_bytes, self.round)
    }

    /// The health thresholds applied to every session.
    pub fn health_policy(&self) -> HealthPolicy {
        self.core.health
    }

    /// Replaces the health thresholds (takes effect from the next ingest).
    pub fn set_health_policy(&mut self, policy: HealthPolicy) {
        self.core.health = policy;
    }

    /// Closes the current round: coalesces all pending payloads into **one
    /// fused dequantize→tail batched inference per model**
    /// ([`SplitBeamModel::reconstruct_quantized_batch_iter_into`]), stores
    /// every reconstruction in its session, and advances the round counter.
    /// All intermediate storage comes from the server's round arena.
    ///
    /// # Errors
    /// [`ServeError::Model`] when a tail reconstruction fails. The round is
    /// **partial, not voided**: the failed batch's payloads are discarded,
    /// but every other model's batch still ran and stored its
    /// reconstructions, and the round counter advanced — the error reports
    /// the first failed model's reconstruction failure.
    pub fn process_round(&mut self) -> Result<RoundSummary, ServeError> {
        let round = self.round;
        self.round += 1;
        let lag = self.core.stall_ns;
        let engine = TailEngine::new(&self.models, &self.tails, self.tail_weights);
        self.core
            .close_round_batched(&engine, round, None, lag)
            .into_summary(round)
    }

    /// Deadline-aware batched round close: every pending report is classified
    /// against `policy` by its ingest stamp's end-to-end delay — on-time
    /// (within the Eq. 7d budget, inclusive) and late-but-usable reports are
    /// reconstructed in the same fused batch, expired reports are consumed
    /// **without** reconstruction. Untimed frames carry an all-zero stamp and
    /// always classify on-time, which is how the lockstep drivers remain the
    /// degenerate case.
    ///
    /// # Errors
    /// Same contract and partial-round semantics as
    /// [`ApServer::process_round`].
    pub fn process_round_deadline(
        &mut self,
        policy: DeadlinePolicy,
    ) -> Result<RoundSummary, ServeError> {
        let round = self.round;
        self.round += 1;
        let lag = self.core.stall_ns;
        let engine = TailEngine::new(&self.models, &self.tails, self.tail_weights);
        self.core
            .close_round_batched(&engine, round, Some(policy), lag)
            .into_summary(round)
    }

    /// Reference path: closes the round reconstructing **one station at a
    /// time** through the unfused dequantize-then-tail path (no coalescing).
    /// Produces bit-identical session state to [`ApServer::process_round`];
    /// kept for verification and as the baseline the fused batched path is
    /// benchmarked against.
    ///
    /// # Errors
    /// [`ServeError::Model`] when a tail reconstruction fails; the same
    /// partial-round semantics as [`ApServer::process_round`] apply (only the
    /// failing model's payloads are consumed unreconstructed).
    pub fn process_round_serial(&mut self) -> Result<RoundSummary, ServeError> {
        let round = self.round;
        self.round += 1;
        let lag = self.core.stall_ns;
        let engine = TailEngine::new(&self.models, &self.tails, self.tail_weights);
        self.core
            .close_round_serial(&engine, round, None, lag)
            .into_summary(round)
    }

    /// Deadline-aware serial round close: the station-at-a-time reference for
    /// [`ApServer::process_round_deadline`], with identical classification
    /// semantics (expired reports consumed unreconstructed, late reports
    /// served but flagged).
    ///
    /// # Errors
    /// Same contract as [`ApServer::process_round_serial`].
    pub fn process_round_serial_deadline(
        &mut self,
        policy: DeadlinePolicy,
    ) -> Result<RoundSummary, ServeError> {
        let round = self.round;
        self.round += 1;
        let lag = self.core.stall_ns;
        let engine = TailEngine::new(&self.models, &self.tails, self.tail_weights);
        self.core
            .close_round_serial(&engine, round, Some(policy), lag)
            .into_summary(round)
    }

    /// Switches between lockstep and streaming ingest. In streaming mode,
    /// [`ApServer::ingest_wire`]/[`ApServer::ingest_wire_at`] enqueue frames
    /// onto the bounded per-server ring and commits happen on watermarks
    /// ([`ApServer::advance_watermark`]); the round still closes through
    /// [`ApServer::process_round_streaming`]. Only toggle while quiescent (no
    /// frames queued or pending).
    pub fn set_streaming(&mut self, on: bool) {
        self.streaming = on;
    }

    /// Whether streaming ingest is active.
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Sets this server's artificial close lag (a stalled-shard model): every
    /// close pays `ns` of additional queueing delay when classifying served
    /// and expired reports. Identity at 0.
    pub fn set_stall_ns(&mut self, ns: u64) {
        self.core.stall_ns = ns;
    }

    /// Replaces the streaming ingest ring with one of `capacity` slots
    /// (rounded up to a power of two, minimum 2). Only call while quiescent:
    /// any queued frames are dropped.
    pub fn set_stream_capacity(&mut self, capacity: usize) {
        self.core.lane = StreamLane::with_capacity(capacity);
    }

    /// One watermark tick at virtual time `watermark_ns` with tick period
    /// `step_ns`: commits every queued frame that has arrived by the
    /// watermark, then micro-closes the pending batch iff the oldest pending
    /// frame's Eq. 7d service deadline (per `policy`, default
    /// [`DeadlinePolicy::eq7d`]) falls before the next watermark. Micro-batch
    /// accounting accumulates into the round summary produced by
    /// [`ApServer::process_round_streaming`].
    pub fn advance_watermark(
        &mut self,
        watermark_ns: u64,
        step_ns: u64,
        policy: Option<DeadlinePolicy>,
    ) {
        let round = self.round;
        let engine = TailEngine::new(&self.models, &self.tails, self.tail_weights);
        self.core
            .advance_watermark(&engine, round, watermark_ns, step_ns, policy);
    }

    /// Closes the current round in streaming mode: commits everything still
    /// queued on the ring, serves any remaining pending batch, folds in the
    /// micro-batches already closed by watermarks this round, runs the
    /// once-per-round health pass and advances the round counter.
    ///
    /// With no intermediate watermark fired this is equivalent to
    /// [`ApServer::process_round`] (everything serves as one batch), which is
    /// how the lockstep drivers remain the bit-exact degenerate case.
    ///
    /// # Errors
    /// Same contract and partial-round semantics as
    /// [`ApServer::process_round`].
    pub fn process_round_streaming(
        &mut self,
        policy: Option<DeadlinePolicy>,
    ) -> Result<RoundSummary, ServeError> {
        let round = self.round;
        self.round += 1;
        let engine = TailEngine::new(&self.models, &self.tails, self.tail_weights);
        let outcome = self.core.finalize_stream_round(&engine, round, policy);
        self.last_micro_closes = outcome.micro_closes;
        outcome.into_summary(round)
    }

    /// How many watermark-triggered micro-batch closes the most recent
    /// streaming round performed (barrier rounds leave it untouched).
    pub fn last_micro_closes(&self) -> usize {
        self.last_micro_closes
    }

    /// The latest reconstructed feedback of station `id`, in the tail's flat
    /// real-interleaved layout.
    pub fn feedback_of(&self, id: StationId) -> Option<&[f32]> {
        self.core
            .sessions
            .get(id)
            .and_then(StationSession::feedback)
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
        let session = self
            .core
            .sessions
            .get(id)
            .ok_or(ServeError::UnknownStation(id))?;
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

    /// Stations (id order) whose feedback is at most `max_age` rounds old,
    /// relative to the last closed round. Quarantined stations are excluded —
    /// their link is not trusted, so they never enter a precoding group.
    pub fn fresh_station_ids(&self, max_age: u64) -> Vec<StationId> {
        let now = self.round.saturating_sub(1);
        self.core
            .sessions
            .values()
            .filter(|s| s.is_fresh(now, max_age) && s.health() != SessionHealth::Quarantined)
            .map(StationSession::id)
            .collect()
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
                .filter(|id| self.core.sessions[id].model_key() == key)
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
            server
                .core
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
}
