//! The virtual-time, event-driven serving driver.
//!
//! [`EventDriver`] wraps any [`RoundServing`] server and replaces the
//! lockstep "all feedback lands simultaneously" fiction with a discrete-event
//! simulation on a virtual clock (integer nanoseconds, no wall clock):
//!
//! 1. each station sounds on its own cadence and phase within the round,
//! 2. its head compute time (drawn from the
//!    [`AcceleratorModel`](splitbeam_hwsim::accelerator::AcceleratorModel))
//!    plus seeded jitter delays the report,
//! 3. the report is offered to the **shared medium** through a binary-heap
//!    event queue with deterministic `(offer time, station, seq)`
//!    tie-breaking — frames serialize one at a time in physical ready order,
//!    each charged through the same per-frame airtime primitive the
//!    round-level airtime model sums, on its **actual encoded wire size**
//!    (header included) — so a crowded round *queues*,
//! 4. each granted frame is ingested into the inner server **timestamped**
//!    with its full head/queue/air/tail breakdown,
//! 5. the round close enforces the Eq. 7d deadline: the inner server's
//!    deadline-aware closer classifies every report on-time / late-but-usable
//!    / past-budget from its stamp.
//!
//! The lockstep drivers are recovered as the degenerate case: with zero
//! jitter, zero compute latency, an ideal medium and zero phase stagger
//! ([`EventConfig::lockstep`]), every stamp is all-zero, every report is
//! on-time, and the driver is **bit-exact** with lockstep `ApServer` serving
//! at every shard count — the refactor's correctness anchor.

use crate::driver::{RoundServing, ServeMode, StreamServing};
use crate::server::{ApServer, RoundSummary};
use crate::session::StationId;
use crate::timing::{DeadlinePolicy, FrameStamp};
use crate::ServeError;
use splitbeam::model::SplitBeamModel;
use splitbeam::wire;
use splitbeam_hwsim::accelerator::AcceleratorModel;
use splitbeam_hwsim::delay::DelayBudget;
use splitbeam_hwsim::event::{
    s_to_ns, EventQueue, SeededJitter, SharedMedium, VirtualNs, WatermarkClock,
};
use splitbeam_hwsim::fault::{FaultConfig, FaultInjector, FaultStats, FrameFate};
use std::collections::BTreeMap;

/// Shape of one event-driven serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventConfig {
    /// Base sounding interval (round cadence), in seconds. 10 ms per the
    /// MU-MIMO sounding reference the paper cites.
    pub interval_s: f64,
    /// The Eq. 7d end-to-end delay budget enforced at round close.
    pub budget: DelayBudget,
    /// Grace window past the budget in which a report is still
    /// late-but-usable (reconstructed, but flagged). Beyond it the report is
    /// past-budget and dropped.
    pub grace_s: f64,
    /// Maximum per-report timing jitter, in virtual ns (seeded, uniform in
    /// `[0, max]`). Zero disables jitter.
    pub jitter_max_ns: VirtualNs,
    /// Seed of the jitter stream — two runs with the same seed and traffic
    /// are identical, event for event.
    pub seed: u64,
    /// Per-station sounding phase stagger within a round: station `id` sounds
    /// at `round_start + id * phase_step_ns`. Zero means all stations sound
    /// together (the lockstep assumption).
    pub phase_step_ns: VirtualNs,
    /// Feedback data rate of the shared medium in Mbit/s; `None` models an
    /// ideal zero-airtime medium (the lockstep degenerate case).
    pub feedback_rate_mbps: Option<f64>,
    /// Fault model of the medium (loss, corruption, duplication, extra
    /// delay). [`FaultConfig::none`] — the default — draws nothing from the
    /// fault RNG, keeping zero-fault runs bit-exact with the PR 5 drivers.
    pub faults: FaultConfig,
    /// Maximum station retransmissions per report after a loss or corruption
    /// (`0` disables retransmission).
    pub max_retries: u32,
    /// Base retransmission backoff in virtual ns; attempt `n` backs off
    /// `backoff << (n - 1)` after the failed transmission ends. A retry that
    /// cannot land within the Eq. 7d budget plus grace is not attempted.
    pub retry_backoff_ns: VirtualNs,
    /// Serve through streaming micro-batch closes instead of the round
    /// barrier: arrivals enqueue on the inner server's per-shard rings, the
    /// drain fires deadline watermarks, and the round close only flushes what
    /// the watermarks have not already served. Equivalent to closing every
    /// round with [`ServeMode::Streaming`].
    pub streaming: bool,
    /// Watermark cadence in virtual ns for streaming closes; `0` means one
    /// watermark per sounding interval (the coarsest — and degenerate —
    /// cadence).
    pub watermark_ns: VirtualNs,
}

impl EventConfig {
    /// The degenerate lockstep configuration: zero jitter, zero phase
    /// stagger, ideal medium. Paired with zero compute latency
    /// (`accel = None` in [`build_event_driver`]), the event driver
    /// reproduces the legacy lockstep drivers bit-exactly.
    pub fn lockstep() -> Self {
        Self {
            interval_s: 0.01,
            budget: DelayBudget::default(),
            grace_s: 0.01,
            jitter_max_ns: 0,
            seed: 0,
            phase_step_ns: 0,
            feedback_rate_mbps: None,
            faults: FaultConfig::none(),
            max_retries: 0,
            retry_backoff_ns: 0,
            streaming: false,
            watermark_ns: 0,
        }
    }

    /// A physically-modeled run: medium rate `rate_mbps`, jitter amplitude
    /// from the `SPLITBEAM_JITTER_NS` environment variable (default
    /// `default_jitter_ns`), seeded with `seed`.
    pub fn realistic(rate_mbps: f64, default_jitter_ns: VirtualNs, seed: u64) -> Self {
        let jitter = SeededJitter::from_env(default_jitter_ns, seed);
        Self {
            interval_s: 0.01,
            budget: DelayBudget::default(),
            grace_s: 0.01,
            jitter_max_ns: jitter.max_ns(),
            seed,
            phase_step_ns: 0,
            feedback_rate_mbps: Some(rate_mbps),
            faults: FaultConfig::from_env(),
            max_retries: 2,
            retry_backoff_ns: 100_000,
            streaming: streaming_from_env(),
            watermark_ns: watermark_ns_from_env(),
        }
    }

    /// The deadline policy this configuration enforces at round close.
    pub fn policy(&self) -> DeadlinePolicy {
        DeadlinePolicy::new(&self.budget, self.grace_s)
    }

    fn interval_ns(&self) -> VirtualNs {
        s_to_ns(self.interval_s)
    }

    /// Effective watermark cadence: the configured `watermark_ns`, or one
    /// watermark per sounding interval when unset.
    fn watermark_step_ns(&self) -> VirtualNs {
        if self.watermark_ns > 0 {
            self.watermark_ns
        } else {
            self.interval_ns()
        }
    }

    fn medium(&self) -> SharedMedium {
        match self.feedback_rate_mbps {
            Some(rate) => SharedMedium::new(rate),
            None => SharedMedium::ideal(),
        }
    }
}

impl Default for EventConfig {
    fn default() -> Self {
        Self::lockstep()
    }
}

/// `SPLITBEAM_STREAMING` truthiness: `1` or `true` (case-insensitive) enables
/// streaming micro-batch serving in [`EventConfig::realistic`].
fn streaming_from_env() -> bool {
    mimo_math::env::flag("SPLITBEAM_STREAMING")
}

/// `SPLITBEAM_WATERMARK_NS`: watermark cadence in virtual ns (`0`/unset means
/// one watermark per sounding interval).
fn watermark_ns_from_env() -> VirtualNs {
    mimo_math::env::parse_or("SPLITBEAM_WATERMARK_NS", 0)
}

/// Head/tail compute latency of one model on the simulated accelerator, in
/// virtual ns.
#[derive(Debug, Clone, Copy, Default)]
struct ModelLatencyNs {
    head_ns: u64,
    tail_ns: u64,
}

/// Per-station event-driving state (model binding and sounding cadence).
#[derive(Debug, Clone, Copy)]
struct StationProfile {
    model_key: usize,
    /// The station sounds every `cadence`-th round (1 = every round). Its
    /// round-`r` report carries CSI sounded at the most recent multiple of
    /// `cadence`, so slow-cadence stations age accordingly.
    cadence: u64,
}

/// A report waiting in the event queue for its medium grant: the wire frame
/// plus the timing legs known at schedule time. The queue is keyed by the
/// report's *offer* time (when it is ready and polled), so frames contend for
/// the medium in physical ready order regardless of ingest order.
#[derive(Debug, Clone)]
struct PendingOffer {
    frame: Vec<u8>,
    /// When the report left head compute (offer minus any poll wait).
    ready_ns: VirtualNs,
    head_ns: u64,
    tail_ns: u64,
    /// Transmission attempt: `0` for the first transmission, `n` for the
    /// `n`-th retransmission after a loss or corruption.
    attempt: u32,
}

/// Discrete-event virtual-clock driver around any [`RoundServing`] server.
/// Implements [`RoundServing`] itself, so [`crate::driver::serve_traffic`]
/// can replay identical traffic through it and cross-compare against the
/// lockstep drivers.
#[derive(Debug, Clone)]
pub struct EventDriver<S> {
    inner: S,
    cfg: EventConfig,
    medium: SharedMedium,
    jitter: SeededJitter,
    queue: EventQueue<PendingOffer>,
    latencies: Vec<ModelLatencyNs>,
    profiles: BTreeMap<StationId, StationProfile>,
    round: u64,
    now_ns: VirtualNs,
    frames_scheduled: u64,
    /// Deterministic medium fault injector (seeded off [`EventConfig::seed`]
    /// on an independent stream from the jitter). A zero-fault config draws
    /// nothing, so fault-free runs replay PR 5 behaviour bit-exactly.
    injector: FaultInjector,
    /// Frames the injector dropped during the most recent drain.
    round_lost: usize,
    /// Retransmissions scheduled during the most recent drain.
    round_retransmitted: usize,
    /// Stamps of every report delivered by the most recent round close —
    /// including reports the deadline closer then expired — for
    /// delay-distribution observers (percentiles must not censor the tail).
    last_round_stamps: Vec<(StationId, FrameStamp)>,
}

impl<S: StreamServing> EventDriver<S> {
    /// Wraps `inner` in a virtual-time event simulation. With
    /// [`EventConfig::streaming`] set, the inner server is switched to
    /// streaming ingest immediately.
    pub fn over(mut inner: S, cfg: EventConfig) -> Self {
        if cfg.streaming {
            inner.set_streaming(true);
        }
        Self {
            inner,
            medium: cfg.medium(),
            jitter: SeededJitter::new(cfg.jitter_max_ns, cfg.seed),
            queue: EventQueue::new(),
            latencies: Vec::new(),
            profiles: BTreeMap::new(),
            round: 0,
            now_ns: 0,
            frames_scheduled: 0,
            injector: FaultInjector::new(cfg.faults, cfg.seed ^ 0xfa17_1e55_0b5e_55ed),
            round_lost: 0,
            round_retransmitted: 0,
            last_round_stamps: Vec::new(),
            cfg,
        }
    }

    /// Binds the head/tail compute latency of model `key` (drawn from an
    /// [`AcceleratorModel`] by the builders). Unbound models run with zero
    /// compute latency.
    pub fn bind_model_latency(&mut self, key: usize, head_s: f64, tail_s: f64) {
        if self.latencies.len() <= key {
            self.latencies.resize(key + 1, ModelLatencyNs::default());
        }
        self.latencies[key] = ModelLatencyNs {
            head_ns: s_to_ns(head_s),
            tail_ns: s_to_ns(tail_s),
        };
    }

    /// Sets station `id`'s sounding cadence: it sounds every `every_rounds`-th
    /// round (clamped to at least 1), so its round-`r` report is *timed* from
    /// the most recent cadence boundary and ages toward the deadline
    /// accordingly.
    ///
    /// This is a **timing** model: the payload bytes still come from the
    /// traffic's round-`r` frame (the driver replays pre-generated traffic
    /// verbatim), so the reconstructed feedback content is not itself aged —
    /// only its deadline classification and delay accounting are. Content
    /// aging would have to happen in the traffic generator.
    pub fn set_cadence(&mut self, id: StationId, every_rounds: u64) {
        if let Some(profile) = self.profiles.get_mut(&id) {
            profile.cadence = every_rounds.max(1);
        }
    }

    /// The wrapped server.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped server.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// The driver configuration.
    pub fn config(&self) -> &EventConfig {
        &self.cfg
    }

    /// The shared-medium model (airtime, queueing and utilization counters).
    pub fn medium(&self) -> &SharedMedium {
        &self.medium
    }

    /// Current virtual time.
    pub fn virtual_now_ns(&self) -> VirtualNs {
        self.now_ns
    }

    /// Index of the round currently being collected.
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Arrivals scheduled so far across the run.
    pub fn frames_scheduled(&self) -> u64 {
        self.frames_scheduled
    }

    /// Cumulative fault-injection accounting (offered, lost, corrupted,
    /// duplicated, delayed frames) across the run.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// Arrivals still waiting in the event queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Stamps of every report the most recent round close delivered, in
    /// delivery order — **including** reports the deadline closer then
    /// consumed as past-budget. This is the uncensored delay distribution:
    /// percentile observers that only look at served sessions would miss the
    /// expired tail.
    pub fn last_round_stamps(&self) -> &[(StationId, FrameStamp)] {
        &self.last_round_stamps
    }

    /// Virtual sounding instant of station `id` for the current round: the
    /// most recent cadence boundary, plus the station's phase offset.
    fn sound_ns(&self, id: StationId, profile: &StationProfile) -> VirtualNs {
        let interval = self.cfg.interval_ns();
        let cadence_round = self.round - self.round % profile.cadence;
        cadence_round * interval + id * self.cfg.phase_step_ns
    }

    /// Deadline of the round being collected: its nominal start plus the
    /// Eq. 7d budget (the closer's grace window extends past it).
    fn round_deadline_ns(&self) -> VirtualNs {
        self.round * self.cfg.interval_ns() + s_to_ns(self.cfg.budget.max_delay_s)
    }

    /// Drains every scheduled report — in deterministic `(offer time,
    /// station, seq)` order — through the shared medium and into the inner
    /// server as a timestamped ingest, advancing the virtual clock past the
    /// last arrival and the round deadline. Popping by offer time is what
    /// gives the medium physical FIFO semantics: an early-ready frame is
    /// never charged phantom queueing behind a late-ready one that merely
    /// ingested first.
    ///
    /// A failing ingest (deferred frame validation, a station deregistered
    /// after scheduling) drops that frame and is reported as the first error
    /// **after** the drain completes — the queue never carries stale frames
    /// into the next round. Fault-related rejections — CRC failures,
    /// suppressed duplicates, quarantined stations — are *expected* under an
    /// active fault model: they are absorbed into the round accounting and
    /// the session health machinery rather than surfaced as errors.
    ///
    /// Each popped frame passes through the fault injector. A lost or
    /// corrupted transmission still occupies the medium (its airtime is
    /// spent); the station then retransmits with exponential backoff — but
    /// only while the retry's projected end-to-end delay still fits the
    /// Eq. 7d budget plus grace, because a retry that can only arrive expired
    /// is wasted airtime.
    /// With `watermarks` set, the drain interleaves deadline watermarks into
    /// the event order: before each popped event, every watermark at or
    /// before that event's offer time fires into the inner server
    /// ([`StreamServing::advance_watermark`]) so shards micro-close
    /// mid-round; after the drain, the remaining watermarks up to the round
    /// deadline fire. Watermark times are derived purely from the virtual
    /// clock, so streaming drains are exactly as deterministic and replayable
    /// as barrier drains.
    fn deliver_arrivals(
        &mut self,
        watermarks: Option<(WatermarkClock, DeadlinePolicy)>,
    ) -> Option<ServeError> {
        let mut first_error = None;
        self.last_round_stamps.clear();
        self.round_lost = 0;
        self.round_retransmitted = 0;
        let mut watermarks = watermarks;
        while let Some((key, offer)) = self.queue.pop() {
            if let Some((clock, policy)) = watermarks.as_mut() {
                let step = clock.step_ns();
                while let Some(mark) = clock.pop_due(key.time_ns) {
                    self.inner.advance_watermark(mark, step, Some(*policy));
                }
            }
            let fate = self.injector.frame_fate();
            let grant = self.medium.transmit(key.time_ns, offer.frame.len() * 8);
            self.now_ns = self.now_ns.max(grant.end_ns);
            let (corrupt, duplicate, extra_delay_ns) = match fate {
                FrameFate::Lost => {
                    self.round_lost += 1;
                    self.schedule_retry(key.station, grant.end_ns, &offer);
                    continue;
                }
                FrameFate::Deliver {
                    corrupt,
                    duplicate,
                    extra_delay_ns,
                } => (corrupt, duplicate, extra_delay_ns),
            };
            let arrival_ns = grant.end_ns + extra_delay_ns;
            self.now_ns = self.now_ns.max(arrival_ns);
            let stamp = FrameStamp {
                arrival_ns,
                head_ns: offer.head_ns,
                queue_ns: (key.time_ns - offer.ready_ns) + grant.wait_ns + extra_delay_ns,
                air_ns: grant.air_ns,
                tail_ns: offer.tail_ns,
            };
            if corrupt {
                let mut damaged = offer.frame.clone();
                self.injector.corrupt_frame(&mut damaged);
                match self.inner.ingest_wire_at(key.station, &damaged, stamp) {
                    // The AP rejected the damaged bytes — CRC mismatch, an
                    // unrecognizable header (damage to the unprotected
                    // dispatch byte), or a quarantined station. The frame is
                    // gone either way; retransmit if the budget allows.
                    Err(
                        ServeError::Corrupt(..) | ServeError::Codec(_) | ServeError::Quarantined(_),
                    ) => {
                        self.schedule_retry(key.station, arrival_ns, &offer);
                    }
                    // Bit flips can cancel each other out and leave the frame
                    // intact; a surviving frame is a normal delivery.
                    Ok(_) => self.last_round_stamps.push((key.station, stamp)),
                    Err(ServeError::DuplicateFrame(..)) => {}
                    Err(e) => {
                        if first_error.is_none() {
                            first_error = Some(e);
                        }
                    }
                }
                continue;
            }
            let deliveries = if duplicate { 2 } else { 1 };
            for _ in 0..deliveries {
                match self.inner.ingest_wire_at(key.station, &offer.frame, stamp) {
                    Ok(_) => self.last_round_stamps.push((key.station, stamp)),
                    // The AP suppressed a re-delivered sequence number, or the
                    // station is quarantined — counted, not fatal.
                    Err(ServeError::DuplicateFrame(..) | ServeError::Quarantined(_)) => {}
                    Err(ServeError::Corrupt(..)) => {}
                    Err(e) => {
                        if first_error.is_none() {
                            first_error = Some(e);
                        }
                    }
                }
            }
        }
        let deadline_ns = self.round_deadline_ns();
        if let Some((clock, policy)) = watermarks.as_mut() {
            let step = clock.step_ns();
            while let Some(mark) = clock.pop_due(deadline_ns) {
                self.inner.advance_watermark(mark, step, Some(*policy));
            }
        }
        self.now_ns = self.now_ns.max(deadline_ns);
        first_error
    }

    /// Schedules a retransmission of `offer` after a failed transmission that
    /// ended at `failed_end_ns`, with exponential backoff per attempt —
    /// unless the retry budget is exhausted or the retry's projected
    /// end-to-end delay (head, queueing so far, backoff, one more airtime,
    /// tail) can no longer fit the Eq. 7d budget plus grace, in which case
    /// the report is given up for this round.
    fn schedule_retry(
        &mut self,
        station: StationId,
        failed_end_ns: VirtualNs,
        offer: &PendingOffer,
    ) {
        if offer.attempt >= self.cfg.max_retries {
            return;
        }
        let attempt = offer.attempt + 1;
        let backoff_ns = self
            .cfg
            .retry_backoff_ns
            .saturating_mul(1u64 << (attempt - 1).min(31));
        let retry_ns = failed_end_ns + backoff_ns;
        let air_estimate_ns = self.medium.frame_airtime_ns(offer.frame.len() * 8);
        let projected_ns = offer.head_ns
            + retry_ns.saturating_sub(offer.ready_ns)
            + air_estimate_ns
            + offer.tail_ns;
        let allowance_ns = s_to_ns(self.cfg.budget.max_delay_s) + s_to_ns(self.cfg.grace_s);
        if projected_ns > allowance_ns {
            return;
        }
        let mut retry = offer.clone();
        retry.attempt = attempt;
        // Sequenced retries get a fresh number so duplicate suppression never
        // mistakes a retransmission for a replayed frame.
        wire::set_frame_seq(&mut retry.frame, attempt as u16 + 1);
        self.queue.schedule(retry_ns, station, retry);
        self.round_retransmitted += 1;
    }
}

impl<S: StreamServing> RoundServing for EventDriver<S> {
    fn register_station(
        &mut self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        self.inner.register_station(id, model_key, bits_per_value)?;
        // Re-association (e.g. after idle eviction by the inner server)
        // keeps a previously configured sounding cadence.
        let cadence = self.profiles.get(&id).map_or(1, |p| p.cadence);
        self.profiles
            .insert(id, StationProfile { model_key, cadence });
        Ok(())
    }

    fn deregister_station(&mut self, id: StationId) -> Result<(), ServeError> {
        self.inner.deregister_station(id)?;
        self.profiles.remove(&id);
        Ok(())
    }

    fn is_registered(&self, id: StationId) -> bool {
        self.inner.is_registered(id)
    }

    /// Schedules the frame through virtual time instead of ingesting it
    /// directly: sounding instant → head compute + jitter → offer to the
    /// shared medium. Medium contention resolves at round close, in offer
    /// order; the frame reaches the inner server timestamped. Frame
    /// validation therefore also surfaces at close, not here.
    fn ingest_wire(&mut self, id: StationId, frame: &[u8]) -> Result<usize, ServeError> {
        if !self.inner.is_registered(id) {
            return Err(ServeError::UnknownStation(id));
        }
        let profile = *self
            .profiles
            .get(&id)
            .ok_or(ServeError::UnknownStation(id))?;
        let latency = self
            .latencies
            .get(profile.model_key)
            .copied()
            .unwrap_or_default();
        let sound_ns = self.sound_ns(id, &profile);
        let head_ns = latency.head_ns + self.jitter.draw();
        // The report is ready `head` after its sounding instant, but cannot
        // transmit before this round polls the station; a slow-cadence
        // station's report therefore queues for whole intervals, and that age
        // counts against the Eq. 7d budget like any other queueing.
        let ready_ns = sound_ns + head_ns;
        let poll_ns = self.round * self.cfg.interval_ns() + id * self.cfg.phase_step_ns;
        let offered_ns = ready_ns.max(poll_ns);
        let mut frame = frame.to_vec();
        // Under an active fault model every transmission is sequenced (first
        // attempt = 1), so the AP can suppress injected duplicates and tell
        // retransmissions apart. Fault-free frames stay byte-verbatim — the
        // zero-fault path must remain bit-exact with the lockstep drivers.
        if self.injector.is_active() {
            wire::set_frame_seq(&mut frame, 1);
        }
        let len = frame.len();
        self.queue.schedule(
            offered_ns,
            id,
            PendingOffer {
                frame,
                ready_ns,
                head_ns,
                tail_ns: latency.tail_ns,
                attempt: 0,
            },
        );
        self.frames_scheduled += 1;
        Ok(len)
    }

    /// The driver is the stamping authority: an externally supplied stamp is
    /// ignored and the frame is scheduled through virtual time like any
    /// other.
    fn ingest_wire_at(
        &mut self,
        id: StationId,
        frame: &[u8],
        _stamp: FrameStamp,
    ) -> Result<usize, ServeError> {
        self.ingest_wire(id, frame)
    }

    /// Closes the round **at its Eq. 7d deadline**: delivers every scheduled
    /// arrival to the inner server timestamped, then runs the inner
    /// deadline-aware close, which classifies each report on-time /
    /// late-but-usable / past-budget from its stamp.
    fn close_round(&mut self, mode: ServeMode) -> Result<RoundSummary, ServeError> {
        self.close_round_deadline(mode, self.cfg.policy())
    }

    fn close_round_deadline(
        &mut self,
        mode: ServeMode,
        policy: DeadlinePolicy,
    ) -> Result<RoundSummary, ServeError> {
        // The drain never short-circuits: the round always advances and the
        // inner close always runs, so one bad frame cannot leave stale
        // arrivals queued for the next round. The first ingest error (it
        // happened before the close) takes precedence in the result.
        let streaming = mode == ServeMode::Streaming || self.cfg.streaming;
        let watermarks = streaming.then(|| {
            let step = self.cfg.watermark_step_ns();
            let start = self.round * self.cfg.interval_ns();
            (WatermarkClock::new(start + step, step), policy)
        });
        let ingest_error = self.deliver_arrivals(watermarks);
        self.round += 1;
        let closed = if streaming {
            self.inner.finalize_stream_round(Some(policy))
        } else {
            self.inner.close_round_deadline(mode, policy)
        };
        match ingest_error {
            Some(e) => Err(e),
            None => closed.map(|mut summary| {
                summary.lost = self.round_lost;
                summary.retransmitted = self.round_retransmitted;
                summary
            }),
        }
    }

    fn evicted_in_last_round(&self) -> usize {
        self.inner.evicted_in_last_round()
    }

    fn feedback_of(&self, id: StationId) -> Option<&[f32]> {
        self.inner.feedback_of(id)
    }
}

/// Builds an event driver over an [`ApServer`] with `num_shards` session
/// shards, `model` registered, stations `0..stations` associated at
/// `bits_per_value` bits, and the model's compute latency drawn from `accel`
/// (zero when `None` — the lockstep degenerate case). The event clock is
/// global; the round close fans out per shard.
///
/// # Panics
/// Panics on invalid `bits_per_value` (registration is infallible otherwise).
pub fn build_event_driver(
    model: SplitBeamModel,
    stations: usize,
    bits_per_value: u8,
    num_shards: usize,
    cfg: EventConfig,
    accel: Option<&AcceleratorModel>,
) -> EventDriver<ApServer> {
    let mut server = ApServer::with_shards(num_shards);
    let key = server.register_model(model.clone());
    let mut driver = EventDriver::over(server, cfg);
    let (head_s, tail_s) = accel.map_or((0.0, 0.0), |accel| {
        let latency = accel.split_latency_from_config(model.config());
        (latency.head_s, latency.tail_s)
    });
    driver.bind_model_latency(key, head_s, tail_s);
    for id in 0..stations as StationId {
        driver
            .register_station(id, key, bits_per_value)
            .expect("fresh server accepts fleet registration");
    }
    driver
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{build_server, generate_traffic, serve_traffic, SimConfig};
    use crate::timing::FrameClass;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use splitbeam::config::{CompressionLevel, SplitBeamConfig};
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

    #[test]
    fn lockstep_event_driver_matches_legacy_server() {
        let m = model(1);
        let cfg = SimConfig {
            stations: 5,
            rounds: 3,
            bits_per_value: 4,
            drop_every: 4,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        let mut legacy = build_server(m.clone(), cfg.stations, cfg.bits_per_value, 1);
        let mut event = build_event_driver(
            m,
            cfg.stations,
            cfg.bits_per_value,
            1,
            EventConfig::lockstep(),
            None,
        );
        let want = serve_traffic(&mut legacy, &traffic, ServeMode::Batched).unwrap();
        let got = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
        assert_eq!(got, want, "zero-delay event serving must equal lockstep");
        for id in 0..cfg.stations as StationId {
            assert_eq!(event.feedback_of(id), legacy.feedback_of(id));
        }
        for summary in &got.summaries {
            assert_eq!(summary.late, 0);
            assert_eq!(summary.expired, 0);
            assert_eq!(summary.on_time, summary.served);
            assert_eq!(summary.delay.total_ns(), 0);
        }
    }

    #[test]
    fn medium_contention_produces_queueing_delay() {
        let m = model(3);
        let cfg = SimConfig {
            stations: 6,
            rounds: 2,
            bits_per_value: 8,
            drop_every: 0,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        // Real medium, no jitter, no compute latency: all six stations offer
        // their frames at the round start and must serialize.
        let mut event = build_event_driver(
            m,
            cfg.stations,
            cfg.bits_per_value,
            1,
            EventConfig {
                feedback_rate_mbps: Some(24.0),
                ..EventConfig::lockstep()
            },
            None,
        );
        let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
        assert!(event.medium().total_wait_ns() > 0, "stations must contend");
        assert!(event.medium().total_air_ns() > 0);
        let round0 = &outcome.summaries[0];
        assert!(
            round0.delay.queue_ns > 0,
            "queueing must surface in summary"
        );
        assert!(round0.delay.air_ns > 0);
        assert_eq!(round0.delay.head_ns, 0, "no compute latency configured");
        // The last of six serialized frames waited ~5 frame times.
        assert!(round0.delay.worst_e2e_ns > 5 * event.medium().frame_airtime_ns(0));
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let m = model(5);
        let cfg = SimConfig {
            stations: 4,
            rounds: 3,
            bits_per_value: 6,
            drop_every: 5,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        let event_cfg = EventConfig {
            jitter_max_ns: 800_000,
            seed: 99,
            feedback_rate_mbps: Some(24.0),
            phase_step_ns: 10_000,
            ..EventConfig::lockstep()
        };
        let accel = AcceleratorModel::zynq_200mhz(2, 2);
        let run = |m: SplitBeamModel| {
            let mut d = build_event_driver(
                m,
                cfg.stations,
                cfg.bits_per_value,
                1,
                event_cfg,
                Some(&accel),
            );
            let outcome = serve_traffic(&mut d, &traffic, ServeMode::Batched).unwrap();
            (outcome, d.virtual_now_ns(), d.medium().total_wait_ns())
        };
        let a = run(m.clone());
        let b = run(m);
        assert_eq!(a, b, "same seed must reproduce the run exactly");
    }

    #[test]
    fn lossy_medium_retransmits_and_recovers() {
        let m = model(9);
        let cfg = SimConfig {
            stations: 4,
            rounds: 6,
            bits_per_value: 6,
            drop_every: 0,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        let event_cfg = EventConfig {
            feedback_rate_mbps: Some(24.0),
            seed: 77,
            faults: FaultConfig {
                loss: 0.3,
                ..FaultConfig::none()
            },
            max_retries: 2,
            retry_backoff_ns: 50_000,
            ..EventConfig::lockstep()
        };
        let mut event = build_event_driver(m, cfg.stations, cfg.bits_per_value, 1, event_cfg, None);
        let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();

        let stats = event.fault_stats();
        assert!(stats.lost > 0, "a 30% lossy plan must actually drop frames");
        let lost: usize = outcome.summaries.iter().map(|s| s.lost).sum();
        let retx: usize = outcome.summaries.iter().map(|s| s.retransmitted).sum();
        // Loss and retry bookkeeping both happen at medium-grant time, so the
        // per-round summaries must agree with the injector's own tally.
        assert_eq!(lost, stats.lost as usize);
        assert!(retx > 0, "losses within budget must trigger retransmission");
        assert!(retx <= lost, "every retry is provoked by a failed delivery");
        // Retries are re-offered to the injector, so the offered count exceeds
        // the original traffic volume by exactly the retransmissions drained.
        assert_eq!(stats.offered as usize, traffic.total_frames() + retx);
        // Bounded retransmission recovers most of the lost frames: far more
        // reports land than the no-retry expectation of ~70%.
        let expected_no_retry = traffic.total_frames() as f64 * (1.0 - 0.3);
        assert!(
            outcome.total_served() as f64 > expected_no_retry,
            "served {} vs no-retry expectation {expected_no_retry:.1}",
            outcome.total_served()
        );
        // Same seed, same fault plan: the run replays bit-exactly.
        let mut replay = build_event_driver(
            model(9),
            cfg.stations,
            cfg.bits_per_value,
            1,
            event_cfg,
            None,
        );
        let again = serve_traffic(&mut replay, &traffic, ServeMode::Batched).unwrap();
        assert_eq!(again, outcome, "fault plans must be replayable");
        assert_eq!(replay.fault_stats(), stats);
    }

    #[test]
    fn hopeless_retries_are_abandoned_within_the_deadline_budget() {
        let m = model(11);
        let cfg = SimConfig {
            stations: 2,
            rounds: 3,
            bits_per_value: 4,
            drop_every: 0,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        // Certain loss with a backoff far beyond the 10 ms round budget: every
        // frame is lost and no retry can possibly land in time, so the driver
        // must give up instead of scheduling doomed transmissions.
        let event_cfg = EventConfig {
            feedback_rate_mbps: Some(24.0),
            seed: 13,
            faults: FaultConfig {
                loss: 1.0,
                ..FaultConfig::none()
            },
            max_retries: 8,
            retry_backoff_ns: s_to_ns(0.05),
            ..EventConfig::lockstep()
        };
        let mut event = build_event_driver(m, cfg.stations, cfg.bits_per_value, 1, event_cfg, None);
        let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
        assert_eq!(
            outcome.total_served(),
            0,
            "nothing can survive certain loss"
        );
        let retx: usize = outcome.summaries.iter().map(|s| s.retransmitted).sum();
        assert_eq!(retx, 0, "retries that cannot meet Eq. 7d must not launch");
        assert_eq!(
            event.fault_stats().offered as usize,
            traffic.total_frames(),
            "only the original transmissions touch the medium"
        );
    }

    #[test]
    fn slow_cadence_station_report_ages_into_lateness() {
        let m = model(7);
        let cfg = SimConfig {
            stations: 2,
            rounds: 4,
            bits_per_value: 4,
            drop_every: 0,
            ..SimConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let traffic = generate_traffic(&cfg, &m, &mut rng);
        let mut event = build_event_driver(
            m,
            cfg.stations,
            cfg.bits_per_value,
            1,
            EventConfig::lockstep(),
            None,
        );
        // Station 1 sounds every 4th round: its round-1/2/3 reports carry
        // round-0 CSI aged by one, two and three full 10 ms intervals.
        event.set_cadence(1, 4);
        let outcome = serve_traffic(&mut event, &traffic, ServeMode::Batched).unwrap();
        // Round 1: the report is exactly one interval old — dead on the
        // 10 ms Eq. 7d budget, and the boundary is inclusive -> on time.
        assert_eq!(outcome.summaries[1].on_time, 2);
        assert_eq!(outcome.summaries[1].delay.worst_e2e_ns, s_to_ns(0.01));
        // Round 2: two intervals old -> past budget, on the grace edge
        // (inclusive) -> late-but-usable, served but never counted fresh.
        assert_eq!(outcome.summaries[2].late, 1);
        assert_eq!(outcome.summaries[2].on_time, 1);
        assert_eq!(outcome.summaries[2].served, 2);
        // Round 3: three intervals old -> past budget and grace -> expired,
        // consumed without reconstruction.
        assert_eq!(outcome.summaries[3].expired, 1);
        assert_eq!(outcome.summaries[3].served, 1);
        assert_eq!(outcome.summaries[3].on_time, 1);
        let policy = event.config().policy();
        assert_eq!(policy.classify(s_to_ns(0.01)), FrameClass::OnTime);
    }
}
