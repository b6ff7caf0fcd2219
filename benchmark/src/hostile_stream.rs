//! `hostile_stream`: the same serving layers used differently.
//!
//! 16 stations at 3x3/80 MHz with join and leave churn, an `EventDriver`
//! over a 2-shard `ShardedApServer` with int8 tail weights, a 96 Mbit/s
//! medium with 200 µs jitter, loss 0.10, corruption 0.05 and duplication
//! 0.05, two retries at 100 µs backoff, and streaming micro-closes on 2.5 ms
//! watermarks. Many small micro-batches replace one big batch, and the
//! CRC-reject, duplicate-suppress and retransmission paths carry load.
//!
//! The timed window replays one seeded episode of traffic again and again,
//! each time through a fresh copy of the driver built in set-up, so every
//! episode's virtual-time outcome must repeat exactly.

use crate::common::{self, Report, RunArgs, Window, Workload, BITS};
use crate::stats::{Digest, Series};
use crate::trace::{self, Layer};
use mimo_math::CMatrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use splitbeam::fused::{QuantizedTail, TailWeights};
use splitbeam::model::SplitBeamModel;
use splitbeam_hwsim::{AcceleratorModel, DelayBudget, FaultConfig};
use splitbeam_serve::driver::{RoundServing, ServeMode, StreamServing};
use splitbeam_serve::{
    DeadlinePolicy, EventConfig, EventDriver, FrameStamp, RoundSummary, ServeError,
    ShardedApServer, StationId,
};
use std::collections::BTreeMap;
use std::time::Instant;
use wifi_phy::link::LinkReport;
use wifi_phy::ofdm::Bandwidth;
use wifi_phy::sounding::SoundingConfig;

const STATIONS: usize = 16;
const SHARDS: usize = 2;
/// Rounds of traffic in one episode.
const EPISODE: usize = 96;
/// Rounds of the warm-up episode the link check runs over.
const LINK_ROUNDS: usize = 48;
/// Churn: a station joins every `JOIN_EVERY` rounds and the oldest leaves
/// every `LEAVE_EVERY` rounds.
const JOIN_EVERY: usize = 4;
const LEAVE_EVERY: usize = 6;

/// One round of station traffic: churn first, then every active station's
/// frame, and (in the rounds the link check covers) the channel it sounded.
struct TrafficRound {
    joins: Vec<StationId>,
    leaves: Vec<StationId>,
    frames: Vec<(StationId, Vec<u8>)>,
    csi: BTreeMap<StationId, Vec<CMatrix>>,
}

/// Outcomes of the server's ingest calls, as the driver saw them. The
/// serving crate counts CRC rejections itself; duplicate suppressions,
/// header (codec) rejections, quarantine and backpressure rejections are
/// only visible as return values, so they are counted here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounts {
    pub calls: u64,
    pub accepted: u64,
    pub corrupt: u64,
    pub codec: u64,
    pub duplicate: u64,
    pub quarantined: u64,
    pub backpressure: u64,
    pub other: u64,
}

/// The sharded server, with its ingest outcomes counted and its calls
/// traced as children of the driver's spans.
#[derive(Debug, Clone)]
pub struct Observed {
    pub server: ShardedApServer,
    pub counts: IngestCounts,
}

impl RoundServing for Observed {
    fn register_station(
        &mut self,
        id: StationId,
        model_key: usize,
        bits_per_value: u8,
    ) -> Result<(), ServeError> {
        self.server.register_station(id, model_key, bits_per_value)
    }

    fn deregister_station(&mut self, id: StationId) -> Result<(), ServeError> {
        self.server.deregister_station(id)
    }

    fn is_registered(&self, id: StationId) -> bool {
        self.server.session(id).is_some()
    }

    fn ingest_wire(&mut self, id: StationId, frame: &[u8]) -> Result<usize, ServeError> {
        self.ingest_wire_at(id, frame, FrameStamp::default())
    }

    fn ingest_wire_at(
        &mut self,
        id: StationId,
        frame: &[u8],
        stamp: FrameStamp,
    ) -> Result<usize, ServeError> {
        let res = trace::span(Layer::ApIngest, || {
            self.server.ingest_wire_at(id, frame, stamp)
        });
        let c = &mut self.counts;
        c.calls += 1;
        match &res {
            Ok(_) => c.accepted += 1,
            Err(ServeError::Corrupt(..)) => c.corrupt += 1,
            Err(ServeError::Codec(_)) => c.codec += 1,
            Err(ServeError::DuplicateFrame(..)) => c.duplicate += 1,
            Err(ServeError::Quarantined(_)) => c.quarantined += 1,
            Err(ServeError::Backpressure(..)) => c.backpressure += 1,
            Err(_) => c.other += 1,
        }
        res
    }

    fn close_round(&mut self, mode: ServeMode) -> Result<RoundSummary, ServeError> {
        self.close_round_deadline(mode, DeadlinePolicy::eq7d())
    }

    fn close_round_deadline(
        &mut self,
        mode: ServeMode,
        policy: DeadlinePolicy,
    ) -> Result<RoundSummary, ServeError> {
        assert_eq!(mode, ServeMode::Streaming, "the workload only streams");
        self.finalize_stream_round(Some(policy))
    }

    fn feedback_of(&self, id: StationId) -> Option<&[f32]> {
        self.server.feedback_of(id)
    }
}

impl StreamServing for Observed {
    fn set_streaming(&mut self, on: bool) {
        self.server.set_streaming(on);
    }

    fn advance_watermark(
        &mut self,
        watermark_ns: u64,
        step_ns: u64,
        policy: Option<DeadlinePolicy>,
    ) {
        trace::span(Layer::ApMicroClose, || {
            self.server.advance_watermark(watermark_ns, step_ns, policy)
        });
    }

    fn finalize_stream_round(
        &mut self,
        policy: Option<DeadlinePolicy>,
    ) -> Result<RoundSummary, ServeError> {
        trace::span(Layer::ApClose, || self.server.finalize_stream_round(policy))
            .map(|s| s.as_round_summary())
    }
}

/// What one replayed episode produced; identical for every episode of a run.
#[derive(Debug, Clone, PartialEq)]
struct Episode {
    digest: u64,
    summaries: Vec<RoundSummary>,
    micro_closes: u64,
    /// Virtual delay of every delivered report, including expired ones.
    virtual_ns: Vec<u64>,
    frames_scheduled: u64,
    faults: splitbeam_hwsim::FaultStats,
    counts: IngestCounts,
    air_ns: u64,
    wait_ns: u64,
}

pub struct HostileStream {
    model: SplitBeamModel,
    traffic: Vec<TrafficRound>,
    /// Station-side host time of the set-up's frames, in µs; `main` merges
    /// the series of every set-up into the last one's.
    station_us: Series,
    template: EventDriver<Observed>,
    int8_weight_bytes: usize,
}

fn event_config(seed: u64) -> EventConfig {
    EventConfig {
        interval_s: 0.01,
        budget: DelayBudget::default(),
        grace_s: 0.01,
        jitter_max_ns: 200_000,
        seed,
        phase_step_ns: 0,
        feedback_rate_mbps: Some(SoundingConfig::new(Bandwidth::Mhz80, 3).feedback_rate_mbps),
        faults: FaultConfig {
            loss: 0.10,
            corrupt: 0.05,
            duplicate: 0.05,
            ..FaultConfig::none()
        },
        max_retries: 2,
        retry_backoff_ns: 100_000,
        streaming: true,
        watermark_ns: 2_500_000,
    }
}

impl Workload for HostileStream {
    fn build(seed: u64, parts: &mut Vec<(&'static str, f64)>) -> Self {
        let config = common::splitbeam_config(3, Bandwidth::Mhz80);
        let t = Instant::now();
        let model = common::train(&config, common::TRAIN_SEED, 4, 20, 3);
        parts.push(("train", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut station_us = Series::default();
        let mut active: Vec<StationId> = (0..STATIONS as StationId).collect();
        let mut next_id = STATIONS as StationId;
        let traffic = (0..EPISODE)
            .map(|r| {
                let mut round = TrafficRound {
                    joins: Vec::new(),
                    leaves: Vec::new(),
                    frames: Vec::new(),
                    csi: BTreeMap::new(),
                };
                if r > 0 && r % JOIN_EVERY == 0 {
                    round.joins.push(next_id);
                    active.push(next_id);
                    next_id += 1;
                }
                if r > 0 && r % LEAVE_EVERY == 0 && active.len() > 1 {
                    round.leaves.push(active.remove(0));
                }
                for (&id, csi) in
                    active
                        .iter()
                        .zip(common::csi_pool(&config, active.len(), &mut rng))
                {
                    let (frame, us) = common::timed_station_frame(&model, &csi);
                    station_us.push(0, us);
                    round.frames.push((id, frame));
                    if r < LINK_ROUNDS {
                        round.csi.insert(id, csi.matrices);
                    }
                }
                round
            })
            .collect();
        parts.push(("traffic", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let mut server = ShardedApServer::new(SHARDS);
        server.set_tail_weights(TailWeights::Int8);
        let key = server.register_model(model.clone());
        let int8_weight_bytes = QuantizedTail::bind(&model).weight_bytes();
        let observed = Observed {
            server,
            counts: IngestCounts::default(),
        };
        let mut template = EventDriver::over(observed, event_config(seed));
        let latency = AcceleratorModel::zynq_200mhz(3, 3).split_latency_from_config(&config);
        template.bind_model_latency(key, latency.head_s, latency.tail_s);
        for id in 0..STATIONS as StationId {
            template
                .register_station(id, key, BITS)
                .expect("fresh server accepts the stations");
        }
        parts.push(("server", t.elapsed().as_secs_f64()));
        Self {
            model,
            traffic,
            station_us,
            template,
            int8_weight_bytes,
        }
    }

    fn run(self, args: &RunArgs) -> Report {
        let mut report = Report::default();
        let mut window = Window::new(args, EPISODE, EPISODE);
        let mut round_ms = Series::default();
        // The warm-up episode is the reference every later one must repeat.
        let mut first: Option<Episode> = None;
        let mut episodes = 0usize;
        let mut repeats = true;
        let mut errors = 0u64;
        let mut timed_rounds = 0u64;
        let mut attempted = 0u64;
        let partial: Episode;
        let mut link = LinkReport::empty();
        // One untimed warm-up episode, then episodes until the window closes.
        let mut warm = true;
        'run: loop {
            let mut driver = self.template.clone();
            let mut episode = Episode {
                digest: 0,
                summaries: Vec::with_capacity(EPISODE),
                micro_closes: 0,
                virtual_ns: Vec::new(),
                frames_scheduled: 0,
                faults: Default::default(),
                counts: IngestCounts::default(),
                air_ns: 0,
                wait_ns: 0,
            };
            for (r, round) in self.traffic.iter().enumerate() {
                let traced = if warm {
                    false
                } else {
                    match window.next() {
                        Some(t) => t,
                        None => {
                            partial = Self::finish(&driver, episode);
                            break 'run;
                        }
                    }
                };
                trace::set_enabled(traced);
                let token = trace::begin(Layer::Round);
                let t0 = Instant::now();
                for &id in &round.joins {
                    errors += u64::from(driver.register_station(id, 0, BITS).is_err());
                }
                for &id in &round.leaves {
                    errors += u64::from(driver.deregister_station(id).is_err());
                }
                let t1 = Instant::now();
                for (id, frame) in &round.frames {
                    let res = trace::span(Layer::EventIngest, || driver.ingest_wire(*id, frame));
                    errors += u64::from(res.is_err());
                }
                let reports = round.frames.len() as u64;
                let summary = trace::span(Layer::EventClose, || {
                    driver.close_round(ServeMode::Streaming)
                });
                let t2 = Instant::now();
                trace::end(token);
                episode.micro_closes += driver
                    .inner()
                    .server
                    .shard_round_stats()
                    .iter()
                    .map(|s| s.micro_closes as u64)
                    .sum::<u64>();
                episode
                    .virtual_ns
                    .extend(driver.last_round_stamps().iter().map(|(_, s)| s.total_ns()));
                match summary {
                    Ok(s) => episode.summaries.push(s),
                    Err(_) => errors += 1,
                }
                if warm {
                    if r < LINK_ROUNDS {
                        link.merge(&self.link_check(&driver, round, args.seed ^ r as u64));
                    }
                } else {
                    if !traced {
                        round_ms.push(window.block(), (t2 - t1).as_secs_f64() * 1e3);
                    }
                    window.record(r, t2 - t0, reports);
                    timed_rounds += 1;
                    attempted += reports;
                }
            }
            let done = Self::finish(&driver, episode);
            match &first {
                Some(f) => repeats &= *f == done,
                None => first = Some(done),
            }
            episodes += 1;
            warm = false;
        }
        trace::set_enabled(false);

        // Every complete episode (the warm-up one included) replays
        // identically; the partial one must conserve frames like any other.
        let first = first.expect("the warm-up episode completes");
        report.check(
            "every complete episode repeats exactly (digest, summaries, stamps, counters)",
            repeats,
        );
        report.check("no serving call failed", errors == 0);
        for (label, e) in [("episode", &first), ("final partial episode", &partial)] {
            for (name, ok) in conservation(e) {
                report.check(format!("{label}: {name}"), ok);
            }
        }

        let per_episode = summed(&first.summaries);
        let reports = first.frames_scheduled;
        report.attempted = attempted;
        report.failed = errors;
        report.digest = first.digest;
        report.e2e("reports_per_s", window.untraced_rate(), "1/s");
        report.host_timing_with_tail("round_ms", &round_ms, "ms");
        report.host_timing("station_report_us", &self.station_us, "us");
        report.e2e(
            "deadline_hit_rate",
            per_episode.on_time as f64 / reports as f64,
            "ratio",
        );
        let virtual_ms = Series::of(first.virtual_ns.iter().map(|&ns| ns as f64 / 1e6));
        report.virtual_timing("virtual_delay_ms", &virtual_ms, "ms");
        report.e2e(
            "served_share",
            per_episode.served as f64 / reports as f64,
            "ratio",
        );
        report.e2e("ber", link.ber(), "ratio");
        report.e2e(
            "wire_bytes_per_report",
            {
                let frames = self.traffic.iter().flat_map(|r| &r.frames);
                let (bytes, count) = frames.fold((0, 0), |(b, c), (_, f)| (b + f.len(), c + 1));
                bytes as f64 / count as f64
            },
            "B",
        );
        let c = first.counts;
        report.note(format!(
            "rounds {timed_rounds} (+{EPISODE} warm-up), {} complete episodes of {EPISODE}; per episode: \
             reports attempted {reports}, served {} (on time {}, late {}), failed {} \
             (expired {}, never accepted {})",
            episodes - 1,
            per_episode.served,
            per_episode.on_time,
            per_episode.late,
            reports - per_episode.served as u64,
            per_episode.expired,
            reports - c.accepted,
        ));
        report.note(format!(
            "per episode transmissions {} = first {} + retries {}; lost {}, CRC-rejected {}, \
             header-rejected {}, duplicates suppressed {}, quarantined {}, backpressured {}",
            first.faults.offered,
            first.frames_scheduled,
            per_episode.retransmitted,
            first.faults.lost,
            c.corrupt,
            c.codec,
            c.duplicate,
            c.quarantined,
            c.backpressure
        ));
        report.note(
            "station_report_us: the set-up encode of the episode's traffic (frames are pre-encoded)",
        );
        report.note(format!(
            "link check over the warm-up episode's first {LINK_ROUNDS} rounds: {} payload bits",
            link.per_user_bits.iter().sum::<usize>()
        ));

        let rounds = EPISODE as f64;
        report.layer(
            "ap.reports_per_batch",
            per_episode.served as f64 / per_episode.batches as f64,
            "count",
        );
        report.layer(
            "tail.weight_bytes_per_report",
            per_episode.batches as f64 * self.int8_weight_bytes as f64 / per_episode.served as f64,
            "B",
        );
        report.layer(
            "ap.micro_closes_per_round",
            first.micro_closes as f64 / rounds,
            "count",
        );
        report.layer(
            "medium.air_ms_per_round",
            first.air_ns as f64 / 1e6 / rounds,
            "ms",
        );
        report.layer(
            "medium.wait_ms_per_round",
            first.wait_ns as f64 / 1e6 / rounds,
            "ms",
        );
        report.layer(
            "fault.lost_per_round",
            first.faults.lost as f64 / rounds,
            "count",
        );
        report.layer(
            "fault.corrupt_per_round",
            first.faults.corrupted as f64 / rounds,
            "count",
        );
        report.layer(
            "fault.duplicate_per_round",
            first.faults.duplicated as f64 / rounds,
            "count",
        );
        report.layer(
            "event.retransmits_per_round",
            per_episode.retransmitted as f64 / rounds,
            "count",
        );
        report.layer(
            "event.scheduled_per_report",
            first.faults.offered as f64 / reports as f64,
            "count",
        );
        report.set_rates(&window);
        report
    }

    fn setup_station_us(&mut self) -> Option<&mut Series> {
        Some(&mut self.station_us)
    }
}

impl HostileStream {
    /// Collects an episode's end state and digest.
    fn finish(driver: &EventDriver<Observed>, mut episode: Episode) -> Episode {
        let server = &driver.inner().server;
        episode.frames_scheduled = driver.frames_scheduled();
        episode.faults = driver.fault_stats();
        episode.counts = driver.inner().counts;
        episode.air_ns = driver.medium().total_air_ns();
        episode.wait_ns = driver.medium().total_wait_ns();
        let mut d = Digest::default();
        for id in server.station_ids() {
            d.u64(id);
            if let Some(fb) = server.feedback_of(id) {
                d.f32s(fb);
            }
        }
        for s in &episode.summaries {
            d.bytes(format!("{s:?}").as_bytes());
        }
        episode.digest = d.finish();
        episode
    }

    /// Link check over the stations served in the round just closed: they
    /// hold feedback of the channel they sounded in it. They are grouped
    /// like the AP's MU-MIMO grouping, `Nt / Nss` stations in id order.
    fn link_check(
        &self,
        driver: &EventDriver<Observed>,
        round: &TrafficRound,
        seed: u64,
    ) -> LinkReport {
        let server = &driver.inner().server;
        let mimo = self.model.config().mimo;
        let groups: Vec<Vec<StationId>> = server
            .fresh_station_ids(0)
            .chunks(mimo.nt / mimo.nss)
            .map(<[StationId]>::to_vec)
            .collect();
        common::link_check(
            &groups,
            Bandwidth::Mhz80,
            mimo.nss,
            |g| {
                g.iter()
                    .map(|&id| {
                        self.model
                            .feedback_to_matrices(server.feedback_of(id).expect("fresh"))
                            .expect("served feedback has the model's shape")
                    })
                    .collect()
            },
            |id| round.csi[&id].clone(),
            seed,
        )
    }
}

/// Round summaries added up field by field.
fn summed(summaries: &[RoundSummary]) -> RoundSummary {
    let zero = RoundSummary {
        round: 0,
        served: 0,
        stale: 0,
        awaiting_first_report: 0,
        batches: 0,
        on_time: 0,
        late: 0,
        expired: 0,
        delay: Default::default(),
        lost: 0,
        corrupt: 0,
        retransmitted: 0,
        stale_served: 0,
    };
    summaries.iter().fold(zero, |mut acc, s| {
        acc.served += s.served;
        acc.on_time += s.on_time;
        acc.late += s.late;
        acc.expired += s.expired;
        acc.batches += s.batches;
        acc.lost += s.lost;
        acc.corrupt += s.corrupt;
        acc.retransmitted += s.retransmitted;
        acc
    })
}

/// Frame conservation over one episode. Library counters: transmissions and
/// losses (fault injector), first transmissions (driver), retries, served,
/// expired and CRC rejections (round summaries). The ingest outcomes the
/// library does not count come from [`Observed`].
fn conservation(e: &Episode) -> Vec<(&'static str, bool)> {
    let s = summed(&e.summaries);
    let c = e.counts;
    let transmissions = e.faults.offered;
    // Each delivered transmission is ingested once, or twice when the medium
    // duplicated it (a corrupted duplicate is ingested once).
    let delivered = transmissions - e.faults.lost;
    let copies = c.calls.saturating_sub(delivered);
    let rejected = c.corrupt + c.codec + c.quarantined + c.backpressure + c.other;
    vec![
        (
            "transmissions = first transmissions + retries",
            transmissions == e.frames_scheduled + s.retransmitted as u64,
        ),
        (
            "lost frames agree (injector vs summaries)",
            e.faults.lost == s.lost as u64,
        ),
        (
            "ingest calls = delivered + duplicate copies (copies <= duplicated)",
            c.calls >= delivered && copies <= e.faults.duplicated,
        ),
        (
            "accepted = served + expired",
            c.accepted == (s.served + s.expired) as u64,
        ),
        (
            "CRC rejections agree (server vs ingest results)",
            c.corrupt == s.corrupt as u64,
        ),
        ("served = on time + late", s.served == s.on_time + s.late),
        (
            "offered = served + expired + lost + rejected + suppressed duplicates",
            transmissions + copies
                == (s.served + s.expired) as u64 + e.faults.lost + rejected + c.duplicate,
        ),
        (
            "no backpressure or unexpected ingest error",
            c.backpressure == 0 && c.other == 0,
        ),
    ]
}
