//! The load generator: one thread submits through the public `pim-serve`
//! API and harvests every ticket as it completes.
//!
//! Two phases share it. The closed-loop phase keeps a fixed window of
//! requests outstanding so the server never idles, and reports completed
//! samples per second. The paced phase sends a seeded Poisson stream at a
//! fixed rate and times each request from the moment it was due, so a slow
//! generator shows up as latency instead of hiding it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use capsnet::MathBackend;
use pim_serve::{
    ReplicaSetHandle, ReplicaTicket, Request, Response, ServeError, ServerHandle, SubmitError,
    Ticket,
};

/// A serve front door the generator can drive: one server or a replica pool.
pub trait Target {
    /// The ticket a successful submit returns.
    type Ticket;
    /// Submits one request.
    fn submit(&self, request: Request) -> Result<Self::Ticket, SubmitError>;
    /// Takes the outcome if the ticket has resolved, else hands it back.
    fn try_take(ticket: Self::Ticket) -> Result<Result<Response, ServeError>, Self::Ticket>;
    /// Blocks until the ticket resolves.
    fn wait(ticket: Self::Ticket) -> Result<Response, ServeError>;
    /// The replica that holds the ticket (0 for a single server).
    fn replica(ticket: &Self::Ticket) -> usize;
}

impl<B: MathBackend + Sync + ?Sized> Target for ServerHandle<'_, '_, B> {
    type Ticket = Ticket;

    fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        ServerHandle::submit(self, request)
    }

    fn try_take(ticket: Ticket) -> Result<Result<Response, ServeError>, Ticket> {
        // A deadline of "now" consumes a ready outcome without blocking.
        match ticket.wait_until(Instant::now()) {
            Some(outcome) => Ok(outcome),
            None => Err(ticket),
        }
    }

    fn wait(ticket: Ticket) -> Result<Response, ServeError> {
        ticket.wait()
    }

    fn replica(_: &Ticket) -> usize {
        0
    }
}

impl Target for ReplicaSetHandle<'_> {
    type Ticket = ReplicaTicket;

    fn submit(&self, request: Request) -> Result<ReplicaTicket, SubmitError> {
        ReplicaSetHandle::submit(self, request)
    }

    fn try_take(ticket: ReplicaTicket) -> Result<Result<Response, ServeError>, ReplicaTicket> {
        // `wait` on a resolved ticket returns at once and feeds the
        // replica's health ledger, as a caller's wait would.
        if ticket.try_wait().is_some() {
            Ok(ticket.wait())
        } else {
            Err(ticket)
        }
    }

    fn wait(ticket: ReplicaTicket) -> Result<Response, ServeError> {
        ticket.wait()
    }

    fn replica(ticket: &ReplicaTicket) -> usize {
        ticket.replica()
    }
}

/// One request the generator will send: its content id and the request.
pub struct Planned {
    /// Content id (the verifier regenerates the input from it).
    pub id: u64,
    /// The request itself.
    pub request: Request,
}

/// One harvested ticket.
pub struct Completion {
    /// Content id of the request.
    pub id: u64,
    /// Replica that served it.
    pub replica: usize,
    /// The response or the serve error.
    pub outcome: Result<Response, ServeError>,
}

/// What one phase did, for the run's ledger and its metrics.
#[derive(Default)]
pub struct PhaseStats {
    /// Submit calls made.
    pub attempted: u64,
    /// Submits refused (reject, shed, queue full, shutdown).
    pub refused: u64,
    /// Tickets that resolved with a response.
    pub completed: u64,
    /// Tickets that resolved with an error.
    pub errored: u64,
    /// Tickets accepted but never harvested (always 0 unless a ticket is
    /// deliberately dropped).
    pub dropped: u64,
    /// Closed loop only: median samples per second over completion groups.
    pub throughput_sps: f64,
    /// Closed loop only: how many groups that median is over.
    pub throughput_groups: usize,
    /// Paced only: per-request latency from due time to observed
    /// completion, milliseconds, grouped by the slot the request was due in.
    pub latency_ms: Vec<Vec<f32>>,
    /// Traced paced phase only: how late each request was sent, ms.
    pub lateness_ms: Vec<f32>,
    /// Traced only: time spent inside `submit`, microseconds.
    pub submit_us: Vec<f32>,
    /// Traced only: `queue_us` of each dispatched response, ms.
    pub queue_ms: Vec<f32>,
    /// Traced only: `service_us` of each dispatched response, ms.
    pub service_ms: Vec<f32>,
    /// `occupancy[s]`: dispatched batches of `s` samples whose first rider
    /// was harvested in this phase.
    pub occupancy: Vec<u64>,
    /// Harvested requests per replica.
    pub per_replica: Vec<u64>,
}

impl PhaseStats {
    /// Failed operations: refusals, errors and lost tickets.
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.dropped
    }

    fn record(&mut self, done: &Completion, traced: bool) {
        if self.per_replica.len() <= done.replica {
            self.per_replica.resize(done.replica + 1, 0);
        }
        self.per_replica[done.replica] += 1;
        match &done.outcome {
            Ok(r) => {
                self.completed += 1;
                let dispatched = !is_cache_hit(r);
                if dispatched && r.batch_offset == 0 {
                    if self.occupancy.len() <= r.batch_samples {
                        self.occupancy.resize(r.batch_samples + 1, 0);
                    }
                    self.occupancy[r.batch_samples] += 1;
                }
                if traced && dispatched {
                    self.queue_ms.push(r.queue_us as f32 / 1e3);
                    self.service_ms.push(r.service_us as f32 / 1e3);
                }
            }
            Err(_) => self.errored += 1,
        }
    }

    /// Median dispatched batch size (0 when nothing was dispatched).
    pub fn median_batch(&self) -> usize {
        let total: u64 = self.occupancy.iter().sum();
        let mut seen = 0;
        for (size, &n) in self.occupancy.iter().enumerate() {
            seen += n;
            if total > 0 && 2 * seen >= total {
                return size;
            }
        }
        0
    }

    /// Mean dispatched batch size and the number of batches.
    pub fn occupancy_mean(&self) -> (f64, u64) {
        let batches: u64 = self.occupancy.iter().sum();
        let samples: u64 = self
            .occupancy
            .iter()
            .enumerate()
            .map(|(s, &n)| s as u64 * n)
            .sum();
        (samples as f64 / batches.max(1) as f64, batches)
    }
}

/// `true` for a response the cache answered: it rode no batch, so it
/// reports zero placement and timing. Batch 0 of every serve window is the
/// warm-up batch, so a measured dispatch never matches.
pub fn is_cache_hit(r: &Response) -> bool {
    r.batch_seq == 0 && r.queue_us == 0 && r.service_us == 0
}

/// Submits one request, timing the call when traced.
fn submit_one<T: Target>(
    target: &T,
    planned: Planned,
    stats: &mut PhaseStats,
    traced: bool,
) -> Option<(u64, T::Ticket)> {
    stats.attempted += 1;
    let t0 = traced.then(Instant::now);
    let result = target.submit(planned.request);
    if let Some(t0) = t0 {
        stats.submit_us.push(t0.elapsed().as_secs_f32() * 1e6);
    }
    match result {
        Ok(ticket) => Some((planned.id, ticket)),
        Err(e) => {
            if stats.refused < 3 {
                eprintln!("perfbench: submit refused: {e}");
            }
            stats.refused += 1;
            None
        }
    }
}

/// Closed loop: keeps `window` requests outstanding for `duration`, then
/// stops sending and drains. Throughput counts only completions seen
/// inside the phase, cut into groups of at least `group` samples that
/// start and end on a completion, so a batch never straddles a boundary.
/// The figure is the median of the groups' rates: a stall on a shared host
/// slows one group instead of the whole phase.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<T: Target>(
    target: &T,
    window: usize,
    duration: Duration,
    group: u64,
    poll: Poll,
    traced: bool,
    next: &mut dyn FnMut() -> Planned,
    sink: &mut dyn FnMut(Completion),
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let mut outstanding: VecDeque<(u64, T::Ticket)> = VecDeque::with_capacity(window);
    let end = Instant::now() + duration;
    // The open group: when it started and the samples it holds so far.
    let mut open: Option<(Instant, u64)> = None;
    let mut rates = Vec::new();
    let mut last_at = Instant::now();
    loop {
        let now = Instant::now();
        if now < end {
            while outstanding.len() < window {
                match submit_one(target, next(), &mut stats, traced) {
                    Some(t) => outstanding.push_back(t),
                    None => break,
                }
            }
        }
        let Some((id, ticket)) = outstanding.pop_front() else {
            break;
        };
        let replica = T::replica(&ticket);
        let outcome = match poll {
            Poll::Sleep(_) => T::wait(ticket),
            // Spinning spares the generator a sleep and a wake-up per
            // completion; a blocking wait leaves the worker idle between
            // hand-offs.
            Poll::Spin => {
                let mut ticket = ticket;
                loop {
                    match T::try_take(ticket) {
                        Ok(outcome) => break outcome,
                        Err(t) => {
                            ticket = t;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        };
        let at = Instant::now();
        if let (Ok(r), true) = (&outcome, at < end) {
            match &mut open {
                // The first completion only starts the clock.
                None => open = Some((at, 0)),
                Some((since, samples)) => {
                    *samples += r.predictions.len() as u64;
                    last_at = at;
                    if *samples >= group {
                        rates.push(*samples as f64 / at.duration_since(*since).as_secs_f64());
                        open = Some((at, 0));
                    }
                }
            }
        }
        let done = Completion {
            id,
            replica,
            outcome,
        };
        stats.record(&done, traced);
        sink(done);
    }
    // A phase too short for one full group reports its partial group.
    if let (true, Some((since, samples))) = (rates.is_empty(), open) {
        if samples > 0 {
            rates.push(samples as f64 / last_at.duration_since(since).as_secs_f64());
        }
    }
    stats.throughput_groups = rates.len();
    stats.throughput_sps = median(&mut rates);
    stats
}

/// Submits `n` requests at once and waits for all of them (the warm-up).
pub fn batch<T: Target>(
    target: &T,
    n: usize,
    next: &mut dyn FnMut() -> Planned,
    sink: &mut dyn FnMut(Completion),
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let tickets: Vec<_> = (0..n)
        .filter_map(|_| submit_one(target, next(), &mut stats, false))
        .collect();
    for (id, ticket) in tickets {
        let replica = T::replica(&ticket);
        let done = Completion {
            id,
            replica,
            outcome: T::wait(ticket),
        };
        stats.record(&done, false);
        sink(done);
    }
    stats
}

/// How the paced generator waits between events.
#[derive(Debug, Clone, Copy)]
pub enum Poll {
    /// Spin with `yield_now` (sub-millisecond latencies; needs a spare core).
    Spin,
    /// Sleep up to this long between looks (latencies of many ms, where a
    /// spinning generator would steal the forward pass's second core).
    Sleep(Duration),
}

/// Open loop: sends `next()` at the seeded Poisson times `gaps` yields for
/// `duration`, harvesting completions as they land, then drains. Each
/// request's latency runs from when it was due to when its completion was
/// observed, and is filed under the slot (of `slots`) it was due in.
/// `drop_one` abandons the first accepted ticket unharvested (a
/// deliberately lost ticket, for the checks' self-test).
#[allow(clippy::too_many_arguments)]
pub fn paced<T: Target>(
    target: &T,
    duration: Duration,
    slots: usize,
    poll: Poll,
    traced: bool,
    drop_one: bool,
    gaps: &mut dyn FnMut() -> Duration,
    next: &mut dyn FnMut() -> Planned,
    sink: &mut dyn FnMut(Completion),
) -> PhaseStats {
    let mut stats = PhaseStats {
        latency_ms: vec![Vec::new(); slots.max(1)],
        ..PhaseStats::default()
    };
    let slot_len = duration.as_secs_f64() / slots.max(1) as f64;
    let mut outstanding: Vec<(u64, Instant, T::Ticket)> = Vec::new();
    let mut still: Vec<(u64, Instant, T::Ticket)> = Vec::new();
    let mut dropped: Option<T::Ticket> = None;
    let start = Instant::now();
    let end = start + duration;
    let mut due = start + gaps();
    loop {
        let now = Instant::now();
        if due < end && now >= due {
            if traced {
                stats
                    .lateness_ms
                    .push(now.duration_since(due).as_secs_f32() * 1e3);
            }
            if let Some((id, ticket)) = submit_one(target, next(), &mut stats, traced) {
                if drop_one && dropped.is_none() {
                    dropped = Some(ticket);
                    stats.dropped += 1;
                } else {
                    outstanding.push((id, due, ticket));
                }
            }
            due += gaps();
            continue;
        }
        // Harvest whatever has resolved.
        let now = Instant::now();
        for (id, due_at, ticket) in outstanding.drain(..) {
            let replica = T::replica(&ticket);
            match T::try_take(ticket) {
                Ok(outcome) => {
                    let slot = (due_at.duration_since(start).as_secs_f64() / slot_len) as usize;
                    stats.latency_ms[slot.min(slots.max(1) - 1)]
                        .push(now.duration_since(due_at).as_secs_f32() * 1e3);
                    let done = Completion {
                        id,
                        replica,
                        outcome,
                    };
                    stats.record(&done, traced);
                    sink(done);
                }
                Err(ticket) => still.push((id, due_at, ticket)),
            }
        }
        std::mem::swap(&mut outstanding, &mut still);
        if due >= end && outstanding.is_empty() {
            break;
        }
        let now = Instant::now();
        let ahead = if due < end {
            due.saturating_duration_since(now)
        } else {
            Duration::MAX
        };
        match poll {
            Poll::Spin => {
                if outstanding.is_empty() && ahead > Duration::from_micros(200) {
                    std::thread::sleep(ahead - Duration::from_micros(100));
                } else {
                    std::thread::yield_now();
                }
            }
            Poll::Sleep(step) => {
                let nap = if outstanding.is_empty() {
                    ahead
                } else {
                    ahead.min(step)
                };
                if nap > Duration::ZERO {
                    std::thread::sleep(nap);
                }
            }
        }
    }
    // The abandoned ticket resolves in the server regardless; dropping it
    // here loses its response, which the reconciliation must notice.
    drop(dropped);
    stats
}

/// SplitMix64: the benchmark's own seeded stream (inputs, arrival gaps,
/// tenants, Zipf ranks).
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential gap of mean `1 / rate_hz`.
    pub fn exp_gap(&mut self, rate_hz: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.unit()).ln() / rate_hz)
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; 0 when
/// empty. Sorts in place.
pub fn quantile(values: &mut [f32], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f32::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    values[lo] as f64 * (1.0 - frac) + values[hi] as f64 * frac
}

/// The median over slots of each slot's `q`-quantile (empty slots skipped).
pub fn slot_quantile(slots: &mut [Vec<f32>], q: f64) -> f64 {
    let mut per_slot: Vec<f64> = slots
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| quantile(s, q))
        .collect();
    median(&mut per_slot)
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
