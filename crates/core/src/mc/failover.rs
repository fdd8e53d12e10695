//! Monte-Carlo model of the automatic fail-over policy — a replay of the
//! Fig. 3 chain, used to cross-validate the analytical model.
//!
//! All transitions (failures included) are exponential races, so this
//! simulator is distribution-equivalent to the twelve-state CTMC; its value
//! is methodological: agreement between two independently coded artifacts —
//! a generator-matrix solve and an event-driven simulation — catches
//! transcription mistakes in either.
//!
//! Two engines replay the chain (see [`McEngine`]): the general
//! event-queue engine samples one exponential per enabled exit and lets
//! the queue race them; the jump-chain fast path samples the sojourn from
//! the state's total exit rate and picks the winner with one uniform —
//! two RNG draws per transition, no heap.

use self::states::Mode;
use super::{
    biased_pick, op_sojourn, AvailabilityEstimate, DowntimeBooks, IterationOutcome, McConfig,
    McEngine, McVariance, SimWorkspace,
};
use crate::error::{CoreError, Result};
use crate::params::ModelParams;
use availsim_sim::indexed_queue::{IndexedEventQueue, QueueStats};
use availsim_sim::rng::{SimRng, SojournCut};
use availsim_sim::telemetry::{Counter, Telemetry};
use availsim_storage::OutageCause;

mod states {
    /// The twelve Fig. 3 states.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Mode {
        Op,
        Exp1,
        OpNs,
        ExpNs1,
        ExpNs2,
        Exp2,
        Du1,
        Du2,
        DuNs1,
        DuNs2,
        Dl,
        DlNs,
    }

    impl Mode {
        /// All states, indexed by `mode as usize`.
        pub const ALL: [Mode; 12] = [
            Mode::Op,
            Mode::Exp1,
            Mode::OpNs,
            Mode::ExpNs1,
            Mode::ExpNs2,
            Mode::Exp2,
            Mode::Du1,
            Mode::Du2,
            Mode::DuNs1,
            Mode::DuNs2,
            Mode::Dl,
            Mode::DlNs,
        ];

        /// Whether the array serves I/O in this state.
        pub fn is_up(self) -> bool {
            matches!(
                self,
                Mode::Op | Mode::Exp1 | Mode::OpNs | Mode::ExpNs1 | Mode::ExpNs2 | Mode::Exp2
            )
        }

        /// Whether the state is a data-loss state (vs. human-error DU).
        pub fn is_data_loss(self) -> bool {
            matches!(self, Mode::Dl | Mode::DlNs)
        }
    }
}

/// The Fig. 3 switch-back race out of the network-storage serving states,
/// shared with the fleet engine's DR coupling ([`super::FleetMc`]): a
/// successful fail-back at `(1 − hep)·φ` races a botched switch-back
/// (DR-side human error) at `hep·φ`. Returned as reciprocal rates (`∞`
/// disables a lane, and `sample_exp_inv` then draws nothing) so callers
/// multiply instead of divide.
pub(crate) fn failback_race_inv(hep: f64, failback_rate: f64) -> (f64, f64) {
    (
        ((1.0 - hep) * failback_rate).recip(),
        (hep * failback_rate).recip(),
    )
}

/// Event payload of the general engine, 8 bytes so a queue entry stays 24
/// (the per-mission `epoch` guard never approaches `u32::MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Jump {
    to: Mode,
    epoch: u32,
}

/// Most exits any Fig. 3 state has (the table rows are fixed-size so the
/// whole model stays `Copy` and allocation-free).
const MAX_EXITS: usize = 4;

/// Precomputed outgoing transitions of all twelve states: per state the
/// `(rate, target, in-biased-set)` triples (in the DESIGN.md §3.2 table
/// order), the number of entries, and the total exit rate. The biased flag
/// marks the failure / human-error / crash exits that balanced failure
/// biasing inflates. Built once per model in [`FailOverMc::new`], shared by
/// both engines so neither allocates in the mission loop.
#[derive(Debug, Clone, Copy)]
struct JumpTable {
    exits: [[(f64, Mode, bool); MAX_EXITS]; 12],
    /// Reciprocal exit rates (`∞` for disabled exits), so the event-queue
    /// engine's per-exit draws multiply instead of divide.
    inv_rates: [[f64; MAX_EXITS]; 12],
    len: [usize; 12],
    totals: [f64; 12],
}

impl JumpTable {
    fn exits_of(&self, mode: Mode) -> &[(f64, Mode, bool)] {
        let i = mode as usize;
        &self.exits[i][..self.len[i]]
    }

    fn inv_rates_of(&self, mode: Mode) -> &[f64] {
        let i = mode as usize;
        &self.inv_rates[i][..self.len[i]]
    }
}

/// Reusable scratch of the general event-queue engine. Cleared (capacity
/// retained) at the start of every mission.
#[derive(Debug, Default)]
pub(crate) struct FoScratch {
    queue: IndexedEventQueue<Jump>,
}

impl FoScratch {
    /// Empties the queue, retaining its allocated capacity.
    pub(crate) fn reset(&mut self) {
        self.queue.clear();
    }

    /// Cumulative traffic counters of the mission event queue.
    pub(crate) fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

/// Flushes a mission's locally accumulated chain tallies into the registry
/// — one batched store per mission behind a single well-predicted branch,
/// keeping the transition loop at plain register increments.
#[inline]
fn flush_chain_counters(
    tele: &mut Telemetry,
    transitions: u64,
    exp_draws: u64,
    uniform_draws: u64,
) {
    if !tele.enabled() {
        return;
    }
    tele.add(Counter::JumpTransitions, transitions);
    tele.add(Counter::RngExpDraws, exp_draws);
    tele.add(Counter::RngUniformDraws, uniform_draws);
}

/// The automatic fail-over Monte-Carlo model.
#[derive(Debug, Clone, Copy)]
pub struct FailOverMc {
    params: ModelParams,
    engine: McEngine,
    table: JumpTable,
}

impl FailOverMc {
    /// Creates the model.
    ///
    /// # Errors
    /// Propagates parameter validation errors. A live LSE/scrubbing model
    /// is rejected: the Fig. 3 chain has no rebuild-completion data-loss
    /// branch, and silently ignoring the exposure would overstate
    /// availability (a zero-rate model is accepted — it is numerically
    /// off).
    pub fn new(params: ModelParams) -> Result<Self> {
        params.validate()?;
        if params.rebuild_lse_probability() > 0.0 {
            return Err(CoreError::InvalidParameter(
                "the fail-over model does not support LSE-aware rebuilds; \
                 remove the scrubbing model (or set `lse_rate = 0`), or use \
                 the conventional/fleet Monte-Carlo engines"
                    .into(),
            ));
        }
        let mut mc = FailOverMc {
            params,
            engine: McEngine::Auto,
            table: JumpTable {
                exits: [[(0.0, Mode::Op, false); MAX_EXITS]; 12],
                inv_rates: [[f64::INFINITY; MAX_EXITS]; 12],
                len: [0; 12],
                totals: [0.0; 12],
            },
        };
        for mode in Mode::ALL {
            let i = mode as usize;
            let exits = mc.exits(mode);
            assert!(exits.len() <= MAX_EXITS, "exit table row overflow");
            for (k, &(rate, to, biased)) in exits.iter().enumerate() {
                mc.table.exits[i][k] = (rate, to, biased);
                mc.table.inv_rates[i][k] = rate.recip();
                mc.table.totals[i] += rate;
            }
            mc.table.len[i] = exits.len();
        }
        Ok(mc)
    }

    /// Selects the per-mission engine. Every Fig. 3 transition is
    /// exponential, so [`McEngine::Auto`] (and [`McEngine::JumpChain`])
    /// resolve to the jump-chain fast path; [`McEngine::EventQueue`] forces
    /// the general engine, the cross-validation reference.
    pub fn with_engine(mut self, engine: McEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Whether the configured engine resolves to the fast path.
    fn fast_path(&self) -> bool {
        !matches!(self.engine, McEngine::EventQueue)
    }

    /// Outgoing transitions of a state as `(rate, target, biased)` triples —
    /// the DESIGN.md §3.2 table, shared verbatim with the Markov model's
    /// builder through the tests that compare both. The `biased` flag marks
    /// the exits whose rate carries a failure (λ), a human-error slip
    /// (`hep·μ`), or a removed-disk crash — the set balanced failure
    /// biasing inflates; the service/recovery exits stay unbiased.
    fn exits(&self, mode: Mode) -> Vec<(f64, Mode, bool)> {
        let p = &self.params;
        let n = f64::from(p.disks());
        let hep = p.hep.value();
        let lam = p.disk_failure_rate;
        let (mu_df, mu_ddf) = (p.disk_repair_rate, p.ddf_recovery_rate);
        let (mu_he, mu_ch) = (p.human_recovery_rate, p.disk_change_rate);
        let crash = p.removed_crash_rate;
        use Mode::*;
        match mode {
            Op => vec![(n * lam, Exp1, true)],
            Exp1 => vec![((n - 1.0) * lam, Dl, true), (mu_df, OpNs, false)],
            OpNs => vec![
                (n * lam, ExpNs1, true),
                ((1.0 - hep) * mu_ch, Op, false),
                (hep * mu_ch, ExpNs2, true),
            ],
            ExpNs1 => vec![
                ((1.0 - hep) * mu_df, OpNs, false),
                ((1.0 - hep) * mu_ch, Exp1, false),
                (hep * (mu_df + mu_ch), DuNs1, true),
                ((n - 1.0) * lam, DlNs, true),
            ],
            ExpNs2 => vec![
                ((1.0 - hep) * mu_he, Op, false),
                (hep * mu_he, DuNs2, true),
                (crash, ExpNs1, true),
                ((n - 1.0) * lam, DuNs1, true),
            ],
            Exp2 => vec![
                ((1.0 - hep) * mu_he, Op, false),
                (hep * mu_he, Du2, true),
                (crash, Exp1, true),
                ((n - 1.0) * lam, Du1, true),
            ],
            Du1 => vec![
                ((1.0 - hep) * mu_he, Exp1, false),
                (crash, Dl, true),
                (mu_ddf, Op, false),
                (hep * mu_he, Du2, true),
            ],
            Du2 => vec![((1.0 - hep) * mu_he, Exp2, false), (2.0 * crash, Du1, true)],
            DuNs1 => vec![
                ((1.0 - hep) * mu_he, ExpNs1, false),
                (crash, DlNs, true),
                (mu_ddf, OpNs, false),
                ((1.0 - hep) * mu_ch, Du1, false),
            ],
            DuNs2 => vec![
                ((1.0 - hep) * mu_he, ExpNs2, false),
                (2.0 * crash, DuNs1, true),
            ],
            Dl => vec![(mu_ddf, Op, false)],
            DlNs => vec![(mu_ddf, OpNs, false), ((1.0 - hep) * mu_ch, Dl, false)],
        }
    }

    /// Resolves the variance scheme against the configured engine: every
    /// Fig. 3 transition is exponential, so failure biasing always applies
    /// (on the fast path), while splitting — the scheme for models with no
    /// tractable path density — has nothing to offer here and is rejected.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] for splitting, for biasing on a
    /// forced [`McEngine::EventQueue`], or for invalid scheme parameters.
    fn resolve_bias(&self, variance: McVariance) -> Result<Option<f64>> {
        variance.validate()?;
        match variance {
            McVariance::Naive => Ok(None),
            McVariance::FailureBiasing { bias } => {
                if matches!(self.engine, McEngine::EventQueue) {
                    Err(CoreError::InvalidParameter(
                        "failure biasing runs on the jump-chain fast path; \
                         do not force McEngine::EventQueue with it"
                            .into(),
                    ))
                } else if bias <= 0.0 {
                    Ok(None) // exactly the naive estimator
                } else {
                    Ok(Some(bias))
                }
            }
            McVariance::Splitting { .. } => Err(CoreError::InvalidParameter(
                "splitting targets the conventional model's event-queue engine \
                 (non-exponential lifetimes); the fail-over chain is fully \
                 exponential — use McVariance::FailureBiasing instead"
                    .into(),
            )),
        }
    }

    /// Runs the full Monte-Carlo estimation.
    ///
    /// Each worker thread allocates one [`SimWorkspace`] and reuses it for
    /// every mission it claims, so the mission loop is allocation-free in
    /// steady state on both engines.
    ///
    /// # Errors
    /// Propagates configuration errors and invalid engine/variance
    /// combinations (see [`McVariance`]).
    pub fn run(&self, config: &McConfig) -> Result<AvailabilityEstimate> {
        self.run_with_cancel(config, None)
    }

    /// [`run`](Self::run) plus an optional cooperative
    /// [`CancelToken`](availsim_sim::parallel::CancelToken): a tripped
    /// deadline or explicit cancel stops the block scheduler and returns
    /// [`CoreError::DeadlineExpired`](crate::CoreError::DeadlineExpired)
    /// instead of an estimate. Uncancelled runs are bit-identical to
    /// [`run`](Self::run).
    ///
    /// # Errors
    /// As [`run`](Self::run), plus `DeadlineExpired` on cancellation.
    pub fn run_with_cancel(
        &self,
        config: &McConfig,
        cancel: Option<&availsim_sim::parallel::CancelToken>,
    ) -> Result<AvailabilityEstimate> {
        let fast = self.fast_path();
        let bias = self.resolve_bias(config.variance)?;
        let horizon = config.horizon_hours;
        let op_cut = SojournCut::new(self.table.totals[Mode::Op as usize], horizon);
        let base = SimRng::substream_base(config.seed);
        super::run_iterations_cancellable(
            config,
            cancel,
            || SimWorkspace::with_telemetry(config.telemetry),
            |ws, i| {
                let mut rng = SimRng::substream_from_base(base, i);
                match bias {
                    Some(bias) => {
                        self.simulate_jump_chain_biased(horizon, bias, &mut rng, &mut ws.telemetry)
                    }
                    None if fast => {
                        self.simulate_jump_chain(horizon, op_cut, &mut rng, &mut ws.telemetry)
                    }
                    None => self.simulate_event_queue(horizon, &mut rng, ws),
                }
            },
        )
    }

    /// Simulates one mission with a fresh scratch workspace (hot loops
    /// should use [`Self::simulate_once_with`]). Engine selection follows
    /// [`Self::with_engine`].
    pub fn simulate_once(&self, horizon: f64, rng: &mut SimRng) -> IterationOutcome {
        let mut ws = SimWorkspace::new();
        self.simulate_once_with(horizon, rng, &mut ws)
    }

    /// Simulates one mission on a reusable [`SimWorkspace`] —
    /// allocation-free once the workspace buffers have grown. The mission
    /// fully resets the workspace state it reads, so reuse across missions
    /// never leaks state between iterations.
    pub fn simulate_once_with(
        &self,
        horizon: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> IterationOutcome {
        if self.fast_path() {
            let op_cut = SojournCut::new(self.table.totals[Mode::Op as usize], horizon);
            self.simulate_jump_chain(horizon, op_cut, rng, &mut ws.telemetry)
        } else {
            self.simulate_event_queue(horizon, rng, ws)
        }
    }

    /// The jump-chain fast path: sample the sojourn from the state's total
    /// exit rate, pick the winning transition with one uniform — two RNG
    /// draws per transition, no event queue. Every OP sojourn goes through
    /// `op_cut`, the [`SojournCut`] of OP's exit rate and the horizon
    /// (`None` when OP has no exit): the same uniform, outcome and
    /// sojourn as `sample_exp`, without a logarithm when the array clearly
    /// never fails again.
    fn simulate_jump_chain(
        &self,
        horizon: f64,
        op_cut: Option<SojournCut>,
        rng: &mut SimRng,
        tele: &mut Telemetry,
    ) -> IterationOutcome {
        let mut books = DowntimeBooks::new();
        let mut mode = Mode::Op;
        let mut t = 0.0;
        let (mut du_events, mut dl_events) = (0u64, 0u64);
        let (mut transitions, mut exp_draws, mut uniform_draws) = (0u64, 0u64, 0u64);

        let mut sojourn = op_sojourn(op_cut, rng, &mut exp_draws);
        while let Some(dt) = sojourn {
            t += dt;
            if t > horizon {
                break;
            }
            // Winner ∝ rate: walk the cumulative distribution. Rounding can
            // leave `u` a hair past the last bucket; the final enabled exit
            // then wins (its upper edge is the total by construction).
            let total = self.table.totals[mode as usize];
            let mut u = rng.next_f64() * total;
            uniform_draws += 1;
            let mut next = mode;
            for &(rate, to, _) in self.table.exits_of(mode) {
                if rate <= 0.0 {
                    continue;
                }
                next = to;
                if u < rate {
                    break;
                }
                u -= rate;
            }
            account_transition(mode, next, t, &mut books, &mut du_events, &mut dl_events);
            mode = next;
            transitions += 1;
            sojourn = if mode == Mode::Op {
                op_sojourn(op_cut, rng, &mut exp_draws)
            } else {
                let s = rng.sample_exp(self.table.totals[mode as usize]);
                exp_draws += u64::from(s.is_some()); // none: absorbing state
                s
            };
        }

        flush_chain_counters(tele, transitions, exp_draws, uniform_draws);
        books.outcome(horizon, du_events, dl_events, 1.0)
    }

    /// Simulates one importance-sampled mission on a reusable workspace
    /// (see [`McVariance::FailureBiasing`]); the returned outcome's
    /// `weight` carries the path's likelihood ratio. `bias <= 0` falls back
    /// to [`Self::simulate_once_with`] with weight 1.
    pub fn simulate_once_biased_with(
        &self,
        horizon: f64,
        bias: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> IterationOutcome {
        if bias > 0.0 {
            self.simulate_jump_chain_biased(horizon, bias, rng, &mut ws.telemetry)
        } else {
            self.simulate_once_with(horizon, rng, ws)
        }
    }

    /// The importance-sampled jump chain: the first OP sojourn is *forced*
    /// into the mission window (its hit probability multiplies the weight),
    /// and in every state the winning exit is drawn with [`biased_pick`] —
    /// the failure / human-error / crash exits share proposal mass `bias`.
    /// Same two RNG draws per transition as the naive fast path.
    fn simulate_jump_chain_biased(
        &self,
        horizon: f64,
        bias: f64,
        rng: &mut SimRng,
        tele: &mut Telemetry,
    ) -> IterationOutcome {
        let mut books = DowntimeBooks::new();
        let mut mode = Mode::Op;
        let mut t = 0.0;
        let mut weight = 1.0f64;
        let mut force_next_failure = true;
        let (mut du_events, mut dl_events) = (0u64, 0u64);
        let (mut transitions, mut exp_draws, mut uniform_draws) = (0u64, 0u64, 0u64);

        loop {
            let total = self.table.totals[mode as usize];
            let dt = if mode == Mode::Op && force_next_failure {
                force_next_failure = false;
                match rng.sample_exp_within(total, horizon - t) {
                    Some((dt, p_hit)) => {
                        exp_draws += 1;
                        weight *= p_hit;
                        dt
                    }
                    None => break,
                }
            } else {
                match rng.sample_exp(total) {
                    Some(dt) => {
                        exp_draws += 1;
                        dt
                    }
                    None => break, // absorbing state: no enabled exits
                }
            };
            t += dt;
            if t > horizon {
                break;
            }
            let exits = self.table.exits_of(mode);
            let next = if exits.len() == 1 {
                exits[0].1
            } else {
                let mut flags = [(0.0, false); MAX_EXITS];
                for (k, &(rate, _, biased)) in exits.iter().enumerate() {
                    flags[k] = (rate, biased);
                }
                let (idx, ratio) = biased_pick(rng, &flags[..exits.len()], total, bias);
                uniform_draws += 1;
                weight *= ratio;
                exits[idx].1
            };
            account_transition(mode, next, t, &mut books, &mut du_events, &mut dl_events);
            mode = next;
            transitions += 1;
        }

        flush_chain_counters(tele, transitions, exp_draws, uniform_draws);
        books.outcome(horizon, du_events, dl_events, weight)
    }

    /// The general event-queue engine: arm one exponential clock per
    /// enabled exit and let the queue race them (epoch-guarded against
    /// stale events). Distribution-identical to the jump chain; kept as
    /// the cross-validation reference.
    fn simulate_event_queue(
        &self,
        horizon: f64,
        rng: &mut SimRng,
        ws: &mut SimWorkspace,
    ) -> IterationOutcome {
        ws.failover.reset();
        let queue = &mut ws.failover.queue;
        let mut books = DowntimeBooks::new();
        let tele = &mut ws.telemetry;
        let mut mode = Mode::Op;
        let mut epoch = 0u32;
        let (mut du_events, mut dl_events) = (0u64, 0u64);
        let (mut transitions, mut exp_draws) = (0u64, 0u64);

        let arm = |mode: Mode,
                   epoch: u32,
                   queue: &mut IndexedEventQueue<Jump>,
                   rng: &mut SimRng,
                   exp_draws: &mut u64| {
            let exits = self.table.exits_of(mode);
            let invs = self.table.inv_rates_of(mode);
            for (&(_, to, _), &inv) in exits.iter().zip(invs) {
                // The armed draw multiplies by the precomputed 1/rate;
                // a delay landing past the horizon can never fire —
                // the draw still happens (the stream is the contract),
                // but the queue never holds the event.
                if let Some(dt) = rng.sample_exp_inv(inv) {
                    *exp_draws += 1;
                    if queue.now() + dt <= horizon {
                        let _ = queue.schedule(dt, Jump { to, epoch });
                    } else {
                        queue.note_expired();
                    }
                }
            }
        };

        arm(mode, epoch, queue, rng, &mut exp_draws);
        while let Some((t, jump)) = queue.pop_due(horizon) {
            if jump.epoch != epoch {
                continue;
            }
            // Every event in the queue belongs to the epoch that just
            // ended (the chain quiesces completely on each transition), so
            // the losers of the race are removed in one bulk pass instead
            // of surfacing later as stale pops. The epoch guard above
            // stays as a defensive invariant.
            queue.cancel_all();
            account_transition(mode, jump.to, t, &mut books, &mut du_events, &mut dl_events);
            mode = jump.to;
            epoch += 1;
            transitions += 1;
            arm(mode, epoch, queue, rng, &mut exp_draws);
        }

        flush_chain_counters(tele, transitions, exp_draws, 0);
        books.outcome(horizon, du_events, dl_events, 1.0)
    }
}

/// Downtime/event accounting for one `was → now` transition at time `t` —
/// the single source of truth shared by both engines, including the
/// down-to-down re-attribution rule (e.g. `DUns1 → DLns` closes the
/// human-error outage and opens a data-loss one at the same instant).
#[inline]
fn account_transition(
    was: Mode,
    now: Mode,
    t: f64,
    books: &mut DowntimeBooks,
    du_events: &mut u64,
    dl_events: &mut u64,
) {
    match (was.is_up(), now.is_up()) {
        (true, false) => {
            if now.is_data_loss() {
                *dl_events += 1;
                books.begin(t, OutageCause::DataLoss);
            } else {
                *du_events += 1;
                books.begin(t, OutageCause::HumanError);
            }
        }
        (false, true) => books.end(t),
        (false, false) => {
            if !was.is_data_loss() && now.is_data_loss() {
                *dl_events += 1;
                books.end(t);
                books.begin(t, OutageCause::DataLoss);
            } else if was.is_data_loss() && !now.is_data_loss() {
                *du_events += 1;
                books.end(t);
                books.begin(t, OutageCause::HumanError);
            }
        }
        (true, true) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::Raid5FailOver;
    use availsim_hra::Hep;

    fn params(lambda: f64, hep: f64) -> ModelParams {
        ModelParams::raid5_3plus1(lambda, Hep::new(hep).unwrap()).unwrap()
    }

    fn quick_config(iterations: u64) -> McConfig {
        McConfig {
            iterations,
            horizon_hours: 10_000.0,
            seed: 11,
            confidence: 0.99,
            threads: 2,
            ..McConfig::default()
        }
    }

    #[test]
    fn exit_rates_match_the_markov_chain() {
        // Every (rate, target) pair of the simulator must equal the chain's
        // generator entry — the two artifacts encode one table.
        let p = params(1e-4, 0.01);
        let mc = FailOverMc::new(p).unwrap();
        let chain = Raid5FailOver::new(p).unwrap().build_chain().unwrap();
        use super::states::Mode::*;
        let label = |m| match m {
            Op => "OP",
            Exp1 => "EXP1",
            OpNs => "OPns",
            ExpNs1 => "EXPns1",
            ExpNs2 => "EXPns2",
            Exp2 => "EXP2",
            Du1 => "DU1",
            Du2 => "DU2",
            DuNs1 => "DUns1",
            DuNs2 => "DUns2",
            Dl => "DL",
            DlNs => "DLns",
        };
        for mode in Mode::ALL {
            let from = chain.find_state(label(mode)).expect("state exists");
            let mut total = 0.0;
            for (rate, to, _) in mc.exits(mode) {
                let to_id = chain.find_state(label(to)).expect("state exists");
                let chain_rate = chain.rate(from, to_id);
                assert!(
                    (rate - chain_rate).abs() < 1e-15,
                    "{} -> {}: mc {rate} vs chain {chain_rate}",
                    label(mode),
                    label(to)
                );
                total += rate;
            }
            assert!(
                (total - chain.exit_rate(from)).abs() < 1e-15,
                "{}",
                label(mode)
            );
        }
    }

    #[test]
    fn precomputed_table_matches_exits() {
        let mc = FailOverMc::new(params(1e-4, 0.01)).unwrap();
        for mode in Mode::ALL {
            let fresh = mc.exits(mode);
            let cached = mc.table.exits_of(mode);
            assert_eq!(fresh.len(), cached.len());
            let mut total = 0.0;
            for ((r1, t1, b1), (r2, t2, b2)) in fresh.iter().zip(cached) {
                assert_eq!(r1.to_bits(), r2.to_bits());
                assert_eq!(t1, t2);
                assert_eq!(b1, b2);
                total += r1;
            }
            assert!((total - mc.table.totals[mode as usize]).abs() < 1e-15);
        }
    }

    #[test]
    fn live_lse_model_is_rejected_at_construction() {
        use availsim_storage::ScrubbingModel;
        let p = params(1e-4, 0.01).with_scrubbing(ScrubbingModel::new(1e-4, 336.0).unwrap());
        let err = FailOverMc::new(p).unwrap_err().to_string();
        assert!(err.contains("LSE-aware rebuilds"), "{err}");
        // A zero-rate model is numerically off and stays accepted.
        let z = params(1e-4, 0.01).with_scrubbing(ScrubbingModel::new(0.0, 336.0).unwrap());
        assert!(FailOverMc::new(z).is_ok());
    }

    #[test]
    fn no_downtime_without_events() {
        for engine in [McEngine::JumpChain, McEngine::EventQueue] {
            let mc = FailOverMc::new(params(1e-15, 0.01))
                .unwrap()
                .with_engine(engine);
            let est = mc.run(&quick_config(10)).unwrap();
            assert_eq!(est.overall_availability, 1.0);
        }
    }

    #[test]
    fn agrees_with_markov_at_high_rates() {
        let p = params(1e-3, 0.01);
        let markov = Raid5FailOver::new(p).unwrap().solve().unwrap();
        for engine in [McEngine::JumpChain, McEngine::EventQueue] {
            let mc = FailOverMc::new(p).unwrap().with_engine(engine);
            let est = mc.run(&quick_config(600)).unwrap();
            assert!(
                est.is_consistent_with(markov.availability()),
                "{engine:?}: markov {} outside CI {}",
                markov.availability(),
                est.availability
            );
        }
    }

    #[test]
    fn beats_conventional_mc_under_human_error() {
        use crate::mc::ConventionalMc;
        let p = params(1e-3, 0.05);
        let cfg = quick_config(400);
        let fo = FailOverMc::new(p).unwrap().run(&cfg).unwrap();
        let conv = ConventionalMc::new(p).unwrap().run(&cfg).unwrap();
        assert!(
            fo.overall_availability > conv.overall_availability,
            "fo {} conv {}",
            fo.overall_availability,
            conv.overall_availability
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        for engine in [McEngine::JumpChain, McEngine::EventQueue] {
            let p = params(1e-3, 0.01);
            let mc = FailOverMc::new(p).unwrap().with_engine(engine);
            let mut cfg = quick_config(64);
            cfg.threads = 1;
            let a = mc.run(&cfg).unwrap();
            cfg.threads = 8;
            let b = mc.run(&cfg).unwrap();
            assert_eq!(
                a.overall_availability.to_bits(),
                b.overall_availability.to_bits(),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn hep_zero_never_enters_du() {
        for engine in [McEngine::JumpChain, McEngine::EventQueue] {
            let mc = FailOverMc::new(params(2e-3, 0.0))
                .unwrap()
                .with_engine(engine);
            let est = mc.run(&quick_config(300)).unwrap();
            assert_eq!(est.du_events, 0, "{engine:?}");
        }
    }

    #[test]
    fn biased_exit_set_marks_failure_error_and_crash_rates() {
        // Every biased-flagged rate must be built from λ, hep, or the crash
        // rate: turning all three off must zero exactly the biased exits.
        let mut p = params(1e-4, 0.0);
        p.removed_crash_rate = 0.0;
        let mc = FailOverMc::new(p).unwrap();
        for mode in Mode::ALL {
            for (rate, to, biased) in mc.exits(mode) {
                if biased {
                    // hep = 0, crash = 0 ⇒ only λ-driven exits keep a rate.
                    let failure_driven = rate > 0.0;
                    if failure_driven {
                        assert!(
                            rate <= 4.0 * p.disk_failure_rate + 1e-18,
                            "{mode:?} -> {to:?}: biased rate {rate} is not λ-scale"
                        );
                    }
                } else {
                    assert!(rate > 0.0, "{mode:?} -> {to:?}: service exit disabled");
                }
            }
        }
    }

    #[test]
    fn failure_biasing_covers_fig3_markov_where_naive_sees_nothing() {
        let p = params(1e-8, 0.01);
        let exact = Raid5FailOver::new(p)
            .unwrap()
            .solve()
            .unwrap()
            .unavailability();
        let cfg = McConfig {
            variance: crate::mc::McVariance::failure_biasing(),
            horizon_hours: 87_600.0,
            ..quick_config(600)
        };
        let est = FailOverMc::new(p).unwrap().run(&cfg).unwrap();
        assert!(est.unavailability() > 0.0);
        assert!(
            est.is_consistent_with_unavailability(exact),
            "exact {exact:.3e} outside CI {} (U_est {:.3e})",
            est.availability,
            est.unavailability()
        );
        let naive = FailOverMc::new(p)
            .unwrap()
            .run(&McConfig {
                horizon_hours: 87_600.0,
                ..quick_config(600)
            })
            .unwrap();
        assert_eq!(naive.du_events + naive.dl_events, 0);
    }

    #[test]
    fn zero_bias_degenerates_to_naive_and_splitting_is_rejected() {
        let p = params(1e-3, 0.01);
        let mc = FailOverMc::new(p).unwrap();
        let naive = mc.run(&quick_config(200)).unwrap();
        let zero = mc
            .run(&McConfig {
                variance: crate::mc::McVariance::FailureBiasing { bias: 0.0 },
                ..quick_config(200)
            })
            .unwrap();
        assert_eq!(
            naive.overall_availability.to_bits(),
            zero.overall_availability.to_bits()
        );
        assert!(mc
            .run(&McConfig {
                variance: crate::mc::McVariance::splitting(),
                ..quick_config(10)
            })
            .is_err());
        assert!(mc
            .with_engine(McEngine::EventQueue)
            .run(&McConfig {
                variance: crate::mc::McVariance::failure_biasing(),
                ..quick_config(10)
            })
            .is_err());
    }

    #[test]
    fn workspace_reuse_matches_fresh_workspaces_bitwise() {
        let p = params(2e-3, 0.05);
        for engine in [McEngine::JumpChain, McEngine::EventQueue] {
            let mc = FailOverMc::new(p).unwrap().with_engine(engine);
            let mut reused = SimWorkspace::new();
            for s in 500..504 {
                let mut rng = SimRng::seed_from(s);
                let _ = mc.simulate_once_with(30_000.0, &mut rng, &mut reused);
            }
            reused
                .trace
                .record(3.0, availsim_storage::TraceKind::DataLoss); // poison
            let mut fresh = SimWorkspace::new();
            let mut rng_a = SimRng::seed_from(9);
            let mut rng_b = SimRng::seed_from(9);
            let a = mc.simulate_once_with(30_000.0, &mut rng_a, &mut reused);
            let b = mc.simulate_once_with(30_000.0, &mut rng_b, &mut fresh);
            assert_eq!(
                a.downtime_hours.to_bits(),
                b.downtime_hours.to_bits(),
                "{engine:?}"
            );
            assert_eq!(a.du_events, b.du_events, "{engine:?}");
            assert_eq!(a.dl_events, b.dl_events, "{engine:?}");
        }
    }
}
