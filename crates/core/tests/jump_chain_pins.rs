//! Bit-identity pins for the jump-chain Monte-Carlo engines.
//!
//! Every value below is the `f64::to_bits` (or exact count) of an
//! estimate taken from the engines before their per-mission hot path was
//! restructured (hoisted per-run constants, scalar downtime books, the
//! first-sojourn horizon cut). The
//! restructuring is required to be invisible: same RNG stream, same
//! accounting order, same bits — at one thread and at four.
//!
//! The grid is the paper's operating point (λ = 3e-6, ten-year missions)
//! over {RAID1(1+1), RAID5(3+1)} × hep {0, 0.01} for both policies, plus a
//! live latent-sector-error cell, failure-biasing cells, and a λ = 1e-3
//! cell per policy where missions make many transitions. Each cell also
//! pins a digest of its telemetry counter snapshot, and the per-mission
//! outcomes of `simulate_once_with` (with the RNG state each leaves behind)
//! are pinned through a digest as well.
//!
//! To re-derive the table after an intentional change of the RNG stream,
//! run `cargo test -p availsim-core --test jump_chain_pins -- --ignored
//! --nocapture print_pins` and paste its output over `PINS` and `MISSION_DIGESTS`.

use availsim_core::mc::{
    AvailabilityEstimate, ConventionalMc, FailOverMc, McConfig, McVariance, SimWorkspace,
};
use availsim_core::ModelParams;
use availsim_hra::Hep;
use availsim_sim::rng::SimRng;
use availsim_sim::telemetry::CounterSnapshot;
use availsim_storage::{RaidGeometry, ScrubbingModel};

const HORIZON: f64 = 87_600.0;

#[derive(Debug, Clone, Copy)]
enum Policy {
    Conventional,
    Failover,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    label: &'static str,
    policy: Policy,
    raid1: bool,
    lambda: f64,
    hep: f64,
    lse: bool,
    bias: f64,
    iterations: u64,
}

const fn cell(label: &'static str, policy: Policy, raid1: bool, hep: f64) -> Cell {
    Cell {
        label,
        policy,
        raid1,
        lambda: 3e-6,
        hep,
        lse: false,
        bias: 0.0,
        iterations: 100_000,
    }
}

const CELLS: [Cell; 14] = [
    cell("conv-r1-hep0", Policy::Conventional, true, 0.0),
    cell("conv-r1-hep0.01", Policy::Conventional, true, 0.01),
    cell("conv-r5-3-hep0", Policy::Conventional, false, 0.0),
    cell("conv-r5-3-hep0.01", Policy::Conventional, false, 0.01),
    cell("fo-r1-hep0", Policy::Failover, true, 0.0),
    cell("fo-r1-hep0.01", Policy::Failover, true, 0.01),
    cell("fo-r5-3-hep0", Policy::Failover, false, 0.0),
    cell("fo-r5-3-hep0.01", Policy::Failover, false, 0.01),
    Cell {
        lse: true,
        ..cell("conv-r5-3-hep0.01-lse", Policy::Conventional, false, 0.01)
    },
    Cell {
        bias: 0.5,
        iterations: 20_000,
        ..cell("conv-r5-3-hep0.01-fb", Policy::Conventional, false, 0.01)
    },
    Cell {
        bias: 0.5,
        iterations: 20_000,
        ..cell("fo-r5-3-hep0.01-fb", Policy::Failover, false, 0.01)
    },
    Cell {
        lambda: 1e-3,
        iterations: 20_000,
        ..cell(
            "conv-r5-3-hep0.01-lam1e-3",
            Policy::Conventional,
            false,
            0.01,
        )
    },
    Cell {
        lambda: 1e-3,
        iterations: 20_000,
        ..cell("fo-r5-3-hep0.01-lam1e-3", Policy::Failover, false, 0.01)
    },
    Cell {
        lambda: 1e-3,
        lse: true,
        iterations: 20_000,
        ..cell("conv-r1-hep0-lam1e-3-lse", Policy::Conventional, true, 0.0)
    },
];

fn params(c: &Cell) -> ModelParams {
    let geometry = if c.raid1 {
        RaidGeometry::raid1_pair()
    } else {
        RaidGeometry::raid5(3).unwrap()
    };
    let p = ModelParams::paper_defaults(geometry, c.lambda, Hep::new(c.hep).unwrap()).unwrap();
    if c.lse {
        p.with_scrubbing(ScrubbingModel::new(1e-4, 336.0).unwrap())
    } else {
        p
    }
}

fn run(c: &Cell, threads: usize, telemetry: bool) -> AvailabilityEstimate {
    let config = McConfig {
        iterations: c.iterations,
        horizon_hours: HORIZON,
        seed: 0x5EED_DA7A,
        confidence: 0.99,
        threads,
        variance: if c.bias > 0.0 {
            McVariance::FailureBiasing { bias: c.bias }
        } else {
            McVariance::Naive
        },
        telemetry,
    };
    let p = params(c);
    match c.policy {
        Policy::Conventional => ConventionalMc::new(p).unwrap().run(&config),
        Policy::Failover => FailOverMc::new(p).unwrap().run(&config),
    }
    .unwrap()
}

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn counters_digest(s: &CounterSnapshot) -> u64 {
    fnv(s.iter().map(|(_, v)| v))
}

/// The pinned fields of one estimate, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    availability_mean: u64,
    availability_half_width: u64,
    overall_availability: u64,
    mean_downtime_hours: u64,
    du_downtime_share: u64,
    du_events: u64,
    dl_events: u64,
    p_data_loss_mean: u64,
    p_data_loss_half_width: u64,
    loss_missions: u64,
    nomdl_per_tb: u64,
    mean_time_to_first_loss: u64,
    effective_sample_size: u64,
    max_weight: u64,
    counters: u64,
}

impl Pin {
    fn fields(&self) -> [(&'static str, u64); 15] {
        [
            ("availability_mean", self.availability_mean),
            ("availability_half_width", self.availability_half_width),
            ("overall_availability", self.overall_availability),
            ("mean_downtime_hours", self.mean_downtime_hours),
            ("du_downtime_share", self.du_downtime_share),
            ("du_events", self.du_events),
            ("dl_events", self.dl_events),
            ("p_data_loss_mean", self.p_data_loss_mean),
            ("p_data_loss_half_width", self.p_data_loss_half_width),
            ("loss_missions", self.loss_missions),
            ("nomdl_per_tb", self.nomdl_per_tb),
            ("mean_time_to_first_loss", self.mean_time_to_first_loss),
            ("effective_sample_size", self.effective_sample_size),
            ("max_weight", self.max_weight),
            ("counters", self.counters),
        ]
    }
}

fn pin_of(e: &AvailabilityEstimate) -> Pin {
    Pin {
        availability_mean: e.availability.mean.to_bits(),
        availability_half_width: e.availability.half_width.to_bits(),
        overall_availability: e.overall_availability.to_bits(),
        mean_downtime_hours: e.mean_downtime_hours.to_bits(),
        du_downtime_share: e.du_downtime_share.to_bits(),
        du_events: e.du_events,
        dl_events: e.dl_events,
        p_data_loss_mean: e.p_data_loss.mean.to_bits(),
        p_data_loss_half_width: e.p_data_loss.half_width.to_bits(),
        loss_missions: e.loss_missions,
        nomdl_per_tb: e.nomdl_per_tb.to_bits(),
        mean_time_to_first_loss: e.mean_time_to_first_loss_hours.unwrap_or(-1.0).to_bits(),
        effective_sample_size: e.effective_sample_size.to_bits(),
        max_weight: e.max_weight.to_bits(),
        counters: counters_digest(&e.counters),
    }
}

/// Digest of `missions` consecutive `simulate_once_with` outcomes on one
/// shared workspace, each followed by the RNG word the mission left next.
fn mission_digest(policy: Policy, lambda: f64, missions: u64) -> u64 {
    let p = params(&Cell {
        lambda,
        ..cell("", policy, false, 0.01)
    });
    let conventional = ConventionalMc::new(p).unwrap();
    let failover = FailOverMc::new(p).unwrap();
    let mut ws = SimWorkspace::new();
    let mut words = Vec::new();
    for i in 0..missions {
        let mut rng = SimRng::substream(17, i);
        let o = match policy {
            Policy::Conventional => conventional.simulate_once_with(HORIZON, &mut rng, &mut ws),
            Policy::Failover => failover.simulate_once_with(HORIZON, &mut rng, &mut ws),
        };
        words.extend([
            o.downtime_hours.to_bits(),
            o.du_downtime_hours.to_bits(),
            o.dl_downtime_hours.to_bits(),
            o.du_events,
            o.dl_events,
            o.first_loss_hours.to_bits(),
            o.weight.to_bits(),
            rng.next_u64(),
        ]);
    }
    fnv(words)
}

const MISSION_DIGEST_CASES: [(Policy, f64, &str); 4] = [
    (Policy::Conventional, 3e-6, "conv-3e-6"),
    (Policy::Conventional, 1e-3, "conv-1e-3"),
    (Policy::Failover, 3e-6, "fo-3e-6"),
    (Policy::Failover, 1e-3, "fo-1e-3"),
];

const MISSIONS_PER_DIGEST: u64 = 20_000;

#[test]
#[ignore = "generator: prints the pin table of the current engines"]
fn print_pins() {
    for c in &CELLS {
        let p = pin_of(&run(c, 1, true));
        println!("    // {}", c.label);
        println!("    Pin {{");
        for (name, v) in p.fields() {
            if name.ends_with("events") || name == "loss_missions" {
                println!("        {name}: {v},");
            } else {
                println!("        {name}: {v:#018x},");
            }
        }
        println!("    }},");
    }
    for (policy, lambda, label) in MISSION_DIGEST_CASES {
        println!(
            "    // {label}\n    {:#018x},",
            mission_digest(policy, lambda, MISSIONS_PER_DIGEST)
        );
    }
}

/// Pinned estimates, one per entry of `CELLS`.
const PINS: [Pin; 14] = [
    // conv-r1-hep0
    Pin {
        availability_mean: 0x3ff0000000000000,
        availability_half_width: 0x0000000000000000,
        overall_availability: 0x3ff0000000000000,
        mean_downtime_hours: 0x0000000000000000,
        du_downtime_share: 0x0000000000000000,
        du_events: 0,
        dl_events: 0,
        p_data_loss_mean: 0x3f01644eeebed349,
        p_data_loss_half_width: 0x3f01644eeebed349,
        loss_missions: 0,
        nomdl_per_tb: 0x0000000000000000,
        mean_time_to_first_loss: 0xbff0000000000000,
        effective_sample_size: 0x40f86a0000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0xe77fe6af94140fdb,
    },
    // conv-r1-hep0.01
    Pin {
        availability_mean: 0x3feffffe5c505805,
        availability_half_width: 0x3e805bfe82da1fa7,
        overall_availability: 0x3feffffe5c505803,
        mean_downtime_hours: 0x3fb187dadadac367,
        du_downtime_share: 0x3fe71863b61a736f,
        du_events: 4870,
        dl_events: 44,
        p_data_loss_mean: 0x3f3f0206198d4ce3,
        p_data_loss_half_width: 0x3f26ce96f05c6643,
        loss_missions: 44,
        nomdl_per_tb: 0x3f3cd5f99c38b04b,
        mean_time_to_first_loss: 0x40e8285bbe7f3879,
        effective_sample_size: 0x40f86a0000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0x30c38eb6d6a6a8bd,
    },
    // conv-r5-3-hep0
    Pin {
        availability_mean: 0x3feffffffab0d1fb,
        availability_half_width: 0x3e50e35632c7cab0,
        overall_availability: 0x3feffffffab0d1fa,
        mean_downtime_hours: 0x3f4c631954639778,
        du_downtime_share: 0x0000000000000000,
        du_events: 0,
        dl_events: 4,
        p_data_loss_mean: 0x3f132e54a45b9345,
        p_data_loss_half_width: 0x3f100fb2d91809e3,
        loss_missions: 4,
        nomdl_per_tb: 0x3eebf647612f3697,
        mean_time_to_first_loss: 0x40e43d6c38daea79,
        effective_sample_size: 0x40f86a0000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0x8c4874bf9af15e14,
    },
    // conv-r5-3-hep0.01
    Pin {
        availability_mean: 0x3feffffcf29ed483,
        availability_half_width: 0x3e836ddaf0248253,
        overall_availability: 0x3feffffcf29ed482,
        mean_downtime_hours: 0x3fc051c949491062,
        du_downtime_share: 0x3fe890af344efdb7,
        du_events: 9699,
        dl_events: 80,
        p_data_loss_mean: 0x3f4b4cb5df625547,
        p_data_loss_half_width: 0x3f2e7ebb0cfaccb7,
        loss_missions: 80,
        nomdl_per_tb: 0x3f3179ec9cbd821e,
        mean_time_to_first_loss: 0x40e4615633323dfe,
        effective_sample_size: 0x40f86a0000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0x48e785515a3d6967,
    },
    // fo-r1-hep0
    Pin {
        availability_mean: 0x3feffffffe2f9e36,
        availability_half_width: 0x3e3987ab22af9e9a,
        overall_availability: 0x3feffffffe2f9e32,
        mean_downtime_hours: 0x3f3365cddb30ae53,
        du_downtime_share: 0x0000000000000000,
        du_events: 0,
        dl_events: 3,
        p_data_loss_mean: 0x3f108f49591c88dd,
        p_data_loss_half_width: 0x3f0d2585c0e8197b,
        loss_missions: 3,
        nomdl_per_tb: 0x3eff75104d551d69,
        mean_time_to_first_loss: 0x40e28081233208b1,
        effective_sample_size: 0x40f86a0000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0xe733662d711dd72e,
    },
    // fo-r1-hep0.01
    Pin {
        availability_mean: 0x3feffffffe04df4c,
        availability_half_width: 0x3e39a3229818ef58,
        overall_availability: 0x3feffffffe04df50,
        mean_downtime_hours: 0x3f352ee60d3e6a01,
        du_downtime_share: 0x3fb594028c368613,
        du_events: 5,
        dl_events: 3,
        p_data_loss_mean: 0x3f108f49591c88dd,
        p_data_loss_half_width: 0x3f0d2585c0e8197b,
        loss_missions: 3,
        nomdl_per_tb: 0x3eff75104d551d69,
        mean_time_to_first_loss: 0x40e28081233208b1,
        effective_sample_size: 0x40f86a0000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0xf64bb124cdc08a55,
    },
    // fo-r5-3-hep0
    Pin {
        availability_mean: 0x3fefffffdff06778,
        availability_half_width: 0x3e6bd29deaa8ca5b,
        overall_availability: 0x3fefffffdff06777,
        mean_downtime_hours: 0x3f756d6c59cab1aa,
        du_downtime_share: 0x0000000000000000,
        du_events: 0,
        dl_events: 15,
        p_data_loss_mean: 0x3f2801e8700882df,
        p_data_loss_half_width: 0x3f1b8e64c61178a5,
        loss_missions: 15,
        nomdl_per_tb: 0x3f23a92a30553261,
        mean_time_to_first_loss: 0x40dfb16231daff03,
        effective_sample_size: 0x40f86a0000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0x18226b1d59944291,
    },
    // fo-r5-3-hep0.01
    Pin {
        availability_mean: 0x3fefffffdf794d2f,
        availability_half_width: 0x3e6bd4269726516a,
        overall_availability: 0x3fefffffdf794d32,
        mean_downtime_hours: 0x3f75bd06108321c0,
        du_downtime_share: 0x3f8d4b427a489ace,
        du_events: 9,
        dl_events: 15,
        p_data_loss_mean: 0x3f2801e8700882df,
        p_data_loss_half_width: 0x3f1b8e64c61178a5,
        loss_missions: 15,
        nomdl_per_tb: 0x3f23a92a30553261,
        mean_time_to_first_loss: 0x40dfb16231daff03,
        effective_sample_size: 0x40f86a0000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0x999803a696330b50,
    },
    // conv-r5-3-hep0.01-lse
    Pin {
        availability_mean: 0x3fefffd8052cea47,
        availability_half_width: 0x3eafe5c1c7619858,
        overall_availability: 0x3fefffd8052cea48,
        mean_downtime_hours: 0x3ffab84a834bf03a,
        du_downtime_share: 0x3fae342135bdc7b6,
        du_events: 9623,
        dl_events: 4750,
        p_data_loss_mean: 0x3fa7d02b9ad3fa2e,
        p_data_loss_half_width: 0x3f5c19497909ece1,
        loss_missions: 4648,
        nomdl_per_tb: 0x3f90369d0369d037,
        mean_time_to_first_loss: 0x40e4d60792ac0e46,
        effective_sample_size: 0x40f86a0000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0x4c0b8130b8217acd,
    },
    // conv-r5-3-hep0.01-fb
    Pin {
        availability_mean: 0x3feffffcc6fd7026,
        availability_half_width: 0x3e7986f152420ba7,
        overall_availability: 0x3feffffcc6fd7027,
        mean_downtime_hours: 0x3fc13b10729b9c17,
        du_downtime_share: 0x3fe7a60affff5a28,
        du_events: 8063,
        dl_events: 12104,
        p_data_loss_mean: 0x3fdfce0b9d83061c,
        p_data_loss_half_width: 0x3f82a5c645e6f928,
        loss_missions: 9939,
        nomdl_per_tb: 0x3f36780e69289e45,
        mean_time_to_first_loss: 0x40e3dee2eaa26691,
        effective_sample_size: 0x40bce114bc901eec,
        max_weight: 0x40375be05a4b816b,
        counters: 0x7019493097381282,
    },
    // fo-r5-3-hep0.01-fb
    Pin {
        availability_mean: 0x3fefffffec460f82,
        availability_half_width: 0x3e29dafb61b0b232,
        overall_availability: 0x3fefffffec460f84,
        mean_downtime_hours: 0x3f6a5e1a22d3db73,
        du_downtime_share: 0x3fa0b8cbfab686bf,
        du_events: 3206,
        dl_events: 20798,
        p_data_loss_mean: 0x3fe82ed1935b6d02,
        p_data_loss_half_width: 0x3f80060eccb0b436,
        loss_missions: 15116,
        nomdl_per_tb: 0x3f189a929aa9dfaf,
        mean_time_to_first_loss: 0x40e2ed0fe34b7198,
        effective_sample_size: 0x4094d0985c303f53,
        max_weight: 0x404430e59ca5b60b,
        counters: 0xe2097d3fe893445e,
    },
    // conv-r5-3-hep0.01-lam1e-3
    Pin {
        availability_mean: 0x3fefe030414cf1a6,
        availability_half_width: 0x3eff136e5a794741,
        overall_availability: 0x3fefe030414cf1a1,
        mean_downtime_hours: 0x407542bfdb7b62f8,
        du_downtime_share: 0x3fb69bc1a5afa0cc,
        du_events: 600087,
        dl_events: 186458,
        p_data_loss_mean: 0x3feffe3b6ed08fa6,
        p_data_loss_half_width: 0x3f2b841977df1c0f,
        loss_missions: 19999,
        nomdl_per_tb: 0x4008dc6edd750253,
        mean_time_to_first_loss: 0x40c23f2a6dce5bd6,
        effective_sample_size: 0x40d3880000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0xece4607e2d2de6f5,
    },
    // fo-r5-3-hep0.01-lam1e-3
    Pin {
        availability_mean: 0x3fefe17870b67c5e,
        availability_half_width: 0x3effeecae06e1bc1,
        overall_availability: 0x3fefe17870b67c5c,
        mean_downtime_hours: 0x407467696b89d29f,
        du_downtime_share: 0x3f277f9617a6f8c9,
        du_events: 1167,
        dl_events: 195858,
        p_data_loss_mean: 0x3feffea4417541f5,
        p_data_loss_half_width: 0x3f25bbe8abe0b541,
        loss_missions: 20000,
        nomdl_per_tb: 0x402395f6fd21ff2e,
        mean_time_to_first_loss: 0x40c14fe4ed795fe1,
        effective_sample_size: 0x40d3880000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0x7d0afe34d12b8ccf,
    },
    // conv-r1-hep0-lam1e-3-lse
    Pin {
        availability_mean: 0x3feff1f0e0f6ae3f,
        availability_half_width: 0x3ef5e09d27665250,
        overall_availability: 0x3feff1f0e0f6ae3f,
        mean_downtime_hours: 0x4062cad64c44f709,
        du_downtime_share: 0x0000000000000000,
        du_events: 0,
        dl_events: 90207,
        p_data_loss_mean: 0x3fefaab393927849,
        p_data_loss_half_width: 0x3f5e2b6fe56ff93a,
        loss_missions: 19795,
        nomdl_per_tb: 0x40120a9930be0ded,
        mean_time_to_first_loss: 0x40d1fbfc5ab61ff4,
        effective_sample_size: 0x40d3880000000000,
        max_weight: 0x3ff0000000000000,
        counters: 0xf4fea337161cde7f,
    },
];

/// Pinned `mission_digest`s, one per entry of `MISSION_DIGEST_CASES`.
const MISSION_DIGESTS: [u64; 4] = [
    // conv-3e-6
    0xb2836e104e8f2764,
    // conv-1e-3
    0x9573b232e15bc2ce,
    // fo-3e-6
    0xaf331c900026a8a1,
    // fo-1e-3
    0xb5b2bc0e7a620eab,
];

fn assert_pinned(c: &Cell, pinned: &Pin, threads: usize, telemetry: bool) {
    let got = pin_of(&run(c, threads, telemetry));
    let want = Pin {
        // Telemetry only counts; with it off the snapshot is all zeros.
        counters: if telemetry {
            pinned.counters
        } else {
            counters_digest(&CounterSnapshot::default())
        },
        ..*pinned
    };
    for ((name, g), (_, w)) in got.fields().into_iter().zip(want.fields()) {
        assert_eq!(
            g, w,
            "{} at {threads} thread(s), telemetry {telemetry}: {name} is {g:#018x}, pinned {w:#018x}",
            c.label
        );
    }
}

#[test]
fn jump_chain_estimates_match_pins_at_one_thread() {
    for (c, pin) in CELLS.iter().zip(&PINS) {
        assert_pinned(c, pin, 1, true);
    }
}

#[test]
fn jump_chain_estimates_match_pins_at_four_threads() {
    for (c, pin) in CELLS.iter().zip(&PINS) {
        assert_pinned(c, pin, 4, true);
    }
}

#[test]
fn jump_chain_estimates_match_pins_with_telemetry_off() {
    for (c, pin) in CELLS.iter().zip(&PINS) {
        assert_pinned(c, pin, 4, false);
    }
}

#[test]
fn single_mission_outcomes_and_rng_state_match_pins() {
    for ((policy, lambda, label), &want) in MISSION_DIGEST_CASES.iter().zip(&MISSION_DIGESTS) {
        let got = mission_digest(*policy, *lambda, MISSIONS_PER_DIGEST);
        assert_eq!(
            got, want,
            "{label}: digest {got:#018x}, pinned {want:#018x}"
        );
    }
}
