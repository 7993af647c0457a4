//! Golden bits of the DoE sweep in every measurement mode.
//!
//! The other differentials compare modes against each other inside one
//! build, so a change that shifts every mode the same way passes them.
//! This test pins absolute results instead: for the small two-batch
//! sweep below, run fixed or precision-targeted, strict or under a
//! [`RunPolicy`], every cell's P_SA bits, a digest of its batch
//! vectors, its adaptive spend and its health record must match the
//! values recorded here; the rare-event mode also pins every cell's
//! multilevel-splitting estimate. Each mode is rendered under both a
//! serial and a parallel [`Executor`], and both must match the same
//! lines. Re-record only for a deliberate change of results, never for
//! a refactoring.

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]

use diversify::attack::campaign::CampaignConfig;
use diversify::core::exec::{Budget, Executor, RunPolicy};
use diversify::core::pipeline::{Pipeline, PipelineConfig, RareEventTarget};
use diversify::core::runner::PrecisionTarget;
use std::fmt::Write as _;

fn tiny_config() -> PipelineConfig {
    PipelineConfig {
        batches: 2,
        batch_size: 4,
        campaign: CampaignConfig {
            max_ticks: 24 * 10,
            detection_stops_attack: false,
        },
        ..PipelineConfig::default()
    }
}

/// FNV-1a over the bit patterns of a sequence of floats.
fn digest<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One line per cell: P_SA bits, batch-vector digest, then the adaptive
/// point, the health record and the splitting estimate (estimate, CI
/// bounds and simulated ticks) when the mode produces them.
fn render(mode: &str, config: PipelineConfig) -> String {
    let doe = Pipeline::new(config)
        .try_doe_measurements()
        .expect("the tiny sweep measures every cell");
    let mut out = String::new();
    for (i, m) in doe.measurements.iter().enumerate() {
        let batches = digest(m.batch_p_success.iter().chain(&m.batch_compromised));
        write!(
            out,
            "{mode} {i:2} p={:016x} b={batches:016x}",
            m.summary.p_success.to_bits()
        )
        .unwrap();
        if let Some(points) = &doe.adaptive {
            let p = &points[i];
            write!(out, " a={}/{}/{}", p.replications, p.batches, p.target_met).unwrap();
        }
        if let Some(cells) = &doe.health {
            let h = &cells[i];
            write!(
                out,
                " h={}/{}/{}/{}",
                h.attempted,
                h.completed,
                h.failures.len(),
                h.budget_outcome
            )
            .unwrap();
        }
        if let Some(points) = &doe.rare_event {
            let s = &points[i];
            write!(
                out,
                " s={:016x}/{:016x}/{:016x}/{}",
                s.estimate.to_bits(),
                s.ci.lower.to_bits(),
                s.ci.upper.to_bits(),
                s.total_ticks
            )
            .unwrap();
        }
        out.push('\n');
    }
    out
}

#[test]
fn sweep_bits_are_pinned_in_every_mode() {
    let target = PrecisionTarget::p_success(0.25, 8, 40);
    // The budget caps adaptive cells mid-run, so the resilient modes
    // also pin the truncation path.
    let policy = RunPolicy::new().with_budget(Budget::unlimited().with_max_replications(24));
    let rare = RareEventTarget {
        population: 16,
        level: 0.95,
    };
    let modes = [
        ("fixed-strict", None, None, None),
        ("fixed-resilient", None, Some(policy.clone()), None),
        ("adaptive-strict", Some(target), None, None),
        ("adaptive-resilient", Some(target), Some(policy), None),
        ("rare-event", None, None, Some(rare)),
    ];
    for executor in [Executor::serial(), Executor::parallel()] {
        let mut actual = String::new();
        for (mode, precision, resilience, rare_event) in modes.clone() {
            actual.push_str(&render(
                mode,
                PipelineConfig {
                    executor,
                    precision,
                    resilience,
                    rare_event,
                    ..tiny_config()
                },
            ));
        }
        assert_eq!(
            actual,
            GOLDEN,
            "{:?} executor: sweep bits moved; actual:\n{actual}",
            executor.mode()
        );
    }
}

const GOLDEN: &str = "\
fixed-strict  0 p=3ff0000000000000 b=86c35a37f0105271\n\
fixed-strict  1 p=3ff0000000000000 b=41e7a76e43fff260\n\
fixed-strict  2 p=3ff0000000000000 b=4e7f0d21deedbe55\n\
fixed-strict  3 p=3ff0000000000000 b=74b855b7aa12e6a3\n\
fixed-strict  4 p=3ff0000000000000 b=d77b50474f1a3136\n\
fixed-strict  5 p=3ff0000000000000 b=d137d9e6997fe665\n\
fixed-strict  6 p=3fe8000000000000 b=b3f015f8f17d0355\n\
fixed-strict  7 p=3fc0000000000000 b=c9231ca757d6fa98\n\
fixed-strict  8 p=3ff0000000000000 b=f3c566e3791379dd\n\
fixed-strict  9 p=3ff0000000000000 b=56e39385f795af44\n\
fixed-strict 10 p=3ff0000000000000 b=d167d9e699a90a27\n\
fixed-strict 11 p=3ff0000000000000 b=d137d9e6997fe665\n\
fixed-strict 12 p=3ff0000000000000 b=866b5a37efc5dc9b\n\
fixed-strict 13 p=3ff0000000000000 b=d137d9e6997fe665\n\
fixed-strict 14 p=3fe0000000000000 b=a0f196693f443ae5\n\
fixed-strict 15 p=3fd8000000000000 b=0a4b5890af0a4c35\n\
fixed-resilient  0 p=3ff0000000000000 b=86c35a37f0105271 h=8/8/0/completed\n\
fixed-resilient  1 p=3ff0000000000000 b=41e7a76e43fff260 h=8/8/0/completed\n\
fixed-resilient  2 p=3ff0000000000000 b=4e7f0d21deedbe55 h=8/8/0/completed\n\
fixed-resilient  3 p=3ff0000000000000 b=74b855b7aa12e6a3 h=8/8/0/completed\n\
fixed-resilient  4 p=3ff0000000000000 b=d77b50474f1a3136 h=8/8/0/completed\n\
fixed-resilient  5 p=3ff0000000000000 b=d137d9e6997fe665 h=8/8/0/completed\n\
fixed-resilient  6 p=3fe8000000000000 b=b3f015f8f17d0355 h=8/8/0/completed\n\
fixed-resilient  7 p=3fc0000000000000 b=c9231ca757d6fa98 h=8/8/0/completed\n\
fixed-resilient  8 p=3ff0000000000000 b=f3c566e3791379dd h=8/8/0/completed\n\
fixed-resilient  9 p=3ff0000000000000 b=56e39385f795af44 h=8/8/0/completed\n\
fixed-resilient 10 p=3ff0000000000000 b=d167d9e699a90a27 h=8/8/0/completed\n\
fixed-resilient 11 p=3ff0000000000000 b=d137d9e6997fe665 h=8/8/0/completed\n\
fixed-resilient 12 p=3ff0000000000000 b=866b5a37efc5dc9b h=8/8/0/completed\n\
fixed-resilient 13 p=3ff0000000000000 b=d137d9e6997fe665 h=8/8/0/completed\n\
fixed-resilient 14 p=3fe0000000000000 b=a0f196693f443ae5 h=8/8/0/completed\n\
fixed-resilient 15 p=3fd8000000000000 b=0a4b5890af0a4c35 h=8/8/0/completed\n\
adaptive-strict  0 p=3ff0000000000000 b=86c35a37f0105271 a=8/2/true\n\
adaptive-strict  1 p=3ff0000000000000 b=41e7a76e43fff260 a=8/2/true\n\
adaptive-strict  2 p=3ff0000000000000 b=4e7f0d21deedbe55 a=8/2/true\n\
adaptive-strict  3 p=3ff0000000000000 b=74b855b7aa12e6a3 a=8/2/true\n\
adaptive-strict  4 p=3ff0000000000000 b=d77b50474f1a3136 a=8/2/true\n\
adaptive-strict  5 p=3ff0000000000000 b=d137d9e6997fe665 a=8/2/true\n\
adaptive-strict  6 p=3fe0cccccccccccd b=2d45cdfc7a721750 a=40/10/false\n\
adaptive-strict  7 p=3fe0000000000000 b=c205d9c4a8ca6598 a=40/10/false\n\
adaptive-strict  8 p=3ff0000000000000 b=f3c566e3791379dd a=8/2/true\n\
adaptive-strict  9 p=3ff0000000000000 b=56e39385f795af44 a=8/2/true\n\
adaptive-strict 10 p=3ff0000000000000 b=d167d9e699a90a27 a=8/2/true\n\
adaptive-strict 11 p=3ff0000000000000 b=d137d9e6997fe665 a=8/2/true\n\
adaptive-strict 12 p=3ff0000000000000 b=866b5a37efc5dc9b a=8/2/true\n\
adaptive-strict 13 p=3ff0000000000000 b=d137d9e6997fe665 a=8/2/true\n\
adaptive-strict 14 p=3fdccccccccccccd b=2df10ce27fe66f25 a=40/10/false\n\
adaptive-strict 15 p=3fe0cccccccccccd b=2fc0a8307fba5b14 a=40/10/false\n\
adaptive-resilient  0 p=3ff0000000000000 b=86c35a37f0105271 a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient  1 p=3ff0000000000000 b=41e7a76e43fff260 a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient  2 p=3ff0000000000000 b=4e7f0d21deedbe55 a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient  3 p=3ff0000000000000 b=74b855b7aa12e6a3 a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient  4 p=3ff0000000000000 b=d77b50474f1a3136 a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient  5 p=3ff0000000000000 b=d137d9e6997fe665 a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient  6 p=3fe0000000000000 b=7366fe0381bf3af8 a=24/6/false h=24/24/0/replication budget\n\
adaptive-resilient  7 p=3fdaaaaaaaaaaaab b=8e70af3734f4dc08 a=24/6/false h=24/24/0/replication budget\n\
adaptive-resilient  8 p=3ff0000000000000 b=f3c566e3791379dd a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient  9 p=3ff0000000000000 b=56e39385f795af44 a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient 10 p=3ff0000000000000 b=d167d9e699a90a27 a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient 11 p=3ff0000000000000 b=d137d9e6997fe665 a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient 12 p=3ff0000000000000 b=866b5a37efc5dc9b a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient 13 p=3ff0000000000000 b=d137d9e6997fe665 a=8/2/true h=8/8/0/precision met\n\
adaptive-resilient 14 p=3fdaaaaaaaaaaaab b=d7c3d0a84ac923a5 a=24/6/false h=24/24/0/replication budget\n\
adaptive-resilient 15 p=3fe2aaaaaaaaaaab b=6fbe0353aeb101ac a=24/6/false h=24/24/0/replication budget\n\
rare-event  0 p=3ff0000000000000 b=86c35a37f0105271 s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/198\n\
rare-event  1 p=3ff0000000000000 b=41e7a76e43fff260 s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/263\n\
rare-event  2 p=3ff0000000000000 b=4e7f0d21deedbe55 s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/408\n\
rare-event  3 p=3ff0000000000000 b=74b855b7aa12e6a3 s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/483\n\
rare-event  4 p=3ff0000000000000 b=d77b50474f1a3136 s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/530\n\
rare-event  5 p=3ff0000000000000 b=d137d9e6997fe665 s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/567\n\
rare-event  6 p=3fe8000000000000 b=b3f015f8f17d0355 s=3fdb000000000000/3fb08961c48018e1/3fe7c4e6d664af22/3656\n\
rare-event  7 p=3fc0000000000000 b=c9231ca757d6fa98 s=3fe5000000000000/3fc098005a89372d/3feca8a4c4aef5a4/2604\n\
rare-event  8 p=3ff0000000000000 b=f3c566e3791379dd s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/249\n\
rare-event  9 p=3ff0000000000000 b=56e39385f795af44 s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/404\n\
rare-event 10 p=3ff0000000000000 b=d167d9e699a90a27 s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/555\n\
rare-event 11 p=3ff0000000000000 b=d137d9e6997fe665 s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/627\n\
rare-event 12 p=3ff0000000000000 b=866b5a37efc5dc9b s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/612\n\
rare-event 13 p=3ff0000000000000 b=d137d9e6997fe665 s=3ff0000000000000/3fd140f5d9c5dcd6/3ff0000000000000/668\n\
rare-event 14 p=3fe0000000000000 b=a0f196693f443ae5 s=3fdb000000000000/3fb08961c48018e1/3fe7c4e6d664af22/3741\n\
rare-event 15 p=3fd8000000000000 b=0a4b5890af0a4c35 s=3fdf800000000000/3fb53f4310308aba/3fe92e1068e65f7a/3286\n";
