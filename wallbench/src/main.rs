//! Wall-clock benchmark of the MCAM world.
//!
//! ```text
//! wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|tiny] [--corrupt confirm|frames|journal]
//! ```
//!
//! Runs one workload for about `--seconds` wall seconds, checks its
//! outputs, prints every metric by name with its unit, and ends with a
//! one-line JSON result. With `--trace 0` the result holds the
//! end-to-end metrics; with `--trace 1` it holds the per-layer metrics
//! read from spans around the benchmark's calls into each layer and
//! from each layer's public counters. See `README.md`.

mod measure;
mod report;
mod trace;
mod workloads;

use bench::CountingAllocator;
use measure::{Corrupt, Recorder};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Scale, Workload};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Extra set-ups made (and dropped) after every episode. Set-up takes
/// about 0.1 ms, and the host's speed shifts by up to half for seconds
/// at a time, so `setup_s` is the median of samples spread over the run.
const SETUPS_PER_EPISODE: u64 = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    corrupt: Option<Corrupt>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::FULL;
    let mut corrupt = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::FULL,
                    "tiny" => Scale::TINY,
                    _ => return Err(format!("unknown scale {value}")),
                }
            }
            "--corrupt" => {
                corrupt = Some(
                    Corrupt::parse(&value).ok_or_else(|| format!("unknown corruption {value}"))?,
                )
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
        corrupt,
    })
}

/// The seed of one episode: a SplitMix64 step over the run's seed.
fn episode_seed(seed: u64, episode: u64) -> u64 {
    let mut z = seed
        .wrapping_add(episode.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000_007
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rec = Recorder::new(args.trace, args.corrupt);
    let span_cost_ns = args.trace.then(trace::span_cost_ns);
    let started = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut episode = 0;
    loop {
        let seed = episode_seed(args.seed, episode);
        args.workload.episode(&mut rec, seed, &args.scale);
        for i in 0..SETUPS_PER_EPISODE {
            let seed = episode_seed(args.seed, u64::MAX - episode * SETUPS_PER_EPISODE - i);
            drop(args.workload.setup(&mut rec, seed, &args.scale));
        }
        episode += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let result = report::Report::new(&rec, wall_s, span_cost_ns);
    result.print(args.workload, args.seed, &rec);
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
