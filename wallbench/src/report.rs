//! Turns a finished run into metrics and prints them: one human line
//! per metric, the deterministic digest, and the closing JSON line.

use crate::measure::Recorder;
use crate::workloads::Workload;

/// Op latencies needed before the 99th percentile is reported.
const P99_MIN_OPS: usize = 1000;

/// The tail quantile reported for `n` op latencies: the highest one with
/// at least ten samples beyond it, capped at the 99th percentile.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(20) as f64).min(0.99)
}

/// Estelle module types whose firings per op are reported one by one;
/// any other type is summed into `estelle.firings.other`.
pub const MODULE_TYPES: [&str; 12] = [
    "AppMachine",
    "ClientRoot",
    "ClientMca",
    "ServerRoot",
    "ServerMca",
    "DuaAgent",
    "SuaAgent",
    "EuaAgent",
    "PresentationMachine",
    "SessionMachine",
    "IsodeInterfaceModule",
    "MediumModule",
];

/// Op kinds whose median latency is reported one by one.
pub const OP_KINDS: [&str; 8] = [
    "Associate",
    "List",
    "SelectMovie",
    "Play",
    "Query",
    "Stop",
    "Deselect",
    "Release",
];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank.
pub fn quantile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct Report {
    pub correct: bool,
    pub end_to_end: Vec<Metric>,
    /// Printed for people, never put in the JSON line.
    pub extra: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Report {
    pub fn new(rec: &Recorder, wall_s: f64, span_cost_ns: Option<f64>) -> Self {
        let measured_s = rec.measured_ns as f64 / 1e9;
        let sim_s = rec.sim_us as f64 / 1e6;
        let ops = rec.op_ns.len();
        let op_p50_us = quantile(&rec.op_ns, 0.5) / 1e3;
        let tail_q = tail_quantile(ops);
        let end_to_end = vec![
            metric(
                "sessions_per_s",
                ratio(rec.sessions as f64, measured_s),
                "1/s",
            ),
            metric("op_p50_us", op_p50_us, "us"),
            metric("sim_s_per_wall_s", ratio(sim_s, measured_s), "sim_s/s"),
            metric("frames_per_s", ratio(rec.frames as f64, measured_s), "1/s"),
            metric("setup_s", quantile(&rec.setup_ns, 0.5) / 1e9, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        let op_tail_us = quantile(&rec.op_ns, tail_q) / 1e3;
        let mut extra = vec![metric("op_tail_us", op_tail_us, "us")];
        if ops >= P99_MIN_OPS {
            extra.push(metric("op_p99_us", quantile(&rec.op_ns, 0.99) / 1e3, "us"));
        }
        extra.extend([
            metric("op_tail_quantile", tail_q, "ratio"),
            metric(
                "op_fail_ratio",
                ratio(rec.failed as f64, rec.attempted as f64),
                "ratio",
            ),
            metric("ops", ops as f64, "count"),
            metric("sessions", rec.sessions as f64, "count"),
            metric("frames", rec.frames as f64, "count"),
            metric("episodes", rec.episodes.len() as f64, "count"),
            metric("setups", rec.setup_ns.len() as f64, "count"),
            metric("measured_s", measured_s, "s"),
            metric("wall_s", wall_s, "s"),
        ]);
        let per_layer = match span_cost_ns {
            Some(cost) => {
                let mut layers = per_layer(rec, wall_s, cost);
                layers.extend([
                    metric("core.op_tail_us", op_tail_us, "us"),
                    metric("trace.op_p50_us", op_p50_us, "us"),
                    metric(
                        "trace.sim_s_per_wall_s",
                        ratio(sim_s, measured_s),
                        "sim_s/s",
                    ),
                ]);
                layers
            }
            None => Vec::new(),
        };
        Report {
            correct: rec.violations.is_empty() && rec.failed == 0 && rec.attempted > 0,
            end_to_end,
            extra,
            per_layer,
        }
    }

    pub fn print(&self, workload: Workload, seed: u64, rec: &Recorder) {
        let traced = !self.per_layer.is_empty();
        println!(
            "workload {} seed {seed} trace {}",
            workload.name(),
            u8::from(traced)
        );
        for v in &rec.violations {
            println!("violation: {v}");
        }
        if let Some(digest) = &rec.digest {
            println!("{}", digest.line());
        }
        for (i, e) in rec.episodes.iter().enumerate() {
            println!(
                "episode {i} measured_ms {:.3} sim_s {:.3} sessions {} frames {} ops {}",
                e.measured_ns as f64 / 1e6,
                e.sim_us as f64 / 1e6,
                e.sessions,
                e.frames,
                e.ops
            );
        }
        for m in self.end_to_end.iter().chain(&self.extra) {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        }
        if traced {
            for (name, t) in rec.tracer.totals() {
                println!(
                    "span {name}: count {} total_ms {:.3} self_ms {:.3}",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
            for m in &self.per_layer {
                println!("layer {} = {} {}", m.name, m.value, m.unit);
            }
        }
        let shown = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = shown
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            rec.attempted,
            rec.failed,
            metrics.join(",")
        );
    }
}

/// The per-layer metrics. Counts are divided by ops, episodes or
/// simulated seconds, and self times by the run's wall time, so that a
/// faster program, which fits more episodes into a run, does not read as
/// doing more work.
fn per_layer(rec: &Recorder, wall_s: f64, span_cost_ns: f64) -> Vec<Metric> {
    let l = &rec.layers;
    let sim_s = rec.sim_us as f64 / 1e6;
    let episodes = rec.episodes.len() as f64;
    let wall_ns = wall_s * 1e9;
    // `run_for` and `client_op` both run the world's driver loop.
    let driver_ns = l.run_for_ns + l.client_op_ns;
    let ops = rec.op_ns.len() as f64;
    let estelle_ns = (l.scan_ns + l.action_ns) as f64;
    let totals = rec.tracer.totals();
    let span_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let layer_self = rec.tracer.layer_self_ns();
    let self_share =
        |layer: &str| ratio(layer_self.get(layer).copied().unwrap_or(0) as f64, wall_ns);
    let root_ns: u64 = rec
        .tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum();
    let spans = rec.tracer.spans().len() as f64;

    let mut out = vec![
        metric(
            "estelle.selects_per_firing",
            ratio(l.selects as f64, l.firings as f64),
            "ratio",
        ),
        metric(
            "estelle.scan_share",
            ratio(l.scan_ns as f64, driver_ns as f64),
            "ratio",
        ),
        metric(
            "estelle.firings_per_op",
            ratio(l.firings as f64, ops),
            "ratio",
        ),
    ];
    let mut other = l.firings_by_type.values().sum::<u64>();
    for ty in MODULE_TYPES {
        let n = l.firings_by_type.get(ty).copied().unwrap_or(0);
        other -= n;
        out.push(metric(
            format!("estelle.firings.{ty}"),
            ratio(n as f64, ops),
            "count/op",
        ));
    }
    out.push(metric(
        "estelle.firings.other",
        ratio(other as f64, ops),
        "count/op",
    ));
    out.push(metric(
        "estelle.self_share",
        ratio(estelle_ns, wall_ns),
        "ratio",
    ));

    for kind in OP_KINDS {
        let p50 = rec
            .op_ns_by_kind
            .get(kind)
            .map_or(0.0, |v| quantile(v, 0.5) / 1e3);
        out.push(metric(format!("core.client_op_us.{kind}"), p50, "us"));
    }
    out.extend([
        metric(
            "core.run_for_ms_per_sim_s",
            ratio(driver_ns as f64 / 1e6, sim_s),
            "ms/sim_s",
        ),
        metric(
            "core.driver_self_ms_per_sim_s",
            ratio(
                driver_ns.saturating_sub(l.scan_ns + l.action_ns) as f64 / 1e6,
                sim_s,
            ),
            "ms/sim_s",
        ),
        metric(
            "core.setup.build_us",
            quantile(&l.setup_build_ns, 0.5) / 1e3,
            "us",
        ),
        metric(
            "core.setup.start_us",
            quantile(&l.setup_start_ns, 0.5) / 1e3,
            "us",
        ),
        metric(
            "core.setup.seed_us",
            quantile(&l.setup_seed_ns, 0.5) / 1e3,
            "us",
        ),
        metric(
            "core.self_share",
            (self_share("core") - ratio(estelle_ns, wall_ns)).max(0.0),
            "ratio",
        ),
        metric(
            "workload.compile_ms",
            quantile(&l.compile_ns, 0.5) / 1e6,
            "ms",
        ),
        metric("workload.self_share", self_share("workload"), "ratio"),
        metric(
            "netsim.ctrl_bytes_per_op",
            ratio(l.ctrl_bytes as f64, ops),
            "B/op",
        ),
        metric(
            "netsim.ctrl_packets_per_op",
            ratio(l.ctrl_packets as f64, ops),
            "count/op",
        ),
        metric(
            "mtp.poll_ns_per_frame",
            ratio(span_ns("mtp.poll"), rec.frames as f64),
            "ns/frame",
        ),
        metric(
            "mtp.late_permille",
            ratio(1000.0 * l.rx_late as f64, l.rx_received as f64),
            "permille",
        ),
        metric(
            "mtp.lost_permille",
            ratio(
                1000.0 * l.rx_lost as f64,
                (l.rx_received + l.rx_lost) as f64,
            ),
            "permille",
        ),
        metric("mtp.self_share", self_share("mtp"), "ratio"),
        metric(
            "store.service_hit_permille",
            ratio(1000.0 * l.cache_served as f64, l.cache_lookups as f64),
            "permille",
        ),
        metric(
            "store.blocks_delivered_per_sim_s",
            ratio(l.blocks_delivered as f64, sim_s),
            "1/sim_s",
        ),
        metric(
            "store.disk_queue_depth_max",
            f64::from(l.disk_queue_max),
            "count",
        ),
        metric(
            "store.blocks_recorded",
            ratio(l.blocks_recorded as f64, episodes),
            "count/episode",
        ),
        metric(
            "store.blocks_imported",
            ratio(l.blocks_imported as f64, episodes),
            "count/episode",
        ),
        metric(
            "store.rebuild_sim_ms",
            quantile(&l.rebuild_sim_us, 0.5) / 1e3,
            "sim_ms",
        ),
        metric(
            "share.merges",
            ratio(l.merges as f64, episodes),
            "count/episode",
        ),
        metric(
            "share.fast_feeds",
            ratio(l.fast_feeds as f64, episodes),
            "count/episode",
        ),
        metric(
            "share.shared_permille",
            ratio(
                1000.0 * (l.merges + l.fast_feeds) as f64,
                l.streams_admitted as f64,
            ),
            "permille",
        ),
        metric(
            "cluster.route_decisions",
            ratio(l.route_decisions as f64, ops),
            "count/op",
        ),
        metric(
            "cluster.referrals_followed",
            ratio(l.referrals_followed as f64, ops),
            "count/op",
        ),
        metric(
            "cluster.copies_completed",
            ratio(l.copies_completed as f64, episodes),
            "count/episode",
        ),
        metric(
            "journal.events_per_sim_s",
            ratio(l.journal_events as f64, sim_s),
            "1/sim_s",
        ),
        metric(
            "journal.events_per_op",
            ratio(l.journal_events as f64, ops),
            "ratio",
        ),
        metric(
            "journal.verify_ms",
            ratio(
                span_ns("journal.verify") / 1e6,
                totals.get("journal.verify").map_or(0, |t| t.count) as f64,
            ),
            "ms",
        ),
        metric("journal.self_share", self_share("journal"), "ratio"),
        metric("alloc.per_op", ratio(l.alloc_ops as f64, ops), "count/op"),
        metric(
            "alloc.per_frame",
            ratio(l.alloc_frames as f64, rec.frames as f64),
            "count/frame",
        ),
        metric(
            "bench.self_share",
            ratio((wall_ns - root_ns as f64).max(0.0), wall_ns),
            "ratio",
        ),
        metric("trace.spans", ratio(spans, episodes), "count/episode"),
        metric("trace.span_cost_ns", span_cost_ns, "ns"),
        metric(
            "trace.overhead_share",
            ratio(spans * span_cost_ns, wall_ns),
            "ratio",
        ),
    ]);
    out
}
