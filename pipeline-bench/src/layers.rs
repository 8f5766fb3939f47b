//! Per-layer numbers for the traced run: the simulator's self-profile,
//! store ingest timings, in-process answer and codec loops on the final
//! cut, and per-class round trips, each with the remainder no layer
//! accounts for.

use crate::pipeline::CLASSES;
use crate::report::{mean, median, metric, Metric};
use crate::spans::Spans;
use crate::{Pass, Round};
use dophy::infer::Evidence;
use dophy_serve::{decode_frame, encode_frame, LinkKey, Request, Response, TomographyView};
use dophy_sim::ProfileReport;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Requests per class in each in-process probe loop.
const PROBE_REQUESTS: usize = 2000;
/// Passes over each probe loop; the median pass is kept.
const PROBE_PASSES: usize = 5;

/// Probe span names: `[answer, encode, decode][class]`.
const PROBE_SPANS: [[&str; 5]; 3] = [
    [
        "answer.top_k",
        "answer.per_link",
        "answer.coverage",
        "answer.path",
        "answer.stats",
    ],
    [
        "encode.top_k",
        "encode.per_link",
        "encode.coverage",
        "encode.path",
        "encode.stats",
    ],
    [
        "decode.top_k",
        "decode.per_link",
        "decode.coverage",
        "decode.path",
        "decode.stats",
    ],
];

/// What a traced pass measured beyond the end-to-end phases.
pub struct Traced {
    /// `RunTelemetry::wall_seconds`: the simulation loop alone.
    pub loop_s: f64,
    pub profile: ProfileReport,
    pub decode_success_ratio: f64,
    /// Total nanoseconds and count of the `ingest` calls that cut nothing.
    pub observe: (u64, u64),
    pub touched_share: f64,
    pub probes: Probes,
}

/// In-process costs per request class on the final cut.
pub struct Probes {
    pub answer_ns: [f64; 5],
    /// Mean per frame over the requests and their responses.
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub request_bytes: f64,
    pub response_bytes: f64,
}

/// Median-pass nanoseconds per item of `f` over `n` items.
fn per_item_ns(n: usize, spans: &mut Spans, name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut passes = Vec::with_capacity(PROBE_PASSES);
    for _ in 0..PROBE_PASSES {
        let a = Instant::now();
        f();
        let b = Instant::now();
        spans.record("probe", name, a, b);
        passes.push((b - a).as_nanos() as f64 / n.max(1) as f64);
    }
    median(&passes)
}

/// Times `TomographyView::answer`, `encode_frame` and `decode_frame`
/// per class, on the requests the pass sent.
pub fn probe(
    view: &dyn TomographyView,
    requests: &[Request],
    spans: &mut Spans,
) -> Result<Probes, String> {
    let mut answer_ns = [0.0; 5];
    let (mut enc, mut dec, mut req_bytes, mut resp_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (c, answer) in answer_ns.iter_mut().enumerate() {
        let reqs: Vec<&Request> = requests
            .iter()
            .skip(c)
            .step_by(CLASSES.len())
            .take(PROBE_REQUESTS)
            .collect();
        let n = reqs.len();
        *answer = per_item_ns(n, spans, PROBE_SPANS[0][c], || {
            for r in &reqs {
                black_box(view.answer(black_box(r)));
            }
        });
        let resps: Vec<Response> = reqs.iter().map(|r| view.answer(r)).collect();
        let req_frames = reqs
            .iter()
            .map(|r| encode_frame(*r))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let resp_frames = resps
            .iter()
            .map(encode_frame)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let enc_ns = per_item_ns(2 * n, spans, PROBE_SPANS[1][c], || {
            for r in &reqs {
                black_box(encode_frame(black_box(*r)).ok());
            }
            for r in &resps {
                black_box(encode_frame(black_box(r)).ok());
            }
        });
        let dec_ns = per_item_ns(2 * n, spans, PROBE_SPANS[2][c], || {
            for f in &req_frames {
                black_box(decode_frame::<Request>(black_box(f)).ok());
            }
            for f in &resp_frames {
                black_box(decode_frame::<Response>(black_box(f)).ok());
            }
        });
        enc.push(enc_ns);
        dec.push(dec_ns);
        req_bytes.push(mean(
            &req_frames
                .iter()
                .map(|f| f.len() as f64)
                .collect::<Vec<_>>(),
        ));
        resp_bytes.push(mean(
            &resp_frames
                .iter()
                .map(|f| f.len() as f64)
                .collect::<Vec<_>>(),
        ));
    }
    // The mix sends every class equally often, so class means average
    // into mix means.
    Ok(Probes {
        answer_ns,
        encode_ns: mean(&enc),
        decode_ns: mean(&dec),
        request_bytes: mean(&req_bytes),
        response_bytes: mean(&resp_bytes),
    })
}

fn links_of(ev: &Evidence) -> Vec<LinkKey> {
    match ev {
        Evidence::Hop {
            sender, receiver, ..
        } => vec![(*sender, *receiver)],
        Evidence::PathOutcome { path, .. } => path.clone(),
    }
}

/// Mean over generations of (links with evidence in the generation) ÷
/// (links seen so far): the most that re-solving only touched links
/// could save at publish.
pub fn touched_share(events: &[Evidence], publish_every: u64) -> f64 {
    let mut seen = HashSet::new();
    let mut touched = HashSet::new();
    let mut shares = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        for link in links_of(ev) {
            seen.insert(link);
            touched.insert(link);
        }
        if (i as u64 + 1).is_multiple_of(publish_every) {
            shares.push(touched.len() as f64 / seen.len().max(1) as f64);
            touched.clear();
        }
    }
    if !touched.is_empty() {
        shares.push(touched.len() as f64 / seen.len() as f64);
    }
    mean(&shares)
}

fn subsystem_s(profile: &ProfileReport, name: &str) -> f64 {
    profile
        .subsystems
        .iter()
        .find(|s| s.subsystem == name)
        .map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

/// Every per-layer metric, from untraced and traced rounds of the same
/// workload and seed made in turn: each traced pass's layers, median
/// over the traced passes, then each phase's median traced wall time
/// over its median untraced one.
pub fn per_layer(base: &[Round], traced: &[Round]) -> Result<Vec<Metric>, String> {
    let each = traced
        .iter()
        .flat_map(|r| r.passes.iter().map(move |p| (r.sim_wall_s, p)))
        .map(|(sim_wall_s, p)| {
            p.traced
                .as_ref()
                .map(|t| pass_layers(sim_wall_s, p, t))
                .ok_or("traced pass has no layers")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let first = each.first().ok_or("no traced pass")?;
    let mut m: Vec<Metric> = first
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let values: Vec<f64> = each.iter().map(|r| r[i].value).collect();
            metric(f.name, f.unit, median(&values))
        })
        .collect();
    let sim = |rounds: &[Round]| median(&rounds.iter().map(|r| r.sim_wall_s).collect::<Vec<_>>());
    let pass = |rounds: &[Round], leg: fn(&Pass) -> f64| {
        median(
            &rounds
                .iter()
                .flat_map(|r| &r.passes)
                .map(leg)
                .collect::<Vec<_>>(),
        )
    };
    m.extend([
        metric("trace.overhead.simulate", "ratio", sim(traced) / sim(base)),
        metric(
            "trace.overhead.ingest",
            "ratio",
            pass(traced, |p| p.ingest_wall_s) / pass(base, |p| p.ingest_wall_s),
        ),
        metric(
            "trace.overhead.query",
            "ratio",
            pass(traced, |p| p.query_wall_s) / pass(base, |p| p.query_wall_s),
        ),
    ]);
    Ok(m)
}

/// The per-layer metrics of one traced pass over a simulation that took
/// `sim_wall_s`.
fn pass_layers(sim_wall_s: f64, pass: &Pass, t: &Traced) -> Vec<Metric> {
    let p = &t.profile;
    let queue_pop = subsystem_s(p, "queue_pop");
    let fanout = subsystem_s(p, "broadcast_fanout");
    let arq = subsystem_s(p, "unicast_arq");
    let decode = subsystem_s(p, "decode");
    let update = subsystem_s(p, "estimator_update");
    let rtt_us: Vec<f64> = pass.rtt_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let class_rtt_us = |c: usize| -> f64 {
        median(
            &rtt_us
                .iter()
                .skip(c)
                .step_by(CLASSES.len())
                .copied()
                .collect::<Vec<_>>(),
        )
    };
    let pr = &t.probes;
    let in_process_ns = mean(&pr.answer_ns) + 2.0 * pr.encode_ns + 2.0 * pr.decode_ns;
    let cut_ms: Vec<f64> = pass.cut_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let mut m = vec![
        metric("sim.build_s", "s", pass.build_s),
        metric("sim.events", "count", pass.fingerprint.sim_events as f64),
        metric("sim.loop_s", "s", t.loop_s),
        metric("sim.queue_pop_s", "s", queue_pop),
        metric("sim.broadcast_fanout_s", "s", fanout),
        metric("sim.unicast_arq_s", "s", arq),
        metric(
            "sim.unattributed_s",
            "s",
            t.loop_s - (queue_pop + fanout + arq + decode + update),
        ),
        metric("core.decode_s", "s", decode),
        metric("core.estimator_update_s", "s", update),
        metric("core.decode_success_ratio", "ratio", t.decode_success_ratio),
        metric(
            "core.evidence_events",
            "count",
            pass.fingerprint.evidence as f64,
        ),
        metric(
            "scenario.extract_s",
            "s",
            sim_wall_s - t.loop_s - pass.build_s,
        ),
        metric(
            "store.observe_ns",
            "ns",
            t.observe.0 as f64 / t.observe.1.max(1) as f64,
        ),
        metric("store.publish_ms", "ms", mean(&cut_ms)),
        metric(
            "store.publishes",
            "count",
            pass.fingerprint.generations as f64,
        ),
        metric("store.links", "count", pass.fingerprint.links as f64),
        metric("store.touched_share", "ratio", t.touched_share),
    ];
    const ANSWER: [&str; 5] = [
        "proto.answer_ns.top_k",
        "proto.answer_ns.per_link",
        "proto.answer_ns.coverage",
        "proto.answer_ns.path",
        "proto.answer_ns.stats",
    ];
    const RTT: [&str; 5] = [
        "net.rtt_p50_us.top_k",
        "net.rtt_p50_us.per_link",
        "net.rtt_p50_us.coverage",
        "net.rtt_p50_us.path",
        "net.rtt_p50_us.stats",
    ];
    m.extend(
        ANSWER
            .iter()
            .zip(pr.answer_ns)
            .map(|(n, v)| metric(n, "ns", v)),
    );
    m.extend([
        metric("wire.encode_ns", "ns", pr.encode_ns),
        metric("wire.decode_ns", "ns", pr.decode_ns),
        metric("wire.request_bytes", "bytes", pr.request_bytes),
        metric("wire.response_bytes", "bytes", pr.response_bytes),
    ]);
    m.extend(
        RTT.iter()
            .enumerate()
            .map(|(c, n)| metric(n, "us", class_rtt_us(c))),
    );
    m.push(metric(
        "net.transport_us",
        "us",
        median(&rtt_us) - in_process_ns / 1e3,
    ));
    m
}
