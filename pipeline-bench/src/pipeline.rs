//! The three phases of one round, driven through the workspace's public
//! functions only: set up (build the network, create a store, serve it
//! on loopback, connect), simulate, ingest, query.

use crate::spans::Spans;
use crate::workload::Workload;
use dophy::infer::Evidence;
use dophy::protocol::{build_sharded_simulation, build_simulation};
use dophy_bench::executor::StableHasher;
use dophy_bench::figures::canonical_dophy;
use dophy_bench::{run_scenario_with, Instruments, RunOutput};
use dophy_serve::{
    serve, Client, LinkKey, Request, Response, ServeStore, StoreSnapshot, TomographyView,
};
use dophy_sim::rng::splitmix64;
use parking_lot::Mutex;
use std::hash::Hasher as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Every this many timed requests, the framed answer is checked against
/// the store's in-process answer.
pub const IDENTITY_EVERY: usize = 64;

/// Hops in each `Path` request.
const PATH_HOPS: usize = 16;

/// One in this many picked links is one the store has never estimated,
/// so `Unknown` answers are exercised.
const UNKNOWN_ONE_IN: u64 = 8;

/// A fresh store served over loopback, with one connected client.
pub struct Service {
    /// The store's ingest surface.
    pub store: Arc<dyn ServeStore>,
    /// The same store's query surface, which the server also answers from.
    pub view: Arc<dyn TomographyView>,
    client: Client,
    listener: TcpListener,
    addr: SocketAddr,
    server: JoinHandle<io::Result<()>>,
    /// Seconds spent building the simulated network.
    pub build_s: f64,
    /// Seconds for the whole set-up.
    pub setup_s: f64,
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Service {
    /// Builds the workload's network, creates an empty store, serves it
    /// on a loopback listener and connects one client.
    pub fn start(wl: &Workload, spans: &mut Spans) -> Result<Self, String> {
        let sim = wl.sim_config();
        let dophy = canonical_dophy();
        let t0 = Instant::now();
        // The scenario builds its own engine; this one only measures the
        // cost of building the network and is dropped after set-up.
        let built: Box<dyn std::any::Any> = if wl.engine_shards == 0 {
            Box::new(build_simulation(&sim, &dophy))
        } else {
            Box::new(build_sharded_simulation(&sim, &dophy, wl.engine_shards))
        };
        let t1 = Instant::now();
        let (store, view) = wl.new_store();
        let t2 = Instant::now();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err("bind"))?;
        let addr = listener.local_addr().map_err(io_err("local_addr"))?;
        let serving = listener.try_clone().map_err(io_err("listener clone"))?;
        let served = Arc::clone(&view);
        let server = std::thread::Builder::new()
            .name("serve".into())
            .spawn(move || serve(serving, served))
            .map_err(io_err("spawn server"))?;
        let t3 = Instant::now();
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let t4 = Instant::now();
        drop(built);
        spans.record("setup", "setup", t0, t4);
        spans.record("setup", "build_simulation", t0, t1);
        spans.record("setup", "store_new", t1, t2);
        spans.record("setup", "serve_start", t2, t3);
        spans.record("setup", "connect", t3, t4);
        Ok(Self {
            store,
            view,
            client,
            listener,
            addr,
            server,
            build_s: (t1 - t0).as_secs_f64(),
            setup_s: (t4 - t0).as_secs_f64(),
        })
    }

    /// Closes the client and stops the server, joining its accept thread:
    /// with the listener non-blocking, one wake-up connection makes the
    /// blocked `accept` return and the next one fail, which ends `serve`.
    pub fn stop(self) -> Result<(), String> {
        drop(self.client);
        self.listener
            .set_nonblocking(true)
            .map_err(io_err("listener nonblocking"))?;
        drop(TcpStream::connect(self.addr).map_err(io_err("wake server"))?);
        match self.server.join() {
            Ok(Err(e)) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Phase 1: the whole scenario with the evidence tap attached.
pub struct Simulated {
    pub wall_s: f64,
    pub out: RunOutput,
    pub evidence: Vec<Evidence>,
}

/// Runs the workload's scenario, capturing its evidence stream.
pub fn simulate(wl: &Workload, profile: bool, spans: &mut Spans) -> Simulated {
    let buffer = Arc::new(Mutex::new(Vec::new()));
    let inst = Instruments {
        evidence: Some(Arc::clone(&buffer)),
        profile,
        ..Instruments::default()
    };
    let spec = wl.run_spec();
    let t0 = Instant::now();
    let out = run_scenario_with(&spec, inst);
    let evidence = std::mem::take(&mut *buffer.lock());
    let t1 = Instant::now();
    spans.record("simulate", "run_scenario_with", t0, t1);
    Simulated {
        wall_s: (t1 - t0).as_secs_f64(),
        out,
        evidence,
    }
}

/// Phase 2: the captured stream into a fresh store from one thread.
pub struct Ingested {
    /// Ingest of the whole stream plus the final `publish_cut`.
    pub wall_s: f64,
    /// The final published cut.
    pub cut: StoreSnapshot,
    /// Duration of each `ingest` call that cut a generation.
    pub cut_ns: Vec<u64>,
    /// Total time and count of the calls that cut nothing (traced only).
    pub observe: Option<(u64, u64)>,
}

fn nanos(a: Instant, b: Instant) -> u64 {
    u64::try_from((b - a).as_nanos()).unwrap_or(u64::MAX)
}

/// Ingests `events` in order and publishes the final cut. Untraced, only
/// the cutting calls are timed; traced, every call is.
pub fn ingest(
    store: &dyn ServeStore,
    events: &[Evidence],
    publish_every: u64,
    spans: &mut Spans,
) -> Ingested {
    let traced = spans.enabled();
    let mut cut_ns = Vec::with_capacity(events.len() / publish_every as usize + 1);
    let mut observe = (0u64, 0u64);
    let mut batch_start: Option<Instant> = None;
    let mut batch_end = Instant::now();
    let t0 = Instant::now();
    for (i, ev) in events.iter().enumerate() {
        let cuts = (i as u64 + 1).is_multiple_of(publish_every);
        if cuts {
            let a = Instant::now();
            store.ingest(ev);
            let b = Instant::now();
            cut_ns.push(nanos(a, b));
            if let Some(start) = batch_start.take() {
                spans.record("ingest", "observe_batch", start, batch_end);
            }
            spans.record("ingest", "publish", a, b);
        } else if traced {
            let a = Instant::now();
            store.ingest(ev);
            let b = Instant::now();
            observe.0 += nanos(a, b);
            observe.1 += 1;
            batch_start.get_or_insert(a);
            batch_end = b;
        } else {
            store.ingest(ev);
        }
    }
    if let Some(start) = batch_start {
        spans.record("ingest", "observe_batch", start, batch_end);
    }
    let a = Instant::now();
    let cut = store.publish_cut();
    let t1 = Instant::now();
    spans.record("ingest", "publish_cut", a, t1);
    Ingested {
        wall_s: (t1 - t0).as_secs_f64(),
        cut,
        cut_ns,
        observe: traced.then_some(observe),
    }
}

/// A chain of SplitMix64 steps: the benchmark's only randomness, seeded
/// by `--seed`.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = splitmix64(self.0);
        self.0 % n.max(1)
    }
}

/// Query classes in `serve::load`'s mix order; request `i` is of class
/// `i % 5`.
pub const CLASSES: [&str; 5] = ["top_k", "per_link", "coverage", "path", "stats"];

/// `n` requests in class order, with links drawn from the final cut
/// plus a share of links the store has never estimated.
pub fn request_mix(cut: &StoreSnapshot, nodes: u32, seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Rng(seed);
    let link = |rng: &mut Rng| -> LinkKey {
        if cut.estimates.is_empty() || rng.below(UNKNOWN_ONE_IN) == 0 {
            for _ in 0..64 {
                let a = rng.below(u64::from(nodes)) as u32;
                let b = rng.below(u64::from(nodes)) as u32;
                if a != b && cut.link((a, b)).is_none() {
                    return (a, b);
                }
            }
            // Ids past the network are never estimated.
            (nodes, nodes + 1)
        } else {
            cut.estimates[rng.below(cut.estimates.len() as u64) as usize].0
        }
    };
    (0..n)
        .map(|i| match i % CLASSES.len() {
            0 => Request::TopK { k: 16 },
            1 => Request::PerLink {
                link: link(&mut rng),
            },
            2 => Request::Coverage {
                link: link(&mut rng),
            },
            3 => Request::Path {
                path: (0..PATH_HOPS).map(|_| link(&mut rng)).collect(),
            },
            _ => Request::Stats,
        })
        .collect()
}

/// Phase 3: one connection, one request outstanding.
pub struct Queried {
    /// Wall time of the timed loop.
    pub wall_s: f64,
    /// Client-side round trip of each timed request, in request order.
    pub rtt_ns: Vec<u64>,
    /// Framed requests sent, warm-up included.
    pub attempted: u64,
    /// Wire errors, `Error`/`NotReady` answers and identity mismatches.
    pub failed: u64,
    /// Framed answers compared with the in-process answer.
    pub identity_samples: u64,
    /// Of those, answers whose JSON differed.
    pub mismatches: u64,
    /// FNV-1a over the JSON of every sampled framed answer.
    pub answers_fnv: u64,
}

/// An answer that counts as a failed request.
fn refused(resp: &Response) -> bool {
    matches!(resp, Response::Error(_) | Response::NotReady { .. })
}

impl Service {
    /// Sends `warmup` untimed, then `requests` timed one by one, then
    /// checks every [`IDENTITY_EVERY`]th framed answer against the
    /// store's in-process answer.
    pub fn query(
        &mut self,
        warmup: &[Request],
        requests: &[Request],
        spans: &mut Spans,
    ) -> Queried {
        let mut failed = 0u64;
        let w0 = Instant::now();
        for req in warmup {
            failed += u64::from(self.client.request(req).map_or(true, |r| refused(&r)));
        }
        let w1 = Instant::now();
        spans.record("query", "warmup", w0, w1);
        let mut rtt_ns = Vec::with_capacity(requests.len());
        let mut sampled = Vec::with_capacity(requests.len() / IDENTITY_EVERY + 1);
        let t0 = Instant::now();
        for (i, req) in requests.iter().enumerate() {
            let a = Instant::now();
            let res = self.client.request(req);
            let b = Instant::now();
            rtt_ns.push(nanos(a, b));
            spans.record_id("query", CLASSES[i % CLASSES.len()], a, b, Some(i as u64));
            match res {
                Ok(resp) if !refused(&resp) => {
                    if i % IDENTITY_EVERY == 0 {
                        sampled.push((i, resp));
                    }
                }
                _ => failed += 1,
            }
        }
        let t1 = Instant::now();
        let (mismatches, answers_fnv) =
            check_identity(self.view.as_ref(), requests, &sampled, spans);
        Queried {
            wall_s: (t1 - t0).as_secs_f64(),
            rtt_ns,
            attempted: (warmup.len() + requests.len()) as u64,
            failed: failed + mismatches,
            identity_samples: sampled.len() as u64,
            mismatches,
            answers_fnv,
        }
    }
}

fn json(resp: &Response) -> String {
    serde_json::to_string(resp).unwrap_or_else(|e| format!("<unserializable: {e}>"))
}

/// Compares each sampled framed answer's JSON with `view`'s in-process
/// answer to the same request. Returns the mismatch count and a digest
/// of the framed answers.
fn check_identity(
    view: &dyn TomographyView,
    requests: &[Request],
    sampled: &[(usize, Response)],
    spans: &mut Spans,
) -> (u64, u64) {
    let mut mismatches = 0u64;
    let mut digest = StableHasher::default();
    for (i, framed) in sampled {
        let a = Instant::now();
        let local = json(&view.answer(&requests[*i]));
        let b = Instant::now();
        spans.record_id("query", "identity_check", a, b, Some(*i as u64));
        let framed = json(framed);
        digest.write(framed.as_bytes());
        mismatches += u64::from(framed != local);
    }
    (mismatches, digest.finish())
}
