//! `service_mix`: the convolve service under two tenants.
//!
//! The mix is every combination of two sizes (16³ with k = 4, 32³ with
//! k = 8), σ ∈ {1, 2}, a dense or a sparse-delta input, and a full or a
//! checksum-only reply: 16 requests under 4 plan keys. One round sends
//! each 16³ request twice and each 32³ request once, small requests being
//! the service's common case. The request bodies are fixed; the seed
//! shuffles the order of a round's steps. Every run sends whole rounds.
//!
//! The timed operations go through the service core, `ConvolveService`,
//! driven from one thread the way the server's front drives it: at each
//! step both tenants' requests arrive as wire bytes (`submit_bytes`: decode,
//! validate, admit, registry), one `pump` serves them as one coalesced
//! batch, and each reply is encoded and decoded as the client would. A
//! step pairs a request with its partner of the same plan key and reply
//! kind but the other input kind, so every round holds the same steps and
//! every run the same mix of step sizes, which independently shuffled
//! tenants varied from run to run. A request's latency is its
//! step's time: like the server, the core hands out replies when the pump
//! returns. Through the threaded `ServiceServer` with two closed-loop
//! tenant threads, throughput moved between 25 and 39 requests/s over
//! minutes on unchanged code, with the host's wake-up latency for the four
//! thread hand-offs per request, so the threaded front, with its
//! independently shuffled tenants and head-of-line waiting, is measured in
//! the traced run only.
//!
//! The worker pool runs on the calling thread alone, as in `cluster_p2`
//! and `massif_n16`. With two pool threads the 16³ steps' many short
//! parallel regions waited on the host waking the second vCPU: a 16³ step
//! took 20 ms instead of 26, but the median latency of ten runs spread
//! 9–24 %, against 1.8–7.2 % on one thread.
//!
//! Every reply misses the 3 % accuracy contract today: the plan registry
//! builds `RateSchedule::paper_default` from the request's far rate
//! instead of a schedule derived from the kernel's spread. Those misses
//! are counted as failed requests and stay in the latency and throughput
//! figures.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use lcc_core::prelude::*;
use lcc_service::wire::{encode_response_into, fnv1a_f64};
use lcc_service::{
    decode_message, encode_request, CodecError, ConvolveRequest, ConvolveService, RequestInput,
    ServedMode, ServiceClient, ServiceConfig, ServiceReport, ServiceServer, TenantId, WireMessage,
};

use super::convolve::cold_plan_build_ms;
use super::{ms, repeated_setup, set_end_to_end, set_trace_common, PhaseClock, Phases, StageTimes};
use crate::inputs::{deltas, smooth_field};
use crate::metrics::{mean, median, percentile, Outcome};
use crate::oracle::{checked_dense_reference, within, PAPER_REL_L2};
use crate::rng::Rng;
use crate::Args;

/// Seed of the fixed request bodies.
const MIX_SEED: u64 = 0x5E41_11CE;
const FAR_RATE: u32 = 8;
const TENANTS: [TenantId; 2] = [TenantId(1), TenantId(2)];
/// Distinct `(n, k, far_rate, sigma)` keys in the mix.
const PLAN_KEYS: u64 = 4;

/// One request of the mix with everything needed to check its reply.
struct Template {
    req: ConvolveRequest,
    /// `session(Normal).convolve` from a separately built convolver.
    expected: Vec<f64>,
    expected_checksum: u64,
    /// Relative L2 of `expected` against the dense reference.
    rel_l2: f64,
    exchange_bytes: usize,
    samples: usize,
    domains_processed: usize,
    domains_skipped: usize,
}

fn grid_of(n: usize, input: &RequestInput) -> Grid3<f64> {
    match input {
        RequestInput::Dense(v) => Grid3::from_vec((n, n, n), v.clone()),
        RequestInput::Deltas(points) => {
            let mut g = Grid3::zeros((n, n, n));
            for &(x, y, z, v) in points {
                g[(x as usize, y as usize, z as usize)] += v;
            }
            g
        }
    }
}

/// The configuration the plan registry builds for a mix request, made
/// apart from the registry.
fn registry_config(n: usize, k: usize) -> LowCommConfig {
    LowCommConfig::builder()
        .n(n)
        .k(k)
        .far_rate(FAR_RATE)
        .build()
        .expect("mix configurations are valid")
}

/// One round of the mix: template indices, 16³ requests twice.
fn round_of(mix: &[Template]) -> Vec<usize> {
    (0..mix.len())
        .flat_map(|i| std::iter::repeat_n(i, if mix[i].req.n == 16 { 2 } else { 1 }))
        .collect()
}

/// The steps of one round: each slot of [`round_of`] for the first tenant,
/// paired with its partner for the second: the request of the same plan key
/// and reply kind with the other input kind.
fn round_steps(mix: &[Template]) -> Vec<[usize; 2]> {
    let dense = |t: &Template| matches!(t.req.input, RequestInput::Dense(_));
    round_of(mix)
        .into_iter()
        .map(|i| {
            let r = &mix[i];
            let partner = mix
                .iter()
                .position(|t| {
                    t.req.plan_key() == r.req.plan_key()
                        && t.req.checksum_only == r.req.checksum_only
                        && dense(t) != dense(r)
                })
                .expect("every request of the mix has a partner");
            [i, partner]
        })
        .collect()
}

/// The 16 requests of the mix, in canonical order, with their references.
fn build_mix(out: &mut Outcome) -> Vec<Template> {
    let mut mix = Vec::new();
    for (n, k) in [(16u32, 4u32), (32, 8)] {
        for sigma in [1.0, 2.0] {
            for dense in [true, false] {
                for checksum_only in [false, true] {
                    let seed = MIX_SEED + mix.len() as u64;
                    let nu = n as usize;
                    let input = if dense {
                        RequestInput::Dense(smooth_field(nu, 8, seed).into_vec())
                    } else {
                        RequestInput::Deltas(deltas(nu, 3, seed))
                    };
                    let grid = grid_of(nu, &input);
                    let kernel = GaussianKernel::new(nu, sigma);
                    let (reference, checked) = checked_dense_reference(&grid, &kernel, 4, seed);
                    if let Err(e) = checked {
                        out.problem(e);
                    }
                    let conv = LowCommConvolver::try_new(registry_config(nu, k as usize))
                        .expect("valid configuration");
                    let (expected, report) =
                        conv.session(ConvolveMode::Normal).convolve(&grid, &kernel);
                    let expected = expected.into_vec();
                    mix.push(Template {
                        req: ConvolveRequest {
                            tenant: TENANTS[0],
                            request_id: 0,
                            n,
                            k,
                            far_rate: FAR_RATE,
                            sigma,
                            require_exact: false,
                            checksum_only,
                            input,
                        },
                        expected_checksum: fnv1a_f64(&expected),
                        rel_l2: relative_l2(reference.as_slice(), &expected),
                        expected,
                        exchange_bytes: report.exchange_bytes,
                        samples: report.total_samples,
                        domains_processed: report.domains_processed,
                        domains_skipped: report.domains_skipped,
                    });
                }
            }
        }
    }
    mix
}

/// One checked reply.
struct Reply {
    template: usize,
    latency_ms: f64,
    rel_l2: f64,
    /// Missed the accuracy contract (the known registry fault).
    inaccurate: bool,
    /// A check no known fault explains.
    problem: Option<String>,
}

/// Checks one decoded reply against its template.
fn check_reply(
    t: &Template,
    tenant: TenantId,
    id: u64,
    reply: Result<WireMessage, CodecError>,
) -> (f64, bool, Option<String>) {
    let resp = match reply {
        Ok(WireMessage::Response(r)) => r,
        Ok(WireMessage::Reject(r)) => {
            return (0.0, false, Some(format!("request rejected: {r:?}")))
        }
        Ok(other) => return (0.0, false, Some(format!("unexpected reply {other:?}"))),
        Err(e) => return (0.0, false, Some(format!("undecodable reply: {e:?}"))),
    };
    let problem = if resp.tenant != tenant || resp.request_id != id {
        Some(format!(
            "reply echoes ({:?}, {}) for ({tenant:?}, {id})",
            resp.tenant, resp.request_id
        ))
    } else if resp.mode != ServedMode::Normal {
        Some(format!(
            "served {:?} under a closed loop of two tenants",
            resp.mode
        ))
    } else if t.req.checksum_only && !resp.result.is_empty() {
        Some("checksum-only reply carries samples".into())
    } else if !t.req.checksum_only && fnv1a_f64(&resp.result) != resp.checksum {
        Some("reply checksum does not match its samples".into())
    } else if resp.checksum != t.expected_checksum
        || (!t.req.checksum_only && resp.result != t.expected)
    {
        Some("reply differs from a separately built convolver's result".into())
    } else {
        None
    };
    (t.rel_l2, !within(t.rel_l2, PAPER_REL_L2), problem)
}

/// One tenant's closed loop against the threaded server: whole shuffled
/// rounds of the mix until `deadline`, in lockstep with the other tenant. Both send at each step
/// and wait for both replies; both decide together, at a round's start,
/// whether another round fits.
fn tenant_loop(
    client: &ServiceClient,
    mix: &[Template],
    tenant: TenantId,
    seed: u64,
    deadline: Instant,
    step: &Barrier,
    stop: &AtomicBool,
) -> Vec<Reply> {
    let mut rng = Rng::new(seed ^ (tenant.0 as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut order = round_of(mix);
    let mut replies = Vec::new();
    let mut id = 0u64;
    loop {
        if step.wait().is_leader() && Instant::now() >= deadline {
            stop.store(true, Ordering::SeqCst);
        }
        step.wait();
        if stop.load(Ordering::SeqCst) {
            return replies;
        }
        rng.shuffle(&mut order);
        for &i in &order {
            id += 1;
            let req = ConvolveRequest {
                tenant,
                request_id: id,
                ..mix[i].req.clone()
            };
            step.wait();
            let t = Instant::now();
            let reply = client
                .call_bytes(encode_request(&req))
                .map(|bytes| decode_message(&bytes));
            let latency_ms = ms(t.elapsed());
            let (rel_l2, inaccurate, problem) = match reply {
                Ok(msg) => check_reply(&mix[i], tenant, id, msg),
                Err(e) => (0.0, false, Some(format!("call failed: {e}"))),
            };
            replies.push(Reply {
                template: i,
                latency_ms,
                rel_l2,
                inaccurate,
                problem,
            });
        }
    }
}

/// Both tenants' closed loops for `dur`; replies in completion order per
/// tenant.
fn closed_loop(server: &ServiceServer, mix: &[Template], seed: u64, dur: Duration) -> Vec<Reply> {
    let deadline = Instant::now() + dur;
    let (step, stop) = (Barrier::new(TENANTS.len()), AtomicBool::new(false));
    thread::scope(|s| {
        let handles: Vec<_> = TENANTS
            .iter()
            .map(|&tenant| {
                let client = server.client();
                let (step, stop) = (&step, &stop);
                s.spawn(move || tenant_loop(&client, mix, tenant, seed, deadline, step, stop))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    })
}

/// Folds replies into the outcome; returns the latencies and the worst
/// relative L2.
fn tally(out: &mut Outcome, replies: &[Reply]) -> (Vec<f64>, f64) {
    let mut lat = Vec::with_capacity(replies.len());
    let mut worst = 0.0f64;
    let mut misses = 0;
    for r in replies {
        out.attempted += 1;
        lat.push(r.latency_ms);
        worst = worst.max(r.rel_l2);
        if r.inaccurate {
            misses += 1;
        }
        if let Some(p) = &r.problem {
            out.problem(p.clone());
        }
        if r.inaccurate || r.problem.is_some() {
            out.failed += 1;
        }
    }
    if misses > 0 {
        eprintln!(
            "perfbench: {misses} of {} replies miss the 3 % contract (worst rel L2 {worst:.3e}): \
             the plan registry builds RateSchedule::paper_default from the request's far rate \
             (crates/service/src/registry.rs) instead of a schedule derived from the kernel's spread",
            replies.len()
        );
    }
    (lat, worst)
}

/// Spawns a server and sends one request per plan key (the plan builds).
fn warm_server(mix: &[Template], out: &mut Outcome) -> ServiceServer {
    let server = ServiceServer::spawn(ServiceConfig::default());
    let client = server.client();
    let mut seen = Vec::new();
    for (i, t) in mix.iter().enumerate() {
        if seen.contains(&t.req.plan_key()) {
            continue;
        }
        seen.push(t.req.plan_key());
        let id = u64::MAX - i as u64;
        let req = ConvolveRequest {
            request_id: id,
            ..t.req.clone()
        };
        match client.call_bytes(encode_request(&req)) {
            Ok(bytes) => {
                if let (_, _, Some(p)) = check_reply(t, req.tenant, id, decode_message(&bytes)) {
                    out.problem(format!("warm-up: {p}"));
                }
            }
            Err(e) => out.problem(format!("warm-up call failed: {e}")),
        }
    }
    server
}

/// End-of-run accounting checks.
fn check_report(out: &mut Outcome, report: &ServiceReport) {
    let a = &report.admission;
    if !a.balanced() {
        out.problem(format!("admission unbalanced: {a:?}"));
    }
    if report.plan_builds != PLAN_KEYS {
        out.problem(format!(
            "{} plan builds for {PLAN_KEYS} plan keys",
            report.plan_builds
        ));
    }
}

/// Per-call times of one direct-drive step.
#[derive(Default)]
struct StepTimes {
    submit_us: Vec<f64>,
    pump_ms: f64,
    encode_us: Vec<f64>,
}

/// Serves one step, `group` holding one template index per tenant, through
/// the service core: wire bytes in, one pump, wire bytes out, decoded as a
/// client would. Every reply carries the step's time; the checks run after
/// it is taken.
fn serve_step(
    core: &ConvolveService,
    mix: &[Template],
    group: &[usize],
    next_id: &mut u64,
    buf: &mut Vec<u8>,
    out: &mut Outcome,
) -> (Vec<Reply>, StepTimes) {
    let start = Instant::now();
    let mut times = StepTimes::default();
    let mut sent = Vec::with_capacity(group.len());
    for (&i, &tenant) in group.iter().zip(&TENANTS) {
        *next_id += 1;
        let req = ConvolveRequest {
            tenant,
            request_id: *next_id,
            ..mix[i].req.clone()
        };
        let bytes = encode_request(&req);
        let t = Instant::now();
        if let Err(e) = core.submit_bytes(&bytes) {
            out.problem(format!("submit failed: {e}"));
        }
        times.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        sent.push((i, tenant, *next_id));
    }
    let t = Instant::now();
    let served = core.pump();
    times.pump_ms = ms(t.elapsed());
    let mut decoded = Vec::with_capacity(served.responses.len());
    for resp in &served.responses {
        let t = Instant::now();
        encode_response_into(buf, resp);
        times.encode_us.push(t.elapsed().as_secs_f64() * 1e6);
        decoded.push((resp.request_id, decode_message(buf)));
    }
    let step_ms = ms(start.elapsed());

    if served.responses.len() != group.len() {
        out.problem(format!(
            "pump served {} of {} requests",
            served.responses.len(),
            group.len()
        ));
    }
    let mut replies = Vec::with_capacity(group.len());
    for (request_id, msg) in decoded {
        let Some(&(i, tenant, id)) = sent.iter().find(|s| s.2 == request_id) else {
            out.problem("reply for an unknown request".into());
            continue;
        };
        let (rel_l2, inaccurate, problem) = check_reply(&mix[i], tenant, id, msg);
        replies.push(Reply {
            template: i,
            latency_ms: step_ms,
            rel_l2,
            inaccurate,
            problem,
        });
    }
    (replies, times)
}

/// Whole shuffled rounds of [`round_steps`] through the service core while
/// another fits in `dur`; returns the replies, the step times and the
/// phase's `(wall seconds, CPU utilisation)`.
fn direct_drive(
    core: &ConvolveService,
    mix: &[Template],
    seed: u64,
    dur: Duration,
    out: &mut Outcome,
) -> (Vec<Reply>, Vec<StepTimes>, (f64, f64)) {
    let mut rng = Rng::new(seed);
    let mut round = round_steps(mix);
    let (mut replies, mut steps, mut round_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut id, mut buf) = (0u64, Vec::new());
    let clock = PhaseClock::start();
    while clock.more(dur, &round_ms) {
        let t = Instant::now();
        rng.shuffle(&mut round);
        for group in &round {
            let (r, times) = serve_step(core, mix, group, &mut id, &mut buf, out);
            replies.extend(r);
            steps.push(times);
        }
        round_ms.push(ms(t.elapsed()));
    }
    (replies, steps, clock.stop())
}

/// A service core with one request per plan key served (the plan builds).
fn warm_core(mix: &[Template], out: &mut Outcome) -> ConvolveService {
    let core = ConvolveService::new(ServiceConfig::default());
    let (mut id, mut buf, mut seen) = (u64::MAX / 2, Vec::new(), Vec::new());
    for (i, t) in mix.iter().enumerate() {
        if !seen.contains(&t.req.plan_key()) {
            seen.push(t.req.plan_key());
            for r in serve_step(&core, mix, &[i], &mut id, &mut buf, out).0 {
                if let Some(p) = r.problem {
                    out.problem(format!("warm-up: {p}"));
                }
            }
        }
    }
    core
}

pub fn run(args: &Args, out: &mut Outcome) {
    std::env::set_var("LCC_THREADS", "1");
    let mix = build_mix(out);
    let (core, setup_s) = repeated_setup(|| warm_core(&mix, out));
    let phases = Phases::of(args);
    let (replies, _, (wall, cpu_util)) = direct_drive(&core, &mix, args.seed, phases.untraced, out);
    let (lat, worst) = tally(out, &replies);
    check_report(out, &core.report());
    if !args.trace {
        let exchange = mix.iter().map(|t| t.exchange_bytes as f64).sum::<f64>() / mix.len() as f64;
        set_end_to_end(out, setup_s, &lat, wall, worst, exchange);
        return;
    }

    // Traced, first part (70 %): the threaded server under two closed-loop
    // tenant threads, for the client latency tails and the server's
    // accounting.
    let server = warm_server(&mix, out);
    let threaded = closed_loop(&server, &mix, args.seed, phases.traced * 7 / 10);
    tally(out, &threaded);
    let served = server.shutdown();
    check_report(out, &served);
    let lat_of = |n: Option<u32>| -> Vec<f64> {
        threaded
            .iter()
            .filter(|r| n.is_none_or(|n| mix[r.template].req.n == n))
            .map(|r| r.latency_ms)
            .collect()
    };
    out.set(
        "service.request_ms.p90",
        percentile(&lat_of(None), 0.90).unwrap_or(0.0),
    );
    out.set(
        "service.n16_ms.p90",
        percentile(&lat_of(Some(16)), 0.90).unwrap_or(0.0),
    );
    out.set("service.n32_ms.p50", median(&lat_of(Some(32))));
    out.set("service.plan_builds", served.plan_builds as f64);
    out.set("service.plan_hits", served.plan_hits as f64);
    out.set("service.shed", served.admission.shed as f64);
    out.set("service.rejected", served.admission.rejected() as f64);
    out.set(
        "service.max_queued",
        served.admission.max_total_queued as f64,
    );

    // Traced, second part (30 %): the direct drive again with the program's
    // spans and counters collected, then each request served alone.
    let obs = lcc_obs::ObsSession::start();
    let (traced, steps, _) = direct_drive(
        &core,
        &mix,
        args.seed.wrapping_add(1),
        phases.traced * 3 / 10,
        out,
    );
    let report = obs.map(|s| s.finish());
    let (traced_lat, _) = tally(out, &traced);
    if let Some(r) = &report {
        let mut stages = StageTimes::default();
        stages.record(r, traced.len());
        stages.set(out);
        let batches = r.counter("service.batches").unwrap_or(0).max(1) as f64;
        let done = r.counter("service.requests_completed").unwrap_or(0) as f64;
        out.set("service.batch_size.mean", done / batches);
    }
    let (mut id, mut buf) = (u64::MAX / 4, Vec::new());
    let alone: Vec<Reply> = (0..mix.len())
        .flat_map(|i| serve_step(&core, &mix, &[i], &mut id, &mut buf, out).0)
        .collect();
    tally(out, &alone);
    let solo = |n: u32| -> Vec<f64> {
        alone
            .iter()
            .filter(|r| mix[r.template].req.n == n)
            .map(|r| r.latency_ms)
            .collect()
    };
    check_report(out, &core.report());

    set_trace_common(out, &lat, &traced_lat, cpu_util);
    let submit: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.submit_us.iter().copied())
        .collect();
    let encode: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.encode_us.iter().copied())
        .collect();
    let pump: Vec<f64> = steps.iter().map(|s| s.pump_ms).collect();
    out.set("service.submit_us.p50", median(&submit));
    out.set("service.pump_ms.p50", median(&pump));
    out.set("service.encode_us.p50", median(&encode));
    out.set("service.n16_solo_ms.p50", median(&solo(16)));
    out.set("service.n32_solo_ms.p50", median(&solo(32)));
    let per = |f: fn(&Template) -> usize| mix.iter().map(|t| f(t) as f64).collect::<Vec<_>>();
    out.set("core.samples", mean(&per(|t| t.samples)));
    out.set("core.domains_skipped", mean(&per(|t| t.domains_skipped)));
    let dense_bytes: usize = mix
        .iter()
        .map(|t| t.domains_processed * (t.req.n as usize).pow(3) * 8)
        .sum();
    let exchange_bytes: usize = mix.iter().map(|t| t.exchange_bytes).sum();
    out.set(
        "octree.compression_ratio",
        dense_bytes as f64 / exchange_bytes as f64,
    );

    let mut dense_ms = Vec::new();
    let mut plan_build_ms = 0.0;
    let mut keys = Vec::new();
    for t in &mix {
        let n = t.req.n as usize;
        let kernel = GaussianKernel::new(n, t.req.sigma);
        let grid = grid_of(n, &t.req.input);
        let dense = TraditionalConvolver::new(n);
        std::hint::black_box(dense.convolve(&grid, &kernel));
        let start = Instant::now();
        std::hint::black_box(dense.convolve(&grid, &kernel));
        dense_ms.push(ms(start.elapsed()));
        if !keys.contains(&t.req.plan_key()) {
            keys.push(t.req.plan_key());
            plan_build_ms += cold_plan_build_ms(registry_config(n, t.req.k as usize), &kernel);
        }
    }
    out.set("core.dense_ms.p50", median(&dense_ms));
    out.set("octree.plan_build_ms", plan_build_ms);
}
