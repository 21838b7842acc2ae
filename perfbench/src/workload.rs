//! The three workloads, their set-up, and the untraced and traced units
//! of work the measurement loops repeat.

use crate::link::{ClientLink, InlineMc, InlineState, RttLog, ServerLink, WaitLog};
use crate::trace;
use softcache_core::endpoint::McEndpoint;
use softcache_core::{
    CacheError, Cc, IcacheConfig, Mc, McServer, McStats, RunOutput, ServeReport, SoftIcacheSystem,
    XlateStats,
};
use softcache_isa::Image;
use softcache_net::{policy_pair, LinkPolicy, Transport};
use softcache_sim::{ExecStats, Machine, Step, TraceStats, Trap};
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Instruction budget for every run (native and softcache).
pub const FUEL: u64 = 2_000_000_000;

/// One named workload.
pub struct Spec {
    pub name: &'static str,
    /// `softcache-workloads` program.
    pub program: &'static str,
    /// Generator scale (compress95: 256 bytes of text per unit; adpcmenc:
    /// 64 PCM samples per unit).
    pub scale: u32,
    /// The seed rotates the generator output by a whole number of these.
    pub align: usize,
    pub tcache_size: u32,
    pub prefetch_depth: u32,
    /// Fan-in clients per fleet; 0 runs one client against an inline MC.
    pub clients: usize,
    /// Native runs per measured unit, so that the native side of a unit
    /// takes long enough to time.
    pub native_reps: u32,
    pub why: &'static str,
    pub exercises: &'static str,
    pub bypasses: &'static str,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "compress95-steady",
        program: "compress95",
        scale: 512,
        align: 1,
        tcache_size: 48 * 1024,
        prefetch_depth: 0,
        clients: 0,
        native_reps: 1,
        why: "the default 48 KB tcache holds the ~1.5 KB working set after 42 translations, \
              so sim dispatch does nearly all host work (the paper's in-cache bar)",
        exercises: "minic, sim",
        bypasses: "cc, mc, net and server do ~42 translations per run (cold start only); \
                   server loop and xlate unused",
    },
    Spec {
        name: "compress95-thrash",
        program: "compress95",
        scale: 16,
        align: 1,
        tcache_size: 768,
        prefetch_depth: 0,
        clients: 0,
        native_reps: 16,
        why: "a 768 B tcache is about half the working set, mid-band in the thrash regime, \
              so cc trap/install/evict, mc rewriting and the link codec dominate",
        exercises: "minic, sim (a code write on every install), cc, mc, net (envelope codec)",
        bypasses: "server poll loop and xlate (the MC is served inline on the client thread)",
    },
    Spec {
        name: "adpcmenc-fanin",
        program: "adpcmenc",
        scale: 2,
        align: 2,
        tcache_size: 48 * 1024,
        prefetch_depth: 2,
        clients: 32,
        native_reps: 64,
        why: "one event-driven McServer serves a fleet of clients one after another \
              (closed loop, one RPC outstanding); the shared xlate translates once, \
              so the poll loop, cross-thread wake path and codec dominate",
        exercises: "minic, sim, cc, net (channel transport and wake path), server, xlate",
        bypasses: "mc rewriting after the first client (xlate hits); tcache eviction",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// SplitMix64.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator's output for `spec`, rotated by a seed-chosen offset: a
/// different byte stream for every seed with the same size and statistics.
pub fn derive_input(spec: &Spec, seed: u64) -> Vec<u8> {
    let w = softcache_workloads::by_name(spec.program).expect("known workload");
    let mut bytes = (w.gen_input)(spec.scale);
    let units = (bytes.len() / spec.align).max(1) as u64;
    bytes.rotate_left((mix64(seed) % units) as usize * spec.align);
    bytes
}

/// Receive timeout for every link. A retransmission would change the
/// simulated ledger (and counts as a failed operation), so the timeout is
/// far longer than any scheduler stall; a dead server still surfaces as
/// a disconnect, not a hang.
fn policy() -> LinkPolicy {
    LinkPolicy {
        recv_timeout: Duration::from_secs(30),
        ..LinkPolicy::default()
    }
}

pub fn config(spec: &Spec) -> IcacheConfig {
    IcacheConfig {
        tcache_size: spec.tcache_size,
        prefetch_depth: spec.prefetch_depth,
        link_policy: policy(),
        ..IcacheConfig::default()
    }
}

/// Everything a measured unit needs, built once per invocation.
pub struct Prepared {
    pub spec: &'static Spec,
    pub seed: u64,
    pub image: Image,
    pub input: Vec<u8>,
    pub cfg: IcacheConfig,
    /// The minic AST interpreter's (exit code, output) on `input`.
    pub want: (i32, Vec<u8>),
}

/// Timings of one set-up: compile + input generation + system/server
/// construction.
pub struct SetupTime {
    pub total_s: f64,
    pub compile_s: f64,
}

/// One set-up, timed. The constructed systems are dropped unused: the
/// measured units build their own, outside their timers.
pub fn setup_once(spec: &'static Spec, seed: u64) -> (SetupTime, Image, Vec<u8>) {
    let t0 = Instant::now();
    let w = softcache_workloads::by_name(spec.program).expect("known workload");
    let image = w.image(true);
    let compile_s = t0.elapsed().as_secs_f64();
    let input = derive_input(spec, seed);
    let cfg = config(spec);
    if spec.clients == 0 {
        let (sys, state, _) = inline_system(&image, cfg);
        black_box((sys, state));
    } else {
        let server = McServer::new(image.clone());
        let systems: Vec<_> = (0..spec.clients)
            .map(|_| {
                let (cc_end, mc_end) = policy_pair(&cfg.link_policy);
                let ep = McEndpoint::remote_with_policy(Box::new(cc_end), cfg.link_policy);
                (
                    SoftIcacheSystem::with_endpoint(image.clone(), cfg, ep),
                    mc_end,
                )
            })
            .collect();
        black_box((server, systems));
    }
    let total_s = t0.elapsed().as_secs_f64();
    (SetupTime { total_s, compile_s }, image, input)
}

/// Interpret the workload once for the reference output.
pub fn oracle(spec: &Spec, input: &[u8]) -> (i32, Vec<u8>) {
    let w = softcache_workloads::by_name(spec.program).expect("known workload");
    w.expected(input, 2 * FUEL)
}

/// A softcache client whose MC is served inline through [`InlineMc`].
fn inline_system(
    image: &Image,
    cfg: IcacheConfig,
) -> (SoftIcacheSystem, Arc<Mutex<InlineState>>, RttLog) {
    let (ep, state, rtts) = inline_endpoint(image, cfg);
    (
        SoftIcacheSystem::with_endpoint(image.clone(), cfg, ep),
        state,
        rtts,
    )
}

fn inline_endpoint(
    image: &Image,
    cfg: IcacheConfig,
) -> (McEndpoint, Arc<Mutex<InlineState>>, RttLog) {
    let (link, state) = InlineMc::new(Mc::new(image.clone()));
    let rtts: RttLog = Arc::default();
    let client = ClientLink::new(link, Arc::clone(&rtts), 0, Arc::default());
    let ep = McEndpoint::remote_with_policy(Box::new(client), cfg.link_policy);
    (ep, state, rtts)
}

/// The softcache run loop of `SoftIcacheSystem::run`, rebuilt from public
/// calls so each call into a layer can be wrapped in a span. Must give
/// bit-identical results to `SoftIcacheSystem::run` (checked on every
/// traced run).
pub fn traced_run(
    image: &Image,
    cfg: IcacheConfig,
    input: &[u8],
    mut ep: McEndpoint,
) -> Result<RunOutput, CacheError> {
    let mut machine = trace::span("sim.load_client", || Machine::load_client(image, input));
    machine.set_superblocks_enabled(cfg.superblocks);
    machine.set_chaining_enabled(cfg.chaining);
    machine.set_indirect_ic_enabled(cfg.indirect_ic);
    machine.set_ras_depth(cfg.ras_depth);
    machine.set_threaded_enabled(cfg.threaded);
    machine.set_threaded_threshold(cfg.threaded_threshold);
    let mut cc = Cc::new(cfg);
    ep.set_policy(cfg.link_policy);
    let entry = trace::span("cc.ensure", || {
        cc.ensure(&mut machine, &mut ep, image.entry)
    })?;
    machine.cpu.pc = entry;
    let exit_code = loop {
        if machine.stats.instructions >= cfg.fuel {
            return Err(CacheError::OutOfFuel);
        }
        let batch = (cfg.fuel - machine.stats.instructions).min(Machine::BLOCK_STEPS);
        match trace::span("sim.run_block", || machine.run_block(batch))? {
            Step::Running => {}
            Step::Exited(code) => break code,
            Step::Trapped(Trap::Miss { idx, .. }) => {
                trace::span("cc.handle_miss", || {
                    cc.handle_miss(&mut machine, &mut ep, idx)
                })?;
            }
            Step::Trapped(Trap::HashJump { target, .. })
            | Step::Trapped(Trap::HashCall { target, .. }) => {
                machine.cpu.pc = trace::span("cc.hash_jump", || {
                    cc.hash_jump(&mut machine, &mut ep, target)
                })?;
            }
            Step::Trapped(Trap::Ecall { .. }) => unreachable!("Machine handles ecall itself"),
        }
    };
    cc.finalize_prefetch();
    Ok(RunOutput {
        exit_code,
        output: machine.env.output.clone(),
        cache: cc.stats,
        exec: machine.stats,
        trace: machine.trace,
    })
}

/// What the MC side of a unit reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct McSide {
    /// The inline MC's statistics (compress95 workloads only).
    pub mc: Option<McStats>,
    /// One serve report per client.
    pub reports: Vec<ServeReport>,
    /// The fan-in server's shared translation cache.
    pub xlate: Option<XlateStats>,
}

/// One softcache unit: a single inline run, or one whole fan-in fleet.
pub struct SoftUnit {
    /// One result per client.
    pub outs: Vec<Result<RunOutput, CacheError>>,
    pub side: McSide,
    pub wall_s: f64,
    /// Client-observed RPC round trips, nanoseconds.
    pub rtts: Vec<u64>,
    /// Server queue waits, nanoseconds (traced fan-in only).
    pub waits: Vec<u64>,
    /// Driver-thread spans (traced only).
    pub spans: Vec<trace::Span>,
    /// Server-thread spans (traced fan-in only).
    pub server_spans: Vec<trace::Span>,
}

pub fn soft_unit(p: &Prepared, traced: bool) -> SoftUnit {
    if p.spec.clients == 0 {
        inline_unit(p, traced)
    } else {
        fleet_unit(p, traced)
    }
}

fn inline_unit(p: &Prepared, traced: bool) -> SoftUnit {
    let (out, state, rtts, wall_s, spans) = if traced {
        let (ep, state, rtts) = inline_endpoint(&p.image, p.cfg);
        trace::start();
        let t0 = Instant::now();
        let out = traced_run(&p.image, p.cfg, &p.input, ep);
        let wall_s = t0.elapsed().as_secs_f64();
        (out, state, rtts, wall_s, trace::take())
    } else {
        let (mut sys, state, rtts) = inline_system(&p.image, p.cfg);
        let t0 = Instant::now();
        let out = sys.run(&p.input);
        let wall_s = t0.elapsed().as_secs_f64();
        (out, state, rtts, wall_s, Vec::new())
    };
    let st = state.lock().expect("inline MC state poisoned");
    let rtts = std::mem::take(&mut *rtts.lock().expect("rtt log poisoned"));
    SoftUnit {
        outs: vec![out],
        side: McSide {
            mc: Some(st.mc.stats),
            reports: vec![st.report],
            xlate: None,
        },
        wall_s,
        rtts,
        waits: Vec::new(),
        spans,
        server_spans: Vec::new(),
    }
}

fn fleet_unit(p: &Prepared, traced: bool) -> SoftUnit {
    let n = p.spec.clients;
    let server = McServer::new(p.image.clone());
    let rtts: RttLog = Arc::new(Mutex::new(Vec::with_capacity(n * 32)));
    let waits: WaitLog = Arc::new(Mutex::new(Vec::with_capacity(n * 32)));
    let mut server_ends: Vec<Box<dyn Transport>> = Vec::with_capacity(n);
    let mut client_ends = Vec::with_capacity(n);
    for i in 0..n {
        let (cc_end, mc_end) = policy_pair(&p.cfg.link_policy);
        let sent_at = Arc::new(AtomicU64::new(0));
        if traced {
            server_ends.push(Box::new(ServerLink::new(
                mc_end,
                i as u32,
                Arc::clone(&sent_at),
                Arc::clone(&waits),
            )));
        } else {
            server_ends.push(Box::new(mc_end));
        }
        client_ends.push(ClientLink::new(
            cc_end,
            Arc::clone(&rtts),
            i as u32,
            sent_at,
        ));
    }
    if traced {
        trace::start();
    }
    let t0 = Instant::now();
    let (reports, server_spans, outs) = std::thread::scope(|scope| {
        let server = &server;
        let h = scope.spawn(move || {
            if traced {
                trace::start();
            }
            let reports = server.serve_event(server_ends);
            (reports, trace::take())
        });
        // One driver thread runs the clients one after another; dropping
        // each client's endpoint hangs up its link.
        let outs: Vec<_> = client_ends
            .into_iter()
            .map(|link| {
                let ep = McEndpoint::remote_with_policy(Box::new(link), p.cfg.link_policy);
                if traced {
                    traced_run(&p.image, p.cfg, &p.input, ep)
                } else {
                    SoftIcacheSystem::with_endpoint(p.image.clone(), p.cfg, ep).run(&p.input)
                }
            })
            .collect();
        let (reports, spans) = h.join().expect("server thread panicked");
        (reports, spans, outs)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let spans = if traced { trace::take() } else { Vec::new() };
    let rtts = std::mem::take(&mut *rtts.lock().expect("rtt log poisoned"));
    let waits = std::mem::take(&mut *waits.lock().expect("wait log poisoned"));
    SoftUnit {
        outs,
        side: McSide {
            mc: None,
            reports,
            xlate: Some(server.xlate_stats()),
        },
        wall_s,
        rtts,
        waits,
        spans,
        server_spans,
    }
}

/// The native side of a unit: `native_reps` runs of the uncached program.
pub struct NativeUnit {
    pub runs: u32,
    pub ok_runs: u32,
    pub insts: u64,
    pub secs: f64,
    pub exec: ExecStats,
    pub trace: TraceStats,
}

pub fn native_unit(p: &Prepared) -> NativeUnit {
    let mut u = NativeUnit {
        runs: 0,
        ok_runs: 0,
        insts: 0,
        secs: 0.0,
        exec: ExecStats::default(),
        trace: TraceStats::default(),
    };
    for _ in 0..p.spec.native_reps {
        let mut m = Machine::load_native(&p.image, &p.input);
        let t0 = Instant::now();
        let code = m.run_native(FUEL);
        u.secs += t0.elapsed().as_secs_f64();
        u.runs += 1;
        u.insts += m.stats.instructions;
        if let Ok(code) = code {
            if code == p.want.0 && m.env.output == p.want.1 {
                u.ok_runs += 1;
            }
        }
        u.exec = m.stats;
        u.trace = m.trace;
    }
    u
}
