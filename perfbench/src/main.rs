//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Workloads: `compress95-steady`, `compress95-thrash`, `adpcmenc-fanin`
//! (see `workload::SPECS` for why each exists). With `--trace 0` the
//! benchmark reports end-to-end metrics from untraced runs of the public
//! entry points; with `--trace 1` it alternates untraced runs with traced
//! runs of an outside-in rebuild of the run loop and reports per-layer
//! metrics. Every run is checked against the minic AST interpreter, every
//! deterministic count must repeat exactly (within the invocation, and
//! across invocations of the same binary with the same seed), and the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod heap;
mod link;
mod measure;
mod trace;
mod workload;

use measure::{median, Measured, Metric};
use std::process::ExitCode;
use workload::{Prepared, Spec};

/// Set-ups before measuring (the end-to-end phase adds one per unit).
const SETUP_REPS: usize = 5;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) = (None, 1, 10, false, None);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = val()?;
                workload = Some(workload::spec(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans" => spans = Some(val()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
    let workload = workload.ok_or(format!("--workload is required: one of {names:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
        spans,
    })
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The git commit of the source tree, read from `.git` (no git process);
/// "unknown" outside a git checkout.
fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(root.join(".git/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(root.join(".git/packed-refs")).and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Cross-invocation exact gate: the first invocation of this binary with
/// a given workload and seed records the hash of its deterministic
/// counts; every later one must reproduce it. Keyed by a hash of the
/// executable, so a rebuilt program starts a fresh record.
fn cross_invocation_gate(workload: &str, seed: u64, fingerprint: &str) -> Result<String, String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("cannot read own executable: {e}"))?;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".state");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-{seed}-{:016x}", fnv64(&exe)));
    let now = format!("{:016x}", fnv64(fingerprint.as_bytes()));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == now => Ok(format!("counts {now} match the earlier invocation")),
        Ok(prev) => Err(format!(
            "counts {now} differ from an earlier invocation's {}",
            prev.trim()
        )),
        Err(_) => {
            std::fs::write(&path, &now)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(format!("counts {now} recorded"))
        }
    }
}

/// Set up `SETUP_REPS` times; returns (set-up times, median compile s,
/// image, input).
fn setup(spec: &'static Spec, seed: u64) -> (Vec<f64>, f64, softcache_isa::Image, Vec<u8>) {
    let mut totals = Vec::new();
    let mut compiles = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (t, image, input) = workload::setup_once(spec, seed);
        totals.push(t.total_s);
        compiles.push(t.compile_s);
        last = Some((image, input));
    }
    let (image, input) = last.expect("at least one set-up");
    (totals, median(&compiles), image, input)
}

/// The compress95 workloads serve their MC inline behind the session
/// codec; the paper figures use the fused `SoftIcacheSystem::new` path.
/// Both must simulate identically.
fn fused_equivalence(p: &Prepared) -> Result<(), String> {
    let fused = softcache_core::SoftIcacheSystem::new(p.image.clone(), p.cfg)
        .run(&p.input)
        .map_err(|e| format!("fused run failed: {e}"))?;
    let inline = workload::soft_unit(p, false);
    let inline = inline.outs[0]
        .as_ref()
        .map_err(|e| format!("inline run failed: {e}"))?;
    if fused.exec != inline.exec || fused.cache != inline.cache {
        return Err(format!(
            "inline remote MC and fused MC differ: exec {:?} vs {:?}; cache {:?} vs {:?}",
            inline.exec, fused.exec, inline.cache, fused.cache
        ));
    }
    Ok(())
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Pin the process to one CPU (the highest-numbered one it may use) and
/// return it. The fan-in's two threads form a closed loop with one RPC
/// outstanding, so they never usefully run at once; on one CPU each wake
/// is a local context switch instead of an inter-processor wake of an
/// idle virtual CPU, whose latency swings with host load. No thread
/// migrates mid-run either.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `bytes` bytes, which
    // is what the call may fill; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes holding a
    // CPU set the thread is already allowed to use; called before any
    // other thread exists, so every later thread inherits it.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn main() -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = pin_to_one_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    println!(
        "provenance: nproc={nproc} pinned_cpu={} rustc=\"{}\" commit={} seed={}",
        cpu.map_or("none".to_string(), |c| c.to_string()),
        env!("PERFBENCH_RUSTC"),
        git_commit(),
        args.seed
    );

    let (setups, compile_s, image, input) = setup(spec, args.seed);
    let want = workload::oracle(spec, &input);
    let p = Prepared {
        spec,
        seed: args.seed,
        cfg: workload::config(spec),
        image,
        input,
        want,
    };
    println!(
        "workload: {} program={} input_bytes={} tcache_bytes={} prefetch_depth={} clients={} \
         threads={}",
        spec.name,
        spec.program,
        p.input.len(),
        spec.tcache_size,
        spec.prefetch_depth,
        spec.clients.max(1),
        if spec.clients > 0 { 2 } else { 1 }
    );
    println!("why: {}", spec.why);
    println!("exercises: {}", spec.exercises);
    println!("bypasses: {}", spec.bypasses);

    let mut problems = Vec::new();
    if spec.clients == 0 {
        if let Err(e) = fused_equivalence(&p) {
            problems.push(e);
        }
    }
    let Measured {
        metrics,
        mut ledger,
        fingerprint,
        notes,
        last_traced,
    } = if args.trace {
        measure::per_layer(&p, args.seconds, compile_s)
    } else {
        measure::end_to_end(&p, args.seconds, setups)
    };
    match cross_invocation_gate(spec.name, args.seed, &fingerprint) {
        Ok(note) => println!("exact gate: {note}"),
        Err(e) => problems.push(e),
    }
    if let (Some(path), Some(u)) = (&args.spans, &last_traced) {
        match trace::write_tsv(path, &[("driver", &u.spans), ("server", &u.server_spans)]) {
            Ok(()) => println!(
                "spans: {} written to {path}",
                u.spans.len() + u.server_spans.len()
            ),
            Err(e) => problems.push(format!("cannot write spans to {path}: {e}")),
        }
    }
    for n in &notes {
        println!("note: {n}");
    }
    for mt in &metrics {
        println!("metric {} = {} {}", mt.name, mt.value, mt.unit);
    }
    ledger.failed += problems.len() as u64;
    problems.append(&mut ledger.problems);
    for e in &problems {
        println!("FAILED: {e}");
    }
    let correct = problems.is_empty() && ledger.failed == 0;
    println!(
        "{}",
        json_result(correct, ledger.attempted, ledger.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
