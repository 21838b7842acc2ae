//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p softcache-bench --bin experiments -- all
//! cargo run --release -p softcache-bench --bin experiments -- fig5
//! ```

use softcache_bench::experiments as exp;
use softcache_bench::render;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let known = [
        "table1",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "evict",
        "knee",
        "net-overhead",
        "link",
        "fanin",
        "faults",
        "chaos",
        "dcache",
        "guarantees",
        "ablations",
        "power",
        "bench",
        "all",
    ];
    if !known.contains(&what) {
        eprintln!("unknown experiment `{what}`; one of: {}", known.join(", "));
        std::process::exit(2);
    }
    // `bench` measures wall time, so it only runs when asked for by name —
    // never as part of `all`, where the preceding experiments would skew it.
    let run = |name: &str| (what == "all" && name != "bench") || what == name;

    if run("bench") {
        bench();
    }

    if run("table1") {
        table1();
    }
    if run("fig5") {
        fig5();
    }
    if run("fig6") {
        fig6();
    }
    if run("fig7") {
        fig7();
    }
    if run("fig8") {
        fig8();
    }
    if run("fig9") {
        fig9();
    }
    if run("evict") {
        evict();
    }
    // The knee sweep runs every grid size for every workload, so (like
    // `bench`) it only runs when asked for by name.
    if what == "knee" {
        knee();
    }
    if run("net-overhead") {
        net_overhead();
    }
    if run("link") {
        link();
    }
    if run("fanin") {
        // The 1k-client scaling sweep measures wall time, so (like
        // `bench`) it only runs when `fanin` is asked for by name; under
        // `all` only the deterministic sweep half runs.
        fanin(what == "fanin");
    }
    if run("faults") {
        faults();
    }
    if run("chaos") {
        chaos();
    }
    if run("dcache") {
        dcache();
    }
    if run("guarantees") {
        guarantees();
    }
    if run("ablations") {
        ablations();
    }
    if run("power") {
        power();
    }
}

fn bench() {
    header("Interpreter throughput — superblock micro-op engine vs reference paths");
    let b = exp::bench_interp(2048);
    println!(
        "workload: {} (outputs and cycle counts verified identical)\n",
        b.workload
    );
    print_table("config|instructions|wall s|sim MIPS", &b.rows, |r| {
        vec![
            r.config.to_string(),
            r.instructions.to_string(),
            format!("{:.3}", r.wall_seconds),
            format!("{:.1}", r.mips),
        ]
    });
    println!("\nfast path over slow path: {:.2}x", b.fast_over_slow);
    println!(
        "superblock engine over per-inst fast path: {:.2}x",
        b.superblock_over_fast
    );
    println!(
        "chained traces over unchained superblocks: {:.2}x",
        b.chained_over_unchained
    );
    println!(
        "indirect inline caches + RAS over static-only chaining: {:.2}x",
        b.ic_over_chained
    );
    println!(
        "ret chain breaks: {} -> {} ({:.1}% eliminated); ic hits {}, ras hits {}",
        b.trace_ic_off.breaks.ret,
        b.trace_ic_on.breaks.ret,
        b.ret_break_reduction * 100.0,
        b.trace_ic_on.ic_hits,
        b.trace_ic_on.ras_hits,
    );
    println!(
        "threaded tier over match-dispatch chained engine: {:.2}x (native), {:.2}x (softcache)",
        b.threaded_over_chained, b.threaded_soft_over_steady
    );
    println!(
        "threaded-tier population: {} insts threaded, {} superblock, {} per-inst; {} promotions, {} demotions",
        b.trace_threaded.tier_threaded_insts,
        b.trace_threaded.tier_super_insts,
        b.trace_threaded.tier_interp_insts,
        b.trace_threaded.promotions,
        b.trace_threaded.demotions,
    );

    fn trace_json(t: &softcache_sim::TraceStats) -> String {
        let b = &t.breaks;
        let breaks = render::json_object(&[
            ("fallthrough", b.fallthrough.to_string()),
            ("branch", b.branch.to_string()),
            ("jump", b.jump.to_string()),
            ("call", b.call.to_string()),
            ("jumpreg", b.jumpreg.to_string()),
            ("callreg", b.callreg.to_string()),
            ("ret", b.ret.to_string()),
        ]);
        render::json_object(&[
            ("entries", t.entries.to_string()),
            ("chained", t.chained.to_string()),
            ("code_write_exits", t.code_write_exits.to_string()),
            ("fault_exits", t.fault_exits.to_string()),
            ("ic_hits", t.ic_hits.to_string()),
            ("ic_fills", t.ic_fills.to_string()),
            ("ras_hits", t.ras_hits.to_string()),
            ("ras_mispredicts", t.ras_mispredicts.to_string()),
            ("ras_underflows", t.ras_underflows.to_string()),
            ("ras_pushes", t.ras_pushes.to_string()),
            ("ras_overflows", t.ras_overflows.to_string()),
            ("tier_interp_insts", t.tier_interp_insts.to_string()),
            ("tier_super_insts", t.tier_super_insts.to_string()),
            ("tier_threaded_insts", t.tier_threaded_insts.to_string()),
            ("promotions", t.promotions.to_string()),
            ("demotions", t.demotions.to_string()),
            ("breaks", breaks),
        ])
    }

    let rows: Vec<String> = b
        .rows
        .iter()
        .map(|r| {
            render::json_object(&[
                ("config", render::json_str(r.config)),
                ("instructions", r.instructions.to_string()),
                ("wall_seconds", format!("{:.6}", r.wall_seconds)),
                ("mips", format!("{:.3}", r.mips)),
            ])
        })
        .collect();
    let ratio = |x: f64| format!("{x:.3}");
    let tail = [
        ("fast_over_slow", ratio(b.fast_over_slow)),
        ("superblock_over_fast", ratio(b.superblock_over_fast)),
        ("chained_over_unchained", ratio(b.chained_over_unchained)),
        ("ic_over_chained", ratio(b.ic_over_chained)),
        (
            "ret_break_reduction",
            format!("{:.4}", b.ret_break_reduction),
        ),
        ("threaded_over_chained", ratio(b.threaded_over_chained)),
        (
            "threaded_soft_over_steady",
            ratio(b.threaded_soft_over_steady),
        ),
        ("trace_ic_off", trace_json(&b.trace_ic_off)),
        ("trace_ic_on", trace_json(&b.trace_ic_on)),
        ("trace_threaded", trace_json(&b.trace_threaded)),
    ];
    let head = [("workload", render::json_str(b.workload))];
    write_bench(
        "BENCH_interp.json",
        &render::bench_json(&head, &rows, &tail),
    );
}

/// Write one `BENCH_*.json` record to the working directory.
fn write_bench(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Print a [`render::table`]: `header` names the columns, separated by
/// `|`, and `cells` renders one row.
fn print_table<R>(header: &str, rows: &[R], cells: impl Fn(&R) -> Vec<String>) {
    let mut t = vec![header.split('|').map(String::from).collect()];
    t.extend(rows.iter().map(cells));
    print!("{}", render::table(&t));
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn table1() {
    header("Table 1 — dynamically- vs statically-linked text segment sizes");
    let rows = exp::table1();
    print_table(
        "app|dynamic|static|ratio|paper dyn|paper static|paper ratio",
        &rows,
        |r| {
            vec![
                r.name.to_string(),
                render::human_bytes(r.dynamic_bytes),
                render::human_bytes(r.static_bytes),
                format!("{:.2}", r.dynamic_bytes as f64 / r.static_bytes as f64),
                format!("{}K", r.paper_kb.0),
                format!("{}K", r.paper_kb.1),
                format!("{:.2}", r.paper_kb.0 / r.paper_kb.1),
            ]
        },
    );
    println!("\nShape check: executed text is a small fraction of linked text —");
    println!("the motivation for caching only the active working set (Figure 2).");
}

fn fig5() {
    header("Figure 5 — relative execution time, compress95 (paper: 1.17 / 1.19 / off-scale)");
    // Scale 8192 = a 2 MB corpus, far past every tcache size swept below;
    // the generator is untouched so smaller scales stay byte-identical.
    let (bars, ws) = exp::fig5(8192);
    println!("measured working set: {}\n", render::human_bytes(ws));
    let items: Vec<(String, f64)> = bars
        .iter()
        .map(|b| {
            (
                format!(
                    "{:<16} {:<9} {:>8}",
                    b.label,
                    b.policy,
                    if b.tcache_bytes == 0 {
                        "-".to_string()
                    } else {
                        render::human_bytes(b.tcache_bytes)
                    }
                ),
                b.relative_time,
            )
        })
        .collect();
    print!("{}", render::bars(&items, 48, None));
    for b in &bars[1..] {
        println!(
            "  {:<16} {:<9} translations={} flushes={} evictions={}",
            b.label, b.policy, b.translations, b.flushes, b.evictions
        );
    }
}

fn evict() {
    header("Eviction policy — flush-all baseline vs TRRIP victim eviction");
    // Scale 1024 = a 256 KB corpus: big enough for a genuine thrash
    // point, small enough to run in `all` on every CI push.
    let (bars, ws) = exp::fig5(1024);
    println!("measured working set: {}\n", render::human_bytes(ws));
    print_table(
        "config|policy|tcache|rel. time|transl.|flushes|evictions|victims/fill",
        &bars[1..],
        |b| {
            vec![
                b.label.clone(),
                b.policy.to_string(),
                render::human_bytes(b.tcache_bytes),
                format!("{:.3}x", b.relative_time),
                b.translations.to_string(),
                b.flushes.to_string(),
                b.evictions.to_string(),
                format!("{:.2}", b.victims_per_fill),
            ]
        },
    );
    for point in ["cliff", "thrash"] {
        let fa = bars
            .iter()
            .find(|b| b.label.starts_with(point) && b.policy == "flush-all");
        let tr = bars
            .iter()
            .find(|b| b.label.starts_with(point) && b.policy == "trrip");
        if let (Some(fa), Some(tr)) = (fa, tr) {
            println!(
                "\n{point} point: TRRIP retranslates {} vs flush-all {} ({:.1}x less), \
                 rel. time {:.2}x vs {:.2}x",
                tr.translations,
                fa.translations,
                fa.translations as f64 / tr.translations.max(1) as f64,
                tr.relative_time,
                fa.relative_time
            );
        }
    }
    println!("\nevery row's output is byte-identical to native and its install ledger");
    println!("balances (translations == residents + evictions + invalidations + flush losses).");

    let rows: Vec<String> = bars[1..]
        .iter()
        .map(|b| {
            render::json_object(&[
                ("label", render::json_str(&b.label)),
                ("policy", render::json_str(b.policy)),
                ("tcache_bytes", b.tcache_bytes.to_string()),
                ("relative_time", format!("{:.4}", b.relative_time)),
                ("translations", b.translations.to_string()),
                ("flushes", b.flushes.to_string()),
                ("evictions", b.evictions.to_string()),
                ("flush_losses", b.flush_losses.to_string()),
                ("residents", b.residents.to_string()),
                ("victims_per_fill", format!("{:.4}", b.victims_per_fill)),
            ])
        })
        .collect();
    write_bench("BENCH_evict.json", &render::bench_json(&[], &rows, &[]));
    exp::evict_gate(&bars);
}

fn knee() {
    header("Knee — dominant-block auto-sizing vs measured tcache sweep");
    let grid = exp::knee_grid();
    for r in exp::knee(8) {
        println!(
            "\n{}: dominant blocks {} x expansion {:.2} -> estimate {} \
             (measured optimum {})",
            r.name,
            render::human_bytes(r.dominant_bytes),
            r.expansion,
            render::human_bytes(r.estimated_bytes),
            render::human_bytes(r.measured_bytes),
        );
        for &(size, cycles) in &r.sweep {
            let mark = if size == r.estimated_bytes {
                " <- estimate"
            } else if size == r.measured_bytes {
                " <- measured knee"
            } else {
                ""
            };
            if cycles == u64::MAX {
                println!("  {:>8}: (chunk too big){mark}", render::human_bytes(size));
            } else {
                println!("  {:>8}: {cycles} cycles{mark}", render::human_bytes(size));
            }
        }
        let gi = |b: u32| grid.iter().position(|&g| g == b).unwrap_or(usize::MAX);
        assert!(
            gi(r.estimated_bytes).abs_diff(gi(r.measured_bytes)) <= 1,
            "{}: estimate {} not within one grid step of measured {}",
            r.name,
            r.estimated_bytes,
            r.measured_bytes
        );
    }
    println!("\nEvery estimate lands within one grid step of the measured optimum —");
    println!("the CC can size its tcache from a profile pass alone.");
}

fn fig6() {
    header("Figure 6 — hardware direct-mapped I-cache miss rate vs size (16 B blocks)");
    print!("{}", render::curves(&exp::fig6()));
    println!("\ntags for 32-bit addresses add 11-18% on top of each size (see guarantees).");
}

fn fig7() {
    header("Figure 7 — software tcache miss rate vs size (translations / instructions)");
    print!("{}", render::curves(&exp::fig7()));
    println!("\nShape check vs Figure 6: the knee (working set) falls at a similar size.");
}

fn fig8() {
    header("Figure 8 — paging vs CC memory size, adpcmenc on the procedure cache");
    let (series, hot) = exp::fig8(64);
    println!("hot code (90% gprof rule): {}\n", render::human_bytes(hot));
    for s in &series {
        println!(
            "CC memory {:>8} | {:>5} evictions over {:>6.3}s | per-10ms: {}",
            render::human_bytes(s.memory_bytes),
            s.total_evictions,
            s.seconds,
            render::sparkline(&render::resample(&s.buckets, 60)),
        );
    }
    println!("\nShape check: below the hot size the cache pages continuously; at the");
    println!("hot size paging stops in steady state; above it only cold misses remain.");
}

fn fig9() {
    header("Figure 9 — normalized dynamic footprint (hot code / program size)");
    let rows = exp::fig9();
    print_table("app|hot|static|normalized|paper", &rows, |r| {
        vec![
            r.name.to_string(),
            render::human_bytes(r.hot_bytes),
            render::human_bytes(r.static_bytes),
            format!("{:.3}", r.normalized),
            format!("{:.2}", r.paper_normalized),
        ]
    });
    println!("\nNote: our workloads carry less cold code than gcc-linked MediaBench");
    println!("binaries, so the reduction factor is smaller than the paper's 7-14x;");
    println!("the mechanism (hot set << program) reproduces.");
}

fn net_overhead() {
    header("§2.4 — network protocol overhead per chunk download");
    println!(
        "measured: {} bytes per request/reply exchange (paper: 60 bytes)",
        exp::net_overhead()
    );
}

fn link() {
    header("Batched link protocol — compress95, speculative push depth sweep");
    let rows = exp::link_sweep(64);
    print_table(
        "depth|exchanges|payload B|header B|stall cyc|pushed|hits|wastes|translations",
        &rows,
        |r| {
            vec![
                r.depth.to_string(),
                r.exchanges.to_string(),
                r.payload_bytes.to_string(),
                r.overhead_bytes.to_string(),
                r.stall_cycles.to_string(),
                r.prefetched_chunks.to_string(),
                r.prefetch_hits.to_string(),
                r.prefetch_wastes.to_string(),
                r.translations.to_string(),
            ]
        },
    );
    let base = &rows[0];
    let d2 = rows.iter().find(|r| r.depth == 2).expect("depth 2 row");
    let stall_ratio = d2.stall_cycles as f64 / base.stall_cycles.max(1) as f64;
    let overhead_ratio = d2.overhead_bytes as f64 / base.overhead_bytes.max(1) as f64;
    println!(
        "\ndepth 2 vs depth 0: stall cycles -{:.0}%, header bytes -{:.0}%,",
        (1.0 - stall_ratio) * 100.0,
        (1.0 - overhead_ratio) * 100.0,
    );
    let mips = |r: &exp::LinkRow| r.instructions as f64 / (r.cycles - r.miss_cycles) as f64;
    println!(
        "steady-state throughput {:.4}x of depth 0 (unchanged by design);",
        mips(d2) / mips(base)
    );
    println!("every depth produced byte-identical output and a balanced hit+waste");
    println!("ledger; header overhead stays the paper's 60 B per exchange.");

    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            render::json_object(&[
                ("depth", r.depth.to_string()),
                ("exchanges", r.exchanges.to_string()),
                ("payload_bytes", r.payload_bytes.to_string()),
                ("overhead_bytes", r.overhead_bytes.to_string()),
                ("stall_cycles", r.stall_cycles.to_string()),
                ("miss_cycles", r.miss_cycles.to_string()),
                ("cycles", r.cycles.to_string()),
                ("instructions", r.instructions.to_string()),
                ("translations", r.translations.to_string()),
                ("batches", r.batches.to_string()),
                ("prefetched_chunks", r.prefetched_chunks.to_string()),
                ("prefetch_hits", r.prefetch_hits.to_string()),
                ("prefetch_wastes", r.prefetch_wastes.to_string()),
            ])
        })
        .collect();
    let tail = [
        ("stall_cut_depth2", format!("{:.4}", 1.0 - stall_ratio)),
        (
            "overhead_cut_depth2",
            format!("{:.4}", 1.0 - overhead_ratio),
        ),
    ];
    let head = [("workload", render::json_str("compress95"))];
    write_bench("BENCH_link.json", &render::bench_json(&head, &rows, &tail));
}

fn fanin(scale: bool) {
    header("Fan-in — one event-driven MC, N concurrent clients (adpcmenc)");
    let rows = exp::fanin_sweep();
    let cols = "clients|depth|exchanges/client|stall cyc/client|wire B/client|\
                pushed/client|unique xl|shared hits";
    print_table(cols, &rows, |r| {
        vec![
            r.clients.to_string(),
            r.depth.to_string(),
            r.exchanges_per_client.to_string(),
            r.stall_cycles_per_client.to_string(),
            r.wire_bytes_per_client.to_string(),
            r.prefetched_per_client.to_string(),
            r.unique_translations.to_string(),
            r.shared_hits_total.to_string(),
        ]
    });
    println!("\nEvery client's output is byte-identical to the single-client run, and");
    println!("every client's simulated ledger is identical to its siblings': server");
    println!("contention moves wall-clock only, never simulated time. Batching cuts");
    println!("per-client warm-up the same way at every fan-in level. The translate-");
    println!("once ledger holds at every width: `unique xl` is invariant in the");
    println!("client count, and every request beyond the first is a shared-cache hit.");

    if !scale {
        return;
    }
    header("Fan-in at scale — one event-driven MC poll loop, 1k+ clients (adpcmenc)");
    let (rows, sample) = exp::fanin_scale(&exp::FANIN_SCALE_COUNTS);
    let cols = "clients|req/client|batches/client|lookups/client|shared hits|unique xl|\
                adm rej|queue hwm|wall s|req/s";
    print_table(cols, &rows, |r| {
        vec![
            r.clients.to_string(),
            r.requests_per_client.to_string(),
            r.batches_per_client.to_string(),
            r.lookups_per_client.to_string(),
            r.shared_hits_total.to_string(),
            r.unique_translations.to_string(),
            r.admission_rejections.to_string(),
            r.queue_hwm.to_string(),
            format!("{:.3}", r.wall_seconds),
            format!("{:.0}", r.throughput_rps),
        ]
    });
    println!(
        "\nper-client telemetry (largest fleet, first {} clients):",
        sample.len()
    );
    for (i, r) in sample.iter().enumerate() {
        println!(
            "  client {i}: requests={} batches={} shared hits={} misses={} \
             admission rejections={} queue hwm={}",
            r.served,
            r.batches,
            r.shared_hits,
            r.shared_misses,
            r.admission_rejections,
            r.queue_hwm
        );
    }
    println!("\nEvery per-client simulated ledger is byte-identical to the solo run at");
    println!("every fleet size, and the translate-once ledger holds independent of the");
    println!("client count (unique translations == unique chunks, zero evictions).");

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            render::json_object(&[
                ("clients", r.clients.to_string()),
                ("requests_per_client", r.requests_per_client.to_string()),
                ("batches_per_client", r.batches_per_client.to_string()),
                ("lookups_per_client", r.lookups_per_client.to_string()),
                ("shared_hits_total", r.shared_hits_total.to_string()),
                ("unique_translations", r.unique_translations.to_string()),
                ("unique_chunks", r.unique_chunks.to_string()),
                ("admission_rejections", r.admission_rejections.to_string()),
                ("queue_hwm", r.queue_hwm.to_string()),
                ("wall_seconds", format!("{:.4}", r.wall_seconds)),
                ("throughput_rps", format!("{:.1}", r.throughput_rps)),
            ])
        })
        .collect();
    let head = [
        ("workload", render::json_str("adpcmenc")),
        ("depth", "2".to_string()),
    ];
    write_bench(
        "BENCH_fanin.json",
        &render::bench_json(&head, &json_rows, &[]),
    );
    exp::fanin_scale_gate(&rows);
}

fn faults() {
    header("Fault tolerance — adpcmenc over a faulty link (output verified identical)");
    let rows = exp::fault_tolerance();
    print_table(
        "fault plan|events|retries|crc drops|resyncs|recovery cyc|rel. time",
        &rows,
        |r| {
            vec![
                r.label.to_string(),
                r.events.to_string(),
                r.retries.to_string(),
                r.crc_drops.to_string(),
                r.resyncs.to_string(),
                r.backoff_cycles.to_string(),
                format!("{:.3}x", r.relative_time),
            ]
        },
    );
    println!("\nEvery row produced byte-identical output: corruption, loss, reordering");
    println!("and MC restarts degrade into the recovery cycles above, never into a");
    println!("wrong result. The epoch handshake turns a restart into one resync.");
}

fn chaos() {
    header("Self-healing tcache — seeded memory faults (output verified identical)");
    let rows = exp::chaos_matrix();
    print_table(
        "fault plan|system|flips|seals checked|violations|retransl.|quarantines|pins|rel. time",
        &rows,
        |r| {
            vec![
                r.label.to_string(),
                r.system.to_string(),
                r.flips.to_string(),
                r.seals_checked.to_string(),
                r.violations.to_string(),
                r.retranslations.to_string(),
                r.quarantines.to_string(),
                r.slow_path_pins.to_string(),
                format!("{:.3}x", r.relative_time),
            ]
        },
    );
    println!("\nEvery row produced byte-identical output: flipped bits in installed");
    println!("code, redirector words and clean dcache lines are caught by their CRC");
    println!("seals before any corrupted instruction retires, and recovery rides the");
    println!("ordinary miss path. The ledger balances in every row (violations ==");
    println!("retranslations + slow-path pins); the stuck-chunk row shows the");
    println!("watchdog pinning a repeatedly-corrupted chunk to the interpreter.");

    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            render::json_object(&[
                ("label", render::json_str(r.label)),
                ("system", render::json_str(r.system)),
                ("flips", r.flips.to_string()),
                ("seals_checked", r.seals_checked.to_string()),
                ("violations", r.violations.to_string()),
                ("retranslations", r.retranslations.to_string()),
                ("quarantines", r.quarantines.to_string()),
                ("slow_path_pins", r.slow_path_pins.to_string()),
                ("relative_time", format!("{:.4}", r.relative_time)),
            ])
        })
        .collect();
    write_bench("BENCH_chaos.json", &render::bench_json(&[], &rows, &[]));
}

fn dcache() {
    header("§3 / Figure 10 — software data cache, prediction-policy ablation (cjpeg)");
    let rows = exp::dcache_policies();
    print_table(
        "policy|fast hits|slow hits|misses|pinned|on-chip cyc|on-chip cyc/access",
        &rows,
        |r| {
            vec![
                r.policy.to_string(),
                r.fast_hits.to_string(),
                r.slow_hits.to_string(),
                r.misses.to_string(),
                r.pinned_hits.to_string(),
                r.onchip_cycles.to_string(),
                format!("{:.2}", r.onchip_cycles as f64 / r.accesses.max(1) as f64),
            ]
        },
    );
    println!("\nPinned (specialised) accesses cost zero checks — Figure 10 top; the");
    println!("predicted path costs one check — Figure 10 bottom; slow hits never");
    println!("leave the chip (the paper's guaranteed latency).");
}

fn guarantees() {
    header("Abstract claims — slowdown, hit-rate guarantee, tag overhead");
    let g = exp::guarantees(128);
    println!(
        "slowdown with fitting tcache: {:.3}x   (paper: 1.19x)",
        g.slowdown_fitting
    );
    println!(
        "{} translations total; the longest miss-free stretch covers {:.1}% of \
         the run — the working set runs at a 100% hit rate between program \
         phases (trailing translations are the exit path, the paper's \
         'terminal statistics' blip)",
        g.translations,
        g.longest_missfree_fraction * 100.0,
    );
    println!("\nhardware tag overhead the software cache avoids (direct-mapped, 16B blocks):");
    print_table("cache size|tag overhead", &g.tag_overheads, |&(size, f)| {
        vec![render::human_bytes(size), format!("{:.1}%", f * 100.0)]
    });
}

fn power() {
    header("§4 — banked-SRAM power: working-set gating vs always-on hardware cache");
    let rows = exp::power_banks();
    print_table(
        "app|awake banks (mean)|softcache mJ|hw cache mJ|memory saved|chip-level saved",
        &rows,
        |r| {
            vec![
                r.name.to_string(),
                format!("{:.2} / {}", r.mean_awake_banks, r.total_banks),
                format!("{:.3}", r.energy_mj),
                format!("{:.3}", r.hardware_mj),
                format!("{:.0}%", (1.0 - r.energy_mj / r.hardware_mj) * 100.0),
                format!("{:.0}%", r.chip_savings * 100.0),
            ]
        },
    );
    println!(
        "\nThe paper's §4: the StrongARM spends {:.0}% of chip power in caches;",
        exp::strongarm_cache_fraction() * 100.0
    );
    println!("a fully associative softcache knows its working set exactly, so every");
    println!("bank outside it can sleep.");
}

fn ablations() {
    header("Ablation — chunk granularity (basic block vs procedure)");
    let rows = exp::ablation_granularity();
    print_table(
        "app|block fetches|block words|proc fetches|proc words",
        &rows,
        |r| {
            vec![
                r.name.to_string(),
                r.block.0.to_string(),
                r.block.1.to_string(),
                r.procedure.0.to_string(),
                r.procedure.1.to_string(),
            ]
        },
    );

    header("Ablation — steady-state rewriting overhead (miss costs excluded)");
    let rows = exp::ablation_steady_state(64);
    print_table("app|native cycles|steady cycles|overhead", &rows, |r| {
        vec![
            r.name.to_string(),
            r.native_cycles.to_string(),
            r.steady_cycles.to_string(),
            format!("{:+.1}%", r.overhead * 100.0),
        ]
    });
    println!("\nThe residual overhead is the extra fall-through jumps the paper notes");
    println!("\"could be optimized away\" (two added instructions per block).");

    header("Ablation — superblock chunking (the paper's 'trace or hyperblock' note)");
    let rows = exp::ablation_superblock(64);
    print_table(
        "max blocks/chunk|chunks fetched|words shipped|miss traps|cycles",
        &rows,
        |r| {
            vec![
                r.max_blocks.to_string(),
                r.translations.to_string(),
                r.words_installed.to_string(),
                r.miss_traps.to_string(),
                r.cycles.to_string(),
            ]
        },
    );
    println!("\nInlining fall-through chains trades duplicated tail code for fewer");
    println!("round trips and fewer fall-slot misses.");

    header("Ablation — dcache write policy (write-back vs write-through)");
    let rows = exp::ablation_write_policy();
    print_table("policy|store messages|payload bytes|cycles", &rows, |r| {
        vec![
            r.policy.to_string(),
            r.store_messages.to_string(),
            r.payload_bytes.to_string(),
            r.cycles.to_string(),
        ]
    });
    println!("\nWrite-through keeps server memory instantly consistent at the cost of");
    println!("one round trip per store; write-back batches dirty data into evictions.");

    header("Ablation — hardware associativity vs the fully associative tcache");
    let rows = exp::ablation_associativity();
    print_table("config|miss rate", &rows, |r| {
        vec![r.config.clone(), format!("{:.3}%", r.miss_rate)]
    });
    println!("\nAt the knee size, direct-mapped conflict misses persist; associativity");
    println!("removes them — the tcache is fully associative for free (no tags).");
}
