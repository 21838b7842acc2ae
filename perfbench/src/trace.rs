//! Outside-in span recorder.
//!
//! Spans are recorded only by benchmark code, around calls into the
//! repository's public API. Each thread records into its own in-memory
//! log (no locking on the hot path); nothing is written until the traced
//! run ends. A span knows its name, start, end, its parent on the same
//! thread, and — for the spans of one RPC — the client and sequence
//! number that tie a server-thread span to the client's `rpc` span.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// No parent / no RPC sequence number.
pub const NONE: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the process-wide
/// trace epoch, so spans from different threads share one clock.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same thread's log.
    pub parent: u32,
    /// Client the span belongs to (fan-in) or 0.
    pub client: u32,
    /// RPC sequence number, or [`NONE`].
    pub seq: u32,
}

struct Log {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static LOG: RefCell<Log> = const { RefCell::new(Log { on: false, spans: Vec::new(), stack: Vec::new() }) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Start recording on this thread (clears any earlier log).
pub fn start() {
    epoch();
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        l.on = true;
        l.spans.clear();
        l.stack.clear();
    });
}

/// Stop recording on this thread and hand back its log.
pub fn take() -> Vec<Span> {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        l.on = false;
        l.stack.clear();
        std::mem::take(&mut l.spans)
    })
}

/// Whether this thread is recording.
pub fn on() -> bool {
    LOG.with(|l| l.borrow().on)
}

/// Open a span; returns its index (or [`NONE`] when not recording).
pub fn enter(name: &'static str, client: u32, seq: u32) -> u32 {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        if !l.on {
            return NONE;
        }
        let idx = l.spans.len() as u32;
        let parent = l.stack.last().copied().unwrap_or(NONE);
        l.spans.push(Span {
            name,
            start: now(),
            end: 0,
            parent,
            client,
            seq,
        });
        l.stack.push(idx);
        idx
    })
}

/// Close the span `idx` opened by [`enter`].
pub fn exit(idx: u32) {
    if idx == NONE {
        return;
    }
    let t = now();
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let popped = l.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        l.spans[idx as usize].end = t;
    });
}

/// Record a completed span with explicit times (no nesting under it).
pub fn record(name: &'static str, start: u64, end: u64, client: u32, seq: u32) {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        if !l.on {
            return;
        }
        let parent = l.stack.last().copied().unwrap_or(NONE);
        l.spans.push(Span {
            name,
            start,
            end,
            parent,
            client,
            seq,
        });
    });
}

/// Run `f` inside a span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = enter(name, 0, NONE);
    let r = f();
    exit(idx);
    r
}

/// Per-name totals after self-time attribution.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    pub count: u64,
    /// Sum of span durations (inclusive of children), seconds.
    pub total_s: f64,
    /// Sum of self times (duration minus the part children cover), seconds.
    pub self_s: f64,
    /// The part of the self time that lies on the driver thread's
    /// timeline, seconds: all of it for a driver-thread span, the part
    /// inside its parent RPC for another thread's span. These sum, over
    /// every name, to the traced wall time minus the unattributed rest.
    pub attributed_s: f64,
    /// Every span duration, microseconds (for percentiles).
    pub durations_us: Vec<f64>,
}

/// Attribute self time over the driver thread's log plus the logs of
/// other threads. A span on another thread whose `(client, seq)` matches
/// an `rpc` span on the driver thread is that RPC's child; its interval
/// is clipped to the parent's before it is subtracted.
pub fn analyse(driver: &[Span], others: &[Span]) -> HashMap<&'static str, NameStats> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); driver.len()];
    for s in driver {
        if s.parent != NONE {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    let rpc_by_key: HashMap<(u32, u32), usize> = driver
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "rpc" && s.seq != NONE)
        .map(|(i, s)| ((s.client, s.seq), i))
        .collect();
    let mut other_children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); others.len()];
    for s in others {
        if s.parent != NONE {
            other_children[s.parent as usize].push((s.start, s.end));
        }
    }
    // The part of each other-thread span that overlaps its parent RPC.
    let mut clipped = vec![(0u64, 0u64); others.len()];
    for (i, s) in others.iter().enumerate().filter(|(_, s)| s.seq != NONE) {
        if let Some(&p) = rpc_by_key.get(&(s.client, s.seq)) {
            let (cs, ce) = (s.start.max(driver[p].start), s.end.min(driver[p].end));
            if cs < ce {
                children[p].push((cs, ce));
                clipped[i] = (cs, ce);
            }
        }
    }
    let mut out: HashMap<&'static str, NameStats> = HashMap::new();
    let mut add = |s: &Span, kids: &mut Vec<(u64, u64)>, on_driver: Option<(u64, u64)>| {
        let dur = s.end.saturating_sub(s.start);
        let own = dur.saturating_sub(union_len(kids, s.start, s.end));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += dur as f64 * 1e-9;
        e.self_s += own as f64 * 1e-9;
        e.attributed_s += match on_driver {
            None => own as f64 * 1e-9,
            Some((cs, ce)) => (ce - cs).saturating_sub(union_len(kids, cs, ce)) as f64 * 1e-9,
        };
        e.durations_us.push(dur as f64 * 1e-3);
    };
    for (s, kids) in driver.iter().zip(children.iter_mut()) {
        add(s, kids, None);
    }
    for ((s, kids), &c) in others.iter().zip(other_children.iter_mut()).zip(&clipped) {
        add(s, kids, Some(c));
    }
    out
}

/// Length of the union of `ivs`, clipped to `[lo, hi)`.
fn union_len(ivs: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    ivs.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in ivs.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Write a span log as tab-separated text: thread, index, name, start ns,
/// end ns, parent, client, seq.
pub fn write_tsv(path: &str, logs: &[(&str, &[Span])]) -> std::io::Result<()> {
    use std::io::Write;
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(
        w,
        "thread\tidx\tname\tstart_ns\tend_ns\tparent\tclient\tseq"
    )?;
    for (thread, spans) in logs {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                s.parent as i64
            };
            let seq = if s.seq == NONE { -1 } else { s.seq as i64 };
            writeln!(
                w,
                "{thread}\t{i}\t{}\t{}\t{}\t{parent}\t{}\t{seq}",
                s.name, s.start, s.end, s.client
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(union_len(&mut iv, 1, 25), 2 + 7 + 5);
    }

    #[test]
    fn self_time_subtracts_children_and_cross_thread_rpc_children() {
        let mk = |name, start, end, parent, seq| Span {
            name,
            start,
            end,
            parent,
            client: 0,
            seq,
        };
        let driver = vec![mk("cc", 0, 100, NONE, NONE), mk("rpc", 10, 60, 0, 7)];
        let server = vec![mk("server.service", 20, 70, NONE, 7)];
        let a = analyse(&driver, &server);
        let close = |x: f64, ns: f64| (x - ns * 1e-9).abs() < 1e-15;
        assert!(close(a["cc"].self_s, 50.0));
        assert!(close(a["rpc"].self_s, 10.0));
        assert!(close(a["server.service"].self_s, 50.0));
        assert!(close(a["server.service"].attributed_s, 40.0));
        let total: f64 = a.values().map(|n| n.attributed_s).sum();
        assert!(close(total, 100.0));
    }
}
