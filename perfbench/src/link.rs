//! Transports the benchmark puts around the repository's links, so the
//! link and the MC can be timed from outside the program.
//!
//! * [`InlineMc`] — the compress95 workloads' remote MC: the client's
//!   `McEndpoint::remote` talks to an in-process `loopback_pair`, and each
//!   `send` immediately runs `serve_bounded(mc, mc_end, 1)` on the same
//!   thread, so the envelope/session codec is on the path and the MC's
//!   work is one span.
//! * [`ClientLink`] — wraps the client end of any transport and records
//!   the client-observed round trip of every RPC (first `send` to the
//!   matching `recv`); in a traced run it also opens the `rpc` span.
//! * [`ServerLink`] — wraps the server end of a fan-in channel; in a
//!   traced run it records the `server.service` span (frame out of
//!   `try_recv` until the reply `send`) and the queue wait (client `send`
//!   until server pickup). Readiness and `pending` go straight through.

use crate::trace;
use softcache_core::{serve_bounded, Mc, ServeReport};
use softcache_net::envelope::open;
use softcache_net::transport::Loopback;
use softcache_net::{loopback_pair, NetError, ReadySet, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What an [`InlineMc`] leaves behind for the benchmark to read.
pub struct InlineState {
    pub mc: Mc,
    pub report: ServeReport,
}

/// A remote MC served inline, on the client's thread.
pub struct InlineMc {
    cc_end: Loopback,
    mc_end: Loopback,
    state: Arc<Mutex<InlineState>>,
}

impl InlineMc {
    pub fn new(mc: Mc) -> (InlineMc, Arc<Mutex<InlineState>>) {
        let (cc_end, mc_end) = loopback_pair();
        let state = Arc::new(Mutex::new(InlineState {
            mc,
            report: ServeReport::default(),
        }));
        (
            InlineMc {
                cc_end,
                mc_end,
                state: Arc::clone(&state),
            },
            state,
        )
    }
}

impl Transport for InlineMc {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        self.cc_end.send(frame)?;
        let mut st = self.state.lock().expect("inline MC state poisoned");
        let st = &mut *st;
        let idx = trace::enter("mc.serve", 0, trace::NONE);
        let r = serve_bounded(&mut st.mc, &mut self.mc_end, 1);
        trace::exit(idx);
        st.report.served += r.served;
        st.report.runt_frames += r.runt_frames;
        st.report.crc_drops += r.crc_drops;
        st.report.dup_requests += r.dup_requests;
        st.report.batches += r.batches;
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.cc_end.recv()
    }

    fn pending(&self) -> usize {
        self.cc_end.pending()
    }
}

/// Client-observed RPC round trips, nanoseconds, one per completed RPC.
pub type RttLog = Arc<Mutex<Vec<u64>>>;

/// Times every exchange on the client end of a link.
pub struct ClientLink<T: Transport> {
    inner: T,
    rtts: RttLog,
    client: u32,
    /// Send time of the RPC in flight (trace clock), shared with the
    /// server end so it can measure queue wait.
    sent_at: Arc<AtomicU64>,
    in_flight: bool,
    span: u32,
}

impl<T: Transport> ClientLink<T> {
    pub fn new(inner: T, rtts: RttLog, client: u32, sent_at: Arc<AtomicU64>) -> ClientLink<T> {
        ClientLink {
            inner,
            rtts,
            client,
            sent_at,
            in_flight: false,
            span: trace::NONE,
        }
    }
}

impl<T: Transport> Transport for ClientLink<T> {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        // A retransmission keeps the first send's clock: the RPC's round
        // trip is what the client waited in total.
        if !self.in_flight {
            self.in_flight = true;
            // Opening the envelope checks its CRC: only pay for that when
            // the sequence number is needed to tie server spans to this one.
            let seq = if trace::on() {
                open(&frame).map(|e| e.seq).unwrap_or(trace::NONE)
            } else {
                trace::NONE
            };
            self.span = trace::enter("rpc", self.client, seq);
            self.sent_at.store(trace::now(), Ordering::Release);
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let r = self.inner.recv();
        if r.is_ok() && self.in_flight {
            let rtt = trace::now().saturating_sub(self.sent_at.load(Ordering::Acquire));
            trace::exit(self.span);
            self.in_flight = false;
            self.rtts.lock().expect("rtt log poisoned").push(rtt);
        }
        r
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// Queue-wait samples, nanoseconds, recorded by the server thread.
pub type WaitLog = Arc<Mutex<Vec<u64>>>;

/// Times service and queue wait on the server end of a fan-in link.
pub struct ServerLink<T: Transport> {
    inner: T,
    client: u32,
    sent_at: Arc<AtomicU64>,
    waits: WaitLog,
    picked: Option<(u64, u32)>,
}

impl<T: Transport> ServerLink<T> {
    pub fn new(inner: T, client: u32, sent_at: Arc<AtomicU64>, waits: WaitLog) -> ServerLink<T> {
        ServerLink {
            inner,
            client,
            sent_at,
            waits,
            picked: None,
        }
    }

    fn pick(&mut self, frame: &[u8]) {
        let t = trace::now();
        let seq = open(frame).map(|e| e.seq).unwrap_or(trace::NONE);
        let wait = t.saturating_sub(self.sent_at.load(Ordering::Acquire));
        self.waits.lock().expect("wait log poisoned").push(wait);
        self.picked = Some((t, seq));
    }
}

impl<T: Transport> Transport for ServerLink<T> {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        let r = self.inner.send(frame);
        if let Some((t, seq)) = self.picked.take() {
            trace::record("server.service", t, trace::now(), self.client, seq);
        }
        r
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let r = self.inner.recv();
        if let Ok(frame) = &r {
            self.pick(frame);
        }
        r
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        let r = self.inner.try_recv();
        if let Ok(Some(frame)) = &r {
            self.pick(frame);
        }
        r
    }

    fn register_ready(&mut self, set: &Arc<ReadySet>, token: usize) -> bool {
        self.inner.register_ready(set, token)
    }
}
