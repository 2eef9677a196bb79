//! Both stations forget a connection by one rule (`Station`'s docs):
//! once its stack has delivered the end, will deliver nothing more, and
//! `recv` has nothing left — whether or not the user ever asked
//! `finished`. Two stations of one kind over `testlink` run `churn`'s
//! lifecycle (connect, 64 bytes each way, close, TIME-WAIT runs out)
//! with a client that never asks. The fox client's heap calls per
//! lifecycle are pinned exactly with the counting allocator; the xk
//! client's `debug_line` lists the sockets it still polls.

#[path = "../../foxbasis/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs;
use fox_scheduler::{SchedHandle, Scheduler};
use foxbasis::time::{VirtualDuration, VirtualTime};
use foxharness::stack::{fox_station, xk_station};
use foxharness::station::{ConnHandle, Station};
use foxtcp::testlink::{immediate, LinkPair, TestAux};
use foxtcp::{Tcp, TcpConfig};
use simnet::{HostHandle, Medium};
use xktcp::{XkConfig, XkTcp};

/// Heap calls one lifecycle costs a warm fox client that never asks
/// `finished`: the handler box (it captures the connection's record and
/// the station's end list) and the engine's `TcpEvent::Data` vector,
/// which `recv` hands out. The record is the spare a forgotten
/// connection left, and the engine's is its slot's spare. Before the
/// client forgot its connections, each lifecycle also cost a new record
/// and, now and then, a larger index to file it in.
const CLIENT_ALLOCS_PER_LIFECYCLE: u64 = 2;

const LIFECYCLES: u64 = 200;

const PORT: u16 = 80;

/// Two stations joined by the test link, and the heap calls made inside
/// the client's calls.
struct Rig {
    link: LinkPair,
    client: Box<dyn Station>,
    server: Box<dyn Station>,
    client_allocs: u64,
}

impl Rig {
    /// Two fox stations with immediate ACKs and 10 ms of TIME-WAIT.
    fn fox() -> Rig {
        let link = LinkPair::new();
        let cfg = TcpConfig { time_wait_ms: 10, ..immediate() };
        let station = |side: u8| {
            let sched = SchedHandle::from_scheduler(Scheduler::starting_at(VirtualTime::ZERO));
            let tcp = Tcp::new(link.endpoint(side), TestAux, (), cfg.clone(), sched, HostHandle::free());
            fox_station(tcp, HostHandle::free(), 1 - side, "fox")
        };
        let (client, server) = (station(0), station(1));
        Rig::new(link, client, server)
    }

    /// Two x-kernel stations with immediate ACKs and 10 ms of TIME-WAIT.
    fn xk() -> Rig {
        let link = LinkPair::new();
        let cfg = XkConfig { delayed_ack_ms: None, time_wait_ms: 10, ..XkConfig::default() };
        let station = |side: u8| {
            let host = HostHandle::free();
            xk_station(
                XkTcp::new(link.endpoint(side), TestAux, (), cfg.clone(), host.clone()),
                host,
                1 - side,
            )
        };
        let (client, server) = (station(0), station(1));
        Rig::new(link, client, server)
    }

    fn new(link: LinkPair, client: Box<dyn Station>, mut server: Box<dyn Station>) -> Rig {
        server.listen(PORT);
        Rig { link, client, server, client_allocs: 0 }
    }

    /// Runs `call` on the client, counting its heap calls.
    fn on_client<R>(&mut self, call: impl FnOnce(&mut dyn Station) -> R) -> R {
        let before = allocs();
        let r = call(&mut *self.client);
        self.client_allocs += allocs() - before;
        r
    }

    /// Steps both stations until neither has work, after moving the
    /// clock `ms` on.
    fn settle_after(&mut self, ms: u64) {
        self.link.advance_to(self.link.now() + VirtualDuration::from_millis(ms));
        let Rig { link, client, server, client_allocs } = self;
        simnet::settle(&[&*link], |now| {
            let before = allocs();
            let progress = client.step(now);
            *client_allocs += allocs() - before;
            progress | server.step(now)
        });
    }

    /// One lifecycle: the client connects, 64 bytes go each way, the
    /// client closes and then the server, and the clock runs past the
    /// client's TIME-WAIT. The client never asks `finished`. Returns
    /// the client's handle and the server's.
    fn lifecycle(&mut self) -> (ConnHandle, ConnHandle) {
        let c = self.on_client(|st| st.connect(PORT));
        self.settle_after(0);
        let s = self.server.accept().expect("a child to accept");
        assert_eq!(self.on_client(|st| st.send(c, &[7; 64])), 64);
        self.settle_after(0);
        assert_eq!(self.server.recv(s), [7; 64]);
        assert_eq!(self.server.send(s, &[9; 64]), 64);
        self.settle_after(0);
        assert_eq!(self.on_client(|st| st.recv(c)), [9; 64]);
        self.on_client(|st| st.close(c));
        self.settle_after(0);
        assert!(self.server.peer_closed(s));
        self.server.close(s);
        self.settle_after(0);
        self.settle_after(11);
        (c, s)
    }
}

#[test]
fn a_fox_client_that_never_asks_finished_runs_a_lifecycle_in_a_pinned_number_of_heap_calls() {
    let mut rig = Rig::fox();
    // Warm-up: the first lifecycles grow both stations' tables and
    // records, and the engines' spares, wheels and pools.
    for _ in 0..LIFECYCLES {
        rig.lifecycle();
    }
    rig.client_allocs = 0;
    let mut last = None;
    for _ in 0..LIFECYCLES {
        last = Some(rig.lifecycle());
    }
    assert_eq!(
        rig.client_allocs,
        CLIENT_ALLOCS_PER_LIFECYCLE * LIFECYCLES,
        "the client's heap calls per lifecycle moved ({} over {LIFECYCLES} lifecycles)",
        rig.client_allocs as f64 / LIFECYCLES as f64
    );
    // Only now does anyone ask: a forgotten handle reads as finished,
    // with nothing received, neither established nor closed by the peer.
    let (c, s) = last.expect("lifecycles ran");
    assert!(rig.client.finished(c) && rig.server.finished(s), "both ends are over");
    assert_eq!(rig.client.received_len(c), 0);
    assert!(!rig.client.established(c) && !rig.client.peer_closed(c), "the client forgot {c}");
}

#[test]
fn an_xk_client_that_never_asks_finished_polls_only_its_live_sockets() {
    let mut rig = Rig::xk();
    for round in 0..8 {
        let c = rig.on_client(|st| st.connect(PORT));
        rig.settle_after(0);
        let live = rig.client.debug_line();
        assert!(live.starts_with("Established") && !live.contains(" | "), "round {round}: {live:?}");
        let s = rig.server.accept().expect("a child to accept");
        rig.client.close(c);
        rig.settle_after(0);
        rig.server.close(s);
        rig.settle_after(0);
        assert!(rig.client.debug_line().starts_with("TimeWait"), "round {round}: the client waits");
        rig.settle_after(11);
        assert_eq!(rig.client.debug_line(), "", "round {round}: the client still polls a socket it ended");
        assert!(rig.client.finished(c) && rig.server.finished(s), "round {round}: both ends are over");
        assert!(
            !rig.client.established(c) && !rig.client.peer_closed(c),
            "round {round}: the client forgot {c}"
        );
    }
    let (c, s) = rig.lifecycle();
    assert!(rig.client.finished(c) && rig.server.finished(s) && rig.client.debug_line().is_empty());
    assert!(
        !rig.server.finished(rig.server.listener().expect("listening")),
        "a listener is not a connection"
    );
}
