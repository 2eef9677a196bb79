//! The device protocol: the bottom of the stack.
//!
//! In the Fox Net this layer talked Mach IPC to the Ethernet driver
//! ("Our implementation ... uses the Mach Interprocess Communication
//! mechanism to send and receive packets"). Here it fronts a
//! [`simnet::Port`]: sends charge the `Mach send` and `copy` accounts
//! (the one data copy the paper's stack performs — "our protocols copy
//! data only once, when delivering a segment to the micro-kernel"),
//! receives charge `packet wait`, and frames appear on the simulated
//! segment at the instant the simulated CPU actually finished producing
//! them.

use crate::{Handler, ProtoError, Protocol};
use foxbasis::buf::PacketBuf;
use foxbasis::obs::{Event, EventSink, NO_CONN};
use foxbasis::time::VirtualTime;
use simnet::{HostHandle, Port, Work};
use std::fmt;

/// GRO/TSO-style device batching limits.
///
/// `1` for both (the default) reproduces the unbatched device exactly:
/// every frame is its own batch. Larger values group frames so the
/// per-*batch* costs of the host's [`simnet::CostModel`] (receive wakeup,
/// transmit doorbell) are paid once per group. The 1994 cost presets
/// have zero per-batch costs, so batching never perturbs a paper-era
/// trace; only the modern profile gives batching something to amortize.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BatchConfig {
    /// Maximum frames drained from the port as one receive (GRO) batch.
    pub rx_burst: usize,
    /// Maximum frames per transmit doorbell (TSO) group within one
    /// device pump.
    pub tx_burst: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { rx_burst: 1, tx_burst: 1 }
    }
}

/// The device protocol.
pub struct Dev {
    port: Port,
    host: HostHandle,
    handler: Option<Handler<PacketBuf>>,
    opened: bool,
    batch: BatchConfig,
    /// Frames handed to the device since the last doorbell charge;
    /// resets every pump ([`Dev::step`]) and every host episode, so
    /// doorbell groups never span engine passes, not even a pass that
    /// had nothing to pump.
    tx_in_group: usize,
    /// The host episode `tx_in_group` counts in.
    tx_episode: u64,
    frames_sent: u64,
    frames_received: u64,
    rx_batches: u64,
    tx_doorbells: u64,
    obs: EventSink,
}

/// `Dev` has exactly one connection: the wire.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DevConn;

impl Dev {
    /// A device on `port`, charging costs to `host`.
    pub fn new(port: Port, host: HostHandle) -> Dev {
        Dev {
            port,
            host,
            handler: None,
            opened: false,
            batch: BatchConfig::default(),
            tx_in_group: 0,
            tx_episode: 0,
            frames_sent: 0,
            frames_received: 0,
            rx_batches: 0,
            tx_doorbells: 0,
            obs: EventSink::off(),
        }
    }

    /// Sets the GRO/TSO batching limits (defaults to unbatched).
    pub fn set_batching(&mut self, batch: BatchConfig) {
        self.batch = batch;
    }

    /// Installs an event sink; frames handed to (and pulled from) the
    /// wire are recorded from this host's point of view.
    pub fn set_obs(&mut self, sink: EventSink) {
        self.obs = sink;
    }

    /// The port's MAC address.
    pub fn mac(&self) -> foxwire::ether::EthAddr {
        self.port.addr()
    }

    /// Frames sent / received so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.frames_sent, self.frames_received)
    }

    /// Receive batches drained / transmit doorbells rung so far.
    pub fn batch_counters(&self) -> (u64, u64) {
        (self.rx_batches, self.tx_doorbells)
    }
}

impl Protocol for Dev {
    type Pattern = ();
    type Peer = ();
    type Incoming = PacketBuf;
    type ConnId = DevConn;

    fn open(&mut self, _pattern: (), handler: Handler<PacketBuf>) -> Result<DevConn, ProtoError> {
        if self.opened {
            return Err(ProtoError::AlreadyOpen);
        }
        self.opened = true;
        self.handler = Some(handler);
        Ok(DevConn)
    }

    fn send(&mut self, _conn: DevConn, _to: (), frame: impl Into<PacketBuf>) -> Result<(), ProtoError> {
        let frame = frame.into();
        // The *modeled* single data copy of the send path, into the
        // "kernel", plus buffer management and the Mach IPC send. The
        // virtual cost model still charges the paper's per-KB constant
        // here even though the Rust buffer crosses by refcount bump.
        self.host.charge(Work::Copy(frame.len()));
        self.host.charge(Work::Misc);
        self.host.charge(Work::MachSend);
        // TSO-style doorbell: the first frame of every `tx_burst`-sized
        // group in this pump pays the per-batch device cost (zero under
        // the 1994 presets).
        self.new_group_per_episode();
        if self.tx_in_group == 0 {
            self.host.charge(Work::TxDoorbell);
            self.tx_doorbells += 1;
        }
        self.tx_in_group = (self.tx_in_group + 1) % self.batch.tx_burst.max(1);
        self.frames_sent += 1;
        // The frame reaches the wire when the CPU is done with
        // everything charged so far in this episode.
        let at = self.host.with(|h| h.now_busy());
        self.obs.emit(at, NO_CONN, || Event::FrameTx { bytes: frame.len() as u32 });
        self.port.send_at(at, frame);
        Ok(())
    }

    fn close(&mut self, _conn: DevConn) -> Result<(), ProtoError> {
        if !self.opened {
            return Err(ProtoError::NotOpen);
        }
        self.opened = false;
        self.handler = None;
        Ok(())
    }

    fn step(&mut self, _now: VirtualTime) -> bool {
        // A new pump starts a fresh transmit doorbell group.
        self.new_group_per_episode();
        self.tx_in_group = 0;
        let mut progress = false;
        let burst = self.batch.rx_burst.max(1);
        loop {
            // Drain one GRO batch: up to `rx_burst` waiting frames share
            // a single receive-wakeup charge (zero under the 1994
            // presets, so batching is trace-invisible there). Per-frame
            // costs — packet wait, buffer management, the copy — are
            // still paid for every frame; batching amortizes only the
            // dispatch, not the data path.
            let mut in_batch = 0;
            while in_batch < burst {
                let Some(frame) = self.port.recv() else { break };
                if in_batch == 0 {
                    self.host.charge(Work::RxBatch);
                    self.rx_batches += 1;
                }
                in_batch += 1;
                self.frames_received += 1;
                self.host.charge(Work::PacketWait);
                self.host.charge(Work::Misc);
                self.host.charge(Work::Copy(frame.len()));
                if let Some(handler) = &mut self.handler {
                    handler(frame);
                }
                // No handler: the frame is dropped, as a real driver
                // drops frames nobody has opened the device for.
            }
            if in_batch == 0 {
                break;
            }
            progress = true;
        }
        progress
    }

    fn poll_at(&self) -> Option<VirtualTime> {
        self.port.has_rx().then_some(VirtualTime::ZERO)
    }
}

impl Dev {
    /// Starts a fresh transmit doorbell group at the first call in a
    /// new host episode: a stack that has nothing to pump skips
    /// [`Dev::step`], but its pass is still a new one.
    fn new_group_per_episode(&mut self) {
        let episode = self.host.with(|h| h.episodes());
        if episode != self.tx_episode {
            self.tx_episode = episode;
            self.tx_in_group = 0;
        }
    }
}

impl fmt::Debug for Dev {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dev({:?}, sent={}, recv={})", self.port.addr(), self.frames_sent, self.frames_received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foxwire::ether::EthAddr;
    use simnet::SimNet;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn pair() -> (SimNet, Dev, Dev) {
        let net = SimNet::ethernet_10mbps(3);
        let a = Dev::new(net.attach(EthAddr::host(1)), HostHandle::free());
        let b = Dev::new(net.attach(EthAddr::host(2)), HostHandle::free());
        (net, a, b)
    }

    fn frame(dst: EthAddr, n: usize) -> Vec<u8> {
        foxwire::ether::Frame::new(dst, EthAddr::host(1), foxwire::ether::EtherType::Ipv4, vec![1; n])
            .encode_buf()
            .unwrap()
            .to_vec()
    }

    #[test]
    fn send_and_receive_through_the_wire() {
        let (net, mut a, mut b) = pair();
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        b.open((), Box::new(move |f| g.borrow_mut().push(f))).unwrap();
        a.send(DevConn, (), frame(EthAddr::host(2), 100)).unwrap();
        net.advance_to(foxbasis::time::VirtualTime::from_millis(10));
        assert!(b.step(net.now()));
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(a.counters(), (1, 0));
        assert_eq!(b.counters(), (0, 1));
    }

    #[test]
    fn double_open_rejected_and_close_reopens() {
        let (_net, mut a, _b) = pair();
        a.open((), Box::new(|_| {})).unwrap();
        assert_eq!(a.open((), Box::new(|_| {})), Err(ProtoError::AlreadyOpen));
        a.close(DevConn).unwrap();
        assert_eq!(a.close(DevConn), Err(ProtoError::NotOpen));
        a.open((), Box::new(|_| {})).unwrap();
    }

    #[test]
    fn obs_sees_frames_hit_the_wire() {
        let (net, mut a, _b) = pair();
        let sink = foxbasis::obs::EventSink::recording(16);
        a.set_obs(sink.for_host(0));
        net.set_obs(sink.clone());
        a.send(DevConn, (), frame(EthAddr::host(2), 100)).unwrap();
        net.advance_to(foxbasis::time::VirtualTime::from_millis(10));
        let evs = sink.events();
        assert!(evs.iter().any(|e| matches!(e.event, Event::FrameTx { bytes } if bytes > 100)));
        assert!(
            evs.iter().any(|e| matches!(e.event, Event::FrameDeliver { .. }) && e.host == 1),
            "the wire must attribute delivery to the receiving port: {evs:?}"
        );
    }

    #[test]
    fn frames_without_handler_are_dropped() {
        let (net, mut a, mut b) = pair();
        a.send(DevConn, (), frame(EthAddr::host(2), 50)).unwrap();
        net.advance_to(foxbasis::time::VirtualTime::from_millis(10));
        assert!(b.step(net.now())); // progress: a frame was consumed
        assert!(!b.step(net.now()));
    }
}
