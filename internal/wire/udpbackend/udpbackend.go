// Package udpbackend frames TCP segments over a UDP underlay: every
// wire.Segment travels as one datagram holding the codec's real
// IPv4+TCP framing (header plus zero-filled payload bytes), so two
// separate processes — or two sockets in one test — run the
// unmodified transport against an actual kernel network path.
//
// Flows are established with a SYN / SYN-ACK / ACK handshake carrying
// the classic options (MSS, window scale, SACK-permitted), with the
// SYN retried up to three times. The fetch side (the receiver)
// initiates; the serve side (the sender) accepts. Loss, delay and
// duplication can be injected at the sending edge through the same
// netsim.Impairments stages the simulator links use.
//
// Threading: each endpoint owns a rtclock.Reactor that runs the
// transport's virtual timers at wall-clock pace, plus a reader
// goroutine that pushes arriving datagrams onto the reactor.
package udpbackend

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"suss/internal/netsim"
	"suss/internal/wire"
	"suss/internal/wire/rtclock"
)

// handshake constants: the serve side's ISN is 0, so the fetch side's
// completing ACK acknowledges 1. That ACK travels with Window 0 — no
// transport segment ever does (they all advertise 65535) — which lets
// the endpoint consume it without per-flow connection state.
const (
	synRetries   = 3
	synTimeout   = 300 * time.Millisecond
	maxDatagram  = 65535
	handshakeWin = 0
)

// Config shapes one endpoint.
type Config struct {
	// MSS is announced in this endpoint's SYN or SYN-ACK (default
	// 1448).
	MSS int
	// Impair, when non-nil, judges every outgoing frame (the same
	// stages simulator links run; drops erase the datagram before the
	// socket sees it, extra delay defers the write).
	Impair netsim.Impairments
}

func (c Config) mss() int {
	if c.MSS <= 0 {
		return 1448
	}
	return c.MSS
}

// PeerInfo is what the handshake learned about the far end.
type PeerInfo struct {
	MSS           int
	WScale        uint8
	SackPermitted bool
}

// Stats counts one endpoint's wire traffic.
type Stats struct {
	FramesOut, FramesIn int64
	BytesOut, BytesIn   int64
	ImpairDrops         int64
	DecodeDrops         int64
	WriteErrs           int64
}

// flowState is the per-flow handshake ledger (reactor-goroutine
// only).
type flowState struct {
	synSeen bool
	peer    PeerInfo
	waiters []chan PeerInfo
	conn    *Conn
}

// Endpoint is one UDP socket with its reactor. Build one with Listen
// (serve side) or Dial (fetch side).
type Endpoint struct {
	r    *rtclock.Reactor
	cfg  Config
	sock *net.UDPConn
	// raddr is the far end: fixed for Dial, learned from the first
	// datagram for Listen. Reactor-goroutine only after start.
	raddr   *net.UDPAddr
	dialed  bool
	flows   map[netsim.FlowID]*flowState
	scratch wire.Segment
	judge   netsim.Packet
	stats   Stats
}

// Listen opens the serve-side endpoint on addr (e.g.
// "127.0.0.1:7000", or ":0" for an ephemeral port) with cfg's
// impairments and options.
func Listen(addr string, cfg Config) (*Endpoint, error) { return open(addr, "", cfg) }

// Dial opens the fetch-side endpoint talking to raddr with cfg's
// impairments and options.
func Dial(raddr string, cfg Config) (*Endpoint, error) { return open("", raddr, cfg) }

func open(laddr, raddr string, cfg Config) (*Endpoint, error) {
	ep := &Endpoint{cfg: cfg, flows: make(map[netsim.FlowID]*flowState)}
	if raddr != "" {
		ra, err := net.ResolveUDPAddr("udp", raddr)
		if err != nil {
			return nil, err
		}
		sock, err := net.ListenUDP("udp", nil)
		if err != nil {
			return nil, err
		}
		ep.sock, ep.raddr, ep.dialed = sock, ra, true
	} else {
		la, err := net.ResolveUDPAddr("udp", laddr)
		if err != nil {
			return nil, err
		}
		sock, err := net.ListenUDP("udp", la)
		if err != nil {
			return nil, err
		}
		ep.sock = sock
	}
	ep.r = rtclock.New(time.Now())
	go ep.readLoop()
	return ep, nil
}

// Addr returns the endpoint's bound UDP address.
func (ep *Endpoint) Addr() *net.UDPAddr { return ep.sock.LocalAddr().(*net.UDPAddr) }

// Reactor returns the endpoint's reactor.
func (ep *Endpoint) Reactor() *rtclock.Reactor { return ep.r }

// Stats snapshots the endpoint's counters.
func (ep *Endpoint) Stats() Stats {
	var st Stats
	ep.r.DoWait(func() { st = ep.stats })
	return st
}

// Close shuts the socket (stopping the reader) and the reactor.
func (ep *Endpoint) Close() error {
	err := ep.sock.Close()
	ep.r.Close()
	return err
}

func (ep *Endpoint) readLoop() {
	buf := make([]byte, maxDatagram)
	for {
		n, addr, err := ep.sock.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		frame := make([]byte, n)
		copy(frame, buf[:n])
		ep.r.Do(func() { ep.deliver(frame, addr) })
	}
}

func ip4(a *net.UDPAddr) uint32 {
	if a == nil {
		return 0
	}
	if v4 := a.IP.To4(); v4 != nil {
		return binary.BigEndian.Uint32(v4)
	}
	return 0
}

// state returns (creating if needed) the flow's handshake ledger.
func (ep *Endpoint) state(id netsim.FlowID) *flowState {
	st := ep.flows[id]
	if st == nil {
		st = &flowState{}
		ep.flows[id] = st
	}
	return st
}

// deliver routes one datagram on the reactor goroutine.
func (ep *Endpoint) deliver(frame []byte, from *net.UDPAddr) {
	if !ep.dialed {
		ep.raddr = from // learn (and track) the far end
	}
	n, err := wire.DecodeSegment(frame, &ep.scratch)
	if err != nil {
		ep.stats.DecodeDrops++
		return
	}
	ep.stats.FramesIn++
	ep.stats.BytesIn += int64(n)
	seg := &ep.scratch
	id := netsim.FlowID(seg.DstPort)
	switch {
	case seg.Flags&wire.FlagSYN != 0 && seg.Flags&wire.FlagACK == 0:
		// SYN: record the fetch side's options, answer SYN-ACK
		// (idempotent — a retried SYN means ours was lost).
		st := ep.state(id)
		st.synSeen = true
		st.peer = PeerInfo{MSS: int(seg.MSS), WScale: seg.WScale, SackPermitted: seg.SackPermitted}
		ep.writeFrame(ep.handshakeSeg(id, wire.FlagSYN|wire.FlagACK, 1))
		for _, w := range st.waiters {
			w <- st.peer
		}
		st.waiters = nil
	case seg.Flags&wire.FlagSYN != 0:
		// SYN-ACK: signal the connecting side.
		st := ep.state(id)
		st.synSeen = true
		st.peer = PeerInfo{MSS: int(seg.MSS), WScale: seg.WScale, SackPermitted: seg.SackPermitted}
		for _, w := range st.waiters {
			w <- st.peer
		}
		st.waiters = nil
	case !seg.IsData() && seg.Window == handshakeWin && seg.Ack == 1 && seg.NSack == 0:
		// The handshake's completing ACK; consumed here so the
		// transport never mistakes it for a cumulative ACK.
	default:
		st := ep.flows[id]
		if st == nil || st.conn == nil || st.conn.h == nil {
			return // no endpoint attached (yet): drop, retransmission recovers
		}
		st.conn.h(seg, n)
	}
}

// handshakeSeg builds a handshake frame for the flow.
func (ep *Endpoint) handshakeSeg(id netsim.FlowID, flags uint8, ack uint32) *wire.Segment {
	win := uint16(65535)
	if flags == wire.FlagACK {
		win = handshakeWin
	}
	return &wire.Segment{
		SrcPort: uint16(id), DstPort: uint16(id),
		Flags: flags, Ack: ack, Window: win,
		HasMSS: flags&wire.FlagSYN != 0, MSS: uint16(ep.cfg.mss()),
		HasWScale: flags&wire.FlagSYN != 0, WScale: 7,
		SackPermitted: flags&wire.FlagSYN != 0,
	}
}

// writeFrame encodes and sends one segment now, on the reactor
// goroutine, bypassing impairments (handshake frames rely on their
// own retry).
func (ep *Endpoint) writeFrame(seg *wire.Segment) {
	buf := make([]byte, wire.MaxHeaderLen+seg.PayloadLen)
	seg.SrcAddr, seg.DstAddr = ip4(ep.Addr()), ip4(ep.raddr)
	n, err := wire.EncodeSegment(buf, seg)
	if err != nil {
		panic(fmt.Sprintf("udpbackend: encode: %v", err))
	}
	ep.write(buf[:n])
}

func (ep *Endpoint) write(frame []byte) {
	var err error
	if ep.dialed {
		_, err = ep.sock.WriteToUDP(frame, ep.raddr)
	} else if ep.raddr != nil {
		_, err = ep.sock.WriteToUDP(frame, ep.raddr)
	} else {
		err = fmt.Errorf("no peer yet")
	}
	if err != nil {
		ep.stats.WriteErrs++
		return
	}
	ep.stats.FramesOut++
	ep.stats.BytesOut += int64(len(frame))
}

// Connect initiates the handshake for a flow from the fetch side,
// retrying the SYN up to three times, and returns the flow's conn.
func (ep *Endpoint) Connect(id netsim.FlowID) (*Conn, PeerInfo, error) {
	if uint32(id) > 0xFFFF {
		return nil, PeerInfo{}, fmt.Errorf("udpbackend: flow id %d does not fit a port", id)
	}
	got := make(chan PeerInfo, 1)
	ep.r.DoWait(func() {
		st := ep.state(id)
		if st.synSeen {
			got <- st.peer
			return
		}
		st.waiters = append(st.waiters, got)
	})
	syn := func() {
		ep.r.Do(func() { ep.writeFrame(ep.handshakeSeg(id, wire.FlagSYN, 0)) })
	}
	var peer PeerInfo
	ok := false
	for attempt := 0; attempt < synRetries && !ok; attempt++ {
		syn()
		select {
		case peer = <-got:
			ok = true
		case <-time.After(synTimeout):
		}
	}
	if !ok {
		return nil, PeerInfo{}, fmt.Errorf("udpbackend: flow %d: no SYN-ACK after %d attempts", id, synRetries)
	}
	// Complete: ACK the serve side's ISN+1.
	ep.r.Do(func() { ep.writeFrame(ep.handshakeSeg(id, wire.FlagACK, 1)) })
	return ep.attach(id), peer, nil
}

// Accept waits (up to timeout) for a flow's SYN on the serve side and
// returns its conn. The SYN-ACK is sent by the reactor the moment the
// SYN arrives, whether or not Accept is already waiting.
func (ep *Endpoint) Accept(id netsim.FlowID, timeout time.Duration) (*Conn, PeerInfo, error) {
	if uint32(id) > 0xFFFF {
		return nil, PeerInfo{}, fmt.Errorf("udpbackend: flow id %d does not fit a port", id)
	}
	got := make(chan PeerInfo, 1)
	ep.r.DoWait(func() {
		st := ep.state(id)
		if st.synSeen {
			got <- st.peer
			return
		}
		st.waiters = append(st.waiters, got)
	})
	select {
	case peer := <-got:
		return ep.attach(id), peer, nil
	case <-time.After(timeout):
		return nil, PeerInfo{}, fmt.Errorf("udpbackend: flow %d: no SYN within %v", id, timeout)
	}
}

func (ep *Endpoint) attach(id netsim.FlowID) *Conn {
	c := &Conn{ep: ep, flow: id}
	ep.r.DoWait(func() { ep.state(id).conn = c })
	return c
}

// Conn implements wire.Conn for one flow over the UDP underlay.
type Conn struct {
	ep   *Endpoint
	flow netsim.FlowID
	h    wire.Handler

	// seqNear anchors the 32→64-bit unwrap of outgoing data sequence
	// numbers into the judged packet's Seq.
	seqNear int64
}

// Clock implements wire.Conn.
func (c *Conn) Clock() *netsim.Simulator { return c.ep.r.Sim() }

// SetHandler implements wire.Conn.
func (c *Conn) SetHandler(h wire.Handler) {
	c.ep.r.DoWait(func() { c.h = h })
}

// Send implements wire.Conn. It must run on the endpoint's reactor
// goroutine (transport endpoints always send from event callbacks).
// The datagram carries the encoded header plus seg.PayloadLen real
// zero bytes.
func (c *Conn) Send(seg *wire.Segment, meta wire.SendMeta) int {
	ep := c.ep
	sim := ep.r.Sim()
	now := sim.Now()
	seg.SrcAddr, seg.DstAddr = ip4(ep.Addr()), ip4(ep.raddr)

	buf := make([]byte, wire.MaxHeaderLen+seg.PayloadLen)
	n, err := wire.EncodeSegment(buf, seg)
	if err != nil {
		panic(fmt.Sprintf("udpbackend: encode: %v", err))
	}
	frame := buf[:n] // payload tail is already zero

	var extra, dupExtra time.Duration
	dup := false
	if ep.cfg.Impair != nil {
		v := ep.cfg.Impair.Judge(now, c.annotate(seg, meta, n))
		if v.Drop {
			ep.stats.ImpairDrops++
			return n
		}
		extra = v.ExtraDelay
		if extra < 0 {
			extra = 0
		}
		dup, dupExtra = v.Duplicate, v.DupExtraDelay
	}
	c.writeAfter(frame, extra)
	if dup {
		c.writeAfter(frame, extra+dupExtra)
	}
	return n
}

func (c *Conn) writeAfter(frame []byte, d time.Duration) {
	if d <= 0 {
		c.ep.write(frame)
		return
	}
	ep := c.ep
	ep.r.Sim().Schedule(d, func() { ep.write(frame) })
}

// annotate fills the endpoint's judge packet with what the impairment
// stages read, as simbackend.Send does for a simulated packet: the
// modeled wire size, the flow, the kind and a data segment's 64-bit
// Seq. The frame itself goes to the socket, not into the packet.
func (c *Conn) annotate(seg *wire.Segment, meta wire.SendMeta, n int) *netsim.Packet {
	pkt := &c.ep.judge
	*pkt = netsim.Packet{Flow: c.flow, Kind: netsim.Ack, Size: n}
	if meta.WireSize > 0 {
		pkt.Size = meta.WireSize
	}
	if seg.IsData() {
		pkt.Kind = netsim.Data
		c.seqNear = wire.Unwrap32(c.seqNear, seg.Seq)
		pkt.Seq = c.seqNear
	}
	return pkt
}

// Loopback bundles a serve and a fetch endpoint on 127.0.0.1, the
// in-process wall-clock harness: FlowConns handshakes the flow and
// returns the serve side as the sender conn and the fetch side as the
// receiver conn (the fetch side initiates, like a download).
type Loopback struct {
	Serve, Fetch *Endpoint
}

// NewLoopback opens both endpoints on ephemeral loopback ports.
func NewLoopback(serveCfg, fetchCfg Config) (*Loopback, error) {
	s, err := Listen("127.0.0.1:0", serveCfg)
	if err != nil {
		return nil, err
	}
	f, err := Dial(s.Addr().String(), fetchCfg)
	if err != nil {
		s.Close()
		return nil, err
	}
	return &Loopback{Serve: s, Fetch: f}, nil
}

// FlowConns returns the two ends of flow id, handshaken.
func (l *Loopback) FlowConns(id netsim.FlowID) (snd, rcv wire.Conn, err error) {
	type res struct {
		c   *Conn
		err error
	}
	acceptCh := make(chan res, 1)
	go func() {
		c, _, err := l.Serve.Accept(id, time.Duration(synRetries+1)*synTimeout)
		acceptCh <- res{c, err}
	}()
	fc, _, err := l.Fetch.Connect(id)
	if err != nil {
		return nil, nil, err
	}
	a := <-acceptCh
	if a.err != nil {
		return nil, nil, a.err
	}
	return a.c, fc, nil
}

// Close shuts both endpoints.
func (l *Loopback) Close() error {
	err := l.Fetch.Close()
	if e := l.Serve.Close(); err == nil {
		err = e
	}
	return err
}
