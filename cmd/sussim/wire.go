package main

import (
	"fmt"
	"math/rand"
	"time"

	"suss"
	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/runner"
	"suss/internal/tcp"
	"suss/internal/wire/udpbackend"
)

// handshakeTimeout bounds how long the demo endpoints wait for the
// other process to show up.
const handshakeTimeout = 10 * time.Minute

// serveFlow is the server half of the two-process UDP demo: bind addr,
// wait for a fetch's SYN, then push size bytes through the unmodified
// transport over the UDP underlay. wireLoss > 0 erases that fraction
// of outgoing frames at the sending edge (the Bernoulli stage a
// simulated wireless last hop runs), so recovery runs over real datagrams.
func serveFlow(addr string, algo suss.Algorithm, size int64, wireLoss float64, seed int64) error {
	cfg := udpbackend.Config{}
	if wireLoss > 0 {
		cfg.Impair = netsim.Impairments{netem.Bernoulli(wireLoss, rand.New(rand.NewSource(seed)))}
	}
	ep, err := udpbackend.Listen(addr, cfg)
	if err != nil {
		return err
	}
	defer ep.Close()
	fmt.Printf("serving %d bytes (%s) on %s; waiting for -fetch...\n", size, algo, ep.Addr())

	conn, peer, err := ep.Accept(1, handshakeTimeout)
	if err != nil {
		return err
	}
	fmt.Printf("flow accepted: peer MSS=%d wscale=%d sack=%v\n", peer.MSS, peer.WScale, peer.SackPermitted)

	snd := tcp.NewSender(conn, tcp.DefaultConfig(), 1, size, nil)
	conn.SetHandler(snd.HandleAck)
	r := ep.Reactor()
	start := time.Now()
	r.DoWait(func() {
		snd.SetController(runner.NewController(algo, snd))
		sim := r.Sim()
		sim.ScheduleAt(sim.Now(), snd.Start)
	})

	for {
		var fin, failed bool
		r.DoWait(func() { fin, failed = snd.Finished(), snd.Failed() })
		if fin {
			break
		}
		if failed {
			var ferr error
			r.DoWait(func() { ferr = snd.Err() })
			return fmt.Errorf("transfer failed: %w", ferr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	elapsed := time.Since(start)
	var st tcp.SenderStats
	r.DoWait(func() { st = snd.Stats() })
	ws := ep.Stats()
	fmt.Printf("done: %d bytes fully acked in %v\n", st.Delivered, elapsed.Round(time.Millisecond))
	fmt.Printf("  segments      %d (%d retrans, %d RTOs)\n", st.SegmentsSent, st.Retransmissions, st.RTOs)
	fmt.Printf("  wire          %d frames out / %d in, %d injected drops\n", ws.FramesOut, ws.FramesIn, ws.ImpairDrops)
	return nil
}

// fetchFlow is the client half: handshake with a -serve process at
// raddr and receive size bytes (the two processes must agree on size —
// the demo has no application-layer length header).
func fetchFlow(raddr string, size int64) error {
	ep, err := udpbackend.Dial(raddr, udpbackend.Config{})
	if err != nil {
		return err
	}
	defer ep.Close()

	start := time.Now()
	conn, peer, err := ep.Connect(1)
	if err != nil {
		return err
	}
	fmt.Printf("connected to %s in %v: MSS=%d wscale=%d sack=%v\n",
		raddr, time.Since(start).Round(time.Microsecond), peer.MSS, peer.WScale, peer.SackPermitted)

	rcv := tcp.NewReceiver(conn, tcp.DefaultConfig(), 1, size)
	done := make(chan struct{})
	ep.Reactor().DoWait(func() {
		rcv.OnComplete = func(time.Duration) { close(done) }
	})
	conn.SetHandler(rcv.Handle)

	select {
	case <-done:
	case <-time.After(handshakeTimeout):
		var recvd int64
		ep.Reactor().DoWait(func() { recvd = rcv.Received() })
		return fmt.Errorf("fetch timed out with %d/%d bytes", recvd, size)
	}
	fct := time.Since(start)
	var recvd int64
	ep.Reactor().DoWait(func() { recvd = rcv.Received() })
	ws := ep.Stats()
	fmt.Printf("fetched %d bytes in %v (%.2f Mbit/s)\n",
		recvd, fct.Round(time.Millisecond), float64(recvd)*8/fct.Seconds()/1e6)
	fmt.Printf("  wire          %d frames in / %d out, %d decode drops\n", ws.FramesIn, ws.FramesOut, ws.DecodeDrops)
	return nil
}
