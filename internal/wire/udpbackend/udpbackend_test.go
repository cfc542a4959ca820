package udpbackend_test

import (
	"math/rand"
	"testing"
	"time"

	"suss/internal/core"
	"suss/internal/netem"
	"suss/internal/netsim"
	"suss/internal/tcp"
	"suss/internal/wire/udpbackend"
)

// runDownload moves one size-byte flow across the loopback and
// returns when the receiver holds the full stream.
func runDownload(t *testing.T, lb *udpbackend.Loopback, size int64, deadline time.Duration) *tcp.Flow {
	t.Helper()
	sconn, rconn, err := lb.FlowConns(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tcp.DefaultConfig()
	f := tcp.NewFlowOver(cfg, 1, sconn, rconn, size, nil)
	f.Sender.SetController(core.New(f.Sender, core.DefaultOptions()))

	done := make(chan struct{})
	lb.Fetch.Reactor().DoWait(func() {
		complete := f.Receiver.OnComplete
		f.Receiver.OnComplete = func(now time.Duration) {
			complete(now)
			close(done)
		}
	})
	lb.Serve.Reactor().DoWait(func() {
		sim := lb.Serve.Reactor().Sim()
		f.StartAt(sim, sim.Now())
	})
	select {
	case <-done:
	case <-time.After(deadline):
		var recvd int64
		lb.Fetch.Reactor().DoWait(func() { recvd = f.Receiver.Received() })
		t.Fatalf("flow did not complete within %v (received %d/%d)", deadline, recvd, size)
	}
	return f
}

// TestUDPLoopbackHandshake checks the SYN / SYN-ACK exchange carries
// the options both ways.
func TestUDPLoopbackHandshake(t *testing.T) {
	s, err := udpbackend.Listen("127.0.0.1:0", udpbackend.Config{MSS: 1400})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := udpbackend.Dial(s.Addr().String(), udpbackend.Config{MSS: 1448})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	type res struct {
		peer udpbackend.PeerInfo
		err  error
	}
	acc := make(chan res, 1)
	go func() {
		_, p, err := s.Accept(5, 3*time.Second)
		acc <- res{p, err}
	}()
	_, servePeer, err := f.Connect(5)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	a := <-acc
	if a.err != nil {
		t.Fatalf("accept: %v", a.err)
	}
	if a.peer.MSS != 1448 || !a.peer.SackPermitted || a.peer.WScale != 7 {
		t.Fatalf("serve side learned %+v from the SYN", a.peer)
	}
	if servePeer.MSS != 1400 || !servePeer.SackPermitted {
		t.Fatalf("fetch side learned %+v from the SYN-ACK", servePeer)
	}
}

// TestUDPLoopbackDownloadClean runs the full transport over real UDP
// sockets on loopback.
func TestUDPLoopbackDownloadClean(t *testing.T) {
	lb, err := udpbackend.NewLoopback(udpbackend.Config{}, udpbackend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	const size = 300 << 10
	f := runDownload(t, lb, size, 30*time.Second)

	var recvd int64
	lb.Fetch.Reactor().DoWait(func() { recvd = f.Receiver.Received() })
	if recvd != size {
		t.Fatalf("received %d, want %d", recvd, size)
	}
	st := lb.Serve.Stats()
	if st.BytesOut < size {
		t.Fatalf("serve side sent %d wire bytes for a %d-byte stream", st.BytesOut, size)
	}
	if st.DecodeDrops != 0 {
		t.Fatalf("strict decode rejected %d clean frames", st.DecodeDrops)
	}
}

// TestUDPLoopbackDownloadLossy erases 5% of data datagrams at the
// serve side's sending edge and 2% of ACKs at the fetch side's with
// the same Bernoulli stage simulator links use; the flow must complete
// via retransmission over the real socket path — loss detection, SACK
// retransmission and RTO on wall-clock timers — and the sender must
// then see the whole stream acknowledged.
func TestUDPLoopbackDownloadLossy(t *testing.T) {
	lb, err := udpbackend.NewLoopback(udpbackend.Config{
		Impair: netsim.Impairments{netem.Bernoulli(0.05, rand.New(rand.NewSource(7)))},
	}, udpbackend.Config{
		// Seed 32 erases its 6th ACK: the stage fires however few ACKs
		// the wall-clock run ends up sending.
		Impair: netsim.Impairments{netem.Bernoulli(0.02, rand.New(rand.NewSource(32)))},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	if _, _, err := lb.Fetch.Connect(1 << 17); err == nil {
		t.Error("flow id beyond 16 bits must be rejected: it cannot travel in a port")
	}
	const size = 150 << 10
	f := runDownload(t, lb, size, 60*time.Second)

	var recvd int64
	lb.Fetch.Reactor().DoWait(func() { recvd = f.Receiver.Received() })
	if recvd != size {
		t.Fatalf("received %d, want %d", recvd, size)
	}
	// The receiver is done, but the sender still needs its final ACK —
	// which the fetch-side impairment may erase a few times over.
	var dlv int64
	var finished bool
	for waited := time.Duration(0); waited < 30*time.Second && !finished; waited += 10 * time.Millisecond {
		time.Sleep(10 * time.Millisecond)
		lb.Serve.Reactor().DoWait(func() { dlv, finished = f.Sender.Delivered(), f.Sender.Finished() })
	}
	if !finished || dlv != size {
		t.Fatalf("sender finished=%v delivered=%d, want full ack of %d", finished, dlv, size)
	}
	if s, fe := lb.Serve.Stats().ImpairDrops, lb.Fetch.Stats().ImpairDrops; s == 0 || fe == 0 {
		t.Fatalf("impairment stages fired %d (data) / %d (ACK) times; the lossy cell tested nothing", s, fe)
	}
}
