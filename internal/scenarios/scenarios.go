// Package scenarios encodes the paper's two testbeds:
//
//   - The internet-scale matrix of §6.1: seven servers (Google
//     US-East/Tokyo/Singapore, Oracle US-West/Sydney/London, and a NZ
//     campus machine) × four last-hop link types (5G and wired fiber
//     for the Sweden client, WiFi and 4G for the NZ client) — the 28
//     scenarios of Figs. 17–18.
//   - The local dumbbell testbed: five client-server pairs through two
//     routers with a netem-shaped bottleneck (Figs. 2, 15, 16,
//     Table 1).
//
// Propagation delays are calibrated to plausible geographic RTTs; the
// absolute values only need to cover the small-to-large BDP range the
// paper sweeps.
package scenarios

import (
	"fmt"
	"math/rand"
	"time"

	"suss/internal/netem"
	"suss/internal/netsim"
)

// Server identifies one of the paper's seven deployment locations.
type Server int

const (
	GoogleUSEast Server = iota
	GoogleTokyo
	GoogleSingapore
	OracleUSWest
	OracleSydney
	OracleLondon
	NZCampus
)

// Servers lists all seven in the paper's Fig. 18 row order.
var Servers = []Server{GoogleUSEast, GoogleTokyo, GoogleSingapore, OracleUSWest, OracleSydney, OracleLondon, NZCampus}

func (s Server) String() string {
	switch s {
	case GoogleUSEast:
		return "google-us-east"
	case GoogleTokyo:
		return "google-tokyo"
	case GoogleSingapore:
		return "google-singapore"
	case OracleUSWest:
		return "oracle-us-west"
	case OracleSydney:
		return "oracle-sydney"
	case OracleLondon:
		return "oracle-london"
	case NZCampus:
		return "nz-campus"
	default:
		return "unknown"
	}
}

// clientIsSweden reports which client end a link type implies (the
// paper's 5G/wired client is in Sweden, WiFi/4G in New Zealand).
func clientIsSweden(lt netem.LinkType) bool {
	return lt == netem.NR5G || lt == netem.Wired
}

// baseRTT returns the propagation RTT between a server and the client
// country implied by the link type.
func baseRTT(s Server, sweden bool) time.Duration {
	type pair struct{ se, nz time.Duration }
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	m := map[Server]pair{
		GoogleUSEast:    {ms(110), ms(190)},
		GoogleTokyo:     {ms(250), ms(150)},
		GoogleSingapore: {ms(290), ms(145)},
		OracleUSWest:    {ms(170), ms(130)},
		OracleSydney:    {ms(320), ms(35)},
		OracleLondon:    {ms(35), ms(280)},
		NZCampus:        {ms(340), ms(8)},
	}
	p := m[s]
	if sweden {
		return p.se
	}
	return p.nz
}

// lastHopRate returns the mean downstream capacity of a link type,
// calibrated to the paper's observed operating points: Fig. 9's 4G
// client exits slow start at cwnd ≈ 1300 packets with RTT ≈ 190 ms,
// which implies an LTE-A link of roughly 150 Mbps (HyStart exits near
// BDP/2 ≈ BtlBw·RTT/2).
func lastHopRate(lt netem.LinkType) float64 {
	switch lt {
	case netem.Wired:
		return 3e8 // 300 Mbps fiber
	case netem.NR5G:
		return 2.5e8
	case netem.WiFi:
		return 1e8
	case netem.LTE4G:
		return 1.5e8
	default:
		panic("scenarios: unknown link type")
	}
}

// Scenario is one cell of the 7×4 internet matrix.
type Scenario struct {
	Server   Server
	Link     netem.LinkType
	RTT      time.Duration // propagation RTT
	LastHop  netem.Profile
	CoreRate float64
	Seed     int64
}

// Name returns e.g. "google-tokyo/4g".
func (sc Scenario) Name() string {
	return fmt.Sprintf("%s/%s", sc.Server, sc.Link)
}

// ID returns the Fig. 18 matrix cell label: rows a–g (servers), columns
// 1–4 (5G, wired, WiFi, 4G), e.g. "b4" for Tokyo over 4G.
func (sc Scenario) ID() string {
	row := rune('a' + int(sc.Server))
	col := map[netem.LinkType]int{netem.NR5G: 1, netem.Wired: 2, netem.WiFi: 3, netem.LTE4G: 4}[sc.Link]
	return fmt.Sprintf("%c%d", row, col)
}

// BtlBw returns the scenario's nominal bottleneck bandwidth.
func (sc Scenario) BtlBw() float64 {
	if sc.LastHop.MeanRate < sc.CoreRate {
		return sc.LastHop.MeanRate
	}
	return sc.CoreRate
}

// New builds the scenario for a server/link pair. Oracle servers get
// shallow buffers on the high-speed (wired/5G) paths: the paper
// observes noticeable slow-start loss only on "Oracle servers and
// high-speed links" (§6.3), which implies shallow egress/transit
// buffering relative to those paths' BDP.
func New(server Server, lt netem.LinkType, seed int64) Scenario {
	rate := lastHopRate(lt)
	prof := netem.DefaultProfile(lt, rate)
	oracle := server == OracleUSWest || server == OracleSydney || server == OracleLondon
	if oracle && (lt == netem.Wired || lt == netem.NR5G) {
		prof.BufferBDPs = 0.3
	}
	return Scenario{
		Server:   server,
		Link:     lt,
		RTT:      baseRTT(server, clientIsSweden(lt)),
		LastHop:  prof,
		CoreRate: 1e9,
		Seed:     seed,
	}
}

// All returns the full 28-scenario matrix in Fig. 18 order (rows a–g,
// columns 5G, wired, WiFi, 4G).
func All(seed int64) []Scenario {
	var out []Scenario
	for _, s := range Servers {
		for _, lt := range []netem.LinkType{netem.NR5G, netem.Wired, netem.WiFi, netem.LTE4G} {
			out = append(out, New(s, lt, seed+int64(len(out))))
		}
	}
	return out
}

// Build wires the scenario into a simulator: server → 1 Gbps core →
// last-hop link → client, with the netem profile's rate variation,
// jitter, loss and buffer depth on the last hop. The returned RNG is
// the one feeding the impairments (callers reuse it to perturb
// workloads).
func (sc Scenario) Build(sim *netsim.Simulator) (*netsim.Path, *rand.Rand) {
	w := new(Wiring)
	p := netsim.NewPath(sim, sc.Spec(w))
	return p, w.rng
}

// Spec writes the path Build wires into w and returns it: Path.Reset
// with this spec rewires a two-hop path as Build would. The last hop's
// models draw from w's RNG, seeded from Scenario.Seed alone. The link
// configs, the models and the RNG are w's, rewritten in place, so a
// caller that keeps one Wiring builds spec after spec without
// allocating; each is valid until w's next use.
func (sc Scenario) Spec(w *Wiring) netsim.PathSpec {
	rng := w.seed(sc.Seed)
	lastHopDelay := 5 * time.Millisecond
	coreDelay := sc.RTT/2 - lastHopDelay
	if coreDelay < time.Millisecond {
		coreDelay = time.Millisecond
	}
	w.fwd = [2]netsim.LinkConfig{
		{Name: "core", Rate: sc.CoreRate, Delay: coreDelay, QueueBytes: 64 << 20},
		sc.LastHop.Apply(&w.lastHop, "lasthop", lastHopDelay, sc.RTT, rng),
	}
	return netsim.PathSpec{Forward: w.fwd[:]}
}

// Wiring is the storage Scenario.Spec writes a spec into: a path's
// forward link configs, its last hop's netem models and the RNG they
// draw from.
type Wiring struct {
	rng     *rand.Rand
	fwd     [2]netsim.LinkConfig
	lastHop netem.Models
}

// seed returns w's RNG in the state rand.New(rand.NewSource(seed))
// gives, building it on first use.
func (w *Wiring) seed(seed int64) *rand.Rand {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(seed))
	}
	w.rng.Seed(seed)
	return w.rng
}

// Testbed describes the paper's local dumbbell (§6.1): five pairs, a
// 50 Mbps bottleneck, and netem-controlled RTT and buffer depth.
type Testbed struct {
	Pairs      int
	BtlRate    float64
	RTT        time.Duration // base RTT for all pairs
	PerPairRTT []time.Duration
	BufferBDP  float64 // bottleneck buffer in BDP multiples of (BtlRate × RTT)
	AccessRate float64
}

// DefaultTestbed mirrors the Fig. 15 configuration.
func DefaultTestbed(rtt time.Duration, bufferBDP float64) Testbed {
	return Testbed{
		Pairs:      5,
		BtlRate:    5e7,
		RTT:        rtt,
		BufferBDP:  bufferBDP,
		AccessRate: 1e9,
	}
}

// Build wires the dumbbell. A per-pair RTT (when set) applies to all
// four of the pair's access links, server and client side: each gets
// half of what the bottleneck leaves of the RTT's one-way budget.
func (tb Testbed) Build(sim *netsim.Simulator) *netsim.Dumbbell {
	bdp := tb.BtlRate / 8 * tb.RTT.Seconds()
	queue := int(tb.BufferBDP * bdp)
	if queue < 16<<10 {
		queue = 16 << 10
	}
	// The bottleneck carries half the propagation budget; access links
	// carry the remainder so a pair's one-way delay sums to RTT/2.
	bneckDelay := tb.RTT / 4
	spec := netsim.DumbbellSpec{
		Access:     make([]netsim.LinkConfig, tb.Pairs),
		Bottleneck: netsim.LinkConfig{Rate: tb.BtlRate, Delay: bneckDelay, QueueBytes: queue},
	}
	for i := range spec.Access {
		spec.Access[i] = netsim.LinkConfig{Rate: tb.AccessRate, Delay: tb.RTT/2 - bneckDelay - tb.RTT/8, QueueBytes: 16 << 20}
		if len(tb.PerPairRTT) > 0 {
			rtt := tb.RTT
			if i < len(tb.PerPairRTT) {
				rtt = tb.PerPairRTT[i]
			}
			// Split the access budget between the two access hops.
			spec.Access[i].Delay = max(rtt/2-bneckDelay, 0) / 2
		}
	}
	return netsim.NewDumbbell(sim, spec)
}
