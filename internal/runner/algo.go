package runner

import (
	"suss/internal/bbr"
	"suss/internal/cc"
	"suss/internal/core"
	"suss/internal/cubic"
	"suss/internal/tcp"
)

// Algo selects a congestion-control algorithm for a flow.
type Algo int

const (
	// Cubic is CUBIC with HyStart, SUSS off (the paper's baseline).
	Cubic Algo = iota
	// Suss is CUBIC with the SUSS add-on enabled.
	Suss
	// BBR is BBRv1.
	BBR
	// BBR2 is the BBRv2-lite variant.
	BBR2
	// CubicHSPP is CUBIC with HyStart++ (RFC 9406) instead of classic
	// HyStart — the related-work slow-start exit the paper positions
	// SUSS against.
	CubicHSPP
	// BBRSuss is the paper's §7 future work: BBRv1 with SUSS-style
	// growth prediction doubling STARTUP's gains.
	BBRSuss
	// Reno is classic AIMD (RFC 5681), the yardstick every other
	// controller's slow-start gains are implicitly measured against.
	Reno
)

func (a Algo) String() string {
	switch a {
	case Cubic:
		return "cubic"
	case Suss:
		return "cubic+suss"
	case BBR:
		return "bbr"
	case BBR2:
		return "bbr2"
	case CubicHSPP:
		return "cubic+hspp"
	case BBRSuss:
		return "bbr+suss"
	case Reno:
		return "reno"
	default:
		return "unknown"
	}
}

// controllers holds one controller of each family, for a flow to run
// under whichever its cell's Algo names.
type controllers struct {
	cubic cubic.Cubic
	suss  core.Suss
	bbr   bbr.BBR
	reno  cc.Reno
}

// reset returns a's controller bound to sender s, reset to the state
// its constructor builds: SUSS is configured by sussOpt when a is Suss
// and sussOpt is set.
func (cs *controllers) reset(a Algo, sussOpt *core.Options, s *tcp.Sender) cc.Controller {
	switch a {
	case Cubic, CubicHSPP:
		opt := cubic.DefaultOptions()
		opt.HyStartPP = a == CubicHSPP
		cs.cubic.Reset(s, opt, nil)
		return &cs.cubic
	case Suss:
		opt := core.DefaultOptions()
		if sussOpt != nil {
			opt = *sussOpt
		}
		cs.suss.Reset(s, opt)
		return &cs.suss
	case BBR:
		cs.bbr.Reset(s, bbr.DefaultOptions())
		return &cs.bbr
	case BBR2:
		cs.bbr.Reset(s, bbr.V2Options())
		return &cs.bbr
	case BBRSuss:
		cs.bbr.Reset(s, bbr.SUSSOptions())
		return &cs.bbr
	case Reno:
		cs.reno.Reset(s, cc.DefaultRenoOptions())
		return &cs.reno
	default:
		panic("runner: unknown algo")
	}
}

// NewController builds a's controller bound to sender s.
func NewController(a Algo, s *tcp.Sender) cc.Controller {
	return new(controllers).reset(a, nil, s)
}
