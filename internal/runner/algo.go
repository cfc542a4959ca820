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

// newController builds a flow's controller: a's, or SUSS configured by
// sussOpt when a is Suss and sussOpt is set.
func newController(a Algo, sussOpt *core.Options, s *tcp.Sender) cc.Controller {
	if a == Suss && sussOpt != nil {
		return core.New(s, *sussOpt)
	}
	return NewController(a, s)
}

// NewController builds a's controller bound to sender s.
func NewController(a Algo, s *tcp.Sender) cc.Controller {
	switch a {
	case Cubic:
		return cubic.New(s, cubic.DefaultOptions())
	case Suss:
		return core.New(s, core.DefaultOptions())
	case BBR:
		return bbr.New(s, bbr.DefaultOptions())
	case BBR2:
		return bbr.New(s, bbr.V2Options())
	case CubicHSPP:
		opt := cubic.DefaultOptions()
		opt.HyStartPP = true
		return cubic.New(s, opt)
	case BBRSuss:
		return bbr.New(s, bbr.SUSSOptions())
	case Reno:
		return cc.NewReno(s, cc.DefaultRenoOptions())
	default:
		panic("runner: unknown algo")
	}
}
