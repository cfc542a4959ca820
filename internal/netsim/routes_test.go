package netsim

import (
	"fmt"
	"testing"
	"time"
)

// routeCheck holds one router's next hop toward one host to the link the
// shape's rule names.
func routeCheck(t *testing.T, what string, r *Router, dst *Host, want *Link) {
	t.Helper()
	var got *Link
	if int(dst.ID()) < len(r.routes) {
		got = r.routes[dst.ID()]
	}
	if got != want {
		name := "none"
		if got != nil {
			name = got.Name()
		}
		t.Errorf("%s: %s → %s goes out on %s, want %s", what, r.name, dst.Name(), name, want.Name())
	}
}

// Every router of every shape sends toward a host on the link toward the
// part of the tree that holds the host.
func TestRoutesFollowTheTree(t *testing.T) {
	// Path: r_i sends toward the receiver on Fwd[i+1] and toward the
	// sender on Rev[n-1-i].
	for n := 1; n <= 4; n++ {
		fwd := make([]LinkConfig, n)
		for i := range fwd {
			fwd[i] = LinkConfig{Name: fmt.Sprintf("l%d", i), Rate: 1e8}
		}
		p := NewPath(NewSimulator(), PathSpec{Forward: fwd})
		if len(p.Routers) != n-1 {
			t.Fatalf("%d-hop path has %d routers, want %d", n, len(p.Routers), n-1)
		}
		what := fmt.Sprintf("%d-hop path", n)
		for i, r := range p.Routers {
			routeCheck(t, what, r, p.Receiver, p.Fwd[i+1])
			routeCheck(t, what, r, p.Sender, p.Rev[n-1-i])
		}
	}

	// Dumbbell: left sends to server i on its srv-down link and to every
	// client on the bottleneck; right sends to client i on its cli-down
	// link and to every server on the bottleneck's mirror.
	d := NewDumbbell(NewSimulator(), DumbbellSpec{
		Access: []LinkConfig{
			{Name: "near", Rate: 1e9, Delay: time.Millisecond},
			{Rate: 1e9, Delay: 5 * time.Millisecond},
			{Name: "far", Rate: 1e9, Delay: 20 * time.Millisecond},
		},
		Bottleneck: LinkConfig{Rate: 1e8, Delay: 10 * time.Millisecond},
	})
	mirror := d.Right.routes[d.Servers[0].ID()]
	if mirror == nil || mirror.Name() != "bottleneck-rev" || mirror.dst != d.Left {
		t.Fatalf("dumbbell: right → server0 is not the bottleneck's mirror")
	}
	for i, acc := range []struct {
		name  string
		delay time.Duration
	}{{"near", time.Millisecond}, {"access1", 5 * time.Millisecond}, {"far", 20 * time.Millisecond}} {
		srv, cli := d.Servers[i], d.Clients[i]
		for _, hop := range []struct {
			r   *Router
			dst *Host
			dir string
		}{{d.Left, srv, "srv-down"}, {d.Right, cli, "cli-down"}} {
			l := hop.r.routes[hop.dst.ID()]
			if l == nil || l.Name() != acc.name+"-"+hop.dir || l.cfg.Delay != acc.delay || l.dst != hop.dst {
				t.Errorf("dumbbell: %s → %s is not %s-%s at %v", hop.r.name, hop.dst.Name(), acc.name, hop.dir, acc.delay)
			}
		}
		routeCheck(t, "dumbbell", d.Left, cli, d.Bottleneck)
		routeCheck(t, "dumbbell", d.Right, srv, mirror)
	}

	// Tree: trunk sends to server s on SrvDown[s] and to every client on
	// Core; root sends to every server on CoreRev and to client c on
	// AggDown[group(c)]; agg g sends to its own clients on
	// AccessDown[c] and to everything else on AggUp[g].
	one := TreeSpec{
		Groups: 1, HostsPerGroup: 1, Servers: 1,
		Core:   LinkConfig{Rate: 1e8},
		Agg:    LinkConfig{Rate: 1e8},
		Access: LinkConfig{Rate: 1e8},
	}
	for _, spec := range []TreeSpec{smallTreeSpec(), one} {
		tr := NewTree(NewSimulator(), spec)
		what := fmt.Sprintf("%d×%d×%d tree", spec.Groups, spec.HostsPerGroup, spec.Servers)
		for s, srv := range tr.Servers {
			routeCheck(t, what, tr.Trunk, srv, tr.SrvDown[s])
			routeCheck(t, what, tr.Root, srv, tr.CoreRev)
			for g, agg := range tr.Aggs {
				routeCheck(t, what, agg, srv, tr.AggUp[g])
			}
		}
		for c, cli := range tr.Clients {
			group := c / spec.HostsPerGroup
			routeCheck(t, what, tr.Trunk, cli, tr.Core)
			routeCheck(t, what, tr.Root, cli, tr.AggDown[group])
			for g, agg := range tr.Aggs {
				want := tr.AggUp[g]
				if g == group {
					want = tr.AccessDown[c]
				}
				routeCheck(t, what, agg, cli, want)
			}
		}
	}
}
