// Package runner is the evaluation layer's execution engine: a
// declarative job model (one seeded simulation per Job) executed on a
// bounded worker pool with deterministic result collection.
//
// Every data point in the paper's evaluation is an independent
// simulation whose randomness is fully determined by its own seed
// (every cell seeds its RNG afresh from it), so
// jobs can run on any number of workers without changing the numbers.
// The pool guarantees the stronger property the experiment runners
// rely on: results are collected by job index, never by completion
// order, so rendered output is byte-identical at any worker count.
//
// A job that panics becomes an error-carrying result instead of
// killing the sweep, and cancelling the context drains the remaining
// jobs as ctx.Err() results.
//
// Each pool worker holds one Scratch — a simulation engine, a slab of
// flows and the last topology it wired, which it resets and reuses for
// every cell it runs — so a sweep of hundreds of short cells grows one
// timer arena, one packet pool and one set of scoreboards per worker
// instead of one per cell, and a later sweep reuses them (see Scratch).
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"suss/internal/cc"
	"suss/internal/core"
	"suss/internal/netsim"
	"suss/internal/scenarios"
	"suss/internal/tcp"
)

// Options configures pool execution.
type Options struct {
	// Workers bounds concurrent jobs; ≤ 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called after each job finishes with
	// the number of completed jobs and the batch total. Calls are
	// serialized; done is strictly increasing.
	Progress func(done, total int)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Outcome carries one item's result or the error that replaced it.
type Outcome[R any] struct {
	Value R
	Err   error
}

// PanicError is the error a panicking job is converted into.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Index, e.Value)
}

// Scratch is the simulation engine one worker keeps across the cells it
// runs: Download and RunFleetShard run on it, resetting it first, so
// only the first cell (and a cell larger than any before it) pays for
// growing the timer arena and the packet slabs. A reset engine is
// indistinguishable from a new one (netsim's Reset contract), so a
// cell's result never depends on what the scratch ran before — a cell
// that panicked or was killed by the watchdog included.
//
// The same holds for its slab of slots, each a flow and one controller
// per family (CUBIC, SUSS, BBR, Reno): a cell resets the slots it uses
// (Download slot 0, a fleet shard slots 0..n−1) and, in each, the
// controller its Algo names, so a warm cell allocates neither. A slot's
// flow and controller are valid only during that cell.
//
// It keeps its topologies too: the last path Download wired, with its
// two demuxes, and the last fleet shard's tree, with one demux per
// host. A cell whose path has as many hops, or a shard whose Fleet
// equals the last one but for its seed, resets them (netsim's
// Path.Reset and Tree.Reset) instead of wiring new ones. A cell's spec
// is written into the scratch as well (scenarios.Wiring): one RNG,
// reseeded per cell as rand.New would seed a new one, and the last
// hop's rate, jitter and loss models, rewritten in place. So a warm
// unobserved Download allocates nothing. The path and tree a hook sees
// are, like the flow, valid only during its cell.
//
// The zero value is ready to use; the engine is built on first use. A
// Scratch belongs to one goroutine at a time. Map's workers take theirs
// from a process-wide idle list and put them back when they exit, so
// the next Map call starts warm; the list holds at most GOMAXPROCS
// Scratches, and with them their slabs, between calls.
type Scratch struct {
	sim   *netsim.Simulator
	slots []*slot

	// wiring holds the cell's spec and RNG, rewritten for every cell.
	wiring scenarios.Wiring

	// path and pathMux are the last Download's topology and its sender's
	// and receiver's demuxes.
	path    *netsim.Path
	pathMux [2]*tcp.Demux

	// tree is the last fleet shard's topology, wired for fleet (its Seed
	// zeroed), with a demux per server and per client.
	tree   *netsim.Tree
	fleet  scenarios.Fleet
	srvMux []*tcp.Demux
	cliMux []*tcp.Demux

	// done counts the running fleet shard's completed flows out of
	// flows; countDone, bound once, is the OnComplete hook that counts
	// them and halts the engine at the last.
	done, flows int
	countDone   func(time.Duration)
}

// slot is one flow of a Scratch's slab and the controllers it can run
// under, one per family: a cell resets the flow and the one controller
// its Algo needs.
type slot struct {
	flow tcp.Flow
	ctrl controllers
}

// flow returns slab slot i's flow reset for a new transfer on the
// scratch's engine, under its controller for a (and sussOpt) reset,
// growing the slab when i is past its end.
func (scr *Scratch) flow(i int, a Algo, sussOpt *core.Options, cfg tcp.Config, id netsim.FlowID,
	src *netsim.Host, srcMux *tcp.Demux, dst *netsim.Host, dstMux *tcp.Demux, size int64) (*tcp.Flow, cc.Controller) {

	if i == len(scr.slots) {
		scr.slots = append(scr.slots, new(slot))
	}
	sl := scr.slots[i]
	f := &sl.flow
	f.Reset(scr.sim, cfg, id, src, srcMux, dst, dstMux, size, nil)
	ctrl := sl.ctrl.reset(a, sussOpt, f.Sender)
	f.Sender.SetController(ctrl)
	return f, ctrl
}

// engine returns the scratch's simulator in the state NewSimulator
// gives.
func (scr *Scratch) engine() *netsim.Simulator {
	if scr.sim == nil {
		scr.sim = netsim.NewSimulator()
	} else {
		scr.sim.Reset()
	}
	return scr.sim
}

// pathFor returns the scratch's path rewired to spec, with its demuxes
// emptied, or a new one when the scratch has none with as many hops.
func (scr *Scratch) pathFor(spec netsim.PathSpec) *netsim.Path {
	if p := scr.path; p != nil && len(p.Fwd) == len(spec.Forward) {
		p.Reset(spec)
		scr.pathMux[0].Reset()
		scr.pathMux[1].Reset()
		return p
	}
	p := netsim.NewPath(scr.sim, spec)
	scr.path, scr.pathMux = p, [2]*tcp.Demux{tcp.NewDemux(p.Sender), tcp.NewDemux(p.Receiver)}
	return p
}

// treeFor returns the scratch's tree reset, with its demuxes emptied,
// when it was wired for fl but for its seed; otherwise it wires fl's
// tree and a demux per host.
func (scr *Scratch) treeFor(fl scenarios.Fleet) *netsim.Tree {
	fl.Seed = 0
	if scr.tree != nil && scr.fleet == fl {
		scr.tree.Reset()
		for _, d := range scr.srvMux {
			d.Reset()
		}
		for _, d := range scr.cliMux {
			d.Reset()
		}
		return scr.tree
	}
	t := netsim.NewTree(scr.sim, fl.Spec())
	scr.tree, scr.fleet = t, fl
	scr.srvMux = make([]*tcp.Demux, len(t.Servers))
	for s, h := range t.Servers {
		scr.srvMux[s] = tcp.NewDemux(h)
	}
	scr.cliMux = make([]*tcp.Demux, len(t.Clients))
	for c, h := range t.Clients {
		scr.cliMux[c] = tcp.NewDemux(h)
	}
	return t
}

// idle is the process-wide list of Scratches no Map worker holds, most
// recently returned last. It is a list under a mutex and not a
// sync.Pool: a pool's per-P slot and the collector's right to empty it
// would make a warm pass's allocation count depend on scheduling.
var idle struct {
	sync.Mutex
	list []*Scratch
}

// takeScratch hands a Map worker the most recently idle Scratch, or a
// new one when none is idle.
func takeScratch() *Scratch {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.list)
	if n == 0 {
		return new(Scratch)
	}
	scr := idle.list[n-1]
	idle.list[n-1] = nil
	idle.list = idle.list[:n-1]
	return scr
}

// putScratch returns a worker's Scratch to the idle list, which keeps at
// most GOMAXPROCS; one past that is left to the collector.
func putScratch(scr *Scratch) {
	idle.Lock()
	defer idle.Unlock()
	if len(idle.list) < runtime.GOMAXPROCS(0) {
		idle.list = append(idle.list, scr)
	}
}

type scratchKey struct{}

// ScratchFrom returns the calling worker's Scratch: fn gets it through
// the ctx Map hands it. On any other context it returns a new Scratch,
// which makes the cell a one-shot run on an engine of its own.
func ScratchFrom(ctx context.Context) *Scratch {
	if sc, ok := ctx.Value(scratchKey{}).(*Scratch); ok {
		return sc
	}
	return new(Scratch)
}

// Map runs fn over every item on a bounded worker pool and returns the
// outcomes indexed like items, regardless of completion order. A panic
// in fn becomes a *PanicError outcome; once ctx is cancelled, jobs not
// yet started complete immediately with ctx.Err(). The ctx fn receives
// is ctx carrying the worker's Scratch (see ScratchFrom).
func Map[T, R any](ctx context.Context, items []T, fn func(ctx context.Context, index int, item T) (R, error), opt Options) []Outcome[R] {
	out := make([]Outcome[R], len(items))
	if len(items) == 0 {
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opt.workers()
	if workers > len(items) {
		workers = len(items)
	}

	var (
		mu   sync.Mutex
		done int
	)
	finish := func() {
		if opt.Progress == nil {
			return
		}
		mu.Lock()
		done++
		opt.Progress(done, len(items))
		mu.Unlock()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			scr := takeScratch()
			defer putScratch(scr)
			wctx := context.WithValue(ctx, scratchKey{}, scr)
			for i := range idx {
				if err := ctx.Err(); err != nil {
					out[i] = Outcome[R]{Err: err}
				} else {
					out[i] = runOne(wctx, i, items[i], fn)
				}
				finish()
			}
		}()
	}

dispatch:
	for i := range items {
		select {
		case idx <- i:
		case <-ctx.Done():
			for j := i; j < len(items); j++ {
				out[j] = Outcome[R]{Err: ctx.Err()}
				finish()
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return out
}

func runOne[T, R any](ctx context.Context, i int, item T, fn func(ctx context.Context, index int, item T) (R, error)) (o Outcome[R]) {
	defer func() {
		if r := recover(); r != nil {
			o = Outcome[R]{Err: &PanicError{Index: i, Value: r, Stack: debug.Stack()}}
		}
	}()
	v, err := fn(ctx, i, item)
	return Outcome[R]{Value: v, Err: err}
}
