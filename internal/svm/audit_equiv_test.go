package svm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"ftsvm/internal/model"
)

// equivCase is one randomized run for the auditor-equivalence checks:
// a micro workload under a lock algorithm and protocol mode, with kill
// points and at most one accessor-level forgery at virtual times spread
// over the failure-free run.
type equivCase struct {
	body      string // "counter", "lockstep" or "falseshare"
	mode      Mode
	algo      LockAlgo
	degree    int
	nodes     int
	tpn       int
	fullTwins bool
	seed      int64
	kills     []float64 // fractions of the failure-free run's length
	victims   []int
	forge     int     // forgery kind, -1 for none
	forgeAt   float64 // fraction of the failure-free run's length
	pick      int64   // seeds the forgery's choice of item
}

const forgeKinds = 4

func randomEquivCase(seed uint64) equivCase {
	r := rand.New(rand.NewSource(int64(seed)))
	c := equivCase{
		body:      []string{"counter", "lockstep", "falseshare"}[r.Intn(3)],
		degree:    2,
		nodes:     4,
		tpn:       1 + r.Intn(2),
		fullTwins: r.Intn(4) == 0,
		seed:      r.Int63n(1000) + 1,
		forge:     -1,
		pick:      r.Int63(),
	}
	if r.Intn(3) == 0 {
		c.mode = ModeBase
		c.algo = []LockAlgo{LockPolling, LockQueue, LockNIC}[r.Intn(3)]
	} else {
		c.mode = ModeFT
		c.algo = []LockAlgo{LockPolling, LockNIC}[r.Intn(2)]
		if r.Intn(2) == 0 {
			c.degree, c.nodes = 3, 5
		}
		for k := r.Intn(c.degree); k > 0; k-- {
			c.kills = append(c.kills, r.Float64())
			c.victims = append(c.victims, r.Intn(c.nodes))
		}
	}
	if r.Intn(2) == 0 {
		c.forge, c.forgeAt = r.Intn(forgeKinds), r.Float64()
	}
	return c
}

func (c equivCase) String() string {
	return fmt.Sprintf("%s/%s/%s/k%d/n%d/t%d/full=%v/seed%d kills=%.2f@%v forge=%d@%.2f",
		c.body, c.mode, c.algo, c.degree, c.nodes, c.tpn, c.fullTwins, c.seed, c.kills, c.victims, c.forge, c.forgeAt)
}

func (c equivCase) cluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := model.Default()
	cfg.Nodes, cfg.ThreadsPerNode, cfg.Seed = c.nodes, c.tpn, c.seed
	if c.degree != 2 {
		cfg.ReplicaDegree = c.degree
	}
	opt := Options{Config: cfg, Mode: c.mode, LockAlgo: c.algo, Pages: 4, Locks: 3, FullTwins: c.fullTwins}
	switch c.body {
	case "counter":
		opt.Body = counterBody(4)
	case "lockstep":
		opt.Body = lockStepBody(6, 3)
	default:
		opt.Body = falseShareBody(3)
	}
	cl, err := New(opt)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return cl
}

// forgeOne breaks one invariant input through the protocol's own
// accessors (so the incremental auditor sees the item marked, as it
// would a real protocol write) and reports whether it forged anything.
func forgeOne(cl *Cluster, kind int, r *rand.Rand) bool {
	var live []*node
	for _, n := range cl.nodes {
		if !n.dead {
			live = append(live, n)
		}
	}
	n := live[r.Intn(len(live))]
	pg := n.pt.page(r.Intn(len(n.pt.pages)))
	switch kind {
	case 0: // a second holder for a held lock
		for l := 0; l < cl.lockHomes.Items(); l++ {
			if h := cl.auditHolders(l); len(h) == 1 && h[0] != n.id {
				n.lockState(l).held = true
				return true
			}
		}
		return false
	case 1: // writable without a twin
		pg.ensureWorking()
		pg.state = pWritable
		pg.twin = nil
	case 2: // a dirty stash on a valid page, or without its twin
		pg.dirtyWorking = n.getPageBuf()
		pg.dirtyTwin = nil
	case 3: // a required-version regression
		for src, v := range pg.reqVer {
			if v > 0 {
				pg.reqVer[src] = v - 1
				return true
			}
		}
		return false
	}
	return true
}

// pageSig and lockSig fingerprint the state the page and lock
// invariants read, for the missed-mark check.
func pageSig(pg *page) uint64 {
	sig := uint64(pg.state)
	for i, set := range []bool{pg.twin != nil, pg.working != nil, pg.dirtyTwin != nil,
		pg.dirtyWorking != nil, pg.dirtyMask != nil, pg.stashMask != nil} {
		if set {
			sig |= 1 << (8 + i)
		}
	}
	buf := make([]byte, 0, 4*len(pg.reqVer))
	for _, v := range pg.reqVer {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	h := fnv.New64a()
	h.Write(buf)
	return sig ^ h.Sum64()<<16
}

func lockSig(n *node, l int) uint64 {
	var sig uint64
	if ol := n.owned[l]; ol != nil && ol.held {
		sig |= 1
	}
	if n.lockHomesState[l] != nil {
		sig |= 2
	}
	return sig
}

// equivHook replaces the auditor's after-event hook: it runs the
// incremental auditor and the full-sweep reference side by side and
// compares them after every event.
type equivHook struct {
	t   *testing.T
	c   equivCase
	cl  *Cluster
	ref *refAuditor
	// pageSig of every (node, page) and lockSig of every (node, lock)
	// after the last event; a dead node's entries go stale unread.
	pages, locks []uint64

	events    int64
	violation string
	stopped   bool
}

func (h *equivHook) fatalf(format string, args ...any) {
	h.t.Errorf("%v: event %d t=%dns: %s", h.c, h.events, h.cl.eng.Now(), fmt.Sprintf(format, args...))
	h.stopped = true
	h.cl.eng.Stop()
}

func (h *equivHook) afterEvent() {
	if h.stopped {
		return
	}
	h.events++
	cl, a := h.cl, h.cl.aud
	full, homes := a.scope()
	// Every item whose invariant inputs changed in this event must be
	// in the dirty set or inside a sweep: otherwise the incremental
	// auditor skipped a write even if no invariant broke.
	locks := len(a.lockMarked)
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		for pid, pg := range n.pt.pages {
			k := n.id*a.pages + pid
			sig := pageSig(pg)
			if sig != h.pages[k] && !full && a.pageMarked[k>>6]&(1<<(k&63)) == 0 {
				h.fatalf("node %d page %d changed without a mark", n.id, pid)
				return
			}
			h.pages[k] = sig
		}
		for l := 0; l < locks; l++ {
			k := n.id*locks + l
			sig := lockSig(n, l)
			if sig != h.locks[k] && !homes && !a.lockMarked[l] {
				h.fatalf("node %d lock %d changed without a mark", n.id, l)
				return
			}
			h.locks[k] = sig
		}
	}
	// The liveness counters must agree with the nodes' own flags, or
	// calm drifts and the steady invariants switch off unnoticed.
	if ref := !cl.rec.pending && !h.ref.limbo(); a.calm() != ref {
		h.fatalf("calm = %v (unrecovered %d), full sweep %v", a.calm(), cl.unrecovered, ref)
		return
	}
	a.afterEvent()
	incErr, refErr := errors.Unwrap(cl.auditErr), h.ref.check()
	if fmt.Sprint(incErr) != fmt.Sprint(refErr) {
		h.fatalf("incremental auditor reports %v, full sweep %v", incErr, refErr)
		return
	}
	if incErr != nil {
		h.violation = incErr.Error()
		h.stopped = true
		cl.eng.Stop()
		return
	}
	for n := range h.ref.prevHeld {
		for l, held := range h.ref.prevHeld[n] {
			if a.prevHeld[n][l] != held {
				h.fatalf("prevHeld[%d][%d] = %v, full sweep %v", n, l, a.prevHeld[n][l], held)
				return
			}
		}
		for p, want := range h.ref.prevReq[n] {
			got := a.prevReq[n][p]
			for src := range want {
				var g int32 // a nil history stands for the zero vector
				if got != nil {
					g = got[src]
				}
				if g != want[src] {
					h.fatalf("prevReq[%d][%d] = %v, full sweep %v", n, p, got, want)
					return
				}
			}
		}
	}
}

// runEquiv runs one case with both auditors and returns the violation
// they agreed on ("" for none).
func runEquiv(t *testing.T, c equivCase) string {
	t.Helper()
	// The failure-free run's length places the kills and the forgery.
	dry := c.cluster(t)
	if err := dry.Run(); err != nil {
		t.Fatalf("%v: failure-free run: %v", c, err)
	}
	span := dry.ExecTime()

	cl := c.cluster(t)
	cl.EnableAuditor()
	h := &equivHook{t: t, c: c, cl: cl, ref: newRefAuditor(cl),
		pages: make([]uint64, c.nodes*cl.NumPages()), locks: make([]uint64, c.nodes*cl.lockHomes.Items())}
	cl.eng.SetAfterEvent(h.afterEvent)
	for i, at := range c.kills {
		victim := c.victims[i]
		cl.eng.At(int64(at*float64(span)), func() {
			// Only kills inside the failure model: k-1 unrecovered
			// failures at most, and k live nodes left to rehome onto.
			if !cl.NodeDead(victim) && cl.UnrecoveredFailures() < cl.Degree()-1 && cl.LiveNodes()-1 >= cl.Degree() {
				cl.KillNode(victim)
			}
		})
	}
	forged := false
	if c.forge >= 0 {
		r := rand.New(rand.NewSource(c.pick))
		cl.eng.At(int64(c.forgeAt*float64(span)), func() { forged = forgeOne(cl, c.forge, r) })
	}
	err := cl.Run()
	switch {
	case t.Failed():
	case h.violation == "" && err != nil:
		t.Errorf("%v: %v", c, err)
	case h.violation != "" && !forged:
		t.Errorf("%v: both auditors report %s without a forgery", c, h.violation)
	}
	return h.violation
}

// TestAuditorIncrementalMatchesFullSweep runs random micro workloads
// under both auditors: after every event the incremental auditor's
// shadow state must equal the full sweep's, every changed item must be
// marked, and under forgeries both must report the same first
// violation at the same event.
func TestAuditorIncrementalMatchesFullSweep(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	violations := 0
	for s := 1; s <= seeds; s++ {
		if runEquiv(t, randomEquivCase(uint64(s))) != "" {
			violations++
		}
		if t.Failed() {
			return
		}
	}
	if violations == 0 {
		t.Fatal("no forgery tripped either auditor: the comparison never saw a violation")
	}
}

// FuzzAuditorEquivalence is the open-ended form of
// TestAuditorIncrementalMatchesFullSweep.
func FuzzAuditorEquivalence(f *testing.F) {
	for s := uint64(1); s <= 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runEquiv(t, randomEquivCase(seed))
	})
}
