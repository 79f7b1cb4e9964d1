package svm

import (
	"fmt"

	"ftsvm/internal/proto"
)

// refAuditor is the full-sweep invariant auditor the incremental one
// replaced, kept as its reference: after every event it visits every
// lock on every node and every page on every live node. Its checks,
// messages and shadow state are the incremental auditor's definition —
// the equivalence tests run both side by side and require the same
// shadow state after every event and the same first violation. It is
// the former stride-1 auditor verbatim, less the stride.
type refAuditor struct {
	cl *Cluster

	prevHeld [][]bool             // [node][lock]: node owned lock at last boundary
	prevReq  [][]proto.VectorTime // [node][page]: reqVer at last sweep; nil until first seen
	// wasCalm is the calm flag at the previous page sweep, so the sweep
	// can recognize the boundary that completes a recovery (see
	// checkPages: legal roll-backs may first surface exactly there).
	wasCalm bool
}

func newRefAuditor(cl *Cluster) *refAuditor {
	a := &refAuditor{cl: cl, wasCalm: true}
	a.prevHeld = make([][]bool, cl.cfg.Nodes)
	for i := range a.prevHeld {
		a.prevHeld[i] = make([]bool, cl.lockHomes.Items())
	}
	a.prevReq = make([][]proto.VectorTime, cl.cfg.Nodes)
	for i := range a.prevReq {
		a.prevReq[i] = make([]proto.VectorTime, cl.pageHomes.Items())
	}
	return a
}

// check is one event boundary's sweep: the first violation, or nil.
func (a *refAuditor) check() error {
	err := a.checkLocks()
	if err == nil {
		err = a.checkPages()
	}
	return err
}

// limbo reports whether a node is dead but not yet excluded: the window
// between a kill and the completed recovery, during which home maps
// still reference the dead node and replica invariants are legitimately
// broken (that is what recovery repairs).
func (a *refAuditor) limbo() bool {
	for _, n := range a.cl.nodes {
		if n.dead && !n.excluded {
			return true
		}
	}
	return false
}

func (a *refAuditor) checkLocks() error {
	cl := a.cl
	ft := cl.opt.Mode == ModeFT
	steady := ft && !cl.rec.pending && !a.limbo()
	for l := 0; l < cl.lockHomes.Items(); l++ {
		holder := -1
		for _, n := range cl.nodes {
			if n.dead {
				a.prevHeld[n.id][l] = false
				continue
			}
			ol := n.owned[l]
			held := ol != nil && ol.held
			if held {
				if holder >= 0 {
					return fmt.Errorf("single-holder: lock %d held by nodes %d and %d", l, holder, n.id)
				}
				holder = n.id
				if steady && !a.prevHeld[n.id][l] && cl.lockHomes.Primary(l) != n.id {
					// Newly granted from a remote primary home: the
					// owner element must already sit in every secondary
					// replica (see the package comment above).
					for s := 1; s < cl.lockHomes.Degree(); s++ {
						sec := cl.lockHomes.Replica(l, s)
						lh := cl.nodes[sec].lockHomesState[l]
						if lh == nil || !lh.vec[n.id] {
							return fmt.Errorf("lock-replication: lock %d granted to node %d before its owner element reached secondary home %d", l, n.id, sec)
						}
					}
				}
			}
			a.prevHeld[n.id][l] = held
		}
		if steady {
			rs := cl.lockHomes.Replicas(l)
			for a := range rs {
				for b := a + 1; b < len(rs); b++ {
					if rs[a] == rs[b] {
						return fmt.Errorf("two-live-replicas: lock %d has two homes on node %d", l, rs[a])
					}
				}
			}
			for _, h := range rs {
				if cl.nodes[h].dead {
					return fmt.Errorf("two-live-replicas: lock %d homed on dead node %d", l, h)
				}
				if cl.nodes[h].lockHomesState[l] == nil {
					return fmt.Errorf("two-live-replicas: lock %d has no replica state at home %d", l, h)
				}
			}
		}
	}
	return nil
}

func (a *refAuditor) checkPages() error {
	cl := a.cl
	calm := !cl.rec.pending && !a.limbo() // no recovery in flight
	// The event slice that completes a recovery can also contain the
	// §4.5.2 roll-back clamp of the dead node's reqVer element
	// (globalSync mutates state without yielding, and migrateThreads
	// waits on nothing when the victim's threads all finished), so the
	// first boundary at which the clamp is observable may already be
	// calm. Forgive a regression of an excluded node's element at the
	// not-calm -> calm edge only; every other element, and every later
	// calm boundary, stays armed.
	edge := calm && !a.wasCalm
	a.wasCalm = calm
	steady := cl.opt.Mode == ModeFT && calm
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		for pid, pg := range n.pt.pages {
			switch pg.state {
			case pWritable:
				if pg.twin == nil || pg.working == nil {
					return fmt.Errorf("page-state: node %d page %d writable without twin/working", n.id, pid)
				}
			case pReadOnly:
				if pg.working == nil {
					return fmt.Errorf("page-state: node %d page %d read-only without working copy", n.id, pid)
				}
			}
			if pg.dirtyWorking != nil && (pg.dirtyTwin == nil || pg.state != pInvalid) {
				return fmt.Errorf("page-state: node %d page %d has an inconsistent dirty stash (state=%d)", n.id, pid, pg.state)
			}
			// Tracking structure: a twin and its dirty mask travel
			// together (partial twins are meaningless without the mask
			// saying which chunks are valid), and vice versa.
			if cl.tracked {
				if (pg.twin != nil) != (pg.dirtyMask != nil) {
					return fmt.Errorf("page-state: node %d page %d twin/dirty-mask mismatch (twin=%v mask=%v)",
						n.id, pid, pg.twin != nil, pg.dirtyMask != nil)
				}
				if (pg.dirtyTwin != nil) != (pg.stashMask != nil) {
					return fmt.Errorf("page-state: node %d page %d stashed twin/mask mismatch (twin=%v mask=%v)",
						n.id, pid, pg.dirtyTwin != nil, pg.stashMask != nil)
				}
			} else if pg.dirtyMask != nil || pg.stashMask != nil {
				return fmt.Errorf("page-state: node %d page %d carries a dirty mask with tracking off", n.id, pid)
			}
			prev := a.prevReq[n.id][pid]
			if prev == nil {
				prev = proto.NewVector(cl.cfg.Nodes)
				a.prevReq[n.id][pid] = prev
			}
			for src, v := range pg.reqVer {
				// Regressions are legal only inside recovery (the
				// roll-back of the dead node's element, §4.5.2) —
				// first observable, at the event granularity the
				// auditor runs at, as late as the completion edge.
				if v < prev[src] && calm && !(edge && cl.nodes[src].excluded) {
					return fmt.Errorf("page-transition: node %d page %d required version regressed (node %d element %d -> %d)",
						n.id, pid, src, prev[src], v)
				}
				prev[src] = v
			}
		}
	}
	if steady {
		for p := 0; p < cl.pageHomes.Items(); p++ {
			rs := cl.pageHomes.Replicas(p)
			for a := range rs {
				if cl.nodes[rs[a]].dead {
					return fmt.Errorf("two-live-replicas: page %d homed on a dead node (%v)", p, rs)
				}
				for b := a + 1; b < len(rs); b++ {
					if rs[a] == rs[b] {
						return fmt.Errorf("two-live-replicas: page %d has two homes on node %d", p, rs[a])
					}
				}
			}
		}
	}
	return nil
}
