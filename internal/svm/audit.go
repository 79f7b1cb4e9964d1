package svm

import (
	"fmt"
	"slices"

	"ftsvm/internal/proto"
)

// auditor is the online invariant checker: an opt-in hook at the
// engine's event boundaries that asserts, after every simulated event,
// the protocol invariants the paper's fault tolerance rests on. A
// violation stops the engine at the faulting event and surfaces from
// Cluster.Run — instead of a replica divergence being discovered by a
// post-run VerifyReplicas three barriers after the bug.
//
// Invariants checked:
//
//   - single-holder: at most one live node owns any application lock,
//     under all three lock algorithms;
//   - lock-replication (ModeFT): when a node transitions to holding a
//     lock it acquired remotely, its owner element has already reached
//     the secondary home's vector. Both the polling and the NIC lock
//     satisfy this through the per-sender FIFO of the network (the
//     replication is enqueued before the message whose delivery grants
//     the lock), so recovery from either home replica never resurrects
//     a grant-in-flight as a free lock;
//   - page-state structure: a writable page has a twin and a working
//     copy, a read-only page has a working copy, and stashed dirty
//     copies (false sharing) come in pairs on invalid pages;
//   - page-version monotonicity: a page's required version vector never
//     regresses outside recovery (the only legal decrease is recovery's
//     roll-back of the dead node's element). Several page-state
//     transitions can coalesce inside one event — a fault and the
//     following write promotion run in a single process slice — so
//     per-state transition edges are not observable at event
//     boundaries, but a version regression always is;
//   - two-live-replicas (ModeFT, outside recovery): every page's and
//     every lock's two homes are distinct live nodes and the lock
//     replicas exist at both.
//
// The check after an event visits only the items the event touched.
// Every write to state an invariant reads marks the written item in a
// dirty set:
//
//   - a (node, page) item when the page's state, twin, working copy,
//     dirty stash, dirty masks or required version change. Functions
//     that look a page up to write it use pageTable.page; a function
//     that holds a page across a yield calls page.touch after the yield,
//     next to its writes;
//   - a lock item when a node's ownership of it changes (node.lockState,
//     or Cluster.touchLock where an ownedLock is held across a yield)
//     and when a home creates its replica state (initLockHome).
//
// An unmarked item is unchanged since its last check, so its invariants
// still hold and its shadow state (prevHeld, prevReq) is current. Three
// kinds of change move every item at once and are swept instead:
//
//   - the not-calm -> calm edge that completes a recovery: every item,
//     with the roll-back forgiveness below;
//   - a kill, an exclusion or a directory epoch change: every lock and
//     every page's homes (two-live-replicas, and the dead node's lock
//     ownership);
//   - the end of Cluster.Run: every item, the backstop behind the marks.
type auditor struct {
	cl    *Cluster
	pages int // pages per node: a page item's key is node*pages + page

	// The dirty set: items marked since the last check, in mark order,
	// with membership bits so a repeated mark is a no-op.
	dirtyPages []int
	pageMarked []uint64 // bitset over page item keys
	dirtyLocks []int
	lockMarked []bool

	prevHeld [][]bool // [node][lock]: node owned lock at the last check
	// prevReq ([node][page]: reqVer at the last check) backs the
	// version-monotonicity invariant. A per-page vector is allocated
	// only once the page's reqVer leaves zero: nil stands for the zero
	// vector (reqVer starts at zero), so pages a node never hears a
	// write notice for cost nothing — at 512 nodes an eager vector per
	// node per page would double the pages' own O(N² x pages) reqVer
	// footprint.
	prevReq [][]proto.VectorTime
	// wasCalm is the calm flag at the previous check, so the check can
	// recognize the boundary that completes a recovery (see checkPage:
	// legal roll-backs may first surface exactly there).
	wasCalm bool
	// swept is set by the first check, which sweeps every item.
	swept bool
	// The membership version and directory epochs at the last check: a
	// change moves homes and liveness for every item at once.
	membership           int
	pageEpoch, lockEpoch int
}

// EnableAuditor attaches the online invariant auditor, which checks
// every invariant after every event. Call before Run.
func (cl *Cluster) EnableAuditor() {
	nodes, pages, locks := cl.cfg.Nodes, cl.pageHomes.Items(), cl.lockHomes.Items()
	a := &auditor{
		cl:         cl,
		pages:      pages,
		pageMarked: make([]uint64, (nodes*pages+63)/64),
		lockMarked: make([]bool, locks),
		prevHeld:   make([][]bool, nodes),
		prevReq:    make([][]proto.VectorTime, nodes),
		wasCalm:    true,
	}
	for i := range a.prevHeld {
		a.prevHeld[i] = make([]bool, locks)
		a.prevReq[i] = make([]proto.VectorTime, pages)
	}
	cl.aud = a
	cl.eng.SetAfterEvent(a.afterEvent)
}

// touch marks pg for the auditor's next check; a no-op when no auditor
// is attached.
func (pg *page) touch() {
	if a := pg.pt.node.cl.aud; a != nil {
		k := pg.pt.node.id*a.pages + pg.id
		if w, b := k>>6, uint64(1)<<(k&63); a.pageMarked[w]&b == 0 {
			a.pageMarked[w] |= b
			a.dirtyPages = append(a.dirtyPages, k)
		}
	}
}

// touchLock marks lock l for the auditor's next check.
func (cl *Cluster) touchLock(l int) {
	if a := cl.aud; a != nil && !a.lockMarked[l] {
		a.lockMarked[l] = true
		a.dirtyLocks = append(a.dirtyLocks, l)
	}
}

// afterEvent runs in engine context after every executed event. It
// performs no scheduling and charges no virtual time; on the first
// violation it records the error and stops the engine.
func (a *auditor) afterEvent() {
	if a.cl.auditErr != nil {
		return
	}
	full, homes := a.scope()
	if !homes && len(a.dirtyPages) == 0 && len(a.dirtyLocks) == 0 {
		a.wasCalm = a.calm() // the event touched no audited item
		return
	}
	if err := a.check(full, homes); err != nil {
		a.fail(err)
	}
}

// finish is the end-of-run sweep of every item.
func (a *auditor) finish() {
	if a.cl.auditErr != nil {
		return
	}
	if err := a.check(true, true); err != nil {
		a.fail(err)
	}
}

func (a *auditor) fail(err error) {
	a.cl.auditErr = fmt.Errorf("svm: invariant violation at t=%dns: %w", a.cl.eng.Now(), err)
	a.cl.eng.Stop()
}

// calm reports that no recovery is in flight: no failure is reported
// and unrecovered, and no node is dead but not yet excluded (the window
// between a kill and the completed recovery, during which home maps
// still reference the dead node and replica invariants are
// legitimately broken — that is what recovery repairs).
func (a *auditor) calm() bool {
	return !a.cl.rec.pending && a.cl.unrecovered == 0
}

// scope reports how far the next check reaches past the dirty set: full
// sweeps every item, homes every lock and every page's homes.
func (a *auditor) scope() (full, homes bool) {
	cl := a.cl
	full = !a.swept || a.calm() && !a.wasCalm
	homes = full || a.membership != cl.membership ||
		a.pageEpoch != cl.pageHomes.Epoch() || a.lockEpoch != cl.lockHomes.Epoch()
	return full, homes
}

// check runs the invariants over the dirty set, widened to the given
// sweeps, and empties the dirty set.
func (a *auditor) check(full, homes bool) error {
	err := a.checkItems(full, homes)
	for _, k := range a.dirtyPages {
		a.pageMarked[k>>6] &^= 1 << (k & 63)
	}
	for _, l := range a.dirtyLocks {
		a.lockMarked[l] = false
	}
	a.dirtyPages, a.dirtyLocks = a.dirtyPages[:0], a.dirtyLocks[:0]
	return err
}

func (a *auditor) checkItems(full, homes bool) error {
	cl := a.cl
	calm := a.calm()
	edge := calm && !a.wasCalm // implies full
	a.wasCalm, a.swept = calm, true
	a.membership, a.pageEpoch, a.lockEpoch = cl.membership, cl.pageHomes.Epoch(), cl.lockHomes.Epoch()
	steady := cl.opt.Mode == ModeFT && calm
	// Locks, then pages, each in index order — the order a sweep visits
	// them, so an event that breaks several invariants reports the same
	// first violation whichever way it is checked.
	if homes {
		for l := range a.lockMarked {
			if err := a.checkLock(l, steady); err != nil {
				return err
			}
		}
	} else {
		if len(a.dirtyLocks) > 1 {
			slices.Sort(a.dirtyLocks)
		}
		for _, l := range a.dirtyLocks {
			if err := a.checkLock(l, steady); err != nil {
				return err
			}
		}
	}
	if full {
		for _, n := range cl.nodes {
			if n.dead {
				continue
			}
			for pid := range n.pt.pages {
				k := n.id*a.pages + pid
				if err := a.checkPage(n, pid, calm, edge, a.pageMarked[k>>6]&(1<<(k&63)) != 0); err != nil {
					return err
				}
			}
		}
	} else {
		if len(a.dirtyPages) > 1 {
			slices.Sort(a.dirtyPages)
		}
		for _, k := range a.dirtyPages {
			if n := cl.nodes[k/a.pages]; !n.dead {
				if err := a.checkPage(n, k%a.pages, calm, false, true); err != nil {
					return err
				}
			}
		}
	}
	if homes && steady {
		for p := 0; p < cl.pageHomes.Items(); p++ {
			if err := a.checkPageHomes(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *auditor) checkLock(l int, steady bool) error {
	cl := a.cl
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
				// Newly granted from a remote primary home: the owner
				// element must already sit in every secondary replica
				// (see the package comment above).
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
	if !steady {
		return nil
	}
	dir := cl.lockHomes
	k := dir.Degree()
	for i := 0; i < k; i++ {
		h := dir.Replica(l, i)
		for j := i + 1; j < k; j++ {
			if dir.Replica(l, j) == h {
				return fmt.Errorf("two-live-replicas: lock %d has two homes on node %d", l, h)
			}
		}
	}
	for i := 0; i < k; i++ {
		h := dir.Replica(l, i)
		if cl.nodes[h].dead {
			return fmt.Errorf("two-live-replicas: lock %d homed on dead node %d", l, h)
		}
		if cl.nodes[h].lockHomesState[l] == nil {
			return fmt.Errorf("two-live-replicas: lock %d has no replica state at home %d", l, h)
		}
	}
	return nil
}

// checkPage checks one page's structure and required-version history.
// marked says the page was marked since the last check. An unmarked page
// without a history still has the zero reqVer it had at its last check,
// so a sweep skips its version check: the sweep then costs O(pages) per
// node plus O(N) per page a node has heard of, instead of reading every
// reqVer (O(N² x pages): 512 MB at 512 nodes x 512 pages).
func (a *auditor) checkPage(n *node, pid int, calm, edge, marked bool) error {
	cl := a.cl
	pg := n.pt.pages[pid]
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
	// Tracking structure: a twin and its dirty mask travel together
	// (partial twins are meaningless without the mask saying which
	// chunks are valid), and vice versa.
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
		if !marked || !slices.ContainsFunc(pg.reqVer, func(v int32) bool { return v != 0 }) {
			return nil // still the zero vector nil stands for
		}
		prev = proto.NewVector(len(pg.reqVer))
		a.prevReq[n.id][pid] = prev
	}
	for src, v := range pg.reqVer {
		// Regressions are legal only inside recovery (the roll-back of
		// the dead node's element, §4.5.2). The event slice that
		// completes a recovery can also contain the clamp (globalSync
		// mutates state without yielding, and migrateThreads waits on
		// nothing when the victim's threads all finished), so the first
		// boundary at which it is observable may already be calm.
		// Forgive a regression of an excluded node's element at the
		// not-calm -> calm edge only; every other element, and every
		// later calm boundary, stays armed.
		if v < prev[src] && calm && !(edge && cl.nodes[src].excluded) {
			return fmt.Errorf("page-transition: node %d page %d required version regressed (node %d element %d -> %d)",
				n.id, pid, src, prev[src], v)
		}
		prev[src] = v
	}
	return nil
}

func (a *auditor) checkPageHomes(p int) error {
	cl := a.cl
	dir := cl.pageHomes
	k := dir.Degree()
	for i := 0; i < k; i++ {
		h := dir.Replica(p, i)
		if cl.nodes[h].dead {
			return fmt.Errorf("two-live-replicas: page %d homed on a dead node (%v)", p, dir.Replicas(p))
		}
		for j := i + 1; j < k; j++ {
			if dir.Replica(p, j) == h {
				return fmt.Errorf("two-live-replicas: page %d has two homes on node %d", p, h)
			}
		}
	}
	return nil
}

// auditHolders returns the live nodes currently owning lock l — test
// and debugging support for the single-holder invariant.
func (cl *Cluster) auditHolders(l int) []int {
	var out []int
	for _, n := range cl.nodes {
		if n.dead {
			continue
		}
		if ol := n.owned[l]; ol != nil && ol.held {
			out = append(out, n.id)
		}
	}
	return out
}
