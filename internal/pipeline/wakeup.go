package pipeline

import (
	"loosesim/internal/regfile"
	"loosesim/internal/uop"
)

// Wakeup and select.
//
// The wakeup predicate is wakeCycle(u) <= cycle && !loadMustWait(u): the
// issue gate has opened, every source's value is (believed) available by
// the time the instruction reaches the functional units, and memory
// dependence does not hold it. Evaluating it on every waiting entry every
// cycle is the brute-force select; instead each queued uop carries WakeAt,
// a lower bound on the first cycle the predicate can hold, and select
// (iq.Queue.Candidate) only offers waiting entries whose WakeAt has
// arrived. The bound is kept by one invariant: for every queued entry,
//
//	WakeAt <= wakeCycle(u) = max(MinIssueCycle, readyAt[src]-IQExLat ...)
//
// Every way the right-hand side can fall re-establishes it:
//
//   - entry into the queue (rename, or restore once the ready times are
//     decoded): WakeAt starts at wakeCycle(u) and link puts the entry on
//     its sources' waiter lists;
//   - a new readyAt: announce sets the WakeAt of every queued consumer of
//     the register, found through its waiter list, to readyAt-IQExLat,
//     which wakeCycle of that consumer cannot be below.
//
// MinIssueCycle only grows, so a revert to waiting keeps a valid WakeAt.
// Only issue's speculative announce, execute's ready time under load stall
// and a miss's data return can lower readyAt, and they go through announce
// (as does the miss notification, which shares the load resolution's
// call); the writes that only raise it to inf, at rename and at a revert,
// go direct and leave WakeAt a looser, still valid bound. A candidate that
// fails the predicate takes its exact wake cycle as WakeAt. The predicate
// stays the final check on every candidate, so the filter changes how many
// entries are examined, never which one is selected. loadMustWait is not
// part of the bound: a load held by memory dependence keeps a past WakeAt
// and is re-checked every cycle, since the oldest unexecuted store moves
// every cycle.

// announce sets p's believed ready time and moves the wake cycle of every
// queued consumer of p to match.
func (m *Machine) announce(p regfile.PReg, at int64) {
	m.readyAt[p] = at
	wake := at - int64(m.cfg.IQExLat)
	for n := m.waiters[p].Next; n != nil; n = n.Next {
		m.q.Wake(n.U, wake)
	}
}

// wakeCycle returns the first cycle at which u's issue gate and every
// source's believed ready time allow it to issue.
func (m *Machine) wakeCycle(u *uop.UOp) int64 {
	at := u.MinIssueCycle
	for i, p := range u.Src {
		if i == u.NumSrc {
			break
		}
		if r := m.readyAt[p] - int64(m.cfg.IQExLat); r > at {
			at = r
		}
	}
	return at
}

// link puts queued u on the waiter list of each register it reads;
// iq.Queue.Remove takes it off (uop.UOp.Unwait).
func (m *Machine) link(u *uop.UOp) {
	for i, p := range u.Src {
		if i == u.NumSrc || i == 1 && p == u.Src[0] {
			break
		}
		head, n := &m.waiters[p], &u.Wait[i]
		n.U, n.Prev, n.Next = u, head, head.Next
		if head.Next != nil {
			head.Next.Prev = n
		}
		head.Next = n
	}
}
