// Package iq models the unified, clustered instruction queue of the base
// machine (paper Section 2): a 128-entry window whose entries are slotted at
// decode to one of eight functional-unit clusters, so that selecting 8
// instructions out of 128 reduces to selecting 1 out of ~16 per cluster.
//
// The IQ is where the load resolution loop exerts its secondary cost, IQ
// pressure (Section 2.2.2): issued instructions must be *retained* until the
// execution stage confirms they will not be reissued, which takes the loop
// delay (IQ-EX latency plus feedback). Entries of issued-but-unconfirmed
// instructions are dead weight that shrinks the effective window.
package iq

import (
	"fmt"
	"math"

	"loosesim/internal/uop"
)

// Config sizes the queue.
type Config struct {
	// Entries is the total queue capacity (128 in the base machine).
	Entries int
	// Clusters is the number of functional-unit clusters instructions are
	// slotted across (8 in the base machine).
	Clusters int
}

// Queue is the clustered instruction queue. Each cluster's list is kept in
// age order; age order across clusters is preserved by the global Seq.
// retained counts the entries in a retaining state (see Retained); every
// way an entry enters, leaves, or changes state goes through Insert,
// Remove, SetState or Revert, which keep it exact. Select (Candidate)
// offers only waiting entries whose wake cycle (uop.WakeAt) has come;
// the machine keeps each wake cycle a lower bound on when the entry can
// issue, and moves it earlier only through Wake or Revert.
type Queue struct {
	cfg      Config
	clusters []cluster
	count    int
	retained int
}

// cluster is one cluster's entry list and next, a lower bound on the wake
// cycle (uop.WakeAt) of every waiting entry in it: select skips the
// cluster outright until next. Every write that may make a waiting
// entry's WakeAt smaller lowers next too, and a scan of the whole list
// that finds no candidate sets it to the exact minimum.
type cluster struct {
	list []*uop.UOp
	next int64
}

// New returns an empty queue.
func New(cfg Config) *Queue {
	if cfg.Entries < 1 || cfg.Clusters < 1 {
		panic(fmt.Sprintf("iq: bad config %+v", cfg))
	}
	q := &Queue{cfg: cfg, clusters: make([]cluster, cfg.Clusters)}
	// Slotting is least-loaded but nothing caps one cluster short of the
	// whole queue, so each list is provisioned to the full capacity —
	// Insert must never grow on the per-cycle path.
	for c := range q.clusters {
		q.clusters[c].list = make([]*uop.UOp, 0, cfg.Entries)
	}
	return q
}

// Len returns the number of occupied entries.
func (q *Queue) Len() int { return q.count }

// Full reports whether the queue has no free entries.
func (q *Queue) Full() bool { return q.count >= q.cfg.Entries }

// ClusterEntries returns cluster c's entry list in age order. The slice
// is the queue's own storage — callers must treat it as read-only. It
// exists for the machine's snapshot encoder, which serializes the lists
// as live-uop indices and rebuilds them through Insert on restore; the
// lists are the queue's only encoded state (the retained count follows
// from the entries' states, and wake cycles are rebuilt by the machine).
func (q *Queue) ClusterEntries(c int) []*uop.UOp { return q.clusters[c].list }

// LeastLoadedCluster returns the cluster with the fewest queue entries,
// breaking ties toward lower indices. This is the decode-time slotting
// policy: it approximates the uniform distribution the paper assumes.
func (q *Queue) LeastLoadedCluster() int {
	best, n := 0, math.MaxInt
	for c := range q.clusters {
		if l := len(q.clusters[c].list); l < n {
			best, n = c, l
		}
	}
	return best
}

// Insert places u (already slotted to u.Cluster) into the queue. It returns
// false if the queue is full. u may already be issued — a restored machine
// re-inserts its retained entries — and counts by its state at insertion.
// A waiting entry keeps the wake cycle it carries (uop.WakeAt).
func (q *Queue) Insert(u *uop.UOp) bool {
	if q.Full() {
		return false
	}
	if u.Cluster < 0 || u.Cluster >= q.cfg.Clusters {
		panic(fmt.Sprintf("iq: uop %v has bad cluster", u))
	}
	if u.InIQ {
		panic(fmt.Sprintf("iq: duplicate insert of %v", u))
	}
	cl := &q.clusters[u.Cluster]
	// simlint:prealloc cluster lists sized to Entries at construction
	cl.list = append(cl.list, u)
	if u.State == uop.StateWaiting {
		cl.next = min(cl.next, u.WakeAt)
	}
	q.count++
	q.retained += retains(u.State)
	u.InIQ = true
	return true
}

// Remove releases u's entry (retire-side eviction or squash), taking it
// out of the waiter lists its sources were linked into as well.
func (q *Queue) Remove(u *uop.UOp) {
	if !u.InIQ {
		return
	}
	u.Unwait()
	cl := &q.clusters[u.Cluster]
	list := cl.list
	for i, e := range list {
		if e == u {
			cl.list = append(list[:i], list[i+1:]...)
			q.count--
			q.retained -= retains(u.State)
			u.InIQ = false
			return
		}
	}
	panic(fmt.Sprintf("iq: %v marked InIQ but not found", u))
}

// SetState moves u to state s. The machine makes every forward state
// change of a queued entry here — issue, completion, retirement while the
// entry awaits reclamation — and the one backward change through Revert,
// so the retained count stays exact without a scan. A uop outside the
// queue just takes the new state.
func (q *Queue) SetState(u *uop.UOp, s uop.State) {
	if u.InIQ {
		q.retained += retains(s) - retains(u.State)
	}
	u.State = s
}

// Revert returns queued entry u to waiting after a mis-speculation (the
// loose-loop recovery at the IQ): it keeps its entry and its wake cycle,
// and select offers it again from that cycle on.
func (q *Queue) Revert(u *uop.UOp) {
	q.retained -= retains(u.State)
	u.State = uop.StateWaiting
	cl := &q.clusters[u.Cluster]
	cl.next = min(cl.next, u.WakeAt)
}

// retains reports (as 0 or 1) whether an entry in state s is retained:
// issued or completed but not yet reclaimed.
func retains(s uop.State) int {
	if s == uop.StateIssued || s == uop.StateDone {
		return 1
	}
	return 0
}

// Wake sets queued u's wake cycle to at, which may be earlier than before.
// (Raising a waiting entry's wake cycle needs no call: the field can be
// written directly.)
func (q *Queue) Wake(u *uop.UOp, at int64) {
	u.WakeAt = at
	cl := &q.clusters[u.Cluster]
	cl.next = min(cl.next, at)
}

// Candidate returns the oldest entry of cluster c, at or after age
// position i, that is waiting with a wake cycle (uop.WakeAt) not after
// now, and its position; it returns (len, nil) when there is none. It is
// the select logic's scan: the caller applies the full wakeup predicate to
// each candidate in turn, resuming at position+1, and raises the wake
// cycle of a candidate that fails it.
func (q *Queue) Candidate(c, i int, now int64) (int, *uop.UOp) {
	cl := &q.clusters[c]
	list := cl.list
	if cl.next > now {
		return len(list), nil
	}
	next := int64(math.MaxInt64)
	for j := i; j < len(list); j++ {
		if u := list[j]; u.State == uop.StateWaiting {
			if u.WakeAt <= now {
				return j, u
			}
			next = min(next, u.WakeAt)
		}
	}
	if i == 0 {
		cl.next = next // the whole list was scanned
	}
	return len(list), nil
}

// SelectOldestReady returns the oldest waiting instruction in cluster c for
// which ready returns true, or nil, regardless of wake cycles. It is the
// Candidate scan under a caller-supplied predicate, for callers outside the
// cycle kernel.
func (q *Queue) SelectOldestReady(c int, ready func(*uop.UOp) bool) *uop.UOp {
	for i, u := q.Candidate(c, 0, math.MaxInt64); u != nil; i, u = q.Candidate(c, i+1, math.MaxInt64) {
		if ready(u) {
			return u
		}
	}
	return nil
}

// Retained returns the number of entries held by instructions that have
// issued (or completed) but whose entries have not yet been reclaimed —
// the IQ-pressure population. The count is kept as entries change state,
// so sampling it every cycle costs nothing.
func (q *Queue) Retained() int { return q.retained }
