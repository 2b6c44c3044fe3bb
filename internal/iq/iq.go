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
type Queue struct {
	cfg       Config
	byCluster [][]*uop.UOp
	count     int
}

// New returns an empty queue.
func New(cfg Config) *Queue {
	if cfg.Entries < 1 || cfg.Clusters < 1 {
		panic(fmt.Sprintf("iq: bad config %+v", cfg))
	}
	q := &Queue{cfg: cfg, byCluster: make([][]*uop.UOp, cfg.Clusters)}
	// Slotting is least-loaded but nothing caps one cluster short of the
	// whole queue, so each list is provisioned to the full capacity —
	// Insert must never grow on the per-cycle path.
	for c := range q.byCluster {
		q.byCluster[c] = make([]*uop.UOp, 0, cfg.Entries)
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
// lists are the queue's only state.
func (q *Queue) ClusterEntries(c int) []*uop.UOp { return q.byCluster[c] }

// LeastLoadedCluster returns the cluster with the fewest queue entries,
// breaking ties toward lower indices. This is the decode-time slotting
// policy: it approximates the uniform distribution the paper assumes.
func (q *Queue) LeastLoadedCluster() int {
	best := 0
	for c := 1; c < q.cfg.Clusters; c++ {
		if len(q.byCluster[c]) < len(q.byCluster[best]) {
			best = c
		}
	}
	return best
}

// Insert places u (already slotted to u.Cluster) into the queue. It returns
// false if the queue is full.
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
	// simlint:prealloc cluster lists sized to Entries at construction
	q.byCluster[u.Cluster] = append(q.byCluster[u.Cluster], u)
	q.count++
	u.InIQ = true
	return true
}

// Remove releases u's entry (retire-side eviction or squash).
func (q *Queue) Remove(u *uop.UOp) {
	if !u.InIQ {
		return
	}
	list := q.byCluster[u.Cluster]
	for i, e := range list {
		if e == u {
			q.byCluster[u.Cluster] = append(list[:i], list[i+1:]...)
			q.count--
			u.InIQ = false
			return
		}
	}
	panic(fmt.Sprintf("iq: %v marked InIQ but not found", u))
}

// SelectOldestReady returns the oldest waiting instruction in cluster c for
// which ready returns true, or nil. It models the per-cluster select logic
// (one issue per cluster per cycle).
func (q *Queue) SelectOldestReady(c int, ready func(*uop.UOp) bool) *uop.UOp {
	for _, u := range q.byCluster[c] {
		// simlint:ignore ifacedispatch wakeup predicate seam; the caller binds it once at construction
		if u.State == uop.StateWaiting && ready(u) {
			return u
		}
	}
	return nil
}

// Retained returns the number of entries held by instructions that have
// issued (or completed) but whose entries have not yet been reclaimed —
// the IQ-pressure population. Iterating the cluster lists directly keeps
// the per-cycle sampling path closure-free.
func (q *Queue) Retained() int {
	n := 0
	for _, list := range q.byCluster {
		for _, u := range list {
			if u.State == uop.StateIssued || u.State == uop.StateDone {
				n++
			}
		}
	}
	return n
}
