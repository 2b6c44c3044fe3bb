package iq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"loosesim/internal/isa"
	"loosesim/internal/uop"
)

func mk(seq uint64, cluster int) *uop.UOp {
	u := uop.New(isa.Inst{Op: isa.IntALU}, 0, seq, 0)
	u.Cluster = cluster
	u.State = uop.StateWaiting
	return u
}

func TestInsertRemove(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 2})
	u := mk(1, 0)
	if !q.Insert(u) {
		t.Fatal("insert into empty queue failed")
	}
	if !u.InIQ || q.Len() != 1 || len(q.ClusterEntries(0)) != 1 {
		t.Error("bookkeeping after insert wrong")
	}
	q.Remove(u)
	if u.InIQ || q.Len() != 0 {
		t.Error("bookkeeping after remove wrong")
	}
	q.Remove(u) // second remove is a no-op
	if q.Len() != 0 {
		t.Error("double remove must be a no-op")
	}
}

func TestFullRejects(t *testing.T) {
	q := New(Config{Entries: 2, Clusters: 1})
	q.Insert(mk(1, 0))
	q.Insert(mk(2, 0))
	if q.Insert(mk(3, 0)) {
		t.Error("full queue must reject")
	}
	if !q.Full() || q.Len() != 2 {
		t.Error("Full/Len inconsistent")
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 1})
	u := mk(1, 0)
	q.Insert(u)
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert must panic")
		}
	}()
	q.Insert(u)
}

func TestLeastLoadedCluster(t *testing.T) {
	q := New(Config{Entries: 16, Clusters: 4})
	if q.LeastLoadedCluster() != 0 {
		t.Error("empty queue must slot to cluster 0")
	}
	q.Insert(mk(1, 0))
	q.Insert(mk(2, 1))
	if got := q.LeastLoadedCluster(); got != 2 {
		t.Errorf("least loaded = %d, want 2", got)
	}
}

func TestSelectOldestReady(t *testing.T) {
	q := New(Config{Entries: 8, Clusters: 2})
	a, b, c := mk(10, 0), mk(11, 0), mk(12, 1)
	q.Insert(a)
	q.Insert(b)
	q.Insert(c)

	all := func(*uop.UOp) bool { return true }
	if got := q.SelectOldestReady(0, all); got != a {
		t.Errorf("cluster 0 select = %v, want oldest %v", got, a)
	}
	if got := q.SelectOldestReady(1, all); got != c {
		t.Errorf("cluster 1 select = %v, want %v", got, c)
	}
	// Issued instructions are not selectable even while retained.
	q.SetState(a, uop.StateIssued)
	if got := q.SelectOldestReady(0, all); got != b {
		t.Errorf("select after issue = %v, want %v", got, b)
	}
	// Readiness filter applies.
	onlyEven := func(u *uop.UOp) bool { return u.Seq%2 == 0 }
	if got := q.SelectOldestReady(0, onlyEven); got != nil {
		t.Errorf("no odd-seq instruction should select, got %v", got)
	}
}

func TestReissueSelectableAgain(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 1})
	u := mk(5, 0)
	q.Insert(u)
	q.SetState(u, uop.StateIssued)
	all := func(*uop.UOp) bool { return true }
	if q.SelectOldestReady(0, all) != nil {
		t.Fatal("issued uop must not reselect")
	}
	// Load-miss recovery: the uop reverts to waiting while still holding
	// its entry, and becomes selectable again.
	q.Revert(u)
	if q.SelectOldestReady(0, all) != u {
		t.Error("reissued uop must be selectable")
	}
}

func TestRetainedAndSampling(t *testing.T) {
	q := New(Config{Entries: 8, Clusters: 2})
	a, b := mk(1, 0), mk(2, 1)
	q.Insert(a)
	q.Insert(b)
	q.SetState(a, uop.StateIssued)
	if q.Retained() != 1 {
		t.Errorf("retained = %d, want 1", q.Retained())
	}
	q.SetState(b, uop.StateDone)
	if q.Retained() != 2 {
		t.Errorf("retained = %d, want 2", q.Retained())
	}
	q.Revert(a)                     // back to waiting after a mis-speculation
	q.SetState(b, uop.StateRetired) // retired, entry not yet reclaimed
	if q.Retained() != 0 {
		t.Errorf("retained = %d, want 0", q.Retained())
	}
}

// An entry inserted already issued (as a restored machine re-inserts its
// retained entries) counts at once, and stops counting when removed.
func TestInsertIssuedCounts(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 1})
	u := mk(1, 0)
	u.State = uop.StateIssued
	q.Insert(u)
	if q.Retained() != 1 {
		t.Fatalf("retained = %d after inserting an issued entry, want 1", q.Retained())
	}
	q.Remove(u)
	if q.Retained() != 0 {
		t.Errorf("retained = %d after removing it, want 0", q.Retained())
	}
	q.SetState(u, uop.StateDone) // outside the queue: no count to keep
	if q.Retained() != 0 {
		t.Errorf("retained = %d after a state change outside the queue, want 0", q.Retained())
	}
}

// scanRetained is the brute-force count Retained replaces.
func scanRetained(q *Queue) int {
	n := 0
	for c := 0; c < q.cfg.Clusters; c++ {
		for _, u := range q.ClusterEntries(c) {
			if u.State == uop.StateIssued || u.State == uop.StateDone {
				n++
			}
		}
	}
	return n
}

// Property: under any sequence of inserts (fresh or already issued),
// issues, completions, reverts, retirements and removals, Retained equals
// a scan of the entries.
func TestRetainedCountProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(Config{Entries: 8, Clusters: 3})
		var live []*uop.UOp
		seq := uint64(0)
		for i := 0; i < int(steps)+1; i++ {
			switch op := rng.Intn(6); {
			case op == 0 || len(live) == 0:
				seq++
				u := mk(seq, rng.Intn(3))
				u.State = uop.State(rng.Intn(int(uop.StateRetired) + 1))
				if q.Insert(u) {
					live = append(live, u)
				}
			case op == 5:
				k := rng.Intn(len(live))
				q.Remove(live[k])
				live = append(live[:k], live[k+1:]...)
			default:
				u := live[rng.Intn(len(live))]
				switch op {
				case 1:
					q.SetState(u, uop.StateIssued)
				case 2:
					q.SetState(u, uop.StateDone)
				case 3:
					q.Revert(u)
				default:
					q.SetState(u, uop.StateRetired)
				}
			}
			if q.Retained() != scanRetained(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Candidate skips entries that are not waiting or whose wake cycle is
// still ahead, and resumes from the position it is given.
func TestCandidateWakeFilter(t *testing.T) {
	q := New(Config{Entries: 8, Clusters: 1})
	a, b, c, d := mk(1, 0), mk(2, 0), mk(3, 0), mk(4, 0)
	for _, u := range []*uop.UOp{a, b, c, d} {
		q.Insert(u)
	}
	q.SetState(a, uop.StateIssued)
	a.WakeAt = 0 // not waiting: ignored
	b.WakeAt = 11
	c.WakeAt = 10
	if i, u := q.Candidate(0, 0, 10); u != c || i != 2 {
		t.Errorf("candidate at cycle 10 = %v at %d, want %v at 2", u, i, c)
	}
	if i, u := q.Candidate(0, 3, 10); u != d || i != 3 {
		t.Errorf("candidate from 3 = %v at %d, want %v at 3", u, i, d)
	}
	if i, u := q.Candidate(0, 0, 11); u != b || i != 1 {
		t.Errorf("candidate at cycle 11 = %v at %d, want %v at 1", u, i, b)
	}
	if i, u := q.Candidate(0, 4, 11); u != nil || i != 4 {
		t.Errorf("candidate past the end = %v at %d, want nil at 4", u, i)
	}
	// SelectOldestReady ignores wake cycles: its predicate decides.
	if got := q.SelectOldestReady(0, func(*uop.UOp) bool { return true }); got != b {
		t.Errorf("SelectOldestReady = %v, want %v", got, b)
	}
	// A reverted entry is a candidate again from its wake cycle on.
	a.WakeAt = 5
	q.Revert(a)
	if i, u := q.Candidate(0, 0, 5); u != a || i != 0 {
		t.Errorf("candidate after revert = %v at %d, want %v at 0", u, i, a)
	}
	q.Remove(a)
	if i, u := q.Candidate(0, 0, 10); u != c || i != 1 {
		t.Errorf("candidate after remove = %v at %d, want %v at 1", u, i, c)
	}
}

// A scan that finds no candidate lets select skip the cluster until its
// earliest wake cycle; Wake, Insert and Revert each bring that forward.
func TestCandidateSkipsIdleCluster(t *testing.T) {
	q := New(Config{Entries: 8, Clusters: 1})
	a, b := mk(1, 0), mk(2, 0)
	a.WakeAt, b.WakeAt = 20, 30
	q.Insert(a)
	q.Insert(b)
	if _, u := q.Candidate(0, 0, 10); u != nil {
		t.Fatalf("candidate %v before any wake cycle", u)
	}
	if got := q.clusters[0].next; got != 20 {
		t.Fatalf("next = %d after an empty scan, want the earliest wake cycle 20", got)
	}
	q.Wake(b, 15)
	if _, u := q.Candidate(0, 0, 15); u != b {
		t.Errorf("after Wake: candidate %v, want %v", u, b)
	}
	c := mk(3, 0)
	c.WakeAt = 12
	q.Insert(c)
	if _, u := q.Candidate(0, 0, 12); u != c {
		t.Errorf("after Insert: candidate %v, want %v", u, c)
	}
	q.SetState(a, uop.StateIssued)
	q.Remove(c)
	b.WakeAt = 40 // a raise needs no call
	if _, u := q.Candidate(0, 0, 20); u != nil {
		t.Fatalf("candidate %v with every wake cycle ahead", u)
	}
	a.WakeAt = 25
	q.Revert(a)
	if _, u := q.Candidate(0, 0, 25); u != a {
		t.Errorf("after Revert: candidate %v, want %v", u, a)
	}
}

// Property: Candidate, resumed after each hit, enumerates exactly the
// waiting entries whose wake cycle has come, oldest first, through any mix
// of inserts, removals, state changes and wake-cycle moves — the cluster
// skip never hides a candidate.
func TestCandidateProperty(t *testing.T) {
	f := func(seed int64, steps uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(Config{Entries: 12, Clusters: 2})
		var live []*uop.UOp
		seq := uint64(0)
		for i := 0; i < int(steps%300)+1; i++ {
			switch op := rng.Intn(7); {
			case op < 2 || len(live) == 0:
				seq++
				u := mk(seq, rng.Intn(2))
				u.WakeAt = int64(rng.Intn(8))
				if q.Insert(u) {
					live = append(live, u)
				}
			case op == 2:
				k := rng.Intn(len(live))
				q.Remove(live[k])
				live = append(live[:k], live[k+1:]...)
			case op == 3:
				q.SetState(live[rng.Intn(len(live))], uop.StateIssued)
			case op == 4:
				q.Revert(live[rng.Intn(len(live))])
			case op == 5:
				q.Wake(live[rng.Intn(len(live))], int64(rng.Intn(8)))
			default:
				live[rng.Intn(len(live))].WakeAt += int64(rng.Intn(4)) // a raise
			}
			now := int64(rng.Intn(8))
			for c := 0; c < 2; c++ {
				var want []*uop.UOp
				for _, u := range live {
					if u.Cluster == c && u.State == uop.StateWaiting && u.WakeAt <= now {
						want = append(want, u)
					}
				}
				var got []*uop.UOp
				for j, u := q.Candidate(c, 0, now); u != nil; j, u = q.Candidate(c, j+1, now) {
					got = append(got, u)
				}
				if len(got) != len(want) {
					return false
				}
				for j := range got {
					if got[j] != want[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config must panic")
		}
	}()
	New(Config{Entries: 0, Clusters: 1})
}

func TestBadClusterPanics(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 2})
	u := mk(1, 5)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range cluster must panic")
		}
	}()
	q.Insert(u)
}

// Property: after any insert/remove sequence, Len equals the sum of cluster
// lengths and never exceeds capacity.
func TestOccupancyInvariantProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(Config{Entries: 8, Clusters: 3})
		var live []*uop.UOp
		seq := uint64(0)
		for i := 0; i < int(steps); i++ {
			if rng.Intn(2) == 0 {
				seq++
				u := mk(seq, rng.Intn(3))
				if q.Insert(u) {
					live = append(live, u)
				}
			} else if len(live) > 0 {
				k := rng.Intn(len(live))
				q.Remove(live[k])
				live = append(live[:k], live[k+1:]...)
			}
			sum := 0
			for c := 0; c < 3; c++ {
				sum += len(q.ClusterEntries(c))
			}
			if q.Len() != sum || q.Len() != len(live) || q.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: SelectOldestReady always returns the minimum-Seq waiting entry
// among those passing the filter.
func TestSelectOldestProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New(Config{Entries: 32, Clusters: 1})
		var waiting []*uop.UOp
		for i := 0; i < int(n%20); i++ {
			u := mk(uint64(i), 0)
			if rng.Intn(4) == 0 {
				u.State = uop.StateIssued
			}
			q.Insert(u)
			if u.State == uop.StateWaiting {
				waiting = append(waiting, u)
			}
		}
		got := q.SelectOldestReady(0, func(*uop.UOp) bool { return true })
		if len(waiting) == 0 {
			return got == nil
		}
		return got == waiting[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
