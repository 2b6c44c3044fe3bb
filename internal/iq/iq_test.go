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
	a.State = uop.StateIssued
	if got := q.SelectOldestReady(0, all); got != b {
		t.Errorf("select after issue = %v, want %v", got, b)
	}
	// Readiness filter applies.
	onlyEven := func(u *uop.UOp) bool { return u.Seq%2 == 0 }
	b.State = uop.StateWaiting
	if got := q.SelectOldestReady(0, onlyEven); got != nil {
		t.Errorf("no odd-seq instruction should select, got %v", got)
	}
}

func TestReissueSelectableAgain(t *testing.T) {
	q := New(Config{Entries: 4, Clusters: 1})
	u := mk(5, 0)
	q.Insert(u)
	u.State = uop.StateIssued
	all := func(*uop.UOp) bool { return true }
	if q.SelectOldestReady(0, all) != nil {
		t.Fatal("issued uop must not reselect")
	}
	// Load-miss recovery: the uop reverts to waiting while still holding
	// its entry, and becomes selectable again.
	u.State = uop.StateWaiting
	if q.SelectOldestReady(0, all) != u {
		t.Error("reissued uop must be selectable")
	}
}

func TestRetainedAndSampling(t *testing.T) {
	q := New(Config{Entries: 8, Clusters: 2})
	a, b := mk(1, 0), mk(2, 1)
	q.Insert(a)
	q.Insert(b)
	a.State = uop.StateIssued
	if q.Retained() != 1 {
		t.Errorf("retained = %d, want 1", q.Retained())
	}
	b.State = uop.StateDone
	if q.Retained() != 2 {
		t.Errorf("retained = %d, want 2", q.Retained())
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
