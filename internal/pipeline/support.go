package pipeline

import "loosesim/internal/uop"

// inf is a cycle later than any the simulation reaches.
const inf int64 = 1 << 62

// deque is a FIFO of uops with O(1) amortised pop-front and tail
// truncation, used for per-thread windows and decode pipes.
type deque struct {
	buf  []*uop.UOp
	head int
}

func (d *deque) push(u *uop.UOp) {
	// simlint:prealloc grows to the window high-water mark once, then head-compacted and reused
	d.buf = append(d.buf, u)
}

func (d *deque) len() int { return len(d.buf) - d.head }

// at returns the i-th element from the front (0 = oldest).
func (d *deque) at(i int) *uop.UOp { return d.buf[d.head+i] }

func (d *deque) front() *uop.UOp {
	if d.len() == 0 {
		return nil
	}
	return d.buf[d.head]
}

// popFront removes and returns the oldest element, or nil if the deque
// is empty.
func (d *deque) popFront() *uop.UOp {
	live := d.buf[d.head:]
	if len(live) == 0 {
		return nil
	}
	u := live[0]
	live[0] = nil
	d.head++
	if d.head > 4096 && d.head*2 > len(d.buf) {
		d.buf = append(d.buf[:0], live[1:]...)
		d.head = 0
	}
	return u
}

// truncFrom drops every element at relative index >= i.
func (d *deque) truncFrom(i int) {
	for j := d.head + i; j < len(d.buf); j++ {
		d.buf[j] = nil
	}
	d.buf = d.buf[:d.head+i]
}

// Event kinds, processed in this order within a cycle so same-cycle
// interactions resolve deterministically: completions publish results
// before loads update wakeup state, and executions observe both.
const (
	evComplete = iota
	evLoadResolve
	evExec
	evWriteback
	evIQFree
	numEvKinds
)

// event is one scheduled pipeline occurrence. tag snapshots u.Issues at
// scheduling time so events belonging to a superseded issue of the same
// instruction are ignored; gen snapshots the destination register's
// generation for writeback events.
type event struct {
	u   *uop.UOp
	tag int32
	gen uint32
}

// ringSize must exceed the longest scheduling distance (memory latency +
// TLB refill + writeback delay, plus slack).
const ringSize = 1024

// eventRing is a calendar queue: slot c%ringSize holds the events of cycle
// c for one event kind. init carves every slot out of one backing slab so
// the per-cycle schedule path never grows a slot from nil — before the
// slab, slot-by-slot append growth was ~90% of the machine's allocations.
type eventRing struct {
	slots [ringSize][]event
}

// init provisions slotCap events per slot. Per-cycle per-kind event
// counts are bounded by machine widths: at most one evExec and one
// evIQFree per cluster per cycle, while completions (and the writebacks
// that follow them) from several issue cycles can coincide. The machine
// passes twice the cluster count, which covers every count observed on
// the base machine; a slot that still overflows grows once via append and
// keeps the larger capacity.
func (r *eventRing) init(slotCap int) {
	slab := make([]event, ringSize*slotCap)
	for i := range r.slots {
		r.slots[i] = slab[i*slotCap : i*slotCap : (i+1)*slotCap]
	}
}

func (r *eventRing) schedule(cycle int64, e event) {
	i := cycle & (ringSize - 1)
	// simlint:prealloc slots carved from the init slab; overflow growth is retained
	r.slots[i] = append(r.slots[i], e)
}

// take returns and clears the events for the given cycle.
func (r *eventRing) take(cycle int64) []event {
	i := cycle & (ringSize - 1)
	evs := r.slots[i]
	r.slots[i] = r.slots[i][:0]
	return evs
}
