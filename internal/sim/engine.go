// Package sim contains the deterministic discrete-event simulator that
// stands in for the paper's M5 full-system setup: an event engine, a
// machine model (in-order 1-IPC cores at 2 GHz with an overcommitted OS
// scheduler: 64 threads on 16 cores, 4 per core, round-robin quanta,
// yield/block/wake with kernel-mode cycle charges), per-thread time
// accounting in the five categories of the paper's Figure 5, and the
// transaction runner that executes STAMP-like workloads through the
// simulated LogTM (internal/tm) under a pluggable contention manager
// (internal/sched).
//
// All time is in CPU cycles. Runs are bit-reproducible: the engine is
// single-threaded and event ties break on insertion order.
package sim

// Handle names a long-lived func() registered with an engine via
// Register. Scheduling by handle keeps the event heap free of pointers,
// so sift operations are plain memmoves with no GC write barriers — the
// engine's push/pop was the hottest edge in the whole simulation profile
// before handles, and most of that was barrier bookkeeping.
type Handle int32

// ArgHandle names a registered func(uint64) (see RegisterArg); the
// argument rides in the event itself, snapshotted at schedule time.
type ArgHandle int32

// Engine is a discrete-event scheduler. Events fire in (time, insertion
// sequence) order, which makes simulations deterministic.
type Engine struct {
	now    int64
	seq    uint64
	events eventHeap

	// Handler tables. Registered handlers live for the engine's lifetime;
	// one-shot funcs (the closure-based At/After/AfterArg API) occupy a
	// recycled slot until they fire.
	handlers       []func()
	argHandlers    []func(uint64)
	oneShot        []func()
	oneShotFree    []int32
	oneShotArg     []func(uint64)
	oneShotArgFree []int32
}

// NewEngine returns an engine at time zero with no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in cycles.
func (e *Engine) Now() int64 { return e.now }

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return len(e.events.ev) }

// NoPending is the PeekTime sentinel when no events are scheduled: any
// finite event time compares strictly below it.
const NoPending = int64(1<<63 - 1)

// PeekTime returns the time of the next pending event without firing it,
// or NoPending when the heap is empty. This is the conservative-DES
// lookahead horizon: between Now and PeekTime no event can fire, so an
// actor may execute straight-line work locally and commit the elapsed
// time with a single At call — as long as it stays strictly below the
// horizon, the global event order is indistinguishable from having
// scheduled every intermediate step. (Strictly: an event landing exactly
// on the horizon gets a fresh sequence number and so fires after the
// already-pending event, exactly as a newly scheduled event would have.)
//
//bfgts:allocfree
func (e *Engine) PeekTime() int64 {
	if len(e.events.ev) == 0 {
		return NoPending
	}
	return e.events.ev[0].time
}

// Register adds a long-lived handler and returns its Handle for AtHandle /
// AfterHandle scheduling. Handlers are never freed; register once per
// continuation, not per event.
func (e *Engine) Register(fn func()) Handle {
	e.handlers = append(e.handlers, fn)
	return Handle(len(e.handlers) - 1)
}

// RegisterArg adds a long-lived argument-taking handler for
// AfterArgHandle scheduling.
func (e *Engine) RegisterArg(fn func(uint64)) ArgHandle {
	e.argHandlers = append(e.argHandlers, fn)
	return ArgHandle(len(e.argHandlers) - 1)
}

// Event kinds: which handler table the event's index points into.
const (
	evHandler    = uint8(iota) // handlers[h]()
	evArgHandler               // argHandlers[h](arg)
	evOneShot                  // oneShot[h](), slot recycled after firing
	evOneShotArg               // oneShotArg[h](arg), slot recycled
)

// AtHandle schedules a registered handler to run at absolute time t.
// Scheduling in the past (before Now) panics: it would silently reorder
// causality.
//
//bfgts:allocfree
func (e *Engine) AtHandle(t int64, h Handle) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.events.push(event{time: t, seq: e.seq, h: int32(h), kind: evHandler})
}

// AfterHandle schedules a registered handler d cycles from now.
//
//bfgts:allocfree
func (e *Engine) AfterHandle(d int64, h Handle) {
	e.AtHandle(e.now+d, h)
}

// AtArgHandle schedules a registered argument-taking handler at absolute
// time t, with arg snapshotted into the event.
//
//bfgts:allocfree
func (e *Engine) AtArgHandle(t int64, h ArgHandle, arg uint64) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.events.push(event{time: t, seq: e.seq, h: int32(h), arg: arg, kind: evArgHandler})
}

// AfterArgHandle schedules a registered argument-taking handler d cycles
// from now.
//
//bfgts:allocfree
func (e *Engine) AfterArgHandle(d int64, h ArgHandle, arg uint64) {
	e.AtArgHandle(e.now+d, h, arg)
}

// At schedules fn to run at absolute time t via a recycled one-shot slot.
// Steady-state cost matches handle scheduling except for one pointer
// store; hot paths should still prefer registered handles.
//
//bfgts:allocfree
func (e *Engine) At(t int64, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	var h int32
	if n := len(e.oneShotFree); n > 0 {
		h = e.oneShotFree[n-1]
		e.oneShotFree = e.oneShotFree[:n-1]
		e.oneShot[h] = fn
	} else {
		e.oneShot = append(e.oneShot, fn)
		h = int32(len(e.oneShot) - 1)
	}
	e.seq++
	e.events.push(event{time: t, seq: e.seq, h: h, kind: evOneShot})
}

// After schedules fn to run d cycles from now. Negative delays panic.
//
//bfgts:allocfree
func (e *Engine) After(d int64, fn func()) {
	e.At(e.now+d, fn)
}

// AfterArg schedules fn(arg) to run d cycles from now, carrying the
// argument in the event so callers can reuse one long-lived closure for
// events that must snapshot a value at schedule time.
//
//bfgts:allocfree
func (e *Engine) AfterArg(d int64, fn func(uint64), arg uint64) {
	t := e.now + d
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	var h int32
	if n := len(e.oneShotArgFree); n > 0 {
		h = e.oneShotArgFree[n-1]
		e.oneShotArgFree = e.oneShotArgFree[:n-1]
		e.oneShotArg[h] = fn
	} else {
		e.oneShotArg = append(e.oneShotArg, fn)
		h = int32(len(e.oneShotArg) - 1)
	}
	e.seq++
	e.events.push(event{time: t, seq: e.seq, h: h, arg: arg, kind: evOneShotArg})
}

// Step fires the next event, if any, advancing time to it. It reports
// whether an event was fired.
//
//bfgts:allocfree
func (e *Engine) Step() bool {
	if len(e.events.ev) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.time
	switch ev.kind {
	case evHandler:
		e.handlers[ev.h]()
	case evArgHandler:
		e.argHandlers[ev.h](ev.arg)
	case evOneShot:
		fn := e.oneShot[ev.h]
		e.oneShot[ev.h] = nil // don't pin the closure past its dispatch
		e.oneShotFree = append(e.oneShotFree, ev.h)
		fn()
	default: // evOneShotArg
		fn := e.oneShotArg[ev.h]
		e.oneShotArg[ev.h] = nil
		e.oneShotArgFree = append(e.oneShotArgFree, ev.h)
		fn(ev.arg)
	}
	return true
}

// Run fires events until none remain or until the supplied predicate (if
// non-nil) reports the simulation should stop. The predicate is evaluated
// after each event.
func (e *Engine) Run(done func() bool) {
	for e.Step() {
		if done != nil && done() {
			return
		}
	}
}

// event is a pending occurrence. It holds no pointers — the handler is an
// index into one of the engine's tables — so the heap's backing array is
// never scanned by the GC and sift swaps compile to barrier-free copies.
type event struct {
	time int64
	seq  uint64
	arg  uint64
	h    int32
	kind uint8
}

// eventHeap is a binary min-heap of events stored by value, ordered by
// (time, seq). Storing values instead of *event pointers means push/pop
// never touch the allocator once the backing array has grown to the
// simulation's churn depth: pop truncates the slice in place and push
// reuses the freed capacity. The (time, seq) order is total (seq is
// unique), so the pop sequence is identical to the previous
// container/heap-based implementation regardless of internal layout.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push inserts an event and sifts it up.
//
//bfgts:allocfree
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
//
//bfgts:allocfree
func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	h.ev[0] = h.ev[n]
	h.ev = h.ev[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h.ev[i], h.ev[least] = h.ev[least], h.ev[i]
		i = least
	}
	return top
}
