package server

import (
	"sync"

	"repro/pkg/engine"
)

// streamEvent is one broadcast unit of a running flight: an iteration
// summary with its position in the flight's event history. Seq is
// contiguous from 0, which lets a subscriber that reattaches (or joins
// late) detect exactly which prefix it already has.
type streamEvent struct {
	Seq       int
	Iteration engine.WireIteration
}

// hub fans a flight's iteration events out to any number of streaming
// subscribers. Late joiners get the full history so far; a subscriber
// that stops draining its buffer is detached (its channel closed)
// rather than allowed to block the generation goroutine — the reader
// then backfills from the history, so slowness costs buffering, never
// correctness and never generation latency.
type hub struct {
	mu      sync.Mutex
	history []streamEvent
	subs    map[chan streamEvent]struct{}
	closed  bool
}

func newHub() *hub { return &hub{subs: make(map[chan streamEvent]struct{})} }

// publish appends the iteration to the history and offers it to every
// subscriber without blocking. It runs synchronously inside a generation
// pass (it is the engine Observer), so everything here is O(subs).
func (h *hub) publish(it engine.WireIteration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	ev := streamEvent{Seq: len(h.history), Iteration: it}
	h.history = append(h.history, ev)
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
			close(ch)
			delete(h.subs, ch)
		}
	}
}

// subscribe returns a copy of the history so far plus a live channel
// with the given buffer. On a closed hub the channel is nil and the
// history is complete.
func (h *hub) subscribe(buf int) ([]streamEvent, chan streamEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hist := append([]streamEvent(nil), h.history...)
	if h.closed {
		return hist, nil
	}
	ch := make(chan streamEvent, buf)
	h.subs[ch] = struct{}{}
	return hist, ch
}

// snapshot returns the events recorded after seq lastSeq — the backfill
// for a subscriber whose live channel closed (hub shutdown or lag).
func (h *hub) snapshot(afterSeq int) []streamEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	if afterSeq+1 >= len(h.history) {
		return nil
	}
	return append([]streamEvent(nil), h.history[afterSeq+1:]...)
}

// unsubscribe detaches a live subscriber; safe to call after the hub
// closed the channel itself.
func (h *hub) unsubscribe(ch chan streamEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
}

func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}

// flight is one in-progress generation, shared by every request that
// resolved to the same canonical key. The flight's goroutine runs under
// the server's lifetime context, not any request's: waiters that hit
// their deadline detach and answer 504 while the generation runs to
// completion and lands in the cache — canceling it would throw away
// work every other waiter (and the next requester) still wants.
type flight struct {
	key string
	hub *hub
	// done closes after entry/err/status are set and the hub is closed.
	done   chan struct{}
	entry  *entry
	err    error
	status int
}

// group is the single-flight table: at most one flight per key at any
// moment.
type group struct {
	mu      sync.Mutex
	flights map[string]*flight
}

func newGroup() *group { return &group{flights: make(map[string]*flight)} }

// join returns the key's flight, creating it when none is running.
// leader is true for the caller that must actually run the generation.
func (g *group) join(key string) (fl *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl, ok := g.flights[key]; ok {
		return fl, false
	}
	fl = &flight{key: key, hub: newHub(), done: make(chan struct{})}
	g.flights[key] = fl
	return fl, true
}

// finish resolves the flight, removes it from the table (so the next
// miss starts fresh) and releases every waiter. Exactly one of e and
// err is meaningful; status is the HTTP status to answer with on err.
func (g *group) finish(fl *flight, e *entry, err error, status int) {
	g.mu.Lock()
	delete(g.flights, fl.key)
	g.mu.Unlock()
	fl.entry, fl.err, fl.status = e, err, status
	fl.hub.close()
	close(fl.done)
}
