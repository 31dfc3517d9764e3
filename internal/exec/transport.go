package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Transport moves messages between the executor's nodes. The contract
// every implementation must honor:
//
//   - Send never blocks indefinitely: the transport buffers unboundedly
//     between sender and receiver, which is what lets a node enqueue all
//     of a launch's outgoing messages before blocking on any receive
//     (the deadlock-freedom argument in package exec's doc comment).
//   - Inbox(j) is node j's single merged delivery stream; messages from
//     different senders interleave arbitrarily, and no per-pair order is
//     promised either. The dependency scheduler matches deliveries by
//     tag, never by position, so any interleaving yields the same
//     result — the flaky transport exists to prove that.
//   - Each delivered message carries its sender in msg.from.
//   - CloseSend(j) declares node j will send no more; once every node
//     has closed, each inbox drains and then closes.
//
// Implementations may also expose Err() error, which Run checks after
// the nodes exit (the tcp transport reports socket failures this way),
// and io.Closer, which Run calls on every return path.
type Transport interface {
	Send(from, to int, msg message)
	Inbox(to int) <-chan message
	CloseSend(from int)
}

// TransportFactory builds a transport for a node count. Config carries
// one so drivers can pick a transport without exec re-exporting the
// implementations' knobs.
type TransportFactory func(nodes int) (Transport, error)

// errReporter is the optional deferred-error surface of a transport.
type errReporter interface {
	Err() error
}

// TransportByName maps the driver-facing names {inproc, tcp, flaky} to
// factories with default knobs (flaky seeds from 1 with 2ms max delay).
func TransportByName(name string) (TransportFactory, error) {
	switch name {
	case "", "inproc":
		return InprocTransport(), nil
	case "tcp":
		return TCPTransport(), nil
	case "flaky":
		return FlakyTransport(1, 2*time.Millisecond), nil
	default:
		return nil, fmt.Errorf("exec: unknown transport %q (have inproc, tcp, flaky)", name)
	}
}

// inboxQueue is one receiver's unbounded elastic mailbox feed: Send
// appends under a lock (never blocking), a single forwarder goroutine
// drains into the delivery channel, and the channel closes once every
// sender has called CloseSend and the queue is empty.
type inboxQueue struct {
	mu      sync.Mutex
	q       []message
	wake    chan struct{} // 1-buffered doorbell
	senders int
	out     chan message
}

func newInboxQueue(senders int) *inboxQueue {
	iq := &inboxQueue{
		wake:    make(chan struct{}, 1),
		senders: senders,
		out:     make(chan message),
	}
	go iq.forward()
	return iq
}

func (iq *inboxQueue) push(m message) {
	iq.mu.Lock()
	iq.q = append(iq.q, m)
	iq.mu.Unlock()
	iq.ring()
}

// senderEOF marks one sender's end of stream: an eofMsg sentinel is
// enqueued behind the sender's earlier messages (so a receiver never
// sees the death notice before the data), then the live-sender count
// drops; the inbox closes once it reaches zero and the queue drains.
// from may be -1 when the dead sender's identity is unknown (a TCP
// stream that failed before its hello frame).
func (iq *inboxQueue) senderEOF(from int) {
	iq.mu.Lock()
	iq.q = append(iq.q, message{kind: eofMsg, from: from})
	iq.senders--
	iq.mu.Unlock()
	iq.ring()
}

func (iq *inboxQueue) ring() {
	select {
	case iq.wake <- struct{}{}:
	default:
	}
}

func (iq *inboxQueue) forward() {
	for {
		iq.mu.Lock()
		q, senders := iq.q, iq.senders
		iq.q = nil
		iq.mu.Unlock()
		for _, m := range q {
			iq.out <- m
		}
		if len(q) == 0 && senders <= 0 {
			close(iq.out)
			return
		}
		if len(q) == 0 {
			<-iq.wake
		}
	}
}

// inprocTransport is the in-process default: per-receiver elastic
// queues, no copies beyond the message structs themselves.
type inprocTransport struct {
	inboxes []*inboxQueue
}

// InprocTransport returns the factory for the in-process transport.
func InprocTransport() TransportFactory {
	return func(nodes int) (Transport, error) {
		t := &inprocTransport{inboxes: make([]*inboxQueue, nodes)}
		for j := 0; j < nodes; j++ {
			t.inboxes[j] = newInboxQueue(nodes - 1)
		}
		return t, nil
	}
}

func (t *inprocTransport) Send(from, to int, msg message) {
	msg.from = from
	t.inboxes[to].push(msg)
}

func (t *inprocTransport) Inbox(to int) <-chan message { return t.inboxes[to].out }

func (t *inprocTransport) CloseSend(from int) {
	for to, iq := range t.inboxes {
		if to == from {
			continue
		}
		iq.senderEOF(from)
	}
}

// flakyTransport wraps another transport and injects seeded random
// per-message latency, which reorders deliveries across — and within —
// sender pairs. Delivery stays reliable (the coherence protocol has no
// retransmission; a lost message is a protocol error by design), so
// what the chaos proves is that the dependency tracking is
// schedule-independent: any arrival order produces bit-identical data.
type flakyTransport struct {
	inner    Transport
	mu       sync.Mutex
	rng      *rand.Rand
	maxDelay time.Duration
	pending  [](*sync.WaitGroup)
}

// FlakyTransport returns a factory injecting up to maxDelay of seeded
// random latency per message on top of the in-process transport.
func FlakyTransport(seed int64, maxDelay time.Duration) TransportFactory {
	return func(nodes int) (Transport, error) {
		inner, err := InprocTransport()(nodes)
		if err != nil {
			return nil, err
		}
		t := &flakyTransport{
			inner:    inner,
			rng:      rand.New(rand.NewSource(seed)),
			maxDelay: maxDelay,
			pending:  make([]*sync.WaitGroup, nodes),
		}
		for j := range t.pending {
			t.pending[j] = &sync.WaitGroup{}
		}
		return t, nil
	}
}

func (t *flakyTransport) Send(from, to int, msg message) {
	t.mu.Lock()
	delay := time.Duration(t.rng.Int63n(int64(t.maxDelay) + 1))
	t.mu.Unlock()
	wg := t.pending[from]
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(delay)
		t.inner.Send(from, to, msg)
	}()
}

func (t *flakyTransport) Inbox(to int) <-chan message { return t.inner.Inbox(to) }

// CloseSend waits for the sender's in-flight delayed messages so the
// inner inbox never closes ahead of a delivery.
func (t *flakyTransport) CloseSend(from int) {
	t.pending[from].Wait()
	t.inner.CloseSend(from)
}
