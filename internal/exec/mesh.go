package exec

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Mesh is the cross-process data plane: the transport one worker
// process uses for its single node of a multi-process run (the tcp
// transport builds n of them in one process). A Mesh holds exactly one
// node's slice of the full-mesh topology — n-1 inbound streams accepted
// on the worker's data listener and n-1 outbound streams dialed to the
// peer addresses the coordinator's topology frame announced. Streams
// reuse wire.go's data frames behind a preamble of one protocol version
// byte plus the hello frame naming the sender, so a peer from a
// different build is refused at stream setup rather than misparsed
// mid-run.
//
// Send keeps the executor's never-blocks contract via an elastic pipe
// per outbound stream and a writer that flushes before blocking.
// Failures latch into Err; Abort hard-closes every stream so a node
// blocked in a mailbox take fails fast instead of waiting out a dead
// peer.
type Mesh struct {
	self  int
	nodes int
	inbox *inboxQueue
	// sends[to] feeds the pair's writer goroutine (nil for self).
	sends []chan message
	hook  func(to, step, launch int)

	mu      sync.Mutex
	err     error
	ln      net.Listener
	conns   []net.Conn
	aborted bool
	wg      sync.WaitGroup // writer + reader + accept goroutines
}

// MeshConfig configures one node's slice of the mesh.
type MeshConfig struct {
	// Self is this process's node id (color).
	Self int
	// Nodes is the run's node count.
	Nodes int
	// Listener accepts the n-1 inbound peer streams; the Mesh takes
	// ownership and closes it.
	Listener net.Listener
	// Peers holds every node's data address, indexed by node id
	// (Peers[Self] is ignored).
	Peers []string
	// DialBudget bounds each outbound dial including retries (default
	// 10s). Peers build their meshes concurrently, so early dials may
	// find nobody listening yet; retry with backoff covers the window.
	DialBudget time.Duration
	// SendHook, when non-nil, observes every outgoing message (its
	// destination, step, and launch) before it is enqueued. The failure
	// drills use it to kill a worker mid-launch at a deterministic
	// protocol point.
	SendHook func(to, step, launch int)
}

// NewMesh builds one node's mesh: it starts accepting inbound peer
// streams and dials every peer. It returns once all n-1 outbound
// streams are established (inbound streams finish handshaking in the
// background; a peer that never arrives surfaces as that sender's EOF).
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	if cfg.Self < 0 || cfg.Self >= cfg.Nodes {
		return nil, fmt.Errorf("exec: mesh: node id %d out of range [0, %d)", cfg.Self, cfg.Nodes)
	}
	if len(cfg.Peers) != cfg.Nodes {
		return nil, fmt.Errorf("exec: mesh: %d peer addresses for %d nodes", len(cfg.Peers), cfg.Nodes)
	}
	if cfg.Listener == nil {
		return nil, fmt.Errorf("exec: mesh: nil listener")
	}
	budget := cfg.DialBudget
	if budget <= 0 {
		budget = 10 * time.Second
	}
	m := &Mesh{
		self:  cfg.Self,
		nodes: cfg.Nodes,
		inbox: newInboxQueue(cfg.Nodes - 1),
		sends: make([]chan message, cfg.Nodes),
		hook:  cfg.SendHook,
		ln:    cfg.Listener,
	}

	// Accept n-1 inbound streams; each starts a reader that demuxes
	// frames into the inbox (the preamble identifies the sender, so
	// accept order is irrelevant).
	for i := 0; i < cfg.Nodes-1; i++ {
		m.wg.Add(1)
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for i := 0; i < cfg.Nodes-1; i++ {
			conn, err := cfg.Listener.Accept()
			if err != nil {
				m.fail(fmt.Errorf("exec: mesh: accept at node %d: %w", cfg.Self, err))
				for ; i < cfg.Nodes-1; i++ {
					m.inbox.senderEOF(-1)
					m.wg.Done()
				}
				return
			}
			m.track(conn)
			go m.readLoop(conn)
		}
		cfg.Listener.Close()
	}()

	// Dial every peer and start its elastic writer.
	for to := 0; to < cfg.Nodes; to++ {
		if to == cfg.Self {
			continue
		}
		conn, err := dialRetry(cfg.Peers[to], budget)
		if err != nil {
			m.Abort()
			return nil, fmt.Errorf("exec: mesh: dial node %d (%s): %w", to, cfg.Peers[to], err)
		}
		m.track(conn)
		in := make(chan message)
		out := make(chan message)
		go pipe(in, out)
		m.sends[to] = in
		m.wg.Add(1)
		go m.writeLoop(conn, out)
	}
	return m, nil
}

// dialRetry dials addr until it succeeds or the budget is spent,
// backing off between attempts (peers bootstrap concurrently, so the
// first attempts may race a listener that is not up yet).
func dialRetry(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	backoff := 10 * time.Millisecond
	for {
		attempt := time.Until(deadline)
		if attempt <= 0 {
			return nil, fmt.Errorf("dial budget of %v exhausted", budget)
		}
		if attempt > time.Second {
			attempt = time.Second
		}
		conn, err := net.DialTimeout("tcp", addr, attempt)
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

func (m *Mesh) track(conn net.Conn) {
	m.mu.Lock()
	if m.aborted {
		m.mu.Unlock()
		conn.Close()
		return
	}
	m.conns = append(m.conns, conn)
	m.mu.Unlock()
}

func (m *Mesh) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
}

// Err reports the first stream or decode failure, if any. An abort
// surfaces as such a failure on every stream it tore down.
func (m *Mesh) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Abort hard-closes the listener and every stream. Readers fail and
// mark their senders dead, so a node blocked in a mailbox take errors
// out promptly; writers drain to /dev/null. Safe to call from any
// goroutine, more than once.
func (m *Mesh) Abort() {
	m.mu.Lock()
	if m.aborted {
		m.mu.Unlock()
		return
	}
	m.aborted = true
	if m.err == nil {
		m.err = fmt.Errorf("exec: mesh: node %d aborted", m.self)
	}
	ln, cs := m.ln, m.conns
	m.conns = nil
	m.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range cs {
		c.Close()
	}
}

// Close waits for the stream goroutines and releases every socket. Call
// after RunNode returns; Abort first if the run is being torn down.
func (m *Mesh) Close() error {
	m.wg.Wait()
	m.mu.Lock()
	ln, cs := m.ln, m.conns
	m.ln, m.conns = nil, nil
	m.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range cs {
		c.Close()
	}
	return nil
}

// writeLoop drains one outbound pipe onto its socket behind the version
// byte + hello preamble, flushing before blocking (the peer this stream
// serves may be the very node our sender blocks on). On completion it
// half-closes so the peer's reader sees a clean end of stream.
func (m *Mesh) writeLoop(conn net.Conn, out <-chan message) {
	defer m.wg.Done()
	w := bufio.NewWriter(conn)
	var err error
	if wErr := w.WriteByte(WireProtoVersion); wErr != nil {
		err = wErr
	}
	if err == nil {
		hello := message{kind: helloMsg, from: m.self}
		err = writeFrame(w, &hello)
	}
	for {
		var msg message
		var ok bool
		select {
		case msg, ok = <-out:
		default:
			if err == nil {
				err = w.Flush()
			}
			msg, ok = <-out
		}
		if !ok {
			break
		}
		if err != nil {
			continue // drain on error so pipe() can exit
		}
		err = writeFrame(w, &msg)
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		m.fail(fmt.Errorf("exec: mesh: send from node %d: %w", m.self, err))
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	} else {
		conn.Close()
	}
}

// readLoop verifies one inbound stream's preamble, then decodes frames
// into the inbox until EOF. A stream that dies before its hello frame
// reports an anonymous EOF (from = -1).
func (m *Mesh) readLoop(conn net.Conn) {
	defer m.wg.Done()
	from := -1
	defer func() { m.inbox.senderEOF(from) }()
	r := bufio.NewReader(conn)
	v, err := r.ReadByte()
	if err != nil {
		m.fail(fmt.Errorf("exec: mesh: node %d: stream preamble: %w", m.self, err))
		return
	}
	if v != WireProtoVersion {
		m.fail(fmt.Errorf("%w: node %d: peer stream speaks version %d, this build speaks %d",
			ErrWireVersion, m.self, v, WireProtoVersion))
		return
	}
	hello, err := readFrame(r)
	if err != nil || hello.kind != helloMsg {
		m.fail(fmt.Errorf("exec: mesh: node %d: bad stream preamble (err=%v, kind=%v)", m.self, err, hello.kind))
		return
	}
	from = hello.from
	for {
		msg, err := readFrame(r)
		if err != nil {
			if err != io.EOF {
				m.fail(fmt.Errorf("exec: mesh: recv at node %d from %d: %w", m.self, from, err))
			}
			return
		}
		m.inbox.push(msg)
	}
}

// Send implements Transport for the mesh's own node.
func (m *Mesh) Send(from, to int, msg message) {
	if m.hook != nil {
		m.hook(to, msg.step, msg.launch)
	}
	msg.from = from
	m.sends[to] <- msg
}

// Inbox implements Transport; only the mesh's own node has one.
func (m *Mesh) Inbox(to int) <-chan message {
	if to != m.self {
		panic(fmt.Sprintf("exec: mesh: node %d asked for node %d's inbox", m.self, to))
	}
	return m.inbox.out
}

// CloseSend closes the outbound pipes; writers drain, flush, and
// half-close their sockets.
func (m *Mesh) CloseSend(from int) {
	for to, ch := range m.sends {
		if ch != nil {
			close(ch)
			m.sends[to] = nil
		}
	}
}
