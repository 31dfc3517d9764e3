package exec

import (
	"errors"
	"fmt"
	"net"
)

// meshTransport runs every node's Mesh inside one process, so the
// in-process differential matrix exercises the very data plane a
// multi-process run uses: loopback streams, version + hello preambles,
// elastic writers. Node i sends through meshes[i] and receives from
// meshes[i]'s inbox.
type meshTransport []*Mesh

// TCPTransport returns the factory for the loopback TCP transport: one
// listener and one Mesh per node. Note the connection count is
// quadratic in nodes: fine for the correctness matrix and modest runs,
// not for 256-node sweeps (use inproc there; the wire cost model is
// identical).
func TCPTransport() TransportFactory {
	return func(nodes int) (Transport, error) {
		lns := make([]net.Listener, nodes)
		peers := make([]string, nodes)
		for j := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeListeners(lns)
				return nil, fmt.Errorf("exec: tcp: listen: %w", err)
			}
			lns[j], peers[j] = ln, ln.Addr().String()
		}
		// Every listener is up before the first Mesh dials, so each
		// dial completes against the peer's accept backlog even though
		// the peer's Mesh does not exist yet.
		t := make(meshTransport, 0, nodes)
		for j, ln := range lns {
			m, err := NewMesh(MeshConfig{Self: j, Nodes: nodes, Listener: ln, Peers: peers})
			if err != nil {
				closeListeners(lns[j:])
				for i, m := range t {
					m.Abort()
					m.CloseSend(i)
					m.Close()
				}
				return nil, fmt.Errorf("exec: tcp: %w", err)
			}
			t = append(t, m)
		}
		return t, nil
	}
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

func (t meshTransport) Send(from, to int, msg message) { t[from].Send(from, to, msg) }

func (t meshTransport) Inbox(to int) <-chan message { return t[to].Inbox(to) }

func (t meshTransport) CloseSend(from int) { t[from].CloseSend(from) }

// Err joins the nodes' stream and decode failures, if any.
func (t meshTransport) Err() error {
	errs := make([]error, len(t))
	for i, m := range t {
		errs[i] = m.Err()
	}
	return errors.Join(errs...)
}

// Close waits for every Mesh's stream goroutines and releases its
// sockets. Run calls it after every node has called CloseSend.
func (t meshTransport) Close() error {
	for _, m := range t {
		m.Close()
	}
	return nil
}
