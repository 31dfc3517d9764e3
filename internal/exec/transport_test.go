package exec_test

import (
	"errors"
	"testing"
	"time"

	"autopart/internal/apps/circuit"
	"autopart/internal/apps/miniaero"
	"autopart/internal/apps/pennant"
	"autopart/internal/apps/spmv"
	"autopart/internal/apps/stencil"
	"autopart/internal/exec"
)

// smallAppCases shrinks every builtin far below its default size so the
// wide differential matrix (up to 64 nodes, chaos latency, -race) stays
// affordable: the point here is protocol coverage across node counts
// and transports, not workload realism — the default-size matrix in
// exec_test.go keeps covering that.
func smallAppCases(t testing.TB) []appCase {
	t.Helper()
	return []appCase{
		{"stencil", func(n int) (*exec.Program, error) {
			return stencil.Executable(stencil.Config{Width: 128, RowsPerNode: 4}, compiled(t, "stencil", stencil.Source()), n)
		}},
		{"circuit", func(n int) (*exec.Program, error) {
			cfg := circuit.Config{WiresPerCluster: 200, NodesPerCluster: 100, SharedFraction: 0.02, CrossFraction: 0.20}
			return circuit.Executable(cfg, compiled(t, "circuit", circuit.Source), n, false)
		}},
		{"circuit-hint", func(n int) (*exec.Program, error) {
			cfg := circuit.Config{WiresPerCluster: 200, NodesPerCluster: 100, SharedFraction: 0.02, CrossFraction: 0.20}
			return circuit.Executable(cfg, compiled(t, "circuit-hint", circuit.HintSource), n, true)
		}},
		{"spmv", func(n int) (*exec.Program, error) {
			return spmv.Executable(spmv.Config{RowsPerNode: 128, NnzPerRow: 8}, compiled(t, "spmv", spmv.Source), n)
		}},
		{"miniaero", func(n int) (*exec.Program, error) {
			return miniaero.Executable(miniaero.Config{DX: 4, DY: 4, DZ: 4}, compiled(t, "miniaero", miniaero.Source()), n)
		}},
		{"pennant-h2", func(n int) (*exec.Program, error) {
			return pennant.Executable(pennant.Config{W: 16, ZonesPerPiece: 128, Jitter: 16}, compiled(t, "pennant-h2", pennant.HintSource(2)), n, 2)
		}},
	}
}

// checkBitIdentical runs the program distributed under the transport
// and diffs every region against the sequential reference.
func checkBitIdentical(t *testing.T, prog *exec.Program, nodes, steps int, tr exec.TransportFactory) {
	t.Helper()
	want, err := exec.RunSequentialReference(prog, steps)
	if err != nil {
		t.Fatalf("sequential reference: %v", err)
	}
	res, err := exec.Run(prog, exec.Config{Nodes: nodes, Steps: steps, Transport: tr})
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	for name, wr := range want.Regions {
		same, diff := wr.SameData(res.Machine.Regions[name])
		if !same {
			t.Errorf("region %s diverges from sequential: %s", name, diff)
		}
	}
}

// TestDistributedMatchesSequentialFlaky widens the differential matrix
// to node counts the default-size matrix cannot afford ({5, 7, 64}) and
// runs every case over the latency-injecting transport: seeded random
// per-message delays reorder deliveries across and within sender pairs,
// so bit-identity here demonstrates the dependency tracking is
// schedule-independent — no hidden reliance on arrival order survives
// this matrix under -race.
func TestDistributedMatchesSequentialFlaky(t *testing.T) {
	const steps = 2
	for _, app := range smallAppCases(t) {
		for _, nodes := range []int{5, 7, 64} {
			app, nodes := app, nodes
			t.Run(app.name+"/nodes="+itoa(nodes), func(t *testing.T) {
				prog, err := app.build(nodes)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				// Seed varies per case so the matrix explores different
				// delivery schedules; 200µs of jitter is enough to scramble
				// ordering without stretching the test's wall clock.
				seed := int64(nodes*1000 + len(app.name))
				checkBitIdentical(t, prog, nodes, steps, exec.FlakyTransport(seed, 200*time.Microsecond))
			})
		}
	}
}

// TestDistributedMatchesSequentialTCP runs the matrix over real
// loopback sockets: frames encode through wire.go, streams attribute
// senders via hello preambles, and end-of-stream propagates as peer
// EOFs. Node counts stay small because the transport dials a quadratic
// number of connections.
func TestDistributedMatchesSequentialTCP(t *testing.T) {
	const steps = 2
	for _, app := range smallAppCases(t) {
		for _, nodes := range []int{2, 3} {
			app, nodes := app, nodes
			t.Run(app.name+"/nodes="+itoa(nodes), func(t *testing.T) {
				prog, err := app.build(nodes)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				checkBitIdentical(t, prog, nodes, steps, exec.TCPTransport())
			})
		}
	}
}

// TestTransportByName pins the driver-facing names.
func TestTransportByName(t *testing.T) {
	for _, name := range []string{"", "inproc", "tcp", "flaky"} {
		if _, err := exec.TransportByName(name); err != nil {
			t.Errorf("transport %q: %v", name, err)
		}
	}
	if _, err := exec.TransportByName("carrier-pigeon"); err == nil {
		t.Error("unknown transport name was accepted")
	}
}

// TestOverlapMeasured pins the tentpole's payoff: on a multi-launch app
// at several nodes, some launch must report a nonzero overlap window —
// compute that ran while write-back communication was still in flight.
// PENNANT is the reliable witness: its point-force reductions send
// merge messages whose folds defer past the next launches' compute.
// (MiniAero's guarded reduction targets are owner-aligned at these
// configurations, so it generates no write-backs to defer.)
func TestOverlapMeasured(t *testing.T) {
	prog, err := pennant.Executable(pennant.Config{W: 16, ZonesPerPiece: 128, Jitter: 16}, compiled(t, "pennant-h2", pennant.HintSource(2)), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(prog, exec.Config{Nodes: 8, Steps: 2,
		Transport: exec.FlakyTransport(11, 500*time.Microsecond)})
	if err != nil {
		t.Fatal(err)
	}
	var overlap, compute int64
	for _, sc := range res.Steps {
		for _, lc := range sc.Launches {
			for _, nt := range lc.Times {
				overlap += nt.OverlapNS
				compute += nt.ComputeNS
			}
		}
	}
	if compute <= 0 {
		t.Fatal("no compute time measured")
	}
	if overlap <= 0 {
		t.Error("no compute-communication overlap measured on a multi-launch app")
	}
}

// failingTransport is the in-process transport with a deferred failure:
// its Err always reports errTransport, and Close records that it ran.
type failingTransport struct {
	exec.Transport
	closed *bool
}

var errTransport = errors.New("injected transport failure")

func (t failingTransport) Err() error { return errTransport }

func (t failingTransport) Close() error {
	*t.closed = true
	return nil
}

// TestRunClosesTransportOnFailure pins that Run releases the transport
// even when the run fails, here through the transport's own Err.
func TestRunClosesTransportOnFailure(t *testing.T) {
	app := smallAppCases(t)[0]
	prog, err := app.build(2)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var closed bool
	factory := func(nodes int) (exec.Transport, error) {
		inner, err := exec.InprocTransport()(nodes)
		return failingTransport{Transport: inner, closed: &closed}, err
	}
	_, err = exec.Run(prog, exec.Config{Nodes: 2, Steps: 1, Transport: factory})
	if !errors.Is(err, errTransport) {
		t.Fatalf("Run error = %v, want %v", err, errTransport)
	}
	if !closed {
		t.Error("Run returned without closing the transport")
	}
}
