package dist

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierSynchronises(t *testing.T) {
	const ranks = 5
	c := NewCluster(ranks)
	var before, after atomic.Int32
	c.Run(func(comm *Comm) {
		before.Add(1)
		comm.Barrier()
		// Every rank must have incremented before any rank proceeds.
		if got := before.Load(); got != ranks {
			t.Errorf("rank %d passed barrier with only %d arrivals", comm.Rank(), got)
		}
		after.Add(1)
	})
	if after.Load() != ranks {
		t.Fatal("not all ranks finished")
	}
}

func TestAllGatherInt32(t *testing.T) {
	const ranks = 4
	c := NewCluster(ranks)
	c.Run(func(comm *Comm) {
		local := []int32{int32(comm.Rank()), int32(comm.Rank() * 10)}
		all := comm.AllGatherInt32(local)
		if len(all) != ranks {
			t.Errorf("gathered %d slices", len(all))
			return
		}
		for r := 0; r < ranks; r++ {
			if all[r][0] != int32(r) || all[r][1] != int32(r*10) {
				t.Errorf("rank %d sees wrong data from %d: %v", comm.Rank(), r, all[r])
			}
		}
	})
}

func TestAllGatherVariableLengths(t *testing.T) {
	const ranks = 3
	c := NewCluster(ranks)
	c.Run(func(comm *Comm) {
		local := make([]int32, comm.Rank()) // lengths 0, 1, 2
		for i := range local {
			local[i] = int32(comm.Rank())
		}
		all := comm.AllGatherInt32(local)
		for r := 0; r < ranks; r++ {
			if len(all[r]) != r {
				t.Errorf("segment from rank %d has length %d", r, len(all[r]))
			}
		}
	})
}

func TestAllReduce(t *testing.T) {
	const ranks = 6
	c := NewCluster(ranks)
	c.Run(func(comm *Comm) {
		sum := comm.AllReduceFloat64(float64(comm.Rank()+1), func(a, b float64) float64 { return a + b })
		if sum != 21 { // 1+2+...+6
			t.Errorf("rank %d: sum = %v", comm.Rank(), sum)
		}
		max := comm.AllReduceInt64(int64(comm.Rank()), func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
		if max != ranks-1 {
			t.Errorf("rank %d: max = %v", comm.Rank(), max)
		}
	})
}

func TestRepeatedCollectivesStayAligned(t *testing.T) {
	// Back-to-back collectives must not cross-deliver payloads.
	const ranks = 4
	c := NewCluster(ranks)
	c.Run(func(comm *Comm) {
		for round := 0; round < 20; round++ {
			v := comm.AllReduceInt64(int64(round), func(a, b int64) int64 {
				if a > b {
					return a
				}
				return b
			})
			if v != int64(round) {
				t.Errorf("rank %d round %d: got %d", comm.Rank(), round, v)
				return
			}
		}
	})
}

func TestTrafficAccounting(t *testing.T) {
	const ranks = 3
	c := NewCluster(ranks)
	c.Run(func(comm *Comm) {
		comm.AllGatherInt32(make([]int32, 100)) // one frame to each of 2 peers
	})
	frame := int64(len(encodeInt32s(make([]int32, 100))))
	want := int64(ranks*(ranks-1)) * frame
	if got := c.TrafficBytes(); got != want {
		t.Fatalf("traffic = %d, want %d", got, want)
	}
}

func TestCommTracksSentBytesAndTime(t *testing.T) {
	const ranks = 4
	c := NewCluster(ranks)
	var mu sync.Mutex
	perRank := make(map[int]int64)
	c.Run(func(comm *Comm) {
		comm.AllGatherInt32(make([]int32, 50))
		comm.Barrier()
		if comm.CommTime() <= 0 {
			t.Errorf("rank %d: comm time not recorded", comm.Rank())
		}
		mu.Lock()
		perRank[comm.Rank()] = comm.SentBytes()
		mu.Unlock()
	})
	var sum int64
	for _, b := range perRank {
		sum += b
	}
	if sum != c.TrafficBytes() {
		t.Fatalf("per-rank sent bytes sum to %d, cluster counted %d", sum, c.TrafficBytes())
	}
}

// Regression for the cross-rank allreduce divergence bug: the
// pre-transport fold visited peers in a per-rank order, so float sums
// with values of adversarial magnitude could round differently on
// different ranks and split a convergence decision. The fold is now in
// canonical rank order 0..n-1, so every rank must get the bit-identical
// result, equal to the sequential left fold.
func TestAllReduceFloat64CanonicalAcrossRanks(t *testing.T) {
	// Magnitudes chosen so the sum is maximally order-sensitive:
	// pairs that cancel at 1e16 straddle tiny values that vanish
	// unless added after the cancellation.
	vals := []float64{1e16, 3.14159, -1e16, 1e-8, 2.5e15, -2.5e15, -7.25, 1e3}
	ranks := len(vals)
	add := func(a, b float64) float64 { return a + b }

	want := vals[0]
	for _, v := range vals[1:] {
		want = add(want, v)
	}

	got := make([]float64, ranks)
	c := NewCluster(ranks)
	c.Run(func(comm *Comm) {
		got[comm.Rank()] = comm.AllReduceFloat64(vals[comm.Rank()], add)
	})
	for r, g := range got {
		if math.Float64bits(g) != math.Float64bits(want) {
			t.Errorf("rank %d: sum %v (bits %016x), want %v (bits %016x)",
				r, g, math.Float64bits(g), want, math.Float64bits(want))
		}
		if math.Float64bits(g) != math.Float64bits(got[0]) {
			t.Errorf("rank %d disagrees with rank 0: %v vs %v", r, g, got[0])
		}
	}
}

// Regression for the gather aliasing bug: the pre-transport allgather
// shared payload slices by reference, so a sender mutating its buffer
// after the exchange silently corrupted every peer — semantics no
// network transport can honor. Receivers (and the sender's own entry)
// must now hold private copies.
func TestAllGatherCopyOnReceive(t *testing.T) {
	const ranks = 4
	c := NewCluster(ranks)
	c.Run(func(comm *Comm) {
		r := comm.Rank()
		local := []int32{int32(r), int32(r + 100)}
		all := comm.AllGatherInt32(local)
		// Sender reuses (mutates) its buffer immediately after the
		// call returns — legal now that payloads are copied.
		local[0], local[1] = -1, -1
		comm.Barrier() // every rank has mutated before anyone checks
		for peer := 0; peer < ranks; peer++ {
			want0, want1 := int32(peer), int32(peer+100)
			if all[peer][0] != want0 || all[peer][1] != want1 {
				t.Errorf("rank %d: segment from %d corrupted by sender mutation: %v",
					r, peer, all[peer])
			}
		}
	})
}

func TestClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank panic not propagated")
		}
	}()
	c := NewCluster(2)
	c.Run(func(comm *Comm) {
		if comm.Rank() == 1 {
			panic("rank failure")
		}
		// Rank 0 exits normally; Run must still re-raise rank 1's panic.
	})
}

func TestSingleRankCluster(t *testing.T) {
	c := NewCluster(1)
	c.Run(func(comm *Comm) {
		comm.Barrier() // no peers: must not block
		all := comm.AllGatherInt32([]int32{7})
		if len(all) != 1 || all[0][0] != 7 {
			t.Error("single-rank allgather wrong")
		}
	})
}

// TestChanTransportCloseUnblocksRank: Close on any endpoint instance
// of a rank fails that rank's blocked and future transport calls — the
// in-process kill switch the supervisor tests rely on.
func TestChanTransportCloseUnblocksRank(t *testing.T) {
	c := NewCluster(2)
	tr := c.Transport(1)
	recvErr := make(chan error, 1)
	go func() {
		_, err := tr.Recv(0)
		recvErr <- err
	}()
	// A second endpoint instance shares the rank's close state.
	c.Transport(1).Close()
	select {
	case err := <-recvErr:
		if err == nil {
			t.Fatal("Recv on a closed rank returned nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked after Close")
	}
	if err := tr.Send(0, []byte("x")); err == nil {
		t.Error("Send from a closed rank succeeded")
	}
	// Sends TO the closed rank fail once its mailbox stops draining.
	other := c.Transport(0)
	var sendErr error
	for i := 0; i < 32 && sendErr == nil; i++ {
		sendErr = other.Send(1, []byte("y"))
	}
	if sendErr == nil {
		t.Error("sends to a closed rank never failed")
	}
}
