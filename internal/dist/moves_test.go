package dist

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// rewriteTransport hands rank 1 a rewritten copy of the first non-empty
// move list it receives from rank 0, and passes every other frame
// through unchanged.
type rewriteTransport struct {
	Transport
	rewrite func([]int32) []int32
	done    bool
}

func (t *rewriteTransport) Recv(from int) ([]byte, error) {
	frame, err := t.Transport.Recv(from)
	if err != nil || t.done || from != 0 {
		return frame, err
	}
	if xs, derr := decodeInt32s(frame); derr == nil && len(xs) > 0 {
		t.done = true
		return encodeInt32s(t.rewrite(xs)), nil
	}
	return frame, nil
}

// TestRankRejectsBadMoveLists corrupts the first non-empty move list
// rank 1 receives from rank 0. A list a rank must not apply (a block
// outside [0, C), an odd length, a vertex rank 0 does not move or one
// it lists twice) makes
// rank 1 vote NaN, and a well-formed wrong move makes the replicas
// disagree; either way every rank stops with an error, without a panic
// or a hang.
func TestRankRejectsBadMoveLists(t *testing.T) {
	cases := []struct {
		name string
		// rewrite gets the list, a vertex rank 0 never moves, and C.
		rewrite func(xs []int32, foreign, c int32) []int32
		want    string
	}{
		{"block out of range", func(xs []int32, _, _ int32) []int32 { xs[1] = 1000; return xs }, "block 1000 outside"},
		{"odd length", func(xs []int32, _, _ int32) []int32 { return xs[:len(xs)-1] }, "odd length"},
		{"foreign vertex", func(xs []int32, v, _ int32) []int32 { xs[0] = v; return xs }, "which it does not move"},
		{"repeated vertex", func(xs []int32, _, _ int32) []int32 { return append(xs, xs[0], xs[1]) }, "twice"},
		{"wrong block", func(xs []int32, _, c int32) []int32 { xs[1] = (xs[1] + 1) % c; return xs }, "replica diverged"},
	}
	for _, mode := range []Mode{ModeAsync, ModeHybrid} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", mode, c.name), func(t *testing.T) {
				bm, _ := distModel(t, 5)
				cfg := testCfg(2)
				// Rank 1's first async vertex is moved by rank 1 alone,
				// in either exchange.
				_, async, _ := rankLists(bm, mode, cfg.HybridFraction, 1, PartitionRanges(bm.G, 2)[1])
				rt := &rewriteTransport{rewrite: func(xs []int32) []int32 { return c.rewrite(xs, async[0], int32(bm.C)) }}
				cfg.WrapTransport = func(inner Transport) Transport {
					if inner.Rank() != 1 {
						return inner
					}
					rt.Transport = inner
					return rt
				}
				errc := make(chan error, 1)
				go func() {
					defer func() {
						if p := recover(); p != nil {
							errc <- fmt.Errorf("panic: %v", p)
						}
					}()
					_, err := RunMCMCPhase(bm, mode, cfg)
					errc <- err
				}()
				select {
				case err := <-errc:
					if !rt.done {
						t.Fatal("rank 0 sent no moves; nothing was rewritten")
					}
					if err == nil || strings.HasPrefix(err.Error(), "panic: ") || !strings.Contains(err.Error(), c.want) {
						t.Fatalf("error %v, want one containing %q", err, c.want)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("the cluster hung after the rewrite")
				}
			})
		}
	}
}
