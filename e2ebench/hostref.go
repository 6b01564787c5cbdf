package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: other tenants' load slows
// every workload here by up to ±25% for minutes at a time, all four
// workloads together. A median over a 25 s run cannot average that out,
// so the end-to-end times are reported at a reference host speed: the run
// times a fixed reference kernel (below) between operations, and
// multiplies each measured time by refNominal over the kernel's time.
// The kernel mimics the program's hot loop — block lookups in sorted
// sparse rows for the neighbours of random vertices, on pinnedWorkers
// goroutines — so contention slows it about as much as it slows the
// program. It is frozen: it shares no code with the program, so a change
// to the program cannot move it. It runs in a child process of its own,
// so its data changes neither the program's heap and GC pacing nor the
// peak RSS the benchmark reports.
//
// Each time is scaled by the kernel slices taken just before and just
// after it. On a 2-vCPU shared x86 VM, over 25 windows of 20 A-SBP
// searches (about 20 s each), the windows' median search time had a
// quartile spread of 25% of its median as measured, and 8% scaled.

// refNominal is the kernel time that defines the reference host speed:
// about what the kernel takes on an uncontended 2-vCPU x86 VM.
const refNominal = 35 * time.Millisecond

// refEnv, set in a child's environment, makes the process serve
// reference slices instead of running a workload.
const refEnv = "E2EBENCH_REFKERNEL"

const (
	refVertices = 1 << 16
	refDegree   = 16
	refBlocks   = 512
	refRowNZ    = 96
	refSteps    = 40_000 // vertices visited per goroutine per slice
)

// refKernel is the reference kernel's fixed data: a random graph, a block
// label per vertex and a sorted sparse row of counts per block, built from
// a constant seed, so every run and every commit times the same work.
type refKernel struct {
	adj, label []int32
	rows, cnts [][]int32
}

func newRefKernel() *refKernel {
	x := xorshift(0x5EED_F00D)
	k := &refKernel{
		adj:   make([]int32, refVertices*refDegree),
		label: make([]int32, refVertices),
		rows:  make([][]int32, refBlocks),
		cnts:  make([][]int32, refBlocks),
	}
	for i := range k.adj {
		k.adj[i] = int32(x.next() % refVertices)
	}
	for i := range k.label {
		k.label[i] = int32(x.next() % refBlocks)
	}
	for r := range k.rows {
		seen := map[int32]bool{}
		for len(seen) < refRowNZ {
			seen[int32(x.next()%refBlocks)] = true
		}
		for b := range seen {
			k.rows[r] = append(k.rows[r], b)
		}
		sort.Slice(k.rows[r], func(i, j int) bool { return k.rows[r][i] < k.rows[r][j] })
		k.cnts[r] = make([]int32, refRowNZ)
		for i := range k.cnts[r] {
			k.cnts[r][i] = int32(1 + x.next()%50)
		}
	}
	return k
}

type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// walk visits refSteps random vertices and, for each neighbour, looks its
// block up in the vertex's block row.
func (k *refKernel) walk(seed uint64) float64 {
	x := xorshift(seed | 1)
	var acc float64
	for s := 0; s < refSteps; s++ {
		v := int(x.next() % refVertices)
		row, cnt := k.rows[k.label[v]], k.cnts[k.label[v]]
		for _, u := range k.adj[v*refDegree : (v+1)*refDegree] {
			b := k.label[u]
			i := sort.Search(len(row), func(i int) bool { return row[i] >= b })
			if i < len(row) && row[i] == b {
				acc += float64(cnt[i]) * math.Log(float64(cnt[i]+1))
			}
		}
	}
	return acc
}

// slice runs one timed slice of the kernel on pinnedWorkers goroutines.
func (k *refKernel) slice() time.Duration {
	var wg sync.WaitGroup
	acc := make([]float64, pinnedWorkers)
	t0 := time.Now()
	for w := range acc {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc[w] = k.walk(uint64(w) + 7)
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

// serveRef is the child's side: for every byte read from in it runs one
// slice and writes its duration in nanoseconds as a line; it returns when
// in is closed.
func serveRef(in io.Reader, out io.Writer) error {
	k := newRefKernel()
	br := bufio.NewReader(in)
	for {
		if _, err := br.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out, k.slice().Nanoseconds()); err != nil {
			return err
		}
	}
}

// refProc is the parent's handle on the reference child.
type refProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startRef() (*refProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &refProc{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// slice asks the child for one slice and returns its duration.
func (p *refProc) slice() (time.Duration, error) {
	if _, err := p.in.Write([]byte{1}); err != nil {
		return 0, err
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, err
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	return time.Duration(ns), err
}

// stop closes the child's input and waits for it to exit.
func (p *refProc) stop() error {
	p.in.Close()
	return p.cmd.Wait()
}

// calibrate times one reference slice, starting the child on first use.
// A forced collection first keeps this process's garbage collector from
// running beside the slice.
func (r *run) calibrate() {
	if r.ref == nil {
		p, err := startRef()
		if !r.op(err, "start reference kernel") {
			return
		}
		r.ref = p
	}
	runtime.GC()
	d, err := r.ref.slice()
	if r.op(err, "reference slice") {
		r.refs = append(r.refs, d.Seconds())
	}
}

// stopRef stops the reference child, if one was started.
func (r *run) stopRef() {
	if r.ref != nil {
		r.op(r.ref.stop(), "stop reference kernel")
		r.ref = nil
	}
}

// atRefSpeed scales a sampled time to the reference host speed by the
// mean of the reference slices taken just before and just after it (just
// before, for a sample after the last slice). It is NaN for a sample no
// slice preceded.
func (r *run) atRefSpeed(s sample) float64 {
	if s.epoch == 0 || s.epoch > len(r.refs) {
		return math.NaN()
	}
	ref := r.refs[s.epoch-1]
	if s.epoch < len(r.refs) {
		ref = (ref + r.refs[s.epoch]) / 2
	}
	return s.v * refNominal.Seconds() / ref
}
