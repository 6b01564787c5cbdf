// Supervised mode: `dsbp -supervise` runs the WHOLE cluster on this
// machine — one child process per rank, all sharing the checkpoint
// directory — and babysits it. Children heartbeat by rewriting their
// per-rank status file at every progress event; the supervisor reads
// the timestamps to detect ranks that are alive but stuck (a hung peer
// stalls every bulk-synchronous collective) as well as ranks that
// died. Either way the unit of recovery is the generation: all
// children are killed and respawned with -resume, and the rejoin
// protocol restarts the deterministic sweep schedule from the newest
// common checkpoint, so the supervised result is bit-identical to an
// uninterrupted run.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
)

type superviseArgs struct {
	rankArgs
	hbTimeout time.Duration
	budget    int
	backoff   time.Duration
}

func runSupervise(a superviseArgs) error {
	if a.peers == "" {
		return fmt.Errorf("-peers is required")
	}
	if a.graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	if a.ckptDir == "" {
		return fmt.Errorf("-supervise requires -checkpoint-dir: restarted generations rejoin from checkpoints")
	}
	addrs := strings.Split(a.peers, ",")
	if a.ranks == 0 {
		a.ranks = len(addrs)
	}
	if a.ranks != len(addrs) {
		return fmt.Errorf("-ranks %d but %d -peers entries", a.ranks, len(addrs))
	}
	// Validate the plan up front so a typo fails the supervisor, not
	// every child of every generation.
	if a.faultPlan != "" {
		if _, err := fault.Load(a.faultPlan); err != nil {
			return err
		}
	}
	statusDir := a.statusDir
	if statusDir == "" {
		statusDir = filepath.Join(a.ckptDir, "status")
	}
	if err := os.MkdirAll(statusDir, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolve own binary: %w", err)
	}

	st, err := fault.Supervise(fault.SupervisorConfig{
		Budget:           a.budget,
		BackoffBase:      a.backoff,
		HeartbeatTimeout: a.hbTimeout,
		FirstResume:      a.resume,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dsbp supervisor: "+format+"\n", args...)
		},
	}, &execRunner{a: a, exe: exe, statusDir: statusDir})
	fmt.Printf("supervisor: ranks=%d generations=%d restarts=%d dead=%d hung=%d ok=%t\n",
		a.ranks, st.Generations, st.Restarts, st.Dead, st.Hung, err == nil)
	return err
}

// execRunner spawns one generation of child dsbp processes by
// re-execing this binary, one rank each.
type execRunner struct {
	a         superviseArgs
	exe       string
	statusDir string
}

// childArgs rebuilds a child's flag set from the supervisor's own. The
// supervision flags themselves (-supervise, -heartbeat-timeout, ...)
// and -obs (one address cannot serve every rank) are deliberately not
// forwarded; -gen, -status-dir and -resume carry the restart epoch.
func (r *execRunner) childArgs(rank, gen int, resume bool) []string {
	a := r.a
	args := []string{
		"-rank", strconv.Itoa(rank),
		"-ranks", strconv.Itoa(a.ranks),
		"-peers", a.peers,
		"-graph", a.graphPath,
		"-communities", strconv.Itoa(a.communities),
		"-mode", a.mode,
		"-seed", strconv.FormatUint(a.seed, 10),
		"-max-sweeps", strconv.Itoa(a.maxSweeps),
		"-threshold", fmt.Sprint(a.threshold),
		"-beta", fmt.Sprint(a.beta),
		"-hybrid-fraction", fmt.Sprint(a.hybridFrac),
		"-io-timeout", a.ioTimeout.String(),
		"-accept-wait", a.acceptWait.String(),
		"-checkpoint-dir", a.ckptDir,
		"-checkpoint-every", strconv.Itoa(a.ckptEvery),
		"-checkpoint-retain", strconv.Itoa(a.ckptRetain),
		"-gen", strconv.Itoa(gen),
		"-status-dir", r.statusDir,
	}
	if a.faultPlan != "" {
		args = append(args, "-fault-plan", a.faultPlan)
	}
	if resume {
		args = append(args, "-resume")
	}
	if a.verify {
		args = append(args, "-verify")
	}
	if a.verbose {
		args = append(args, "-v")
	}
	if a.tracePath != "" {
		args = append(args, "-trace", a.tracePath)
	}
	if rank == 0 && a.outPath != "" {
		args = append(args, "-out", a.outPath)
	}
	return args
}

func (r *execRunner) StartGen(gen int, resume bool) ([]fault.Proc, error) {
	// Stale status files from the previous generation must not read as
	// fresh heartbeats (execProc also gates on the gen field, but a
	// clean slate keeps debugging sane).
	for rank := 0; rank < r.a.ranks; rank++ {
		if err := os.Remove(fault.StatusPath(r.statusDir, rank)); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	procs := make([]fault.Proc, r.a.ranks)
	for rank := 0; rank < r.a.ranks; rank++ {
		cmd := exec.Command(r.exe, r.childArgs(rank, gen, resume)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, p := range procs[:rank] {
				p.Kill()
			}
			return nil, fmt.Errorf("spawn rank %d: %w", rank, err)
		}
		procs[rank] = &execProc{cmd: cmd, statusDir: r.statusDir, rank: rank, gen: gen}
	}
	return procs, nil
}

// execProc is one child rank process. Its heartbeat is the rank's
// status file, gated on the generation so a file left by an earlier
// epoch never counts as progress.
type execProc struct {
	cmd       *exec.Cmd
	statusDir string
	rank, gen int
	killOnce  sync.Once
}

func (p *execProc) Wait() error { return p.cmd.Wait() }

func (p *execProc) Kill() {
	p.killOnce.Do(func() {
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
		}
	})
}

func (p *execProc) Heartbeat() (int, time.Time, bool) {
	st, err := fault.ReadStatus(p.statusDir, p.rank)
	if err != nil || st.Gen != p.gen {
		return 0, time.Time{}, false
	}
	return st.Sweep, time.Unix(0, st.AtUnixNano), true
}
