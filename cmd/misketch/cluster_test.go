package main

// TestClusterRealProcesses runs the cluster as a deployment does: this
// test binary re-execs itself as three `misketch serve -store` shards
// and one `misketch serve -coordinator`, each on its own port, and ranks
// through the coordinator while one shard takes Puts and another is
// killed. The in-process cluster tests share one address space and one
// scheduler with their shards; here a shard dies the way a process
// dies, with its sockets closed by the kernel mid-conversation.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"misketch"
	"misketch/internal/synth"
)

// helperEnv makes the test binary run main instead of the tests, so a
// test can start `misketch` subcommands without building the command.
const helperEnv = "MISKETCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startServe starts `misketch serve -addr 127.0.0.1:0 args...` as a child
// process and returns it with the base URL it printed on its first
// line. The child is killed and reaped when the test ends, pass or fail.
func startServe(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	_, addr, ok := strings.Cut(strings.TrimSpace(line), "listening on ")
	if err != nil || !ok {
		t.Fatalf("serve %v: first line %q (%v), want its listening address", args, line, err)
	}
	return cmd, "http://" + addr
}

// rankAnswer is one coordinator rank as a ranking client saw it.
type rankAnswer struct {
	afterKill bool // sent after the killed shard was reaped
	resp      misketch.ClusterRankResponse
	err       error
}

// TestClusterRealProcesses holds the degraded-results contract on real
// processes: with one shard SIGKILLed mid-run and another taking a Put
// every 200 ms, no rank fails; every rank sent after the kill is partial,
// names the dead shard in its shard errors and returns none of its
// candidates; the coordinator ran seed rounds; and a rank cost at most
// two requests per shard on average. The survivors then drain on SIGTERM
// and exit 0, which under -race also means none of them saw a data race.
func TestClusterRealProcesses(t *testing.T) {
	const nShards, nCand = 3, 120
	const killShard, putShard = 0, 1

	// The shard stores are `datagen -kind cohort -tables 120 -shards 3`:
	// candidate c goes to shard c % 3 under bench/t%04d#x.
	dirs := make([]string, nShards)
	stores := make([]*misketch.Store, nShards)
	for i := range stores {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("shard%d", i))
		st, err := misketch.OpenStore(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	train, cands := synth.PlantedCohort(nCand)
	var mutant bytes.Buffer
	for c, sk := range cands {
		if err := stores[c%nShards].Put(fmt.Sprintf("bench/t%04d#x", c), sk); err != nil {
			t.Fatal(err)
		}
		if c == 1 {
			if err := misketch.WriteSketch(&mutant, sk); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// onDeadShard reports whether a returned candidate lives on the
	// killed shard.
	onDeadShard := func(name string) bool {
		var c int
		_, err := fmt.Sscanf(name, "bench/t%04d#x", &c)
		return err == nil && c%nShards == killShard
	}

	procs := make([]*exec.Cmd, nShards)
	urls := make([]string, nShards)
	for i := range procs {
		procs[i], urls[i] = startServe(t, "-store", dirs[i])
	}
	coordProc, coord := startServe(t, "-coordinator", "-shards", strings.Join(urls, ","))

	var trainBytes bytes.Buffer
	if err := misketch.WriteSketch(&trainBytes, train); err != nil {
		t.Fatal(err)
	}
	trainB64 := base64.StdEncoding.EncodeToString(trainBytes.Bytes())
	rank := func(top int, afterKill bool) rankAnswer {
		minJoin := 50
		body, err := json.Marshal(misketch.RankRequest{
			Sketch:  trainB64,
			Prefix:  "bench/",
			MinJoin: &minJoin,
			Top:     top,
		})
		a := rankAnswer{afterKill: afterKill, err: err}
		if err != nil {
			return a
		}
		resp, err := http.Post(coord+"/v1/rank", "application/json", bytes.NewReader(body))
		if err != nil {
			a.err = err
			return a
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		switch {
		case err != nil:
			a.err = err
		case resp.StatusCode != http.StatusOK:
			a.err = fmt.Errorf("rank: status %d: %.200s", resp.StatusCode, raw)
		default:
			a.err = json.Unmarshal(raw, &a.resp)
		}
		return a
	}
	put := func() error {
		resp, err := http.Post(urls[putShard]+"/v1/put?name=bench/zz-mutant%23x",
			"application/octet-stream", bytes.NewReader(mutant.Bytes()))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("put: status %d: %.200s", resp.StatusCode, raw)
		}
		return nil
	}

	// Two rankers (top 5 and top 10) and one writer run until the main loop has seen enough
	// on both sides of the kill.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	stop := func() { cancel(); wg.Wait() }
	t.Cleanup(stop) // before the children are killed, on every path
	var killed atomic.Bool
	answers, puts := make(chan rankAnswer), make(chan error)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(top int) {
			defer wg.Done()
			for ctx.Err() == nil {
				select {
				case answers <- rank(top, killed.Load()):
				case <-ctx.Done():
				}
			}
		}(5 + 5*w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				select {
				case puts <- put():
				case <-ctx.Done():
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	const enoughRanks, enoughPuts = 10, 3 // wanted on each side of the kill
	var ranks, partial, putsDone [2]int
	deadline := time.After(60 * time.Second)
	for ranks[1] < enoughRanks || putsDone[1] < enoughPuts {
		select {
		case a := <-answers:
			side := 0
			if a.afterKill {
				side = 1
			}
			ranks[side]++
			if a.err != nil {
				t.Errorf("rank (after kill: %v): %v", a.afterKill, a.err)
				continue
			}
			if a.resp.Partial {
				partial[side]++
			}
			if !a.afterKill {
				continue
			}
			if !a.resp.Partial || !slices.ContainsFunc(a.resp.ShardErrors, func(e misketch.ShardError) bool {
				return e.Shard == urls[killShard]
			}) {
				t.Errorf("rank after the kill: partial %v, shard errors %+v; want partial, naming %s",
					a.resp.Partial, a.resp.ShardErrors, urls[killShard])
			}
			for _, r := range a.resp.Ranked {
				if onDeadShard(r.Name) {
					t.Errorf("rank after the kill returned %s, a candidate of the dead shard", r.Name)
				}
			}
		case err := <-puts:
			if killed.Load() {
				putsDone[1]++
			} else {
				putsDone[0]++
			}
			if err != nil {
				t.Error(err)
			}
		case <-deadline:
			t.Fatalf("after 60s: ranks %v, Puts %v on each side of the kill; want %d and %d",
				ranks, putsDone, enoughRanks, enoughPuts)
		}
		if !killed.Load() && ranks[0] >= enoughRanks && putsDone[0] >= enoughPuts {
			if err := procs[killShard].Process.Kill(); err != nil {
				t.Fatal(err)
			}
			procs[killShard].Wait() // reaped: its sockets are closed
			killed.Store(true)
		}
	}
	stop()
	t.Logf("ranks %v (partial %v) and Puts %v before/after the kill", ranks, partial, putsDone)

	resp, err := http.Get(coord + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats misketch.ClusterStatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var shardRequests int64
	for _, s := range stats.Shards {
		shardRequests += s.Requests
	}
	co := stats.Coordinator
	if co.FloorQueries <= 0 {
		t.Errorf("floor_queries %d: no rank ran a seed round", co.FloorQueries)
	}
	if limit := 2 * int64(len(stats.Shards)) * co.RankRequests; shardRequests > limit {
		t.Errorf("shards took %d requests for %d ranks; want at most %d", shardRequests, co.RankRequests, limit)
	}

	// The coordinator first, so no shard is asked anything while it drains.
	survivors := []*exec.Cmd{coordProc}
	for i, p := range procs {
		if i != killShard {
			survivors = append(survivors, p)
		}
	}
	for _, p := range survivors {
		if err := p.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := p.Wait(); err != nil {
			t.Errorf("%v after SIGTERM: %v", p.Args[1:], err)
		}
	}
}
