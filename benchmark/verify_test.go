package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"misketch"
)

func shortEnv(t *testing.T, trace bool) env {
	t.Helper()
	dir := t.TempDir()
	return env{seed: 1, scale: shortScale, window: 400 * time.Millisecond, warmup: 100 * time.Millisecond,
		trace: trace, work: dir, spanOut: dir + "/trace.json"}
}

// A recorded answer that was tampered with after the fact must be
// caught by the verifier, counted, and turn the exit code non-zero;
// the same run left alone is correct.
func TestCorruptedAnswerIsCaught(t *testing.T) {
	w, _ := findWorkload("fresh_c1")
	clean, err := runWorkload(w, shortEnv(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Correct || clean.Failed != 0 || exitCode(clean, nil) != 0 {
		t.Fatalf("untampered run: correct=%v failed=%d detail=%q", clean.Correct, clean.Failed, clean.Detail)
	}

	for name, tamper := range map[string]func(body []byte) []byte{
		// The eighth decimal of the best candidate's MI.
		"mi-digit": func(body []byte) []byte {
			i := bytes.Index(body, []byte(`"mi":`))
			i += bytes.IndexByte(body[i:], '.') + 8
			out := bytes.Clone(body)
			out[i] = '0' + (out[i]-'0'+1)%10
			return out
		},
		// Two candidates swap places.
		"swapped-names": func(body []byte) []byte {
			return []byte(strings.NewReplacer(numName(0), numName(64), numName(64), numName(0)).Replace(string(body)))
		},
	} {
		t.Run(name, func(t *testing.T) {
			e := shortEnv(t, false)
			e.tamper = func(samples []sample) {
				s := &samples[len(samples)/2]
				tampered := tamper(s.body)
				if bytes.Equal(tampered, s.body) {
					t.Fatalf("tamper left the answer unchanged: %s", s.body)
				}
				s.body = tampered
			}
			res, err := runWorkload(w, e)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed != 1 || !strings.HasPrefix(res.Detail, "mismatch") {
				t.Fatalf("tampered run: correct=%v failed=%d detail=%q", res.Correct, res.Failed, res.Detail)
			}
			if exitCode(res, nil) == 0 {
				t.Fatal("tampered run would exit 0")
			}
		})
	}
}

// A stale answer — right for the catalog before a mutation, served
// after it — is a mismatch; the same answer inside its window is not.
func TestMutationWindow(t *testing.T) {
	gen := func(each emit) error { return genNum(1, shortScale.numCands, each) }
	mutation := func(i int) *misketch.Sketch { return numMutation(1, i) }
	o, closeReplica, err := mutationReplica(gen, mutation)
	if err != nil {
		t.Fatal(err)
	}
	defer closeReplica()
	train := numTrain(1, 0)
	p := rankParams{prefix: numPrefix, minJoin: numMinJoin, top: 5}
	answerAt := func(m int) []byte {
		if err := o.state(m); err != nil {
			t.Fatal(err)
		}
		ranked, err := o.rank(train, p)
		if err != nil {
			t.Fatal(err)
		}
		resp := misketch.RankResponse{}
		for _, r := range ranked {
			resp.Ranked = append(resp.Ranked, misketch.RankedResult{Name: r.Name, MI: r.MI, Estimator: string(r.Estimator), JoinSize: r.JoinSize})
		}
		return mustJSON(resp)
	}
	before, after := answerAt(0), answerAt(2)
	if bytes.Equal(before, after) {
		t.Fatal("two planted mutations did not change the top 5")
	}
	req := request{path: "/v1/rank", trains: []*misketch.Sketch{train}, params: p}
	for _, tc := range []struct {
		name       string
		body       []byte
		lo, hi     int
		mismatched int
	}{
		{"fresh", after, 2, 2, 0},
		{"stale", before, 2, 2, 1},
		{"racing-a-put", before, 0, 2, 0},
		{"from-the-future", after, 0, 1, 1},
	} {
		v := verify(o, []sample{{req: req, body: tc.body, lo: tc.lo, hi: tc.hi}}, 1, numPlanted, 2)
		if v.mismatched != tc.mismatched {
			t.Errorf("%s: mismatched=%d (%s), want %d", tc.name, v.mismatched, v.first, tc.mismatched)
		}
	}
}
