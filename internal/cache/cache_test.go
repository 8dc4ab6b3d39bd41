package cache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkBound holds the two accounting invariants: the summed cost never
// exceeds the bound, and it equals what the resident entries were
// charged.
func checkBound[K comparable, V any](t *testing.T, c *LRU[K, V], step string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.used > c.max {
		t.Fatalf("%s: used %d exceeds bound %d", step, c.used, c.max)
	}
	var sum int64
	for _, e := range c.items {
		sum += e.Value.(*entry[K, V]).cost
	}
	if sum != c.used || len(c.items) != c.ll.Len() {
		t.Fatalf("%s: used %d but %d entries account %d (list %d)", step, c.used, len(c.items), sum, c.ll.Len())
	}
}

// TestLRUBoundInvariant drives fills, recency, replacement and oversize
// adds: used never exceeds the bound, eviction runs oldest-first, a
// replaced entry is re-charged rather than double-counted, and an entry
// costlier than the whole bound is refused and drops any prior version
// (a store Put that grew a sketch past the budget must not leave the
// old sketch resident).
func TestLRUBoundInvariant(t *testing.T) {
	const per = 100
	c := NewLRU[int, string](3 * per)
	for i := 0; i < 5; i++ {
		c.Add(i, fmt.Sprint("v", i), per)
		checkBound(t, c, fmt.Sprint("add ", i))
	}
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 2 || st.Used != 3*per {
		t.Fatalf("after 5 adds: %+v, want 3 entries, 2 evictions, %d used", st, 3*per)
	}
	if _, ok := c.Get(0); ok {
		t.Fatal("entry 0 survived eviction")
	}
	if v, ok := c.Get(4); !ok || v != "v4" {
		t.Fatalf("entry 4 = %q, %v", v, ok)
	}

	// Touch 2 so it is most recent, then add one more: 3 must go.
	if _, ok := c.Get(2); !ok {
		t.Fatal("entry 2 missing")
	}
	c.Add(9, "v9", per)
	if _, ok := c.Get(3); ok {
		t.Fatal("LRU order ignored: entry 3 should have been evicted")
	}
	if _, ok := c.Get(2); !ok {
		t.Fatal("recently used entry 2 evicted")
	}

	// Replacing a key adjusts used by the difference and keeps the value.
	before := c.Stats().Used
	c.Add(9, "v9'", per-90)
	checkBound(t, c, "replace")
	if delta := before - c.Stats().Used; delta != 90 {
		t.Fatalf("replace accounting: used shrank by %d, want 90", delta)
	}
	if v, _ := c.Get(9); v != "v9'" {
		t.Fatalf("replace kept the old value %q", v)
	}
	// A replacement that grows the entry evicts others, never itself.
	c.Add(9, "v9''", 3*per)
	checkBound(t, c, "grow")
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("grown entry should be alone, have %d entries", st.Entries)
	}
	if v, ok := c.Get(9); !ok || v != "v9''" {
		t.Fatal("grown entry evicted itself")
	}

	// Oversize: refused, and the prior version under the key is dropped.
	evictions := c.Stats().Evictions
	c.Add(9, "huge", 3*per+1)
	checkBound(t, c, "oversize replace")
	if _, ok := c.Get(9); ok {
		t.Fatal("oversize add left the superseded entry resident")
	}
	c.Add(8, "huge", 4*per)
	checkBound(t, c, "oversize fresh")
	if _, ok := c.Get(8); ok {
		t.Fatal("oversize entry admitted")
	}
	if st := c.Stats(); st.Evictions != evictions || st.Entries != 0 || st.Used != 0 {
		t.Fatalf("oversize adds must not count as evictions or leak cost: %+v", st)
	}
}

// TestLRUCountsAndEntryBound covers the entry-counted use (cost 1 per
// entry) and the counters: a bound below 1
// admits nothing but still counts its misses.
func TestLRUCountsAndEntryBound(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	c.Add("c", 3, 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry bound ignored")
	}
	c.Get("b")
	c.Get("c")
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 || st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 2 hits, 1 miss, 1 eviction, 2 entries", st)
	}
	for _, max := range []int64{0, -1} {
		off := NewLRU[string, int](max)
		off.Add("a", 1, 1)
		if _, ok := off.Get("a"); ok {
			t.Fatalf("max %d admitted an entry", max)
		}
		if st := off.Stats(); st.Misses != 1 || st.Entries != 0 {
			t.Fatalf("max %d: stats %+v, want 1 miss and no entries", max, st)
		}
	}
}

// TestLRUSeenBefore: a key is seen from its second sighting on, its
// marker is an entry charged like any other (so it can be evicted, and
// is then unseen again), and no sighting counts as a hit or a miss.
func TestLRUSeenBefore(t *testing.T) {
	c := NewLRU[string, int](20)
	for i, want := range []bool{false, true, true} {
		if got := c.SeenBefore("a", -1, 10); got != want {
			t.Fatalf("sighting %d: seen %v, want %v", i, got, want)
		}
	}
	if v, ok := c.Get("a"); !ok || v != -1 {
		t.Fatalf("marker: %v, %v", v, ok)
	}
	c.Add("b", 1, 10)
	c.Add("c", 2, 10) // evicts the marker, the least recently used
	if c.SeenBefore("a", -1, 10) {
		t.Fatal("an evicted marker is still seen")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 || st.Entries != 2 || st.Used != 20 {
		t.Fatalf("stats %+v, want the one Get's hit and two entries", st)
	}
	var off *LRU[string, int]
	if off.SeenBefore("a", -1, 10) || off.SeenBefore("a", -1, 10) {
		t.Fatal("a nil cache saw a key")
	}
}

func TestLRUDeleteAndDeleteFunc(t *testing.T) {
	c := NewLRU[string, int](100)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Add(k, i, 10)
	}
	c.Delete("a")
	c.Delete("nope")
	// The segment purge: drop every entry whose value is tagged odd.
	c.DeleteFunc(func(_ string, v int) bool { return v%2 == 1 })
	checkBound(t, c, "after deletes")
	for k, want := range map[string]bool{"a": false, "b": false, "c": true, "d": false} {
		if _, ok := c.Get(k); ok != want {
			t.Errorf("entry %q resident = %v, want %v", k, ok, want)
		}
	}
	if st := c.Stats(); st.Used != 10 || st.Evictions != 0 {
		t.Fatalf("deletes must release cost and are not evictions: %+v", st)
	}
}

// TestNilIsDisabled: a nil LRU misses and retains nothing, and nil
// Flights make every caller a solo leader — the disabled result cache.
func TestNilIsDisabled(t *testing.T) {
	var c *LRU[int, int]
	c.Add(1, 1, 1)
	c.Delete(1)
	c.DeleteFunc(func(int, int) bool { return true })
	if _, ok := c.Get(1); ok {
		t.Fatal("nil LRU hit")
	}
	if st := c.Stats(); st != (LRUStats{}) || c.Max() != 0 {
		t.Fatalf("nil LRU stats %+v max %d", st, c.Max())
	}

	var fl *Flights[int, string]
	f1, lead1, rel1 := fl.Join(context.Background(), 7)
	f2, lead2, rel2 := fl.Join(context.Background(), 7)
	if !lead1 || !lead2 || f1 == f2 {
		t.Fatal("nil Flights coalesced two callers")
	}
	fl.Finish(7, f1, "one")
	<-f1.Done()
	if f1.Result() != "one" || fl.Coalesced() != 0 {
		t.Fatalf("solo flight result %q coalesced %d", f1.Result(), fl.Coalesced())
	}
	rel1()
	// A solo leader is its flight's only participant: leaving cancels.
	rel2()
	select {
	case <-f2.Context().Done():
	case <-time.After(time.Second):
		t.Fatal("solo flight not cancelled when its only participant left")
	}
}

// TestFlightWaiterGetsResult: a waiter receives exactly what the leader
// published — an error outcome is just another result — and the flight
// is unlinked, so the next caller starts a fresh computation.
func TestFlightWaiterGetsResult(t *testing.T) {
	fl := NewFlights[string, error]()
	f1, leader1, rel1 := fl.Join(context.Background(), "k")
	defer rel1()
	f2, leader2, rel2 := fl.Join(context.Background(), "k")
	defer rel2()
	if !leader1 || leader2 || f1 != f2 {
		t.Fatalf("leader1=%v leader2=%v same=%v, want one shared flight led by the first", leader1, leader2, f1 == f2)
	}
	if _, other, rel := fl.Join(context.Background(), "other"); !other {
		t.Fatal("a different key joined this flight")
	} else {
		rel()
	}
	boom := fmt.Errorf("rank: boom")
	fl.Finish("k", f1, boom)
	select {
	case <-f2.Done():
	case <-time.After(time.Second):
		t.Fatal("waiter never woke")
	}
	if f2.Result() != boom {
		t.Fatalf("waiter saw %v", f2.Result())
	}
	if fl.Coalesced() != 1 {
		t.Fatalf("coalesced = %d, want 1", fl.Coalesced())
	}
	_, leader3, rel3 := fl.Join(context.Background(), "k")
	defer rel3()
	if !leader3 {
		t.Fatal("post-finish join did not start a fresh flight")
	}
}

// TestFlightUnlinkBeforePublish: a waiter that retries the instant it is
// woken must be elected leader of a new flight, never rejoin the spent
// one — Finish unlinks before it publishes.
func TestFlightUnlinkBeforePublish(t *testing.T) {
	for i := 0; i < 200; i++ {
		fl := NewFlights[int, int]()
		f, _, relLeader := fl.Join(context.Background(), 1)
		w, _, relWaiter := fl.Join(context.Background(), 1)
		retried := make(chan bool)
		go func() {
			<-w.Done()
			f2, leader, rel := fl.Join(context.Background(), 1)
			rel()
			retried <- leader && f2 != f
		}()
		fl.Finish(1, f, i)
		if !<-retried {
			t.Fatal("woken waiter rejoined the spent flight")
		}
		relLeader()
		relWaiter()
	}
}

// TestFlightRefcountCancel: the computation context survives the
// leader's client disconnecting while a waiter remains, cancels once the
// last participant leaves, and a disconnect is noticed without the
// caller running its release.
func TestFlightRefcountCancel(t *testing.T) {
	fl := NewFlights[int, int]()
	leaderReq, cancelLeader := context.WithCancel(context.Background())
	f, _, relLeader := fl.Join(leaderReq, 2)
	waiterReq, cancelWaiter := context.WithCancel(context.Background())
	_, _, relWaiter := fl.Join(waiterReq, 2)

	cancelLeader()
	relLeader()
	relLeader() // release is idempotent: the disconnect already counted
	select {
	case <-f.Context().Done():
		t.Fatal("flight cancelled while a waiter was still interested")
	case <-time.After(20 * time.Millisecond):
	}

	cancelWaiter() // no release call: the watched request context suffices
	select {
	case <-f.Context().Done():
	case <-time.After(time.Second):
		t.Fatal("flight not cancelled after last participant left")
	}
	relWaiter()
}

// TestFlightsConcurrent hammers one key from many goroutines (run under
// -race): every round has exactly one leader, every waiter sees that
// leader's result, and computations never overlap for one key.
func TestFlightsConcurrent(t *testing.T) {
	fl := NewFlights[string, int64]()
	var computing, computed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f, leader, release := fl.Join(context.Background(), "k")
				if leader {
					if computing.Add(1) != 1 {
						t.Error("two leaders computing one key at once")
					}
					n := computed.Add(1)
					computing.Add(-1)
					fl.Finish("k", f, n)
				}
				<-f.Done()
				if f.Result() == 0 {
					t.Error("participant woke without a result")
				}
				release()
			}
		}()
	}
	wg.Wait()
	if got := computed.Load() + fl.Coalesced(); got != 16*200 {
		t.Fatalf("leaders %d + coalesced %d != %d joins", computed.Load(), fl.Coalesced(), 16*200)
	}
}

// TestLRUConcurrent exercises the cache's own lock under -race.
func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 100
				if _, ok := c.Get(k); !ok {
					c.Add(k, i, int64(1+k%5))
				}
				if i%50 == 0 {
					c.DeleteFunc(func(k, _ int) bool { return k%7 == 0 })
				}
			}
		}(g)
	}
	wg.Wait()
	checkBound(t, c, "after hammer")
}
