package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shufflejoin/internal/flight"
	"shufflejoin/internal/obs"
)

// TestAdmissionCap pins that at most MaxQueries tickets are outstanding
// at once and that released slots admit queued work.
func TestAdmissionCap(t *testing.T) {
	s := New(Config{MaxQueries: 2})
	ctx := context.Background()

	t1, err := s.Admit(ctx, Interactive, 0, "q1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Admit(ctx, Interactive, 0, "q2")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Inflight; got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}

	admitted := make(chan *Ticket)
	go func() {
		t3, err := s.Admit(ctx, Interactive, 0, "q3")
		if err != nil {
			t.Error(err)
		}
		admitted <- t3
	}()
	select {
	case <-admitted:
		t.Fatal("third query admitted past MaxQueries=2")
	case <-time.After(30 * time.Millisecond):
	}
	t1.Done()
	t3 := <-admitted
	if got := s.Snapshot().Inflight; got != 2 {
		t.Fatalf("inflight after release+grant = %d, want 2", got)
	}
	t2.Done()
	t3.Done()
	if snap := s.Snapshot(); snap.Inflight != 0 || snap.MemReservedBytes != 0 {
		t.Fatalf("after all Done: %+v", snap)
	}
}

// TestMemoryQueuing pins that a query whose reservation does not fit the
// pool queues (not fails) and runs once memory frees.
func TestMemoryQueuing(t *testing.T) {
	s := New(Config{MaxQueries: 8, PoolBytes: 1000})
	ctx := context.Background()

	big, err := s.Admit(ctx, Scan, 800, "big")
	if err != nil {
		t.Fatal(err)
	}
	if big.MemoryBytes() != 800 {
		t.Fatalf("reservation = %d, want 800", big.MemoryBytes())
	}

	admitted := make(chan *Ticket)
	go func() {
		tk, err := s.Admit(ctx, Scan, 500, "second")
		if err != nil {
			t.Error(err)
		}
		admitted <- tk
	}()
	select {
	case <-admitted:
		t.Fatal("500-byte query admitted into a pool with 200 free")
	case <-time.After(30 * time.Millisecond):
	}
	if q := s.Snapshot().Scan.Queued; q != 1 {
		t.Fatalf("queued = %d, want 1", q)
	}
	big.Done()
	tk := <-admitted
	if got := s.Snapshot().MemReservedBytes; got != 500 {
		t.Fatalf("mem reserved = %d, want 500", got)
	}
	tk.Done()
}

// TestReservationClamp pins that a declared budget larger than the pool
// is clamped so the query can ever be admitted.
func TestReservationClamp(t *testing.T) {
	s := New(Config{MaxQueries: 2, PoolBytes: 1000})
	tk, err := s.Admit(context.Background(), Scan, 1<<40, "huge")
	if err != nil {
		t.Fatal(err)
	}
	if tk.MemoryBytes() != 1000 {
		t.Fatalf("reservation = %d, want clamp to 1000", tk.MemoryBytes())
	}
	tk.Done()
}

// TestDefaultReservation pins the PoolBytes/MaxQueries default carve.
func TestDefaultReservation(t *testing.T) {
	s := New(Config{MaxQueries: 4, PoolBytes: 1000})
	tk, err := s.Admit(context.Background(), Interactive, 0, "q")
	if err != nil {
		t.Fatal(err)
	}
	if tk.MemoryBytes() != 250 {
		t.Fatalf("default reservation = %d, want 250", tk.MemoryBytes())
	}
	tk.Done()
}

// drainOrder queues perClass[c] waiters of each class behind hold, waits
// until every one is queued, releases hold, and returns the classes in
// grant order. With MaxQueries 1 every grantee reports its class before
// releasing its slot, so the channel order is the grant order.
func drainOrder(t *testing.T, s *Scheduler, hold *Ticket, perClass [numClasses]int) []Class {
	t.Helper()
	ctx := context.Background()
	n := perClass[Interactive] + perClass[Scan]
	order := make(chan Class, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for c := Class(0); c < numClasses; c++ {
		for i := 0; i < perClass[c]; i++ {
			go func(c Class) {
				defer wg.Done()
				tk, err := s.Admit(ctx, c, 0, "w")
				if err != nil {
					t.Error(err)
					return
				}
				order <- c
				tk.Done()
			}(c)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := s.Snapshot()
		if snap.Interactive.Queued == perClass[Interactive] && snap.Scan.Queued == perClass[Scan] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiters failed to enqueue: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	hold.Done()
	wg.Wait()
	close(order)
	granted := make([]Class, 0, n)
	for c := range order {
		granted = append(granted, c)
	}
	return granted
}

// maxRun is the longest run of consecutive grants to one class.
func maxRun(granted []Class) int {
	best, run := 0, 0
	for i, c := range granted {
		if i > 0 && c == granted[i-1] {
			run++
		} else {
			run = 1
		}
		best = max(best, run)
	}
	return best
}

// TestWeightedFairness pins the WFQ grant order: with both classes
// backlogged, interactive receives three grants per scan grant, and no
// class ever gets more than three grants in a row — the reason the
// scheduler needs no starvation bound.
func TestWeightedFairness(t *testing.T) {
	s := New(Config{MaxQueries: 1})
	hold, err := s.Admit(context.Background(), Interactive, 0, "hold")
	if err != nil {
		t.Fatal(err)
	}
	granted := drainOrder(t, s, hold, [numClasses]int{20, 20})

	// The first 24 grants are made while both classes are backlogged.
	ni := 0
	for _, c := range granted[:24] {
		if c == Interactive {
			ni++
		}
	}
	if ni != 18 || maxRun(granted[:24]) > 3 {
		t.Fatalf("first 24 grants: %d interactive, longest run %d; want 18 (3:1 weights) and <= 3; order=%v",
			ni, maxRun(granted[:24]), granted)
	}
}

// TestIdleClassHoardsNoCredit pins that a class earns no virtual-time
// credit while it has nothing queued, or while its head waits on memory:
// once both classes are backlogged again, grants follow the 3:1 share
// from that point instead of paying the idle class back in a burst.
func TestIdleClassHoardsNoCredit(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		s := New(Config{MaxQueries: 1})
		ctx := context.Background()
		for i := 0; i < 30; i++ {
			tk, err := s.Admit(ctx, Interactive, 0, "alone")
			if err != nil {
				t.Fatal(err)
			}
			tk.Done()
		}
		hold, err := s.Admit(ctx, Interactive, 0, "hold")
		if err != nil {
			t.Fatal(err)
		}
		granted := drainOrder(t, s, hold, [numClasses]int{8, 8})
		ni := 0
		for _, c := range granted[:8] {
			if c == Interactive {
				ni++
			}
		}
		if ni < 5 || maxRun(granted[:8]) > 3 {
			t.Fatalf("first 8 grants after 30 interactive-only grants: %d interactive, longest run %d; want >= 5 and <= 3; order=%v",
				ni, maxRun(granted[:8]), granted)
		}
	})
	t.Run("memory-blocked", func(t *testing.T) {
		// A 900-byte scan cannot fit beside the 200-byte holder, so
		// interactive queries are admitted past it; once the holder
		// leaves, the scan is due its share, not a refund.
		s := New(Config{MaxQueries: 2, PoolBytes: 1000})
		ctx := context.Background()
		big, err := s.Admit(ctx, Scan, 200, "big")
		if err != nil {
			t.Fatal(err)
		}
		blocked := make(chan *Ticket)
		go func() {
			tk, err := s.Admit(ctx, Scan, 900, "blocked")
			if err != nil {
				t.Error(err)
			}
			blocked <- tk
		}()
		for s.Snapshot().Scan.Queued != 1 {
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 12; i++ {
			tk, err := s.Admit(ctx, Interactive, 100, "past")
			if err != nil {
				t.Fatal(err)
			}
			tk.Done()
		}
		// While it waited on memory the scan earned no credit: its next
		// grant would finish no earlier than the interactive class's.
		s.mu.Lock()
		scanNext, interNext := s.vtime[Scan]+cost[Scan], s.vtime[Interactive]+cost[Interactive]
		s.mu.Unlock()
		if scanNext < interNext {
			t.Fatalf("blocked scan hoarded credit: next finish %d, interactive's %d", scanNext, interNext)
		}
		big.Done()
		(<-blocked).Done()
		if snap := s.Snapshot(); snap.Scan.Admitted != 2 || snap.Interactive.Admitted != 12 || snap.Inflight != 0 {
			t.Fatalf("after bypass: %+v", snap)
		}
	})
}

// TestCancelWhileQueued pins that a queued admission honors context
// cancellation, is removed from the queue, and does not leak resources
// even when the cancellation races an in-flight grant.
func TestCancelWhileQueued(t *testing.T) {
	s := New(Config{MaxQueries: 1})
	bg := context.Background()
	hold, err := s.Admit(bg, Interactive, 0, "hold")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	errc := make(chan error, 1)
	go func() {
		_, err := s.Admit(ctx, Interactive, 0, "victim")
		errc <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Snapshot().Interactive.Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("victim never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("queued cancel: err = %v, want context.Canceled", err)
	}
	snap := s.Snapshot()
	if snap.Interactive.Queued != 0 || snap.Interactive.Rejected != 1 {
		t.Fatalf("after cancel: %+v", snap)
	}
	hold.Done()
	if snap := s.Snapshot(); snap.Inflight != 0 {
		t.Fatalf("leaked inflight after cancel: %+v", snap)
	}

	// Grant/cancel race: hammer both sides; whatever the interleaving,
	// no slot or memory may leak.
	for i := 0; i < 200; i++ {
		h, err := s.Admit(bg, Interactive, 10, "h")
		if err != nil {
			t.Fatal(err)
		}
		rctx, rcancel := context.WithCancel(bg)
		done := make(chan struct{})
		go func() {
			tk, err := s.Admit(rctx, Interactive, 10, "r")
			if err == nil {
				tk.Done()
			}
			close(done)
		}()
		go rcancel()
		h.Done()
		<-done
		rcancel()
	}
	if snap := s.Snapshot(); snap.Inflight != 0 || snap.MemReservedBytes != 0 {
		t.Fatalf("leak after race storm: %+v", snap)
	}
}

// TestPreCanceledContext pins that Admit fails fast on an already-done
// context without touching the queues.
func TestPreCanceledContext(t *testing.T) {
	s := New(Config{MaxQueries: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Admit(ctx, Scan, 0, "q"); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDoneIdempotent pins that double-Done releases once.
func TestDoneIdempotent(t *testing.T) {
	s := New(Config{MaxQueries: 2, PoolBytes: 100})
	tk, err := s.Admit(context.Background(), Interactive, 50, "q")
	if err != nil {
		t.Fatal(err)
	}
	tk.Done()
	tk.Done()
	snap := s.Snapshot()
	if snap.Inflight != 0 || snap.MemReservedBytes != 0 {
		t.Fatalf("after double Done: %+v", snap)
	}
}

// TestMetricsAndFlight pins the obs registry and flight-recorder
// surfaces of admission.
func TestMetricsAndFlight(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{MaxQueries: 1, Registry: reg})
	fr := flight.Default
	mark := fr.Stats().Recorded
	ctx := context.Background()
	t1, err := s.Admit(ctx, Interactive, 0, "a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		t2, err := s.Admit(ctx, Scan, 0, "b")
		if err == nil {
			t2.Done()
		}
		close(done)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Snapshot().Scan.Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("scan never queued")
		}
		time.Sleep(time.Millisecond)
	}
	t1.Done()
	<-done

	counters := reg.Snapshot()
	if counters["sched.admitted.interactive"] != 1 || counters["sched.admitted.scan"] != 1 {
		t.Fatalf("admitted counters: %v", counters)
	}

	var sawQueue, sawAdmit bool
	for _, e := range fr.Snapshot(0) {
		if e.Seq < mark {
			continue
		}
		switch e.Type {
		case flight.EvSchedQueue:
			sawQueue = true
			if fr.LabelName(e.Args[0]) != "scan" {
				t.Fatalf("queue event class = %q", fr.LabelName(e.Args[0]))
			}
		case flight.EvSchedAdmit:
			sawAdmit = true
		}
	}
	if !sawQueue || !sawAdmit {
		t.Fatalf("flight events: queue=%v admit=%v", sawQueue, sawAdmit)
	}
}

// TestParseClass pins the class-name surface.
func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{"": Interactive, "interactive": Interactive, "scan": Scan} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Fatalf("ParseClass(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseClass("batch"); err == nil {
		t.Fatal("ParseClass accepted unknown class")
	}
}

// TestConcurrentChurn hammers the scheduler from many goroutines under
// the race detector and pins conservation: admitted == completed, no
// slot or memory leak.
func TestConcurrentChurn(t *testing.T) {
	s := New(Config{MaxQueries: 4, PoolBytes: 1 << 20})
	ctx := context.Background()
	var completed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := Interactive
				if (g+i)%3 == 0 {
					c = Scan
				}
				tk, err := s.Admit(ctx, c, int64(1024*(i%7+1)), "churn")
				if err != nil {
					t.Error(err)
					return
				}
				tk.Done()
				completed.Add(1)
			}
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Inflight != 0 || snap.MemReservedBytes != 0 {
		t.Fatalf("leak after churn: %+v", snap)
	}
	if total := snap.Interactive.Admitted + snap.Scan.Admitted; total != completed.Load() {
		t.Fatalf("admitted %d != completed %d", total, completed.Load())
	}
}
