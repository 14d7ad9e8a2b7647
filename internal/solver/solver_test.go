package solver

import (
	"context"
	"testing"
	"time"
)

func TestZeroRunNeverStops(t *testing.T) {
	c := Start("test", Run{})
	c.Charge(1 << 20)
	for i := 0; i < 3; i++ {
		if reason, halt := c.Check(); halt {
			t.Fatalf("open-loop run stopped: %v", reason)
		}
	}
}

func TestCheckCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := Start("test", Run{Context: ctx})
	if _, halt := c.Check(); halt {
		t.Fatal("stopped before cancellation")
	}
	cancel()
	if reason, halt := c.Check(); !halt || reason != StopCancelled {
		t.Fatalf("got (%v, %v), want (cancelled, true)", reason, halt)
	}
}

func TestCheckContextDeadlineReportsDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c := Start("test", Run{Context: ctx})
	if reason, halt := c.Check(); !halt || reason != StopDeadline {
		t.Fatalf("got (%v, %v), want (deadline, true)", reason, halt)
	}
}

func TestCheckOwnDeadline(t *testing.T) {
	c := Start("test", Run{Timeout: -time.Second})
	if reason, halt := c.Check(); !halt || reason != StopDeadline {
		t.Fatalf("got (%v, %v), want (deadline, true)", reason, halt)
	}
	c = Start("test", Run{Timeout: time.Hour})
	if reason, halt := c.Check(); halt {
		t.Fatalf("hour-long deadline fired immediately: %v", reason)
	}
}

func TestCheckBudget(t *testing.T) {
	c := Start("test", Run{Budget: 10})
	c.Charge(9)
	if _, halt := c.Check(); halt {
		t.Fatal("stopped below budget")
	}
	c.Charge(1)
	if reason, halt := c.Check(); !halt || reason != StopBudget {
		t.Fatalf("got (%v, %v), want (budget, true)", reason, halt)
	}
	if c.evaluations() != 10 {
		t.Fatalf("Evaluations() = %d, want 10", c.evaluations())
	}
}

// Cancellation must trump the deadline, and the deadline the budget.
func TestCheckPriority(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Start("test", Run{Context: ctx, Timeout: -time.Second, Budget: 1})
	c.Charge(5)
	if reason, _ := c.Check(); reason != StopCancelled {
		t.Fatalf("got %v, want cancelled", reason)
	}
	c = Start("test", Run{Timeout: -time.Second, Budget: 1})
	c.Charge(5)
	if reason, _ := c.Check(); reason != StopDeadline {
		t.Fatalf("got %v, want deadline", reason)
	}
}

func TestMeterSharedWithCharge(t *testing.T) {
	c := Start("test", Run{Budget: 100})
	c.Meter().Add(40)
	c.Charge(2)
	if c.evaluations() != 42 {
		t.Fatalf("Evaluations() = %d, want 42", c.evaluations())
	}
}

func TestSubInheritsRemaining(t *testing.T) {
	c := Start("test", Run{Timeout: time.Hour, Budget: 100})
	c.Charge(30)
	sub := c.Sub()
	if sub.Budget != 70 {
		t.Fatalf("sub budget %d, want 70", sub.Budget)
	}
	if sub.Timeout <= 0 || sub.Timeout > time.Hour {
		t.Fatalf("sub timeout %v outside (0, 1h]", sub.Timeout)
	}
	// Over-spent budget and expired deadline clamp so the child stops at
	// its first boundary instead of running unbounded.
	c.Charge(200)
	if sub := c.Sub(); sub.Budget != 1 {
		t.Fatalf("exhausted sub budget %d, want 1", sub.Budget)
	}
	c = Start("test", Run{Timeout: -time.Second})
	if sub := c.Sub(); sub.Timeout != -1 {
		t.Fatalf("expired sub timeout %v, want -1", sub.Timeout)
	}
	// No controls: the child gets none either.
	c = Start("test", Run{})
	if sub := c.Sub(); sub.Timeout != 0 || sub.Budget != 0 {
		t.Fatalf("uncontrolled sub got controls: %+v", sub)
	}
}

func TestAbsorbFoldsChildStats(t *testing.T) {
	c := Start("test", Run{})
	c.Charge(10)
	stop := c.Absorb(Stats{Evaluations: 5, Stopped: StopBudget})
	if stop != StopBudget {
		t.Fatalf("absorbed stop %v, want budget", stop)
	}
	if c.evaluations() != 15 {
		t.Fatalf("Evaluations() = %d, want 15", c.evaluations())
	}
}

func TestFinish(t *testing.T) {
	c := Start("test", Run{})
	c.Charge(7)
	st := c.Finish(3, StopDeadline)
	if st.Evaluations != 7 || st.Iterations != 3 || st.Stopped != StopDeadline {
		t.Fatalf("stats %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Fatal("elapsed not positive")
	}
}

func TestObserveFieldsAndNilObserver(t *testing.T) {
	// A nil observer must be a no-op, not a panic.
	Start("test", Run{}).Observe(1, 0.5, 0.4, 100)

	var got Progress
	c := Start("gra", Run{Observer: ObserverFunc(func(p Progress) { got = p })})
	c.Charge(12)
	c.Observe(4, 0.5, 0.25, 99)
	if got.Algorithm != "gra" || got.Iteration != 4 || got.BestFitness != 0.5 ||
		got.MeanFitness != 0.25 || got.BestCost != 99 || got.Evaluations != 12 {
		t.Fatalf("progress %+v", got)
	}
}

func TestSynchronized(t *testing.T) {
	if Synchronized(nil) != nil {
		t.Fatal("Synchronized(nil) != nil")
	}
	n := 0
	o := Synchronized(ObserverFunc(func(Progress) { n++ }))
	o.Progress(Progress{})
	o.Progress(Progress{})
	if n != 2 {
		t.Fatalf("observer called %d times, want 2", n)
	}
}

func TestSynchronizedIdempotent(t *testing.T) {
	// Re-synchronizing must return the SAME wrapper, not stack a second
	// mutex — composed bridges each defensively call Synchronized.
	n := 0
	once := Synchronized(ObserverFunc(func(Progress) { n++ }))
	twice := Synchronized(once)
	if twice != once {
		t.Fatalf("Synchronized(Synchronized(o)) = %p, want the original wrapper %p", twice, once)
	}
	thrice := Synchronized(twice)
	if thrice != once {
		t.Fatal("triple synchronization allocated a new wrapper")
	}
	twice.Progress(Progress{})
	if n != 1 {
		t.Fatalf("observer called %d times, want 1", n)
	}
}

func TestStopReasonStrings(t *testing.T) {
	want := map[StopReason]string{
		StopCompleted: "completed", StopCancelled: "cancelled",
		StopDeadline: "deadline", StopBudget: "budget",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), s)
		}
	}
	if StopReason(42).String() != "StopReason(?)" {
		t.Errorf("unknown reason string %q", StopReason(42).String())
	}
}
