package fault

import (
	"fmt"
	"sync"
	"time"

	"drp/internal/xrand"
)

// Injector realises a Plan as a gate on call attempts. One injector is
// shared by every node of a cluster (and the coordinator), and its gate is
// asked with the sites an attempt comes from and goes to, so every fault
// decision names both endpoints by site, the plan's own vocabulary. The
// unit a fault acts on is the attempt, not the connection: the nodes keep
// persistent links to each other, and a modelled crash, blackhole or drop
// fails the attempt before a link is picked, however healthy the pooled
// link to that peer is.
//
// The injector holds a logical step clock, advanced by the traffic driver
// once per request (Advance). All fault decisions are pure functions of
// (plan, step) except probabilistic drops, which consume the plan-seeded
// RNG in the order the gates are asked — deterministic under the serial
// traffic the chaos tests drive.
type Injector struct {
	plan Plan

	mu   sync.Mutex
	step int64
	rng  *xrand.Source

	// Fault outcome counters, for assertions and CLI summaries.
	dials, refused, severed, dropped, delayed int64
}

// NewInjector builds an injector for the plan.
func NewInjector(plan Plan) *Injector {
	return &Injector{plan: plan, rng: xrand.New(plan.Seed)}
}

// advance moves the logical clock one step.
func (in *Injector) advance() {
	in.mu.Lock()
	in.step++
	in.mu.Unlock()
}

// AdvanceTo fast-forwards the clock to at least step (used to move past
// the last fault window before recovery runs).
func (in *Injector) AdvanceTo(step int64) {
	in.mu.Lock()
	if step > in.step {
		in.step = step
	}
	in.mu.Unlock()
}

// Stats reports the injector's fault outcome counts: total attempts seen
// (still named dials: one per attempt, as when every attempt dialled),
// attempts refused because an endpoint was crashed, severed by a
// blackhole, dropped probabilistically, and delayed by latency spikes.
func (in *Injector) Stats() (dials, refused, severed, dropped, delayed int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dials, in.refused, in.severed, in.dropped, in.delayed
}

// faultError is the transport error the injector synthesises; it mimics a
// net.OpError so retry classification treats it like a real dial failure.
// Span files and reports quote its texts, which name sites, never
// addresses; the transport's "netnode: dial <addr>:" wraps them.
type faultError struct {
	msg string
}

func (e *faultError) Error() string   { return e.msg }
func (e *faultError) Timeout() bool   { return false }
func (e *faultError) Temporary() bool { return true }

// gate is the injector as a netnode.Dialer: a participant — a site, or
// coordinator for the cluster coordinator — asks it once before each
// attempt with its own site and the target's; a fault verdict fails the
// attempt, a latency verdict delays it. It is safe for concurrent use.
func (in *Injector) gate(client, target int) error {
	in.mu.Lock()
	step := in.step
	in.dials++
	var verdict error
	var delay time.Duration
	switch {
	case in.plan.Down(client, step):
		in.refused++
		verdict = &faultError{fmt.Sprintf("fault: site %d is down (step %d)", client, step)}
	case in.plan.Down(target, step):
		in.refused++
		verdict = &faultError{fmt.Sprintf("fault: site %d is down (step %d)", target, step)}
	case in.plan.blackholed(client, target, step):
		in.severed++
		verdict = &faultError{fmt.Sprintf("fault: link %d↔%d blackholed (step %d)", client, target, step)}
	default:
		if p := in.plan.dropProb(client, target, step); p > 0 && in.rng.Float64() < p {
			in.dropped++
			verdict = &faultError{fmt.Sprintf("fault: message %d→%d dropped (step %d)", client, target, step)}
		} else {
			delay = in.plan.LatencyAt(client, target, step)
			if delay > 0 {
				in.delayed++
			}
		}
	}
	in.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	return verdict
}
