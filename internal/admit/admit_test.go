package admit

import (
	"testing"

	"lattice/internal/sim"
)

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFairShareInterleavesUsers is the headline property: a user who
// queues one paper-scale 2000-replicate submission no longer
// head-of-line-blocks small users who arrive after it.
func TestFairShareInterleavesUsers(t *testing.T) {
	c := newTestController(t, Config{MaxQueueDepth: 100})
	c.Push("heavy@example.edu", 2000, "h1")
	c.Push("heavy@example.edu", 2000, "h2")
	for _, u := range []string{"a", "b", "c"} {
		c.Push(u+"@example.edu", 1, u)
	}
	var order []string
	for e := c.Pop(); e != nil; e = c.Pop() {
		order = append(order, e.Payload.(string))
	}
	want := []string{"a", "b", "c", "h1", "h2"}
	if len(order) != len(want) {
		t.Fatalf("popped %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

// TestFairShareFIFOWithinUser checks entries from one user keep their
// arrival order: finish tags chain off the user's previous finish.
func TestFairShareFIFOWithinUser(t *testing.T) {
	c := newTestController(t, Config{MaxQueueDepth: 100})
	for i, cost := range []float64{5, 1, 3} {
		c.Push("u@example.edu", cost, i)
	}
	for want := 0; want < 3; want++ {
		e := c.Pop()
		if e == nil || e.Payload.(int) != want {
			t.Fatalf("pop %d returned %+v", want, e)
		}
	}
}

// TestZeroConfigServesArrivalOrder pins the unprotected queue: with
// the zero Config the same heavy-then-light arrivals that fair share
// reorders are served strictly in arrival order, also when pops
// interleave with pushes, and nothing is ever shed.
func TestZeroConfigServesArrivalOrder(t *testing.T) {
	c := newTestController(t, Config{})
	c.Push("heavy@example.edu", 2000, "h1")
	c.Push("heavy@example.edu", 2000, "h2")
	var order []string
	order = append(order, c.Pop().Payload.(string))
	for _, u := range []string{"a", "b", "c"} {
		c.Push(u+"@example.edu", 1, u)
	}
	c.Push("heavy@example.edu", 2000, "h3")
	if v, rej := c.Overflow(1e9); v != nil || rej != nil {
		t.Fatalf("zero config shed %v (%v)", v, rej)
	}
	for e := c.Pop(); e != nil; e = c.Pop() {
		order = append(order, e.Payload.(string))
	}
	want := []string{"h1", "h2", "a", "b", "c", "h3"}
	if len(order) != len(want) {
		t.Fatalf("popped %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

// TestFairShareVirtualTimeAdvances checks a user who went idle does
// not bank credit: their next entry starts at the served virtual time,
// not at their stale last finish.
func TestFairShareVirtualTimeAdvances(t *testing.T) {
	c := newTestController(t, Config{MaxQueueDepth: 100})
	c.Push("a@example.edu", 100, "a1")
	if e := c.Pop(); e.Payload.(string) != "a1" {
		t.Fatalf("unexpected pop %v", e.Payload)
	}
	// vtime is now 0 (a1 started at 0); push b then a again.
	c.Push("b@example.edu", 1, "b1")
	e := c.Pop()
	if e.Payload.(string) != "b1" {
		t.Fatalf("idle arrival lost to a stale tag: got %v", e.Payload)
	}
}

// TestQuotaRefillAndRetryAfter pins the token-bucket arithmetic on the
// virtual clock, including the deterministic retry hint.
func TestQuotaRefillAndRetryAfter(t *testing.T) {
	c := newTestController(t, Config{UserRatePerHour: 3600, UserBurst: 100})
	// Bucket starts full: 100 tokens, refilling 1/s.
	if rej := c.TakeQuota("u@x", 80, 0); rej != nil {
		t.Fatalf("first charge rejected: %v", rej)
	}
	// 20 left; 50 more should be refused with retry-after 30s.
	rej := c.TakeQuota("u@x", 50, 0)
	if rej == nil {
		t.Fatal("overdraft admitted")
	}
	if rej.Reason != ReasonQuota || rej.User != "u@x" {
		t.Fatalf("rejection %+v", rej)
	}
	if rej.RetryAfter != 30*sim.Second {
		t.Fatalf("RetryAfter = %v, want 30s", rej.RetryAfter)
	}
	// After 30 virtual seconds the same charge fits exactly.
	if rej := c.TakeQuota("u@x", 50, sim.Time(30*sim.Second)); rej != nil {
		t.Fatalf("post-refill charge rejected: %v", rej)
	}
	// Another user is untouched.
	if rej := c.TakeQuota("v@x", 100, 0); rej != nil {
		t.Fatalf("independent bucket rejected: %v", rej)
	}
}

// TestQuotaChargeCappedAtBurst checks a submission larger than the
// bucket drains a full bucket instead of being permanently refused.
func TestQuotaChargeCappedAtBurst(t *testing.T) {
	c := newTestController(t, Config{UserRatePerHour: 3600, UserBurst: 100})
	if rej := c.TakeQuota("u@x", 2000, 0); rej != nil {
		t.Fatalf("oversized charge against a full bucket rejected: %v", rej)
	}
	// Bucket is now empty; the next oversized charge needs a full
	// refill: 100 tokens at 1/s.
	rej := c.TakeQuota("u@x", 2000, 0)
	if rej == nil {
		t.Fatal("second oversized charge admitted against an empty bucket")
	}
	if rej.RetryAfter != 100*sim.Second {
		t.Fatalf("RetryAfter = %v, want 100s", rej.RetryAfter)
	}
}

// TestOverflowShedsLowestShare checks the shed policy evicts the
// largest finish tag — the entry whose owner holds the most queued
// service — and reports retry-after from the budget excess.
func TestOverflowShedsLowestShare(t *testing.T) {
	c := newTestController(t, Config{MaxQueuedSeconds: 10})
	c.Push("small@x", 4, "s1")
	c.Push("heavy@x", 9, "h1")
	// Projection 13s > 10s budget: the heavy entry (finish 9 vs 4)
	// is shed, not the small one.
	victim, rej := c.Overflow(0)
	if victim == nil || victim.Payload.(string) != "h1" {
		t.Fatalf("shed victim %+v, want h1", victim)
	}
	if rej.Reason != ReasonOverload {
		t.Fatalf("rejection %+v", rej)
	}
	if rej.RetryAfter != 3*sim.Second {
		t.Fatalf("RetryAfter = %v, want 3s (13s projected - 10s budget)", rej.RetryAfter)
	}
	if v, r := c.Overflow(0); v != nil || r != nil {
		t.Fatalf("queue still overflows after shed: %+v", v)
	}
	if e := c.Pop(); e == nil || e.Payload.(string) != "s1" {
		t.Fatalf("surviving entry %+v, want s1", e)
	}
}

// TestOverflowDepthBound checks the count bound sheds down to the
// configured depth and advises waiting out the projected backlog.
func TestOverflowDepthBound(t *testing.T) {
	c := newTestController(t, Config{MaxQueueDepth: 2})
	for i := 0; i < 4; i++ {
		c.Push("u@x", 5, i)
	}
	var shed int
	for {
		v, rej := c.Overflow(0)
		if v == nil {
			break
		}
		if rej.Reason != ReasonOverload || rej.RetryAfter < sim.Second {
			t.Fatalf("rejection %+v", rej)
		}
		shed++
	}
	if shed != 2 || c.Len() != 2 {
		t.Fatalf("shed %d leaving %d queued, want 2 and 2", shed, c.Len())
	}
}

// TestOverflowCountsBusyDoor checks the remaining service time at the
// door participates in the wait projection.
func TestOverflowCountsBusyDoor(t *testing.T) {
	c := newTestController(t, Config{MaxQueuedSeconds: 10})
	c.Push("u@x", 4, "e")
	if v, _ := c.Overflow(0); v != nil {
		t.Fatal("4s queue shed against a 10s budget with an idle door")
	}
	c.Push("u@x", 4, "f")
	if v, _ := c.Overflow(8); v == nil {
		t.Fatal("8s busy + 8s queued not shed against a 10s budget")
	}
}

// TestDeterministicReplay checks the controller is a pure function of
// its operation sequence: two controllers fed identical pushes, pops
// and quota charges agree on every decision.
func TestDeterministicReplay(t *testing.T) {
	cfg := Config{UserRatePerHour: 600, UserBurst: 50, MaxQueueDepth: 3, MaxQueuedSeconds: 40}
	run := func() []string {
		c := newTestController(t, cfg)
		var trace []string
		users := []string{"a@x", "b@x", "a@x", "c@x", "a@x", "b@x", "a@x"}
		for i, u := range users {
			cost := float64(1 + (i*7)%13)
			if rej := c.TakeQuota(u, cost, sim.Time(sim.Duration(i)*sim.Minute)); rej != nil {
				trace = append(trace, "quota:"+u)
				continue
			}
			c.Push(u, cost, i)
			for {
				v, _ := c.Overflow(5)
				if v == nil {
					break
				}
				trace = append(trace, "shed:"+v.User)
			}
			if i%3 == 2 {
				if e := c.Pop(); e != nil {
					trace = append(trace, "pop:"+e.User)
				}
			}
		}
		for e := c.Pop(); e != nil; e = c.Pop() {
			trace = append(trace, "drain:"+e.User)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("twin traces diverge: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("twin traces diverge at %d: %v vs %v", i, a, b)
		}
	}
	if len(a) == 0 {
		t.Fatal("trace empty; test exercised nothing")
	}
}

// TestConfigValidate pins the enable gate and rejection of negatives.
func TestConfigValidate(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(Config{MaxQueueDepth: 1}).Enabled() || !(Config{UserRatePerHour: 1}).Enabled() ||
		!(Config{MaxQueuedSeconds: 1}).Enabled() {
		t.Error("configured bound not reported enabled")
	}
	if _, err := NewController(Config{UserRatePerHour: -1}); err == nil {
		t.Error("negative rate accepted")
	}
	if err := DefaultConfig().Validate(); err != nil || !DefaultConfig().Enabled() {
		t.Error("DefaultConfig must validate and enable")
	}
}
