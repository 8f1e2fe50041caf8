package des

import (
	"fmt"
	"slices"
	"testing"
)

// fuzzLookahead is the fuzz programs' lookahead. Every time they use is a
// multiple of a quarter of it, so equal timestamps are common and exact.
const fuzzLookahead = 1.0

// fuzzMaxEvents bounds the events one program creates, so every program
// terminates.
const fuzzMaxEvents = 400

// fuzzProgram is one engine's run of a fuzz input. The input's header sets
// the partition count, the opening events, the posts made before Run and
// the budget rounds; each event, when it runs, reads its next op from the
// rest of the input. Both engines read the same bytes, so equal dispatch
// orders give equal logs.
type fuzzProgram struct {
	e      engine
	parts  int
	data   []byte
	pos    int
	events int
	logs   [][]string
}

func (p *fuzzProgram) next() int {
	if p.pos >= len(p.data) {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return int(b)
}

// quarter returns n quarter-lookaheads.
func quarter(n int) float64 { return float64(n) * fuzzLookahead / 4 }

// event returns a new event that runs on partition part and logs there.
func (p *fuzzProgram) event(part int) func() {
	id := p.events
	p.events++
	return func() {
		s := p.e.Sim(part)
		p.logs[part] = append(p.logs[part], fmt.Sprintf("e%d@%g", id, s.Now()))
		if p.events >= fuzzMaxEvents {
			return
		}
		switch op := p.next(); op % 6 {
		case 0: // leaf
		case 1: // local successor, possibly at the same instant
			s.After(quarter(p.next()%9), p.event(part))
		case 2, 3: // cross-partition post at one lookahead or more
			dst := p.next() % p.parts
			p.e.Post(part, dst, s.Now()+fuzzLookahead+quarter(p.next()%5), p.event(dst))
			if op%6 == 3 {
				s.After(quarter(p.next()%5), p.event(part))
			}
		case 4: // two posts to one destination at one instant
			dst := p.next() % p.parts
			at := s.Now() + fuzzLookahead + quarter(p.next()%3)
			p.e.Post(part, dst, at, p.event(dst))
			p.e.Post(part, dst, at, p.event(dst))
		case 5: // a post that may land inside the window
			p.logs[part] = append(p.logs[part], "post "+p.tryPost(part, s.Now()+quarter(p.next()%4)))
		}
	}
}

// tryPost posts to partition 0 at at and reports whether Post panicked.
func (p *fuzzProgram) tryPost(src int, at float64) (outcome string) {
	defer func() {
		if recover() != nil {
			outcome = "panicked"
		}
	}()
	p.e.Post(src, 0, at, p.event(0))
	return "ok"
}

// runFuzzProgram drives e through data's program and returns the state
// after each Run: every partition's log, Dispatched and BudgetExhausted. It
// fails t when a Run reports an exhausted budget with no event pending.
func runFuzzProgram(t *testing.T, e engine, parts int, data []byte) []string {
	p := &fuzzProgram{e: e, parts: parts, data: data, logs: make([][]string, parts)}
	for n := p.next() % 8; n > 0; n-- {
		part := p.next() % parts
		e.Sim(part).At(quarter(p.next()%8), p.event(part))
	}
	// Posts before Run, from several sources in the order the input gives.
	for n := p.next() % 8; n > 0; n-- {
		src, dst := p.next()%parts, p.next()%parts
		e.Post(src, dst, quarter(p.next()%8), p.event(dst))
	}
	var states []string
	for rounds := 1 + p.next()%3; rounds > 0; rounds-- {
		// A pause after up to 63 more events; the last round runs to the
		// end.
		budget := e.Dispatched() + uint64(p.next()%64)
		if rounds == 1 {
			budget = 0
		}
		e.SetEventBudget(budget)
		if msg := run(e); msg != "" {
			return append(states, msg)
		}
		if e.BudgetExhausted() && !pending(e, parts) {
			t.Fatalf("%T, %d partitions: Run %d reports an exhausted budget with no event pending",
				e, parts, len(states)+1)
		}
		states = append(states, fmt.Sprintf("dispatched %d exhausted %v logs %q", e.Dispatched(), e.BudgetExhausted(), p.logs))
		if rounds == 1 {
			break
		}
		// Posts made during the pause, one lookahead past every
		// partition's clock, from several sources.
		latest := 0.0
		for i := range parts {
			latest = max(latest, e.Sim(i).Now())
		}
		for n := p.next() % 4; n > 0; n-- {
			src, dst := p.next()%parts, p.next()%parts
			e.Post(src, dst, latest+fuzzLookahead+quarter(p.next()%3), p.event(dst))
		}
	}
	return states
}

// pending reports whether any of e's partitions holds an event.
func pending(e engine, parts int) bool {
	for i := range parts {
		if _, ok := e.Sim(i).NextEventAt(); ok {
			return true
		}
	}
	return false
}

// run runs e and returns the message of a panic that escapes Run, or "".
func run(e engine) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint("Run panicked: ", r)
		}
	}()
	e.Run()
	return ""
}

// FuzzPartitionedMatchesReference checks the engine against the reference
// window loop (refPartitioned) on random programs over 1–8 partitions:
// local events, cross-partition posts at one lookahead or more with
// equal-timestamp ties from several sources, posts before Run and during a
// budget pause in arbitrary source order, and budget pauses with resume.
// After every Run each partition's event log, Dispatched and
// BudgetExhausted must agree, and an exhausted budget must leave an event
// pending. A post inside the window must panic on both.
func FuzzPartitionedMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		parts := 1 + int(data[0])%8
		got := runFuzzProgram(t, NewPartitioned(parts, 1, fuzzLookahead), parts, data[1:])
		want := runFuzzProgram(t, newRefPartitioned(parts, fuzzLookahead), parts, data[1:])
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("%d partitions, after Run %d:\n engine    %s\n reference %s", parts, i+1, got[i], want[i])
				}
			}
			t.Fatalf("%d partitions: engine made %d Runs, reference %d", parts, len(got), len(want))
		}
	})
}
