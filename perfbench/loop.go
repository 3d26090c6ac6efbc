package main

import (
	"context"
	"sync"
	"time"
)

// timing is one open-loop op's timeline. due is when the schedule said
// to send it; sent is when the generator did.
type timing struct {
	due, sent, done time.Time
	err             error
}

// latency is measured from the due time, so time an op spent waiting
// behind a stall — of the generator or of earlier ops — counts.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// lag is how late the generator sent the op.
func (t timing) lag() time.Duration { return t.sent.Sub(t.due) }

// runOpen sends op i at start+dues[i] whatever the earlier ops are
// doing, with at most maxInFlight ops outstanding (an op past the cap
// waits, and the wait shows as lag and latency). It returns once every
// sent op has finished. Ops not yet sent when ctx ends are reported with
// ctx's error.
func runOpen(ctx context.Context, start time.Time, dues []time.Duration, maxInFlight int, exec func(i int) error) []timing {
	out := make([]timing, len(dues))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for i, d := range dues {
		out[i].due = start.Add(d)
		if wait := time.Until(out[i].due); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		select {
		case <-ctx.Done():
		case sem <- struct{}{}:
		}
		if ctx.Err() != nil {
			for j := i; j < len(dues); j++ {
				out[j].due = start.Add(dues[j])
				out[j].err = ctx.Err()
			}
			break
		}
		out[i].sent = time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].err = exec(i)
			out[i].done = time.Now()
			<-sem
		}(i)
	}
	wg.Wait()
	return out
}
