package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress reports slices-done / ETA / sim-MIPS for long sweeps. It is
// safe for concurrent Report calls from worker goroutines and throttles
// terminal output.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	label string

	done      int
	resumed   int // done at the first report: restored, not simulated
	total     int
	insts     uint64
	start     time.Time // the first report
	lastPrint time.Time
	now       func() time.Time // injectable clock for tests
}

// NewProgress builds a reporter writing to w (typically os.Stderr).
func NewProgress(w io.Writer, label string) *Progress {
	return &Progress{w: w, label: label, now: time.Now}
}

// Report records that done of total units are finished, the latest
// covering insts simulated instructions. It has the shape of a sweep's
// progress hook (experiments.WithProgressFunc): the first call carries
// the units restored from a checkpoint, and concurrent workers may
// deliver later counts out of order, so done only ever rises.
func (p *Progress) Report(done, total int, insts uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		p.start, p.resumed = p.now(), done
	}
	p.done, p.total = max(p.done, done), total
	p.insts += insts
	now := p.now()
	if now.Sub(p.lastPrint) < 200*time.Millisecond && p.done != p.total {
		return
	}
	p.lastPrint = now
	p.print(now)
}

// Finish prints the final line and a newline terminator.
func (p *Progress) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.print(p.now())
	fmt.Fprintln(p.w)
}

func (p *Progress) print(now time.Time) {
	elapsed := now.Sub(p.start).Seconds()
	mips := 0.0
	if elapsed > 0 {
		mips = float64(p.insts) / elapsed / 1e6
	}
	eta := "--"
	if ran := p.done - p.resumed; ran > 0 && p.done < p.total {
		remain := elapsed / float64(ran) * float64(p.total-p.done)
		eta = (time.Duration(remain*1000) * time.Millisecond).Round(time.Second).String()
	}
	pct := 0
	if p.total > 0 {
		pct = p.done * 100 / p.total
	}
	fmt.Fprintf(p.w, "\r%s: %d/%d (%d%%) | %.2f sim-MIPS | ETA %s   ",
		p.label, p.done, p.total, pct, mips, eta)
}
