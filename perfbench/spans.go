package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one operation (a solve or a job) share Op; Parent is the ID
// of the enclosing span (0 at the root); Rank is the mesh rank that made the
// call (0 in a single process).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Op     int       `json:"op"`
	Rank   int       `json:"rank"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps spans in memory; they are written out once, when the
// benchmark ends, so recording never touches the disk mid-run.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID.
func (l *spanLog) add(op, parent, rank int, name string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Rank: rank, Name: name, Start: start, End: end})
	return id
}

// reserve returns an ID for a span whose end is not known yet, so its
// children can name it as parent; finish fills it in.
func (l *spanLog) reserve() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{})
	return len(l.spans)
}

func (l *spanLog) finish(id, op, parent, rank int, name string, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1] = span{ID: id, Parent: parent, Op: op, Rank: rank, Name: name, Start: start, End: end}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children.
func (l *spanLog) selfTimes() map[int]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(l.spans))
	for _, s := range l.spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := append([]span(nil), children...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start.Before(iv[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	open := false
	for _, c := range iv {
		s, e := c.Start, c.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		if open && !s.After(curE) {
			if e.After(curE) {
				curE = e
			}
			continue
		}
		if open {
			total += curE.Sub(curS)
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE.Sub(curS)
	}
	return total
}

// byName returns, in milliseconds and recording order, the self times of
// every span with the given name made by the given rank.
func (l *spanLog) byName(name string, rank int, self map[int]time.Duration) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.Rank == rank {
			out = append(out, ms(self[s.ID]))
		}
	}
	return out
}

// unattributed returns, per operation in milliseconds, the time its spans
// do not hand down to a child: the summed self time of every span that has
// children. Leaf spans are the layers, so this is the part of an
// operation's wall time no layer accounts for.
func (l *spanLog) unattributed(self map[int]time.Duration) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	hasKids := map[int]bool{}
	for _, s := range l.spans {
		hasKids[s.Parent] = true
	}
	perOp := map[int]time.Duration{}
	var ops []int
	for _, s := range l.spans {
		if _, seen := perOp[s.Op]; !seen {
			ops = append(ops, s.Op)
			perOp[s.Op] = 0
		}
		if hasKids[s.ID] {
			perOp[s.Op] += self[s.ID]
		}
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(perOp[op])
	}
	return out
}

// write dumps the spans as JSON lines into dir.
func (l *spanLog) write(dir, workload string, seed uint64) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
