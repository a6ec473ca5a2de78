package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"castencil/internal/ptg"
)

// csvHeader is the column layout of the on-disk trace format. The "stolen"
// column (see Event.Stolen) was added with the work-stealing scheduler and
// the "msgs"/"bytes" comm-counter columns with halo-bundle coalescing;
// ReadCSV still accepts the earlier nine- and ten-column files.
var csvHeader = []string{"class", "i", "j", "k", "kind", "node", "core", "start_ns", "end_ns", "stolen", "msgs", "bytes"}

// csvWidths lists the accepted column counts, newest first: the full
// format, the pre-comm-counter format, and the pre-stolen format.
var csvWidths = []int{len(csvHeader), len(csvHeader) - 2, len(csvHeader) - 3}

// WriteCSV serializes the trace (sorted by start time) for later rendering
// with cmd/traceview.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, e := range t.Events() {
		stolen := "0"
		if e.Stolen {
			stolen = "1"
		}
		rec := []string{
			e.ID.Class,
			strconv.Itoa(e.ID.I), strconv.Itoa(e.ID.J), strconv.Itoa(e.ID.K),
			strconv.Itoa(int(e.Kind)),
			strconv.Itoa(int(e.Node)), strconv.Itoa(int(e.Core)),
			strconv.FormatInt(int64(e.Start), 10), strconv.FormatInt(int64(e.End), 10),
			stolen,
			strconv.Itoa(e.Msgs), strconv.Itoa(e.Bytes),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads a trace previously written with WriteCSV, accepting every
// historical width: nine columns (pre-"stolen"), ten (pre-comm-counter) and
// the current twelve.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	widthOK := false
	for _, w := range csvWidths {
		if len(rows[0]) == w {
			widthOK = true
		}
	}
	if !widthOK || rows[0][0] != "class" {
		return nil, fmt.Errorf("trace: unrecognized header %v (want %d, %d or %d columns starting with %q)",
			rows[0], csvWidths[2], csvWidths[1], csvWidths[0], "class")
	}
	t := New()
	for ln, rec := range rows[1:] {
		if len(rec) != len(rows[0]) {
			return nil, fmt.Errorf("trace: line %d has %d columns, want %d", ln+2, len(rec), len(rows[0]))
		}
		ints := make([]int64, 8)
		for i := 1; i < 9; i++ {
			v, err := strconv.ParseInt(rec[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d column %s: %v", ln+2, csvHeader[i], err)
			}
			ints[i-1] = v
		}
		// Trailing columns are optional by format generation.
		opt := func(col int) (int64, error) {
			if len(rec) <= col {
				return 0, nil
			}
			v, err := strconv.ParseInt(rec[col], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("trace: line %d column %s: %v", ln+2, csvHeader[col], err)
			}
			return v, nil
		}
		stolen, err := opt(9)
		if err != nil {
			return nil, err
		}
		msgs, err := opt(10)
		if err != nil {
			return nil, err
		}
		bytes, err := opt(11)
		if err != nil {
			return nil, err
		}
		t.Record(Event{
			ID:     ptg.TaskID{Class: rec[0], I: int(ints[0]), J: int(ints[1]), K: int(ints[2])},
			Kind:   ptg.Kind(ints[3]),
			Node:   int32(ints[4]),
			Core:   int32(ints[5]),
			Start:  timeDuration(ints[6]),
			End:    timeDuration(ints[7]),
			Stolen: stolen != 0,
			Msgs:   int(msgs),
			Bytes:  int(bytes),
		})
	}
	return t, nil
}

// MaxCore returns the largest core index seen plus one (the implied core
// count for rendering), and the set of node ids present.
func (t *Trace) MaxCore() (cores int, nodes []int32) {
	seen := map[int32]bool{}
	for _, e := range t.Events() {
		if int(e.Core) >= cores {
			cores = int(e.Core) + 1
		}
		if !seen[e.Node] {
			seen[e.Node] = true
			nodes = append(nodes, e.Node)
		}
	}
	return cores, nodes
}
