package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// The exporters hand-format every record instead of using encoding/json or
// reflection: field order, number formatting, and line endings are part of
// the determinism contract (a trace is a diffable artifact), so nothing may
// depend on struct tags or map iteration.

// appendEvent renders one event as a JSON object with a fixed field order.
func appendEvent(buf []byte, e Event) []byte {
	buf = append(buf, `{"t":`...)
	buf = strconv.AppendInt(buf, int64(e.T), 10)
	buf = append(buf, `,"class":"`...)
	buf = append(buf, e.Class.String()...)
	buf = append(buf, `","sub":"`...)
	buf = append(buf, e.Sub.String()...)
	buf = append(buf, `","seg":`...)
	buf = strconv.AppendInt(buf, int64(e.Seg), 10)
	buf = append(buf, `,"page":`...)
	buf = strconv.AppendInt(buf, int64(e.Page), 10)
	buf = append(buf, `,"bytes":`...)
	buf = strconv.AppendInt(buf, e.Bytes, 10)
	buf = append(buf, `,"dur":`...)
	buf = strconv.AppendInt(buf, int64(e.Dur), 10)
	buf = append(buf, `,"aux":`...)
	buf = strconv.AppendInt(buf, e.Aux, 10)
	buf = append(buf, "}\n"...)
	return buf
}

// WriteEventsJSONL renders events as one JSON object per line, fields in
// fixed order (t, class, sub, seg, page, bytes, dur, aux), durations and
// timestamps as integer virtual nanoseconds.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	buf := make([]byte, 0, 128)
	for _, e := range events {
		buf = appendEvent(buf[:0], e)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ExportEventsJSONL is the commands' -events flag: WriteEventsJSONL to the
// file at path, to stdout when path is "-", nowhere when it is empty.
func ExportEventsJSONL(path string, stdout io.Writer, events []Event) error {
	switch path {
	case "":
		return nil
	case "-":
		return WriteEventsJSONL(stdout, events)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	return errors.Join(WriteEventsJSONL(w, events), w.Flush(), f.Close())
}

// WriteEventsCSV renders events as CSV with a header row, same field order
// as the JSONL exporter.
func WriteEventsCSV(w io.Writer, events []Event) error {
	if _, err := io.WriteString(w, "t,class,sub,seg,page,bytes,dur,aux\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 96)
	for _, e := range events {
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(e.T), 10)
		buf = append(buf, ',')
		buf = append(buf, e.Class.String()...)
		buf = append(buf, ',')
		buf = append(buf, e.Sub.String()...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.Seg), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.Page), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, e.Bytes, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.Dur), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, e.Aux, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteTimeline renders events as an aligned human-readable table, one line
// per event, timestamps and durations as time.Durations of virtual time. It
// is the view `cctrace -timeline` prints.
func WriteTimeline(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintf(w, "%14s  %-8s %-10s %6s %8s %9s %12s %6s\n",
		"t", "sub", "class", "seg", "page", "bytes", "dur", "aux"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%14s  %-8s %-10s %6d %8d %9d %12s %6d\n",
			time.Duration(e.T), e.Sub, e.Class, e.Seg, e.Page, e.Bytes, e.Dur, e.Aux); err != nil {
			return err
		}
	}
	return nil
}

// ClassCounts tallies events per class, indexed by class bit — the summary
// view's input. The fixed array keeps iteration order identical to the class
// declaration order.
func ClassCounts(events []Event) [classCount]uint64 {
	var counts [classCount]uint64
	for _, e := range events {
		for i := 0; i < classCount; i++ {
			if e.Class&(1<<i) != 0 {
				counts[i]++
			}
		}
	}
	return counts
}

// WriteClassSummary renders the per-class event counts (classes with no
// events omitted) in class declaration order.
func WriteClassSummary(w io.Writer, events []Event) error {
	counts := ClassCounts(events)
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-12s %d\n", classNames[i], n); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the snapshot as three CSV sections (counters, gauges,
// histograms), each name-sorted by construction of Snapshot.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	if _, err := io.WriteString(w, "kind,name,value\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 96)
	for _, c := range s.Counters {
		buf = append(buf[:0], "counter,"...)
		buf = append(buf, c.Name...)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, c.Value, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		buf = append(buf[:0], "gauge,"...)
		buf = append(buf, g.Name...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, g.Value, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		buf = append(buf[:0], "hist,"...)
		buf = append(buf, h.Name...)
		buf = append(buf, ",count="...)
		buf = strconv.AppendUint(buf, h.Count, 10)
		buf = append(buf, " sum="...)
		buf = strconv.AppendInt(buf, int64(h.Sum), 10)
		buf = append(buf, " min="...)
		buf = strconv.AppendInt(buf, int64(h.Min), 10)
		buf = append(buf, " max="...)
		buf = strconv.AppendInt(buf, int64(h.Max), 10)
		for _, b := range h.Buckets {
			buf = append(buf, " le["...)
			buf = strconv.AppendInt(buf, int64(b.Le), 10)
			buf = append(buf, "]="...)
			buf = strconv.AppendUint(buf, b.Count, 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// String renders the snapshot via WriteCSV; convenient for tests and debug
// output.
func (s *Snapshot) String() string {
	if s == nil {
		return ""
	}
	var sb stringWriter
	_ = s.WriteCSV(&sb)
	return string(sb)
}

type stringWriter []byte

func (w *stringWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}
