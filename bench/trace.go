package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanKind names a layer boundary the benchmark records spans at. Spans
// are recorded from the benchmark's own files, around the calls into each
// layer; nothing inside the program is instrumented.
type spanKind uint8

const (
	spPass       spanKind = iota // bench: one pass over a simulator workload's cells
	spCell                       // bench: one cell (generate + run + check)
	spGenerate                   // workload.Generate
	spSimRun                     // sim.Run
	spPolicy                     // core: one policy call (1 in 64 kept as exemplar)
	spCycle                      // bench: one driver cycle or session lifecycle
	spDial                       // client: server.Dial
	spRequestIO                  // client: Client.RequestIO
	spWait                       // client: Client.WaitForBandwidth
	spCompleteIO                 // client: Client.CompleteIO
	spClose                      // client: Client.Close
	spConnRead                   // server side of a connection: Read
	spConnWrite                  // server side of a connection: Write
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"pass", "cell", "workload.Generate", "sim.Run", "core.Allocate", "cycle",
	"client.Dial", "client.RequestIO", "client.WaitForBandwidth", "client.CompleteIO",
	"client.Close", "server.conn.Read", "server.conn.Write",
}

// span is one recorded interval. Parent is the index of the span that
// caused it in the same file, -1 for a root; Op is the cell index or the
// driver's cycle number, shared by all spans of one operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// traceEpoch is the zero of every span timestamp in this process.
var traceEpoch = time.Now()

func nowNS() int64 { return int64(time.Since(traceEpoch)) }

// maxSpansPerRecorder caps what one recorder keeps: the totals below
// cover every span, the file only the first ones.
const maxSpansPerRecorder = 1 << 14

// recorder is one goroutine's span buffer. It keeps a stack of open
// spans, so a span's self time (its duration minus the part its children
// cover) is settled when it closes, for every span — also those beyond
// the cap, which are counted but not kept. A nil recorder records nothing.
type recorder struct {
	spans []span
	open  []openSpan
	count [nSpanKinds]int64
	total [nSpanKinds]int64 // ns
	self  [nSpanKinds]int64 // ns
}

type openSpan struct {
	kind     spanKind
	start    int64
	op       int64
	index    int32 // position in spans, -1 when beyond the cap
	children int64 // ns covered by closed child spans
}

func newRecorder() *recorder {
	return &recorder{spans: make([]span, 0, 1024), open: make([]openSpan, 0, 8)}
}

// begin opens a span as a child of the innermost open one.
func (r *recorder) begin(kind spanKind, op int64) {
	if r == nil {
		return
	}
	o := openSpan{kind: kind, start: nowNS(), op: op, index: -1}
	if len(r.spans) < maxSpansPerRecorder {
		parent := int32(-1)
		if n := len(r.open); n > 0 {
			parent = r.open[n-1].index
		}
		o.index = int32(len(r.spans))
		r.spans = append(r.spans, span{Name: spanNames[kind], Start: o.start, Parent: parent, Op: op})
	}
	r.open = append(r.open, o)
}

// end closes the innermost open span and returns its duration in ns.
func (r *recorder) end() int64 {
	if r == nil {
		return 0
	}
	n := len(r.open) - 1
	o := r.open[n]
	r.open = r.open[:n]
	now := nowNS()
	d := now - o.start
	if o.index >= 0 {
		r.spans[o.index].End = now
	}
	r.count[o.kind]++
	r.total[o.kind] += d
	r.self[o.kind] += d - o.children
	if n > 0 {
		r.open[n-1].children += d
	}
	return d
}

// currentIndex is the file position of the innermost open span (-1 when
// none is kept), for spans recorded elsewhere that it caused.
func (r *recorder) currentIndex() int32 {
	if r == nil || len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1].index
}

// merge folds other into r. Spans keep their parent links: other's
// indices shift by the number of spans r already holds.
func (r *recorder) merge(other *recorder) {
	if other == nil {
		return
	}
	shift := int32(len(r.spans))
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += shift
		}
		r.spans = append(r.spans, s)
	}
	for k := range r.count {
		r.count[k] += other.count[k]
		r.total[k] += other.total[k]
		r.self[k] += other.self[k]
	}
}

// traceFile is what lands in bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Totals cover every span of the traced window; Spans holds at most
	// maxSpansPerRecorder per recording goroutine.
	Totals []spanTotal `json:"totals"`
	Spans  []span      `json:"spans"`
}

type spanTotal struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// write stores the recorder's spans under bench/out. Nothing is written
// while a workload runs; this is called after its window closed.
func (r *recorder) write(name string, seed int64) (string, error) {
	f := traceFile{Workload: name, Seed: seed, Spans: r.spans}
	for k := spanKind(0); k < nSpanKinds; k++ {
		if r.count[k] > 0 {
			f.Totals = append(f.Totals, spanTotal{spanNames[k], r.count[k], r.total[k], r.self[k]})
		}
	}
	b, err := json.Marshal(&f)
	if err != nil {
		return "", err
	}
	dir := filepath.Join("bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".json")
	return path, os.WriteFile(path, b, 0o644)
}
