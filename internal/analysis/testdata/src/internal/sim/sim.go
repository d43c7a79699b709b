// Package sim is the nilgate analyzer's fixture: capture calls on
// telemetry probes, histograms, trace sinks and health monitors, gated
// and ungated.
package sim

import (
	"fakes/dectrace"
	"fakes/health"
	"fakes/telemetry"
)

type simulation struct {
	tel     *telemetry.Probe
	hist    *telemetry.Histogram
	trace   dectrace.Sink
	monitor *health.Monitor
}

func ungatedProbe(s *simulation) {
	s.tel.Record(telemetry.Point{}) // want "not dominated by a nil check"
}

func gatedProbe(s *simulation, now float64) {
	if s.tel != nil {
		s.tel.Record(telemetry.Point{Time: now})
	}
}

func earlyReturn(s *simulation, now float64) {
	if s.tel == nil {
		return
	}
	s.tel.Record(telemetry.Point{Time: now})
}

// orChain is the engines' combined gate: the short-circuit makes the
// in-condition Due call safe, and a false condition proves the probe
// non-nil for the rest of the function.
func orChain(s *simulation, now float64) {
	if s.tel == nil || !s.tel.Due(now) {
		return
	}
	s.tel.Record(telemetry.Point{Time: now})
	s.tel.Record(telemetry.Point{Time: now + 1})
}

func ungatedSink(s *simulation) {
	s.trace.Observe(&dectrace.Record{}) // want "not dominated by a nil check"
}

func gatedSink(s *simulation) {
	if s.trace != nil {
		s.trace.Observe(&dectrace.Record{Seq: 1})
	}
}

func ungatedHistogram(s *simulation) {
	s.hist.Observe(1) // want "not dominated by a nil check"
}

// resolvedOnce is the documented idiom: histograms resolved from the
// probe at construction are covered by the probe's own nil gate.
func resolvedOnce(s *simulation, now float64) {
	if s.tel != nil {
		s.hist.Observe(now)
	}
}

// gatedClosure builds its capture closure inside the gate; the literal
// inherits the dominating check.
func gatedClosure(s *simulation, now float64) func() {
	if s.tel == nil {
		return func() {}
	}
	return func() { s.tel.Record(telemetry.Point{Time: now}) }
}

func ungatedMonitor(s *simulation) {
	s.monitor.Observe(telemetry.Point{}) // want "not dominated by a nil check"
}

func gatedMonitor(s *simulation, now float64) {
	if s.monitor != nil {
		s.monitor.Observe(telemetry.Point{Time: now})
	}
}

// earlyReturnMonitor is the engines' health capture idiom: a local
// resolved from the config, gated by an early return.
func earlyReturnMonitor(s *simulation, now float64) {
	h := s.monitor
	if h == nil {
		return
	}
	h.Observe(telemetry.Point{Time: now})
}

// freshHistogram is assigned from a never-nil constructor.
func freshHistogram() {
	h := telemetry.NewHistogram()
	h.Observe(1)
}
