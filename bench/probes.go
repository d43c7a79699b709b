package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/platform"
	"repro/internal/server"
	"repro/internal/sim"
)

// The probes time one layer alone, outside any engine. Their numbers do
// not depend on the workload; they calibrate the machine and show what a
// change to that layer can save at most.

// perCall runs fn in batches of n until about budget has passed and
// returns the median batch time per call, in ns.
func perCall(budget time.Duration, n int, fn func()) float64 {
	var batches []float64
	deadline := time.Now().Add(budget)
	for len(batches) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches = append(batches, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(batches)
}

// probeBudget is how long one probe measures.
func probeBudget(o options) time.Duration {
	if o.smoke {
		return 2 * time.Millisecond
	}
	return 40 * time.Millisecond
}

// probeCore times one MaxSysEff decision over n synthetic candidates whose
// demand is twice the capacity, so the policy sorts and the greedy walk
// stops half way — the congested case. No end-to-end workload runs
// n = 1024 today, so this is the only place an O(n log n) change shows.
func probeCore(o options, n int) float64 {
	rng := rand.New(rand.NewSource(o.seed + int64(n)))
	views := make([]*core.AppView, n)
	for i := range views {
		work := 100 + 900*rng.Float64()
		views[i] = &core.AppView{
			ID:            i,
			Nodes:         64,
			Phase:         core.Pending,
			RemVolume:     10 + 90*rng.Float64(),
			Release:       rng.Float64(),
			LastIOEnd:     50 * rng.Float64(),
			CreditedWork:  work,
			CreditedIdeal: work * (1.1 + 0.4*rng.Float64()),
		}
	}
	capacity := core.Capacity{TotalBW: float64(n) * 64 * 0.0125 / 2, NodeBW: 0.0125}
	policy := core.MaxSysEff()
	var scr core.Scratch
	batch := max(1, 4096/n)
	return perCall(probeBudget(o), batch, func() {
		if len(core.AllocateWith(policy, &scr, 1000, views, capacity)) == 0 {
			panic("bench: core probe granted nothing")
		}
	})
}

// probeDes replays the event kernel's share of a workload outside the
// engine, the way the engine uses it: per run, one timer per application,
// armed at its release in one ArmAll, and moved by its own callback to each
// of the application's later compute completions (I/O time left out) until
// StepDue has drained them all. It returns the time per timer firing and,
// separately, the cost of one Reschedule on a 100k-timer heap. Both are
// labelled replayed: the engine's own heap traffic cannot be seen from
// outside.
func probeDes(o options, runs []sim.Config) (armDrainNS, rescheduleNS float64) {
	fired := 0
	replay := func(apps []*platform.App) {
		var e des.Engine
		var handles []des.Handle
		arms := make([]des.Arm, len(apps))
		at := make([]float64, len(apps))
		next := make([]int, len(apps))
		for i, a := range apps {
			at[i] = a.Release
			arms[i] = des.Arm{At: a.Release, Fn: func() {
				fired++
				if k := next[i]; k < len(a.Instances) {
					next[i]++
					at[i] += a.Instances[k].Work
					e.Reschedule(handles[i], at[i])
				}
			}}
		}
		handles = e.ArmAll(arms)
		for e.StepDue(math.Inf(1)) {
		}
	}
	total := perCall(probeBudget(o), 1, func() {
		fired = 0
		for i := range runs {
			replay(runs[i].Apps)
		}
	})
	armDrainNS = total / float64(max(fired, 1))

	heap := 100_000
	if o.smoke {
		heap = 10_000
	}
	var e des.Engine
	arms := make([]des.Arm, heap)
	for i := range arms {
		arms[i] = des.Arm{At: float64(uint32(i)*2654435761%1_000_000) / 1000, Fn: func() {}}
	}
	handles := e.ArmAll(arms)
	next := 0
	rescheduleNS = perCall(probeBudget(o), 1024, func() {
		next = (next + 7919) % heap
		e.Reschedule(handles[next], float64(uint32(next)*40503%1_000_000)/500)
	})
	return armDrainNS, rescheduleNS
}

// probeCodec times the wire codec on the public server.Message, mirroring
// the unexported encode (Marshal + newline) and decode (Unmarshal +
// Validate) of internal/server.
func probeCodec(o options, r *result) error {
	kinds := []struct {
		name string
		msg  server.Message
	}{
		{"grant", server.Message{Type: server.TypeGrant, AppID: 17, BW: 0.38629032258064516, Seq: 123456}},
		{"request", server.Message{Type: server.TypeRequest, Volume: 1, Work: 812.25, IdealTime: 1012.5}},
		{"hello", server.Message{Type: server.TypeHello, AppID: 17, Nodes: 64}},
	}
	for _, k := range kinds {
		line, err := json.Marshal(&k.msg)
		if err != nil {
			return err
		}
		var codecErr error
		enc := perCall(probeBudget(o), 256, func() {
			b, err := json.Marshal(&k.msg)
			if err != nil {
				codecErr = err
			}
			_ = append(b, '\n')
		})
		dec := perCall(probeBudget(o), 256, func() {
			var m server.Message
			if err := json.Unmarshal(line, &m); err != nil {
				codecErr = err
			} else if err := m.Validate(); err != nil {
				codecErr = err
			}
		})
		if codecErr != nil {
			return fmt.Errorf("codec probe, %s: %w", k.name, codecErr)
		}
		r.set("server.codec_encode_ns."+k.name, enc, 1)
		r.set("server.codec_decode_ns."+k.name, dec, 1)
	}
	return nil
}

// probeLoopback echoes a 64-byte line over a loopback TCP pair inside
// this process and returns the median round trip in µs: the floor under
// any request→grant latency on this machine.
func probeLoopback(o options) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoDone := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoDone <- err
			return
		}
		defer c.Close()
		rd := bufio.NewReader(c)
		for {
			line, err := rd.ReadBytes('\n')
			if err != nil {
				echoDone <- nil // the client closed: done
				return
			}
			if _, err := c.Write(line); err != nil {
				echoDone <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	line := make([]byte, 64)
	for i := range line {
		line[i] = 'x'
	}
	line[63] = '\n'
	rd := bufio.NewReader(c)
	trips := 2000
	if o.smoke {
		trips = 200
	}
	us := make([]float64, 0, trips)
	for i := 0; i < trips; i++ {
		start := time.Now()
		if _, err := c.Write(line); err != nil {
			c.Close()
			return 0, err
		}
		if _, err := rd.ReadBytes('\n'); err != nil {
			c.Close()
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	c.Close()
	if err := <-echoDone; err != nil {
		return 0, err
	}
	return median(us), nil
}
