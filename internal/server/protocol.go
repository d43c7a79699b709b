// Package server turns the paper's global I/O scheduler into a deployable
// network service: applications connect over TCP, announce their node
// count, and ask permission before every I/O phase; the server runs one of
// the core scheduling policies and pushes bandwidth grants back. This is
// the production shape of the paper's Section 5 prototype ("one separate
// thread acts as the scheduler and receives I/O requests for all groups"),
// generalized from an in-job thread to a machine-level daemon.
//
// The wire protocol is newline-delimited JSON, one message per line, so a
// client can be written in any language (or driven with netcat for
// debugging). All bandwidths are GiB/s, volumes GiB, durations seconds.
package server

import "fmt"

// Message types. Clients send hello/request/progress/complete/bye;
// the server sends welcome/grant/error.
const (
	// TypeHello registers an application: AppID, Nodes, and optionally
	// Work and IdealTime per upcoming instance for efficiency accounting.
	TypeHello = "hello"
	// TypeWelcome acknowledges a successful registration. It is the first
	// message the server sends on a connection, before any grant, so a
	// client can treat registration as synchronous: a duplicate app ID or
	// malformed hello is answered with an error instead.
	TypeWelcome = "welcome"
	// TypeRequest asks to start an I/O phase of Volume GiB; Work is the
	// computation completed since the previous phase, IdealTime the
	// dedicated-mode duration of the instance (both feed the policy's
	// efficiency bookkeeping).
	TypeRequest = "request"
	// TypeProgress informs the server of remaining volume mid-transfer
	// (clients send it if they throttle locally; optional).
	TypeProgress = "progress"
	// TypeComplete reports the I/O phase done.
	TypeComplete = "complete"
	// TypeBye deregisters the application.
	TypeBye = "bye"
	// TypeGrant is the server's bandwidth assignment push. BW = 0 means
	// the application must stall until the next grant.
	TypeGrant = "grant"
	// TypeError reports a protocol violation; the connection closes
	// afterwards.
	TypeError = "error"
)

// PhaseSpec is one announced compute-then-I/O instance: WorkS seconds of
// computation followed by a transfer of VolumeGiB. A hello carrying a
// profile makes the application's remaining work reconstructible, which
// is what lets the digital twin (internal/twin) fast-forward a live
// daemon snapshot through the simulator.
type PhaseSpec struct {
	WorkS     float64 `json:"work_s"`
	VolumeGiB float64 `json:"volume_gib"`
}

// Message is the single frame type used in both directions; unused fields
// are omitted on the wire.
type Message struct {
	Type  string `json:"type"`
	AppID int    `json:"app_id,omitempty"`

	// Hello fields. Profile optionally announces the application's
	// compute/I-O phase plan for forecasting; the daemon schedules
	// identically with or without it.
	Nodes   int         `json:"nodes,omitempty"`
	Profile []PhaseSpec `json:"profile,omitempty"`

	// Request/progress fields.
	Volume    float64 `json:"volume_gib,omitempty"`
	Work      float64 `json:"work_s,omitempty"`
	IdealTime float64 `json:"ideal_s,omitempty"`

	// Grant fields.
	BW float64 `json:"bw_gibs,omitempty"`
	// Seq is the per-session grant sequence: it increases by one with
	// every grant written to this application, without gaps, so a
	// client applying grants in arrival order can never regress to an
	// older allocation round's value (and can discard any stale
	// duplicate defensively). Delivery is latest-value: a client needs
	// only the allocation it was last told, so a verdict superseded
	// before its session's writer reached it is never written, nor is
	// one equal to the value the client already holds. The exception
	// is the answer to a request (or registration): a request is always
	// answered once, by one grant line, even when it carries a zero or
	// the value the client already holds; verdicts decided before that
	// line leaves fold into it.
	Seq uint64 `json:"seq,omitempty"`

	// Error field.
	Err string `json:"err,omitempty"`
}

// Validate checks the message against its declared type.
func (m *Message) Validate() error {
	switch m.Type {
	case TypeHello:
		if m.Nodes <= 0 {
			return fmt.Errorf("server: hello with nodes = %d", m.Nodes)
		}
		for i, ph := range m.Profile {
			if ph.WorkS < 0 || ph.VolumeGiB < 0 {
				return fmt.Errorf("server: hello profile phase %d is negative (work %g, volume %g)",
					i, ph.WorkS, ph.VolumeGiB)
			}
			if ph.WorkS == 0 && ph.VolumeGiB == 0 {
				return fmt.Errorf("server: hello profile phase %d is empty", i)
			}
		}
	case TypeRequest:
		if m.Volume <= 0 {
			return fmt.Errorf("server: request with volume = %g", m.Volume)
		}
		if m.Work < 0 || m.IdealTime < 0 {
			return fmt.Errorf("server: request with negative accounting (work %g, ideal %g)", m.Work, m.IdealTime)
		}
	case TypeProgress:
		if m.Volume < 0 {
			return fmt.Errorf("server: progress with volume = %g", m.Volume)
		}
	case TypeComplete, TypeBye, TypeWelcome, TypeGrant, TypeError:
	default:
		return fmt.Errorf("server: unknown message type %q", m.Type)
	}
	return nil
}

// encode serializes a message to one freshly allocated JSON line.
func encode(m *Message) ([]byte, error) { return appendMessage(nil, m) }
