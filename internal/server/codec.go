package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// The wire format is encoding/json's rendering of Message, one object per
// line. The steady path reads and writes those exact bytes without
// reflection: appendMessage produces what json.Marshal produces, and
// decodeFast reads the canonical form appendMessage writes. Everything
// else — a string that needs escaping, a profile, white space, a key in
// another case — still goes through encoding/json, so which path runs is a
// property of the message, never a setting.

// messageTypes lists the known types; decoded type strings are interned
// to these constants.
var messageTypes = [...]string{
	TypeHello, TypeWelcome, TypeRequest, TypeProgress, TypeComplete, TypeBye, TypeGrant, TypeError,
}

// appendMessage appends m as one JSON line, byte for byte what
// json.Marshal(m) plus '\n' gives, and returns the extended slice. The
// rare message outside the flat steady form (a hello's profile) and any
// message encoding/json would escape or refuse (a Type or Err beyond
// plain ASCII, a NaN or infinite number) is handed to it whole, so those
// bytes and that error stay its own; on error dst comes back unchanged.
//
//iosched:allocfree
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	if len(m.Profile) > 0 || !plain(m.Type) || !plain(m.Err) ||
		!finite(m.Volume) || !finite(m.Work) || !finite(m.IdealTime) || !finite(m.BW) {
		return appendMarshal(dst, m)
	}
	dst = append(append(append(dst, `{"type":"`...), m.Type...), '"')
	dst = appendIntField(dst, `,"app_id":`, m.AppID)
	dst = appendIntField(dst, `,"nodes":`, m.Nodes)
	dst = appendFloatField(dst, `,"volume_gib":`, m.Volume)
	dst = appendFloatField(dst, `,"work_s":`, m.Work)
	dst = appendFloatField(dst, `,"ideal_s":`, m.IdealTime)
	dst = appendFloatField(dst, `,"bw_gibs":`, m.BW)
	if m.Seq != 0 {
		dst = strconv.AppendUint(append(dst, `,"seq":`...), m.Seq, 10)
	}
	if m.Err != "" {
		dst = append(append(append(dst, `,"err":"`...), m.Err...), '"')
	}
	return append(dst, "}\n"...), nil
}

// appendMarshal is appendMessage's cold path through encoding/json. It
// marshals a copy, so a caller's message does not escape on the hot path.
func appendMarshal(dst []byte, m *Message) ([]byte, error) {
	cp := *m
	b, err := json.Marshal(&cp)
	if err != nil {
		return dst, fmt.Errorf("server: encoding %s: %w", m.Type, err)
	}
	return append(append(dst, b...), '\n'), nil
}

// plain reports whether encoding/json writes s between quotes unchanged:
// printable ASCII without the characters it escapes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendIntField and appendFloatField append key and value unless the
// value is zero (omitempty).
//
//iosched:allocfree
func appendIntField(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// appendFloatField writes a finite f in encoding/json's float64 format:
// the shortest digits that round-trip, in exponent form below 1e-6 and
// from 1e21, with a two-digit exponent's leading zero dropped (e-07 → e-7).
//
//iosched:allocfree
func appendFloatField(dst []byte, key string, f float64) []byte {
	if f == 0 {
		return dst
	}
	dst = append(dst, key...)
	if abs := math.Abs(f); abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// decodeInto parses one JSON line into the caller's message, overwriting
// it, and validates the result. The canonical form takes the fast path;
// any other line is encoding/json's to accept or refuse.
func decodeInto(line []byte, m *Message) error {
	*m = Message{}
	if !decodeFast(line, m) {
		*m = Message{}
		if err := json.Unmarshal(line, m); err != nil {
			return fmt.Errorf("server: decoding message: %w", err)
		}
	}
	return m.Validate()
}

// decodeFast parses the canonical form: no white space, the numeric keys
// and "type" in exact case, a known type, numbers in JSON's grammar that
// fit their field. It reports false for any other line, valid JSON or
// not (null, profile, err, an escape, an unknown key or type among them),
// leaving m half-written. What it accepts, json.Unmarshal accepts with the
// same result (FuzzCodecDifferential); a repeated key keeps its last value
// there and here.
//
//iosched:allocfree
func decodeFast(line []byte, m *Message) bool {
	n := len(line)
	if n < 2 || line[0] != '{' || line[n-1] != '}' {
		return false
	}
	for i := 1; ; i++ {
		if line[i] != '"' {
			return false
		}
		k := i + 1
		for i = k; i < n && line[i] != '"'; i++ {
		}
		if i+1 >= n || line[i+1] != ':' {
			return false
		}
		key, v := line[k:i], i+2
		for i = v; i < n && line[i] != ',' && line[i] != '}'; i++ {
		}
		if i == n {
			return false
		}
		val, ok := line[v:i], false
		switch string(key) {
		case "type":
			m.Type, ok = internType(val)
		case "app_id":
			m.AppID, ok = parseInt(val)
		case "nodes":
			m.Nodes, ok = parseInt(val)
		case "volume_gib":
			m.Volume, ok = parseFloat(val)
		case "work_s":
			m.Work, ok = parseFloat(val)
		case "ideal_s":
			m.IdealTime, ok = parseFloat(val)
		case "bw_gibs":
			m.BW, ok = parseFloat(val)
		case "seq":
			m.Seq, ok = parseDigits(val, 19)
		}
		if !ok {
			return false
		}
		if line[i] == '}' {
			return i == n-1
		}
	}
}

// internType maps a quoted known type to its package constant.
//
//iosched:allocfree
func internType(v []byte) (string, bool) {
	if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
		for _, t := range messageTypes {
			if string(v[1:len(v)-1]) == t {
				return t, true
			}
		}
	}
	return "", false
}

// parseDigits reads 0|[1-9][0-9]* of at most `most` digits; callers pick it
// so the value cannot overflow.
//
//iosched:allocfree
func parseDigits(v []byte, most int) (uint64, bool) {
	if len(v) == 0 || len(v) > most || (v[0] == '0' && len(v) > 1) {
		return 0, false
	}
	var u uint64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	return u, true
}

//iosched:allocfree
func parseInt(v []byte) (int, bool) {
	neg := len(v) > 0 && v[0] == '-'
	if neg {
		v = v[1:]
	}
	u, ok := parseDigits(v, 18)
	n := int(u)
	if uint64(n) != u { // a 32-bit int
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, ok
}

// parseFloat reads a JSON number the way encoding/json does: its own
// grammar check, then strconv.ParseFloat, out of range refused. Tokens
// longer than any shortest float64 rendering are declined, which keeps
// the string conversion in a stack buffer.
//
//iosched:allocfree
func parseFloat(v []byte) (float64, bool) {
	if len(v) > 32 || !jsonNumber(v) {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(v), 64)
	return f, err == nil
}

// jsonNumber reports whether v matches
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
//
//iosched:allocfree
func jsonNumber(v []byte) bool {
	i := 0
	digits := func() bool { // one or more
		from := i
		for i < len(v) && v[i] >= '0' && v[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(v) && v[i] == '-' {
		i++
	}
	if from := i; !digits() || (v[from] == '0' && i > from+1) {
		return false
	}
	if i < len(v) && v[i] == '.' {
		if i++; !digits() {
			return false
		}
	}
	if i < len(v) && (v[i] == 'e' || v[i] == 'E') {
		if i++; i < len(v) && (v[i] == '+' || v[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	return i == len(v)
}
