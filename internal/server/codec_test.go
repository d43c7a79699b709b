package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// sameMessage is reflect.DeepEqual plus the sign of zero, which == hides.
func sameMessage(a, b *Message) bool {
	sign := func(m *Message) [4]bool {
		return [4]bool{math.Signbit(m.Volume), math.Signbit(m.Work), math.Signbit(m.IdealTime), math.Signbit(m.BW)}
	}
	return reflect.DeepEqual(a, b) && sign(a) == sign(b)
}

// checkEncode holds appendMessage to json.Marshal on one message: the
// same bytes plus the newline, or both refuse.
func checkEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	prefix := []byte("x")
	got, gotErr := appendMessage(prefix, m)
	want, wantErr := json.Marshal(m)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%+v: appendMessage error %v, json.Marshal error %v", *m, gotErr, wantErr)
	}
	if wantErr != nil {
		if len(got) != len(prefix) {
			t.Fatalf("%+v: refused message left %q in the buffer", *m, got)
		}
		if wrapped := "server: encoding " + m.Type + ": " + wantErr.Error(); gotErr.Error() != wrapped {
			t.Fatalf("%+v: error %q, want %q", *m, gotErr, wrapped)
		}
		return nil
	}
	if string(got) != "x"+string(want)+"\n" {
		t.Fatalf("%+v:\nappendMessage %q\njson.Marshal  %q", *m, got[1:], want)
	}
	return got[1 : len(got)-1]
}

// checkDecode holds the decoder to encoding/json on one line: whatever
// the fast path accepts, json.Unmarshal accepts with the same message,
// and decodeInto as a whole — fast path or decline — returns the message
// and the error text of json.Unmarshal followed by Validate. It returns
// json.Unmarshal's message, nil when it refused the line.
func checkDecode(t *testing.T, line []byte) *Message {
	t.Helper()
	var ref Message
	refErr := json.Unmarshal(line, &ref)
	var fast Message
	if decodeFast(line, &fast) {
		if refErr != nil {
			t.Fatalf("fast path accepted %q, encoding/json refuses it: %v", line, refErr)
		}
		if !sameMessage(&fast, &ref) {
			t.Fatalf("%q: fast path %+v, encoding/json %+v", line, fast, ref)
		}
	}
	want := ""
	if refErr != nil {
		want = "server: decoding message: " + refErr.Error()
	} else if err := ref.Validate(); err != nil {
		want = err.Error()
	}
	got := Message{Type: "stale", Seq: 9, Err: "stale"} // decodeInto must overwrite
	err := decodeInto(line, &got)
	if gotText := errText(err); gotText != want {
		t.Fatalf("%q: decodeInto error %q, want %q", line, gotText, want)
	}
	if err == nil && !sameMessage(&got, &ref) {
		t.Fatalf("%q: decodeInto %+v, encoding/json %+v", line, got, ref)
	}
	if refErr != nil {
		return nil
	}
	return &ref
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzCodecDifferential pins both directions of the codec to
// encoding/json on arbitrary lines.
func FuzzCodecDifferential(f *testing.F) {
	f.Add(`{"type":"hello","app_id":1,"nodes":64}`)
	f.Add(`{"type":"hello","app_id":1,"nodes":64,"profile":[{"work_s":1,"volume_gib":2}]}`)
	f.Add(`{"type":"request","volume_gib":12.5,"work_s":100,"ideal_s":110}`)
	f.Add(`{"type":"grant","app_id":1,"bw_gibs":0.38629032258064516,"seq":9}`)
	f.Add(`{"type":"grant","bw_gibs":1e-7,"seq":18446744073709551615}`)
	f.Add(`{"type":"progress","volume_gib":-0}`)
	f.Add(`{"type":"error","err":"boom \"<\u00e9>\""}`)
	f.Add(` {"Type" : "bye", "seq": null}`)
	f.Add(`{"type":"grant","seq":1,"seq":2}`)
	f.Add(`{"app_id":1.0,"nodes":01,"bw_gibs":1e999}`)
	f.Add(`{}`)
	f.Add(`garbage`)
	f.Fuzz(func(t *testing.T, line string) {
		if ref := checkDecode(t, []byte(line)); ref != nil {
			checkEncode(t, ref)
		}
	})
}

// TestCodecTableDifferential runs a seeded population of messages drawn
// from the corners of every field through both directions.
func TestCodecTableDifferential(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(15))
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 4, 0.38629032258064516, 812.25, 1e9, 123456789.125,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 5e-310,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-9, 1e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 1e22, 1e100,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		case 2:
			return 0
		}
		return floats[rng.Intn(len(floats))]
	}
	ints := []int{0, 0, 1, -1, 17, 64, -64, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, 999999999999999999, -1e18}
	seqs := []uint64{0, 0, 1, 9, 123456, math.MaxUint64, math.MaxUint64 - 1, 9999999999999999999, 1e19}
	texts := []string{
		"", "", "", "boom", "server: request with volume = -1", `say "hi"`, `back\slash`, "tab\there", "a<b>c&d",
		"caf\u00e9", "\u2028line", "bad\xffutf8", "nul\x00", "del\x7f", "new\nline",
	}
	types := append(messageTypes[:], "", "nope", `gr"ant`, "Grant", "gr\u00e4nt")
	for i := 0; i < n; i++ {
		m := &Message{
			Type:      types[rng.Intn(len(types))],
			AppID:     ints[rng.Intn(len(ints))],
			Nodes:     ints[rng.Intn(len(ints))],
			Volume:    float(),
			Work:      float(),
			IdealTime: float(),
			BW:        float(),
			Seq:       seqs[rng.Intn(len(seqs))],
			Err:       texts[rng.Intn(len(texts))],
		}
		if rng.Intn(4) == 0 {
			m.AppID, m.Seq = rng.Int()-rng.Int(), rng.Uint64()
		}
		if rng.Intn(8) == 0 {
			m.Profile = []PhaseSpec{{float(), float()}, {float(), float()}}
		}
		if line := checkEncode(t, m); line != nil {
			checkDecode(t, line)
		}
	}
}

// TestDecodeFastDeclines lists lines the fast path must leave to
// encoding/json — valid or not — and checks the verdict is then its.
func TestDecodeFastDeclines(t *testing.T) {
	for _, line := range []string{
		` {"type":"bye"}`, `{"type":"bye"} `, `{"type": "bye"}`, "{\"type\":\"bye\"}\t", // white space
		`{"Type":"bye"}`, `{"TYPE":"bye"}`, // keys in another case
		`{"type":"by\u0065"}`, `{"ty\u0070e":"bye"}`, // escapes
		`{"type":"bye","seq":null}`, `{"type":null}`, // null
		`{"type":"grant","seq":01}`, `{"type":"grant","bw_gibs":01}`, `{"type":"grant","bw_gibs":-}`,
		`{"type":"grant","bw_gibs":.5}`, `{"type":"grant","bw_gibs":1.}`, `{"type":"grant","bw_gibs":+1}`,
		`{"type":"grant","bw_gibs":1e}`, `{"type":"grant","bw_gibs":0x10}`, `{"type":"grant","bw_gibs":Inf}`,
		`{"type":"hello","app_id":1.0,"nodes":1}`, `{"type":"hello","app_id":1e2,"nodes":1}`,
		`{"type":"hello","nodes":9223372036854775808}`, `{"type":"grant","seq":-1}`, `{"type":"grant","seq":-0}`,
		`{"type":"grant","seq":18446744073709551616}`, `{"type":"grant","bw_gibs":1e999}`,
		`{"type":"grant","bw_gibs":0.000000000000000000000000000000001}`, // longer than any canonical float
		`{"type":"bye",}`, `{"type":"bye"},`, `{,"type":"bye"}`, `{"type":"bye"}}`, `{"type":"bye"`, `"type":"bye"}`,
		`{"type":"bye","color":1}`, `{"type":"nope"}`, `{"type":"Grant"}`, `{"type":bye}`, `{"type":"bye}`,
		`{"type":"error","err":"boom"}`, `{"type":"hello","nodes":1,"profile":[]}`,
		`{"type":"grant","bw_gibs":"1"}`, `{"type":"grant","bw_gibs":true}`, `{"type":"grant","bw_gibs":{}}`,
		`{"type":"grant" "seq":1}`, `{"type"}`, `{"type":}`, `{":"bye"}`, `{}`, `{`, `}`, ``, `[]`, `null`,
	} {
		var m Message
		if decodeFast([]byte(line), &m) {
			t.Errorf("fast path accepted %q", line)
		}
		checkDecode(t, []byte(line))
	}
}

// TestDecodeFastAccepts is the other side: canonical lines take the fast
// path, a repeated key keeps its last value as in encoding/json, and
// type strings come back as the package constants (same pointer, no copy).
func TestDecodeFastAccepts(t *testing.T) {
	for line, want := range map[string]Message{
		`{"type":"grant","app_id":17,"bw_gibs":0.38629032258064516,"seq":123456}`: {Type: TypeGrant, AppID: 17, BW: 0.38629032258064516, Seq: 123456},
		`{"type":"grant","seq":1,"bw_gibs":2,"seq":3,"bw_gibs":4E+0}`:             {Type: TypeGrant, BW: 4, Seq: 3},
		`{"type":"hello","type":"bye"}`:                                           {Type: TypeBye},
		`{"seq":9999999999999999999,"app_id":-0,"nodes":-12,"type":"welcome"}`:    {Type: TypeWelcome, Nodes: -12, Seq: 9999999999999999999},
		`{"type":"progress","volume_gib":-0.0e-0,"work_s":1e-400}`:                {Type: TypeProgress, Volume: math.Copysign(0, -1)},
		`{"type":"complete"}`: {Type: TypeComplete},
	} {
		var m Message
		if !decodeFast([]byte(line), &m) {
			t.Errorf("fast path declined %q", line)
			continue
		}
		if !sameMessage(&m, &want) {
			t.Errorf("%q: got %+v, want %+v", line, m, want)
		}
		checkDecode(t, []byte(line))
	}
	var m Message
	if !decodeFast([]byte(`{"type":"grant"}`), &m) || unsafe.StringData(m.Type) != unsafe.StringData(TypeGrant) {
		t.Errorf("decoded type %q is not the package constant", m.Type)
	}
}

// TestCodecGolden pins the bytes of one message of each type, so a wire
// change cannot land unnoticed.
func TestCodecGolden(t *testing.T) {
	for _, tc := range []struct {
		msg  Message
		wire string
	}{
		{Message{Type: TypeHello, AppID: 17, Nodes: 64, Profile: []PhaseSpec{{WorkS: 100, VolumeGiB: 12.5}, {WorkS: 0, VolumeGiB: 1e-7}}},
			`{"type":"hello","app_id":17,"nodes":64,"profile":[{"work_s":100,"volume_gib":12.5},{"work_s":0,"volume_gib":1e-7}]}`},
		{Message{Type: TypeWelcome, AppID: 17}, `{"type":"welcome","app_id":17}`},
		{Message{Type: TypeRequest, Volume: 1, Work: 812.25, IdealTime: 1012.5}, `{"type":"request","volume_gib":1,"work_s":812.25,"ideal_s":1012.5}`},
		{Message{Type: TypeProgress, Volume: 0.5}, `{"type":"progress","volume_gib":0.5}`},
		{Message{Type: TypeComplete}, `{"type":"complete"}`},
		{Message{Type: TypeBye}, `{"type":"bye"}`},
		{Message{Type: TypeGrant, AppID: 17, BW: 0.38629032258064516, Seq: 123456}, `{"type":"grant","app_id":17,"bw_gibs":0.38629032258064516,"seq":123456}`},
		{Message{Type: TypeError, Err: `server: unknown message type "nope"`}, `{"type":"error","err":"server: unknown message type \"nope\""}`},
	} {
		got, err := appendMessage(nil, &tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.wire+"\n" {
			t.Errorf("%s on the wire:\n got %s want %s", tc.msg.Type, got, tc.wire)
		}
		back, err := decode([]byte(tc.wire))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMessage(back, &tc.msg) {
			t.Errorf("%s read back as %+v", tc.msg.Type, *back)
		}
	}
}

// TestCodecAllocationFree pins the steady messages: encoding into a
// reused buffer and decoding into a reused message cost no heap object.
func TestCodecAllocationFree(t *testing.T) {
	msgs := []Message{
		{Type: TypeGrant, AppID: 17, BW: 0.38629032258064516, Seq: 123456},
		{Type: TypeRequest, Volume: 1, Work: 812.25, IdealTime: 1012.5},
		{Type: TypeComplete},
	}
	buf := make([]byte, 0, 256)
	into := new(Message)
	for i := range msgs {
		m := &msgs[i]
		line, err := encode(m)
		if err != nil {
			t.Fatal(err)
		}
		line = line[:len(line)-1]
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := appendMessage(buf[:0], m); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("appendMessage(%s) allocates %.1f objects, want 0", m.Type, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := decodeInto(line, into); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("decodeInto(%s) allocates %.1f objects, want 0", line, allocs)
		}
		if !sameMessage(into, m) {
			t.Errorf("%s decoded as %+v", line, *into)
		}
	}
}
