package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// encode writes v through a Writer and returns the wire bytes.
func encode(t testing.TB, v Value) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(v); err != nil {
		t.Fatalf("Write(%+v): %v", v, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTrip: every value shape the cluster transport and the REDIS
// mapping put on the wire decodes back to itself, and the encoding is the
// RESP2 frame a real Redis would send.
func TestRoundTrip(t *testing.T) {
	big := strings.Repeat("x", 200<<10) // spans several readN chunks
	cases := []struct {
		name string
		v    Value
		wire string
	}{
		{"simple", Simple("PONG"), "+PONG\r\n"},
		{"error", Err("ERR unknown command 'X'"), "-ERR unknown command 'X'\r\n"},
		{"integer", Integer(-42), ":-42\r\n"},
		{"bulk", Bulk("hello"), "$5\r\nhello\r\n"},
		{"bulk with crlf inside", Bulk("a\r\nb"), "$4\r\na\r\nb\r\n"},
		{"empty bulk", Bulk(""), "$0\r\n\r\n"},
		{"null bulk", NullBulk(), "$-1\r\n"},
		{"empty array", Value{Type: TypeArray, Array: []Value{}}, "*0\r\n"},
		{"null array", NullArray(), "*-1\r\n"},
		{"command", Array(Bulk("CSEARCH"), Bulk("alice"), Bulk(`{"limit":3}`)),
			"*3\r\n$7\r\nCSEARCH\r\n$5\r\nalice\r\n$11\r\n{\"limit\":3}\r\n"},
		{"nested", Array(Integer(1), Array(Simple("a"), NullBulk()), Bulk("z")),
			"*3\r\n:1\r\n*2\r\n+a\r\n$-1\r\n$1\r\nz\r\n"},
		{"large bulk", Bulk(big), fmt.Sprintf("$%d\r\n%s\r\n", len(big), big)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := encode(t, tc.v)
			if string(wire) != tc.wire {
				t.Fatalf("encoded %q, want %q", wire, tc.wire)
			}
			got, err := NewReader(bytes.NewReader(wire)).Read()
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if !reflect.DeepEqual(got, tc.v) {
				t.Fatalf("decoded %+v, want %+v", got, tc.v)
			}
		})
	}
}

// TestReadStream: values arrive back to back on one connection; Read
// consumes exactly one frame at a time and ends on a clean io.EOF.
func TestReadStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCommand("PING"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCommand("LPUSH", "q", "item"); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for _, want := range []Value{Array(Bulk("PING")), Array(Bulk("LPUSH"), Bulk("q"), Bulk("item"))} {
		got, err := r.Read()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Read = %+v, %v; want %+v", got, err, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("Read past the last frame = %v, want io.EOF", err)
	}
}

// TestInlineCommands: the telnet form splits on runs of spaces into the
// same array of bulk strings a framed command decodes to.
func TestInlineCommands(t *testing.T) {
	got, err := NewReader(strings.NewReader("SET  key   value \r\n")).Read()
	if err != nil {
		t.Fatal(err)
	}
	if want := Array(Bulk("SET"), Bulk("key"), Bulk("value")); !reflect.DeepEqual(got, want) {
		t.Fatalf("inline command decoded to %+v, want %+v", got, want)
	}
}

// TestMalformedFrames: whatever a peer sends, Read answers with an error —
// ErrProtocol for a frame that is wrong, an io error for one that is cut
// short — and never panics or sizes an allocation off an unchecked length.
// The first three are the frames that used to take the process down:
// make() panicked on the length inside cluster.RESPServer's connection
// goroutine, which has no recover.
func TestMalformedFrames(t *testing.T) {
	deep := strings.Repeat("*1\r\n", MaxDepth+1) + ":1\r\n"
	cases := []struct {
		name, wire string
		protocol   bool // ErrProtocol rather than a short-read error
	}{
		{"bulk length MaxInt64", "$9223372036854775807\r\n", true},
		{"bulk length MaxInt64-1", "$9223372036854775806\r\n", true},
		{"array length MaxInt64", "*9223372036854775807\r\n", true},
		{"bulk over the limit", fmt.Sprintf("$%d\r\n", MaxBulkLen+1), true},
		{"array over the limit", fmt.Sprintf("*%d\r\n", MaxArrayLen+1), true},
		{"arrays nested too deep", deep, true},
		{"bulk length not a number", "$abc\r\n", true},
		{"bulk length overflows int", "$99999999999999999999\r\n", true},
		{"array length not a number", "*1x\r\n", true},
		{"integer not a number", ":12a\r\n", true},
		{"bulk missing CRLF", "$3\r\nabcXY", true},
		{"line ends in bare LF", "+OK\n", true},
		{"empty inline command", "   \r\n", true},
		{"bulk at the limit, no payload", fmt.Sprintf("$%d\r\n", MaxBulkLen), false},
		{"array at the limit, no elements", fmt.Sprintf("*%d\r\n", MaxArrayLen), false},
		{"bulk cut short", "$10\r\nabc", false},
		{"array cut short", "*3\r\n:1\r\n", false},
		{"header cut short", "$5", false},
		{"bad element inside an array", "*2\r\n:1\r\n$x\r\n", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := NewReader(strings.NewReader(tc.wire)).Read()
			if err == nil {
				t.Fatalf("Read accepted %q as %+v", tc.wire, v)
			}
			if got := errors.Is(err, ErrProtocol); got != tc.protocol {
				t.Fatalf("Read(%q) = %v; ErrProtocol = %v, want %v", tc.wire, err, got, tc.protocol)
			}
		})
	}
	if _, err := NewReader(strings.NewReader("")).Read(); err != io.EOF {
		t.Fatalf("Read on an empty stream = %v, want io.EOF", err)
	}
}

// TestNestingAtTheLimit: MaxDepth arrays deep is still a valid frame.
func TestNestingAtTheLimit(t *testing.T) {
	wire := strings.Repeat("*1\r\n", MaxDepth) + ":7\r\n"
	v, err := NewReader(strings.NewReader(wire)).Read()
	if err != nil {
		t.Fatalf("Read at MaxDepth: %v", err)
	}
	for i := 0; i < MaxDepth; i++ {
		if v.Type != TypeArray || len(v.Array) != 1 {
			t.Fatalf("level %d decoded to %+v", i, v)
		}
		v = v.Array[0]
	}
	if v.Type != TypeInteger || v.Int != 7 {
		t.Fatalf("innermost value %+v, want :7", v)
	}
}

func TestWriteRejectsUnknownType(t *testing.T) {
	err := NewWriter(io.Discard).Write(Value{Type: '?'})
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("Write of an unknown type = %v, want ErrProtocol", err)
	}
	if !Err("x").IsError() || Simple("x").IsError() {
		t.Fatal("IsError must hold for error values only")
	}
}

// failAfter fails every write past its first n bytes.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, io.ErrClosedPipe
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteSurfacesStreamErrors: a connection that dies mid-frame is
// reported by Write or Flush, whichever meets it, for every value type.
func TestWriteSurfacesStreamErrors(t *testing.T) {
	payload := strings.Repeat("p", 8<<10) // larger than the bufio buffer
	for _, v := range []Value{
		Simple(payload), Err(payload), Bulk(payload),
		Array(Bulk(payload), Bulk(payload)),
		Array(Integer(1), Bulk(payload)),
	} {
		w := NewWriter(&failAfter{n: 10})
		err := w.Write(v)
		if err == nil {
			err = w.Flush()
		}
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("writing type %q to a dead stream = %v, want io.ErrClosedPipe", v.Type, err)
		}
	}
	if err := NewWriter(&failAfter{}).WriteCommand("PING"); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("WriteCommand to a dead stream = %v, want io.ErrClosedPipe", err)
	}
}

// FuzzRead: arbitrary bytes either decode to a value that survives a
// write/read round trip unchanged, or fail with an error — never a panic,
// never a hang. Seeds: one frame of every type, the historic crashers and
// the checked-in corpus under testdata/fuzz.
func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		"+OK\r\n", "-ERR nope\r\n", ":12\r\n", "$5\r\nhello\r\n", "$-1\r\n", "*-1\r\n",
		"*3\r\n$7\r\nCSEARCH\r\n$5\r\nalice\r\n$2\r\n{}\r\n",
		"PING\r\n", "$9223372036854775807\r\n", "*9223372036854775807\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := NewReader(bytes.NewReader(data)).Read()
		if err != nil {
			return
		}
		again, err := NewReader(bytes.NewReader(encode(t, v))).Read()
		if err != nil {
			t.Fatalf("re-reading the encoding of %+v: %v", v, err)
		}
		if !reflect.DeepEqual(again, v) {
			t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", again, v)
		}
	})
}
