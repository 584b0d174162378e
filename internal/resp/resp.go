// Package resp implements the Redis RESP2 wire protocol (reader and writer).
// The paper's Redis mapping uses a real Redis server as the work queue
// between PE instances; internal/redisserver builds a mini Redis on top of
// this protocol so the mapping can run with no external dependency.
package resp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Type tags for RESP2 values.
const (
	TypeSimpleString = '+'
	TypeError        = '-'
	TypeInteger      = ':'
	TypeBulkString   = '$'
	TypeArray        = '*'
)

// Value is a decoded RESP value.
type Value struct {
	Type  byte
	Str   string  // simple string, error or bulk string payload
	Int   int64   // integer payload
	Array []Value // array payload
	Null  bool    // null bulk string or null array
}

// Simple builds a simple-string value.
func Simple(s string) Value { return Value{Type: TypeSimpleString, Str: s} }

// Err builds an error value.
func Err(msg string) Value { return Value{Type: TypeError, Str: msg} }

// Integer builds an integer value.
func Integer(n int64) Value { return Value{Type: TypeInteger, Int: n} }

// Bulk builds a bulk-string value.
func Bulk(s string) Value { return Value{Type: TypeBulkString, Str: s} }

// NullBulk is the RESP null bulk string ($-1).
func NullBulk() Value { return Value{Type: TypeBulkString, Null: true} }

// Array builds an array value.
func Array(items ...Value) Value { return Value{Type: TypeArray, Array: items} }

// NullArray is the RESP null array (*-1).
func NullArray() Value { return Value{Type: TypeArray, Null: true} }

// IsError reports whether the value is a protocol error.
func (v Value) IsError() bool { return v.Type == TypeError }

// ErrProtocol reports malformed wire data.
var ErrProtocol = errors.New("resp: protocol error")

// Wire limits. Lengths arrive from the peer ahead of the payload they
// declare, so they are bounded here — the values are Redis's own
// (proto-max-bulk-len, its multibulk cap) — and a frame beyond them is
// ErrProtocol, never a make() panic or an exhausted stack.
const (
	// MaxBulkLen is the longest bulk string Read accepts, in bytes.
	MaxBulkLen = 512 << 20
	// MaxArrayLen is the most elements one array may declare.
	MaxArrayLen = 1 << 20
	// MaxDepth is how deep arrays may nest.
	MaxDepth = 32
)

// Reader decodes RESP values from a stream.
type Reader struct {
	br *bufio.Reader
}

// NewReader wraps r for RESP decoding.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReader(r)} }

// Read decodes one value.
func (r *Reader) Read() (Value, error) { return r.read(0) }

// read decodes one value nested depth arrays deep.
func (r *Reader) read(depth int) (Value, error) {
	t, err := r.br.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch t {
	case TypeSimpleString, TypeError:
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: t, Str: line}, nil
	case TypeInteger:
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
		}
		return Value{Type: t, Int: n}, nil
	case TypeBulkString:
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		n, err := strconv.Atoi(line)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, line)
		}
		if n < 0 {
			return NullBulk(), nil
		}
		if n > MaxBulkLen {
			return Value{}, fmt.Errorf("%w: bulk length %d exceeds %d", ErrProtocol, n, MaxBulkLen)
		}
		buf, err := r.readN(n + 2)
		if err != nil {
			return Value{}, err
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Value{}, fmt.Errorf("%w: bulk string not CRLF terminated", ErrProtocol)
		}
		return Value{Type: t, Str: string(buf[:n])}, nil
	case TypeArray:
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		n, err := strconv.Atoi(line)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad array length %q", ErrProtocol, line)
		}
		if n < 0 {
			return NullArray(), nil
		}
		if n > MaxArrayLen {
			return Value{}, fmt.Errorf("%w: array length %d exceeds %d", ErrProtocol, n, MaxArrayLen)
		}
		if depth == MaxDepth {
			return Value{}, fmt.Errorf("%w: arrays nested deeper than %d", ErrProtocol, MaxDepth)
		}
		// Grown as elements arrive: the declared length alone must not
		// commit memory the peer never sends.
		items := make([]Value, 0, min(n, 64))
		for i := 0; i < n; i++ {
			v, err := r.read(depth + 1)
			if err != nil {
				return Value{}, err
			}
			items = append(items, v)
		}
		return Value{Type: t, Array: items}, nil
	default:
		// Inline command support (telnet style): treat the line as a
		// space-separated command.
		if err := r.br.UnreadByte(); err != nil {
			return Value{}, err
		}
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		var items []Value
		start := -1
		for i := 0; i <= len(line); i++ {
			if i == len(line) || line[i] == ' ' {
				if start >= 0 {
					items = append(items, Bulk(line[start:i]))
					start = -1
				}
				continue
			}
			if start < 0 {
				start = i
			}
		}
		if len(items) == 0 {
			return Value{}, fmt.Errorf("%w: empty inline command", ErrProtocol)
		}
		return Value{Type: TypeArray, Array: items}, nil
	}
}

// readN reads exactly n payload bytes, growing the buffer a chunk at a
// time as they arrive: like an array's, a bulk string's declared length
// alone must not commit memory the peer never sends.
func (r *Reader) readN(n int) ([]byte, error) {
	const chunk = 64 << 10
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		old := len(buf)
		next := min(n, old+chunk)
		buf = slices.Grow(buf, next-old)[:next]
		if _, err := io.ReadFull(r.br, buf[old:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func (r *Reader) readLine() (string, error) {
	line, err := r.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return "", fmt.Errorf("%w: line not CRLF terminated", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

// Writer encodes RESP values onto a stream.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter wraps w for RESP encoding.
func NewWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriter(w)} }

// Write encodes one value (without flushing).
func (w *Writer) Write(v Value) error {
	switch v.Type {
	case TypeSimpleString:
		_, err := fmt.Fprintf(w.bw, "+%s\r\n", v.Str)
		return err
	case TypeError:
		_, err := fmt.Fprintf(w.bw, "-%s\r\n", v.Str)
		return err
	case TypeInteger:
		_, err := fmt.Fprintf(w.bw, ":%d\r\n", v.Int)
		return err
	case TypeBulkString:
		if v.Null {
			_, err := w.bw.WriteString("$-1\r\n")
			return err
		}
		_, err := fmt.Fprintf(w.bw, "$%d\r\n%s\r\n", len(v.Str), v.Str)
		return err
	case TypeArray:
		if v.Null {
			_, err := w.bw.WriteString("*-1\r\n")
			return err
		}
		if _, err := fmt.Fprintf(w.bw, "*%d\r\n", len(v.Array)); err != nil {
			return err
		}
		for _, item := range v.Array {
			if err := w.Write(item); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown type %q", ErrProtocol, v.Type)
	}
}

// Flush pushes buffered bytes to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }

// WriteCommand encodes a command as an array of bulk strings and flushes.
func (w *Writer) WriteCommand(args ...string) error {
	items := make([]Value, len(args))
	for i, a := range args {
		items[i] = Bulk(a)
	}
	if err := w.Write(Array(items...)); err != nil {
		return err
	}
	return w.Flush()
}
