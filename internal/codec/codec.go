// Package codec implements Laminar's code serialization (Section 3.4.2).
// The paper serializes PEs and workflows with cloudpickle and base64-encodes
// the byte stream for registry storage and network transport; this package
// provides the equivalent contract for pycode sources: a JSON envelope
// (kind, name, source, imports) compressed with gzip and base64-encoded.
// The encoded string is opaque, printable and self-describing — exactly
// what the registry's peCode/workflowCode columns store.
package codec

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Kind tags what an envelope carries.
const (
	KindPE       = "pe"
	KindWorkflow = "workflow"
)

// Envelope is the serialized form of a PE or workflow.
type Envelope struct {
	// Kind is KindPE or KindWorkflow.
	Kind string `json:"kind"`
	// Name is the PE class name or workflow entry point.
	Name string `json:"name"`
	// Source is the pycode module source.
	Source string `json:"source"`
	// Imports lists detected library dependencies.
	Imports []string `json:"imports,omitempty"`
}

// magic prefixes encoded envelopes so foreign strings fail fast.
const magic = "LAM1"

// Encode serializes an envelope to a printable string.
func Encode(env Envelope) (string, error) {
	if env.Kind != KindPE && env.Kind != KindWorkflow {
		return "", fmt.Errorf("codec: invalid envelope kind %q", env.Kind)
	}
	if strings.TrimSpace(env.Source) == "" {
		return "", fmt.Errorf("codec: envelope source must not be empty")
	}
	raw, err := json.Marshal(env)
	if err != nil {
		return "", fmt.Errorf("codec: marshal: %w", err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		return "", fmt.Errorf("codec: compress: %w", err)
	}
	if err := zw.Close(); err != nil {
		return "", fmt.Errorf("codec: compress: %w", err)
	}
	return magic + base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

// gunzipPool recycles gzip readers across Decode calls: a fresh reader
// allocates ~40 KB of inflate state, several times the size of the
// envelopes it decodes, and Reset reuses all of it.
var gunzipPool sync.Pool

// Decode parses an encoded envelope.
func Decode(s string) (Envelope, error) {
	if !strings.HasPrefix(s, magic) {
		return Envelope{}, fmt.Errorf("codec: not a Laminar envelope (missing %s prefix)", magic)
	}
	data, err := base64.StdEncoding.DecodeString(s[len(magic):])
	if err != nil {
		return Envelope{}, fmt.Errorf("codec: base64: %w", err)
	}
	zr, _ := gunzipPool.Get().(*gzip.Reader)
	if zr == nil {
		zr = new(gzip.Reader)
	}
	// Returned on every path: Reset starts from the header again, so a
	// reader that failed mid-stream is as reusable as a finished one.
	defer gunzipPool.Put(zr)
	if err := zr.Reset(bytes.NewReader(data)); err != nil {
		return Envelope{}, fmt.Errorf("codec: gzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return Envelope{}, fmt.Errorf("codec: decompress: %w", err)
	}
	if err := zr.Close(); err != nil {
		return Envelope{}, fmt.Errorf("codec: decompress: %w", err)
	}
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return Envelope{}, fmt.Errorf("codec: unmarshal: %w", err)
	}
	if env.Kind != KindPE && env.Kind != KindWorkflow {
		return Envelope{}, fmt.Errorf("codec: invalid envelope kind %q", env.Kind)
	}
	return env, nil
}
