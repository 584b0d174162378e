package storage

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// packedVec decodes the v1 persistence encoding for embedding vectors:
// base64 over little-endian float32 bits. Unmarshal also accepts the
// historic number-array form, so registry files written before packing
// still load. (v2 keeps vectors as raw binary in the sidecar, so this type
// is read-only.)
type packedVec []float32

// UnmarshalJSON decodes either the packed base64 form or a legacy JSON
// number array.
func (p *packedVec) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '[' {
		var f []float32
		if err := json.Unmarshal(data, &f); err != nil {
			return err
		}
		*p = f
		return nil
	}
	// Base64 contains no characters that need JSON escaping, so when the
	// literal is a plain quoted string the bytes between the quotes ARE the
	// encoded payload — skip the per-vector json.Unmarshal round trip,
	// which is measurable across millions of stored floats.
	var s string
	if n := len(data); n >= 2 && data[0] == '"' && data[n-1] == '"' && !bytes.ContainsRune(data[1:n-1], '\\') {
		s = string(data[1 : n-1])
	} else if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return fmt.Errorf("storage: packed vector: %w", err)
	}
	if len(raw)%4 != 0 {
		return fmt.Errorf("storage: packed vector length %d is not a multiple of 4", len(raw))
	}
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	*p = out
	return nil
}
