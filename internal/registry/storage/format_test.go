package storage

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestFormatNames(t *testing.T) {
	if FormatV1.String() != "v1" || FormatV2.String() != "v2" {
		t.Fatalf("format names wrong: %s / %s", FormatV1, FormatV2)
	}
	if got := Format(9).String(); got != "Format(9)" {
		t.Fatalf("unknown format string = %q", got)
	}
}

func TestPackedVecForms(t *testing.T) {
	// The packed form: base64 over little-endian float32 bits.
	var packed packedVec
	if err := json.Unmarshal([]byte(`"AADAPwAAEMAAAAAAjyhOMQ=="`), &packed); err != nil || !reflect.DeepEqual(packed, packedVec{1.5, -2.25, 0, 3e-9}) {
		t.Fatalf("packed form: %v, %v", packed, err)
	}
	// Legacy number-array form still loads.
	var legacy packedVec
	if err := json.Unmarshal([]byte("[1.5,-2.25,0]"), &legacy); err != nil || len(legacy) != 3 {
		t.Fatalf("legacy array: %v, %v", legacy, err)
	}
	// A plain quoted string takes the zero-copy fast path; a string with a
	// JSON escape falls back to the full unmarshal. Both must decode.
	var plain, escaped packedVec
	if err := json.Unmarshal([]byte(`"AAAAAA=="`), &plain); err != nil || len(plain) != 1 {
		t.Fatalf("plain base64: %v, %v", plain, err)
	}
	if err := json.Unmarshal([]byte(`"\u0041AAAAA=="`), &escaped); err != nil || len(escaped) != 1 {
		t.Fatalf("escaped base64: %v, %v", escaped, err)
	}
	for name, bad := range map[string]string{
		"bad base64":    `"!!!!"`,
		"short payload": `"QUFB"`, // 3 bytes, not a multiple of 4
		"bad array":     `[1,"x"]`,
		"bad string":    `{"x":1}`,
	} {
		var v packedVec
		if err := json.Unmarshal([]byte(bad), &v); err == nil {
			t.Fatalf("%s: unmarshal accepted %s", name, bad)
		}
	}
}

func TestDiskSizeFormats(t *testing.T) {
	dir := t.TempDir()
	if _, err := DiskSize(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("DiskSize of missing file succeeded")
	}

	v1 := goldenV1(t, "packed.json")
	fi, err := os.Stat(v1)
	if err != nil {
		t.Fatal(err)
	}
	if size, err := DiskSize(v1); err != nil || size != fi.Size() {
		t.Fatalf("v1 DiskSize = %d, %v; want %d", size, err, fi.Size())
	}

	v2 := filepath.Join(dir, "v2.json")
	if err := Save(v2, testSnapshot(t, 4)); err != nil {
		t.Fatal(err)
	}
	bare, err := DiskSize(v2)
	if err != nil {
		t.Fatal(err)
	}
	jfi, err := os.Stat(v2)
	if err != nil {
		t.Fatal(err)
	}
	if bare <= jfi.Size() {
		t.Fatalf("v2 DiskSize %d does not include the sidecar (json alone is %d)", bare, jfi.Size())
	}

	// Journal segments count toward the footprint.
	chain, err := DeltaChainOf(v2)
	if err != nil {
		t.Fatal(err)
	}
	chain, err = SaveDelta(v2, chain, churnDelta(1))
	if err != nil {
		t.Fatal(err)
	}
	withDelta, err := DiskSize(v2)
	if err != nil {
		t.Fatal(err)
	}
	if withDelta != bare+chain.Bytes {
		t.Fatalf("DiskSize with journal = %d, want %d + %d", withDelta, bare, chain.Bytes)
	}
}

func TestLoadV1Corrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, []byte("{ this is not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err == nil {
		t.Fatal("corrupt v1 file loaded")
	}
}
