package registry

import (
	"errors"
	"testing"

	"laminar/internal/core"
)

// The cluster write router pre-assigns globally unique record ids and
// pins them on the registration (AddPERequest.PEID), so every node can
// derive a record's ring owner from its id. These tests pin the explicit
// id contract on the store.

func TestAddPEHonorsExplicitID(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "ann")

	pe, err := s.AddPE(u.UserID, core.AddPERequest{PEID: 40, PEName: "Pinned", PECode: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if pe.PEID != 40 {
		t.Fatalf("explicit id ignored: got %d, want 40", pe.PEID)
	}

	// The auto counter must advance past the pinned id, so a later
	// unpinned registration cannot collide with it.
	auto, err := s.AddPE(u.UserID, core.AddPERequest{PEName: "Auto", PECode: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if auto.PEID != 41 {
		t.Fatalf("auto id after a pinned 40 is %d, want 41", auto.PEID)
	}

	// A taken id is a conflict, not a silent overwrite.
	if _, err := s.AddPE(u.UserID, core.AddPERequest{PEID: 40, PEName: "Clash", PECode: "c"}); err == nil {
		t.Fatal("pinning a taken id must conflict")
	} else {
		var apiErr *core.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != 409 {
			t.Errorf("want a 409 APIError, got %v", err)
		}
	}

	// Negative pins are malformed.
	if _, err := s.AddPE(u.UserID, core.AddPERequest{PEID: -3, PEName: "Neg", PECode: "c"}); err == nil {
		t.Fatal("negative pinned id must be rejected")
	}

	// A lower unused pin still works and does not rewind the counter.
	low, err := s.AddPE(u.UserID, core.AddPERequest{PEID: 7, PEName: "Low", PECode: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if low.PEID != 7 {
		t.Fatalf("low pin: got %d, want 7", low.PEID)
	}
	next, err := s.AddPE(u.UserID, core.AddPERequest{PEName: "Next", PECode: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if next.PEID != 42 {
		t.Fatalf("counter rewound by a low pin: got %d, want 42", next.PEID)
	}
}

func TestAddWorkflowHonorsExplicitID(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "ann")

	wf, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{WorkflowID: 9, WorkflowName: "W", EntryPoint: "w", WorkflowCode: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if wf.WorkflowID != 9 {
		t.Fatalf("explicit id ignored: got %d, want 9", wf.WorkflowID)
	}
	auto, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{WorkflowName: "W2", EntryPoint: "w2", WorkflowCode: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if auto.WorkflowID != 10 {
		t.Fatalf("auto id after a pinned 9 is %d, want 10", auto.WorkflowID)
	}
	if _, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{WorkflowID: 9, WorkflowName: "W3", EntryPoint: "w3", WorkflowCode: "c"}); err == nil {
		t.Fatal("pinning a taken workflow id must conflict")
	}
	if _, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{WorkflowID: -1, WorkflowName: "W4", EntryPoint: "w4", WorkflowCode: "c"}); err == nil {
		t.Fatal("negative pinned workflow id must be rejected")
	}
}

// TestReadOnlyStoreRejectsEveryWrite pins the replica contract: every
// mutating entry point returns a 403 APIError while reads — including
// login and search — keep working.
func TestReadOnlyStoreRejectsEveryWrite(t *testing.T) {
	s := NewStore()
	u := newUser(t, s, "ann")
	pe := addPE(t, s, u.UserID, "P1")
	wf, err := s.AddWorkflow(u.UserID, core.AddWorkflowRequest{WorkflowName: "W", EntryPoint: "w", WorkflowCode: "c"})
	if err != nil {
		t.Fatal(err)
	}

	s.SetReadOnly(true)
	if !s.ReadOnly() {
		t.Fatal("ReadOnly() = false after SetReadOnly(true)")
	}

	wantForbidden := func(label string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: accepted on a read-only store", label)
		}
		var apiErr *core.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != 403 {
			t.Errorf("%s: got %v, want a 403 APIError", label, err)
		}
	}
	_, err = s.RegisterUser("bob", "pw")
	wantForbidden("RegisterUser", err)
	_, err = s.AddPE(u.UserID, core.AddPERequest{PEName: "P2", PECode: "c"})
	wantForbidden("AddPE", err)
	wantForbidden("RemovePE", s.RemovePE(u.UserID, pe.PEID))
	wantForbidden("RemovePEByName", s.RemovePEByName(u.UserID, "P1"))
	_, err = s.AddWorkflow(u.UserID, core.AddWorkflowRequest{WorkflowName: "W2", EntryPoint: "w2", WorkflowCode: "c"})
	wantForbidden("AddWorkflow", err)
	wantForbidden("RemoveWorkflow", s.RemoveWorkflow(u.UserID, wf.WorkflowID))
	wantForbidden("AssociatePE", s.AssociatePE(u.UserID, wf.WorkflowID, pe.PEID))

	// Reads still serve.
	if _, _, err := s.Login("ann", "pw-ann"); err != nil {
		t.Errorf("login on a read-only store: %v", err)
	}
	if got, err := s.PEByID(u.UserID, pe.PEID); err != nil || got.PEName != "P1" {
		t.Errorf("read on a read-only store: %v %v", got, err)
	}
	if hits := pesByDesc(s, u.UserID, []float32{4, 5, 6}, 5); len(hits) == 0 {
		t.Error("search on a read-only store returned nothing")
	}

	// And the switch flips back (tests and failover promotions need it).
	s.SetReadOnly(false)
	if _, err := s.AddPE(u.UserID, core.AddPERequest{PEName: "P2", PECode: "c"}); err != nil {
		t.Errorf("write after SetReadOnly(false): %v", err)
	}
}
