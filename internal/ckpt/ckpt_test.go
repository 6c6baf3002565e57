package ckpt

import "testing"

// The encoder error is sticky-first: a failure during a deep state walk
// must surface the root cause, not whatever later write happened to
// trip over the broken stream.
func TestEncoderFailfSticky(t *testing.T) {
	e := NewEncoder(0)
	if e.Err() != nil {
		t.Fatalf("fresh encoder carries error %v", e.Err())
	}
	e.Failf("root cause: %d", 1)
	e.Failf("later symptom")
	if e.Err() == nil || e.Err().Error() != "ckpt: root cause: 1" {
		t.Errorf("sticky error = %v, want the first failure", e.Err())
	}
}
