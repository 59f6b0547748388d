package bench

import "testing"

// TestFloodTopologies runs each flood topology small: every record sent
// is emitted at the far end (the driver fails on any other count), the
// row carries the exact name the bench gate keys on, and the rate is
// non-zero.
func TestFloodTopologies(t *testing.T) {
	const perSession, batch = 2048, 256
	cases := []struct {
		name     string
		sessions int
		run      func() (IngestResult, error)
	}{
		{"ingest/sessions=2", 2, func() (IngestResult, error) { return RunIngest(2, perSession, batch) }},
		{"relay/sessions=2", 2, func() (IngestResult, error) { return RunRelayIngest(2, perSession, batch) }},
		{"subscribe/subscribers=4", 1, func() (IngestResult, error) { return RunSubscribeIngest(4, perSession, batch) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if r.Name != c.name {
				t.Fatalf("row name %q, want %q", r.Name, c.name)
			}
			if r.Sessions != c.sessions || r.Records != c.sessions*perSession {
				t.Fatalf("sessions %d, records %d; want %d sessions of %d records",
					r.Sessions, r.Records, c.sessions, perSession)
			}
			if r.RecordsPerSec <= 0 || r.MBPerSec <= 0 {
				t.Fatalf("zero rate: %+v", r)
			}
			if tb := FloodTable([]IngestResult{r}); tb.Title == "" || len(tb.Rows) != 1 {
				t.Fatalf("table: %+v", tb)
			}
		})
	}
}
