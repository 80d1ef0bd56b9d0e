package fleet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nashlb/internal/game"
)

// encodeUnchecked marshals a table's wire form without the encoder-side
// validation, to hand the decoder wire forms EncodeTable itself would refuse
// to produce.
func encodeUnchecked(t Table) ([]byte, error) { return json.Marshal(t.wire()) }

func validTable() Table {
	return Table{
		Epoch:   3,
		Version: 7,
		Leader:  1,
		Machines: []Machine{
			{URL: "http://127.0.0.1:1001", Rate: 10, Active: true},
			{URL: "http://127.0.0.1:1002", Rate: 20, Active: false},
		},
		Arrivals:    []float64{4, 2},
		AdmitFrac:   1,
		OfferedRate: 6,
		Profile:     game.Profile{{1, 0}, {1, 0}},
	}
}

func TestTableRoundTrip(t *testing.T) {
	want := validTable()
	data, err := EncodeTable(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeTableRejectsMalformed(t *testing.T) {
	base := validTable()
	cases := []struct {
		name   string
		mutate func(*Table)
	}{
		{"negative leader", func(t *Table) { t.Leader = -1 }},
		{"no machines", func(t *Table) { t.Machines = nil }},
		{"empty machine url", func(t *Table) { t.Machines[0].URL = "" }},
		{"duplicate machine url", func(t *Table) { t.Machines[1].URL = t.Machines[0].URL }},
		{"zero rate", func(t *Table) { t.Machines[0].Rate = 0 }},
		{"no arrivals", func(t *Table) { t.Arrivals = nil; t.Profile = nil }},
		{"negative arrival", func(t *Table) { t.Arrivals[0] = -1 }},
		{"admit fraction above one", func(t *Table) { t.AdmitFrac = 1.5 }},
		{"profile row count", func(t *Table) { t.Profile = t.Profile[:1] }},
		{"profile not a distribution", func(t *Table) { t.Profile[0] = []float64{0.3, 0.3} }},
		{"profile negative weight", func(t *Table) { t.Profile[0] = []float64{1.5, -0.5} }},
	}
	for _, c := range cases {
		tab := validTable()
		c.mutate(&tab)
		// Marshal through plain JSON (EncodeTable would refuse) and make
		// sure the decoder refuses the wire form.
		data, err := encodeUnchecked(tab)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		if _, err := DecodeTable(data); err == nil {
			t.Errorf("%s: DecodeTable accepted malformed input", c.name)
		}
	}
	_ = base

	for _, raw := range []string{
		"",
		"{",
		`{"epoch": "not a number"}`,
		`{"unknown_field": 1}`,
		`{} trailing`,
	} {
		if _, err := DecodeTable([]byte(raw)); err == nil {
			t.Errorf("DecodeTable accepted %q", raw)
		}
	}

	// Oversized payloads are rejected before parsing.
	big := `{"pad":"` + strings.Repeat("x", MaxMessage) + `"}`
	if _, err := DecodeTable([]byte(big)); err == nil {
		t.Error("DecodeTable accepted an oversized message")
	}
}

// populationTable returns a valid table for users users on machines
// machines whose profile has classes distinct rows: user i plays row
// i%classes, each user holding its own copy, as an expanded class
// equilibrium does.
func populationTable(users, classes, machines int) Table {
	t := Table{Epoch: 2, Version: 9, Leader: 0, AdmitFrac: 1, OfferedRate: float64(users)}
	for j := 0; j < machines; j++ {
		t.Machines = append(t.Machines, Machine{URL: fmt.Sprintf("http://127.0.0.1:%d", 2000+j), Rate: 100, Active: true})
	}
	rows := make([]game.Strategy, classes)
	for c := range rows {
		rows[c] = make(game.Strategy, machines)
		var sum float64
		for j := range rows[c] {
			rows[c][j] = float64((c*7+j*13)%17 + 1)
			sum += rows[c][j]
		}
		for j := range rows[c] {
			rows[c][j] /= sum
		}
	}
	for i := 0; i < users; i++ {
		t.Arrivals = append(t.Arrivals, 0.5+0.1*float64(i%classes))
		t.Profile = append(t.Profile, rows[i%classes].Clone())
	}
	return t
}

// TestTableWireCompact pins the wire form of a population's table: 20 000
// users in 40 classes on 64 machines encode to under 256 KB besides the
// per-user arrivals (the dense profile alone was ≈14 MB, over MaxMessage),
// and decode back to the same dense table.
func TestTableWireCompact(t *testing.T) {
	want := populationTable(20000, 40, 64)
	data, err := EncodeTable(want)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := json.Marshal(want.Arrivals)
	if err != nil {
		t.Fatal(err)
	}
	size := len(data) - len(arrivals)
	t.Logf("%d bytes: %d of arrivals, %d of the rest", len(data), len(arrivals), size)
	if size >= 256<<10 {
		t.Fatalf("table encodes to %d bytes besides %d of arrivals, want < %d", size, len(arrivals), 256<<10)
	}
	got, err := DecodeTable(data)
	if err != nil {
		t.Fatalf("decode %d bytes: %v", len(data), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("compact table round trip changed the table")
	}
}

// TestDecodeTableDoesNotAmplify pins the decoder's memory to the message,
// not to users × machines: 10 000 users of one row over 1000 machines fit
// in a few hundred KB on the wire, and a dense expansion would take 80 MB.
func TestDecodeTableDoesNotAmplify(t *testing.T) {
	data, err := EncodeTable(populationTable(10000, 1, 1000))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab, err := DecodeTable(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Profile) != 10000 || len(tab.Profile[9999]) != 1000 {
		t.Fatalf("decoded profile is %d × %d", len(tab.Profile), len(tab.Profile[9999]))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
	}
}

// TestDecodeTableRejectsBadRows covers the class-row wire form's own
// checks: every row index in range, one index per user, every distinct row
// a feasible strategy over the machines.
func TestDecodeTableRejectsBadRows(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*tableWire)
	}{
		{"index out of range", func(w *tableWire) { w.Profile.RowOf[1] = int32(len(w.Profile.Rows)) }},
		{"negative index", func(w *tableWire) { w.Profile.RowOf[0] = -1 }},
		{"fewer indices than users", func(w *tableWire) { w.Profile.RowOf = w.Profile.RowOf[:1] }},
		{"more indices than users", func(w *tableWire) { w.Profile.RowOf = append(w.Profile.RowOf, 0) }},
		{"infeasible row", func(w *tableWire) { w.Profile.Rows[0] = game.Strategy{0.3, 0.3} }},
		{"row of the wrong width", func(w *tableWire) { w.Profile.Rows[0] = game.Strategy{1} }},
		{"no rows", func(w *tableWire) { w.Profile.Rows = nil }},
	}
	for _, c := range cases {
		w := validTable().wire()
		if len(w.Profile.Rows) != 1 || len(w.Profile.RowOf) != 2 {
			t.Fatalf("validTable's wire form has %d rows for %d users, want 1 for 2", len(w.Profile.Rows), len(w.Profile.RowOf))
		}
		c.mutate(&w)
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		if _, err := DecodeTable(data); err == nil {
			t.Errorf("%s: DecodeTable accepted %s", c.name, data)
		}
	}
}

func TestHeartbeatReportOpRoundTrip(t *testing.T) {
	hb := Heartbeat{ID: 2, Epoch: 5, Version: 9, Leader: 0, Draining: true}
	data, err := EncodeHeartbeat(hb)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeHeartbeat(data); err != nil || got != hb {
		t.Fatalf("heartbeat round trip: got %+v err %v", got, err)
	}
	if _, err := DecodeHeartbeat([]byte(`{"id": -3}`)); err == nil {
		t.Error("DecodeHeartbeat accepted a negative node id")
	}

	rep := Report{ID: 1, Arrivals: []float64{3.5, 0}, Weights: []float64{1, 0.25}}
	data, err = EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeReport(data); err != nil || !reflect.DeepEqual(got, rep) {
		t.Fatalf("report round trip: got %+v err %v", got, err)
	}
	if _, err := DecodeReport([]byte(`{"id": 0, "weights": [2]}`)); err == nil {
		t.Error("DecodeReport accepted a weight above 1")
	}

	op := MachineOp{Op: "leave", URL: "http://127.0.0.1:1001"}
	data, err = EncodeMachineOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeMachineOp(data); err != nil || got != op {
		t.Fatalf("machine op round trip: got %+v err %v", got, err)
	}
	if _, err := DecodeMachineOp([]byte(`{"op": "explode", "url": "x"}`)); err == nil {
		t.Error("DecodeMachineOp accepted an unknown op")
	}
}

// FuzzFleetWire drives the control-plane codec with arbitrary bytes: the
// decoders must never panic, must reject malformed input, and anything they
// do accept must survive an encode/decode round trip unchanged.
func FuzzFleetWire(f *testing.F) {
	if data, err := EncodeTable(validTable()); err == nil {
		f.Add(data)
	}
	if data, err := EncodeHeartbeat(Heartbeat{ID: 1, Leader: -1}); err == nil {
		f.Add(data)
	}
	if data, err := EncodeReport(Report{ID: 0, Arrivals: []float64{1}}); err == nil {
		f.Add(data)
	}
	if data, err := EncodeMachineOp(MachineOp{Op: "join", URL: "http://b"}); err == nil {
		f.Add(data)
	}
	if data, err := EncodeTable(populationTable(12, 3, 4)); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"epoch":1,"version":1,"leader":0,"machines":[{"url":"a","rate":1,"active":true}],` +
		`"arrivals":[1,2],"admit_frac":1,"offered_rate":3,"profile":{"rows":[[1]],"row_of":[0,1]}}`))
	f.Add([]byte(`{"epoch":1,"version":1,"leader":0,"machines":[{"url":"a","rate":1,"active":true}],` +
		`"arrivals":[1],"admit_frac":1,"offered_rate":1,"profile":{"rows":[[1],[1]],"row_of":[-1]}}`))
	f.Add([]byte(`{"epoch": 18446744073709551615}`))
	f.Add([]byte(`{"machines": [{"url": "a", "rate": 1e308}]}`))
	f.Add([]byte("not json at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if tab, err := DecodeTable(data); err == nil {
			out, err := EncodeTable(tab)
			if err != nil {
				t.Fatalf("decoded table does not re-encode: %v", err)
			}
			again, err := DecodeTable(out)
			if err != nil {
				t.Fatalf("re-encoded table does not decode: %v", err)
			}
			if !reflect.DeepEqual(again, tab) {
				t.Fatalf("table round trip mismatch: %+v vs %+v", again, tab)
			}
		}
		if hb, err := DecodeHeartbeat(data); err == nil {
			out, err := EncodeHeartbeat(hb)
			if err != nil {
				t.Fatalf("decoded heartbeat does not re-encode: %v", err)
			}
			if again, err := DecodeHeartbeat(out); err != nil || again != hb {
				t.Fatalf("heartbeat round trip mismatch: %+v vs %+v (%v)", again, hb, err)
			}
		}
		if rep, err := DecodeReport(data); err == nil {
			out, err := EncodeReport(rep)
			if err != nil {
				t.Fatalf("decoded report does not re-encode: %v", err)
			}
			if again, err := DecodeReport(out); err != nil || !reflect.DeepEqual(again, rep) {
				t.Fatalf("report round trip mismatch: %+v vs %+v (%v)", again, rep, err)
			}
		}
		if op, err := DecodeMachineOp(data); err == nil {
			out, err := EncodeMachineOp(op)
			if err != nil {
				t.Fatalf("decoded op does not re-encode: %v", err)
			}
			if again, err := DecodeMachineOp(out); err != nil || again != op {
				t.Fatalf("op round trip mismatch: %+v vs %+v (%v)", again, op, err)
			}
		}
	})
}
