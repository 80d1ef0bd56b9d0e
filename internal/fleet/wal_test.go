package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nashlb/internal/game"
)

func testSnapshot() Snapshot {
	return Snapshot{
		Gen:         7,
		GrantGen:    7,
		Epoch:       5,
		Version:     3,
		Leader:      1,
		Active:      []bool{true, false, true},
		EstRates:    []float64{2.5, 1.25},
		AggSmooth:   []float64{5.0, 2.5},
		Profile:     game.Profile{{0.5, 0, 0.5}, {0.25, 0, 0.75}},
		AdmitFrac:   1,
		OfferedRate: 3.75,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot()
	data, err := EncodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != want.Gen || got.GrantGen != want.GrantGen ||
		got.Epoch != want.Epoch || got.Version != want.Version || got.Leader != want.Leader {
		t.Fatalf("round trip mangled the fence marks: got %+v want %+v", got, want)
	}
	if len(got.Active) != len(want.Active) || !got.Profile.Equal(want.Profile) {
		t.Fatalf("round trip mangled membership or profile: got %+v", got)
	}
}

// Every flavor of on-disk damage must be rejected as a unit — a snapshot is
// loaded whole or not at all, and always as ErrCorruptSnapshot.
func TestSnapshotCorruptionRejected(t *testing.T) {
	good, err := EncodeSnapshot(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	mangle := map[string]func() []byte{
		"empty":     func() []byte { return nil },
		"truncated": func() []byte { return good[:len(good)/2] },
		"bad magic": func() []byte {
			d := append([]byte(nil), good...)
			d[0] ^= 0xFF
			return d
		},
		"payload bit flip": func() []byte {
			d := append([]byte(nil), good...)
			d[len(d)-2] ^= 0x01
			return d
		},
		"length lies": func() []byte {
			d := append([]byte(nil), good...)
			d[len(snapMagic)] ^= 0x01
			return d
		},
		"trailing garbage": func() []byte { return append(append([]byte(nil), good...), 'x') },
	}
	for name, f := range mangle {
		if _, err := DecodeSnapshot(f()); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

func TestSnapshotSemanticValidation(t *testing.T) {
	bad := []func(*Snapshot){
		func(s *Snapshot) { s.Active = nil },
		func(s *Snapshot) { s.Leader = -2 },
		func(s *Snapshot) { s.Epoch = s.Gen + 1 }, // table from the future
		func(s *Snapshot) { s.AdmitFrac = 1.5 },
		func(s *Snapshot) { s.EstRates = []float64{-1} },
		func(s *Snapshot) { s.Profile = game.Profile{{0.5, 0.5}} }, // wrong width
		func(s *Snapshot) { s.Version = 0 },                        // content without a version
	}
	for i, f := range bad {
		s := testSnapshot()
		f(&s)
		if _, err := EncodeSnapshot(s); err == nil {
			t.Errorf("case %d: invalid snapshot encoded without error", i)
		}
	}
}

func TestWALSaveAndReload(t *testing.T) {
	dir := t.TempDir()
	w, loaded, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != nil {
		t.Fatal("fresh dir returned a snapshot")
	}
	want := testSnapshot()
	if err := w.Save(want); err != nil {
		t.Fatal(err)
	}
	// Overwrite: the newest save wins, atomically.
	want.Gen, want.GrantGen, want.Epoch = 9, 9, 8
	if err := w.Save(want); err != nil {
		t.Fatal(err)
	}
	_, got, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Gen != 9 || got.Epoch != 8 {
		t.Fatalf("reload = %+v, want the second save", got)
	}
}

// A corrupt snapshot must fail OpenWAL loudly: silently restarting from
// nothing would un-promise persisted grants.
func TestWALCorruptFileFailsOpen(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Save(testSnapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("OpenWAL on corrupt file: err = %v, want ErrCorruptSnapshot", err)
	}
}

// frame wraps a payload in the snapshot frame under the given magic.
func frame(magic string, payload []byte) []byte {
	out := append([]byte(magic), binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// TestSnapshotProfileAsClassRows pins the snapshot's profile encoding: a
// profile of repeated rows is stored once per distinct row and comes back
// dense and unchanged.
func TestSnapshotProfileAsClassRows(t *testing.T) {
	want := testSnapshot()
	want.Profile = game.Profile{{0.5, 0, 0.5}, {0.25, 0, 0.75}, {0.5, 0, 0.5}, {0.5, 0, 0.5}}
	data, err := EncodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"profile":{"rows":[[0.5,0,0.5],[0.25,0,0.75]],"row_of":[0,1,0,0]}`)) {
		t.Fatalf("snapshot does not store the profile as class rows: %s", data[snapHeaderLen:])
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

// A snapshot written in the version-1 format (dense profile, NLBSNAP1) must
// fail OpenWAL loudly with bad magic, never load as something else.
func TestWALOldFormatFailsOpen(t *testing.T) {
	dir := t.TempDir()
	old, err := json.Marshal(testSnapshot()) // the dense, version-1 payload
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapFile), frame("NLBSNAP1", old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, s, err := OpenWAL(dir)
	if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("OpenWAL on a version-1 snapshot: snapshot %v, err = %v, want ErrCorruptSnapshot with bad magic", s, err)
	}
}

// FuzzWALDecode asserts the crash-recovery path never panics and never loads
// partial state: any byte string either decodes to a snapshot that validates
// and round-trips, or is rejected whole.
func FuzzWALDecode(f *testing.F) {
	good, err := EncodeSnapshot(testSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Add(good[:snapHeaderLen])
	trunc := append([]byte(nil), good[:len(good)-3]...)
	f.Add(trunc)
	flip := append([]byte(nil), good...)
	flip[snapHeaderLen+2] ^= 0x40
	f.Add(flip)
	shared := testSnapshot()
	shared.Profile = game.Profile{{0.5, 0, 0.5}, {0.25, 0, 0.75}, {0.5, 0, 0.5}, {0.25, 0, 0.75}}
	if data, err := EncodeSnapshot(shared); err == nil {
		f.Add(data)
	}
	f.Add(frame(snapMagic, []byte(`{"gen":1,"grant_gen":1,"epoch":1,"version":1,"leader":0,"active":[true],`+
		`"profile":{"rows":[[1]],"row_of":[0,3]},"admit_frac":1,"offered_rate":1}`)))
	if old, err := json.Marshal(testSnapshot()); err == nil {
		f.Add(frame("NLBSNAP1", old))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("decode error %v does not wrap ErrCorruptSnapshot", err)
			}
			return
		}
		// Accepted input must re-encode and decode to the same fence marks.
		enc, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		s2, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if s2.Gen != s.Gen || s2.GrantGen != s.GrantGen || s2.Epoch != s.Epoch || s2.Version != s.Version {
			t.Fatalf("round trip drifted: %+v vs %+v", s, s2)
		}
	})
}
