package snapshot

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

func fillRandom(rng *rand.Rand, store *graph.ParamStore) {
	for _, p := range store.All() {
		for i := range p.Value.Data() {
			p.Value.Data()[i] = rng.Float32()*2 - 1
		}
	}
}

// newModel returns the fixture model's parameter store and BN registry
// at their initial values, as a model constructor would build them.
func newModel() (*graph.ParamStore, map[string]*nn.BNState) {
	store := graph.NewParamStore()
	store.Get("conv1.w", tensor.Shape{8, 3, 3, 3})
	store.Get("fc.w", tensor.Shape{10, 32})
	store.Get("fc.b", tensor.Shape{10})
	return store, map[string]*nn.BNState{"bn1": nn.NewBNState("bn1", 8)}
}

func makeFixture(rng *rand.Rand) (*graph.ParamStore, map[string]*nn.BNState) {
	store, bn := newModel()
	store.Lookup("fc.b").NoDecay = true
	fillRandom(rng, store)
	st := bn["bn1"]
	for i := range st.RunningMean {
		st.RunningMean[i] = rng.NormFloat64()
		st.RunningVar[i] = rng.Float64() + 0.5
	}
	st.Momentum = 0.05
	return store, bn
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	store, bn := makeFixture(rng)

	path := filepath.Join(t.TempDir(), "w.snap")
	if err := SaveFile(path, store, bn); err != nil {
		t.Fatal(err)
	}

	// Load into a freshly constructed model.
	store2, bn2 := newModel()
	if err := LoadFile(path, store2, bn2); err != nil {
		t.Fatal(err)
	}
	for _, p := range store.All() {
		q := store2.Lookup(p.Name)
		if q == nil {
			t.Fatalf("parameter %q missing after round trip", p.Name)
		}
		if !q.Value.Shape().Equal(p.Value.Shape()) {
			t.Fatalf("parameter %q shape %v, want %v", p.Name, q.Value.Shape(), p.Value.Shape())
		}
		if q.NoDecay != p.NoDecay || q.Frozen != p.Frozen {
			t.Fatalf("parameter %q flags changed", p.Name)
		}
		for i, v := range p.Value.Data() {
			if q.Value.Data()[i] != v {
				t.Fatalf("parameter %q element %d: %g != %g", p.Name, i, q.Value.Data()[i], v)
			}
		}
	}
	st, st2 := bn["bn1"], bn2["bn1"]
	if st2.Momentum != st.Momentum {
		t.Fatalf("momentum %g, want %g", st2.Momentum, st.Momentum)
	}
	for i := range st.RunningMean {
		if st2.RunningMean[i] != st.RunningMean[i] || st2.RunningVar[i] != st.RunningVar[i] {
			t.Fatalf("BN stats channel %d changed in round trip", i)
		}
	}
}

func TestLoadShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	store, bn := makeFixture(rng)
	var buf bytes.Buffer
	if err := Save(&buf, store, bn); err != nil {
		t.Fatal(err)
	}

	conflicting := graph.NewParamStore()
	conflicting.Get("conv1.w", tensor.Shape{4, 3, 3, 3}) // wrong shape
	conflicting.Get("fc.w", tensor.Shape{10, 32})
	conflicting.Get("fc.b", tensor.Shape{10})
	if err := Load(bytes.NewReader(buf.Bytes()), conflicting, map[string]*nn.BNState{"bn1": nn.NewBNState("bn1", 8)}); err == nil {
		t.Fatal("loading a conflicting parameter shape did not fail")
	}

	missing := graph.NewParamStore()
	missing.Get("conv1.w", tensor.Shape{8, 3, 3, 3}) // no fc.*
	if err := Load(bytes.NewReader(buf.Bytes()), missing, map[string]*nn.BNState{"bn1": nn.NewBNState("bn1", 8)}); err == nil {
		t.Fatal("loading a parameter the model lacks did not fail")
	}
	if missing.Len() != 1 {
		t.Fatalf("Load added parameters to the store: %d, want 1", missing.Len())
	}

	store2, _ := newModel()
	wrongBN := map[string]*nn.BNState{"bn1": nn.NewBNState("bn1", 4)} // wrong channels
	if err := Load(bytes.NewReader(buf.Bytes()), store2, wrongBN); err == nil {
		t.Fatal("loading a conflicting BN channel count did not fail")
	}

	store3, _ := newModel()
	if err := Load(bytes.NewReader(buf.Bytes()), store3, nil); err == nil {
		t.Fatal("loading BN stats into a model without that state did not fail")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	store, bn := makeFixture(rng)
	var buf bytes.Buffer
	if err := Save(&buf, store, bn); err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), buf.Bytes()...)
	bad[0] ^= 0xff // break the magic
	if err := Load(bytes.NewReader(bad), graph.NewParamStore(), nil); err == nil {
		t.Fatal("corrupt magic accepted")
	}

	truncated := buf.Bytes()[:buf.Len()/2]
	store2, bn2 := newModel()
	if err := Load(bytes.NewReader(truncated), store2, bn2); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// hostileHeader is a snapshot declaring one parameter of the given
// dimensions and carrying no values.
func hostileHeader(name string, dims ...int64) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	binary.Write(&buf, binary.LittleEndian, uint32(version))
	binary.Write(&buf, binary.LittleEndian, uint32(1))
	binary.Write(&buf, binary.LittleEndian, uint16(len(name)))
	buf.WriteString(name)
	buf.WriteByte(0) // flags
	buf.WriteByte(uint8(len(dims)))
	binary.Write(&buf, binary.LittleEndian, dims)
	return buf.Bytes()
}

// TestLoadRejectsHostileHeader: a few dozen bytes declaring a huge
// parameter must be an error, not a panic or a multi-GiB allocation,
// whether or not the model has a parameter of that name.
func TestLoadRejectsHostileHeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"rank2", hostileHeader("w.x", maxDim, maxDim)},
		{"rank1", hostileHeader("w.x", maxDim)},
		{"known_rank2", hostileHeader("fc.w", maxDim, maxDim)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, bn := newModel()
			if err := Load(bytes.NewReader(tc.data), store, bn); err == nil {
				t.Fatalf("%d-byte hostile header accepted", len(tc.data))
			}
		})
	}
}

// FuzzLoad: Load never panics on arbitrary bytes, and whenever it
// succeeds every parameter and BN state keeps the model's shape. The
// seed corpus is a valid snapshot plus each of its truncations, so
// plain `go test` walks every field boundary of the format.
func FuzzLoad(f *testing.F) {
	store, bn := makeFixture(rand.New(rand.NewSource(4)))
	var buf bytes.Buffer
	if err := Save(&buf, store, bn); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		store, bn := newModel()
		if err := Load(bytes.NewReader(data), store, bn); err != nil {
			return
		}
		want, wantBN := newModel()
		if store.Len() != want.Len() {
			t.Fatalf("store has %d parameters after load, model has %d", store.Len(), want.Len())
		}
		for _, p := range want.All() {
			if got := store.Lookup(p.Name).Value.Shape(); !got.Equal(p.Value.Shape()) {
				t.Fatalf("parameter %q shape %v after load, model has %v", p.Name, got, p.Value.Shape())
			}
		}
		for name, st := range wantBN {
			got := bn[name]
			if len(got.RunningMean) != len(st.RunningMean) || len(got.RunningVar) != len(st.RunningVar) {
				t.Fatalf("BN state %q resized by load", name)
			}
		}
	})
}
