// Package snapshot reads and writes weight snapshots: the self-contained
// binary artifact that carries a trained model from `splitcnn train
// -save` to the inference server. A snapshot carries the parameters
// together with the batch-normalization running statistics — without
// them an eval-mode forward pass would normalize with the initial
// (0, 1) estimates and serve garbage.
//
// Format (little-endian throughout):
//
//	magic "SCNNSNAP" | uint32 version
//	uint32 paramCount
//	per parameter (sorted by name):
//	  uint16 nameLen | name | uint8 flags (1 = NoDecay, 2 = Frozen)
//	  uint8 rank | int64 dims... | float32 values...
//	uint32 bnStateCount
//	per BN state (sorted by name):
//	  uint16 nameLen | name | uint32 channels
//	  float64 momentum | float64 runningMean... | float64 runningVar...
//
// Loading is name- and shape-checked against the target model: a
// parameter or BN state the model lacks, a parameter whose stored shape
// differs from the model's, or a BN state whose channel count differs,
// is an error rather than silent corruption. Loading never allocates
// from the file's dimensions, so a hostile header cannot exhaust memory.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

var magic = [8]byte{'S', 'C', 'N', 'N', 'S', 'N', 'A', 'P'}

const version = 1

// maxDim bounds any single tensor dimension or channel count read from
// a snapshot; the values are compared against the model, never
// allocated.
const maxDim = 1 << 31

func writeString(w *bufio.Writer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("snapshot: name %q too long", s)
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// Save writes every parameter of store and every BN state of bn to w.
// bn may be nil or empty for models without batch normalization.
func Save(w io.Writer, store *graph.ParamStore, bn map[string]*nn.BNState) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(version)); err != nil {
		return err
	}
	params := store.All()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		var flags uint8
		if p.NoDecay {
			flags |= 1
		}
		if p.Frozen {
			flags |= 2
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		shape := p.Value.Shape()
		if err := bw.WriteByte(uint8(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, int64(d)); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, p.Value.Data()); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(bn))
	for name := range bn {
		names = append(names, name)
	}
	sort.Strings(names)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		st := bn[name]
		if len(st.RunningMean) != len(st.RunningVar) {
			return fmt.Errorf("snapshot: BN state %q has %d means but %d variances",
				name, len(st.RunningMean), len(st.RunningVar))
		}
		if err := writeString(bw, name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(st.RunningMean))); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, st.Momentum); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, st.RunningMean); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, st.RunningVar); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load restores a snapshot from r into store and bn, which the caller
// has already built for the target model (ParamStore.InitFromGraph and
// the model constructor's BN registry). Parameters and BN states are
// matched by name; one present in the file but absent from the model is
// an error, as is a shape or channel-count mismatch — each means the
// snapshot belongs to a different architecture. Parameters and states
// the file lacks keep their initial values, so parameter-only snapshots
// of BN-free models load into any registry.
func Load(r io.Reader, store *graph.ParamStore, bn map[string]*nn.BNState) error {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if m != magic {
		return fmt.Errorf("snapshot: bad magic %q", m)
	}
	var ver, paramCount uint32
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return err
	}
	if ver != version {
		return fmt.Errorf("snapshot: unsupported version %d", ver)
	}
	if err := binary.Read(br, binary.LittleEndian, &paramCount); err != nil {
		return err
	}
	for i := uint32(0); i < paramCount; i++ {
		name, err := readString(br)
		if err != nil {
			return err
		}
		flags, err := br.ReadByte()
		if err != nil {
			return err
		}
		rank, err := br.ReadByte()
		if err != nil {
			return err
		}
		if rank == 0 || rank > 8 {
			return fmt.Errorf("snapshot: parameter %q has rank %d", name, rank)
		}
		dims := make(tensor.Shape, rank)
		for d := range dims {
			var v int64
			if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
				return err
			}
			if v <= 0 || v > maxDim {
				return fmt.Errorf("snapshot: parameter %q has dimension %d", name, v)
			}
			dims[d] = int(v)
		}
		p := store.Lookup(name)
		if p == nil {
			return fmt.Errorf("snapshot: parameter %q not in the target model", name)
		}
		if !p.Value.Shape().Equal(dims) {
			return fmt.Errorf("snapshot: parameter %q has shape %v, model wants %v",
				name, dims, p.Value.Shape())
		}
		if err := binary.Read(br, binary.LittleEndian, p.Value.Data()); err != nil {
			return err
		}
		p.NoDecay = flags&1 != 0
		p.Frozen = flags&2 != 0
	}
	var bnCount uint32
	if err := binary.Read(br, binary.LittleEndian, &bnCount); err != nil {
		return err
	}
	for i := uint32(0); i < bnCount; i++ {
		name, err := readString(br)
		if err != nil {
			return err
		}
		var channels uint32
		if err := binary.Read(br, binary.LittleEndian, &channels); err != nil {
			return err
		}
		if channels == 0 || channels > maxDim {
			return fmt.Errorf("snapshot: BN state %q has %d channels", name, channels)
		}
		st, ok := bn[name]
		if !ok {
			return fmt.Errorf("snapshot: BN state %q not in the target model", name)
		}
		if len(st.RunningMean) != int(channels) {
			return fmt.Errorf("snapshot: BN state %q has %d channels, model wants %d",
				name, channels, len(st.RunningMean))
		}
		if err := binary.Read(br, binary.LittleEndian, &st.Momentum); err != nil {
			return err
		}
		if err := binary.Read(br, binary.LittleEndian, st.RunningMean); err != nil {
			return err
		}
		if err := binary.Read(br, binary.LittleEndian, st.RunningVar); err != nil {
			return err
		}
		// The statistics were mutated in place: drop any cached derived
		// values (compiled programs precast the inference statistics).
		st.Invalidate()
	}
	return nil
}

// SaveFile writes the snapshot to path atomically (via a temp file).
func SaveFile(path string, store *graph.ParamStore, bn map[string]*nn.BNState) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Save(f, store, bn); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile restores a snapshot from path.
func LoadFile(path string, store *graph.ParamStore, bn map[string]*nn.BNState) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Load(f, store, bn)
}
