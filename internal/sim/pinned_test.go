package sim_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"splitcnn/internal/core"
	"splitcnn/internal/costmodel"
	"splitcnn/internal/hmms"
	"splitcnn/internal/models"
	"splitcnn/internal/sim"
)

// digest is an FNV-1a 64 hash over a sequence of strings and fixed-width
// integers, each string length-prefixed so field boundaries count.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

// TestPlanPaperScalePinned pins the HMMS planner's output on the six
// deterministic plan_imagenet configurations — {VGG-19 b64, ResNet-18
// b64, ResNet-50 b32} × {unsplit, 2×2 split of the first 75 % of
// convolutions} — bit for bit: the three pool sizes, the no-reuse
// baseline, every block's name, pool, lifetime, offset and size in
// order, and the analytic step's total time and span timeline. Any
// change to the planner's data structures must leave all of it equal.
func TestPlanPaperScalePinned(t *testing.T) {
	type pin struct {
		host, param, general, noReuse int64
		blocks                        int
		blockDigest                   uint64
		total                         float64
		spanDigest                    uint64
	}
	for _, tc := range []struct {
		name  string
		build func(int) *models.Model
		batch int
		split bool
		want  pin
	}{
		{"vgg19/b64/unsplit", models.VGG19ImageNet, 64, false, pin{4236640512, 1149337920, 4156555264, 33696096776, 240, 0x630bbb57a9876ca7, 0.5221287122103839, 0xc3b692f53da7fb9d}},
		{"vgg19/b64/split", models.VGG19ImageNet, 64, true, pin{4236640512, 1149337920, 2061631488, 39713350152, 550, 0xd19b9c15e4437a4f, 0.5239079228479069, 0x4219f713a949f89e}},
		{"resnet18/b64/unsplit", models.ResNet18ImageNet, 64, false, pin{725876992, 93516096, 1127153664, 8267473416, 312, 0x23f836cce2d83ea6, 0.07073221341184753, 0x3093032ed50ef401}},
		{"resnet18/b64/split", models.ResNet18ImageNet, 64, true, pin{867114496, 93516096, 817783808, 8511471368, 807, 0xd73777f8e55aa37, 0.07307849977978917, 0x84ed481931c1fd27}},
		{"resnet50/b32/unsplit", models.ResNet50ImageNet, 32, false, pin{1535246464, 204456256, 1417773184, 13084512520, 849, 0x574ba08be1365d5a, 0.1279774884793814, 0xe825fcf99faf0596}},
		{"resnet50/b32/split", models.ResNet50ImageNet, 32, true, pin{1652276608, 204456256, 1366184448, 13291130376, 2109, 0xcb547ec63b40e52c, 0.1324671276196365, 0x7e1b1b2011db4f3c}},
	} {
		g := tc.build(tc.batch).Graph
		if tc.split {
			sr, err := core.Split(g, core.Config{Depth: 0.75, NH: 2, NW: 2})
			if err != nil {
				t.Fatal(err)
			}
			g = sr.Graph
		}
		res, _, mem, err := sim.PlanAndRun(g, costmodel.P100(), sim.MethodHMMS, -1)
		if err != nil {
			t.Fatal(err)
		}
		bd := newDigest()
		for _, b := range mem.Blocks {
			bd.str(b.Name)
			bd.int(int64(b.Pool))
			bd.int(int64(b.Start))
			bd.int(int64(b.End))
			bd.int(b.Offset)
			bd.int(b.Bytes)
		}
		sd := newDigest()
		for _, s := range res.Spans {
			sd.str(s.Stream)
			sd.str(s.Name)
			sd.float(s.Start)
			sd.float(s.End)
		}
		got := pin{
			host: mem.PoolBytes[hmms.PoolHost], param: mem.PoolBytes[hmms.PoolDeviceParam],
			general: mem.PoolBytes[hmms.PoolDeviceGeneral], noReuse: mem.NoReuseBytes,
			blocks: len(mem.Blocks), blockDigest: bd.h.Sum64(),
			total: res.TotalTime, spanDigest: sd.h.Sum64(),
		}
		if got != tc.want {
			t.Errorf("%s:\n got %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}
