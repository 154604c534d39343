package flow

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mclegal/internal/bmark"
	"mclegal/internal/model"
	"mclegal/internal/shard"
	"mclegal/internal/stage"
)

// TestPlacementFingerprint pins the placements of three suite
// instances, legalized with the request benchmark's library-workload
// options, to recorded SHA-256 hashes of their .mcl output. The
// determinism suites compare a run with itself; this test compares a
// run with the code's history, so a change meant to be byte-identical
// (a speed-up, a refactor) cannot move a placement unnoticed.
//
// A change that moves placements on purpose (a scheduler fix, a new
// window-growth rule) re-records the out constants and gives the
// reason in CHANGES.md.
//
// The in constants pin the generated inputs. The generator's float
// math may fuse into FMA instructions on some architectures (arm64),
// which changes the inputs themselves; the test then skips, because
// the output hashes only hold for the recorded inputs.
func TestPlacementFingerprint(t *testing.T) {
	findBench := func(list []bmark.Bench, name string) bmark.Bench {
		for _, b := range list {
			if b.Name == name {
				return b
			}
		}
		t.Fatalf("no suite bench %q", name)
		return bmark.Bench{}
	}
	cases := []struct {
		name    string
		design  func() *model.Design
		opt     func(d *model.Design) Options
		in, out string
	}{
		{
			name:   "sparse-ispd",
			design: func() *model.Design { return bmark.ISPDDesign(findBench(bmark.ISPDBenches(), "fft_a"), 0.02) },
			opt: func(*model.Design) Options {
				return Options{TotalDisplacement: true, Workers: 2}
			},
			in:  "800ae861dc2ad9f6169a90e6085f56bf257bc7b2c6cf064a85985c09d887830a",
			out: "e42092099def853d999c0458707e8141def602cd0a3a4ffd297e538355a0a814",
		},
		{
			name:   "dense-fenced",
			design: func() *model.Design { return bmark.ContestDesign(findBench(bmark.ContestBenches(), "fft_2_md2"), 0.01) },
			opt: func(*model.Design) Options {
				return Options{Routability: true, Verify: true, Recovery: stage.RecoverFallback, Workers: 2}
			},
			in:  "19670e08313a9d71d3f3d69ce2c509039457a2d4fd56cb1248e9245507fccaa8",
			out: "fab00eb1c08dea8852f327edbfb1f03a9ab561f116f7c2d8be100aa77bc16e2c",
		},
		{
			name:   "fence-sharded",
			design: func() *model.Design { return bmark.ShardDesign(findBench(bmark.ShardBenches(), "shard_s"), 0.01) },
			opt: func(d *model.Design) Options {
				return Options{Shards: 2, Workers: 1, ShardPlan: shard.Options{
					SlabTargetCells: d.MovableCount()/4 + 1, MaxSlabUtil: 0.95,
				}}
			},
			in:  "c9ddef6c6b30a2edcce395b96d3cbe2477fcf3957504e3ee6b41606dcd1591cb",
			out: "e34be8d319e9c9baa4295a11c38d2ca1cda648fc1b6a95f3353f581ad9d6d4eb",
		},
	}
	hash := func(d *model.Design) string {
		var buf bytes.Buffer
		if err := bmark.Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.design()
			if got := hash(d); got != tc.in {
				t.Skipf("generated input hash %s, recorded %s: the generator's float math differs on this platform (FMA fusion), so the recorded placement does not apply", got, tc.in)
			}
			if _, err := Run(d, tc.opt(d)); err != nil {
				t.Fatal(err)
			}
			if got := hash(d); got != tc.out {
				t.Errorf("placement hash %s, recorded %s: placements moved", got, tc.out)
			}
		})
	}
}
