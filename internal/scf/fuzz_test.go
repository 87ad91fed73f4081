package scf

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

// FuzzLoadCheckpoint: no file content panics LoadCheckpoint's decoder.
// A rejected file returns an error and no checkpoint; an accepted one
// holds the current version, a positive size, two finite n x n
// matrices, and rebuilds them.
func FuzzLoadCheckpoint(f *testing.F) {
	valid := Checkpoint{Version: checkpointVersion, Formula: "H2", BasisName: "sto-3g",
		NumFuncs: 2, Iter: 3, Energy: -1.1, FData: []float64{1, 2, 2, 1}, DData: []float64{.5, 0, 0, .5}}
	for _, ck := range []Checkpoint{valid,
		{Version: checkpointVersion + 1, NumFuncs: 1, FData: []float64{1}, DData: []float64{1}},
		{Version: checkpointVersion, NumFuncs: 2, FData: []float64{1}, DData: []float64{1}},
		{Version: checkpointVersion, NumFuncs: 1, FData: []float64{math.NaN()}, DData: []float64{1}},
		{Version: checkpointVersion, NumFuncs: -3},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&ck); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2]) // torn write
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := readCheckpoint(bytes.NewReader(data), "fuzz.ckpt")
		if err != nil {
			if ck != nil {
				t.Fatal("rejected checkpoint returned alongside its error")
			}
			return
		}
		n := ck.NumFuncs
		if ck.Version != checkpointVersion || n <= 0 ||
			len(ck.FData) != n*n || len(ck.DData) != n*n {
			t.Fatalf("accepted an inconsistent checkpoint: version %d, n %d, sizes %d/%d",
				ck.Version, n, len(ck.FData), len(ck.DData))
		}
		for _, v := range append(append([]float64(nil), ck.FData...), ck.DData...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("accepted a non-finite matrix entry")
			}
		}
		if ck.Fock().Rows != n || ck.Density().Cols != n {
			t.Fatal("rebuilt matrices have the wrong shape")
		}
	})
}
