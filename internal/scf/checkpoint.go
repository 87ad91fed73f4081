package scf

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"gtfock/internal/durable"
	"gtfock/internal/linalg"
)

// Checkpoint is the on-disk SCF state: enough to warm-start a calculation
// (Options.InitialFock) or postprocess a converged one.
type Checkpoint struct {
	Version   int
	Formula   string
	BasisName string
	NumFuncs  int
	Iter      int    // SCF iteration this state was taken at (0 if unknown)
	Reorder   string // shell ordering the matrices are expressed in
	Converged bool
	Energy    float64
	FData     []float64
	DData     []float64
}

const checkpointVersion = 1

// PrevSuffix is appended to a checkpoint path to name the previous
// generation kept as the fallback for a corrupted or torn latest file.
const PrevSuffix = ".prev"

// Save writes the checkpoint to path atomically and durably
// (durable.WriteFile): a crash — including a power loss — never leaves a
// torn checkpoint where a previous valid one stood. The previous
// checkpoint is first rotated to path+PrevSuffix, so one older generation
// always survives; a crash between the rotation and the write leaves the
// latest state in the fallback slot, which LoadCheckpointFallback reads.
// Concurrent Saves to one path (HA peers sharing a job's checkpoint) each
// write their own temp file, so whichever file lands is one writer's.
func (ck *Checkpoint) Save(path string) error {
	// Best-effort: on the first save there is nothing to rotate.
	if _, err := os.Stat(path); err == nil {
		os.Rename(path, path+PrevSuffix)
	}
	return durable.WriteFile(path, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(ck)
	})
}

// SaveCheckpoint writes the SCF state of res to path (gob encoding,
// atomic rename).
func SaveCheckpoint(path string, res *Result, basisName string) error {
	if res.F == nil || res.D == nil {
		return fmt.Errorf("scf: result has no matrices to checkpoint")
	}
	ck := Checkpoint{
		Version:   checkpointVersion,
		Formula:   res.Basis.Mol.Formula(),
		BasisName: basisName,
		NumFuncs:  res.Basis.NumFuncs,
		Iter:      len(res.Iterations),
		Reorder:   res.Reorder,
		Converged: res.Converged,
		Energy:    res.Energy,
		FData:     res.F.Data,
		DData:     res.D.Data,
	}
	return ck.Save(path)
}

// LoadCheckpoint reads an SCF checkpoint from path.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readCheckpoint(f, path)
}

// readCheckpoint decodes and validates the checkpoint bytes of r; path
// names the source in errors.
func readCheckpoint(r io.Reader, path string) (*Checkpoint, error) {
	var ck Checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("scf: corrupt checkpoint %s: %w", path, err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("scf: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	}
	n := ck.NumFuncs
	if n <= 0 {
		return nil, fmt.Errorf("scf: checkpoint %s has invalid NumFuncs %d", path, n)
	}
	// Size the matrices in int64 so a hostile NumFuncs cannot wrap n*n.
	nn := int64(n) * int64(n)
	if int64(len(ck.FData)) != nn || int64(len(ck.DData)) != nn {
		return nil, fmt.Errorf("scf: checkpoint %s matrix sizes (%d, %d) inconsistent with %d functions",
			path, len(ck.FData), len(ck.DData), n)
	}
	for _, data := range [][]float64{ck.FData, ck.DData} {
		for _, v := range data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("scf: checkpoint %s contains non-finite matrix entries", path)
			}
		}
	}
	return &ck, nil
}

// LoadCheckpointFallback reads the checkpoint at path, falling back to
// the previous generation (path+PrevSuffix) when the latest file is
// missing, torn, or fails validation — a crash mid-save then costs one
// SCF iteration instead of the whole run. Only when neither generation
// is usable is the latest error returned (an os.ErrNotExist from both
// means a cold start).
func LoadCheckpointFallback(path string) (*Checkpoint, error) {
	ck, err := LoadCheckpoint(path)
	if err == nil {
		return ck, nil
	}
	prev, perr := LoadCheckpoint(path + PrevSuffix)
	if perr == nil {
		return prev, nil
	}
	return nil, err
}

// Fock reconstructs the checkpointed Fock matrix.
func (ck *Checkpoint) Fock() *linalg.Matrix {
	m := linalg.NewMatrix(ck.NumFuncs, ck.NumFuncs)
	copy(m.Data, ck.FData)
	return m
}

// Density reconstructs the checkpointed density matrix.
func (ck *Checkpoint) Density() *linalg.Matrix {
	m := linalg.NewMatrix(ck.NumFuncs, ck.NumFuncs)
	copy(m.Data, ck.DData)
	return m
}

// Validate checks that the checkpoint belongs to the given system.
func (ck *Checkpoint) Validate(formula, basisName string, numFuncs int) error {
	if ck.Formula != formula || ck.BasisName != basisName || ck.NumFuncs != numFuncs {
		return fmt.Errorf("scf: checkpoint is for %s/%s (%d funcs), not %s/%s (%d funcs)",
			ck.Formula, ck.BasisName, ck.NumFuncs, formula, basisName, numFuncs)
	}
	return nil
}
