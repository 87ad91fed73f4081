package chem

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec builds a molecule from the command-line spec grammar shared
// by every driver in this repository: "alkane:N" (the paper's linear
// alkane series), "flake:K" (hexagonal graphene flakes), or a named
// formula from the paper's test set (CH4, C6H6, ...). A malformed or
// non-positive size is an error, never a panic: specs arrive from
// network clients.
func ParseSpec(spec string) (*Molecule, error) {
	switch {
	case strings.HasPrefix(spec, "alkane:"):
		n, err := parseSize(spec, "alkane:")
		if err != nil {
			return nil, err
		}
		return Alkane(n), nil
	case strings.HasPrefix(spec, "flake:"):
		k, err := parseSize(spec, "flake:")
		if err != nil {
			return nil, err
		}
		return GrapheneFlake(k), nil
	default:
		return PaperMolecule(spec)
	}
}

// parseSize reads the positive integer after prefix.
func parseSize(spec, prefix string) (int, error) {
	n, err := strconv.Atoi(spec[len(prefix):])
	if err != nil {
		return 0, fmt.Errorf("chem: molecule spec %q: %w", spec, err)
	}
	if n < 1 {
		return 0, fmt.Errorf("chem: molecule spec %q: size must be at least 1", spec)
	}
	return n, nil
}
