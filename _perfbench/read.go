package main

import (
	"bufio"
	"context"
	"fmt"
	"os"

	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// readText loads a text trace file strictly, as the CLI does.
func readText(ctx context.Context, path string, reg *trace.Registry) (*trace.TraceSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, _, err := trace.ReadSetTextContext(ctx, bufio.NewReader(f), reg, trace.ReadOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readStream opens a PLOT1 file as a compressed StreamSet, as the CLI's
// -stream does.
func readStream(ctx context.Context, path string, reg *trace.Registry) (*parlot.StreamSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, _, err := parlot.ReadStreamSetContext(ctx, bufio.NewReader(f), reg, trace.ReadOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
