package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// checker holds the outcomes a run has seen, so that every later pass
// must repeat them exactly: reports compare with Report.SameOutcome and
// frames byte for byte against the run's first pass, and by digest
// against every earlier run with the same workload and seed (kept in a
// file).
type checker struct {
	path  string
	prior map[string]string // digests from earlier runs
	seen  map[string]string // digests from this run
	first map[string]outcome
}

func newChecker(path string) (*checker, error) {
	c := &checker{path: path, prior: map[string]string{}, seen: map[string]string{}, first: map[string]outcome{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &c.prior); err != nil {
		return nil, fmt.Errorf("reference outcomes %s: %w", path, err)
	}
	return c, nil
}

// compare checks one pass's outcomes and returns one error per outcome
// that differs from an earlier one.
func (c *checker) compare(outs map[string]outcome) []error {
	keys := make([]string, 0, len(outs))
	for k := range outs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var errs []error
	for _, key := range keys {
		o := outs[key]
		if f, ok := c.first[key]; !ok {
			c.first[key] = o
		} else if err := sameOutcome(f, o); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w than in this run's first pass", key, err))
			continue
		}
		d := o.digest()
		if want, ok := c.prior[key]; ok && want != d {
			errs = append(errs, fmt.Errorf("%s: differs from an earlier run with the same workload and seed", key))
			continue
		}
		c.seen[key] = d
	}
	return errs
}

func sameOutcome(a, b outcome) error {
	switch {
	case a.Report == nil && b.Report == nil:
		if a.Text != b.Text {
			return fmt.Errorf("renders differently")
		}
	case !a.Report.SameOutcome(b.Report):
		return fmt.Errorf("reports a different outcome")
	case !framesEqual(a.Frames, b.Frames):
		return fmt.Errorf("synthesizes different frames")
	}
	return nil
}

// save adds the outcomes first seen in this run to the reference file.
// A key that already had a reference keeps it.
func (c *checker) save() error {
	merged := map[string]string{}
	for k, v := range c.seen {
		merged[k] = v
	}
	for k, v := range c.prior {
		merged[k] = v
	}
	if len(merged) == len(c.prior) {
		return nil
	}
	data, err := json.MarshalIndent(merged, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

// digest hashes everything SameOutcome compares, plus the frames, or the
// rendered text.
func (o outcome) digest() string {
	h := sha256.New()
	if o.Report == nil {
		h.Write([]byte(o.Text))
		return hex.EncodeToString(h.Sum(nil))
	}
	r := *o.Report
	r.AnalysisSeconds, r.Telemetry = 0, nil
	data, err := json.Marshal(&r)
	if err != nil {
		panic(err) // a Report always marshals
	}
	h.Write(data)
	var n [8]byte
	for _, fr := range o.Frames {
		binary.LittleEndian.PutUint64(n[:], uint64(len(fr)))
		h.Write(n[:])
		h.Write(fr)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func framesEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
