package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"locallab/internal/lcl"
)

// splitReference is Split written purely against encoding/json: the
// semantics the canonical fast path must reproduce byte for byte,
// including the error text.
func splitReference(l lcl.Label, n int) ([]lcl.Label, error) {
	var ss []string
	if err := json.Unmarshal([]byte(l), &ss); err != nil {
		return nil, fmt.Errorf("split label %q: %w", l, err)
	}
	if len(ss) != n {
		return nil, fmt.Errorf("split label: got %d parts, want %d", len(ss), n)
	}
	out := make([]lcl.Label, n)
	for i, s := range ss {
		out[i] = lcl.Label(s)
	}
	return out, nil
}

// checkSplit fails unless Split and splitInto agree with splitReference
// on l: the same parts, or the same error text.
func checkSplit(t *testing.T, l lcl.Label, n int) {
	t.Helper()
	want, wantErr := splitReference(l, n)
	got, err := Split(l, n)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("Split(%q, %d) error %v, want %v", l, n, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Split(%q, %d) = %q, want %q", l, n, got, want)
	}
	dst := make([]lcl.Label, n)
	err = splitInto(l, dst)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("splitInto(%q, %d) error %v, want %v", l, n, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(dst, want) {
		t.Fatalf("splitInto(%q, %d) = %q, want %q", l, n, dst, want)
	}
}

// checkCompose fails unless Compose emits json.Marshal's bytes.
func checkCompose(t *testing.T, parts ...lcl.Label) {
	t.Helper()
	ss := make([]string, len(parts))
	for i, p := range parts {
		ss[i] = string(p)
	}
	want, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Compose(parts...)
	if err != nil {
		t.Fatalf("Compose(%q): %v", parts, err)
	}
	if string(got) != string(want) {
		t.Fatalf("Compose(%q) = %q, want %q", parts, got, want)
	}
}

// FuzzLabelCodec differentially tests the composite-label codec against
// encoding/json: Compose must emit json.Marshal's bytes, and Split must
// return encoding/json's parts or its exact error for any label bytes.
func FuzzLabelCodec(f *testing.F) {
	level1, _ := Compose("x", "Index:3")
	level2, _ := Compose(level1, MarkGadEdge)
	level3, _ := Compose(level2, `a"b\c`)
	for _, seed := range []struct {
		label string
		n     uint8
		a, b  string
	}{
		{string(level3), 2, string(level2), string(level1)},
		{string(level2), 2, `"`, `\`},
		{`["\"","\\"]`, 2, "<>&", " "},
		{"[\"\x01\",\"\n\"]", 2, "\x01\n\t", "\x7f"},
		{"[\"\xff\",\"b\"]", 2, "\xff\xfe", "é"},
		{`[ "a", "b" ]`, 2, "", ""},
		{`["a","b"] `, 2, "a", "b"},
		{`["A","\/"]`, 2, "a", "b"},
		{`null`, 0, "", ""},
		{`null`, 2, "", ""},
		{`[]`, 0, "", ""},
		{`[]`, 2, "", ""},
		{`["a"]`, 2, "", ""},
		{`["a","b","c"]`, 2, "", ""},
		{`["a",1]`, 2, "", ""},
		{`["a","b`, 2, "", ""},
		{`["a\"]`, 1, "", ""},
		{`"ab"`, 2, "", ""},
	} {
		f.Add(seed.label, seed.n, seed.a, seed.b)
	}
	f.Fuzz(func(t *testing.T, label string, n uint8, a, b string) {
		checkSplit(t, lcl.Label(label), int(n%5))
		checkCompose(t)
		checkCompose(t, lcl.Label(a))
		checkCompose(t, lcl.Label(a), lcl.Label(b))
		both, err := Compose(lcl.Label(a), lcl.Label(b))
		if err != nil {
			t.Fatal(err)
		}
		checkSplit(t, both, 2)
		checkSplit(t, both, 3)
	})
}
