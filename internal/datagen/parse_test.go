package datagen

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rheem/internal/core"
)

// cascadeRecord is the reference ParseRecordLine replaced: every field goes
// through ParseInt, then ParseFloat, then stays a string.
func cascadeRecord(line string) core.Record {
	fields := strings.Split(line, "\t")
	rec := make(core.Record, len(fields))
	for i, f := range fields {
		if n, err := strconv.ParseInt(f, 10, 64); err == nil {
			rec[i] = n
		} else if x, err := strconv.ParseFloat(f, 64); err == nil {
			rec[i] = x
		} else {
			rec[i] = f
		}
	}
	return rec
}

// sameRecord is reflect.DeepEqual, except that a NaN field equals a NaN
// field of the same type (DeepEqual never equates NaNs).
func sameRecord(a, b core.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, xok := a[i].(float64)
		y, yok := b[i].(float64)
		if xok && yok && math.IsNaN(x) && math.IsNaN(y) {
			continue
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestParseRecordLineMatchesCascade(t *testing.T) {
	check := func(line string) {
		t.Helper()
		if got, want := ParseRecordLine(line), cascadeRecord(line); !sameRecord(got, want) {
			t.Fatalf("line %q: parsed %#v, cascade %#v", line, got, want)
		}
	}
	db := GenTPCH(0.2, 11)
	for _, table := range [][]core.Record{db.Region, db.Nation, db.Supplier, db.Customer, db.Orders, db.Lineitem} {
		for _, line := range RecordLines(table) {
			check(line)
		}
	}
	edges := []string{
		"", "-", "+", "+5", "-0", "007", "9223372036854775807", "9223372036854775808",
		"-9223372036854775809", "1e5", "1E-5", "1e400", ".5", "-.5", "5.", ".", "e5",
		"inf", "+Inf", "-infinity", "infinit", "NaN", "nan", "-nan", "+NaN", "nano",
		"0x1p-2", "0x10", "0X1P+3", "1_000", "0x_1p0", "_1", "-abc", "abc", " 1", "1 ",
		"１", "Supplier#000001",
	}
	for _, f := range edges {
		check(f)
		check(f + "\t")
		check("x\t" + f + "\tx")
	}
	// Random fields over the characters any of strconv's syntaxes use.
	rng := rand.New(rand.NewSource(5))
	const alphabet = "0123456789+-._eEpPxXiInNfFaAtTyY \t"
	for i := 0; i < 200000; i++ {
		b := make([]byte, rng.Intn(8))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		check(string(b))
	}

	line := RecordLines(db.Lineitem[:1])[0]
	fields := len(cascadeRecord(line))
	if allocs := testing.AllocsPerRun(100, func() { ParseRecordLine(line) }); allocs > float64(fields+2) {
		t.Fatalf("lineitem line %q: %v allocations, want at most %d", line, allocs, fields+2)
	}
}

var parsedSink core.Record

// BenchmarkParseRecordLine parses every generated lineitem line once per
// iteration (the Q5 scan's per-line work).
func BenchmarkParseRecordLine(b *testing.B) {
	lines := RecordLines(GenTPCH(0.1, 1).Lineitem)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range lines {
			parsedSink = ParseRecordLine(l)
		}
	}
}
