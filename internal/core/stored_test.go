package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// fillNonZero sets every exported field reachable from v to a distinct
// non-zero value: slices get two elements, pointers a pointee.
func fillNonZero(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n) << 33)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString("s" + string(rune('a'+*n%26)))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(v.Field(i), n)
			}
		}
	}
}

// storedRoundTrip stores a job result of type T, filled non-zero, through
// one runner's cache and reads it back through another's: the value read
// must deep-equal the value stored and its JSON round trip.
func storedRoundTrip[T any](t *testing.T) {
	t.Helper()
	var v T
	n := 0
	fillNonZero(reflect.ValueOf(&v).Elem(), &n)
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := runner.KeyOf("stored", reflect.TypeOf(v).String())
	var got T
	for pass := 0; pass < 2; pass++ {
		r := runner.New(runner.Options{Cache: c})
		g := r.NewGraph()
		j := runner.Submit(g, runner.Spec{Key: key}, func(context.Context) (T, error) {
			if pass > 0 {
				t.Errorf("%T: stored result recomputed", v)
			}
			return v, nil
		})
		if err := g.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, err = j.Result(); err != nil {
			t.Fatal(err)
		}
		if pass > 0 && r.Counts().CacheHits != 1 {
			t.Fatalf("%T: %+v, want one cache hit", v, r.Counts())
		}
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("%T read back as\n%+v\nwant\n%+v", v, got, v)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON T
	if err := json.Unmarshal(b, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, viaJSON) {
		t.Errorf("%T read back differs from its JSON round trip", v)
	}
}

// TestStoredResultsRoundTrip covers every result type the engine stores
// in the result cache.
func TestStoredResultsRoundTrip(t *testing.T) {
	storedRoundTrip[*RunResult](t)
	storedRoundTrip[*execution](t)
	storedRoundTrip[[]memsys.Stats](t)
	storedRoundTrip[[][]float64](t)
	storedRoundTrip[sampledSweep](t)
}
