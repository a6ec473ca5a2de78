package ptg

import (
	"reflect"
	"testing"
)

// counterLeaves returns every integer field reachable in v (a struct),
// descending into nested structs such as fault.Stats. Any other field kind
// fails the test: Counters holds additive integers only.
func counterLeaves(t *testing.T, v reflect.Value, path string) map[string]reflect.Value {
	t.Helper()
	out := map[string]reflect.Value{}
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			out[name] = f
		case reflect.Struct:
			for k, leaf := range counterLeaves(t, f, name+".") {
				out[k] = leaf
			}
		default:
			t.Fatalf("Counters field %s has kind %s; only additive integers belong there", name, f.Kind())
		}
	}
	return out
}

// TestCountersAddCoversEveryField sets each counter (nested fault.Stats
// counters included) on its own and checks that Add sums exactly that
// counter, so a field added to Counters without a line in Add fails here.
func TestCountersAddCoversEveryField(t *testing.T) {
	names := counterLeaves(t, reflect.ValueOf(&Counters{}).Elem(), "")
	if len(names) < 15 {
		t.Fatalf("found only %d counters; the walk missed fields", len(names))
	}
	for name := range names {
		var c, o Counters
		counterLeaves(t, reflect.ValueOf(&c).Elem(), "")[name].SetInt(3)
		counterLeaves(t, reflect.ValueOf(&o).Elem(), "")[name].SetInt(4)
		c.Add(o)
		for other, leaf := range counterLeaves(t, reflect.ValueOf(&c).Elem(), "") {
			want := int64(0)
			if other == name {
				want = 7
			}
			if got := leaf.Int(); got != want {
				t.Errorf("after adding %s: %s = %d, want %d", name, other, got, want)
			}
		}
	}
}

func TestCountersBundleFill(t *testing.T) {
	if f := (&Counters{}).BundleFill(); f != 0 {
		t.Errorf("BundleFill with no bundles = %v, want 0", f)
	}
	if f := (&Counters{Bundles: 4, Segments: 10}).BundleFill(); f != 2.5 {
		t.Errorf("BundleFill = %v, want 2.5", f)
	}
}
